//! E8: the distributed-scheduling claim — per-fiber schedulers are
//! independent, so one fiber's decisions never depend on another fiber's
//! traffic, and the hardware pipeline agrees with the software
//! interconnect.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_optical::core::{ChannelMask, Conversion, Policy};
use wdm_optical::hardware::{HardwareScheduler, RequestRegister};
use wdm_optical::interconnect::{ConnectionRequest, Interconnect, InterconnectConfig};

fn random_requests(
    rng: &mut StdRng,
    n: usize,
    k: usize,
    p: f64,
    max_dur: u32,
) -> Vec<ConnectionRequest> {
    let mut reqs = Vec::new();
    for fiber in 0..n {
        for w in 0..k {
            if rng.gen_bool(p) {
                reqs.push(ConnectionRequest::burst(
                    fiber,
                    w,
                    rng.gen_range(0..n),
                    rng.gen_range(1..=max_dur),
                ));
            }
        }
    }
    reqs
}

/// Per-fiber isolation: removing all traffic to other fibers does not
/// change one fiber's decisions, under five schedulers: Auto resolves to
/// BFA, First Available and the full-range scheduler on the three
/// conversion kinds, plus the approximation and Hopcroft–Karp.
///
/// Each round is one slot on a fresh interconnect. With multi-slot holds
/// the fibers couple through source-side admission (a held input channel
/// is busy toward every fiber), so isolation is exact only within a slot.
#[test]
fn per_fiber_decisions_are_isolated() {
    let (n, k) = (6, 6);
    for (conv, policy) in [
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::Auto),
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::Approximate),
        (Conversion::non_circular(k, 1, 1).unwrap(), Policy::Auto),
        (Conversion::full(k).unwrap(), Policy::Auto),
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::HopcroftKarp),
    ] {
        let mk = || {
            Interconnect::new(InterconnectConfig::packet_switch(n, conv).with_policy(policy))
                .unwrap()
        };
        let mut rng = StdRng::seed_from_u64(33);
        for round in 0..50 {
            let all = random_requests(&mut rng, n, k, 0.8, 1);
            let target = 2usize;
            let only: Vec<ConnectionRequest> =
                all.iter().copied().filter(|r| r.dst_fiber == target).collect();

            let ra = mk().advance_slot(&all).unwrap();
            let rb = mk().advance_slot(&only).unwrap();
            let grants_a: Vec<_> =
                ra.grants.iter().filter(|g| g.request.dst_fiber == target).collect();
            let grants_b: Vec<_> = rb.grants.iter().collect();
            assert_eq!(
                grants_a, grants_b,
                "{policy:?} round {round}: fiber {target}'s schedule depends only on its own requests"
            );
            let losses_a: Vec<_> =
                ra.rejections.iter().filter(|r| r.request.dst_fiber == target).collect();
            let losses_b: Vec<_> = rb.rejections.iter().collect();
            assert_eq!(losses_a, losses_b, "{policy:?} round {round}: fiber {target}'s losses");
        }
    }
}

/// The hardware pipeline (registers, encoders, arbiters) produces the same
/// per-fiber grants as the software interconnect for single-slot traffic.
#[test]
fn hardware_pipeline_matches_software_interconnect() {
    let (n, k) = (5, 8);
    let conv = Conversion::symmetric_circular(k, 3).unwrap();
    let mut rng = StdRng::seed_from_u64(8);

    let mut software = Interconnect::new(InterconnectConfig::packet_switch(n, conv)).unwrap();
    let mut hardware: Vec<HardwareScheduler> =
        (0..n).map(|_| HardwareScheduler::new(n, conv).unwrap()).collect();

    for _ in 0..40 {
        let reqs = random_requests(&mut rng, n, k, 0.7, 1);
        // Pin the software matching layer cold: the hardware pipeline runs
        // BFA from scratch every slot, while a warm interconnect would
        // repair the previous matching — same cardinality, but not the same
        // channels. Both sides' round-robin arbiters still advance in
        // lockstep across slots (that part must stay persistent).
        software.reset_warm();
        let sw = software.advance_slot(&reqs).unwrap();
        for (dst, hw) in hardware.iter_mut().enumerate() {
            let mut reg = RequestRegister::new(n, k);
            for r in reqs.iter().filter(|r| r.dst_fiber == dst) {
                reg.set_request(r.src_fiber, r.src_wavelength);
            }
            let hw_grants = hw.schedule_slot(&mut reg, &ChannelMask::all_free(k)).unwrap();
            let mut hw_set: Vec<(usize, usize, usize)> = hw_grants
                .iter()
                .map(|g| (g.input_fiber, g.input_wavelength, g.output_wavelength))
                .collect();
            let mut sw_set: Vec<(usize, usize, usize)> = sw
                .grants
                .iter()
                .filter(|g| g.request.dst_fiber == dst)
                .map(|g| (g.request.src_fiber, g.request.src_wavelength, g.output_wavelength))
                .collect();
            hw_set.sort_unstable();
            sw_set.sort_unstable();
            assert_eq!(hw_set, sw_set, "fiber {dst}");
        }
    }
}
