//! Quantifying the paper's motivation: synchronized maximum-matching
//! scheduling vs the asynchronous FCFS rule the prior work ([11], [13],
//! [14]) assumes. FCFS admission is a greedy maximal matching, so per slot
//! it is at most optimal and at least half of it (maximal-matching bound);
//! under sustained contention the scheduled switch carries strictly more.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_optical::core::algorithms::{validate_assignments, BreakFirstAvailable, Matcher};
use wdm_optical::core::{ChannelMask, Conversion, RequestVector};
use wdm_optical::interconnect::{ConnectionRequest, FcfsSwitch, Interconnect, InterconnectConfig};

fn fcfs_admit_slot(conv: Conversion, requests: &[(usize, usize)]) -> usize {
    // n = number of requests so every source channel is distinct.
    let n = requests.len().max(1);
    let mut sw = FcfsSwitch::new(n, conv).unwrap();
    requests
        .iter()
        .enumerate()
        .filter(|&(i, &(_, w))| sw.admit(ConnectionRequest::packet(i, w, 0)).unwrap().is_ok())
        .count()
}

/// Per-slot: optimal/2 <= FCFS <= optimal, on random single-fiber slots.
#[test]
fn fcfs_bounded_by_maximum_matching() {
    let k = 8;
    let conv = Conversion::symmetric_circular(k, 3).unwrap();
    let mask = ChannelMask::all_free(k);
    let mut rng = StdRng::seed_from_u64(71);
    for _ in 0..500 {
        let reqs: Vec<(usize, usize)> =
            (0..rng.gen_range(0..2 * k)).map(|i| (i, rng.gen_range(0..k))).collect();
        let rv =
            RequestVector::from_wavelengths(k, &reqs.iter().map(|&(_, w)| w).collect::<Vec<_>>())
                .unwrap();
        let optimal = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &optimal).unwrap();
        let fcfs = fcfs_admit_slot(conv, &reqs);
        assert!(fcfs <= optimal.len());
        assert!(2 * fcfs >= optimal.len(), "maximal matchings are 1/2-approximations");
    }
}

/// A concrete pattern where FCFS strictly loses: first-fit parks λ1 on
/// channel 0, starving a later λ5 request whose range wraps to {4, 5, 0}…
/// constructed so the optimal matching admits all.
#[test]
fn fcfs_strictly_loses_on_a_crafted_pattern() {
    let k = 6;
    let conv = Conversion::symmetric_circular(k, 3).unwrap();
    // Arrival order matters for FCFS: λ1 grabs 0, λ2 grabs 1, λ3 grabs 2,
    // then λ0, λ0: span {5,0,1}: 5 free, 0/1 taken → one admitted at 5,
    // the next rejected. Optimal admits all five:
    // λ1→1, λ2→2, λ3→3, λ0→0, λ0→5.
    let reqs = [(0usize, 1usize), (1, 2), (2, 3), (3, 0), (4, 0)];
    let fcfs = fcfs_admit_slot(conv, &reqs);
    let rv = RequestVector::from_counts(vec![2, 1, 1, 1, 0, 0]).unwrap();
    let optimal = BreakFirstAvailable::default()
        .schedule(&conv, &rv, &ChannelMask::all_free(k))
        .unwrap()
        .len();
    assert_eq!(optimal, 5);
    assert!(fcfs < optimal, "FCFS admitted {fcfs}, optimal admits {optimal}");
}

/// Sustained traffic through the full switch: scheduled throughput >= FCFS
/// throughput, with a measurable gap at high load.
#[test]
fn scheduled_switch_outperforms_fcfs_under_load() {
    let (n, k) = (4usize, 8usize);
    let conv = Conversion::symmetric_circular(k, 3).unwrap();
    let slots = 2_000;
    let load = 0.9;

    let mut scheduled = Interconnect::new(InterconnectConfig::packet_switch(n, conv)).unwrap();
    let mut fcfs = FcfsSwitch::new(n, conv).unwrap();
    let (mut granted_sched, mut granted_fcfs) = (0usize, 0usize);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..slots {
        let mut reqs = Vec::new();
        for fiber in 0..n {
            for w in 0..k {
                if rng.gen_bool(load) {
                    reqs.push(ConnectionRequest::packet(fiber, w, rng.gen_range(0..n)));
                }
            }
        }
        granted_sched += scheduled.advance_slot(&reqs).unwrap().grants.len();
        // FCFS sees the same requests one at a time within the slot.
        for &r in &reqs {
            if fcfs.admit(r).unwrap().is_ok() {
                granted_fcfs += 1;
            }
        }
        fcfs.tick();
    }
    assert!(granted_sched >= granted_fcfs);
    let gain = granted_sched as f64 / granted_fcfs as f64;
    assert!(gain > 1.005, "scheduling should measurably beat FCFS at 0.9 load (gain {gain:.4})");
}
