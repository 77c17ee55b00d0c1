//! Hardware/software equivalence: the cycle-counted register model must
//! produce exactly the schedules the software algorithms produce (the RTL
//! and the reference implementation compute the same function).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

use wdm_core::algorithms::{validate_assignments, BreakFirstAvailable, FirstAvailable, Matcher};
use wdm_core::{ChannelMask, Conversion, FiberScheduler, Policy, RequestVector};
use wdm_hardware::{BreakFaUnit, FirstAvailableUnit, HardwareScheduler, RequestRegister};

#[derive(Debug, Clone)]
struct Instance {
    k: usize,
    e: usize,
    f: usize,
    counts: Vec<usize>,
    occupied: Vec<bool>,
}

fn instance(max_k: usize, max_count: usize) -> impl Strategy<Value = Instance> {
    (1..=max_k).prop_flat_map(move |k| {
        let reach = (0..k, 0..k).prop_filter("degree <= k", move |(e, f)| e + f < k);
        (
            Just(k),
            reach,
            proptest::collection::vec(0..=max_count, k),
            proptest::collection::vec(proptest::bool::weighted(0.2), k),
        )
            .prop_map(|(k, (e, f), counts, occupied)| Instance {
                k,
                e,
                f,
                counts,
                occupied,
            })
    })
}

fn mask_of(inst: &Instance) -> ChannelMask {
    ChannelMask::from_flags(inst.occupied.iter().map(|&o| !o).collect()).unwrap()
}

fn sorted(assignments: &[wdm_core::algorithms::Assignment]) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = assignments.iter().map(|a| (a.input, a.output)).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The First Available hardware unit computes bit-identical schedules to
    /// the software scheduler, in exactly k cycles.
    #[test]
    fn fa_unit_equals_software(inst in instance(24, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let unit = FirstAvailableUnit::new(conv).unwrap();
        let hw = unit.run(&rv, &mask).unwrap();
        let sw = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
        prop_assert_eq!(sorted(&hw.assignments), sorted(&sw));
        prop_assert_eq!(hw.cycles, inst.k);
    }

    /// The Break-and-FA hardware unit produces maximum schedules of the same
    /// size as the software scheduler.
    #[test]
    fn bfa_unit_equals_software(inst in instance(18, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let unit = BreakFaUnit::new(conv).unwrap();
        let hw = unit.run(&rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &hw.assignments).unwrap();
        let sw = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap();
        prop_assert_eq!(hw.assignments.len(), sw.len());
    }

    /// The full pipeline (registers → unit → arbiter) grants exactly as many
    /// requests as the software fiber scheduler, and every grant is a
    /// distinct input channel driving a distinct free output channel within
    /// conversion range.
    #[test]
    fn pipeline_equals_fiber_scheduler(
        inst in instance(12, 3),
        n in 1usize..6,
        circular in proptest::bool::ANY,
        seed in 0u64..1024,
    ) {
        let conv = if circular {
            Conversion::circular(inst.k, inst.e, inst.f).unwrap()
        } else {
            Conversion::non_circular(inst.k, inst.e, inst.f).unwrap()
        };
        let mask = mask_of(&inst);
        // Spread counts over fibers deterministically from the seed; counts
        // above n are truncated (each input channel holds one packet).
        let mut reg = RequestRegister::new(n, inst.k);
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for (w, &c) in inst.counts.iter().enumerate() {
            let mut placed = 0usize;
            let mut fiber = (state % n as u64) as usize;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            while placed < c.min(n) {
                reg.set_request(fiber, w);
                fiber = (fiber + 1) % n;
                placed += 1;
            }
        }
        let rv = reg.to_request_vector();
        let mut sched = HardwareScheduler::new(n, conv).unwrap();
        let before = reg.total();
        let grants = sched.schedule_slot(&mut reg, &mask).unwrap();
        prop_assert_eq!(reg.total(), before - grants.len());

        // Physical consistency.
        let mut outs = std::collections::HashSet::new();
        let mut ins = std::collections::HashSet::new();
        for g in &grants {
            prop_assert!(mask.is_free(g.output_wavelength));
            prop_assert!(conv.converts(g.input_wavelength, g.output_wavelength));
            prop_assert!(outs.insert(g.output_wavelength), "output reused");
            prop_assert!(ins.insert((g.input_fiber, g.input_wavelength)), "input reused");
        }

        // Same throughput as the software reference.
        let sw = FiberScheduler::new(conv, Policy::Auto)
            .schedule_with_mask(&rv, &mask)
            .unwrap();
        prop_assert_eq!(grants.len(), sw.granted());
    }
}
