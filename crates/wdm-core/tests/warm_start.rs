//! Warm-start differential battery: over coherent slot *sequences* the
//! stateful [`FiberScheduler::schedule_slot`] path — which repairs the
//! previous slot's matching instead of rescheduling from scratch — must
//! grant exactly as many requests per slot as a from-scratch run, and every
//! slot must certify against the bound it reports.
//!
//! Three properties:
//!
//! * **Cardinality agreement** — on every slot of a random coherent
//!   sequence, warm `schedule_slot` grants the same number of requests as a
//!   cold `schedule_with_mask` on a throwaway scheduler *and* as the
//!   Hopcroft–Karp oracle (the channel assignment itself may differ — repair
//!   preserves maximality by Berge's lemma, not the assignment vector).
//! * **Certified, arena-independent trajectory** — every slot's assignments
//!   pass `verify::certify` against the reported bound, and a cloned
//!   scheduler driven through a differently primed arena produces identical
//!   stats *and* identical assignments, slot for slot, so the warm state
//!   depends on the slot sequence alone.
//! * **Accounting** — every slot lands in exactly one of the
//!   repaired/fallback/cold buckets, and a high-coherence sequence actually
//!   exercises the repair path.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

use wdm_core::algorithms::hopcroft_karp_in;
use wdm_core::verify::certify;
use wdm_core::{
    ChannelMask, Conversion, FiberScheduler, Policy, RequestGraph, RequestVector, ScratchArena,
    SlotPath,
};

/// One slot-to-slot perturbation of the request vector and channel mask:
/// rewrite the request count at one wavelength and optionally toggle one
/// output channel's availability. A handful of these per slot is exactly
/// the shape coherent traffic produces — most of the instance persists.
#[derive(Debug, Clone)]
struct Delta {
    wavelength: usize,
    count: usize,
    flip_mask: bool,
}

#[derive(Debug, Clone)]
struct CoherentSequence {
    k: usize,
    e: usize,
    f: usize,
    counts: Vec<usize>,
    free: Vec<bool>,
    /// Per-slot perturbations; the sequence length is `slots.len()`.
    slots: Vec<Vec<Delta>>,
}

fn coherent_sequence(
    max_k: usize,
    max_count: usize,
    slots: usize,
    churn: std::ops::Range<usize>,
) -> impl Strategy<Value = CoherentSequence> {
    (2..=max_k).prop_flat_map(move |k| {
        // `e + f + 1 < k`: a circular reach covering the whole spectrum is
        // full-range conversion, which the warm path deliberately skips
        // (from-scratch is already O(k) there) — keep the generator on the
        // limited-range instances the repair path actually serves.
        let reach = (0..k, 0..k).prop_filter("degree < k", move |(e, f)| e + f + 1 < k);
        let delta = (0..k, 0..=max_count, proptest::bool::weighted(0.3))
            .prop_map(|(wavelength, count, flip_mask)| Delta { wavelength, count, flip_mask });
        (
            Just(k),
            reach,
            proptest::collection::vec(0..=max_count, k),
            proptest::collection::vec(proptest::bool::weighted(0.85), k),
            proptest::collection::vec(proptest::collection::vec(delta, churn.clone()), slots),
        )
            .prop_map(|(k, (e, f), counts, free, slots)| CoherentSequence {
                k,
                e,
                f,
                counts,
                free,
                slots,
            })
    })
}

impl CoherentSequence {
    fn apply(&self, counts: &mut [usize], free: &mut [bool], slot: usize) {
        for d in &self.slots[slot] {
            counts[d.wavelength] = d.count;
            if d.flip_mask {
                free[d.wavelength] = !free[d.wavelength];
            }
        }
    }
}

/// Runs one coherent sequence through a warm scheduler and, per slot,
/// compares the granted cardinality against a cold scheduler and the
/// Hopcroft–Karp oracle. Returns the warm scheduler for post-run checks.
fn assert_warm_matches_cold(
    seq: &CoherentSequence,
    conv: Conversion,
    policy: Policy,
) -> FiberScheduler {
    let mut warm = FiberScheduler::new(conv, policy);
    let cold = FiberScheduler::new(conv, policy);
    let mut arena = ScratchArena::for_k(seq.k);
    let mut oracle_arena = ScratchArena::for_k(seq.k);
    let mut counts = seq.counts.clone();
    let mut free = seq.free.clone();
    for slot in 0..seq.slots.len() {
        seq.apply(&mut counts, &mut free, slot);
        let rv = RequestVector::from_counts(counts.clone()).unwrap();
        let mask = ChannelMask::from_flags(free.clone()).unwrap();

        let stats = warm.schedule_slot(&rv, &mask, &mut arena).unwrap();
        let cold_schedule = cold.schedule_with_mask(&rv, &mask).unwrap();
        prop_assert_eq!(
            stats.granted,
            cold_schedule.assignments().len(),
            "slot {}: warm ({:?}) granted != cold granted",
            slot,
            stats.path
        );

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = hopcroft_karp_in(&g, &mut oracle_arena).size();
        prop_assert_eq!(stats.granted, oracle, "slot {}: warm granted != |HK|", slot);
    }
    let w = warm.warm_stats();
    prop_assert_eq!(
        w.repaired + w.fallback + w.cold,
        seq.slots.len() as u64,
        "every slot lands in exactly one warm bucket"
    );
    warm
}

/// Proptest sample size, shrunk under Miri (same convention as the other
/// differential batteries in this directory).
fn cases(native: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 8 } else { native })
}

proptest! {
    #![proptest_config(cases(24))]

    /// 256-slot coherent sequences, circular conversion, BFA: repaired
    /// cardinality equals from-scratch BFA and Hopcroft–Karp on every slot.
    #[test]
    fn warm_bfa_matches_cold_over_256_coherent_slots(
        seq in coherent_sequence(10, 3, 256, 0..3),
    ) {
        let conv = Conversion::circular(seq.k, seq.e, seq.f).unwrap();
        let warm = assert_warm_matches_cold(&seq, conv, Policy::BreakFirstAvailable);
        // With at most two perturbations per slot the repair budget should
        // hold on the overwhelming majority of slots.
        let w = warm.warm_stats();
        prop_assert!(w.repaired > 0, "coherent sequence never took the repair path: {w:?}");
    }

    /// Same property, non-circular conversion, FA policy.
    #[test]
    fn warm_fa_matches_cold_over_256_coherent_slots(
        seq in coherent_sequence(10, 3, 256, 0..3),
    ) {
        let conv = Conversion::non_circular(seq.k, seq.e, seq.f).unwrap();
        let warm = assert_warm_matches_cold(&seq, conv, Policy::FirstAvailable);
        let w = warm.warm_stats();
        prop_assert!(w.repaired > 0, "coherent sequence never took the repair path: {w:?}");
    }

    /// Incoherent stress: heavy churn per slot forces budget fallbacks, and
    /// the cardinality guarantee must survive the warm/fallback mix.
    #[test]
    fn warm_survives_heavy_churn(seq in coherent_sequence(8, 4, 64, 4..9)) {
        let conv = Conversion::circular(seq.k, seq.e, seq.f).unwrap();
        let _ = assert_warm_matches_cold(&seq, conv, Policy::Auto);
    }

    /// Every slot of the warm trajectory certifies against its reported
    /// bound, and a clone fed through a differently primed arena replays it
    /// exactly: same stats, same assignments, same final warm counters.
    #[test]
    fn warm_trajectory_certifies_and_ignores_arena_priming(
        seq in coherent_sequence(10, 3, 96, 0..4),
    ) {
        let conv = Conversion::circular(seq.k, seq.e, seq.f).unwrap();
        let mut plain = FiberScheduler::new(conv, Policy::Auto);
        let mut replay = plain.clone();
        let mut arena_p = ScratchArena::for_k(seq.k);
        let mut arena_c = ScratchArena::new(); // different priming must not matter
        let mut counts = seq.counts.clone();
        let mut free = seq.free.clone();
        for slot in 0..seq.slots.len() {
            seq.apply(&mut counts, &mut free, slot);
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::from_flags(free.clone()).unwrap();
            let sp = plain.schedule_slot(&rv, &mask, &mut arena_p).unwrap();
            certify(&conv, &rv, &mask, arena_p.assignments(), sp.approx_bound).unwrap();
            let sc = replay.schedule_slot(&rv, &mask, &mut arena_c).unwrap();
            prop_assert_eq!(sp, sc, "slot {}: stats diverged", slot);
            prop_assert_eq!(
                &arena_p.assignments().to_vec(),
                &arena_c.assignments().to_vec(),
                "slot {}: assignments diverged",
                slot
            );
        }
        prop_assert_eq!(plain.warm_stats(), replay.warm_stats());
    }

    /// A frozen instance (no perturbations at all) repairs every slot after
    /// the first with zero augmentations' worth of work, and the schedule
    /// stabilises: the assignment vector is identical from slot 2 onward.
    #[test]
    fn frozen_instance_repairs_and_stabilises(
        seq in coherent_sequence(12, 3, 16, 0..1),
    ) {
        let conv = Conversion::circular(seq.k, seq.e, seq.f).unwrap();
        let mut warm = FiberScheduler::new(conv, Policy::BreakFirstAvailable);
        let mut arena = ScratchArena::for_k(seq.k);
        let rv = RequestVector::from_counts(seq.counts.clone()).unwrap();
        let mask = ChannelMask::from_flags(seq.free.clone()).unwrap();
        let mut prev: Option<Vec<wdm_core::algorithms::Assignment>> = None;
        for slot in 0..seq.slots.len() {
            let stats = warm.schedule_slot(&rv, &mask, &mut arena).unwrap();
            // Repair emits in ascending channel order while cold BFA emits
            // break-channel first, so compare the *matching* (sorted): the
            // grant set must be frozen along with the instance.
            let mut current = arena.assignments().to_vec();
            current.sort_unstable_by_key(|a| (a.output, a.input));
            if slot == 0 {
                prop_assert_eq!(stats.path, SlotPath::Cold);
            } else {
                prop_assert_eq!(stats.path, SlotPath::Repaired, "slot {}", slot);
                prop_assert_eq!(
                    prev.as_ref().unwrap(),
                    &current,
                    "frozen instance changed its matching at slot {}",
                    slot
                );
            }
            prev = Some(current);
        }
        let w = warm.warm_stats();
        prop_assert_eq!(w.cold, 1);
        prop_assert_eq!(w.repaired, (seq.slots.len() - 1) as u64);
        prop_assert_eq!(w.fallback, 0);
    }

    /// `reset_warm` really pins the scheduler cold: after a reset the next
    /// slot reports `SlotPath::Cold` and produces exactly what a fresh
    /// scheduler would.
    #[test]
    fn reset_warm_reproduces_the_cold_schedule(
        seq in coherent_sequence(10, 3, 32, 0..3),
    ) {
        let conv = Conversion::circular(seq.k, seq.e, seq.f).unwrap();
        let mut warm = FiberScheduler::new(conv, Policy::BreakFirstAvailable);
        let mut arena = ScratchArena::for_k(seq.k);
        let mut counts = seq.counts.clone();
        let mut free = seq.free.clone();
        for slot in 0..seq.slots.len() {
            seq.apply(&mut counts, &mut free, slot);
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::from_flags(free.clone()).unwrap();
            warm.reset_warm();
            let stats = warm.schedule_slot(&rv, &mask, &mut arena).unwrap();
            prop_assert_eq!(stats.path, SlotPath::Cold, "slot {}", slot);
            let mut fresh = FiberScheduler::new(conv, Policy::BreakFirstAvailable);
            let mut fresh_arena = ScratchArena::for_k(seq.k);
            let _ = fresh.schedule_slot(&rv, &mask, &mut fresh_arena).unwrap();
            prop_assert_eq!(
                &arena.assignments().to_vec(),
                &fresh_arena.assignments().to_vec(),
                "slot {}: pinned-cold schedule differs from a fresh scheduler",
                slot
            );
        }
    }
}
