//! Differential battery: the arena-backed `Matcher::schedule_into` and
//! `*_into`/`*_in` entry points must be observationally identical to the
//! allocating forms, and the compact schedulers must keep agreeing with the
//! matching oracles.
//!
//! Two properties per algorithm family:
//!
//! * **Size agreement** — `|FA| == |Glover| == |Hopcroft–Karp|` on
//!   non-circular instances and `|BFA| == |Hopcroft–Karp|` on circular
//!   ones (the paper's Theorems 1 and 2, exercised through the new buffer
//!   reusing API).
//! * **Bit-identity** — running an algorithm through a *dirty, reused*
//!   [`ScratchArena`] yields exactly the same output (assignments, `MATCH`
//!   arrays, matchings — not just equal sizes) as a fresh allocation. This
//!   is what lets `FiberScheduler::schedule_slot` reuse one arena per fiber
//!   for the lifetime of the interconnect.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

use wdm_core::algorithms::{
    approx_schedule, approx_schedule_into, first_available, first_available_into, glover,
    glover_into, hopcroft_karp, hopcroft_karp_in, kuhn, kuhn_in, BreakChoice, BreakFirstAvailable,
    ConvexInstance, FirstAvailable, FullRange, Matcher,
};
use wdm_core::{ChannelMask, Conversion, RequestGraph, RequestVector, ScratchArena};

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

/// A scratch arena that has been through unrelated work, so stale contents
/// from other algorithms (and other instances) are present in every buffer.
fn dirty_arena(k: usize) -> ScratchArena {
    let mut scratch = ScratchArena::for_k(k.min(3));
    let conv = Conversion::symmetric_circular(5, 3).unwrap();
    let rv = RequestVector::from_counts(vec![2, 0, 1, 3, 1]).unwrap();
    let mask = ChannelMask::all_free(5);
    let mut out = Vec::new();
    BreakFirstAvailable::default()
        .schedule_into(&conv, &rv, &mask, &mut scratch, &mut out)
        .unwrap();
    let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
    let _ = hopcroft_karp_in(&g, &mut scratch);
    let _ = kuhn_in(&g, &mut scratch);
    scratch
}

/// Proptest sample size, shrunk under Miri: the interpreter runs each case
/// orders of magnitude slower than native code, and `cargo xtask miri` needs
/// the whole file inside the CI budget while still crossing every code path.
fn cases(native: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 16 } else { native })
}

proptest! {
    #![proptest_config(cases(256))]

    /// Non-circular: `|FA| == |Glover| == |Hopcroft–Karp|`, all through the
    /// arena-backed entry points, plus arena-vs-fresh bit-identity for each.
    #[test]
    fn fa_glover_hk_agree_non_circular(inst in instance(20, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        let fresh_fa = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
        let mut arena_fa = Vec::new();
        FirstAvailable.schedule_into(&conv, &rv, &mask, &mut scratch, &mut arena_fa).unwrap();
        prop_assert_eq!(&arena_fa, &fresh_fa, "FA arena vs fresh");

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let ci = ConvexInstance::from_graph(&g);
        let fresh_glover = glover(&ci);
        let mut arena_glover = Vec::new();
        glover_into(&ci, &mut scratch, &mut arena_glover);
        prop_assert_eq!(&arena_glover, &fresh_glover, "Glover arena vs fresh");

        let fresh_hk = hopcroft_karp(&g);
        let arena_hk = hopcroft_karp_in(&g, &mut scratch);
        prop_assert_eq!(&arena_hk, &fresh_hk, "HK arena vs fresh");

        let glover_size = fresh_glover.iter().flatten().count();
        prop_assert_eq!(fresh_fa.len(), glover_size, "|FA| == |Glover|");
        prop_assert_eq!(glover_size, fresh_hk.size(), "|Glover| == |HK|");
    }

    /// Circular: `|BFA| == |Hopcroft–Karp|` through the arena-backed entry
    /// points, for both breaking-vertex policies, plus arena-vs-fresh
    /// bit-identity.
    #[test]
    fn bfa_hk_agree_circular(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        let bfa = BreakFirstAvailable::default();
        let fresh = bfa.schedule(&conv, &rv, &mask).unwrap();
        let mut arena_out = Vec::new();
        bfa.schedule_into(&conv, &rv, &mask, &mut scratch, &mut arena_out).unwrap();
        prop_assert_eq!(&arena_out, &fresh, "BFA arena vs fresh");

        let densest_bfa = BreakFirstAvailable(BreakChoice::DensestWavelength);
        let densest = densest_bfa.schedule(&conv, &rv, &mask).unwrap();
        let mut arena_densest = Vec::new();
        densest_bfa.schedule_into(&conv, &rv, &mask, &mut scratch, &mut arena_densest).unwrap();
        prop_assert_eq!(&arena_densest, &densest, "densest BFA arena vs fresh");

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = hopcroft_karp_in(&g, &mut scratch).size();
        prop_assert_eq!(fresh.len(), oracle, "|BFA| == |HK|");
        prop_assert_eq!(densest.len(), oracle, "|densest BFA| == |HK|");
    }

    /// Both geometries: the approximation and the matching oracles are
    /// bit-identical between the arena and allocating paths; `kuhn_in`
    /// agrees with `hopcroft_karp_in` on size.
    #[test]
    fn approx_and_oracles_arena_vs_fresh(
        inst in instance(18, 4),
        circular in proptest::bool::ANY,
    ) {
        let conv = if circular {
            Conversion::circular(inst.k, inst.e, inst.f).unwrap()
        } else {
            Conversion::non_circular(inst.k, inst.e, inst.f).unwrap()
        };
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        if circular {
            let fresh = approx_schedule(&conv, &rv, &mask).unwrap();
            let mut arena_out = Vec::new();
            let stats = approx_schedule_into(&conv, &rv, &mask, &mut scratch, &mut arena_out)
                .unwrap();
            prop_assert_eq!(&arena_out, &fresh.assignments, "approx arena vs fresh");
            prop_assert_eq!(stats.delta, fresh.delta);
            prop_assert_eq!(stats.bound, fresh.bound);
        }

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let hk_fresh = hopcroft_karp(&g);
        let hk_arena = hopcroft_karp_in(&g, &mut scratch);
        prop_assert_eq!(&hk_arena, &hk_fresh, "HK arena vs fresh");
        let kuhn_fresh = kuhn(&g);
        let kuhn_arena = kuhn_in(&g, &mut scratch);
        prop_assert_eq!(&kuhn_arena, &kuhn_fresh, "Kuhn arena vs fresh");
        prop_assert_eq!(kuhn_arena.size(), hk_arena.size(), "|Kuhn| == |HK|");
    }

    /// The paper's `MATCH[]`-array form of First Available and the
    /// full-range scheduler are bit-identical between paths too.
    #[test]
    fn match_arrays_arena_vs_fresh(inst in instance(18, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let ci = ConvexInstance::from_graph(&g);
        let fresh = first_available(&ci);
        let mut arena_out = Vec::new();
        first_available_into(&ci, &mut scratch, &mut arena_out);
        prop_assert_eq!(&arena_out, &fresh, "first_available arena vs fresh");

        let full = Conversion::full(inst.k).unwrap();
        let fresh_full = FullRange.schedule(&full, &rv, &mask).unwrap();
        let mut full_out = Vec::new();
        FullRange.schedule_into(&full, &rv, &mask, &mut scratch, &mut full_out).unwrap();
        prop_assert_eq!(&full_out, &fresh_full, "full-range into vs fresh");
    }

    /// One arena serving many consecutive slots (the production shape) gives
    /// the same answers as a fresh arena per slot.
    #[test]
    fn arena_reuse_across_slots_is_identical(
        instances in proptest::collection::vec(instance(14, 3), 1..6),
    ) {
        let mut reused = ScratchArena::new();
        for inst in &instances {
            let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
            let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
            let mask = mask_of(inst);
            let bfa = BreakFirstAvailable::default();
            let mut out = Vec::new();
            bfa.schedule_into(&conv, &rv, &mask, &mut reused, &mut out).unwrap();
            let fresh = bfa.schedule(&conv, &rv, &mask).unwrap();
            prop_assert_eq!(&out, &fresh, "slot-to-slot reuse changed the schedule");
        }
    }
}
