//! Property-based verification of the paper's theorems.
//!
//! These tests mechanically validate, on randomized instances, the claims
//! the paper proves analytically:
//!
//! * Theorem 1 — First Available finds a *maximum* matching for
//!   non-circular conversion (checked against Kuhn/Hopcroft–Karp oracles).
//! * Theorem 2 — Break and First Available finds a maximum matching for
//!   circular conversion (compact and explicit implementations).
//! * Theorem 3 / Corollary 1 — the single-break approximation is within
//!   `max(δ−1, d−δ)` of the maximum.
//! * Lemma 1 — uncrossing preserves matching size and terminates.
//! * §V — all of the above continue to hold when output channels are
//!   occupied.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

use wdm_core::algorithms::{
    approx_schedule, break_fa_matching, first_available_matching, glover, hopcroft_karp, kuhn,
    validate_assignments, BreakChoice, BreakFirstAvailable, ConvexInstance, FirstAvailable,
    Matcher,
};
use wdm_core::crossing::{find_crossing_pair, uncross};
use wdm_core::verify::{certified, certify, certify_assignments, MatchingCertificate};
use wdm_core::{
    ChannelMask, Conversion, Error, FiberScheduler, Policy, RequestGraph, RequestVector,
};

/// Strategy: a conversion geometry plus matching request vector and mask.
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

/// Proptest sample size, shrunk under Miri: the interpreter runs each case
/// orders of magnitude slower than native code, and `cargo xtask miri` needs
/// the whole file inside the CI budget while still crossing every code path.
fn cases(native: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 16 } else { native })
}

proptest! {
    #![proptest_config(cases(256))]

    /// Theorem 1: First Available is maximum for non-circular conversion,
    /// with and without occupied channels.
    #[test]
    fn first_available_is_maximum(inst in instance(24, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let a = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = kuhn(&g).size();
        prop_assert_eq!(a.len(), oracle);
        // Graph-based FA agrees too.
        let m = first_available_matching(&g);
        m.validate(&g).unwrap();
        prop_assert_eq!(m.size(), oracle);
    }

    /// Theorem 2: Break and First Available is maximum for circular
    /// conversion — compact and explicit implementations, both breaking
    /// choices, with occupied channels.
    #[test]
    fn break_fa_is_maximum(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = hopcroft_karp(&g).size();

        let compact = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &compact).unwrap();
        prop_assert_eq!(compact.len(), oracle, "compact BFA");

        let densest = BreakFirstAvailable(BreakChoice::DensestWavelength)
            .schedule(&conv, &rv, &mask)
            .unwrap();
        validate_assignments(&conv, &rv, &mask, &densest).unwrap();
        prop_assert_eq!(densest.len(), oracle, "densest-wavelength BFA");

        let explicit = break_fa_matching(&g);
        explicit.validate(&g).unwrap();
        prop_assert_eq!(explicit.size(), oracle, "explicit BFA");
    }

    /// Theorem 3 / Corollary 1: the approximation's gap never exceeds its
    /// reported bound, and it never exceeds the maximum.
    #[test]
    fn approx_within_bound(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let out = approx_schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &out.assignments).unwrap();
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = hopcroft_karp(&g).size();
        prop_assert!(out.assignments.len() <= oracle);
        prop_assert!(
            out.assignments.len() + out.bound >= oracle,
            "got {} + bound {} < optimal {}", out.assignments.len(), out.bound, oracle
        );
        // Corollary 1: with e = f and all channels free, the bound is
        // exactly (d−1)/2.
        if inst.e == inst.f && mask.is_all_free() && !rv.is_empty() && !conv.is_full() {
            prop_assert_eq!(out.bound, (conv.degree() - 1) / 2);
        }
    }

    /// Lemma 1: uncrossing an arbitrary maximum matching preserves its size
    /// and yields a crossing-free matching.
    #[test]
    fn uncrossing_preserves_size(inst in instance(14, 3)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let m = kuhn(&g);
        let un = uncross(&conv, &g, &m).unwrap();
        prop_assert_eq!(un.size(), m.size());
        un.validate(&g).unwrap();
        prop_assert!(find_crossing_pair(&conv, &g, &un).is_none());
    }

    /// Glover's algorithm equals the oracle on convex (non-circular)
    /// request graphs.
    #[test]
    fn glover_is_maximum_on_convex_graphs(inst in instance(20, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let ci = ConvexInstance::from_graph(&g);
        let size = glover(&ci).iter().flatten().count();
        prop_assert_eq!(size, kuhn(&g).size());
    }

    /// The Auto policy always produces a feasible, maximum schedule for any
    /// conversion geometry.
    #[test]
    fn auto_policy_is_feasible_and_maximum(
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
        let schedule = FiberScheduler::new(conv, Policy::Auto)
            .schedule_with_mask(&rv, &mask)
            .unwrap();
        validate_assignments(&conv, &rv, &mask, schedule.assignments()).unwrap();
        prop_assert_eq!(schedule.granted() + schedule.rejected(), rv.total());
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        prop_assert_eq!(schedule.granted(), hopcroft_karp(&g).size());
    }

    /// Hopcroft–Karp and Kuhn always agree (two independent oracles).
    #[test]
    fn oracles_agree(inst in instance(16, 4), circular in proptest::bool::ANY) {
        let conv = if circular {
            Conversion::circular(inst.k, inst.e, inst.f).unwrap()
        } else {
            Conversion::non_circular(inst.k, inst.e, inst.f).unwrap()
        };
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let hk = hopcroft_karp(&g);
        let kn = kuhn(&g);
        hk.validate(&g).unwrap();
        kn.validate(&g).unwrap();
        prop_assert_eq!(hk.size(), kn.size());
    }

    /// Clamping per-wavelength request counts at d preserves the maximum
    /// matching size (the compact schedulers rely on this).
    #[test]
    fn clamping_preserves_matching_size(inst in instance(14, 8)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let clamped = rv.clamped(conv.degree());
        let mask = mask_of(&inst);
        let g1 = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let g2 = RequestGraph::with_mask(conv, &clamped, &mask).unwrap();
        prop_assert_eq!(kuhn(&g1).size(), kuhn(&g2).size());
    }
}

// The certificate suite: every algorithm output must pass its
// `MatchingCertificate`, on ≥1000 random graphs per conversion kind.
// `certified`, `certify`, and `MatchingCertificate::check` return `Err` on
// any violation, so a plain `.unwrap()` here is the assertion.
proptest! {
    #![proptest_config(cases(1000))]

    /// Theorem 1 via certificates: on random non-circular graphs,
    /// `certified(&FirstAvailable, ..)` succeeds (validity + maximality
    /// certified against the residual graph) and |FA| equals
    /// |Hopcroft–Karp|.
    #[test]
    fn certified_fa_matches_hopcroft_karp(inst in instance(20, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let a = certified(&FirstAvailable, &conv, &rv, &mask).unwrap();
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let hk = hopcroft_karp(&g);
        MatchingCertificate::new(&g, &hk).check().unwrap();
        prop_assert_eq!(a.len(), hk.size());
        let m = first_available_matching(&g);
        MatchingCertificate::new(&g, &m).check().unwrap();
        prop_assert_eq!(m.size(), hk.size());
    }

    /// Theorem 2 via certificates: on random circular graphs,
    /// `certified(&BreakFirstAvailable, ..)` succeeds and |BFA| equals
    /// |Hopcroft–Karp|; the explicit matching is additionally certified
    /// crossing-free (Lemma 1 / Definition 1).
    #[test]
    fn certified_bfa_matches_hopcroft_karp(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let a = certified(&BreakFirstAvailable::default(), &conv, &rv, &mask).unwrap();
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let hk = hopcroft_karp(&g);
        MatchingCertificate::new(&g, &hk).check().unwrap();
        prop_assert_eq!(a.len(), hk.size());
        let m = break_fa_matching(&g);
        let cert = MatchingCertificate::new(&g, &m);
        cert.check().unwrap();
        cert.check_crossing_free().unwrap();
        prop_assert_eq!(m.size(), hk.size());
    }

    /// Theorem 3 via certificates: `certify` accepts the approximation's
    /// schedule within its reported bound of the optimum, and with a
    /// symmetric conversion range the bound is at most (d−1)/2.
    #[test]
    fn certified_approx_within_bound(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let out = approx_schedule(&conv, &rv, &mask).unwrap();
        certify(&conv, &rv, &mask, &out.assignments, Some(out.bound)).unwrap();
        // Corollary 1: with a symmetric range and every channel free, the
        // chosen break achieves the (d−1)/2 bound. (Occupied channels can
        // force a worse break, which Theorem 3 still covers via `bound`.)
        if inst.e == inst.f && mask.is_all_free() {
            prop_assert!(out.bound <= (conv.degree() - 1) / 2);
        }
    }

    /// Negative direction: the certificate actually rejects. Dropping any
    /// assignment from a non-empty maximum schedule leaves an augmenting
    /// path, which `certify_assignments` must report as `NotMaximum`.
    #[test]
    fn certificate_rejects_truncated_schedules(inst in instance(16, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut a = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap();
        certify_assignments(&conv, &rv, &mask, &a).unwrap();
        if let Some(dropped) = a.pop() {
            let err = certify_assignments(&conv, &rv, &mask, &a).unwrap_err();
            prop_assert!(
                matches!(err, Error::NotMaximum { .. }),
                "dropping {:?} gave {:?}, expected NotMaximum", dropped, err
            );
        }
    }
}
