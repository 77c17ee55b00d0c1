//! E5: exhaustive verification of Theorems 1 and 2 on small instances.
//!
//! Proptests sample the space; this test *enumerates* it: every conversion
//! geometry and every request vector with per-wavelength counts in {0,1,2}
//! for k ≤ 6 (and every occupancy mask for k ≤ 4). On each instance the
//! paper's schedulers must produce exactly the Hopcroft–Karp maximum,
//! and the approximation must stay within Theorem 3's bound.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use wdm_optical::core::algorithms::{
    approx_schedule, kuhn, validate_assignments, BreakFirstAvailable, FirstAvailable, Matcher,
};
use wdm_optical::core::{ChannelMask, Conversion, RequestGraph, RequestVector};

/// Iterates all count vectors of length `k` with entries `0..=max`.
fn count_vectors(k: usize, max: usize) -> impl Iterator<Item = Vec<usize>> {
    let total = (max + 1).pow(k as u32);
    (0..total).map(move |mut idx| {
        (0..k)
            .map(|_| {
                let c = idx % (max + 1);
                idx /= max + 1;
                c
            })
            .collect()
    })
}

fn check_instance(conv: Conversion, counts: &[usize], mask: &ChannelMask) {
    let rv = RequestVector::from_counts(counts.to_vec()).unwrap();
    let g = RequestGraph::with_mask(conv, &rv, mask).unwrap();
    let optimal = kuhn(&g).size();
    let ctx = || {
        format!(
            "k={} e={} f={} circular={} counts={counts:?} free={:?}",
            conv.k(),
            conv.e(),
            conv.f(),
            conv.is_circular(),
            mask.free_channels()
        )
    };
    if conv.is_circular() {
        let a = BreakFirstAvailable::default().schedule(&conv, &rv, mask).unwrap();
        validate_assignments(&conv, &rv, mask, &a).unwrap();
        assert_eq!(a.len(), optimal, "BFA suboptimal: {}", ctx());
        let out = approx_schedule(&conv, &rv, mask).unwrap();
        validate_assignments(&conv, &rv, mask, &out.assignments).unwrap();
        assert!(out.assignments.len() <= optimal, "approx overshoot: {}", ctx());
        assert!(out.assignments.len() + out.bound >= optimal, "Theorem 3 violated: {}", ctx());
    } else {
        let a = FirstAvailable.schedule(&conv, &rv, mask).unwrap();
        validate_assignments(&conv, &rv, mask, &a).unwrap();
        assert_eq!(a.len(), optimal, "FA suboptimal: {}", ctx());
    }
}

#[test]
fn exhaustive_all_channels_free() {
    for k in 1..=6usize {
        let mask = ChannelMask::all_free(k);
        for e in 0..k {
            for f in 0..k {
                if e + f + 1 > k {
                    continue;
                }
                for counts in count_vectors(k, 2) {
                    check_instance(Conversion::circular(k, e, f).unwrap(), &counts, &mask);
                    check_instance(Conversion::non_circular(k, e, f).unwrap(), &counts, &mask);
                }
            }
        }
    }
}

#[test]
fn exhaustive_with_occupied_channels() {
    for k in 1..=4usize {
        for mask_bits in 0..(1usize << k) {
            let mask = ChannelMask::from_flags((0..k).map(|w| mask_bits & (1 << w) != 0).collect())
                .unwrap();
            for e in 0..k {
                for f in 0..k {
                    if e + f + 1 > k {
                        continue;
                    }
                    for counts in count_vectors(k, 2) {
                        check_instance(Conversion::circular(k, e, f).unwrap(), &counts, &mask);
                        check_instance(Conversion::non_circular(k, e, f).unwrap(), &counts, &mask);
                    }
                }
            }
        }
    }
}

/// High-multiplicity spot checks: counts beyond the enumeration cap.
#[test]
fn high_multiplicity_spot_checks() {
    let mask = ChannelMask::all_free(8);
    for counts in [
        vec![16, 0, 0, 0, 0, 0, 0, 16],
        vec![9, 9, 9, 9, 9, 9, 9, 9],
        vec![0, 0, 32, 0, 0, 0, 0, 0],
        vec![5, 0, 5, 0, 5, 0, 5, 0],
    ] {
        for (e, f) in [(1, 1), (2, 2), (0, 3), (3, 0), (2, 1)] {
            check_instance(Conversion::circular(8, e, f).unwrap(), &counts, &mask);
            check_instance(Conversion::non_circular(8, e, f).unwrap(), &counts, &mask);
        }
    }
}
