//! E6: Theorem 3 / Corollary 1 — the single-break approximation's gap.
//!
//! Beyond the bound check (done exhaustively in `optimality.rs`), this test
//! establishes the bound is *achievable*: for d = 3 there exist instances
//! where the approximation loses exactly (d−1)/2 = 1 match, so Theorem 3 is
//! tight and the exhaustive search confirms nothing worse exists.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use wdm_optical::core::algorithms::{approx_schedule, BreakFirstAvailable, Matcher};
use wdm_optical::core::{ChannelMask, Conversion, RequestVector};

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

#[test]
fn gap_of_one_is_achievable_for_d3_and_never_exceeded() {
    let conv = Conversion::symmetric_circular(6, 3).unwrap();
    let mask = ChannelMask::all_free(6);
    let mut max_gap = 0usize;
    let mut achieving: Option<Vec<usize>> = None;
    for counts in count_vectors(6, 2) {
        let rv = RequestVector::from_counts(counts.clone()).unwrap();
        let optimal = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap().len();
        let out = approx_schedule(&conv, &rv, &mask).unwrap();
        let gap = optimal - out.assignments.len();
        assert!(gap <= out.bound, "Theorem 3 violated at {counts:?}");
        assert!(out.bound <= 1, "Corollary 1: bound is (d−1)/2 = 1 for d = 3");
        if gap > max_gap {
            max_gap = gap;
            achieving = Some(counts);
        }
    }
    assert_eq!(max_gap, 1, "the (d−1)/2 bound must be achieved somewhere");
    let counts = achieving.expect("found an achieving instance");
    // Re-verify the witness explicitly.
    let rv = RequestVector::from_counts(counts).unwrap();
    let optimal = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap().len();
    let approx = approx_schedule(&conv, &rv, &mask).unwrap().assignments.len();
    assert_eq!(optimal - approx, 1);
}

#[test]
fn larger_degrees_report_larger_bounds() {
    let mask = ChannelMask::all_free(16);
    let rv = RequestVector::from_counts(vec![1; 16]).unwrap();
    let mut last = 0usize;
    for d in [3usize, 5, 7, 9] {
        let conv = Conversion::symmetric_circular(16, d).unwrap();
        let out = approx_schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(out.bound, (d - 1) / 2);
        assert!(out.bound >= last);
        last = out.bound;
    }
}

#[test]
fn asymmetric_reach_bound_uses_best_edge() {
    // e = 0, f = 2 (d = 3): candidates t ∈ {0, 1, 2} with bounds
    // max(e+t, f−t) = {2, 1, 2} → best bound 1 at t = 1.
    let conv = Conversion::circular(9, 0, 2).unwrap();
    let rv = RequestVector::from_counts(vec![1, 1, 1, 0, 0, 0, 0, 0, 0]).unwrap();
    let out = approx_schedule(&conv, &rv, &ChannelMask::all_free(9)).unwrap();
    assert_eq!(out.bound, 1);
    assert_eq!(out.delta, 2, "δ(u) = e + t + 1 = 2");
}

#[test]
fn approximation_quality_under_sustained_load() {
    // Aggregate quality over a deterministic heavy workload: the total
    // shortfall across many slots stays a tiny fraction of the optimum.
    let k = 12;
    let conv = Conversion::symmetric_circular(k, 3).unwrap();
    let mask = ChannelMask::all_free(k);
    let (mut opt_total, mut approx_total) = (0usize, 0usize);
    for seed in 0..500usize {
        let counts: Vec<usize> = (0..k).map(|w| (seed * 7 + w * 13) % 3).collect();
        let rv = RequestVector::from_counts(counts).unwrap();
        opt_total += BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap().len();
        approx_total += approx_schedule(&conv, &rv, &mask).unwrap().assignments.len();
    }
    assert!(approx_total <= opt_total);
    let shortfall = (opt_total - approx_total) as f64 / opt_total as f64;
    assert!(shortfall < 0.02, "shortfall {shortfall} exceeds 2%");
}
