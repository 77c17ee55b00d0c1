//! Boundary-condition battery for the per-slot scheduling path.
//!
//! Exercises the degenerate geometries and slot shapes the sweep never
//! visits — `d >= k` (circular conversion covering the whole ring), `k = 1`,
//! an empty slot, and a fiber offered more requests than channels — through
//! the plain entry points, each certified against the bound it reports.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use wdm_core::algorithms::{
    approx_schedule_into, BreakFirstAvailable, FirstAvailable, FullRange, Matcher,
};
use wdm_core::verify::certify;
use wdm_core::{ChannelMask, Conversion, FiberScheduler, Policy, RequestVector, ScratchArena};

/// Runs one cold slot through `schedule_slot` on a clone of the scheduler,
/// certifies its assignments against the bound it reported, and returns
/// the stats.
fn certified_slot(
    scheduler: &FiberScheduler,
    rv: &RequestVector,
    mask: &ChannelMask,
) -> wdm_core::SlotStats {
    let mut arena = ScratchArena::new();
    let stats = scheduler.clone().schedule_slot(rv, mask, &mut arena).unwrap();
    certify(scheduler.conversion(), rv, mask, arena.assignments(), stats.approx_bound).unwrap();
    assert_eq!(stats.granted, arena.assignments().len());
    stats
}

/// `d >= k`: a circular range covering the whole ring is full-range
/// conversion, and every policy that accepts it must grant one request per
/// free channel.
#[test]
fn circular_degree_covering_ring_is_full_range() {
    let k = 6;
    let conv = Conversion::circular(k, 3, 2).unwrap(); // e + f + 1 == k
    assert!(conv.is_full(), "degree {} on k={k} must degenerate to full range", conv.degree());

    let rv = RequestVector::from_counts(vec![3, 0, 0, 2, 0, 4]).unwrap();
    let mask = ChannelMask::from_flags(vec![true, false, true, true, true, false]).unwrap();
    let free = mask.free_count();

    for policy in [Policy::Auto, Policy::BreakFirstAvailable, Policy::Approximate] {
        let stats = certified_slot(&FiberScheduler::new(conv, policy), &rv, &mask);
        assert_eq!(
            stats.granted,
            free.min(rv.total()),
            "{policy:?} must saturate the free channels under full-range conversion"
        );
        assert!(stats.is_exact(), "{policy:?} is exact on full-range conversion");
    }

    // The compact schedulers certify through their direct entry points.
    let mut scratch = ScratchArena::for_k(k);
    let mut out = Vec::new();
    let bfa = BreakFirstAvailable::default();
    let bound = bfa.schedule_into(&conv, &rv, &mask, &mut scratch, &mut out).unwrap();
    assert_eq!(out.len(), free.min(rv.total()));
    certify(&conv, &rv, &mask, &out, bound).unwrap();
    let stats = approx_schedule_into(&conv, &rv, &mask, &mut scratch, &mut out).unwrap();
    assert_eq!((stats.delta, stats.bound), (0, 0), "full-range approximation is exact");
    certify(&conv, &rv, &mask, &out, Some(stats.bound)).unwrap();
    let bound = FullRange.schedule_into(&conv, &rv, &mask, &mut scratch, &mut out).unwrap();
    certify(&conv, &rv, &mask, &out, bound).unwrap();
}

/// `k = 1`: a single wavelength, where non-circular conversion is the
/// identity and any circular range is full.
#[test]
fn single_wavelength_fiber() {
    let non_circ = Conversion::non_circular(1, 0, 0).unwrap();
    let circ = Conversion::circular(1, 0, 0).unwrap();
    assert!(circ.is_full());

    for conv in [non_circ, circ] {
        for count in 0..3usize {
            let rv = RequestVector::from_counts(vec![count]).unwrap();
            for free in [true, false] {
                let mask = ChannelMask::from_flags(vec![free]).unwrap();
                let stats = certified_slot(&FiberScheduler::new(conv, Policy::Auto), &rv, &mask);
                let expect = usize::from(free).min(count);
                assert_eq!(stats.granted, expect, "k=1 {conv:?} count={count} free={free}");
                assert_eq!(stats.requested, count);
            }
        }
    }

    let rv = RequestVector::from_counts(vec![2]).unwrap();
    let mask = ChannelMask::all_free(1);
    let mut scratch = ScratchArena::for_k(1);
    let mut out = Vec::new();
    let bound =
        FirstAvailable.schedule_into(&non_circ, &rv, &mask, &mut scratch, &mut out).unwrap();
    assert_eq!(out.len(), 1);
    certify(&non_circ, &rv, &mask, &out, bound).unwrap();
}

/// An empty slot (no requests at all) grants nothing and leaves the arena's
/// assignment buffer empty, for every policy.
#[test]
fn empty_slot_grants_nothing() {
    let k = 8;
    let rv = RequestVector::new(k);
    let mask = ChannelMask::all_free(k);
    let cases = [
        (Conversion::symmetric_non_circular(k, 3).unwrap(), Policy::Auto),
        (Conversion::symmetric_non_circular(k, 3).unwrap(), Policy::FirstAvailable),
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::Auto),
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::BreakFirstAvailable),
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::Approximate),
        (Conversion::full(k).unwrap(), Policy::Auto),
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::HopcroftKarp),
    ];
    for (conv, policy) in cases {
        let stats = certified_slot(&FiberScheduler::new(conv, policy), &rv, &mask);
        assert_eq!(stats.granted, 0, "{policy:?}");
        assert_eq!(stats.requested, 0, "{policy:?}");
        assert_eq!(stats.rejected(), 0, "{policy:?}");
    }
}

/// A fully saturated fiber — more requests than wavelengths on every input —
/// can never grant more than the number of free output channels, and exact
/// policies grant exactly that many when conversion reaches everywhere.
#[test]
fn saturated_fiber_grants_free_channel_count() {
    let k = 6;
    let rv = RequestVector::from_counts(vec![4; 6]).unwrap(); // 24 requests > k
    assert!(rv.total() > k);

    let full = Conversion::full(k).unwrap();
    let all_free = ChannelMask::all_free(k);
    let stats = certified_slot(&FiberScheduler::new(full, Policy::Auto), &rv, &all_free);
    assert_eq!(stats.granted, k, "full conversion saturates every channel");
    assert_eq!(stats.rejected(), rv.total() - k);

    // With limited conversion the grant count is still the maximum matching
    // (certified against the reported bound) and bounded by the free
    // channels.
    let some_occupied =
        ChannelMask::from_flags(vec![true, false, true, true, false, true]).unwrap();
    for (conv, policy) in [
        (Conversion::symmetric_non_circular(k, 3).unwrap(), Policy::FirstAvailable),
        (Conversion::symmetric_circular(k, 3).unwrap(), Policy::BreakFirstAvailable),
        (Conversion::symmetric_circular(k, 5).unwrap(), Policy::Auto),
    ] {
        let stats = certified_slot(&FiberScheduler::new(conv, policy), &rv, &some_occupied);
        assert_eq!(
            stats.granted,
            some_occupied.free_count(),
            "{policy:?}: saturated demand fills every free channel within reach"
        );
    }
}
