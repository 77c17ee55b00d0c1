//! The single-break approximation scheduler (paper §IV-C, Theorem 3,
//! Corollary 1).
//!
//! Break and First Available tries all `d` reduced graphs because it cannot
//! know in advance which breaking edge lies in a crossing-free maximum
//! matching. When scheduling speed (or hardware cost) matters more than the
//! last unit of throughput, a single reduced graph suffices: breaking at the
//! edge `a_i b_u` whose channel is the `δ(u)`-th adjacent channel of `a_i`
//! loses at most `max(δ(u)−1, d−δ(u))` matches (Theorem 3, via Lemma 6's
//! bound on how many crossing-free-matching edges can cross `a_i b_u`).
//! Choosing the "shortest" edge, `δ(u) = (d+1)/2`, minimizes the bound to
//! `(d−1)/2` (Corollary 1) — at most 1 lost match for the practical `d = 3`,
//! at most 2 for `d = 5`.

use crate::arena::ScratchArena;
use crate::conversion::{Conversion, ConversionKind};
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

use super::break_fa::single_break_into;
use super::full_range::FullRange;
use super::{Assignment, Matcher};

/// Result of the approximation scheduler.
#[must_use]
#[derive(Debug, Clone)]
pub struct ApproxOutcome {
    /// The granted assignments.
    pub assignments: Vec<Assignment>,
    /// `δ(u)` of the chosen breaking edge: the 1-based rank of the breaking
    /// channel within the breaking vertex's adjacency set, counted from the
    /// "minus" end.
    pub delta: usize,
    /// Theorem 3's bound: the matching is within `max(δ(u)−1, d−δ(u))` of a
    /// maximum matching.
    pub bound: usize,
}

/// The scalar part of an [`ApproxOutcome`], returned by the buffer-reusing
/// [`approx_schedule_into`] (the assignments live in the caller's buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxStats {
    /// `δ(u)` of the chosen breaking edge (see [`ApproxOutcome::delta`]).
    pub delta: usize,
    /// Theorem 3's bound (see [`ApproxOutcome::bound`]).
    pub bound: usize,
}

/// The `O(k)` single-break approximation scheduler for circular conversion.
///
/// Breaks at the free adjacent channel minimizing `max(δ(u)−1, d−δ(u))`
/// (the shortest edge when all channels are free and `e = f`), runs First
/// Available once, and reports the achieved gap bound.
///
/// Returns an empty schedule when there are no requests or no free adjacent
/// channels; full-range conversion is dispatched to the trivial scheduler
/// (with `bound = 0` — it is exact).
///
/// Paper: Theorem 3 and Corollary 1 (§IV-C, single-break approximation).
pub fn approx_schedule(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
) -> Result<ApproxOutcome, Error> {
    let mut scratch = ScratchArena::new();
    let mut assignments = Vec::new();
    let stats = approx_schedule_into(conv, requests, mask, &mut scratch, &mut assignments)?;
    Ok(ApproxOutcome { assignments, delta: stats.delta, bound: stats.bound })
}

/// [`approx_schedule`] writing into caller-provided buffers.
///
/// `out` is cleared and receives the granted assignments (breaking edge
/// included); the scalar δ and bound come back as [`ApproxStats`]. Once the
/// buffers have reached steady-state capacity for the fiber's `k` the call
/// performs zero heap allocations — this is the per-slot production path
/// used by [`crate::FiberScheduler::schedule_slot`].
///
/// Paper: Theorem 3 and Corollary 1 (§IV-C, single-break approximation).
#[wdm_attr::allow_reach(
    panic_free,
    reason = "the single unreachable! restates the w_i selection filter a few lines above it: w_i is only chosen when a free adjacent channel exists under the same mask"
)]
pub fn approx_schedule_into(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    scratch: &mut ScratchArena,
    out: &mut Vec<Assignment>,
) -> Result<ApproxStats, Error> {
    out.clear();
    conv.check_k(requests.k())?;
    conv.check_k(mask.k())?;
    if conv.is_full() {
        FullRange.schedule_into(conv, requests, mask, scratch, out)?;
        return Ok(ApproxStats { delta: 0, bound: 0 });
    }
    if conv.kind() != ConversionKind::Circular {
        return Err(Error::UnsupportedConversion {
            algorithm: "single-break approximation",
            requires:
                "circular conversion (First Available is already exact and O(k) for non-circular)",
        });
    }
    let k = conv.k();

    // The breaking wavelength: the first wavelength with pending requests
    // and a free adjacent channel (two word-masked window probes per
    // wavelength, not a per-channel loop).
    let breaking =
        requests.iter_nonzero().map(|(w, _)| w).find(|&w| conv.any_adjacent_free(w, mask));
    let Some(w_i) = breaking else {
        return Ok(ApproxStats { delta: 0, bound: 0 });
    };

    // Choose the free adjacent channel minimizing the Theorem 3 bound.
    // δ(u) = e + t + 1 where u = w_i + t; bound = max(e+t, f−t).
    let (e, f) = (conv.e() as isize, conv.f() as isize);
    let best = conv
        .adjacency(w_i)
        .iter(k)
        .filter(|&u| mask.is_free(u))
        .filter_map(|u| {
            let t = conv.signed_offset(w_i, u)?;
            let delta = (e + t + 1) as usize;
            let bound = (e + t).max(f - t) as usize;
            Some((u, delta, bound))
        })
        .min_by_key(|&(_, _, bound)| bound);
    let Some((u, delta, bound)) = best else {
        unreachable!("w_i was chosen to have a free adjacent channel")
    };

    // `δ(u) − 1` is `u`'s offset within `w_i`'s adjacency arc.
    single_break_into(conv, requests, mask, w_i, delta - 1, scratch, out);
    out.push(Assignment { input: w_i, output: u });
    Ok(ApproxStats { delta, bound })
}

/// The single-break approximation as a [`Matcher`]: the schedule of
/// [`approx_schedule_into`], reporting Theorem 3's bound as the distance to
/// a maximum matching (`Some(0)` under full-range conversion, where it is
/// exact). Use [`approx_schedule_into`] directly when `δ(u)` is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Approximate;

impl Matcher for Approximate {
    /// Paper: Theorem 3 and Corollary 1 (§IV-C, single-break approximation).
    fn schedule_into(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<usize>, Error> {
        approx_schedule_into(conv, requests, mask, scratch, out).map(|stats| Some(stats.bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{kuhn, validate_assignments, BreakFirstAvailable};
    use crate::graph::RequestGraph;

    #[test]
    fn shortest_edge_chosen_when_symmetric() {
        // e = f = 1 (d = 3): the shortest edge is t = 0, δ = 2, bound = 1.
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let out = approx_schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(out.delta, 2);
        assert_eq!(out.bound, 1, "Corollary 1: (d−1)/2 = 1 for d = 3");
        validate_assignments(&conv, &rv, &mask, &out.assignments).unwrap();
    }

    #[test]
    fn corollary_1_bound_for_d5() {
        let conv = Conversion::symmetric_circular(12, 5).unwrap();
        let rv = RequestVector::from_counts(vec![1; 12]).unwrap();
        let mask = ChannelMask::all_free(12);
        let out = approx_schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(out.bound, 2, "Corollary 1: (d−1)/2 = 2 for d = 5");
    }

    #[test]
    fn gap_within_theorem_3_bound_on_battery() {
        let cases: Vec<(usize, usize, usize, Vec<usize>)> = vec![
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2]),
            (6, 1, 1, vec![0, 2, 3, 0, 1, 0]),
            (6, 1, 1, vec![6, 0, 0, 0, 0, 0]),
            (8, 2, 2, vec![3, 0, 3, 0, 3, 0, 3, 0]),
            (10, 2, 2, vec![5, 5, 0, 0, 0, 0, 0, 0, 0, 5]),
            (7, 3, 2, vec![1, 2, 3, 0, 0, 0, 1]),
            (9, 1, 3, vec![0, 4, 0, 0, 4, 0, 0, 4, 0]),
        ];
        for (k, e, f, counts) in cases {
            let conv = Conversion::circular(k, e, f).unwrap();
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let mask = ChannelMask::all_free(k);
            let out = approx_schedule(&conv, &rv, &mask).unwrap();
            validate_assignments(&conv, &rv, &mask, &out.assignments).unwrap();
            let g = RequestGraph::new(conv, &rv).unwrap();
            let optimal = kuhn(&g).size();
            assert!(
                out.assignments.len() + out.bound >= optimal,
                "k={k} e={e} f={f} counts={counts:?}: got {} optimal {optimal} bound {}",
                out.assignments.len(),
                out.bound
            );
            assert!(out.assignments.len() <= optimal);
        }
    }

    #[test]
    fn never_worse_than_bound_vs_break_fa() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let mask = ChannelMask::all_free(8);
        // All request patterns over a coarse grid.
        for pattern in 0..(1usize << 8) {
            let counts: Vec<usize> =
                (0..8).map(|w| if pattern & (1 << w) != 0 { 2 } else { 0 }).collect();
            let rv = RequestVector::from_counts(counts).unwrap();
            let exact = BreakFirstAvailable::default().schedule(&conv, &rv, &mask).unwrap().len();
            let out = approx_schedule(&conv, &rv, &mask).unwrap();
            assert!(out.assignments.len() + out.bound >= exact, "pattern {pattern:#010b}");
            assert!(out.assignments.len() <= exact);
        }
    }

    #[test]
    fn empty_requests() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let out =
            approx_schedule(&conv, &RequestVector::new(6), &ChannelMask::all_free(6)).unwrap();
        assert!(out.assignments.is_empty());
        assert_eq!(out.bound, 0);
    }

    #[test]
    fn full_range_is_exact() {
        let conv = Conversion::full(6).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let out = approx_schedule(&conv, &rv, &ChannelMask::all_free(6)).unwrap();
        assert_eq!(out.assignments.len(), 6);
        assert_eq!(out.bound, 0);
    }

    #[test]
    fn non_circular_rejected() {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        assert!(matches!(
            approx_schedule(&conv, &RequestVector::new(6), &ChannelMask::all_free(6)),
            Err(Error::UnsupportedConversion { .. })
        ));
    }

    #[test]
    fn occupied_shortest_edge_falls_back() {
        // The shortest edge's channel is occupied; the scheduler must pick
        // the best remaining free adjacent channel and report its bound.
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 0, 0, 0, 0, 0]).unwrap();
        let mask = ChannelMask::with_occupied(6, &[0]).unwrap();
        let out = approx_schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &out.assignments).unwrap();
        // t = ±1 remain; bound = max(e+t, f−t) = 2 either way.
        assert_eq!(out.bound, 2);
        assert_eq!(out.assignments.len(), 2);
    }
}
