//! Correctness certificates for schedules and matchings.
//!
//! Every optimality claim in the paper has a finite witness that can be
//! checked much more cheaply than recomputing the answer:
//!
//! * **validity** — a wavelength assignment is a matching of the request
//!   graph: every matched pair is a conversion-feasible edge and no request
//!   or channel is used twice ([`MatchingCertificate::check_valid`]);
//! * **maximality** — by Berge's theorem a matching is maximum iff it admits
//!   no augmenting path, which one breadth-first pass over the residual
//!   graph decides in `O(V + E)` ([`MatchingCertificate::check_maximum`]) —
//!   this is exactly the termination test of Hopcroft–Karp;
//! * **crossing-freeness** — Lemma 1 guarantees a crossing-free maximum
//!   matching exists under circular conversion, and Break-and-First-Available
//!   constructs one ([`MatchingCertificate::check_crossing_free`]);
//! * **convexity** — reduced graphs after a break must have contiguous
//!   adjacency intervals with monotone endpoints (Lemma 2), checked by
//!   [`check_convex`] / [`check_monotone_endpoints`];
//! * **approximation distance** — a single-break schedule must be within
//!   `max(δ(u)−1, d−δ(u))` of the maximum (Theorem 3), checked against the
//!   Hopcroft–Karp size by [`certify_assignments_within`].
//!
//! [`certify`] picks the right certificate for a schedule and the bound
//! its [`Matcher`] reported, and [`certified`] runs any matcher and then
//! certifies its output, turning every theorem the implementation relies on
//! into a runtime-checkable contract. The schedulers run the same
//! certificate behind `debug_assert!` on the hot path, so debug builds
//! self-verify at full coverage while release builds pay nothing; release
//! callers certify a slot by passing `FiberScheduler::schedule_slot`'s
//! assignments and [`crate::SlotStats::approx_bound`] to [`certify`].

use std::collections::VecDeque;

use crate::algorithms::first_available::ConvexInstance;
use crate::algorithms::{hopcroft_karp, validate_assignments, Assignment, Matcher};
use crate::breaking::BrokenGraph;
use crate::conversion::{Conversion, ConversionKind};
use crate::crossing::find_crossing_pair;
use crate::error::Error;
use crate::graph::RequestGraph;
use crate::matching::Matching;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

/// A matching paired with the request graph it claims to solve, exposing
/// the certificate checks as methods.
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct MatchingCertificate<'a> {
    graph: &'a RequestGraph,
    matching: &'a Matching,
}

impl<'a> MatchingCertificate<'a> {
    /// Pairs a matching with its graph for certification.
    pub fn new(graph: &'a RequestGraph, matching: &'a Matching) -> MatchingCertificate<'a> {
        MatchingCertificate { graph, matching }
    }

    /// Validity: correct dimensions, every matched pair an edge, both
    /// directions consistent, no vertex matched twice.
    pub fn check_valid(&self) -> Result<(), Error> {
        self.matching.validate(self.graph)
    }

    /// Maximality in the strong sense (maximum cardinality): no augmenting
    /// path exists. One BFS over the residual graph — the Hopcroft–Karp
    /// termination test — in `O(V + E)`.
    pub fn check_maximum(&self) -> Result<(), Error> {
        match augmenting_path(self.graph, self.matching) {
            None => Ok(()),
            Some((free_left, free_right)) => Err(Error::NotMaximum { free_left, free_right }),
        }
    }

    /// Crossing-freeness (Lemma 1): no two matched edges interleave on the
    /// wavelength ring. Meaningful for circular conversion; non-circular
    /// graphs cannot contain crossing matched pairs in the first place.
    pub fn check_crossing_free(&self) -> Result<(), Error> {
        if self.graph.conversion().kind() != ConversionKind::Circular {
            return Ok(());
        }
        match find_crossing_pair(self.graph.conversion(), self.graph, self.matching) {
            None => Ok(()),
            Some((a, b)) => Err(Error::CrossingMatchedEdges { left_a: a.left, left_b: b.left }),
        }
    }

    /// The full certificate: validity and maximality.
    pub fn check(&self) -> Result<(), Error> {
        self.check_valid()?;
        self.check_maximum()
    }
}

/// Searches for an augmenting path with one BFS from every unmatched left
/// vertex, alternating unmatched/matched edges. Returns the endpoints
/// `(free_left, free_right)` of a path if one exists (the matching is then
/// not maximum), or `None` if the matching is maximum.
fn augmenting_path(graph: &RequestGraph, matching: &Matching) -> Option<(usize, usize)> {
    let nl = graph.left_count();
    // origin[j] = the free left vertex whose alternating tree reached j.
    let mut origin = vec![usize::MAX; nl];
    let mut queue = VecDeque::new();
    for (j, o) in origin.iter_mut().enumerate() {
        if !matching.is_left_saturated(j) {
            *o = j;
            queue.push_back(j);
        }
    }
    while let Some(j) = queue.pop_front() {
        for &p in graph.adjacent(j) {
            match matching.left_of(p) {
                None => return Some((origin[j], p)),
                Some(j2) => {
                    if origin[j2] == usize::MAX {
                        origin[j2] = origin[j];
                        queue.push_back(j2);
                    }
                }
            }
        }
    }
    None
}

/// Checks that every interval of a convex instance is well-formed:
/// `begin <= end < right_count`.
pub fn check_convex(inst: &ConvexInstance) -> Result<(), Error> {
    for (j, iv) in inst.intervals.iter().enumerate() {
        if let Some((begin, end)) = *iv {
            if begin > end || end >= inst.right_count {
                return Err(Error::AdjacencyNotContiguous {
                    left: j,
                    expected: end.saturating_sub(begin) + 1,
                    actual: inst.right_count,
                });
            }
        }
    }
    Ok(())
}

/// Checks the precondition of Theorem 1: both interval endpoints
/// non-decreasing over the non-isolated left vertices.
pub fn check_monotone_endpoints(inst: &ConvexInstance) -> Result<(), Error> {
    let mut prev: Option<(usize, usize)> = None;
    for (j, iv) in inst.intervals.iter().enumerate() {
        let Some(iv) = iv else { continue };
        if let Some((pb, pe)) = prev {
            if iv.0 < pb || iv.1 < pe {
                return Err(Error::NonMonotoneEndpoints { left: j });
            }
        }
        prev = Some(*iv);
    }
    Ok(())
}

/// Certifies a `MATCH[]` array over a convex instance: every matched right
/// position lies inside its left vertex's interval, no left vertex is used
/// twice, and the matching is maximum (no augmenting path over the interval
/// adjacency).
pub fn check_interval_matching(
    inst: &ConvexInstance,
    match_of_right: &[Option<usize>],
) -> Result<(), Error> {
    if match_of_right.len() != inst.right_count {
        return Err(Error::LengthMismatch {
            expected: inst.right_count,
            actual: match_of_right.len(),
        });
    }
    let nl = inst.intervals.len();
    let mut right_of_left = vec![None; nl];
    for (p, &j) in match_of_right.iter().enumerate() {
        let Some(j) = j else { continue };
        if j >= nl {
            return Err(Error::LengthMismatch { expected: nl, actual: j + 1 });
        }
        match inst.intervals[j] {
            Some((begin, end)) if begin <= p && p <= end => {}
            _ => return Err(Error::NotAnEdge { left: j, right: p }),
        }
        if right_of_left[j].is_some() {
            return Err(Error::AlreadyMatched { left_side: true, index: j });
        }
        right_of_left[j] = Some(p);
    }

    // Berge check over the interval adjacency (same BFS as on graphs).
    let mut origin = vec![usize::MAX; nl];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for j in 0..nl {
        if right_of_left[j].is_none() && inst.intervals[j].is_some() {
            origin[j] = j;
            queue.push_back(j);
        }
    }
    while let Some(j) = queue.pop_front() {
        let Some((begin, end)) = inst.intervals[j] else { continue };
        let upper = end.min(inst.right_count.saturating_sub(1));
        for (p, m) in match_of_right.iter().enumerate().take(upper + 1).skip(begin) {
            match *m {
                None => return Err(Error::NotMaximum { free_left: origin[j], free_right: p }),
                Some(j2) => {
                    if origin[j2] == usize::MAX {
                        origin[j2] = origin[j];
                        queue.push_back(j2);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Checks the Lemma 2 invariants of a reduced graph after a break: every
/// adjacency set is a contiguous interval and the interval endpoints are
/// monotone in the rotated left order.
pub fn check_broken_invariants(broken: &BrokenGraph) -> Result<(), Error> {
    let intervals = broken.intervals_checked()?;
    let inst = ConvexInstance { intervals, right_count: broken.right_count() };
    check_convex(&inst)?;
    check_monotone_endpoints(&inst)
}

/// Lifts a wavelength-level assignment list onto an explicit request graph,
/// producing the vertex-level [`Matching`] it denotes.
///
/// Left vertices of `graph` are the expanded requests in ascending
/// wavelength order; assignments on the same input wavelength are mapped to
/// distinct copies in order of appearance. Fails if the assignments do not
/// denote a matching of `graph` (channel not free, too many grants on a
/// wavelength, pair not conversion-feasible).
pub fn lift_assignments(
    graph: &RequestGraph,
    assignments: &[Assignment],
) -> Result<Matching, Error> {
    let k = graph.k();
    // First left vertex per wavelength, then advance per grant.
    let mut next_left = vec![usize::MAX; k];
    for (j, &w) in graph.left_wavelengths().iter().enumerate().rev() {
        next_left[w] = j;
    }
    // Position of each free output wavelength.
    let mut pos_of_output = vec![usize::MAX; k];
    for (p, &w) in graph.outputs().iter().enumerate() {
        pos_of_output[w] = p;
    }

    let mut m = Matching::empty(graph.left_count(), graph.right_count());
    for a in assignments {
        if a.input >= k || a.output >= k {
            return Err(Error::InvalidWavelength { wavelength: a.input.max(a.output), k });
        }
        let j = next_left[a.input];
        if j >= graph.left_count() || graph.wavelength_of(j) != a.input {
            return Err(Error::AlreadyMatched { left_side: true, index: a.input });
        }
        next_left[a.input] = j + 1;
        let p = pos_of_output[a.output];
        if p == usize::MAX {
            return Err(Error::AlreadyMatched { left_side: false, index: a.output });
        }
        m.add(j, p)?;
    }
    m.validate(graph)?;
    Ok(m)
}

/// Certifies the word-parallel mask kernels against the per-channel
/// semantics for one slot: the packed representation's invariants hold
/// ([`ChannelMask::check_integrity`]), and for every wavelength the
/// word-masked adjacency-span probes agree with a channel-by-channel scan of
/// the same span.
///
/// The schedulers trust `any_free_in_span`/`free_in_span` and the prefix
/// tables on the hot path; this check keeps every certificate in lockstep
/// with the bit-level kernels, so a drifted word mask fails certification
/// instead of silently corrupting schedules.
pub fn check_mask_kernels(conv: &Conversion, mask: &ChannelMask) -> Result<(), Error> {
    mask.check_integrity()?;
    let k = conv.k();
    let prefix = mask.free_prefix_counts();
    if prefix[k] != mask.free_count() {
        return Err(Error::LengthMismatch { expected: mask.free_count(), actual: prefix[k] });
    }
    for w in 0..k {
        let span = conv.adjacency(w);
        let scanned = span.iter(k).filter(|&u| mask.is_free(u)).count();
        if mask.free_in_span(span) != scanned
            || mask.any_free_in_span(span) != (scanned > 0)
            || mask.first_free_in_span(span) != span.iter(k).find(|&u| mask.is_free(u))
        {
            return Err(Error::MaskPaddingCorrupt { word: w / 64 });
        }
    }
    Ok(())
}

/// Certifies that a compact schedule is feasible **and** a maximum matching
/// of the slot's request graph.
///
/// This is the full certificate behind Theorems 1 and 2: it re-checks
/// feasibility ([`validate_assignments`]), lifts the schedule onto the
/// explicit [`RequestGraph`], and runs the Berge/Hopcroft–Karp augmenting
/// path test. `O(k·d)` — independent of the interconnect size, like the
/// schedulers themselves. Also cross-checks the word-parallel mask kernels
/// the schedulers relied on ([`check_mask_kernels`]).
pub fn certify_assignments(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    assignments: &[Assignment],
) -> Result<(), Error> {
    check_mask_kernels(conv, mask)?;
    validate_assignments(conv, requests, mask, assignments)?;
    let graph = RequestGraph::with_mask(*conv, requests, mask)?;
    let matching = lift_assignments(&graph, assignments)?;
    MatchingCertificate::new(&graph, &matching).check_maximum()
}

/// Certifies that a compact schedule is feasible and within `bound` of the
/// maximum matching (Theorem 3 / Corollary 1 for the single-break
/// approximation; `bound = 0` degenerates to exactness).
///
/// Computes the true maximum with Hopcroft–Karp, so this costs
/// `O(E·sqrt(V))` — fine for a certificate, not for the hot path.
pub fn certify_assignments_within(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    assignments: &[Assignment],
    bound: usize,
) -> Result<(), Error> {
    check_mask_kernels(conv, mask)?;
    validate_assignments(conv, requests, mask, assignments)?;
    let graph = RequestGraph::with_mask(*conv, requests, mask)?;
    // Feasibility implies |assignments| <= optimal; check the gap.
    let optimal = hopcroft_karp(&graph).size();
    if assignments.len() + bound < optimal {
        return Err(Error::BoundViolated { size: assignments.len(), bound, optimal });
    }
    Ok(())
}

/// Certifies a schedule against the distance-to-maximum bound its
/// [`Matcher`] reported: [`certify_assignments`] when the matcher claims a
/// maximum matching (`None`), [`certify_assignments_within`] for
/// `Some(bound)`.
pub fn certify(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    assignments: &[Assignment],
    bound: Option<usize>,
) -> Result<(), Error> {
    match bound {
        None => certify_assignments(conv, requests, mask, assignments),
        Some(bound) => certify_assignments_within(conv, requests, mask, assignments, bound),
    }
}

/// Runs `matcher` on one slot and [`certify`]s its schedule before returning
/// it: the certificate-checked form of every scheduler. The certificate
/// allocates; the hot path runs it only in debug builds.
pub fn certified<M: Matcher>(
    matcher: &M,
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
) -> Result<Vec<Assignment>, Error> {
    let mut scratch = crate::ScratchArena::new();
    let mut out = Vec::new();
    let bound = matcher.schedule_into(conv, requests, mask, &mut scratch, &mut out)?;
    certify(conv, requests, mask, &out, bound)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{kuhn, BreakChoice, BreakFirstAvailable, FirstAvailable};

    const BFA: BreakFirstAvailable = BreakFirstAvailable(BreakChoice::FirstRequest);

    fn paper_circular() -> (Conversion, RequestVector, RequestGraph) {
        let conv = Conversion::symmetric_circular(6, 3).expect("valid");
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).expect("valid");
        let g = RequestGraph::new(conv, &rv).expect("valid");
        (conv, rv, g)
    }

    #[test]
    fn maximum_matching_certifies() {
        let (_conv, _rv, g) = paper_circular();
        let m = kuhn(&g);
        MatchingCertificate::new(&g, &m).check().expect("kuhn is maximum");
    }

    #[test]
    fn submaximal_matching_is_caught() {
        let (_conv, _rv, g) = paper_circular();
        let mut m = Matching::empty(7, 6);
        m.add(0, 0).expect("edge");
        let cert = MatchingCertificate::new(&g, &m);
        cert.check_valid().expect("valid but tiny");
        assert!(matches!(cert.check_maximum(), Err(Error::NotMaximum { .. })));
    }

    #[test]
    fn empty_matching_on_empty_graph_is_maximum() {
        let conv = Conversion::full(4).expect("valid");
        let g = RequestGraph::new(conv, &RequestVector::new(4)).expect("valid");
        let m = Matching::empty(0, 4);
        MatchingCertificate::new(&g, &m).check().expect("vacuously maximum");
    }

    #[test]
    fn crossing_matching_is_caught() {
        let (_conv, _rv, g) = paper_circular();
        // a0–b1 and a1–b0 cross (the paper's Definition 1 example).
        let mut m = Matching::empty(7, 6);
        m.add(0, 1).expect("edge");
        m.add(1, 0).expect("edge");
        assert!(matches!(
            MatchingCertificate::new(&g, &m).check_crossing_free(),
            Err(Error::CrossingMatchedEdges { .. })
        ));
    }

    #[test]
    fn lift_round_trips_compact_schedules() {
        let (conv, rv, g) = paper_circular();
        let mask = ChannelMask::all_free(6);
        let a = BFA.schedule(&conv, &rv, &mask).expect("schedules");
        let m = lift_assignments(&g, &a).expect("lifts");
        assert_eq!(m.size(), a.len());
        MatchingCertificate::new(&g, &m).check().expect("maximum");
    }

    #[test]
    fn lift_rejects_overgranted_wavelength() {
        let (_conv, _rv, g) = paper_circular();
        // Three grants on λ1 but only one λ1 request exists.
        let a = vec![Assignment { input: 1, output: 0 }, Assignment { input: 1, output: 1 }];
        assert!(lift_assignments(&g, &a).is_err());
    }

    #[test]
    fn certify_accepts_fa_on_non_circular() {
        let conv = Conversion::non_circular(6, 1, 1).expect("valid");
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).expect("valid");
        let mask = ChannelMask::with_occupied(6, &[2]).expect("valid");
        let a = FirstAvailable.schedule(&conv, &rv, &mask).expect("schedules");
        certify_assignments(&conv, &rv, &mask, &a).expect("Theorem 1");
    }

    #[test]
    fn certify_rejects_truncated_schedule() {
        let (conv, rv, _g) = paper_circular();
        let mask = ChannelMask::all_free(6);
        let mut a = BFA.schedule(&conv, &rv, &mask).expect("schedules");
        a.pop();
        assert!(matches!(
            certify_assignments(&conv, &rv, &mask, &a),
            Err(Error::NotMaximum { .. })
        ));
    }

    #[test]
    fn certify_within_accepts_gap_up_to_bound() {
        let (conv, rv, _g) = paper_circular();
        let mask = ChannelMask::all_free(6);
        let mut a = BFA.schedule(&conv, &rv, &mask).expect("schedules");
        a.pop();
        certify_assignments_within(&conv, &rv, &mask, &a, 1).expect("within 1");
        assert!(matches!(
            certify_assignments_within(&conv, &rv, &mask, &a, 0),
            Err(Error::BoundViolated { .. })
        ));
    }

    /// A matcher that runs Break and First Available, drops its last grant,
    /// and claims the given distance-to-maximum bound anyway.
    struct DropsOne(Option<usize>);

    impl Matcher for DropsOne {
        fn schedule_into(
            &self,
            conv: &Conversion,
            requests: &RequestVector,
            mask: &ChannelMask,
            scratch: &mut crate::ScratchArena,
            out: &mut Vec<Assignment>,
        ) -> Result<Option<usize>, Error> {
            BFA.schedule_into(conv, requests, mask, scratch, out)?;
            out.pop();
            Ok(self.0)
        }
    }

    #[test]
    fn certified_holds_a_matcher_to_its_reported_bound() {
        let (conv, rv, _g) = paper_circular();
        let mask = ChannelMask::all_free(6);
        let exact = certified(&BFA, &conv, &rv, &mask).expect("maximum");
        assert_eq!(exact.len(), 6);
        assert!(matches!(
            certified(&DropsOne(None), &conv, &rv, &mask),
            Err(Error::NotMaximum { .. })
        ));
        assert!(matches!(
            certified(&DropsOne(Some(0)), &conv, &rv, &mask),
            Err(Error::BoundViolated { size: 5, bound: 0, optimal: 6 })
        ));
        let within = certified(&DropsOne(Some(1)), &conv, &rv, &mask).expect("within 1");
        assert_eq!(within.len(), 5);
    }

    #[test]
    fn monotonicity_violation_is_reported_with_vertex() {
        let inst = ConvexInstance {
            intervals: vec![Some((0, 2)), Some((0, 1)), Some((1, 3))],
            right_count: 4,
        };
        assert!(matches!(
            check_monotone_endpoints(&inst),
            Err(Error::NonMonotoneEndpoints { left: 1 })
        ));
    }

    #[test]
    fn malformed_interval_is_reported() {
        let inst = ConvexInstance { intervals: vec![Some((2, 1))], right_count: 4 };
        assert!(check_convex(&inst).is_err());
        let inst = ConvexInstance { intervals: vec![Some((0, 4))], right_count: 4 };
        assert!(check_convex(&inst).is_err());
    }

    #[test]
    fn interval_matching_certificate() {
        let inst = ConvexInstance {
            intervals: vec![Some((0, 0)), Some((0, 1)), Some((1, 3)), None, Some((2, 3))],
            right_count: 4,
        };
        // The FA answer: b0→L0, b1→L1, b2→L2, b3→L4.
        check_interval_matching(&inst, &[Some(0), Some(1), Some(2), Some(4)]).expect("maximum");
        // Leaving b3 free while L4 could take it: augmenting path.
        assert!(matches!(
            check_interval_matching(&inst, &[Some(0), Some(1), Some(2), None]),
            Err(Error::NotMaximum { .. })
        ));
        // Out-of-interval match.
        assert!(matches!(
            check_interval_matching(&inst, &[Some(2), None, None, None]),
            Err(Error::NotAnEdge { .. })
        ));
        // Left vertex used twice.
        assert!(matches!(
            check_interval_matching(&inst, &[Some(1), Some(1), None, None]),
            Err(Error::AlreadyMatched { .. })
        ));
    }

    #[test]
    fn broken_graph_invariants_hold_on_paper_example() {
        let (_conv, _rv, g) = paper_circular();
        for j in 0..g.left_count() {
            for &p in g.adjacent(j) {
                let broken = crate::breaking::break_graph(&g, j, p);
                check_broken_invariants(&broken).expect("Lemma 2");
            }
        }
    }
}
