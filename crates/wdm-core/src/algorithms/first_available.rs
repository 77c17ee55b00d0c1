//! The First Available Algorithm (paper Table 2, Theorem 1).
//!
//! For non-circular symmetrical conversion the request graph is a *convex*
//! bipartite graph whose left-vertex intervals additionally have monotone
//! `BEGIN` and `END` values (both non-decreasing in the left order). Under
//! that condition Glover's min-`END` rule degenerates: when scanning the
//! right vertices in order, the first (lowest-index) adjacent unmatched left
//! vertex *is* the one whose interval ends soonest. First Available
//! therefore matches each right vertex to its first adjacent left vertex and
//! still finds a maximum matching — in `O(k)` with the compact
//! request-vector representation.

use std::collections::VecDeque;

use crate::arena::{ScratchArena, ScratchItem};
use crate::conversion::{Conversion, ConversionKind};
use crate::error::Error;
use crate::graph::RequestGraph;
use crate::matching::Matching;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

use super::{Assignment, Matcher};

/// A convex bipartite instance: each left vertex's adjacency is an inclusive
/// interval of right positions (`None` = isolated), and the intervals'
/// endpoints are non-decreasing in left order.
#[derive(Debug, Clone)]
pub struct ConvexInstance {
    /// Inclusive `[begin, end]` position interval per left vertex.
    pub intervals: Vec<Option<(usize, usize)>>,
    /// Number of right vertices.
    pub right_count: usize,
}

impl ConvexInstance {
    /// Extracts the interval form of an explicit request graph. Only valid
    /// when every adjacency set is contiguous in position order (always the
    /// case for non-circular conversion).
    pub fn from_graph(graph: &RequestGraph) -> ConvexInstance {
        let intervals = (0..graph.left_count()).map(|j| graph.position_interval(j)).collect();
        ConvexInstance { intervals, right_count: graph.right_count() }
    }

    /// Extracts the interval form of a broken (reduced) graph (Lemma 2).
    pub fn from_broken(broken: &crate::breaking::BrokenGraph) -> ConvexInstance {
        ConvexInstance { intervals: broken.intervals(), right_count: broken.right_count() }
    }

    /// Whether both interval endpoints are non-decreasing over the
    /// non-isolated left vertices — the precondition of Theorem 1.
    pub fn has_monotone_endpoints(&self) -> bool {
        let mut prev: Option<(usize, usize)> = None;
        for iv in self.intervals.iter().flatten() {
            if let Some((pb, pe)) = prev {
                if iv.0 < pb || iv.1 < pe {
                    return false;
                }
            }
            prev = Some(*iv);
        }
        true
    }
}

/// Runs First Available on a convex instance with monotone endpoints.
///
/// Returns the paper's `MATCH[]` array: for each right position, the matched
/// left vertex (or `None`).
///
/// The instance must satisfy [`ConvexInstance::has_monotone_endpoints`]
/// (checked with a debug assertion); without monotonicity use
/// [`super::glover`].
///
/// Paper: Theorem 1 (First Available, Table 2).
#[must_use]
pub fn first_available(inst: &ConvexInstance) -> Vec<Option<usize>> {
    let mut scratch = ScratchArena::new();
    let mut match_of_right = Vec::new();
    first_available_into(inst, &mut scratch, &mut match_of_right);
    match_of_right
}

/// [`first_available`] writing into caller-provided buffers: `out` receives
/// the `MATCH[]` array and `scratch` provides the active-vertex queue.
/// Allocation-free once both have steady-state capacity.
///
/// Paper: Theorem 1 (First Available, Table 2).
pub fn first_available_into(
    inst: &ConvexInstance,
    scratch: &mut ScratchArena,
    out: &mut Vec<Option<usize>>,
) {
    debug_assert!(inst.has_monotone_endpoints(), "First Available requires monotone endpoints");
    out.clear();
    out.resize(inst.right_count, None);
    let match_of_right = out;
    // Active left vertices whose interval has begun, in index order. The
    // front is both the first adjacent vertex and (by monotonicity) the one
    // with minimum END.
    let active: &mut VecDeque<usize> = &mut scratch.active;
    active.clear();
    let mut next = 0usize;
    for (p, slot) in match_of_right.iter_mut().enumerate() {
        while next < inst.intervals.len() {
            match inst.intervals[next] {
                Some((begin, _)) if begin <= p => {
                    active.push_back(next);
                    next += 1;
                }
                Some(_) => break,
                None => next += 1,
            }
        }
        while let Some(&j) = active.front() {
            // An interval that ended before p can never match again.
            match inst.intervals[j] {
                Some((_, end)) if end >= p => break,
                _ => {
                    active.pop_front();
                }
            }
        }
        if let Some(j) = active.pop_front() {
            *slot = Some(j);
        }
    }
}

/// First Available on an explicit request graph, returning a [`Matching`].
///
/// The graph must be convex with monotone endpoints — guaranteed for
/// non-circular conversion (Theorem 1), and for reduced graphs produced by
/// breaking (Lemma 2).
///
/// Paper: Theorem 1 (First Available, Table 2).
pub fn first_available_matching(graph: &RequestGraph) -> Matching {
    let inst = ConvexInstance::from_graph(graph);
    let match_of_right = first_available(&inst);
    match Matching::from_right_assignment(graph.left_count(), match_of_right) {
        Ok(m) => m,
        Err(_) => unreachable!("First Available produces a consistent assignment"),
    }
}

/// The `O(k)` compact First Available scheduler (paper Table 2) for
/// non-circular conversion.
///
/// Works directly on the request vector: requests on the same wavelength are
/// interchangeable, so the scheduler tracks a remaining-count per wavelength
/// instead of individual left vertices. Occupied channels (`mask`) are
/// handled per §V by mapping wavelength intervals to free-channel positions
/// with prefix counts. Grants come out in output-wavelength order, and the
/// schedule is a maximum matching (Theorem 1).
///
/// ```
/// use wdm_core::{ChannelMask, Conversion, RequestVector};
/// use wdm_core::algorithms::{FirstAvailable, Matcher};
///
/// let conv = Conversion::non_circular(6, 1, 1)?;
/// let requests = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2])?;
/// let grants = FirstAvailable.schedule(&conv, &requests, &ChannelMask::all_free(6))?;
/// assert_eq!(grants.len(), 6); // the maximum matching of paper Fig. 4(b)
/// # Ok::<(), wdm_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FirstAvailable;

impl Matcher for FirstAvailable {
    /// Paper: Theorem 1 (First Available, Table 2).
    fn schedule_into(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<usize>, Error> {
        out.clear();
        conv.check_k(requests.k())?;
        conv.check_k(mask.k())?;
        if conv.kind() != ConversionKind::NonCircular {
            return Err(Error::UnsupportedConversion {
                algorithm: "First Available",
                requires: "non-circular conversion (use Break and First Available for circular)",
            });
        }
        let k = conv.k();
        mask.free_channels_into(&mut scratch.outputs);
        mask.free_prefix_counts_into(&mut scratch.prefix);
        let outputs = &scratch.outputs;
        let prefix = &scratch.prefix;

        let items = &mut scratch.items;
        items.clear();
        for (w, count) in requests.iter_nonzero() {
            let span = conv.adjacency(w);
            debug_assert!(!span.wraps(k), "non-circular spans never wrap");
            let lo = span.start();
            let hi = span.last(k);
            let begin = prefix[lo];
            let end_excl = prefix[hi + 1];
            if end_excl > begin {
                let width = end_excl - begin;
                items.push(ScratchItem {
                    wavelength: w,
                    remaining: count.min(width),
                    begin,
                    end: end_excl - 1,
                });
            }
        }

        let active = &mut scratch.active;
        active.clear();
        let mut next = 0usize;
        for (p, &out_w) in outputs.iter().enumerate() {
            // All request intervals consumed or expired: no later free channel
            // can be granted, so the scan is done.
            if next >= items.len() && active.is_empty() {
                break;
            }
            while next < items.len() && items[next].begin <= p {
                active.push_back(next);
                next += 1;
            }
            while let Some(&i) = active.front() {
                if items[i].end < p || items[i].remaining == 0 {
                    active.pop_front();
                } else {
                    break;
                }
            }
            if let Some(&i) = active.front() {
                out.push(Assignment { input: items[i].wavelength, output: out_w });
                items[i].remaining -= 1;
                if items[i].remaining == 0 {
                    active.pop_front();
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::validate_assignments;

    fn paper_conv() -> Conversion {
        Conversion::non_circular(6, 1, 1).unwrap()
    }

    fn paper_requests() -> RequestVector {
        RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap()
    }

    /// Paper Fig. 4(b): the maximum matching for the Fig. 3(b) request graph
    /// has size 6 (one of the seven requests is rejected).
    #[test]
    fn figure_4b_maximum_matching() {
        let g = RequestGraph::new(paper_conv(), &paper_requests()).unwrap();
        let m = first_available_matching(&g);
        assert_eq!(m.size(), 6);
        m.validate(&g).unwrap();
        // FA matches each b to the first adjacent request:
        // b0→a0, b1→a1, b2→a2, b3→a3, b4→a4, b5→a5; a6 is rejected.
        for p in 0..6 {
            assert_eq!(m.left_of(p), Some(p));
        }
        assert!(!m.is_left_saturated(6));
    }

    #[test]
    fn compact_matches_graph_version() {
        let conv = paper_conv();
        let rv = paper_requests();
        let mask = ChannelMask::all_free(6);
        let assignments = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &assignments).unwrap();
        assert_eq!(assignments.len(), 6);
        let g = RequestGraph::new(conv, &rv).unwrap();
        assert_eq!(first_available_matching(&g).size(), assignments.len());
    }

    #[test]
    fn rejects_circular_conversion() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::new(6);
        let mask = ChannelMask::all_free(6);
        assert!(matches!(
            FirstAvailable.schedule(&conv, &rv, &mask),
            Err(Error::UnsupportedConversion { .. })
        ));
    }

    #[test]
    fn rejects_mismatched_dimensions() {
        let conv = paper_conv();
        assert!(FirstAvailable
            .schedule(&conv, &RequestVector::new(5), &ChannelMask::all_free(6))
            .is_err());
        assert!(FirstAvailable
            .schedule(&conv, &RequestVector::new(6), &ChannelMask::all_free(5))
            .is_err());
    }

    #[test]
    fn occupied_channels_respected() {
        let conv = paper_conv();
        let rv = paper_requests();
        let mask = ChannelMask::with_occupied(6, &[0, 1]).unwrap();
        let assignments = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
        validate_assignments(&conv, &rv, &mask, &assignments).unwrap();
        // λ0 requests can only use b0/b1, both occupied; λ1 can use b2.
        // Free channels: 2, 3, 4, 5 → matchable: a2(λ1)→b2, a3(λ3)→b3,
        // a4(λ4)→b4, a5(λ5)→b5 = 4 grants.
        assert_eq!(assignments.len(), 4);
        assert!(assignments.iter().all(|a| a.output >= 2));
    }

    #[test]
    fn no_requests_no_grants() {
        let conv = paper_conv();
        let assignments = FirstAvailable
            .schedule(&conv, &RequestVector::new(6), &ChannelMask::all_free(6))
            .unwrap();
        assert!(assignments.is_empty());
    }

    #[test]
    fn all_occupied_no_grants() {
        let conv = paper_conv();
        let assignments = FirstAvailable
            .schedule(&conv, &paper_requests(), &ChannelMask::all_occupied(6))
            .unwrap();
        assert!(assignments.is_empty());
    }

    #[test]
    fn overload_grants_every_channel() {
        // 4 requests on every wavelength: every free channel must be filled.
        let conv = Conversion::non_circular(8, 1, 1).unwrap();
        let rv = RequestVector::from_counts(vec![4; 8]).unwrap();
        let mask = ChannelMask::all_free(8);
        let assignments = FirstAvailable.schedule(&conv, &rv, &mask).unwrap();
        assert_eq!(assignments.len(), 8);
        validate_assignments(&conv, &rv, &mask, &assignments).unwrap();
    }

    #[test]
    fn non_monotone_instance_is_detected() {
        // Lefts: [0,1], [0,2], [1,1], [2,3] — convex, but END is not
        // monotone (L2 ends at 1 after L1 ends at 2). First Available's
        // first-adjacent rule is only optimal under monotone endpoints
        // (Theorem 1); such instances must be routed to Glover instead.
        let inst = ConvexInstance {
            intervals: vec![Some((0, 1)), Some((0, 2)), Some((1, 1)), Some((2, 3))],
            right_count: 4,
        };
        assert!(!inst.has_monotone_endpoints());
    }

    #[test]
    fn generic_first_available_monotone_is_maximum() {
        // Monotone instance where greedy-by-first differs from naive.
        let inst = ConvexInstance {
            intervals: vec![Some((0, 0)), Some((0, 1)), Some((1, 3)), None, Some((2, 3))],
            right_count: 4,
        };
        assert!(inst.has_monotone_endpoints());
        let m = first_available(&inst);
        let size = m.iter().flatten().count();
        assert_eq!(size, 4);
        assert_eq!(m, vec![Some(0), Some(1), Some(2), Some(4)]);
    }
}
