//! Glover's algorithm for maximum matching in convex bipartite graphs
//! (paper Table 1; F. Glover, Naval Res. Logist. Quart. 1967).
//!
//! Scanning the right vertices in order, each is matched to the adjacent
//! left vertex whose interval *ends soonest* (minimum `END`). Unlike
//! [`super::first_available`], this works for any convex instance — the
//! endpoints need not be monotone — at the cost of a priority queue.

use std::cmp::Reverse;

use crate::arena::ScratchArena;

use super::first_available::ConvexInstance;

/// Runs Glover's algorithm on a convex instance.
///
/// Returns the `MATCH[]` array: for each right position, the matched left
/// vertex (or `None`). Runs in `O((n + m) log n)` for `n` left and `m`
/// right vertices.
///
/// Paper: Table 1 (Glover's min-END rule for convex bipartite graphs).
#[must_use]
pub fn glover(inst: &ConvexInstance) -> Vec<Option<usize>> {
    let mut scratch = ScratchArena::new();
    let mut match_of_right = Vec::new();
    glover_into(inst, &mut scratch, &mut match_of_right);
    match_of_right
}

/// [`glover`] writing into caller-provided buffers: `out` receives the
/// `MATCH[]` array; the begin-sorted vertex list and the min-`END` heap live
/// in `scratch`. Allocation-free once both have steady-state capacity.
///
/// Paper: Table 1 (Glover's min-END rule for convex bipartite graphs).
pub fn glover_into(
    inst: &ConvexInstance,
    scratch: &mut ScratchArena,
    out: &mut Vec<Option<usize>>,
) {
    // Left vertices sorted by interval begin (stable: ties keep index order).
    let by_begin = &mut scratch.by_begin;
    by_begin.clear();
    by_begin.extend(
        inst.intervals
            .iter()
            .enumerate()
            .filter_map(|(j, iv)| iv.map(|(begin, end)| (begin, end, j))),
    );
    // Unstable sort: the (begin, j) keys are unique, and unlike the stable
    // sort it needs no temporary buffer.
    by_begin.sort_unstable_by_key(|&(begin, _, j)| (begin, j));

    out.clear();
    out.resize(inst.right_count, None);
    let match_of_right = out;
    let heap = &mut scratch.heap; // (end, left)
    heap.clear();
    let mut next = 0usize;
    for (p, slot) in match_of_right.iter_mut().enumerate() {
        while next < by_begin.len() {
            let (begin, end, j) = by_begin[next];
            if begin <= p {
                heap.push(Reverse((end, j)));
                next += 1;
            } else {
                break;
            }
        }
        while let Some(&Reverse((end, _))) = heap.peek() {
            if end < p {
                heap.pop();
            } else {
                break;
            }
        }
        if let Some(Reverse((_, j))) = heap.pop() {
            *slot = Some(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{first_available, kuhn};
    use crate::conversion::Conversion;
    use crate::graph::RequestGraph;
    use crate::request::RequestVector;

    #[test]
    fn glover_handles_non_monotone_ends() {
        // The instance where plain First Available would be suboptimal:
        // L0=[0,1], L1=[0,2], L2=[1,1], L3=[2,3]. Optimal size is 4
        // (L0→0, L2→1, L1→2, L3→3).
        let inst = ConvexInstance {
            intervals: vec![Some((0, 1)), Some((0, 2)), Some((1, 1)), Some((2, 3))],
            right_count: 4,
        };
        let m = glover(&inst);
        assert_eq!(m.iter().flatten().count(), 4);
        assert_eq!(m, vec![Some(0), Some(2), Some(1), Some(3)]);
    }

    #[test]
    fn glover_agrees_with_first_available_on_monotone_instances() {
        let inst = ConvexInstance {
            intervals: vec![Some((0, 0)), Some((0, 1)), Some((1, 3)), None, Some((2, 3))],
            right_count: 4,
        };
        assert!(inst.has_monotone_endpoints());
        let g = glover(&inst);
        let f = first_available(&inst);
        assert_eq!(
            g.iter().flatten().count(),
            f.iter().flatten().count(),
            "same matching size on monotone instances"
        );
    }

    #[test]
    fn glover_matches_kuhn_on_request_graphs() {
        // Non-circular request graphs are convex; Glover must equal the
        // augmenting-path oracle on a batch of deterministic cases.
        let cases: Vec<(usize, usize, usize, Vec<usize>)> = vec![
            (6, 1, 1, vec![2, 1, 0, 1, 1, 2]),
            (6, 1, 1, vec![6, 0, 0, 0, 0, 0]),
            (8, 2, 1, vec![1, 1, 1, 1, 1, 1, 1, 1]),
            (8, 0, 2, vec![3, 0, 0, 3, 0, 0, 3, 0]),
            (4, 1, 1, vec![0, 4, 4, 0]),
            (5, 2, 2, vec![5, 0, 0, 0, 5]),
        ];
        for (k, e, f, counts) in cases {
            let conv = Conversion::non_circular(k, e, f).unwrap();
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let graph = RequestGraph::new(conv, &rv).unwrap();
            let inst = ConvexInstance::from_graph(&graph);
            let size = glover(&inst).iter().flatten().count();
            let oracle = kuhn(&graph).size();
            assert_eq!(size, oracle, "k={k} e={e} f={f} counts={counts:?}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = ConvexInstance { intervals: vec![], right_count: 3 };
        assert_eq!(glover(&inst), vec![None, None, None]);
        let inst = ConvexInstance { intervals: vec![Some((0, 0))], right_count: 0 };
        assert_eq!(glover(&inst), Vec::<Option<usize>>::new());
    }
}
