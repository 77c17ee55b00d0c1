//! Hopcroft–Karp maximum bipartite matching — the paper's baseline [1].
//!
//! The best known algorithm for maximum matching in an *arbitrary* bipartite
//! graph, `O(sqrt(V) · E)`. Applied to a whole-interconnect request graph it
//! costs `O(N^1.5 k^1.5 d)` — the number the paper's `O(k)`/`O(dk)`
//! schedulers are measured against (and what the benchmark suite reproduces
//! empirically).

use wdm_attr::allow_reach;

use crate::arena::ScratchArena;
use crate::conversion::Conversion;
use crate::error::Error;
use crate::graph::RequestGraph;
use crate::matching::Matching;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

use super::{Assignment, Matcher};

const INF: usize = usize::MAX;

/// Finds a maximum matching in an arbitrary request graph with the
/// Hopcroft–Karp algorithm.
///
/// Paper: reference [1] baseline (Hopcroft–Karp, O(sqrt(V)*E)).
pub fn hopcroft_karp(graph: &RequestGraph) -> Matching {
    let mut scratch = ScratchArena::new();
    hopcroft_karp_in(graph, &mut scratch)
}

/// [`hopcroft_karp`] running its BFS layering and match arrays out of a
/// caller-provided arena.
///
/// The returned [`Matching`] still owns its arrays (one allocation pair per
/// call): Hopcroft–Karp is the oracle and the `Policy::HopcroftKarp`
/// baseline, not part of the certified zero-allocation hot path — reusing
/// the arena only trims its constant factor.
///
/// Paper: reference [1] baseline (Hopcroft–Karp, O(sqrt(V)*E)).
#[wdm_attr::allow_reach(
    panic_free,
    reason = "the BFS/DFS layer arrays are resized to the graph's vertex counts at entry and every visited index comes from the graph's adjacency lists; the produced matching is re-verified by the maximality certificate in debug builds"
)]
pub fn hopcroft_karp_in(graph: &RequestGraph, scratch: &mut ScratchArena) -> Matching {
    let nl = graph.left_count();
    let nr = graph.right_count();
    let match_left = &mut scratch.match_left;
    match_left.clear();
    match_left.resize(nl, None);
    let match_right = &mut scratch.match_right;
    match_right.clear();
    match_right.resize(nr, None);
    let dist = &mut scratch.dist;
    dist.clear();
    dist.resize(nl, INF);
    let queue = &mut scratch.queue;

    loop {
        // BFS phase: layer the free left vertices.
        queue.clear();
        for j in 0..nl {
            if match_left[j].is_none() {
                dist[j] = 0;
                queue.push_back(j);
            } else {
                dist[j] = INF;
            }
        }
        let mut found_augmenting_layer = false;
        while let Some(j) = queue.pop_front() {
            for &p in graph.adjacent(j) {
                match match_right[p] {
                    None => found_augmenting_layer = true,
                    Some(j2) => {
                        if dist[j2] == INF {
                            dist[j2] = dist[j] + 1;
                            queue.push_back(j2);
                        }
                    }
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }

        // DFS phase: vertex-disjoint shortest augmenting paths.
        fn dfs(
            graph: &RequestGraph,
            j: usize,
            dist: &mut [usize],
            match_left: &mut [Option<usize>],
            match_right: &mut [Option<usize>],
        ) -> bool {
            for &p in graph.adjacent(j) {
                let advance = match match_right[p] {
                    None => true,
                    Some(j2) => {
                        dist[j2] == dist[j] + 1 && dfs(graph, j2, dist, match_left, match_right)
                    }
                };
                if advance {
                    match_right[p] = Some(j);
                    match_left[j] = Some(p);
                    return true;
                }
            }
            dist[j] = INF;
            false
        }
        for j in 0..nl {
            if match_left[j].is_none() {
                dfs(graph, j, dist, match_left, match_right);
            }
        }
    }

    match Matching::from_right_assignment(nl, match_right.clone()) {
        Ok(m) => m,
        Err(_) => unreachable!("Hopcroft-Karp produces a consistent matching"),
    }
}

/// Hopcroft–Karp as a per-slot scheduler: builds the slot's explicit
/// request graph and matches it from scratch. Valid for every conversion
/// kind and always maximum, but it allocates the graph every slot — the
/// baseline the paper's compact schedulers are measured against, and the
/// oracle they are certified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HopcroftKarp;

impl Matcher for HopcroftKarp {
    /// Paper: reference [1] baseline (Hopcroft–Karp, O(sqrt(V)*E)).
    #[allow_reach(
        hot_path,
        reason = "reference matcher builds the graph afresh by design; the zero-alloc pins cover the Auto/FirstAvailable/Approximate production policies"
    )]
    fn schedule_into(
        &self,
        conv: &Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
        scratch: &mut ScratchArena,
        out: &mut Vec<Assignment>,
    ) -> Result<Option<usize>, Error> {
        out.clear();
        let graph = RequestGraph::with_mask(*conv, requests, mask)?;
        let matching = hopcroft_karp_in(&graph, scratch);
        out.extend(matching.pairs().into_iter().map(|(j, p)| Assignment {
            input: graph.wavelength_of(j),
            output: graph.output_wavelength(p),
        }));
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::kuhn;
    use crate::conversion::Conversion;
    use crate::request::RequestVector;

    #[test]
    fn paper_example_size_six() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 6);
        m.validate(&g).unwrap();
    }

    #[test]
    fn agrees_with_kuhn_on_deterministic_battery() {
        let cases: Vec<(Conversion, Vec<usize>)> = vec![
            (Conversion::symmetric_circular(6, 3).unwrap(), vec![2, 1, 0, 1, 1, 2]),
            (Conversion::symmetric_circular(6, 3).unwrap(), vec![0, 2, 3, 0, 1, 0]),
            (Conversion::full(5).unwrap(), vec![3, 3, 3, 0, 0]),
            (Conversion::none(5).unwrap(), vec![2, 0, 2, 0, 2]),
            (Conversion::circular(8, 2, 1).unwrap(), vec![1, 0, 4, 0, 0, 2, 0, 1]),
            (Conversion::non_circular(8, 1, 2).unwrap(), vec![4, 0, 0, 1, 1, 0, 0, 4]),
            (Conversion::circular(7, 3, 3).unwrap(), vec![7, 0, 0, 0, 0, 0, 0]),
        ];
        for (conv, counts) in cases {
            let rv = RequestVector::from_counts(counts.clone()).unwrap();
            let g = RequestGraph::new(conv, &rv).unwrap();
            let hk = hopcroft_karp(&g);
            let oracle = kuhn(&g);
            hk.validate(&g).unwrap();
            assert_eq!(hk.size(), oracle.size(), "counts={counts:?}");
        }
    }

    #[test]
    fn full_conversion_grants_min_of_requests_and_channels() {
        let conv = Conversion::full(6).unwrap();
        for total in 0..=12usize {
            let mut counts = vec![0usize; 6];
            for i in 0..total {
                counts[i % 6] += 1;
            }
            let rv = RequestVector::from_counts(counts).unwrap();
            let g = RequestGraph::new(conv, &rv).unwrap();
            assert_eq!(hopcroft_karp(&g).size(), total.min(6));
        }
    }

    #[test]
    fn empty_sides() {
        let conv = Conversion::full(3).unwrap();
        let g = RequestGraph::new(conv, &RequestVector::new(3)).unwrap();
        assert_eq!(hopcroft_karp(&g).size(), 0);
    }
}
