//! Kuhn's augmenting-path algorithm — the verification oracle.
//!
//! A plain `O(V · E)` maximum bipartite matching via repeated augmenting-path
//! search. It is the simplest algorithm whose correctness is immediate from
//! König/Berge theory, so the test suite uses it (alongside
//! [`super::hopcroft_karp`]) as the ground truth the paper's fast schedulers
//! are checked against.

use crate::arena::ScratchArena;
use crate::graph::RequestGraph;
use crate::matching::Matching;

/// Finds a maximum matching in an arbitrary request graph by repeated
/// augmenting-path search from each left vertex.
///
/// Paper: maximum-matching oracle for Theorems 1–3 (§II formulation).
pub fn kuhn(graph: &RequestGraph) -> Matching {
    let mut scratch = ScratchArena::new();
    kuhn_in(graph, &mut scratch)
}

/// [`kuhn`] running its visited stamps and match array out of a
/// caller-provided arena. Like [`super::hopcroft_karp_in`], the returned
/// [`Matching`] still owns its arrays — Kuhn is an oracle, not part of the
/// certified zero-allocation hot path.
///
/// Paper: maximum-matching oracle for Theorems 1–3 (§II formulation).
pub fn kuhn_in(graph: &RequestGraph, scratch: &mut ScratchArena) -> Matching {
    let nl = graph.left_count();
    let nr = graph.right_count();
    let match_of_right = &mut scratch.match_right;
    match_of_right.clear();
    match_of_right.resize(nr, None);
    let visited = &mut scratch.visited;
    visited.clear();
    visited.resize(nr, usize::MAX);

    fn try_augment(
        graph: &RequestGraph,
        j: usize,
        stamp: usize,
        visited: &mut [usize],
        match_of_right: &mut [Option<usize>],
    ) -> bool {
        for &p in graph.adjacent(j) {
            if visited[p] == stamp {
                continue;
            }
            visited[p] = stamp;
            let advance = match match_of_right[p] {
                None => true,
                Some(j2) => try_augment(graph, j2, stamp, visited, match_of_right),
            };
            if advance {
                match_of_right[p] = Some(j);
                return true;
            }
        }
        false
    }

    for j in 0..nl {
        try_augment(graph, j, j, visited, match_of_right);
    }
    match Matching::from_right_assignment(nl, match_of_right.clone()) {
        Ok(m) => m,
        Err(_) => unreachable!("augmenting paths produce a consistent matching"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversion::Conversion;
    use crate::request::RequestVector;

    #[test]
    fn paper_example_size_six() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        let m = kuhn(&g);
        assert_eq!(m.size(), 6);
        m.validate(&g).unwrap();
        assert!(m.is_maximal(&g));
    }

    #[test]
    fn saturates_when_underloaded() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let rv = RequestVector::from_wavelengths(8, &[0, 2, 4, 6]).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        assert_eq!(kuhn(&g).size(), 4);
    }

    #[test]
    fn bounded_by_reachable_channels() {
        // Paper §I example: k=6, d=3; 2 requests on λ1, 3 on λ2, 1 on λ4.
        // λ1/λ2 requests can only reach {λ0..λ3} = 4 channels, so of the 6
        // requests only 5 can be granted.
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![0, 2, 3, 0, 1, 0]).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        assert_eq!(kuhn(&g).size(), 5);
    }

    #[test]
    fn no_conversion_matches_distinct_wavelengths() {
        let conv = Conversion::none(5).unwrap();
        let rv = RequestVector::from_counts(vec![3, 0, 1, 1, 0]).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        // Only one per distinct wavelength can be granted.
        assert_eq!(kuhn(&g).size(), 3);
    }

    #[test]
    fn empty_graph() {
        let conv = Conversion::full(3).unwrap();
        let g = RequestGraph::new(conv, &RequestVector::new(3)).unwrap();
        assert_eq!(kuhn(&g).size(), 0);
    }
}
