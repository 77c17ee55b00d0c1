//! The request graph (paper §II-B, Fig. 3).
//!
//! For one output fiber and one time slot, the *request graph* is a
//! bipartite graph: left-side vertices are the connection requests destined
//! for that fiber (ordered by wavelength index, ties arbitrary), right-side
//! vertices are the free output wavelength channels (ordered by wavelength
//! index). There is an edge `a b` iff the wavelength of request `a` can be
//! converted to output channel `b`. A wavelength assignment is a *matching*
//! in this graph, and maximizing per-slot throughput means finding a maximum
//! matching.
//!
//! [`RequestGraph`] is the explicit adjacency-list representation, used by
//! the general-purpose baselines (Hopcroft–Karp, Kuhn) and as the reference
//! against which the compact `O(k)`/`O(dk)` schedulers are verified. The
//! compact schedulers themselves never materialize it.

use crate::conversion::Conversion;
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

/// Explicit bipartite request graph for one output fiber.
#[derive(Debug, Clone)]
pub struct RequestGraph {
    conversion: Conversion,
    /// Wavelength of each left-side vertex (request), ascending.
    left_wavelengths: Vec<usize>,
    /// Wavelength of each right-side vertex (free output channel), ascending.
    outputs: Vec<usize>,
    /// For each left vertex, the adjacent right-side *positions*, ascending.
    adj: Vec<Vec<usize>>,
}

impl RequestGraph {
    /// Builds the request graph with all `k` output channels free.
    pub fn new(conversion: Conversion, requests: &RequestVector) -> Result<RequestGraph, Error> {
        Self::with_mask(conversion, requests, &ChannelMask::all_free(conversion.k()))
    }

    /// Builds the request graph with only the channels free in `mask` on the
    /// right side (paper §V).
    pub fn with_mask(
        conversion: Conversion,
        requests: &RequestVector,
        mask: &ChannelMask,
    ) -> Result<RequestGraph, Error> {
        conversion.check_k(requests.k())?;
        conversion.check_k(mask.k())?;
        let k = conversion.k();
        let left_wavelengths = requests.expand();
        let outputs = mask.free_channels();
        let adj = left_wavelengths
            .iter()
            .map(|&w| {
                let span = conversion.adjacency(w);
                outputs
                    .iter()
                    .enumerate()
                    .filter_map(|(p, &u)| span.contains(u, k).then_some(p))
                    .collect()
            })
            .collect();
        Ok(RequestGraph { conversion, left_wavelengths, outputs, adj })
    }

    /// The conversion scheme of the graph.
    pub fn conversion(&self) -> &Conversion {
        &self.conversion
    }

    /// Number of wavelengths per fiber.
    pub fn k(&self) -> usize {
        self.conversion.k()
    }

    /// Number of left-side vertices (requests).
    pub fn left_count(&self) -> usize {
        self.left_wavelengths.len()
    }

    /// Number of right-side vertices (free channels).
    pub fn right_count(&self) -> usize {
        self.outputs.len()
    }

    /// Wavelength of left vertex `j` — the paper's `W(j)`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn wavelength_of(&self, j: usize) -> usize {
        assert!(j < self.left_wavelengths.len(), "left vertex {j} out of range");
        self.left_wavelengths[j]
    }

    /// Wavelengths of all left vertices, ascending.
    pub fn left_wavelengths(&self) -> &[usize] {
        &self.left_wavelengths
    }

    /// Wavelength of the right vertex at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn output_wavelength(&self, p: usize) -> usize {
        assert!(p < self.outputs.len(), "right position {p} out of range");
        self.outputs[p]
    }

    /// Wavelengths of all right vertices (free channels), ascending.
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// Right-side positions adjacent to left vertex `j`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn adjacent(&self, j: usize) -> &[usize] {
        assert!(j < self.adj.len(), "left vertex {j} out of range");
        &self.adj[j]
    }

    /// Whether left vertex `j` and right position `p` are joined by an edge.
    pub fn is_edge(&self, j: usize, p: usize) -> bool {
        self.adj[j].binary_search(&p).is_ok()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// An upper bound on the maximum matching size:
    /// `min(left_count, right_count)`.
    pub fn matching_upper_bound(&self) -> usize {
        self.left_count().min(self.right_count())
    }

    /// For convex instances, the adjacency of `j` as an inclusive position
    /// interval `[begin, end]`, or `None` if `j` is isolated.
    ///
    /// Correct whenever the adjacency positions are contiguous — always true
    /// for non-circular conversion; for circular conversion a wrapping
    /// adjacency set is *not* contiguous and this must not be used.
    pub fn position_interval(&self, j: usize) -> Option<(usize, usize)> {
        let a = &self.adj[j];
        let (&first, &last) = (a.first()?, a.last()?);
        debug_assert_eq!(last - first + 1, a.len(), "adjacency of left {j} is not contiguous");
        Some((first, last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_requests() -> RequestVector {
        RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap()
    }

    /// Paper Fig. 3(a): circular conversion, request vector [2,1,0,1,1,2].
    #[test]
    fn figure_3a_circular_request_graph() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let g = RequestGraph::new(conv, &paper_requests()).unwrap();
        assert_eq!(g.left_count(), 7);
        assert_eq!(g.right_count(), 6);
        // W(0) = W(1) = 0, W(2) = 1 (paper's example for W).
        assert_eq!(g.wavelength_of(0), 0);
        assert_eq!(g.wavelength_of(1), 0);
        assert_eq!(g.wavelength_of(2), 1);
        // a0 (λ0) connects to b5, b0, b1 — the wrap edge a0–b5 exists.
        assert_eq!(g.adjacent(0), &[0, 1, 5]);
        // a6 (λ5) connects to b4, b5, b0 — the wrap edge a6–b0 exists.
        assert_eq!(g.adjacent(6), &[0, 4, 5]);
        // a3 (λ3) connects to b2, b3, b4.
        assert_eq!(g.adjacent(3), &[2, 3, 4]);
        assert_eq!(g.edge_count(), 7 * 3);
    }

    /// Paper Fig. 3(b): non-circular conversion, same request vector.
    #[test]
    fn figure_3b_non_circular_request_graph() {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        let g = RequestGraph::new(conv, &paper_requests()).unwrap();
        // a0, a1 (λ0) connect only to b0, b1 — no wrap to b5.
        assert_eq!(g.adjacent(0), &[0, 1]);
        assert_eq!(g.adjacent(1), &[0, 1]);
        // a2 (λ1): B(a2) = {b0, b1, b2} = interval [0, 2] (paper's example).
        assert_eq!(g.adjacent(2), &[0, 1, 2]);
        assert_eq!(g.position_interval(2), Some((0, 2)));
        // a5, a6 (λ5) connect only to b4, b5.
        assert_eq!(g.adjacent(6), &[4, 5]);
        assert_eq!(g.edge_count(), 2 + 2 + 3 + 3 + 3 + 2 + 2);
    }

    #[test]
    fn occupied_channels_removed(/* paper §V */) {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        let mask = ChannelMask::with_occupied(6, &[0, 3]).unwrap();
        let g = RequestGraph::with_mask(conv, &paper_requests(), &mask).unwrap();
        assert_eq!(g.right_count(), 4);
        assert_eq!(g.outputs(), &[1, 2, 4, 5]);
        // a0 (λ0) now reaches only b(λ1) at position 0.
        assert_eq!(g.adjacent(0), &[0]);
        // a4 (λ4) reaches λ3 (occupied), λ4, λ5 → positions of λ4, λ5.
        assert_eq!(g.adjacent(4), &[2, 3]);
    }

    #[test]
    fn mismatched_k_rejected() {
        let conv = Conversion::non_circular(6, 1, 1).unwrap();
        let rv = RequestVector::new(5);
        assert!(matches!(
            RequestGraph::new(conv, &rv),
            Err(Error::WavelengthCountMismatch { expected: 6, actual: 5 })
        ));
        let mask = ChannelMask::all_free(7);
        assert!(matches!(
            RequestGraph::with_mask(conv, &RequestVector::new(6), &mask),
            Err(Error::WavelengthCountMismatch { expected: 6, actual: 7 })
        ));
    }

    #[test]
    fn is_edge_consistency() {
        let conv = Conversion::symmetric_circular(8, 3).unwrap();
        let rv = RequestVector::from_wavelengths(8, &[0, 3, 7]).unwrap();
        let g = RequestGraph::new(conv, &rv).unwrap();
        for j in 0..g.left_count() {
            for p in 0..g.right_count() {
                assert_eq!(
                    g.is_edge(j, p),
                    conv.converts(g.wavelength_of(j), g.output_wavelength(p))
                );
            }
        }
    }

    #[test]
    fn empty_requests_graph() {
        let conv = Conversion::full(4).unwrap();
        let g = RequestGraph::new(conv, &RequestVector::new(4)).unwrap();
        assert_eq!(g.left_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.matching_upper_bound(), 0);
    }

    #[test]
    fn all_channels_occupied_graph() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_wavelengths(4, &[0, 1]).unwrap();
        let g = RequestGraph::with_mask(conv, &rv, &ChannelMask::all_occupied(4)).unwrap();
        assert_eq!(g.right_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
