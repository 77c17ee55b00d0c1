//! Resolving wavelength-level schedules to concrete requests.
//!
//! The matching algorithms decide *how many* requests per input wavelength
//! are granted on each output fiber and which output channels they get —
//! requests on the same wavelength are interchangeable for throughput. This
//! module picks *which* requests win, with per-(output fiber, wavelength)
//! round-robin pointers over the source fibers for long-run fairness
//! (paper §III, following iSLIP [7][8]).

use wdm_core::algorithms::Assignment;

use crate::connection::{ConnectionRequest, Grant};

/// Round-robin resolver for one output fiber.
///
/// The bucket/cursor scratch lives in the resolver so steady-state
/// resolution allocates nothing — this runs once per fiber per slot.
#[derive(Debug, Clone)]
pub struct GrantResolver {
    n: usize,
    /// One rotating pointer per input wavelength.
    pointers: Vec<usize>,
    /// Per-wavelength candidate buckets, reused across slots.
    buckets: Vec<Vec<usize>>,
    /// Next unserved entry of each bucket, reused across slots.
    next_in_bucket: Vec<usize>,
    /// Which candidates were granted, reused across slots.
    taken: Vec<bool>,
}

impl GrantResolver {
    /// A resolver over `n` source fibers and `k` wavelengths, pointers at
    /// fiber 0.
    pub fn new(n: usize, k: usize) -> GrantResolver {
        GrantResolver {
            n,
            pointers: vec![0; k],
            buckets: vec![Vec::new(); k],
            next_in_bucket: vec![0; k],
            taken: Vec::new(),
        }
    }

    /// The current pointer for `wavelength`.
    pub fn pointer(&self, wavelength: usize) -> usize {
        self.pointers[wavelength]
    }

    /// Resolves the wavelength-level `assignments` for this output fiber to
    /// concrete requests drawn from `candidates` (all destined to this
    /// fiber). Returns the grants and the indices of `candidates` left
    /// ungranted.
    ///
    /// Candidates are matched to assignments of their wavelength in
    /// round-robin order by source fiber, starting at the wavelength's
    /// pointer.
    pub fn resolve(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
    ) -> (Vec<Grant>, Vec<usize>) {
        let mut grants = Vec::with_capacity(assignments.len());
        let mut contention = Vec::new();
        self.resolve_into(assignments, candidates, &mut grants, &mut contention);
        let leftovers = (0..candidates.len()).filter(|&i| !self.taken[i]).collect();
        (grants, leftovers)
    }

    /// [`Self::resolve`] writing into caller-provided buffers: `grants` and
    /// `contention` are cleared and refilled (`contention` receives the
    /// ungranted candidates themselves, in candidate order). Allocation-free
    /// at steady state — this is the per-slot production path.
    ///
    /// Panics if a candidate's `src_wavelength` is not below `k`; a
    /// `src_fiber` of `n` or more is ranked by its offset from the pointer
    /// mod `n`.
    pub fn resolve_into(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
        grants: &mut Vec<Grant>,
        contention: &mut Vec<ConnectionRequest>,
    ) {
        grants.clear();
        contention.clear();
        if candidates.is_empty() {
            // Nothing to grant, so skip the `O(k)` bucket sweep: the
            // ReservedFirst pass makes such a call on every fiber without a
            // due hold.
            debug_assert!(assignments.is_empty(), "schedule granted requests that do not exist");
            return;
        }
        // Bucket candidates by wavelength once and sort each bucket in
        // round-robin order from the wavelength's current pointer. Because
        // the pointer always advances to (winner + 1), successive grants on
        // one wavelength take successive bucket entries, so serving each
        // bucket front-to-back reproduces the per-grant
        // min-(fiber − pointer) rule in O(C log C + A) instead of O(A·C).
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for (i, c) in candidates.iter().enumerate() {
            self.buckets[c.src_wavelength].push(i);
        }
        for (w, bucket) in self.buckets.iter_mut().enumerate() {
            let ptr = self.pointers[w];
            bucket.sort_by_key(|&i| (candidates[i].src_fiber + self.n - ptr) % self.n);
        }
        self.next_in_bucket.fill(0);
        self.taken.clear();
        self.taken.resize(candidates.len(), false);
        for a in assignments {
            let cursor = &mut self.next_in_bucket[a.input];
            let Some(&idx) = self.buckets[a.input].get(*cursor) else {
                debug_assert!(false, "schedule granted more than requested on λ{}", a.input);
                continue;
            };
            *cursor += 1;
            self.taken[idx] = true;
            self.pointers[a.input] = (candidates[idx].src_fiber + 1) % self.n;
            grants.push(Grant { request: candidates[idx], output_wavelength: a.output });
        }
        contention.extend(
            candidates.iter().enumerate().filter(|&(i, _)| !self.taken[i]).map(|(_, c)| *c),
        );
    }
}

/// The resolver as it was before calls without candidates returned early,
/// kept verbatim as the test oracle: [`GrantResolver`] must produce the
/// same grants, contention order and pointers over any sequence of calls.
#[cfg(test)]
mod reference {
    use super::*;

    /// Round-robin resolver for one output fiber.
    ///
    /// The bucket/cursor scratch lives in the resolver so steady-state
    /// resolution allocates nothing — this runs once per fiber per slot.
    #[derive(Debug, Clone)]
    pub struct GrantResolver {
        n: usize,
        /// One rotating pointer per input wavelength.
        pointers: Vec<usize>,
        /// Per-wavelength candidate buckets, reused across slots.
        buckets: Vec<Vec<usize>>,
        /// Next unserved entry of each bucket, reused across slots.
        next_in_bucket: Vec<usize>,
        /// Which candidates were granted, reused across slots.
        taken: Vec<bool>,
    }

    impl GrantResolver {
        /// A resolver over `n` source fibers and `k` wavelengths, pointers at
        /// fiber 0.
        pub fn new(n: usize, k: usize) -> GrantResolver {
            GrantResolver {
                n,
                pointers: vec![0; k],
                buckets: vec![Vec::new(); k],
                next_in_bucket: vec![0; k],
                taken: Vec::new(),
            }
        }

        /// The current pointer for `wavelength`.
        pub fn pointer(&self, wavelength: usize) -> usize {
            self.pointers[wavelength]
        }

        /// Resolves the wavelength-level `assignments` for this output fiber to
        /// concrete requests drawn from `candidates` (all destined to this
        /// fiber). Returns the grants and the indices of `candidates` left
        /// ungranted.
        ///
        /// Candidates are matched to assignments of their wavelength in
        /// round-robin order by source fiber, starting at the wavelength's
        /// pointer.
        pub fn resolve(
            &mut self,
            assignments: &[Assignment],
            candidates: &[ConnectionRequest],
        ) -> (Vec<Grant>, Vec<usize>) {
            let mut grants = Vec::with_capacity(assignments.len());
            let mut contention = Vec::new();
            self.resolve_into(assignments, candidates, &mut grants, &mut contention);
            let leftovers = (0..candidates.len()).filter(|&i| !self.taken[i]).collect();
            (grants, leftovers)
        }

        /// [`Self::resolve`] writing into caller-provided buffers: `grants` and
        /// `contention` are cleared and refilled (`contention` receives the
        /// ungranted candidates themselves, in candidate order). Allocation-free
        /// at steady state — this is the per-slot production path.
        pub fn resolve_into(
            &mut self,
            assignments: &[Assignment],
            candidates: &[ConnectionRequest],
            grants: &mut Vec<Grant>,
            contention: &mut Vec<ConnectionRequest>,
        ) {
            grants.clear();
            contention.clear();
            // Bucket candidates by wavelength once and sort each bucket in
            // round-robin order from the wavelength's current pointer. Because
            // the pointer always advances to (winner + 1), successive grants on
            // one wavelength take successive bucket entries, so serving each
            // bucket front-to-back reproduces the per-grant
            // min-(fiber − pointer) rule in O(C log C + A) instead of O(A·C).
            for bucket in &mut self.buckets {
                bucket.clear();
            }
            for (i, c) in candidates.iter().enumerate() {
                self.buckets[c.src_wavelength].push(i);
            }
            for (w, bucket) in self.buckets.iter_mut().enumerate() {
                let ptr = self.pointers[w];
                bucket.sort_by_key(|&i| (candidates[i].src_fiber + self.n - ptr) % self.n);
            }
            self.next_in_bucket.fill(0);
            self.taken.clear();
            self.taken.resize(candidates.len(), false);
            for a in assignments {
                let cursor = &mut self.next_in_bucket[a.input];
                let Some(&idx) = self.buckets[a.input].get(*cursor) else {
                    debug_assert!(false, "schedule granted more than requested on λ{}", a.input);
                    continue;
                };
                *cursor += 1;
                self.taken[idx] = true;
                self.pointers[a.input] = (candidates[idx].src_fiber + 1) % self.n;
                grants.push(Grant { request: candidates[idx], output_wavelength: a.output });
            }
            contention.extend(
                candidates.iter().enumerate().filter(|&(i, _)| !self.taken[i]).map(|(_, c)| *c),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(input: usize, output: usize) -> Assignment {
        Assignment { input, output }
    }

    #[test]
    fn resolves_matching_wavelengths() {
        let mut r = GrantResolver::new(4, 4);
        let candidates = vec![
            ConnectionRequest::packet(2, 1, 0),
            ConnectionRequest::packet(0, 1, 0),
            ConnectionRequest::packet(1, 3, 0),
        ];
        let (grants, leftovers) = r.resolve(&[asg(1, 0), asg(3, 3)], &candidates);
        assert_eq!(grants.len(), 2);
        // Pointer at 0: fiber 0 wins λ1.
        assert_eq!(grants[0].request.src_fiber, 0);
        assert_eq!(grants[0].output_wavelength, 0);
        assert_eq!(grants[1].request.src_fiber, 1);
        assert_eq!(leftovers, vec![0], "fiber 2's λ1 request lost");
    }

    #[test]
    fn round_robin_across_calls() {
        let mut r = GrantResolver::new(3, 1);
        let candidates = vec![
            ConnectionRequest::packet(0, 0, 0),
            ConnectionRequest::packet(1, 0, 0),
            ConnectionRequest::packet(2, 0, 0),
        ];
        // One grant per slot, persistent contention: winners rotate.
        let mut winners = Vec::new();
        for _ in 0..6 {
            let (grants, _) = r.resolve(&[asg(0, 0)], &candidates);
            winners.push(grants[0].request.src_fiber);
        }
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn two_grants_same_wavelength_take_distinct_fibers() {
        let mut r = GrantResolver::new(3, 1);
        let candidates = vec![
            ConnectionRequest::packet(0, 0, 0),
            ConnectionRequest::packet(1, 0, 0),
            ConnectionRequest::packet(2, 0, 0),
        ];
        let (grants, leftovers) = r.resolve(&[asg(0, 0), asg(0, 1)], &candidates);
        let fibers: Vec<usize> = grants.iter().map(|g| g.request.src_fiber).collect();
        assert_eq!(fibers, vec![0, 1]);
        assert_eq!(leftovers, vec![2]);
    }

    #[test]
    fn empty_assignments_leave_all_candidates() {
        let mut r = GrantResolver::new(2, 2);
        let candidates = vec![ConnectionRequest::packet(0, 0, 0)];
        let (grants, leftovers) = r.resolve(&[], &candidates);
        assert!(grants.is_empty());
        assert_eq!(leftovers, vec![0]);
    }

    /// Draws below `bound` from a xorshift64* state.
    fn draw(state: &mut u64, bound: usize) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % bound
    }

    /// One call built from `seed`: up to 47 candidates on `n` fibers and
    /// `k` wavelengths — a quarter repeating an earlier input channel, one
    /// in sixteen of the others on a source fiber in `n..2n`, each tagged
    /// by its index so duplicates stay distinguishable — and
    /// per wavelength no grant, every candidate (the wavelength is
    /// exhausted) or a random share of them, the assignments shuffled
    /// across wavelengths. One call in eight has no candidates, and one in
    /// eight grants nothing.
    fn call(n: usize, k: usize, seed: u64) -> (Vec<ConnectionRequest>, Vec<Assignment>) {
        let mut state = seed | 1;
        let len = if draw(&mut state, 8) == 0 { 0 } else { draw(&mut state, 48) };
        let mut candidates: Vec<ConnectionRequest> = Vec::with_capacity(len);
        for tag in 0..len {
            let (fiber, w) = match candidates.len() {
                0 => (draw(&mut state, n), draw(&mut state, k)),
                m if draw(&mut state, 4) == 0 => {
                    let c = candidates[draw(&mut state, m)];
                    (c.src_fiber, c.src_wavelength)
                }
                _ if draw(&mut state, 16) == 0 => (n + draw(&mut state, n), draw(&mut state, k)),
                _ => (draw(&mut state, n), draw(&mut state, k)),
            };
            candidates.push(ConnectionRequest::burst(fiber, w, 0, u32::try_from(tag).unwrap()));
        }
        let mut assignments = Vec::new();
        if draw(&mut state, 8) != 0 {
            for w in 0..k {
                let on_w = candidates.iter().filter(|c| c.src_wavelength == w).count();
                let grants = match draw(&mut state, 3) {
                    0 => 0,
                    1 => on_w,
                    _ => draw(&mut state, on_w + 1),
                };
                assignments.extend((0..grants).map(|_| asg(w, draw(&mut state, k))));
            }
            for i in (1..assignments.len()).rev() {
                assignments.swap(i, draw(&mut state, i + 1));
            }
        }
        (candidates, assignments)
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

            /// Over consecutive calls on one resolver pair, the resolver
            /// matches the oracle: the same grants in
            /// the same order, the same contention list, and every
            /// wavelength's pointer after every call. `resolve` and
            /// `resolve_into` alternate, so the leftover indices are
            /// compared too.
            #[test]
            fn resolver_matches_the_oracle(
                (n, k, seeds) in (0usize..6, 1usize..=6, proptest::collection::vec(0u64..u64::MAX, 1..12))
                    .prop_map(|(i, k, seeds)| ([1, 2, 8, 64, 65, 130][i], k, seeds))
            ) {
                let mut fast = GrantResolver::new(n, k);
                let mut slow = reference::GrantResolver::new(n, k);
                let (mut grants, mut contention) = (Vec::new(), Vec::new());
                let (mut want_grants, mut want_contention) = (Vec::new(), Vec::new());
                for (i, &seed) in seeds.iter().enumerate() {
                    let (candidates, assignments) = call(n, k, seed);
                    if i % 2 == 0 {
                        fast.resolve_into(&assignments, &candidates, &mut grants, &mut contention);
                        slow.resolve_into(
                            &assignments, &candidates, &mut want_grants, &mut want_contention,
                        );
                        prop_assert_eq!(&contention, &want_contention, "call {}", i);
                    } else {
                        let got = fast.resolve(&assignments, &candidates);
                        let want = slow.resolve(&assignments, &candidates);
                        prop_assert_eq!(&got.1, &want.1, "call {}", i);
                        (grants, want_grants) = (got.0, want.0);
                    }
                    prop_assert_eq!(&grants, &want_grants, "call {}", i);
                    for w in 0..k {
                        prop_assert_eq!(fast.pointer(w), slow.pointer(w), "call {} λ{}", i, w);
                    }
                }
            }
        }
    }
}
