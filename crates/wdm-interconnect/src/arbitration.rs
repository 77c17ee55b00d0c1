//! Resolving wavelength-level schedules to concrete requests.
//!
//! The matching algorithms decide *how many* requests per input wavelength
//! are granted on each output fiber and which output channels they get —
//! requests on the same wavelength are interchangeable for throughput. This
//! module picks *which* requests win, with per-(output fiber, wavelength)
//! round-robin pointers over the source fibers for long-run fairness
//! (paper §III, following iSLIP [7][8]).
//!
//! A call runs in two passes. The index pass files each candidate under its
//! input channel: per wavelength a row of source-fiber bits (one `u64`
//! while `n ≤ 64`, `⌈n/64⌉` words beyond) and an `n·k` table from
//! (wavelength, fiber) to the candidate. The pick pass serves the
//! assignments: a grant on wavelength `w` takes the lowest fiber at or
//! after `w`'s pointer, wrapping around, and the ungranted candidates are
//! the zero bits of a granted-candidate bitset, walked in candidate order.

use wdm_core::algorithms::Assignment;

use crate::connection::{ConnectionRequest, Grant};

/// Round-robin resolver for one output fiber.
///
/// The rows, the index table and the pointers are sized at construction;
/// the granted bitset and the general loop's chain links grow to the
/// largest call seen and are reused, so steady-state resolution allocates
/// nothing — this runs once per fiber per slot.
#[derive(Debug, Clone)]
pub struct GrantResolver {
    n: usize,
    /// Words per row: `⌈n/64⌉`.
    words: usize,
    /// One rotating pointer per input wavelength.
    pointers: Vec<usize>,
    /// Per wavelength, the source fibers with a candidate not yet granted
    /// this call, `words` words each.
    rows: Vec<u64>,
    /// `(wavelength, fiber)` → the candidate on that input channel; on the
    /// general loop, the last candidate of its chain. Read only where the
    /// wavelength's row has the fiber's bit.
    index: Vec<u32>,
    /// General loop: each chain is circular, so a chain's last candidate
    /// links to its first and the chain stays in candidate order.
    next: Vec<u32>,
    /// General loop: the pointers as they stood at the start of the call.
    start: Vec<usize>,
    /// Which candidates this call granted, one bit each.
    granted: Vec<u64>,
    /// Whether this call needs the general loop.
    general: bool,
}

impl GrantResolver {
    /// A resolver over `n` source fibers and `k` wavelengths, pointers at
    /// fiber 0.
    pub fn new(n: usize, k: usize) -> GrantResolver {
        let words = n.div_ceil(64).max(1);
        GrantResolver {
            n,
            words,
            pointers: vec![0; k],
            rows: vec![0; k * words],
            index: vec![0; n * k],
            next: Vec::new(),
            start: vec![0; k],
            granted: Vec::new(),
            general: false,
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
        let leftovers = (0..candidates.len()).filter(|&i| !bit(&self.granted, i)).collect();
        (grants, leftovers)
    }

    /// [`Self::resolve`] writing into caller-provided buffers: `grants` and
    /// `contention` are cleared and refilled (`contention` receives the
    /// ungranted candidates themselves, in candidate order). Allocation-free
    /// at steady state — this is the per-slot production path.
    ///
    /// Panics if a candidate's `src_wavelength` is not below `k`, or if
    /// there are more than `u32::MAX` candidates; a `src_fiber` of `n` or
    /// more is ranked by its offset from the pointer mod `n`.
    pub fn resolve_into(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
        grants: &mut Vec<Grant>,
        contention: &mut Vec<ConnectionRequest>,
    ) {
        self.index_candidates(candidates, |_| {});
        self.pick_grants(assignments, candidates, grants, contention, |_| {});
    }

    /// The index pass: files `candidates` by input channel for
    /// [`Self::pick_grants`], handing each to `each` in order. A repeated
    /// input channel, a source fiber `≥ n` or rows wider than one word send
    /// the call to the general loop, whose chains this pass then builds.
    pub(crate) fn index_candidates(
        &mut self,
        candidates: &[ConnectionRequest],
        mut each: impl FnMut(&ConnectionRequest),
    ) {
        assert!(u32::try_from(candidates.len()).is_ok(), "candidate indices fit the u32 index");
        self.granted.clear();
        self.granted.resize(candidates.len().div_ceil(64), 0);
        if candidates.is_empty() {
            // The ReservedFirst pass makes such a call on every fiber
            // without a due hold: leave the `k` rows alone.
            return;
        }
        self.rows.fill(0);
        let n = self.n;
        let mut general = self.words > 1;
        if general {
            candidates.iter().for_each(&mut each);
        } else {
            for (i, c) in (0u32..).zip(candidates) {
                each(c);
                let (w, f) = (c.src_wavelength, c.src_fiber);
                if f >= n {
                    general = true;
                    continue;
                }
                let row = &mut self.rows[w];
                general |= *row >> f & 1 != 0;
                *row |= 1 << f;
                self.index[w * n + f] = i;
            }
        }
        self.general = general;
        if general {
            self.chain(candidates);
        }
    }

    /// Builds the general loop's rows and chains: each candidate is filed
    /// under `(wavelength, fiber mod n)`, each chain in candidate order.
    fn chain(&mut self, candidates: &[ConnectionRequest]) {
        debug_assert!(self.general, "only the general loop reads chains");
        let (n, words) = (self.n, self.words);
        self.rows.fill(0);
        self.next.clear();
        self.next.resize(candidates.len(), 0);
        self.start.copy_from_slice(&self.pointers);
        for (i, c) in (0u32..).zip(candidates) {
            let (w, f) = (c.src_wavelength, c.src_fiber % n);
            let word = &mut self.rows[w * words + f / 64];
            let slot = w * n + f;
            if *word >> (f % 64) & 1 == 0 {
                *word |= 1 << (f % 64);
                self.next[i as usize] = i;
            } else {
                let last = self.index[slot] as usize;
                self.next[i as usize] = self.next[last];
                self.next[last] = i;
            }
            self.index[slot] = i;
        }
    }

    /// The pick pass: grants the `assignments` from the candidates the
    /// index pass filed, pushing each grant into `grants` and handing it to
    /// `each`, then fills `contention` with the ungranted candidates in
    /// candidate order. Both buffers are cleared first.
    pub(crate) fn pick_grants(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
        grants: &mut Vec<Grant>,
        contention: &mut Vec<ConnectionRequest>,
        mut each: impl FnMut(&Grant),
    ) {
        grants.clear();
        contention.clear();
        if candidates.is_empty() {
            debug_assert!(assignments.is_empty(), "schedule granted requests that do not exist");
            return;
        }
        let mut grant = |request: ConnectionRequest, output_wavelength: usize| {
            let grant = Grant { request, output_wavelength };
            each(&grant);
            grants.push(grant);
        };
        if self.general {
            self.pick_general(assignments, candidates, &mut grant);
        } else {
            self.pick_word(assignments, candidates, &mut grant);
        }
        for (base, &word) in (0..).step_by(64).zip(&self.granted) {
            let mut left = !word;
            while left != 0 {
                let Some(&c) = candidates.get(base + left.trailing_zeros() as usize) else {
                    break;
                };
                contention.push(c);
                left &= left - 1;
            }
        }
    }

    /// The lean loop: one-word rows, at most one candidate per input
    /// channel, every fiber below `n`. Clearing a granted fiber's bit keeps
    /// the search from the moved pointer equal to the oracle's search from
    /// the pointer as it stood at the start of the call.
    fn pick_word(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
        grant: &mut impl FnMut(ConnectionRequest, usize),
    ) {
        debug_assert!(self.words == 1 && !self.general, "the general loop serves this call");
        let n = self.n;
        for a in assignments {
            let w = a.input;
            let row = &mut self.rows[w];
            if *row == 0 {
                debug_assert!(false, "schedule granted more than requested on λ{w}");
                continue;
            }
            let ahead = *row & (u64::MAX << self.pointers[w]);
            let f = (if ahead != 0 { ahead } else { *row }).trailing_zeros() as usize;
            *row &= !(1 << f);
            self.pointers[w] = if f + 1 < n { f + 1 } else { 0 };
            let i = self.index[w * n + f] as usize;
            self.granted[i / 64] |= 1 << (i % 64);
            grant(candidates[i], a.output);
        }
    }

    /// The general loop: multi-word rows and per-(wavelength, fiber) chains,
    /// searched from the pointer as it stood at the start of the call — a
    /// repeated input channel is served again before the search moves on.
    fn pick_general(
        &mut self,
        assignments: &[Assignment],
        candidates: &[ConnectionRequest],
        grant: &mut impl FnMut(ConnectionRequest, usize),
    ) {
        debug_assert!(self.general, "the lean loop serves this call");
        let (n, words) = (self.n, self.words);
        for a in assignments {
            let w = a.input;
            let row = &mut self.rows[w * words..(w + 1) * words];
            let Some(f) = first_at_or_after(row, self.start[w]) else {
                debug_assert!(false, "schedule granted more than requested on λ{w}");
                continue;
            };
            let last = self.index[w * n + f] as usize;
            let first = self.next[last] as usize;
            if first == last {
                row[f / 64] &= !(1 << (f % 64));
            } else {
                self.next[last] = self.next[first];
            }
            self.granted[first / 64] |= 1 << (first % 64);
            let request = candidates[first];
            self.pointers[w] = (request.src_fiber + 1) % n;
            grant(request, a.output);
        }
    }
}

/// Whether bit `i` of `bits` is set.
fn bit(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|&word| word >> (i % 64) & 1 != 0)
}

/// The lowest set bit of `row` at or after bit `p`, wrapping around.
fn first_at_or_after(row: &[u64], p: usize) -> Option<usize> {
    let (pw, pb) = (p / 64, p % 64);
    let ahead = row.get(pw).map_or(0, |&word| word & (u64::MAX << pb));
    if ahead != 0 {
        return Some(pw * 64 + ahead.trailing_zeros() as usize);
    }
    let later = row.iter().enumerate().skip(pw + 1);
    later
        .chain(row.iter().enumerate().take(pw + 1))
        .find(|&(_, &word)| word != 0)
        .map(|(j, &word)| j * 64 + word.trailing_zeros() as usize)
}

/// The sort-based resolver as it was before calls without candidates
/// returned early, kept verbatim as the test oracle: [`GrantResolver`] must
/// produce the same grants, contention order and pointers over any
/// sequence of calls.
#[cfg(test)]
pub(crate) mod reference {
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
