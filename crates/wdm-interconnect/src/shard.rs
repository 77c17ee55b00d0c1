//! The per-output-fiber scheduling unit — the shard API.
//!
//! A [`FiberUnit`] bundles everything one output fiber needs to make its
//! per-slot decision: the [`FiberScheduler`] for the wavelength-level
//! matching, the [`GrantResolver`] for round-robin request arbitration, the
//! in-flight connection table, and the reused [`ScratchArena`] / request /
//! mask buffers that keep the steady-state slot loop allocation-free.
//!
//! A non-disturb slot makes one pass over the candidates and one over the
//! schedule's assignments. The resolver's index pass files each candidate
//! by input channel and counts it into the request vector; after
//! [`FiberScheduler::schedule_slot`], its pick pass turns each assignment
//! into a grant and latches it into the active table at once.
//!
//! Both consumers of the paper's distributed architecture run on this one
//! type: [`crate::Interconnect`] instantiates `N` units for the offline
//! engine, and the `wdm-serve` daemon wraps one unit per destination-fiber
//! shard. Sharing the code path is what makes a recorded daemon session
//! replayable bit-for-bit through the offline engine — there is no second
//! implementation to drift.

use wdm_attr::{allow_reach, hot_path};
use wdm_core::{
    ChannelMask, Conversion, Error, FiberScheduler, Policy, RequestVector, ScratchArena,
};

use crate::arbitration::GrantResolver;
use crate::connection::{ConnectionRequest, Grant};
use crate::interconnect::HoldPolicy;
use crate::rearrange::rearrange_fiber;

/// An in-flight connection held on one output fiber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveLink {
    /// Source input fiber.
    pub src_fiber: usize,
    /// Source wavelength.
    pub src_wavelength: usize,
    /// Output channel the connection occupies on this fiber.
    pub output_wavelength: usize,
    /// Slots left including the current one.
    pub remaining: u32,
}

impl ActiveLink {
    /// The connection a grant starts, held for the request's duration.
    fn latch(g: &Grant) -> ActiveLink {
        ActiveLink {
            src_fiber: g.request.src_fiber,
            src_wavelength: g.request.src_wavelength,
            output_wavelength: g.output_wavelength,
            remaining: g.request.duration,
        }
    }
}

/// Outcome of scheduling one fiber for one slot. The vectors are cleared
/// and refilled each slot — hold a reference only until the next
/// [`FiberUnit::schedule`] call.
#[derive(Debug, Clone, Default)]
pub struct FiberOutcome {
    grants: Vec<Grant>,
    contention: Vec<ConnectionRequest>,
    rearranged: usize,
}

impl FiberOutcome {
    /// Requests granted this slot, in resolver order.
    pub fn grants(&self) -> &[Grant] {
        &self.grants
    }

    /// Requests that lost the output contention this slot, in candidate
    /// order.
    pub fn contention(&self) -> &[ConnectionRequest] {
        &self.contention
    }

    /// In-flight connections moved to a different output channel this slot
    /// (always 0 under [`HoldPolicy::NonDisturb`]).
    pub fn rearranged(&self) -> usize {
        self.rearranged
    }
}

/// One output fiber's scheduling state: the paper's independent
/// per-destination scheduler, packaged so `N` of them can run with no
/// shared state (each unit owns its arena and buffers outright).
#[derive(Debug, Clone)]
pub struct FiberUnit {
    n: usize,
    conversion: Conversion,
    scheduler: FiberScheduler,
    resolver: GrantResolver,
    actives: Vec<ActiveLink>,
    arena: ScratchArena,
    requests: RequestVector,
    mask: ChannelMask,
    outcome: FiberOutcome,
    /// Whether the fiber is in a full outage (disruption timeline): a down
    /// fiber schedules nothing — every candidate loses output contention —
    /// and holds no in-flight connections (they were dropped at outage).
    down: bool,
}

impl FiberUnit {
    /// A unit for one output fiber of an `n`-fiber interconnect under the
    /// given conversion scheme and policy.
    /// Rejects a policy/conversion-kind mismatch up front (the same typed
    /// [`Error::UnsupportedConversion`] the algorithms raise at schedule
    /// time), so a misconfigured engine fails at construction rather than
    /// mid-slot.
    pub fn new(n: usize, conversion: Conversion, policy: Policy) -> Result<FiberUnit, Error> {
        if n == 0 {
            return Err(Error::ZeroFibers);
        }
        policy.check_conversion(&conversion)?;
        let k = conversion.k();
        Ok(FiberUnit {
            n,
            conversion,
            scheduler: FiberScheduler::new(conversion, policy),
            resolver: GrantResolver::new(n, k),
            actives: Vec::new(),
            arena: ScratchArena::for_k(k),
            requests: RequestVector::new(k),
            mask: ChannelMask::all_free(k),
            outcome: FiberOutcome::default(),
            down: false,
        })
    }

    /// Number of fibers per interconnect side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The conversion scheme.
    pub fn conversion(&self) -> &Conversion {
        &self.conversion
    }

    /// The scheduling policy.
    pub fn policy(&self) -> Policy {
        self.scheduler.policy()
    }

    /// The in-flight connections on this fiber.
    pub fn actives(&self) -> &[ActiveLink] {
        &self.actives
    }

    /// Cumulative warm-start counters of this fiber's scheduler: how many
    /// slots were repaired from the previous slot's matching, fell back to
    /// from-scratch dispatch, or ran cold.
    pub fn warm_stats(&self) -> wdm_core::WarmStats {
        self.scheduler.warm_stats()
    }

    /// Discards the scheduler's warm state and zeroes its counters; the next
    /// slot schedules from scratch. Useful for cold-start measurements and
    /// for comparing against stateless reference schedulers.
    pub fn reset_warm(&mut self) {
        self.scheduler.reset_warm();
    }

    /// Whether the fiber is currently in a full outage ([`Self::set_down`]).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Takes the fiber into or out of a full outage — the disruption
    /// timeline's outage/rejoin events. Going down drops every in-flight
    /// connection (an outage severs the light paths; nothing is silently
    /// kept) and discards warm state; coming back up starts the fiber cold
    /// and empty. Returns the number of connections dropped (always 0 on
    /// rejoin and on a no-op repeat).
    pub fn set_down(&mut self, down: bool) -> usize {
        if self.down == down {
            return 0;
        }
        self.down = down;
        self.scheduler.invalidate_warm();
        if down {
            let dropped = self.actives.len();
            self.actives.clear();
            dropped
        } else {
            0
        }
    }

    /// Swaps the conversion scheme mid-run — the converter-failure /
    /// recovery path of the disruption timeline. The wavelength count must
    /// be unchanged (converters fail, channels do not) and the new scheme's
    /// kind must still support the current policy. In-flight connections the
    /// shrunken range can no longer realise are dropped — never silently
    /// kept — and the count is returned; warm-start state is invalidated so
    /// the next slot repairs from scratch while cumulative warm counters
    /// survive the swap.
    pub fn set_conversion(&mut self, conversion: Conversion) -> Result<usize, Error> {
        self.policy().check_conversion(&conversion)?;
        self.scheduler.set_conversion(conversion)?;
        self.conversion = conversion;
        let before = self.actives.len();
        self.actives.retain(|a| conversion.converts(a.src_wavelength, a.output_wavelength));
        Ok(before - self.actives.len())
    }

    /// Swaps the scheduling policy mid-run — the degraded-mode fallback
    /// path. Rejects a policy the current conversion kind cannot support
    /// ([`Policy::check_conversion`], as [`Self::new`] does); on success
    /// warm-start state is invalidated while the cumulative counters
    /// survive.
    pub fn set_policy(&mut self, policy: Policy) -> Result<(), Error> {
        policy.check_conversion(&self.conversion)?;
        self.scheduler.set_policy(policy);
        Ok(())
    }

    /// The channel availability implied by the in-flight connections.
    pub fn occupied_mask(&self) -> ChannelMask {
        let mut mask = ChannelMask::all_free(self.conversion.k());
        for a in &self.actives {
            if mask.set_occupied(a.output_wavelength).is_err() {
                unreachable!("active channel is in range");
            }
        }
        mask
    }

    /// Ages in-flight connections by one slot at slot start; completed
    /// connections free their channels for this slot's scheduling. Returns
    /// how many completed.
    pub fn age(&mut self) -> usize {
        let before = self.actives.len();
        self.actives.retain_mut(|a| {
            a.remaining -= 1;
            a.remaining > 0
        });
        before - self.actives.len()
    }

    /// The outcome written by the last [`Self::schedule`] call.
    pub fn outcome(&self) -> &FiberOutcome {
        &self.outcome
    }

    /// Schedules this fiber for one slot: `candidates` are the already
    /// source-validated requests destined to this fiber, in arrival order.
    /// Granted connections are latched into the active table immediately.
    ///
    /// The outcome lands in reused buffers ([`Self::outcome`]); at steady
    /// state the non-disturb path performs zero heap allocations (pinned by
    /// the counting-allocator tests in `wdm-alloc-count`). In debug builds
    /// every schedule passes the full matching certificate inside
    /// [`FiberScheduler::schedule_slot`].
    ///
    /// # Panics
    ///
    /// Panics (via `unreachable!`) if a candidate was not validated against
    /// this unit's dimensions — callers must validate first.
    pub fn schedule(
        &mut self,
        hold: HoldPolicy,
        candidates: &[ConnectionRequest],
    ) -> &FiberOutcome {
        if self.down {
            // A downed output fiber grants nothing: every candidate loses
            // the output contention, without touching the scheduler.
            self.outcome.grants.clear();
            self.outcome.contention.clear();
            self.outcome.contention.extend_from_slice(candidates);
            self.outcome.rearranged = 0;
            return &self.outcome;
        }
        match hold {
            HoldPolicy::NonDisturb => self.schedule_non_disturb(candidates),
            HoldPolicy::Rearrange => {
                self.schedule_rearrange(candidates);
                self.actives.extend(self.outcome.grants.iter().map(ActiveLink::latch));
            }
        }
        &self.outcome
    }

    /// §V non-disturb: occupied channels leave the request graph; the
    /// wavelength-level matching runs over the free ones.
    #[hot_path]
    fn schedule_non_disturb(&mut self, candidates: &[ConnectionRequest]) {
        self.requests.clear();
        let requests = &mut self.requests;
        self.resolver.index_candidates(candidates, |c| {
            expect_validated(requests.add(c.src_wavelength), "validated request");
        });
        self.mask.reset_all_free();
        for a in &self.actives {
            expect_validated(
                self.mask.set_occupied(a.output_wavelength),
                "active channel in range",
            );
        }
        // `schedule_slot` reuses the unit's arena (no allocations at steady
        // state) and runs the full matching certificate behind a debug
        // assertion, so every per-fiber scheduling decision is verified
        // maximum in debug builds.
        let _stats = expect_validated(
            self.scheduler.schedule_slot(&self.requests, &self.mask, &mut self.arena),
            "validated dimensions",
        );
        let actives = &mut self.actives;
        self.resolver.pick_grants(
            self.arena.assignments(),
            candidates,
            &mut self.outcome.grants,
            &mut self.outcome.contention,
            |g| actives.push(ActiveLink::latch(g)),
        );
        self.outcome.rearranged = 0;
    }

    /// §V rearrangement: in-flight connections may move to another channel
    /// (never dropped); all `k` channels participate.
    #[allow_reach(
        hot_path,
        reason = "HoldPolicy::Rearrange is an explicit circuit-switched mode; rearrangement events are rare and benched separately from the packet-switch steady state"
    )]
    fn schedule_rearrange(&mut self, candidates: &[ConnectionRequest]) {
        let k = self.conversion.k();
        let active_w: Vec<usize> = self.actives.iter().map(|a| a.src_wavelength).collect();
        let new_w: Vec<usize> = candidates.iter().map(|c| c.src_wavelength).collect();
        let outcome = expect_validated(
            rearrange_fiber(&self.conversion, &active_w, &new_w, &ChannelMask::all_free(k)),
            "in-flight connections are always placeable",
        );
        // Debug-build certificate: every assigned channel is used once and
        // every placement respects the conversion range.
        debug_assert!(
            {
                let mut used = vec![false; k];
                let all =
                    outcome.active_channels.iter().zip(&active_w).map(|(&u, &w)| (w, u)).chain(
                        outcome
                            .request_channels
                            .iter()
                            .zip(&new_w)
                            .filter_map(|(u, &w)| u.map(|u| (w, u))),
                    );
                all.fold(true, |ok, (w, u)| {
                    let fresh = !std::mem::replace(&mut used[u], true);
                    ok && fresh && self.conversion.converts(w, u)
                })
            },
            "rearrangement produced an infeasible channel assignment"
        );
        let mut rearranged = 0usize;
        for (a, &u) in self.actives.iter_mut().zip(&outcome.active_channels) {
            if a.output_wavelength != u {
                a.output_wavelength = u;
                rearranged += 1;
            }
        }
        self.outcome.grants.clear();
        self.outcome.contention.clear();
        for (c, assigned) in candidates.iter().zip(&outcome.request_channels) {
            match assigned {
                Some(u) => {
                    self.outcome.grants.push(Grant { request: *c, output_wavelength: *u });
                }
                None => self.outcome.contention.push(*c),
            }
        }
        self.outcome.rearranged = rearranged;
    }
}

/// Unwraps a result whose error leg is precluded by admission-time
/// validation; the message names the invariant. Out-of-line so each
/// precluded panic rides on this one audited suppression instead of a
/// blanket one over the scheduling bodies.
#[allow_reach(
    panic_free,
    reason = "the error legs restate invariants established by admission-time validation of requests and dimensions; keeping them out-of-line preserves the panic_free obligation on the scheduling bodies themselves"
)]
fn expect_validated<T, E>(result: Result<T, E>, invariant: &'static str) -> T {
    match result {
        Ok(v) => v,
        Err(_) => unreachable!("{invariant}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> Conversion {
        Conversion::symmetric_circular(6, 3).unwrap()
    }

    #[test]
    fn grants_latch_into_actives() {
        let mut unit = FiberUnit::new(4, conv(), Policy::Auto).unwrap();
        let candidates =
            vec![ConnectionRequest::burst(0, 0, 0, 3), ConnectionRequest::packet(1, 2, 0)];
        let outcome = unit.schedule(HoldPolicy::NonDisturb, &candidates);
        assert_eq!(outcome.grants().len(), 2);
        assert_eq!(outcome.contention().len(), 0);
        assert_eq!(unit.actives().len(), 2);
        // Ageing completes the packet but not the burst.
        assert_eq!(unit.age(), 1);
        assert_eq!(unit.actives().len(), 1);
        assert_eq!(unit.actives()[0].remaining, 2);
    }

    #[test]
    fn occupied_mask_tracks_actives() {
        let mut unit = FiberUnit::new(2, conv(), Policy::Auto).unwrap();
        let _ = unit.schedule(HoldPolicy::NonDisturb, &[ConnectionRequest::burst(0, 2, 0, 5)]);
        let held = unit.actives()[0].output_wavelength;
        assert!(!unit.occupied_mask().is_free(held));
        assert_eq!(unit.occupied_mask().free_count(), 5);
    }

    #[test]
    fn contention_reported_in_candidate_order() {
        // 7 requests into 6 channels: exactly one loses.
        let mut unit = FiberUnit::new(4, conv(), Policy::Auto).unwrap();
        let candidates: Vec<ConnectionRequest> =
            [(0, 0), (1, 0), (2, 1), (3, 3), (0, 4), (1, 5), (2, 5)]
                .iter()
                .map(|&(fiber, w)| ConnectionRequest::packet(fiber, w, 0))
                .collect();
        let outcome = unit.schedule(HoldPolicy::NonDisturb, &candidates);
        assert_eq!(outcome.grants().len(), 6);
        assert_eq!(outcome.contention().len(), 1);
    }

    #[test]
    fn set_conversion_drops_infeasible_actives_and_keeps_counters() {
        let mut unit = FiberUnit::new(4, conv(), Policy::Auto).unwrap();
        // Two connections: one within degree-1 reach (w -> w), one that
        // needs the wider circular range.
        let _ = unit.schedule(
            HoldPolicy::NonDisturb,
            &[ConnectionRequest::burst(0, 2, 0, 10), ConnectionRequest::burst(1, 2, 0, 10)],
        );
        assert_eq!(unit.actives().len(), 2);
        let stats_before = unit.warm_stats();
        let shrunk = Conversion::symmetric_circular(6, 1).unwrap();
        // Both grants share source wavelength 2, so at most one sits on the
        // diagonal channel the degree-1 scheme can still realise.
        let expect_drop = unit
            .actives()
            .iter()
            .filter(|a| !shrunk.converts(a.src_wavelength, a.output_wavelength))
            .count();
        assert!(expect_drop >= 1);
        let dropped = unit.set_conversion(shrunk).unwrap();
        assert_eq!(dropped, expect_drop);
        assert_eq!(unit.actives().len(), 2 - expect_drop);
        assert!(unit
            .actives()
            .iter()
            .all(|a| shrunk.converts(a.src_wavelength, a.output_wavelength)));
        // Cumulative warm counters survive the swap (only warm state resets).
        assert_eq!(unit.warm_stats(), stats_before);
    }

    #[test]
    fn set_conversion_rejects_k_change_and_kind_mismatch() {
        let mut unit = FiberUnit::new(2, conv(), Policy::BreakFirstAvailable).unwrap();
        assert!(matches!(
            unit.set_conversion(Conversion::symmetric_circular(4, 1).unwrap()),
            Err(Error::WavelengthCountMismatch { .. })
        ));
        // BFA cannot run on a non-circular scheme: the swap must refuse and
        // leave the unit untouched.
        assert!(matches!(
            unit.set_conversion(Conversion::symmetric_non_circular(6, 1).unwrap()),
            Err(Error::UnsupportedConversion { .. })
        ));
        assert_eq!(unit.conversion().degree(), 3);
    }

    #[test]
    fn set_policy_checks_kind_and_swaps() {
        let mut unit = FiberUnit::new(2, conv(), Policy::BreakFirstAvailable).unwrap();
        assert!(matches!(
            unit.set_policy(Policy::FirstAvailable),
            Err(Error::UnsupportedConversion { .. })
        ));
        assert_eq!(unit.policy(), Policy::BreakFirstAvailable);
        unit.set_policy(Policy::Approximate).unwrap();
        assert_eq!(unit.policy(), Policy::Approximate);
    }

    #[test]
    fn down_fiber_rejects_all_and_drops_actives() {
        let mut unit = FiberUnit::new(4, conv(), Policy::Auto).unwrap();
        let _ = unit.schedule(HoldPolicy::NonDisturb, &[ConnectionRequest::burst(0, 0, 0, 9)]);
        assert_eq!(unit.actives().len(), 1);
        assert_eq!(unit.set_down(true), 1);
        assert!(unit.is_down());
        assert!(unit.actives().is_empty());
        // Repeat transitions are no-ops.
        assert_eq!(unit.set_down(true), 0);
        let outcome = unit.schedule(HoldPolicy::NonDisturb, &[ConnectionRequest::packet(1, 1, 0)]);
        assert!(outcome.grants().is_empty());
        assert_eq!(outcome.contention().len(), 1);
        assert_eq!(unit.set_down(false), 0);
        let outcome = unit.schedule(HoldPolicy::NonDisturb, &[ConnectionRequest::packet(1, 1, 0)]);
        assert_eq!(outcome.grants().len(), 1);
    }

    #[test]
    fn zero_fibers_rejected() {
        assert!(FiberUnit::new(0, conv(), Policy::Auto).is_err());
    }

    mod differential {
        use super::*;
        use crate::arbitration::reference;
        use proptest::prelude::*;

        /// The non-disturb pipeline as it ran before the fused passes: a
        /// request vector counted from the candidates, the sort-based
        /// oracle resolver, then a separate loop latching the grants.
        struct Before {
            scheduler: FiberScheduler,
            resolver: reference::GrantResolver,
            actives: Vec<ActiveLink>,
            arena: ScratchArena,
            requests: RequestVector,
            mask: ChannelMask,
            grants: Vec<Grant>,
            contention: Vec<ConnectionRequest>,
        }

        impl Before {
            fn new(n: usize, conversion: Conversion, policy: Policy) -> Before {
                let k = conversion.k();
                Before {
                    scheduler: FiberScheduler::new(conversion, policy),
                    resolver: reference::GrantResolver::new(n, k),
                    actives: Vec::new(),
                    arena: ScratchArena::for_k(k),
                    requests: RequestVector::new(k),
                    mask: ChannelMask::all_free(k),
                    grants: Vec::new(),
                    contention: Vec::new(),
                }
            }

            fn schedule(&mut self, candidates: &[ConnectionRequest]) {
                self.requests.clear();
                for c in candidates {
                    self.requests.add(c.src_wavelength).unwrap();
                }
                self.mask.reset_all_free();
                for a in &self.actives {
                    self.mask.set_occupied(a.output_wavelength).unwrap();
                }
                let _stats = self
                    .scheduler
                    .schedule_slot(&self.requests, &self.mask, &mut self.arena)
                    .unwrap();
                self.resolver.resolve_into(
                    self.arena.assignments(),
                    candidates,
                    &mut self.grants,
                    &mut self.contention,
                );
                for g in &self.grants {
                    self.actives.push(ActiveLink {
                        src_fiber: g.request.src_fiber,
                        src_wavelength: g.request.src_wavelength,
                        output_wavelength: g.output_wavelength,
                        remaining: g.request.duration,
                    });
                }
            }

            fn age(&mut self) {
                self.actives.retain_mut(|a| {
                    a.remaining -= 1;
                    a.remaining > 0
                });
            }
        }

        /// Draws below `bound` from a xorshift64* state.
        fn draw(state: &mut u64, bound: usize) -> usize {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as usize % bound
        }

        /// Up to `max` candidates on `n` fibers and `k` wavelengths, holding
        /// 1–4 slots: a quarter repeat an earlier candidate's input channel
        /// and one in sixteen of the others come from a fiber in `n..2n`.
        fn candidates(state: &mut u64, n: usize, k: usize, max: usize) -> Vec<ConnectionRequest> {
            let len = draw(state, max + 1);
            let mut out: Vec<ConnectionRequest> = Vec::with_capacity(len);
            for _ in 0..len {
                let (fiber, w) = match out.len() {
                    m if m > 0 && draw(state, 4) == 0 => {
                        let c = out[draw(state, m)];
                        (c.src_fiber, c.src_wavelength)
                    }
                    _ if draw(state, 16) == 0 => (n + draw(state, n), draw(state, k)),
                    _ => (draw(state, n), draw(state, k)),
                };
                let hold = 1 + u32::try_from(draw(state, 4)).unwrap();
                out.push(ConnectionRequest::burst(fiber, w, 0, hold));
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

            /// Over multi-slot sequences — holds occupying channels across
            /// slots, a ReservedFirst-style small call before each slot's
            /// main call, empty calls, repeated input channels and fibers
            /// `≥ n` — the fused index → `schedule_slot` → pick-and-latch
            /// path matches the pre-change pipeline after every call: the
            /// same grants, contention order, active table and pointers.
            #[test]
            fn fused_passes_match_the_separate_pipeline(
                (n, k, reach, policy, seed, slots) in (
                    0usize..6,
                    1usize..=9,
                    0usize..4,
                    0usize..3,
                    0u64..u64::MAX,
                    1usize..10,
                )
                    .prop_map(|(i, k, reach, policy, seed, slots)| {
                        ([1, 2, 8, 64, 65, 130][i], k, reach, policy, seed, slots)
                    })
            ) {
                let e = reach.min((k - 1) / 2);
                let f = reach.min(k - 1 - e);
                let (conversion, policy) = match policy {
                    0 => (Conversion::circular(k, e, f).unwrap(), Policy::BreakFirstAvailable),
                    1 => (Conversion::non_circular(k, e, f).unwrap(), Policy::FirstAvailable),
                    _ => (Conversion::circular(k, e, f).unwrap(), Policy::Auto),
                };
                let mut unit = FiberUnit::new(n, conversion, policy).unwrap();
                let mut before = Before::new(n, conversion, policy);
                let mut state = seed | 1;
                for slot in 0..slots {
                    unit.age();
                    before.age();
                    let first = candidates(&mut state, n, k, 3);
                    let main = candidates(&mut state, n, k, 2 * k + 4);
                    for (call, batch) in [(0, &first), (1, &main)] {
                        let outcome = unit.schedule(HoldPolicy::NonDisturb, batch);
                        before.schedule(batch);
                        prop_assert_eq!(outcome.grants(), &before.grants[..], "slot {} call {}", slot, call);
                        prop_assert_eq!(
                            outcome.contention(),
                            &before.contention[..],
                            "slot {} call {}",
                            slot,
                            call
                        );
                        prop_assert_eq!(unit.actives(), &before.actives[..], "slot {} call {}", slot, call);
                        for w in 0..k {
                            prop_assert_eq!(
                                unit.resolver.pointer(w),
                                before.resolver.pointer(w),
                                "slot {} call {} λ{}",
                                slot,
                                call,
                                w
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn policy_kind_mismatch_rejected_at_construction() {
        let circular = Conversion::symmetric_circular(6, 3).unwrap();
        let non_circular = Conversion::symmetric_non_circular(6, 1).unwrap();
        let full = Conversion::full(6).unwrap();
        assert!(matches!(
            FiberUnit::new(2, circular, Policy::FirstAvailable),
            Err(Error::UnsupportedConversion { .. })
        ));
        assert!(matches!(
            FiberUnit::new(2, non_circular, Policy::BreakFirstAvailable),
            Err(Error::UnsupportedConversion { .. })
        ));
        assert!(matches!(
            FiberUnit::new(2, non_circular, Policy::Approximate),
            Err(Error::UnsupportedConversion { .. })
        ));
        // Full range counts as circular for BFA/approx; every policy-less
        // pairing still constructs.
        assert!(FiberUnit::new(2, full, Policy::BreakFirstAvailable).is_ok());
        assert!(FiberUnit::new(2, full, Policy::Approximate).is_ok());
        assert!(FiberUnit::new(2, non_circular, Policy::FirstAvailable).is_ok());
        assert!(FiberUnit::new(2, circular, Policy::Auto).is_ok());
        assert!(FiberUnit::new(2, non_circular, Policy::HopcroftKarp).is_ok());
    }
}
