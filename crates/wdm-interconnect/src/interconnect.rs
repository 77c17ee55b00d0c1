//! The top-level slotted `N×N` interconnect.
//!
//! Per time slot: in-flight multi-slot connections age (completed ones free
//! their channels), source admission lets each input channel launch at most
//! one connection and records which request or due reservation claimed it,
//! the admitted requests are partitioned by destination fiber, the `N`
//! independent per-fiber schedulers run one after another,
//! wavelength-level grants are resolved to concrete requests with
//! round-robin fairness, each verdict is filed under its channel's claim,
//! and the resulting fabric configuration is checked against the physical
//! datapath model.

use wdm_attr::hot_path;
use wdm_core::{ChannelMask, Conversion, Error, Policy};

use crate::connection::{ConnectionRequest, RejectReason, Rejection, SlotResult};
use crate::fabric::CrossbarState;
use crate::reservation::{
    PreemptionPolicy, Reservation, ReservationExpiry, ReservationGrant, ReservationRequest,
    ReservationStore, DEFAULT_RESERVATION_HORIZON,
};
use crate::shard::{FiberOutcome, FiberUnit};

/// What happens to in-flight multi-slot connections at scheduling time
/// (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum HoldPolicy {
    /// In-flight connections keep their channel; occupied channels are
    /// removed from the request graph (optical burst switching).
    #[default]
    NonDisturb,
    /// In-flight connections may be reassigned to another output channel,
    /// but are never dropped; all `k` channels participate in scheduling.
    Rearrange,
}

/// Configuration of an [`Interconnect`].
#[derive(Debug, Clone, Copy)]
pub struct InterconnectConfig {
    /// Number of input = output fibers (`N`).
    pub n: usize,
    /// The wavelength conversion scheme (defines `k` and `d`).
    pub conversion: Conversion,
    /// Wavelength-level scheduling policy (used under
    /// [`HoldPolicy::NonDisturb`]; rearrangement uses augmenting paths).
    pub policy: Policy,
    /// Multi-slot holding policy.
    pub hold: HoldPolicy,
    /// How activating advance reservations meet the slot's cell traffic.
    pub preemption: PreemptionPolicy,
    /// Admission horizon for advance reservations (slots ahead of `now`
    /// the [`ReservationStore`] will book).
    pub reservation_horizon: u64,
}

impl InterconnectConfig {
    /// A synchronous optical packet switch: Auto policy, non-disturb holds,
    /// [`PreemptionPolicy::ReservedFirst`].
    pub fn packet_switch(n: usize, conversion: Conversion) -> InterconnectConfig {
        InterconnectConfig {
            n,
            conversion,
            policy: Policy::Auto,
            hold: HoldPolicy::NonDisturb,
            preemption: PreemptionPolicy::ReservedFirst,
            reservation_horizon: DEFAULT_RESERVATION_HORIZON,
        }
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the holding policy.
    pub fn with_hold(mut self, hold: HoldPolicy) -> Self {
        self.hold = hold;
        self
    }

    /// Sets the reservation preemption policy.
    pub fn with_preemption(mut self, preemption: PreemptionPolicy) -> Self {
        self.preemption = preemption;
        self
    }

    /// Sets the reservation admission horizon.
    pub fn with_reservation_horizon(mut self, horizon: u64) -> Self {
        self.reservation_horizon = horizon;
        self
    }
}

/// What applying a disruption event did to live interconnect state. Carried
/// back to the caller so dropped work is reported, never silently absorbed.
#[must_use = "disruptions drop live connections and reservations; report the impact"]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisruptionImpact {
    /// In-flight connections dropped because the event made them
    /// unrealisable (outage) or unreachable (converter failure).
    pub dropped_connections: usize,
    /// Pending advance reservations cancelled because their destination
    /// fiber went dark before activation.
    pub cancelled_reservations: usize,
}

/// The slotted `N×N` wavelength-convertible interconnect.
///
/// Each output fiber is a [`FiberUnit`] — the same shard type the
/// `wdm-serve` daemon runs — owning its arena and reusable buffers, so the
/// per-slot scheduling loop allocates nothing at steady state. A unit's
/// decisions depend only on its own requests and occupancy, so the slot
/// loop schedules the units one after another; the paper's hardware runs
/// them side by side.
#[derive(Debug, Clone)]
pub struct Interconnect {
    n: usize,
    conversion: Conversion,
    hold: HoldPolicy,
    fibers: Vec<FiberUnit>,
    slot: u64,
    preemption: PreemptionPolicy,
    /// The advance-reservation capacity ledger (paper §V).
    store: ReservationStore,
    /// Per-slot scratch: who claimed each input channel (`src_fiber · k +
    /// src_wavelength`) at source admission. Reused across slots.
    claims: Vec<Claim>,
    /// Per-slot scratch: requests partitioned by destination fiber.
    per_fiber: Vec<Vec<ConnectionRequest>>,
    /// Per-slot scratch: reservations whose start slot has arrived.
    due: Vec<Reservation>,
    /// Per-slot scratch: activating reservations partitioned by
    /// destination fiber (used under [`PreemptionPolicy::ReservedFirst`]).
    resv_per_fiber: Vec<Vec<ConnectionRequest>>,
}

impl Interconnect {
    /// Builds an interconnect from its configuration.
    pub fn new(config: InterconnectConfig) -> Result<Interconnect, Error> {
        if config.n == 0 {
            return Err(Error::ZeroFibers);
        }
        let k = config.conversion.k();
        let fibers = (0..config.n)
            .map(|_| FiberUnit::new(config.n, config.conversion, config.policy))
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(Interconnect {
            n: config.n,
            conversion: config.conversion,
            hold: config.hold,
            fibers,
            slot: 0,
            preemption: config.preemption,
            store: ReservationStore::new(config.n, k, config.reservation_horizon),
            claims: vec![Claim::Free; config.n * k],
            per_fiber: vec![Vec::new(); config.n],
            due: Vec::new(),
            resv_per_fiber: vec![Vec::new(); config.n],
        })
    }

    /// Number of fibers per side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of wavelengths per fiber.
    pub fn k(&self) -> usize {
        self.conversion.k()
    }

    /// The conversion scheme.
    pub fn conversion(&self) -> &Conversion {
        &self.conversion
    }

    /// The scheduling policy in force: the configured one until
    /// [`Self::set_policy_all`] swaps every fiber's at once.
    pub fn policy(&self) -> Policy {
        self.fibers.first().map_or(Policy::Auto, FiberUnit::policy)
    }

    /// The current slot number (slots completed so far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Number of in-flight connections.
    pub fn active_connections(&self) -> usize {
        self.fibers.iter().map(|f| f.actives().len()).sum()
    }

    /// Cumulative warm-start counters summed over every fiber's scheduler:
    /// how many per-fiber slots were repaired from the previous slot's
    /// matching, fell back to from-scratch dispatch, or ran cold.
    pub fn warm_stats(&self) -> wdm_core::WarmStats {
        let mut total = wdm_core::WarmStats::default();
        for f in &self.fibers {
            let stats = f.warm_stats();
            total.repaired += stats.repaired;
            total.fallback += stats.fallback;
            total.cold += stats.cold;
        }
        total
    }

    /// Discards every fiber scheduler's warm state and zeroes the counters;
    /// the next slot schedules every fiber from scratch.
    pub fn reset_warm(&mut self) {
        for f in &mut self.fibers {
            f.reset_warm();
        }
    }

    /// The conversion scheme currently in force on output fiber `fiber`
    /// (the baseline from [`Self::conversion`] unless a converter-failure
    /// disruption shrank it).
    pub fn fiber_conversion(&self, fiber: usize) -> Result<&Conversion, Error> {
        match self.fibers.get(fiber) {
            Some(f) => Ok(f.conversion()),
            None => Err(Error::InvalidFiber { fiber, n: self.n }),
        }
    }

    /// Whether output fiber `fiber` is currently in a full outage.
    pub fn is_fiber_down(&self, fiber: usize) -> Result<bool, Error> {
        match self.fibers.get(fiber) {
            Some(f) => Ok(f.is_down()),
            None => Err(Error::InvalidFiber { fiber, n: self.n }),
        }
    }

    /// Applies a converter-failure event: output fiber `fiber` runs under
    /// the (typically narrower) `conversion` scheme from the next scheduled
    /// slot on. The wavelength count must match the baseline and the scheme
    /// must support the fiber's current policy. In-flight connections the
    /// new range cannot realise are dropped and counted in the returned
    /// impact — never silently kept; the fiber's warm-start state is
    /// invalidated so the next slot repairs from scratch. Pending
    /// reservations stay booked: they reserve channel *capacity*, which is
    /// unchanged, and conversion reachability is (by the admission
    /// contract) decided at activation time.
    pub fn shrink_conversion(
        &mut self,
        fiber: usize,
        conversion: Conversion,
    ) -> Result<DisruptionImpact, Error> {
        let Some(unit) = self.fibers.get_mut(fiber) else {
            return Err(Error::InvalidFiber { fiber, n: self.n });
        };
        let dropped = unit.set_conversion(conversion)?;
        Ok(DisruptionImpact { dropped_connections: dropped, cancelled_reservations: 0 })
    }

    /// Applies a converter-recovery event: output fiber `fiber` returns to
    /// the baseline conversion scheme. Warm-start state is invalidated (the
    /// previous matching was computed under the narrow range); nothing is
    /// dropped — the baseline range is checked to be a superset in debug
    /// builds and re-verified per active link regardless.
    pub fn restore_conversion(&mut self, fiber: usize) -> Result<DisruptionImpact, Error> {
        let baseline = self.conversion;
        let Some(unit) = self.fibers.get_mut(fiber) else {
            return Err(Error::InvalidFiber { fiber, n: self.n });
        };
        let dropped = unit.set_conversion(baseline)?;
        debug_assert_eq!(dropped, 0, "restoring the baseline conversion drops nothing");
        Ok(DisruptionImpact { dropped_connections: dropped, cancelled_reservations: 0 })
    }

    /// Applies a full fiber-outage event: output fiber `fiber` goes dark.
    /// Every in-flight connection on it is severed, every pending
    /// reservation destined to it is cancelled (its booked capacity no
    /// longer exists — keeping it would be a silent lie the activation-time
    /// check could not catch under [`PreemptionPolicy::ReservedFirst`]),
    /// and until [`Self::rejoin_fiber`] every request destined there loses
    /// output contention. New reservations toward a down fiber are denied
    /// at admission.
    pub fn fail_fiber(&mut self, fiber: usize) -> Result<DisruptionImpact, Error> {
        let Some(unit) = self.fibers.get_mut(fiber) else {
            return Err(Error::InvalidFiber { fiber, n: self.n });
        };
        let dropped = unit.set_down(true);
        let cancelled = self.store.cancel_dst_fiber(fiber);
        Ok(DisruptionImpact { dropped_connections: dropped, cancelled_reservations: cancelled })
    }

    /// Reverses [`Self::fail_fiber`]: the fiber rejoins cold and empty from
    /// the next scheduled slot on. Returns an all-zero impact (rejoin drops
    /// nothing) so call sites treat both edges of the outage uniformly.
    pub fn rejoin_fiber(&mut self, fiber: usize) -> Result<DisruptionImpact, Error> {
        let Some(unit) = self.fibers.get_mut(fiber) else {
            return Err(Error::InvalidFiber { fiber, n: self.n });
        };
        let dropped = unit.set_down(false);
        debug_assert_eq!(dropped, 0, "rejoining drops nothing");
        Ok(DisruptionImpact { dropped_connections: dropped, cancelled_reservations: 0 })
    }

    /// Swaps the scheduling policy on every fiber — the degraded-mode
    /// fallback path (e.g. BFA → the O(k) approximation under overload,
    /// and back on recovery). All-or-nothing: the swap is validated against
    /// every fiber's *current* conversion kind first and applied only if
    /// every fiber accepts it. Warm-start state is invalidated on every
    /// fiber; cumulative warm counters survive.
    pub fn set_policy_all(&mut self, policy: Policy) -> Result<(), Error> {
        for f in &self.fibers {
            policy.check_conversion(f.conversion())?;
        }
        for f in &mut self.fibers {
            match f.set_policy(policy) {
                Ok(()) => {}
                Err(_) => unreachable!("policy pre-validated against every fiber"),
            }
        }
        Ok(())
    }

    /// The advance-reservation ledger (pending reservations, horizon).
    pub fn reservations(&self) -> &ReservationStore {
        &self.store
    }

    /// The reservation preemption policy in force.
    pub fn preemption(&self) -> PreemptionPolicy {
        self.preemption
    }

    /// Admits an advance reservation against future slot capacity (paper
    /// §V), returning its id, or a typed denial
    /// ([`Error::ReservationInPast`], [`Error::ReservationHorizonExceeded`],
    /// [`Error::ReservationCapacityExhausted`], field validation).
    ///
    /// The reservation activates automatically at its start slot during
    /// [`Self::advance_slot_into`]; its outcome is reported in
    /// [`SlotResult::reservation_grants`] /
    /// [`SlotResult::reservation_expired`].
    pub fn reserve(&mut self, request: ReservationRequest) -> Result<u64, Error> {
        self.store.try_reserve(self.slot, request, &self.fibers)
    }

    /// [`Self::reserve`] through the store's certificate twin
    /// ([`ReservationStore::try_reserve_checked`]): the whole ledger is
    /// re-verified after admission.
    pub fn reserve_checked(&mut self, request: ReservationRequest) -> Result<u64, Error> {
        self.store.try_reserve_checked(self.slot, request, &self.fibers)
    }

    /// Cancels a pending reservation. Returns whether `id` was pending.
    pub fn cancel_reservation(&mut self, id: u64) -> bool {
        self.store.cancel(id)
    }

    /// The channel availability of output fiber `fiber`.
    ///
    /// # Panics
    ///
    /// Panics if `fiber >= n`.
    pub fn occupied_mask(&self, fiber: usize) -> ChannelMask {
        self.fibers[fiber].occupied_mask()
    }

    /// The current switching-fabric configuration.
    pub fn crossbar(&self) -> CrossbarState {
        let mut xb = CrossbarState::new(self.n, self.k());
        for (o, fiber) in self.fibers.iter().enumerate() {
            for a in fiber.actives() {
                if xb.connect(a.src_fiber, a.src_wavelength, o, a.output_wavelength).is_err() {
                    unreachable!("active connections are mutually consistent");
                }
            }
        }
        xb
    }

    /// Advances one time slot: ages in-flight connections, schedules the new
    /// `requests`, and returns everything that happened.
    pub fn advance_slot(&mut self, requests: &[ConnectionRequest]) -> Result<SlotResult, Error> {
        let mut out = SlotResult::default();
        self.advance_slot_into(requests, &mut out)?;
        Ok(out)
    }

    /// [`Self::advance_slot`] writing into a caller-provided result whose
    /// vectors are cleared and refilled. At steady state (buffers grown to
    /// their working sizes) a packet-switch slot performs zero heap
    /// allocations end to end — this is the per-slot production path the
    /// simulation engine drives.
    #[hot_path]
    pub fn advance_slot_into(
        &mut self,
        requests: &[ConnectionRequest],
        out: &mut SlotResult,
    ) -> Result<(), Error> {
        let k = self.k();
        for r in requests {
            r.validate(self.n, k)?;
        }
        out.grants.clear();
        out.grant_inputs.clear();
        out.rejections.clear();
        out.rejection_inputs.clear();
        out.rearranged = 0;
        out.reservation_grants.clear();
        out.reservation_expired.clear();

        // 1. Age in-flight connections; completed ones free their channels
        //    for this slot's scheduling.
        out.completed = self.fibers.iter_mut().map(FiberUnit::age).sum();

        // 2. Source admission: an input channel launches at most one
        //    connection per slot. A channel still carrying an earlier
        //    connection launches nothing new; otherwise its first claim
        //    wins, and activating reservations claim ahead of the slot's
        //    cell traffic — they were admitted in advance. The claim table
        //    records each winner, and step 4 files every verdict by it.
        self.claims.fill(Claim::Free);
        for fiber in &self.fibers {
            for a in fiber.actives() {
                self.claims[a.src_fiber * k + a.src_wavelength] = Claim::Held;
            }
        }
        for bucket in &mut self.per_fiber {
            bucket.clear();
        }
        for bucket in &mut self.resv_per_fiber {
            bucket.clear();
        }
        self.due.clear();
        self.store.drain_due(self.slot, &mut self.due);
        for (j, r) in self.due.iter().enumerate() {
            let request = r.request.connection();
            let claim = &mut self.claims[request.src_fiber * k + request.src_wavelength];
            if *claim != Claim::Free {
                // Timeout expiry: the booked input channel is still held
                // by an earlier connection that outlived its booking gap.
                out.reservation_expired.push(ReservationExpiry {
                    reservation: r.id,
                    rejection: Rejection { request, reason: RejectReason::SourceBusy },
                });
            } else {
                *claim = Claim::Due(j);
                match self.preemption {
                    PreemptionPolicy::ReservedFirst => {
                        self.resv_per_fiber[request.dst_fiber].push(request);
                    }
                    PreemptionPolicy::Compete => self.per_fiber[request.dst_fiber].push(request),
                }
            }
        }
        for (i, &r) in requests.iter().enumerate() {
            let claim = &mut self.claims[r.src_fiber * k + r.src_wavelength];
            if *claim != Claim::Free {
                out.rejections.push(Rejection { request: r, reason: RejectReason::SourceBusy });
                out.rejection_inputs.push(i);
            } else {
                *claim = Claim::Request(i);
                self.per_fiber[r.dst_fiber].push(r);
            }
        }

        // 3. The N independent per-fiber schedulers (the paper's
        //    distributed step), fiber by fiber. Each unit's outcome lands
        //    in its own reused buffers, and granted connections latch into
        //    the unit's active table in place.
        //    Under ReservedFirst, activating reservations run in a
        //    dedicated first pass, so cell traffic only sees the leftover
        //    channels; the extra pass is skipped entirely on slots with no
        //    due reservation. A workload that books reservations steadily
        //    runs it on most slots: `engine_heavy` books two per slot.
        // 4. After each pass, file the per-fiber outcomes in fiber order.
        //    Under Compete the cell pass also holds the due reservations.
        let hold = self.hold;
        let any_due = !self.due.is_empty();
        if any_due && self.preemption == PreemptionPolicy::ReservedFirst {
            for (fiber, candidates) in self.fibers.iter_mut().zip(&self.resv_per_fiber) {
                let _ = fiber.schedule(hold, candidates);
            }
            for fiber in &self.fibers {
                self.file_outcome(fiber.outcome(), true, out);
            }
        }
        for (fiber, candidates) in self.fibers.iter_mut().zip(&self.per_fiber) {
            let _ = fiber.schedule(hold, candidates);
        }
        let routed = any_due && self.preemption == PreemptionPolicy::Compete;
        for fiber in &self.fibers {
            self.file_outcome(fiber.outcome(), routed, out);
        }

        debug_assert!(
            self.crossbar().validate(&self.conversion).is_ok(),
            "scheduling produced a physically impossible fabric state"
        );
        debug_assert_eq!(
            out.reservations_due(),
            self.due.len(),
            "every due reservation is granted or expired, exactly once"
        );
        debug_assert_eq!(
            out.grant_inputs.len() + out.rejection_inputs.len(),
            requests.len(),
            "every request is granted or rejected, exactly once"
        );
        self.slot += 1;
        Ok(())
    }

    /// Files one fiber's outcome into `out` by the claim on each verdict's
    /// input channel: a due reservation's verdict joins the reservation lists,
    /// a request's joins the cell lists with the request's position. A pass
    /// that cannot hold a due reservation (`routed` false) answers requests
    /// only, so its verdicts are copied in bulk and their positions gathered.
    #[wdm_attr::allow_reach(
        panic_free,
        reason = "a fiber schedules only candidates that won their input channel at source admission, so every verdict's channel carries a Due or Request claim, and a pass that cannot hold a due reservation holds Request claims only"
    )]
    fn file_outcome(&self, outcome: &FiberOutcome, routed: bool, out: &mut SlotResult) {
        let k = self.k();
        let claim = |r: &ConnectionRequest| self.claims[r.src_fiber * k + r.src_wavelength];
        out.rearranged += outcome.rearranged();
        if !routed {
            let position = |r: &ConnectionRequest| match claim(r) {
                Claim::Request(i) => i,
                Claim::Free | Claim::Held | Claim::Due(_) => {
                    unreachable!("a cell pass holds cells")
                }
            };
            out.grants.extend_from_slice(outcome.grants());
            out.grant_inputs.extend(outcome.grants().iter().map(|g| position(&g.request)));
            out.rejections.extend(
                outcome
                    .contention()
                    .iter()
                    .map(|&request| Rejection { request, reason: RejectReason::OutputContention }),
            );
            out.rejection_inputs.extend(outcome.contention().iter().map(position));
            return;
        }
        for g in outcome.grants() {
            match claim(&g.request) {
                Claim::Request(i) => {
                    out.grants.push(*g);
                    out.grant_inputs.push(i);
                }
                Claim::Due(j) => {
                    out.reservation_grants
                        .push(ReservationGrant { reservation: self.due[j].id, grant: *g });
                }
                Claim::Free | Claim::Held => {
                    unreachable!("a granted candidate claimed its channel")
                }
            }
        }
        for &request in outcome.contention() {
            let rejection = Rejection { request, reason: RejectReason::OutputContention };
            match claim(&request) {
                Claim::Request(i) => {
                    out.rejections.push(rejection);
                    out.rejection_inputs.push(i);
                }
                Claim::Due(j) => {
                    out.reservation_expired
                        .push(ReservationExpiry { reservation: self.due[j].id, rejection });
                }
                Claim::Free | Claim::Held => unreachable!("a losing candidate claimed its channel"),
            }
        }
    }
}

/// Who launches on an input channel this slot, as source admission decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// Nothing launches on the channel.
    Free,
    /// An in-flight connection still carries the channel.
    Held,
    /// The due reservation at this index of the slot's due list.
    Due(usize),
    /// The request at this position of the slot's requests.
    Request(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> Conversion {
        Conversion::symmetric_circular(6, 3).unwrap()
    }

    #[test]
    fn single_slot_packet_switching() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(4, conv())).unwrap();
        // The paper's request vector toward fiber 0, from distinct inputs.
        let requests = vec![
            ConnectionRequest::packet(0, 0, 0),
            ConnectionRequest::packet(1, 0, 0),
            ConnectionRequest::packet(2, 1, 0),
            ConnectionRequest::packet(3, 3, 0),
            ConnectionRequest::packet(0, 4, 0),
            ConnectionRequest::packet(1, 5, 0),
            ConnectionRequest::packet(2, 5, 0),
        ];
        let result = ic.advance_slot(&requests).unwrap();
        assert_eq!(result.grants.len(), 6);
        assert_eq!(result.contention_losses(), 1);
        assert_eq!(ic.active_connections(), 6);
        // Packets complete after one slot.
        let result = ic.advance_slot(&[]).unwrap();
        assert_eq!(result.completed, 6);
        assert_eq!(ic.active_connections(), 0);
    }

    #[test]
    fn independent_fibers_do_not_interfere() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(3, conv())).unwrap();
        // Saturate fiber 0 and send one packet to fiber 1: the fiber-1
        // packet must be granted regardless.
        let mut requests: Vec<ConnectionRequest> =
            (0..6).map(|w| ConnectionRequest::packet(w % 3, w, 0)).collect();
        requests.push(ConnectionRequest::packet(0, 2, 1));
        let result = ic.advance_slot(&requests).unwrap();
        assert!(result.grants.iter().any(|g| g.request.dst_fiber == 1));
    }

    #[test]
    fn multi_slot_connections_occupy_channels() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let burst = ConnectionRequest::burst(0, 2, 0, 3);
        let r = ic.advance_slot(&[burst]).unwrap();
        assert_eq!(r.grants.len(), 1);
        let held = r.grants[0].output_wavelength;
        // For 2 more slots the channel stays occupied.
        for _ in 0..2 {
            let r = ic.advance_slot(&[]).unwrap();
            assert_eq!(r.completed, 0);
            assert!(!ic.occupied_mask(0).is_free(held));
        }
        let r = ic.advance_slot(&[]).unwrap();
        assert_eq!(r.completed, 1);
        assert!(ic.occupied_mask(0).is_free(held));
    }

    #[test]
    fn source_busy_rejection() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let burst = ConnectionRequest::burst(0, 2, 0, 5);
        let _ = ic.advance_slot(&[burst]).unwrap();
        // Same input channel tries again while the burst is in flight.
        let r = ic.advance_slot(&[ConnectionRequest::packet(0, 2, 1)]).unwrap();
        assert_eq!(r.source_busy_losses(), 1);
        assert!(r.grants.is_empty());
        // A different wavelength on the same fiber is fine.
        let r = ic.advance_slot(&[ConnectionRequest::packet(0, 3, 1)]).unwrap();
        assert_eq!(r.grants.len(), 1);
    }

    #[test]
    fn duplicate_input_channel_in_one_slot() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let r = ic
            .advance_slot(&[ConnectionRequest::packet(0, 2, 0), ConnectionRequest::packet(0, 2, 1)])
            .unwrap();
        assert_eq!(r.grants.len(), 1);
        assert_eq!(r.source_busy_losses(), 1);
        // The first request won the channel; each verdict names its own.
        assert_eq!(r.grant_inputs, [0]);
        assert_eq!(r.rejection_inputs, [1]);
    }

    #[test]
    fn rearrange_admits_more_than_non_disturb() {
        // k = 3, d = 2 (e = 0, f = 1). Park a burst on λ0 assigned to
        // channel 1 by loading channel 0 first, then see whether a λ1
        // request survives.
        let conv = Conversion::circular(3, 0, 1).unwrap();
        let setup = |hold: HoldPolicy| {
            let cfg = InterconnectConfig::packet_switch(2, conv).with_hold(hold);
            let mut ic = Interconnect::new(cfg).unwrap();
            // Slot 1: two bursts on λ0 (distinct inputs) → they take
            // channels 0 and 1; plus a burst on λ2 → channel 2.
            let r = ic
                .advance_slot(&[
                    ConnectionRequest::burst(0, 0, 0, 4),
                    ConnectionRequest::burst(1, 0, 0, 4),
                    ConnectionRequest::burst(0, 2, 0, 2),
                ])
                .unwrap();
            assert_eq!(r.grants.len(), 3);
            // Slot 2: the λ2 burst still holds (duration 2). Channels 0, 1,
            // 2 all busy → nothing to do; slot 3: λ2's burst completes,
            // freeing one channel (2 or 0). A new λ1 request (needs 1 or 2)
            // arrives.
            let _ = ic.advance_slot(&[]).unwrap();
            let r = ic.advance_slot(&[ConnectionRequest::packet(1, 1, 0)]).unwrap();
            r.grants.len()
        };
        let non_disturb = setup(HoldPolicy::NonDisturb);
        let rearrange = setup(HoldPolicy::Rearrange);
        assert!(rearrange >= non_disturb);
        assert_eq!(rearrange, 1, "rearrangement can always place the λ1 packet");
    }

    #[test]
    fn invalid_requests_rejected_up_front() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        assert!(ic.advance_slot(&[ConnectionRequest::packet(2, 0, 0)]).is_err());
        assert!(ic.advance_slot(&[ConnectionRequest::packet(0, 6, 0)]).is_err());
        assert!(ic.advance_slot(&[ConnectionRequest::burst(0, 0, 0, 0)]).is_err());
        assert_eq!(ic.slot(), 0, "failed slots do not advance time");
    }

    #[test]
    fn zero_fibers_rejected() {
        assert!(matches!(
            Interconnect::new(InterconnectConfig::packet_switch(0, conv())),
            Err(Error::ZeroFibers)
        ));
    }

    fn resv(sf: usize, sw: usize, df: usize, start: u64, dur: u32) -> ReservationRequest {
        ReservationRequest {
            src_fiber: sf,
            src_wavelength: sw,
            dst_fiber: df,
            start_slot: start,
            duration: dur,
        }
    }

    #[test]
    fn reservation_activates_at_start_slot_and_holds() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let id = ic.reserve_checked(resv(0, 2, 1, 2, 3)).unwrap();
        // Slots 0 and 1: nothing happens yet.
        for _ in 0..2 {
            let r = ic.advance_slot(&[]).unwrap();
            assert!(r.reservation_grants.is_empty() && r.reservation_expired.is_empty());
        }
        assert_eq!(ic.reservations().len(), 1);
        // Slot 2: activation.
        let r = ic.advance_slot(&[]).unwrap();
        assert_eq!(r.reservation_grants.len(), 1);
        assert_eq!(r.reservation_grants[0].reservation, id);
        assert!(r.grants.is_empty(), "reservation grants are reported separately");
        assert_eq!(ic.active_connections(), 1);
        assert!(ic.reservations().is_empty());
        // The hold lives out its 3-slot duration.
        let held = r.reservation_grants[0].grant.output_wavelength;
        for _ in 0..2 {
            let r = ic.advance_slot(&[]).unwrap();
            assert_eq!(r.completed, 0);
            assert!(!ic.occupied_mask(1).is_free(held));
        }
        let r = ic.advance_slot(&[]).unwrap();
        assert_eq!(r.completed, 1);
        assert_eq!(ic.active_connections(), 0);
    }

    #[test]
    fn cancelled_reservation_never_activates() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let id = ic.reserve(resv(0, 2, 1, 1, 2)).unwrap();
        assert!(ic.cancel_reservation(id));
        assert!(!ic.cancel_reservation(id));
        for _ in 0..3 {
            let r = ic.advance_slot(&[]).unwrap();
            assert_eq!(r.reservations_due(), 0);
        }
        assert_eq!(ic.active_connections(), 0);
    }

    #[test]
    fn reserved_first_preempts_cells() {
        // k = 3, full conversion on a tiny fabric: three cells saturate
        // fiber 0; an activating reservation must still win its channel.
        let conv = Conversion::full(3).unwrap();
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv)).unwrap();
        let id = ic.reserve_checked(resv(1, 0, 0, 0, 2)).unwrap();
        let cells = vec![
            ConnectionRequest::packet(0, 0, 0),
            ConnectionRequest::packet(0, 1, 0),
            ConnectionRequest::packet(0, 2, 0),
        ];
        let r = ic.advance_slot(&cells).unwrap();
        assert_eq!(r.reservation_grants.len(), 1, "reservation wins under ReservedFirst");
        assert_eq!(r.reservation_grants[0].reservation, id);
        // Only 2 channels remain for the 3 cells.
        assert_eq!(r.grants.len(), 2);
        assert_eq!(r.contention_losses(), 1);
    }

    #[test]
    fn compete_lets_cells_contend_with_reservations() {
        // Same setup, Compete: the matching maximizes cardinality over all
        // four candidates on 3 channels — exactly 3 granted in total.
        let conv = Conversion::full(3).unwrap();
        let cfg =
            InterconnectConfig::packet_switch(2, conv).with_preemption(PreemptionPolicy::Compete);
        let mut ic = Interconnect::new(cfg).unwrap();
        ic.reserve_checked(resv(1, 0, 0, 0, 2)).unwrap();
        let cells = vec![
            ConnectionRequest::packet(0, 0, 0),
            ConnectionRequest::packet(0, 1, 0),
            ConnectionRequest::packet(0, 2, 0),
        ];
        let r = ic.advance_slot(&cells).unwrap();
        assert_eq!(r.grants.len() + r.reservation_grants.len(), 3);
        assert_eq!(r.contention_losses() + r.reservation_expired.len(), 1);
    }

    #[test]
    fn reservation_source_busy_expires() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        // A long burst occupies input channel (0, 2) through slot 3.
        let _ = ic.advance_slot(&[ConnectionRequest::burst(0, 2, 0, 5)]).unwrap();
        // The store sees the hold, so an overlapping booking is denied...
        assert!(matches!(
            ic.reserve(resv(0, 2, 1, 2, 1)),
            Err(Error::ReservationCapacityExhausted { .. })
        ));
        // ...but a cell admitted *after* a booking can still collide: book
        // first, then launch the burst.
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let id = ic.reserve(resv(0, 2, 1, 2, 1)).unwrap();
        let _ = ic.advance_slot(&[ConnectionRequest::burst(0, 2, 0, 5)]).unwrap();
        let _ = ic.advance_slot(&[]).unwrap();
        let r = ic.advance_slot(&[]).unwrap();
        assert_eq!(r.reservation_expired.len(), 1);
        assert_eq!(r.reservation_expired[0].reservation, id);
        assert_eq!(r.reservation_expired[0].rejection.reason, RejectReason::SourceBusy);
    }

    #[test]
    fn reservation_blocks_same_slot_cell_on_input_channel() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        ic.reserve(resv(0, 2, 1, 0, 1)).unwrap();
        // A cell on the same input channel in the activation slot loses
        // source admission to the reservation.
        let r = ic.advance_slot(&[ConnectionRequest::packet(0, 2, 0)]).unwrap();
        assert_eq!(r.reservation_grants.len(), 1);
        assert_eq!(r.source_busy_losses(), 1);
    }

    #[test]
    fn capacity_admission_respects_active_holds() {
        // k = 3 full conversion; fill fiber 0 with three 4-slot bursts,
        // then try to book overlapping capacity.
        let conv = Conversion::full(3).unwrap();
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv)).unwrap();
        let r = ic
            .advance_slot(&[
                ConnectionRequest::burst(0, 0, 0, 4),
                ConnectionRequest::burst(0, 1, 0, 4),
                ConnectionRequest::burst(0, 2, 0, 4),
            ])
            .unwrap();
        assert_eq!(r.grants.len(), 3);
        // Slots 1..4 are fully booked on fiber 0.
        assert!(matches!(
            ic.reserve(resv(1, 0, 0, 2, 1)),
            Err(Error::ReservationCapacityExhausted { fiber: 0, slot: 2 })
        ));
        // After the bursts complete (slot 4), capacity is bookable again.
        assert!(ic.reserve_checked(resv(1, 0, 0, 4, 2)).is_ok());
    }

    #[test]
    fn shrink_conversion_takes_effect_at_next_slot_and_restores() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        // Two same-wavelength bursts to fiber 0: at most one can sit on the
        // diagonal channel a degree-1 scheme can realise.
        let r = ic
            .advance_slot(&[
                ConnectionRequest::burst(0, 2, 0, 10),
                ConnectionRequest::burst(1, 2, 0, 10),
            ])
            .unwrap();
        assert_eq!(r.grants.len(), 2);
        let shrunk = Conversion::symmetric_circular(6, 1).unwrap();
        let impact = ic.shrink_conversion(0, shrunk).unwrap();
        assert!(impact.dropped_connections >= 1);
        assert_eq!(impact.dropped_connections + ic.active_connections(), 2);
        assert_eq!(ic.fiber_conversion(0).unwrap().degree(), 1);
        assert_eq!(ic.fiber_conversion(1).unwrap().degree(), 3, "other fibers untouched");
        // Under degree 1, a λ4 request can only take channel 4.
        let r = ic
            .advance_slot(&[ConnectionRequest::packet(0, 4, 0), ConnectionRequest::packet(1, 4, 0)])
            .unwrap();
        assert_eq!(r.grants.len(), 1, "degree-1 fiber grants one of two λ4 requests");
        assert_eq!(r.contention_losses(), 1);
        let _ = ic.advance_slot(&[]).unwrap();
        // Recovery restores the full degree-3 range.
        let impact = ic.restore_conversion(0).unwrap();
        assert_eq!(impact, DisruptionImpact::default());
        assert_eq!(ic.fiber_conversion(0).unwrap().degree(), 3);
        let r = ic
            .advance_slot(&[ConnectionRequest::packet(0, 4, 0), ConnectionRequest::packet(1, 4, 0)])
            .unwrap();
        assert_eq!(r.grants.len(), 2, "restored range places both λ4 requests");
    }

    #[test]
    fn shrunken_fiber_keeps_reservations_and_ledger_certifies() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let id = ic.reserve_checked(resv(0, 2, 0, 3, 2)).unwrap();
        let shrunk = Conversion::symmetric_circular(6, 1).unwrap();
        let _ = ic.shrink_conversion(0, shrunk).unwrap();
        // Capacity bookings survive a converter failure (k is unchanged);
        // the ledger still certifies end to end.
        assert_eq!(ic.reservations().len(), 1);
        ic.reservations().check_ledger(ic.slot()).unwrap();
        for _ in 0..3 {
            let _ = ic.advance_slot(&[]).unwrap();
        }
        // λ2 → channel 2 is realisable under degree 1: the reservation
        // activates on the shrunken fiber.
        let r = ic.advance_slot(&[]).unwrap();
        assert_eq!(r.reservation_grants.len(), 1);
        assert_eq!(r.reservation_grants[0].reservation, id);
        assert_eq!(r.reservation_grants[0].grant.output_wavelength, 2);
    }

    #[test]
    fn fiber_outage_cancels_reservations_and_rejects_traffic() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let _ = ic.advance_slot(&[ConnectionRequest::burst(0, 2, 0, 10)]).unwrap();
        ic.reserve_checked(resv(1, 0, 0, 5, 2)).unwrap();
        let keep = ic.reserve_checked(resv(1, 1, 1, 5, 2)).unwrap();
        let impact = ic.fail_fiber(0).unwrap();
        assert_eq!(impact, DisruptionImpact { dropped_connections: 1, cancelled_reservations: 1 });
        assert!(ic.is_fiber_down(0).unwrap());
        assert_eq!(ic.active_connections(), 0);
        // Only the fiber-1 booking survives, and the ledger certifies.
        assert_eq!(ic.reservations().len(), 1);
        assert_eq!(ic.reservations().pending()[0].id, keep);
        ic.reservations().check_ledger(ic.slot()).unwrap();
        // New bookings toward the dark fiber are denied at admission.
        assert!(matches!(
            ic.reserve(resv(1, 2, 0, 6, 1)),
            Err(Error::ReservationCapacityExhausted { fiber: 0, slot: 6 })
        ));
        // Traffic toward the dark fiber loses output contention; other
        // fibers are unaffected.
        let r = ic
            .advance_slot(&[ConnectionRequest::packet(0, 0, 0), ConnectionRequest::packet(0, 1, 1)])
            .unwrap();
        assert_eq!(r.grants.len(), 1);
        assert_eq!(r.grants[0].request.dst_fiber, 1);
        assert_eq!(r.contention_losses(), 1);
        // Rejoin: the fiber comes back cold and schedules again.
        let impact = ic.rejoin_fiber(0).unwrap();
        assert_eq!(impact, DisruptionImpact::default());
        assert!(!ic.is_fiber_down(0).unwrap());
        let r = ic.advance_slot(&[ConnectionRequest::packet(0, 0, 0)]).unwrap();
        assert_eq!(r.grants.len(), 1);
    }

    #[test]
    fn policy_fallback_swaps_all_fibers_or_none() {
        let circ = conv();
        let cfg =
            InterconnectConfig::packet_switch(2, circ).with_policy(Policy::BreakFirstAvailable);
        let mut ic = Interconnect::new(cfg).unwrap();
        // FA needs non-circular: the all-fiber swap must refuse whole.
        assert!(ic.set_policy_all(Policy::FirstAvailable).is_err());
        assert_eq!(ic.policy(), Policy::BreakFirstAvailable);
        // BFA → approximation is the degraded-mode pair: always kind-legal.
        ic.set_policy_all(Policy::Approximate).unwrap();
        assert_eq!(ic.policy(), Policy::Approximate);
        let r = ic.advance_slot(&[ConnectionRequest::packet(0, 2, 0)]).unwrap();
        assert_eq!(r.grants.len(), 1);
        ic.set_policy_all(Policy::BreakFirstAvailable).unwrap();
        let r = ic.advance_slot(&[ConnectionRequest::packet(1, 2, 0)]).unwrap();
        assert_eq!(r.grants.len(), 1);
    }

    #[test]
    fn disruption_ops_reject_bad_fiber_index() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let shrunk = Conversion::symmetric_circular(6, 1).unwrap();
        assert!(matches!(
            ic.shrink_conversion(2, shrunk),
            Err(Error::InvalidFiber { fiber: 2, n: 2 })
        ));
        assert!(matches!(ic.restore_conversion(9), Err(Error::InvalidFiber { .. })));
        assert!(matches!(ic.fail_fiber(2), Err(Error::InvalidFiber { .. })));
        assert!(matches!(ic.rejoin_fiber(2), Err(Error::InvalidFiber { .. })));
        assert!(ic.fiber_conversion(2).is_err());
        assert!(ic.is_fiber_down(2).is_err());
    }

    #[test]
    fn crossbar_reflects_active_connections() {
        let mut ic = Interconnect::new(InterconnectConfig::packet_switch(2, conv())).unwrap();
        let r = ic
            .advance_slot(&[
                ConnectionRequest::burst(0, 1, 1, 2),
                ConnectionRequest::burst(1, 4, 0, 3),
            ])
            .unwrap();
        assert_eq!(r.grants.len(), 2);
        let xb = ic.crossbar();
        assert_eq!(xb.active(), 2);
        xb.validate(ic.conversion()).unwrap();
    }
}
