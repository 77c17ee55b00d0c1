//! The TCP-free slot engine: bounded per-destination admission queues in
//! front of the offline [`Interconnect`].
//!
//! This is the daemon's whole decision core, deliberately free of any I/O
//! so the differential and zero-allocation tests can drive it directly.
//! Requests are admitted into one bounded queue per destination fiber (the
//! shard boundary — the paper's per-output-fiber partition); each slot
//! drains the queues in fiber order, FIFO within a fiber, and feeds the
//! batch to [`Interconnect::advance_slot_into`], which runs the `N`
//! independent [`wdm_interconnect::FiberUnit`] schedulers. Because the
//! daemon and the offline engine execute the *same* code on the *same*
//! input order, a recorded session replays bit-for-bit.
//!
//! Overload policy: admission never buffers without bound. A full shard
//! queue denies immediately with [`DenyReason::QueueFull`] and a
//! retry-after hint of one slot (queues drain fully every slot, so the
//! hint is exact, not heuristic).
//!
//! At steady state (queues and scratch buffers grown to their working
//! sizes, trace recording off) [`SlotEngine::run_slot`] performs zero heap
//! allocations — pinned by the `wdm-alloc-count` regression.

use wdm_attr::{allow_reach, hot_path, panic_free};
use wdm_core::{Conversion, Error, Policy};
use wdm_interconnect::{
    ConnectionRequest, Interconnect, InterconnectConfig, PreemptionPolicy, RejectReason,
    Reservation, ReservationRequest, SlotResult, DEFAULT_RESERVATION_HORIZON,
};
use wdm_scenario::DisruptionChange;
use wdm_sim::scenario::ScenarioRuntime;
use wdm_sim::trace::{SessionTrace, TraceConfig};

use crate::protocol::{DenyReason, ReserveRequest, SubmitRequest};
use crate::serve_sync::{AdmitRejection, ShardQueues};

/// Configuration of a [`SlotEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of input = output fibers (`N`).
    pub n: usize,
    /// The wavelength conversion scheme.
    pub conversion: Conversion,
    /// Wavelength-level scheduling policy.
    pub policy: Policy,
    /// Bounded admission-queue capacity per destination-fiber shard.
    pub queue_capacity: usize,
    /// Record a [`SessionTrace`] for offline replay (allocates per slot —
    /// leave off when pinning the zero-allocation path).
    pub record_trace: bool,
    /// Advance-reservation admission horizon in slots.
    pub reservation_horizon: u64,
    /// How activating reservations meet same-slot cell traffic.
    pub preemption: PreemptionPolicy,
}

impl EngineConfig {
    /// A config with the daemon's default shard queue capacity (1024).
    pub fn new(n: usize, conversion: Conversion, policy: Policy) -> EngineConfig {
        EngineConfig {
            n,
            conversion,
            policy,
            queue_capacity: 1024,
            record_trace: false,
            reservation_horizon: DEFAULT_RESERVATION_HORIZON,
            preemption: PreemptionPolicy::default(),
        }
    }

    /// Sets the per-shard admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> EngineConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Enables session-trace recording.
    pub fn with_trace(mut self) -> EngineConfig {
        self.record_trace = true;
        self
    }

    /// Sets the advance-reservation admission horizon.
    pub fn with_reservation_horizon(mut self, horizon: u64) -> EngineConfig {
        self.reservation_horizon = horizon;
        self
    }

    /// Sets the reservation preemption policy.
    pub fn with_preemption(mut self, preemption: PreemptionPolicy) -> EngineConfig {
        self.preemption = preemption;
        self
    }
}

/// The daemon's answer to one submitted request. Must be delivered — a
/// dropped reply strands the client's request forever, hence `must_use`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Reply {
    /// Connection the submitting client arrived on.
    pub conn: u64,
    /// The client-chosen request id.
    pub id: u64,
    /// Slot the decision was made.
    pub slot: u64,
    /// Grant or deny.
    pub verdict: Verdict,
}

/// The decision inside a [`Reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Granted: an output channel was assigned on the destination fiber.
    Granted {
        /// Per-slot grant sequence number.
        seq: u64,
        /// The assigned output wavelength.
        output_wavelength: u32,
    },
    /// Denied, with the reason and a retry hint.
    Denied {
        /// Why.
        reason: DenyReason,
        /// Slots to wait before resubmitting (0 = don't retry).
        retry_after_slots: u32,
    },
    /// An advance reservation was admitted into the capacity ledger; a
    /// `Granted` or `Denied` follows when the start slot runs.
    Reserved {
        /// The ledger-assigned reservation id (usable in a release).
        reservation: u64,
        /// Absolute slot the hold will activate.
        start_slot: u64,
    },
}

/// What one slot did, in aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct SlotSummary {
    /// The slot that just ran (0-based).
    pub slot: u64,
    /// Requests drained from the shard queues into the engine.
    pub admitted: usize,
    /// Requests granted.
    pub grants: usize,
    /// Requests denied (source-busy + output contention).
    pub denies: usize,
    /// Earlier connections that completed at the start of this slot.
    pub completed: usize,
    /// Advance reservations that activated and were granted this slot.
    pub reservation_grants: usize,
    /// Advance reservations that expired at activation this slot.
    pub reservation_expiries: usize,
}

/// A queued request remembering which connection and client id it answers.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    conn: u64,
    id: u64,
    request: ConnectionRequest,
}

/// One admitted-but-not-yet-activated reservation: the ledger id, the
/// owning connection, the client-chosen wire id, and the destination fiber
/// (kept so an outage cancelling the booking can answer its client — the
/// ledger reports cancellations only as a count).
#[derive(Debug, Clone, Copy)]
struct Hold {
    rid: u64,
    conn: u64,
    id: u64,
    dst_fiber: usize,
}

/// Bounded per-destination admission queues feeding the offline engine —
/// see the module docs for the full slot discipline.
#[derive(Debug)]
pub struct SlotEngine {
    engine: Interconnect,
    queues: ShardQueues<Tagged>,
    // Per-slot scratch, reused across slots (zero allocations at steady
    // state): the drained batch, its (conn, id) tags, and the engine
    // result, whose verdicts name their batch positions.
    batch: Vec<ConnectionRequest>,
    tags: Vec<(u64, u64)>,
    result: SlotResult,
    // Admitted-but-not-yet-activated reservations. An entry leaves the
    // map exactly once — at activation (grant or expiry), at an
    // owner-checked release, or when a fiber outage cancels the booking
    // (the client is answered immediately, never left stranded).
    holds: Vec<Hold>,
    trace: Option<SessionTrace>,
}

impl SlotEngine {
    /// Builds the engine. Fails on a zero-fiber config or if `n`/`k` do not
    /// fit the wire protocol's `u32` fields.
    pub fn new(config: EngineConfig) -> Result<SlotEngine, Error> {
        let k = config.conversion.k();
        if u32::try_from(config.n).is_err() || u32::try_from(k).is_err() {
            return Err(Error::LengthMismatch {
                expected: u32::MAX as usize,
                actual: config.n.max(k),
            });
        }
        let engine = Interconnect::new(
            InterconnectConfig::packet_switch(config.n, config.conversion)
                .with_policy(config.policy)
                .with_reservation_horizon(config.reservation_horizon)
                .with_preemption(config.preemption),
        )?;
        let trace = config.record_trace.then(|| {
            SessionTrace::new(TraceConfig::new(
                config.n,
                &config.conversion,
                config.policy,
                config.reservation_horizon,
                config.preemption,
            ))
        });
        Ok(SlotEngine {
            engine,
            queues: ShardQueues::new(config.n, config.queue_capacity),
            batch: Vec::new(),
            tags: Vec::new(),
            result: SlotResult::default(),
            holds: Vec::new(),
            trace,
        })
    }

    /// Number of fibers per side.
    pub fn n(&self) -> usize {
        self.engine.n()
    }

    /// Wavelengths per fiber.
    pub fn k(&self) -> usize {
        self.engine.k()
    }

    /// The scheduling policy in force.
    pub fn policy(&self) -> Policy {
        self.engine.policy()
    }

    /// The interconnect the engine schedules, read-only (a
    /// [`ScenarioRuntime`] attaches to it).
    pub fn interconnect(&self) -> &Interconnect {
        &self.engine
    }

    /// The next slot to run (slots completed so far).
    pub fn slot(&self) -> u64 {
        self.engine.slot()
    }

    /// Requests waiting in the shard queues.
    pub fn pending(&self) -> usize {
        self.queues.pending()
    }

    /// In-flight multi-slot connections.
    pub fn active_connections(&self) -> usize {
        self.engine.active_connections()
    }

    /// Admitted-but-not-yet-activated reservations.
    pub fn pending_reservations(&self) -> usize {
        self.holds.len()
    }

    /// Warm-start scheduling counters summed over every fiber scheduler
    /// since startup (or the last [`Interconnect::reset_warm`] downstream).
    pub fn warm_stats(&self) -> wdm_core::WarmStats {
        self.engine.warm_stats()
    }

    /// True when running a slot would be a semantic no-op: nothing queued,
    /// nothing in flight to age, and no reservation waiting for its start
    /// slot. Free-running servers skip these slots (skipping is sound
    /// precisely because the engine state is untouched).
    pub fn is_idle(&self) -> bool {
        self.engine.active_connections() == 0
            && self.queues.is_empty()
            && self.engine.reservations().is_empty()
    }

    /// The recorded session so far, if recording is on.
    pub fn trace(&self) -> Option<&SessionTrace> {
        self.trace.as_ref()
    }

    /// Takes the recorded session, leaving recording off.
    pub fn take_trace(&mut self) -> Option<SessionTrace> {
        self.trace.take()
    }

    /// Admits one request into its destination shard's bounded queue.
    /// Returns an immediate deny [`Reply`] when the request is invalid for
    /// this interconnect or the shard queue is full; `None` means queued —
    /// the verdict arrives from the next [`Self::run_slot`].
    #[hot_path]
    pub fn submit(&mut self, conn: u64, req: SubmitRequest) -> Option<Reply> {
        let slot = self.engine.slot();
        let deny = |reason, retry| {
            Some(Reply {
                conn,
                id: req.id,
                slot,
                verdict: Verdict::Denied { reason, retry_after_slots: retry },
            })
        };
        let request = ConnectionRequest {
            src_fiber: req.src_fiber as usize,
            src_wavelength: req.src_wavelength as usize,
            dst_fiber: req.dst_fiber as usize,
            duration: req.duration,
        };
        if request.validate(self.engine.n(), self.engine.k()).is_err() {
            return deny(DenyReason::InvalidRequest, 0);
        }
        let tagged = Tagged { conn, id: req.id, request };
        match self.queues.try_admit(request.dst_fiber, tagged) {
            Ok(()) => None,
            Err(AdmitRejection::InvalidShard(_)) => deny(DenyReason::InvalidRequest, 0),
            // Queues drain fully every slot, so "one slot" is exact.
            Err(AdmitRejection::Full(_)) => deny(DenyReason::QueueFull, 1),
        }
    }

    /// Admits an advance reservation, answering immediately: `Reserved`
    /// carries the ledger id and absolute start slot; a denial carries the
    /// typed reason (capacity, horizon, or invalid fields). Unlike cell
    /// submission there is no queueing — the capacity ledger decides now.
    pub fn reserve(&mut self, conn: u64, req: ReserveRequest) -> Reply {
        let slot = self.engine.slot();
        let deny = |reason| Reply {
            conn,
            id: req.id,
            slot,
            verdict: Verdict::Denied { reason, retry_after_slots: 0 },
        };
        let start_slot = slot.saturating_add(u64::from(req.start_in));
        let request = ReservationRequest {
            src_fiber: req.src_fiber as usize,
            src_wavelength: req.src_wavelength as usize,
            dst_fiber: req.dst_fiber as usize,
            start_slot,
            duration: req.duration,
        };
        match self.engine.reserve(request) {
            Ok(rid) => {
                self.holds.push(Hold { rid, conn, id: req.id, dst_fiber: request.dst_fiber });
                if let Some(trace) = &mut self.trace {
                    trace.record_reservation(Reservation { id: rid, request });
                }
                Reply {
                    conn,
                    id: req.id,
                    slot,
                    verdict: Verdict::Reserved { reservation: rid, start_slot },
                }
            }
            Err(Error::ReservationHorizonExceeded { .. }) => deny(DenyReason::HorizonExceeded),
            Err(Error::ReservationCapacityExhausted { .. }) => deny(DenyReason::CapacityExhausted),
            // The ledger validates the fields before anything else.
            Err(_) => deny(DenyReason::InvalidRequest),
        }
    }

    /// Cancels a pending reservation, owner-checked: only the connection
    /// that made the reservation may release it. Returns `false` (a silent
    /// no-op on the wire) for unknown ids, foreign owners, or reservations
    /// that already activated.
    pub fn release(&mut self, conn: u64, reservation_id: u64) -> bool {
        let Some(pos) = self.holds.iter().position(|h| h.rid == reservation_id && h.conn == conn)
        else {
            return false;
        };
        let cancelled = self.engine.cancel_reservation(reservation_id);
        debug_assert!(cancelled, "a registered hold is always pending in the store");
        self.holds.swap_remove(pos);
        if let Some(trace) = &mut self.trace {
            trace.record_release(reservation_id);
        }
        true
    }

    /// Runs one slot: drains every shard queue (fiber order, FIFO within a
    /// fiber), schedules the batch through the offline engine, and appends
    /// one [`Reply`] per drained request to `out` — grants first in
    /// per-slot sequence order (activated reservations lead the stream),
    /// then denies in engine rejection order, then reservation expiries.
    #[hot_path]
    #[panic_free]
    pub fn run_slot(&mut self, out: &mut Vec<Reply>) -> SlotSummary {
        let slot = self.engine.slot();
        self.batch.clear();
        self.tags.clear();
        let SlotEngine { queues, batch, tags, .. } = self;
        queues.drain_into(|t| {
            batch.push(t.request);
            tags.push((t.conn, t.id));
        });
        expect_invariant(
            self.engine.advance_slot_into(&self.batch, &mut self.result),
            "submit() validated every queued request",
        );
        // Activated reservations lead the grant stream: under the default
        // ReservedFirst preemption they were scheduled first, and keeping
        // one fixed stream order makes replays deterministic either way.
        let mut reservation_grants = 0usize;
        for g in &self.result.reservation_grants {
            let (conn, id) = claim_hold(&mut self.holds, g.reservation);
            let output_wavelength = expect_invariant(
                u32::try_from(g.grant.output_wavelength),
                "k fits in u32 (checked at construction)",
            );
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Granted { seq: reservation_grants as u64, output_wavelength },
            });
            reservation_grants += 1;
        }
        let mut grants = 0usize;
        for (seq, (g, &i)) in self.result.grants.iter().zip(&self.result.grant_inputs).enumerate() {
            let (conn, id) = tag_of(&self.tags, i);
            let output_wavelength = expect_invariant(
                u32::try_from(g.output_wavelength),
                "k fits in u32 (checked at construction)",
            );
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Granted {
                    seq: (reservation_grants + seq) as u64,
                    output_wavelength,
                },
            });
            grants += 1;
        }
        let mut denies = 0usize;
        for (r, &i) in self.result.rejections.iter().zip(&self.result.rejection_inputs) {
            let reason = match r.reason {
                RejectReason::SourceBusy => DenyReason::SourceBusy,
                RejectReason::OutputContention => DenyReason::OutputContention,
            };
            let (conn, id) = tag_of(&self.tags, i);
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Denied { reason, retry_after_slots: 1 },
            });
            denies += 1;
        }
        // Reservations that reached their start slot but could not
        // activate expire terminally — the ledger never retries them.
        let mut reservation_expiries = 0usize;
        for x in &self.result.reservation_expired {
            let (conn, id) = claim_hold(&mut self.holds, x.reservation);
            let reason = match x.rejection.reason {
                RejectReason::SourceBusy => DenyReason::SourceBusy,
                RejectReason::OutputContention => DenyReason::OutputContention,
            };
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Denied { reason, retry_after_slots: 0 },
            });
            reservation_expiries += 1;
        }
        if let Some(trace) = &mut self.trace {
            trace.record_slot_full(
                &self.batch,
                &self.result.grants,
                &self.result.reservation_grants,
            );
        }
        SlotSummary {
            slot,
            admitted: self.batch.len(),
            grants,
            denies,
            completed: self.result.completed,
            reservation_grants,
            reservation_expiries,
        }
    }

    /// Steps a scenario runtime against the live engine, before the slot is
    /// scheduled: [`ScenarioRuntime::before_slot`] applies the plan's due
    /// events and fallback decision to the interconnect, given the slot
    /// clock's `lag_slots`.
    ///
    /// An applied outage also cancels every pending reservation booked
    /// toward the dark fiber; each cancelled hold's client is answered
    /// *now* with a [`DenyReason::CapacityExhausted`] deny appended to
    /// `out` — the ledger entry is gone, and a silent cancellation would
    /// strand the client forever.
    pub fn apply_scenario(
        &mut self,
        runtime: &mut ScenarioRuntime,
        lag_slots: u64,
        out: &mut Vec<Reply>,
    ) -> Result<(), Error> {
        let cancelled_before = runtime.summary().cancelled_reservations;
        let slot = self.engine.slot();
        let mut cancelled = 0usize;
        let applied = runtime.before_slot(&mut self.engine, lag_slots)?;
        for event in applied.iter().filter(|e| matches!(e.change, DisruptionChange::Outage)) {
            let mut i = 0;
            while i < self.holds.len() {
                if self.holds[i].dst_fiber == event.fiber {
                    let hold = self.holds.swap_remove(i);
                    cancelled += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.record_release(hold.rid);
                    }
                    out.push(Reply {
                        conn: hold.conn,
                        id: hold.id,
                        slot,
                        verdict: Verdict::Denied {
                            reason: DenyReason::CapacityExhausted,
                            retry_after_slots: 0,
                        },
                    });
                } else {
                    i += 1;
                }
            }
        }
        debug_assert_eq!(
            cancelled,
            runtime.summary().cancelled_reservations - cancelled_before,
            "every ledger cancellation answers exactly one registered hold"
        );
        Ok(())
    }
}

/// Unwraps a result whose error leg is precluded by an engine invariant;
/// the message names the invariant. Out-of-line so each precluded panic
/// rides on this one audited suppression while `run_slot`'s own body keeps
/// its panic_free obligation.
#[allow_reach(
    panic_free,
    reason = "the error legs restate invariants validated at submit()/construction time: queued requests were admitted against the engine's dimensions and k fits in u32"
)]
fn expect_invariant<T, E>(result: Result<T, E>, invariant: &'static str) -> T {
    match result {
        Ok(v) => v,
        Err(_) => unreachable!("{invariant}"),
    }
}

/// Maps an activated reservation back to the (conn, id) tag registered at
/// admission, consuming the hold entry. Exhaustive: the engine activates
/// every registered reservation exactly once.
#[allow_reach(
    panic_free,
    reason = "the engine activates every registered reservation exactly once (ledger invariant, covered by the serve round-trip tests); a missing hold is unrecoverable state corruption"
)]
fn claim_hold(holds: &mut Vec<Hold>, reservation: u64) -> (u64, u64) {
    let Some(pos) = holds.iter().position(|h| h.rid == reservation) else {
        unreachable!("engine activated a reservation that was never registered")
    };
    let hold = holds.swap_remove(pos);
    (hold.conn, hold.id)
}

/// The (conn, id) tag of the batch entry at `position`, which a verdict
/// answers.
#[allow_reach(
    panic_free,
    reason = "tags is filled in step with the batch every slot, and the interconnect reports each verdict's position in that batch; a position past it is unrecoverable state corruption"
)]
fn tag_of(tags: &[(u64, u64)], position: usize) -> (u64, u64) {
    match tags.get(position) {
        Some(&tag) => tag,
        None => unreachable!("engine replied to a request that was never admitted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(record: bool) -> SlotEngine {
        let conversion = Conversion::symmetric_circular(6, 3).unwrap();
        let mut config = EngineConfig::new(4, conversion, Policy::Auto).with_queue_capacity(4);
        if record {
            config = config.with_trace();
        }
        SlotEngine::new(config).unwrap()
    }

    fn req(id: u64, src_fiber: u32, w: u32, dst: u32, duration: u32) -> SubmitRequest {
        SubmitRequest { id, src_fiber, src_wavelength: w, dst_fiber: dst, duration }
    }

    #[test]
    fn grant_and_deny_replies_carry_tags() {
        let mut e = engine(false);
        assert!(e.submit(1, req(10, 0, 0, 0, 1)).is_none());
        assert!(e.submit(2, req(20, 1, 0, 0, 3)).is_none());
        // Same input channel as id 10: engine denies one as SourceBusy.
        assert!(e.submit(1, req(11, 0, 0, 1, 1)).is_none());
        let mut out = Vec::new();
        let summary = e.run_slot(&mut out);
        assert_eq!(summary.admitted, 3);
        assert_eq!(summary.grants, 2);
        assert_eq!(summary.denies, 1);
        assert_eq!(out.len(), 3);
        let granted: Vec<u64> = out
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Granted { .. }))
            .map(|r| r.id)
            .collect();
        assert_eq!(granted, vec![10, 20]);
        let denied = out.iter().find(|r| matches!(r.verdict, Verdict::Denied { .. })).unwrap();
        assert_eq!(denied.id, 11);
        assert_eq!(denied.conn, 1);
        assert!(matches!(denied.verdict, Verdict::Denied { reason: DenyReason::SourceBusy, .. }));
    }

    #[test]
    fn identical_requests_keep_their_own_deny_reasons() {
        let mut e = engine(false);
        // Bursts from fibers 1–3 on λ0 fill λ5, λ0 and λ1 of fiber 0: all
        // of λ0's d = 3 conversion window.
        for fiber in 1..4 {
            assert!(e.submit(0, req(fiber.into(), fiber, 0, 0, 5)).is_none());
        }
        let mut out = Vec::new();
        assert_eq!(e.run_slot(&mut out).grants, 3);
        out.clear();
        // Two connections send the same request. Admission lets the first
        // through and it loses output contention; the second finds its
        // source channel taken.
        assert!(e.submit(1, req(10, 0, 0, 0, 1)).is_none());
        assert!(e.submit(2, req(20, 0, 0, 0, 1)).is_none());
        let summary = e.run_slot(&mut out);
        assert_eq!((summary.grants, summary.denies), (0, 2));
        let reason = |conn: u64, id: u64| {
            let reply = out.iter().find(|r| (r.conn, r.id) == (conn, id)).unwrap();
            let Verdict::Denied { reason, .. } = reply.verdict else {
                panic!("expected a deny, got {reply:?}")
            };
            reason
        };
        assert_eq!(reason(1, 10), DenyReason::OutputContention);
        assert_eq!(reason(2, 20), DenyReason::SourceBusy);
    }

    #[test]
    fn invalid_requests_denied_at_admission() {
        let mut e = engine(false);
        for bad in [
            req(1, 4, 0, 0, 1), // src fiber out of range
            req(2, 0, 6, 0, 1), // wavelength out of range
            req(3, 0, 0, 4, 1), // dst fiber out of range
            req(4, 0, 0, 0, 0), // zero duration
        ] {
            let reply = e.submit(0, bad).unwrap();
            assert!(matches!(
                reply.verdict,
                Verdict::Denied { reason: DenyReason::InvalidRequest, retry_after_slots: 0 }
            ));
        }
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn full_queue_denies_with_retry_hint() {
        let mut e = engine(false);
        for id in 0..4 {
            assert!(e.submit(0, req(id, 0, id as u32, 2, 1)).is_none());
        }
        let reply = e.submit(0, req(9, 1, 0, 2, 1)).unwrap();
        assert!(matches!(
            reply.verdict,
            Verdict::Denied { reason: DenyReason::QueueFull, retry_after_slots: 1 }
        ));
        // Other shards are unaffected by one full queue.
        assert!(e.submit(0, req(10, 1, 0, 3, 1)).is_none());
        // The queue drains next slot, reopening admission.
        let mut out = Vec::new();
        let _ = e.run_slot(&mut out);
        assert_eq!(e.pending(), 0);
        assert!(e.submit(0, req(11, 1, 1, 2, 1)).is_none());
    }

    #[test]
    fn multi_slot_connections_hold_and_complete() {
        let mut e = engine(false);
        assert!(e.submit(0, req(1, 0, 2, 0, 3)).is_none());
        let mut out = Vec::new();
        let s = e.run_slot(&mut out);
        assert_eq!(s.grants, 1);
        assert_eq!(e.active_connections(), 1);
        out.clear();
        // The same input channel is busy while the burst holds.
        assert!(e.submit(0, req(2, 0, 2, 1, 1)).is_none());
        let s = e.run_slot(&mut out);
        assert_eq!(s.denies, 1);
        out.clear();
        let s = e.run_slot(&mut out);
        assert_eq!(s.completed, 0);
        let s = e.run_slot(&mut out);
        assert_eq!(s.completed, 1);
        assert!(e.is_idle());
    }

    #[test]
    fn recorded_trace_replays_bit_identically() {
        let mut e = engine(true);
        let mut out = Vec::new();
        for slot in 0..30u64 {
            for i in 0..8u64 {
                let h = slot * 7 + i * 3;
                let _ = e.submit(
                    i % 2,
                    req(
                        slot * 100 + i,
                        (h % 4) as u32,
                        (h % 6) as u32,
                        ((h / 5) % 4) as u32,
                        1 + (h % 3) as u32,
                    ),
                );
            }
            out.clear();
            let _ = e.run_slot(&mut out);
        }
        let trace = e.take_trace().unwrap();
        assert!(trace.grant_count() > 0);
        let report = trace.replay().unwrap();
        assert_eq!(report.slots, 30);
    }

    fn rsv(
        id: u64,
        src_fiber: u32,
        w: u32,
        dst: u32,
        start_in: u32,
        duration: u32,
    ) -> ReserveRequest {
        ReserveRequest { id, src_fiber, src_wavelength: w, dst_fiber: dst, start_in, duration }
    }

    #[test]
    fn reservation_acks_then_grants_at_start_slot() {
        let mut e = engine(false);
        let reply = e.reserve(3, rsv(40, 0, 1, 2, 2, 3));
        let Verdict::Reserved { reservation, start_slot } = reply.verdict else {
            panic!("expected Reserved, got {reply:?}")
        };
        assert_eq!(start_slot, 2);
        assert_eq!((reply.conn, reply.id), (3, 40));
        assert_eq!(e.pending_reservations(), 1);
        assert!(!e.is_idle(), "a pending reservation keeps the engine live");
        let mut out = Vec::new();
        let s0 = e.run_slot(&mut out);
        let s1 = e.run_slot(&mut out);
        assert_eq!((s0.reservation_grants, s1.reservation_grants), (0, 0));
        assert!(out.is_empty());
        let s2 = e.run_slot(&mut out);
        assert_eq!(s2.reservation_grants, 1);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].conn, out[0].id, out[0].slot), (3, 40, 2));
        assert!(matches!(out[0].verdict, Verdict::Granted { seq: 0, .. }));
        assert_eq!(e.pending_reservations(), 0);
        assert_eq!(e.active_connections(), 1);
        let _ = reservation;
    }

    #[test]
    fn released_reservation_never_activates() {
        let mut e = engine(false);
        let reply = e.reserve(3, rsv(40, 0, 1, 2, 1, 2));
        let Verdict::Reserved { reservation, .. } = reply.verdict else { panic!() };
        // Owner check: a different connection cannot release it.
        assert!(!e.release(4, reservation));
        assert!(e.release(3, reservation));
        assert!(!e.release(3, reservation), "double release is a no-op");
        assert!(e.is_idle());
        let mut out = Vec::new();
        let s = e.run_slot(&mut out);
        let s1 = e.run_slot(&mut out);
        assert_eq!(s.reservation_grants + s1.reservation_grants, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn reservation_denials_are_typed() {
        let mut e = engine(false);
        let bad = e.reserve(0, rsv(1, 9, 0, 0, 0, 1));
        assert!(matches!(bad.verdict, Verdict::Denied { reason: DenyReason::InvalidRequest, .. }));
        let far = e.reserve(0, rsv(2, 0, 0, 0, u32::MAX, 4));
        assert!(matches!(far.verdict, Verdict::Denied { reason: DenyReason::HorizonExceeded, .. }));
        // k = 6 per fiber: the seventh overlapping hold on one fiber slot
        // exhausts bookable capacity.
        for i in 0..6u32 {
            let r = e.reserve(0, rsv(10 + u64::from(i), i % 4, i, 1, 3, 2));
            assert!(matches!(r.verdict, Verdict::Reserved { .. }), "{r:?}");
        }
        let full = e.reserve(0, rsv(99, 3, 5, 1, 3, 2));
        assert!(matches!(
            full.verdict,
            Verdict::Denied { reason: DenyReason::CapacityExhausted, .. }
        ));
    }

    #[test]
    fn expired_reservation_reports_source_busy() {
        let mut e = engine(false);
        // Book input channel (0, 1) from slot 2. Cell admission is
        // best-effort and does not consult the ledger, so a later cell
        // burst can still occupy the channel under the reservation...
        let reply = e.reserve(2, rsv(50, 0, 1, 2, 2, 2));
        assert!(matches!(reply.verdict, Verdict::Reserved { .. }));
        assert!(e.submit(1, req(7, 0, 1, 3, 3)).is_none());
        let mut out = Vec::new();
        let s = e.run_slot(&mut out);
        assert_eq!(s.grants, 1);
        out.clear();
        // ...and the reservation expires at its start slot, source-busy.
        let _ = e.run_slot(&mut out);
        out.clear();
        let s = e.run_slot(&mut out);
        assert_eq!(s.reservation_expiries, 1);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].conn, out[0].id), (2, 50));
        assert!(matches!(
            out[0].verdict,
            Verdict::Denied { reason: DenyReason::SourceBusy, retry_after_slots: 0 }
        ));
        assert_eq!(e.pending_reservations(), 0);
    }

    /// Records 40 slots of cell traffic mixed with reservations and
    /// releases under `preemption`.
    fn mixed_session(preemption: PreemptionPolicy) -> SessionTrace {
        let conversion = Conversion::symmetric_circular(6, 3).unwrap();
        let config =
            EngineConfig::new(4, conversion, Policy::Auto).with_preemption(preemption).with_trace();
        let mut e = SlotEngine::new(config).unwrap();
        let mut out = Vec::new();
        let mut rid_pool: Vec<u64> = Vec::new();
        for slot in 0..40u64 {
            if slot % 3 == 0 {
                let r = e.reserve(
                    9,
                    rsv(
                        slot * 10,
                        (slot % 4) as u32,
                        (slot % 6) as u32,
                        ((slot / 2) % 4) as u32,
                        2 + (slot % 5) as u32,
                        1 + (slot % 3) as u32,
                    ),
                );
                if let Verdict::Reserved { reservation, .. } = r.verdict {
                    rid_pool.push(reservation);
                }
            }
            if slot % 7 == 0 {
                if let Some(rid) = rid_pool.pop() {
                    let _ = e.release(9, rid);
                }
            }
            for i in 0..4u64 {
                let h = slot * 5 + i * 3;
                let _ = e.submit(
                    i % 2,
                    req(
                        slot * 100 + i,
                        (h % 4) as u32,
                        (h % 6) as u32,
                        ((h / 3) % 4) as u32,
                        1 + (h % 2) as u32,
                    ),
                );
            }
            out.clear();
            let _ = e.run_slot(&mut out);
        }
        e.take_trace().unwrap()
    }

    #[test]
    fn mixed_session_trace_replays_bit_identically() {
        let trace = mixed_session(PreemptionPolicy::ReservedFirst);
        assert!(trace.slots.iter().any(|s| !s.reservation_grants.is_empty()));
        let report = trace.replay().unwrap();
        assert_eq!(report.slots, 40);
        assert!(report.reservation_grants > 0);
    }

    #[test]
    fn compete_session_round_trips_through_json_and_replays() {
        let trace = mixed_session(PreemptionPolicy::Compete);
        let json = trace.to_json().unwrap();
        assert!(json.contains(r#""preemption": "compete""#), "{json}");
        let back = SessionTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
        let report = back.replay().unwrap();
        assert_eq!(report.slots, 40);
        assert!(report.reservation_grants > 0);
    }

    #[test]
    fn reply_slot_and_seq_are_dense() {
        let mut e = engine(false);
        let mut out = Vec::new();
        for id in 0..3 {
            assert!(e.submit(0, req(id, id as u32, id as u32, 0, 1)).is_none());
        }
        let _ = e.run_slot(&mut out);
        let seqs: Vec<u64> = out
            .iter()
            .filter_map(|r| match r.verdict {
                Verdict::Granted { seq, .. } => Some(seq),
                Verdict::Denied { .. } | Verdict::Reserved { .. } => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(out.iter().all(|r| r.slot == 0));
    }

    /// A converter failure on fiber 1 over slots 4–8 and an outage of
    /// fiber 2 over slots 12–16, with the approx fallback engaged while
    /// either is open.
    const STORM: &str = r#"
schema = 1
name = "daemon-storm"

[interconnect]
n = 4
k = 8
degree = 5
kind = "circular"
policy = "bfa"

[run]
slots = 40
seed = 9

[traffic]
load = 0.5
duration = { model = "deterministic", slots = 2 }

[[disruptions]]
at = 4
fiber = 1
kind = "converter-failure"
degree = 1
until = 8

[[disruptions]]
at = 12
fiber = 2
kind = "outage"
until = 16

[fallback]
policy = "approx"
on_disruption = true
"#;

    #[test]
    fn outage_answers_every_cancelled_hold() {
        let plan = std::sync::Arc::new(wdm_scenario::load_plan(STORM).unwrap());
        let mut engine =
            SlotEngine::new(EngineConfig::new(plan.n(), plan.conversion(), plan.policy())).unwrap();
        let mut rt = ScenarioRuntime::new(plan, engine.interconnect()).unwrap();
        let mut out = Vec::new();
        // Book two reservations toward fiber 2 (the outage target) and one
        // toward fiber 3, all starting after the outage at slot 12.
        for (id, sw, dst) in [(100, 0, 2), (101, 1, 2), (102, 2, 3)] {
            let reply = engine.reserve(
                7,
                ReserveRequest {
                    id,
                    src_fiber: 0,
                    src_wavelength: sw,
                    dst_fiber: dst,
                    start_in: 20,
                    duration: 2,
                },
            );
            assert!(matches!(reply.verdict, Verdict::Reserved { .. }), "{reply:?}");
        }
        assert_eq!(engine.pending_reservations(), 3);
        for _ in 0..12 {
            out.clear();
            engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
            let _ = engine.run_slot(&mut out);
        }
        // Slot 12 applies the outage: both fiber-2 holds are cancelled and
        // answered before the slot's own replies.
        out.clear();
        engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
        let denies: Vec<u64> = out
            .iter()
            .filter(|r| {
                matches!(r.verdict, Verdict::Denied { reason: DenyReason::CapacityExhausted, .. })
            })
            .map(|r| r.id)
            .collect();
        assert_eq!(denies, vec![100, 101]);
        assert_eq!(engine.pending_reservations(), 1);
        assert_eq!(rt.summary().cancelled_reservations, 2);
        // While dark, cell traffic toward fiber 2 loses output contention.
        assert!(engine.submit(7, req(1, 0, 0, 2, 1)).is_none());
        let _ = engine.run_slot(&mut out);
        let denied = out.iter().any(|r| {
            r.id == 1
                && matches!(r.verdict, Verdict::Denied { reason: DenyReason::OutputContention, .. })
        });
        assert!(denied, "requests toward a dark fiber must lose contention: {out:?}");
        // Run through the rejoin at slot 16; the surviving fiber-3 hold
        // activates at its start slot and the fiber serves traffic again.
        while engine.slot() < 22 {
            out.clear();
            engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
            let _ = engine.run_slot(&mut out);
        }
        assert_eq!(engine.pending_reservations(), 0);
        out.clear();
        assert!(engine.submit(7, req(2, 1, 0, 2, 1)).is_none());
        engine.apply_scenario(&mut rt, 0, &mut out).unwrap();
        let _ = engine.run_slot(&mut out);
        let granted = out.iter().any(|r| r.id == 2 && matches!(r.verdict, Verdict::Granted { .. }));
        assert!(granted, "a rejoined fiber serves traffic: {out:?}");
    }
}
