//! Replays of one slot below the layer the benchmark drives.
//!
//! [`InterconnectReplay`] feeds a bare `Interconnect` the batch in the
//! `SlotEngine`'s drain order (a stable sort by destination fiber) with
//! the same reservations; [`SchedulerReplay`] replays every output fiber
//! through its own `FiberScheduler::schedule_slot`, rebuilding the
//! candidates and the occupied-channel mask from the `SlotResult` the
//! layer above reported. Each replay must reproduce the grant counts of
//! the layer above exactly, or the replay returns an error.

use std::time::Instant;

use wdm_core::{ChannelMask, FiberScheduler, RequestVector, ScratchArena, WarmStats};
use wdm_interconnect::{
    ConnectionRequest, Interconnect, InterconnectConfig, RejectReason, ReservationRequest,
    SlotResult, DEFAULT_RESERVATION_HORIZON,
};

use crate::spans::{Layer, SpanId, Spans};
use crate::{conversion, POLICY};

/// Where a replay records its spans: the recorder, the parent span (the
/// call whose work is being replayed) and the slot.
#[derive(Debug)]
pub struct TraceCtx<'a> {
    /// The recorder.
    pub spans: &'a mut Spans,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The slot being replayed.
    pub slot: u64,
}

impl TraceCtx<'_> {
    /// The same recorder and slot under another parent.
    pub fn child(&mut self, parent: SpanId) -> TraceCtx<'_> {
        TraceCtx { spans: self.spans, parent: Some(parent), slot: self.slot }
    }
}

/// One output fiber's mirror: its scheduler and arena, and its in-flight
/// connections as `(output channel, slots left)`, aged like the engine's.
#[derive(Debug)]
struct FiberMirror {
    scheduler: FiberScheduler,
    arena: ScratchArena,
    actives: Vec<(usize, u32)>,
}

/// Replays each fiber of a slot through `FiberScheduler::schedule_slot`.
#[derive(Debug)]
pub struct SchedulerReplay {
    fibers: Vec<FiberMirror>,
    requests: Vec<RequestVector>,
    expected: Vec<usize>,
    mask: ChannelMask,
    check_cold: bool,
}

impl SchedulerReplay {
    /// A replay of `n` fibers under the benchmark's conversion and policy.
    /// With `check_cold`, every fiber-slot is also scheduled from scratch
    /// by `schedule_with_mask` and must grant exactly as many requests.
    pub fn new(n: usize, check_cold: bool) -> SchedulerReplay {
        let conv = conversion();
        let k = conv.k();
        SchedulerReplay {
            fibers: (0..n)
                .map(|_| FiberMirror {
                    scheduler: FiberScheduler::new(conv, POLICY),
                    arena: ScratchArena::for_k(k),
                    actives: Vec::with_capacity(k),
                })
                .collect(),
            requests: (0..n).map(|_| RequestVector::new(k)).collect(),
            expected: vec![0; n],
            mask: ChannelMask::all_free(k),
            check_cold,
        }
    }

    /// The replayed schedulers' repaired/fallback/cold counters, summed.
    pub fn warm_stats(&self) -> WarmStats {
        let mut total = WarmStats::default();
        for f in &self.fibers {
            let w = f.scheduler.warm_stats();
            total.repaired += w.repaired;
            total.fallback += w.fallback;
            total.cold += w.cold;
        }
        total
    }

    /// Checks that the replay took the same repaired/fallback/cold paths as
    /// the program's own schedulers (`live`, from its `warm_stats()`).
    pub fn check_paths(&self, live: WarmStats, slot: u64) -> Result<(), String> {
        let replayed = self.warm_stats();
        if replayed == live {
            Ok(())
        } else {
            Err(format!(
                "slot {slot}: scheduler replay paths {replayed:?} but the program reports {live:?}"
            ))
        }
    }

    /// Replays the slot `result` reports. Fiber schedulers run in the
    /// interconnect's order: a reservation pass over every fiber when any
    /// reservation fell due, then the cell pass.
    pub fn replay(
        &mut self,
        result: &SlotResult,
        mut trace: Option<TraceCtx<'_>>,
        slot: u64,
    ) -> Result<(), String> {
        for f in &mut self.fibers {
            f.actives.retain_mut(|a| {
                a.1 -= 1;
                a.1 > 0
            });
        }
        if result.reservations_due() > 0 {
            self.clear();
            for g in &result.reservation_grants {
                self.add(&g.grant.request, true)?;
            }
            for x in &result.reservation_expired {
                if x.rejection.reason == RejectReason::OutputContention {
                    self.add(&x.rejection.request, false)?;
                }
            }
            self.pass(trace.as_mut(), slot)?;
            for g in &result.reservation_grants {
                let f = &mut self.fibers[g.grant.request.dst_fiber];
                f.actives.push((g.grant.output_wavelength, g.grant.request.duration));
            }
        }
        self.clear();
        for g in &result.grants {
            self.add(&g.request, true)?;
        }
        for r in &result.rejections {
            if r.reason == RejectReason::OutputContention {
                self.add(&r.request, false)?;
            }
        }
        self.pass(trace.as_mut(), slot)?;
        for g in &result.grants {
            let f = &mut self.fibers[g.request.dst_fiber];
            f.actives.push((g.output_wavelength, g.request.duration));
        }
        Ok(())
    }

    fn clear(&mut self) {
        for r in &mut self.requests {
            r.clear();
        }
        self.expected.fill(0);
    }

    fn add(&mut self, request: &ConnectionRequest, granted: bool) -> Result<(), String> {
        let dst = request.dst_fiber;
        let rv = self.requests.get_mut(dst).ok_or_else(|| format!("fiber {dst} out of range"))?;
        rv.add(request.src_wavelength).map_err(|e| e.to_string())?;
        if granted {
            self.expected[dst] += 1;
        }
        Ok(())
    }

    fn pass(&mut self, mut trace: Option<&mut TraceCtx<'_>>, slot: u64) -> Result<(), String> {
        for (fiber, f) in self.fibers.iter_mut().enumerate() {
            self.mask.reset_all_free();
            for &(channel, _) in &f.actives {
                self.mask.set_occupied(channel).map_err(|e| e.to_string())?;
            }
            let start = trace.is_some().then(Instant::now);
            let stats = f.scheduler.schedule_slot(&self.requests[fiber], &self.mask, &mut f.arena);
            if let (Some(ctx), Some(start)) = (trace.as_deref_mut(), start) {
                let end = Instant::now();
                ctx.spans.record(
                    "scheduler.schedule_slot",
                    Layer::Scheduler,
                    ctx.parent,
                    ctx.slot,
                    start,
                    end,
                );
            }
            let stats = stats.map_err(|e| format!("slot {slot} fiber {fiber}: {e}"))?;
            if stats.granted != self.expected[fiber] {
                return Err(format!(
                    "slot {slot} fiber {fiber}: scheduler replay granted {} but the interconnect granted {}",
                    stats.granted, self.expected[fiber]
                ));
            }
            if self.check_cold {
                let cold = f
                    .scheduler
                    .schedule_with_mask(&self.requests[fiber], &self.mask)
                    .map_err(|e| format!("slot {slot} fiber {fiber}: {e}"))?;
                if cold.granted() != stats.granted {
                    return Err(format!(
                        "slot {slot} fiber {fiber}: warm schedule granted {} but a from-scratch schedule grants {}",
                        stats.granted,
                        cold.granted()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// What the interconnect replay saw, summed over slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterconnectCounts {
    /// Cell requests presented to `advance_slot_into`.
    pub requests: u64,
    /// Of those, refused at source admission (input channel busy).
    pub source_busy: u64,
    /// `Interconnect::reserve` calls.
    pub reserve_calls: u64,
}

impl std::ops::Sub for InterconnectCounts {
    type Output = InterconnectCounts;
    fn sub(self, o: InterconnectCounts) -> InterconnectCounts {
        InterconnectCounts {
            requests: self.requests - o.requests,
            source_busy: self.source_busy - o.source_busy,
            reserve_calls: self.reserve_calls - o.reserve_calls,
        }
    }
}

/// A bare `Interconnect` configured as `wdm_serve::SlotEngine` builds its
/// own, fed the engine's drain order.
#[derive(Debug)]
pub struct InterconnectReplay {
    ic: Interconnect,
    result: SlotResult,
    drained: Vec<ConnectionRequest>,
    scheduler: Option<SchedulerReplay>,
    counts: InterconnectCounts,
}

impl InterconnectReplay {
    /// A replay of an `n`-fiber engine; with `scheduler`, every slot is
    /// replayed further down through [`SchedulerReplay`].
    pub fn new(n: usize, scheduler: Option<SchedulerReplay>) -> Result<InterconnectReplay, String> {
        let config = InterconnectConfig::packet_switch(n, conversion())
            .with_policy(POLICY)
            .with_reservation_horizon(DEFAULT_RESERVATION_HORIZON);
        Ok(InterconnectReplay {
            ic: Interconnect::new(config).map_err(|e| e.to_string())?,
            result: SlotResult::default(),
            drained: Vec::new(),
            scheduler,
            counts: InterconnectCounts::default(),
        })
    }

    /// Counters so far.
    pub fn counts(&self) -> InterconnectCounts {
        self.counts
    }

    /// Checks the scheduler replay's paths against the program's own
    /// counters (see [`SchedulerReplay::check_paths`]); passes when there is
    /// no scheduler replay.
    pub fn check_paths(&self, live: WarmStats, slot: u64) -> Result<(), String> {
        match &self.scheduler {
            Some(scheduler) => scheduler.check_paths(live, slot),
            None => Ok(()),
        }
    }

    /// Replays the slot's reservation calls; returns how many were
    /// admitted and the ledger ids in call order through `ids`.
    pub fn reserve(
        &mut self,
        requests: &[ReservationRequest],
        ids: &mut Vec<Option<u64>>,
        trace: Option<TraceCtx<'_>>,
    ) -> usize {
        ids.clear();
        let start = trace.is_some().then(Instant::now);
        for r in requests {
            ids.push(self.ic.reserve(*r).ok());
        }
        if let (Some(ctx), Some(start)) = (trace, start) {
            let end = Instant::now();
            ctx.spans.record(
                "reservation.reserve",
                Layer::Reservation,
                ctx.parent,
                ctx.slot,
                start,
                end,
            );
        }
        self.counts.reserve_calls += requests.len() as u64;
        ids.iter().filter(|id| id.is_some()).count()
    }

    /// Replays one slot: `batch` in submission order is drained like the
    /// engine's shard queues (stable sort by destination fiber), then
    /// scheduled. Returns the slot's result.
    pub fn advance(
        &mut self,
        batch: &[ConnectionRequest],
        mut trace: Option<TraceCtx<'_>>,
    ) -> Result<&SlotResult, String> {
        let slot = self.ic.slot();
        self.drained.clear();
        self.drained.extend_from_slice(batch);
        self.drained.sort_by_key(|r| r.dst_fiber);
        let start = trace.is_some().then(Instant::now);
        let advanced = self.ic.advance_slot_into(&self.drained, &mut self.result);
        let span = match (trace.as_mut(), start) {
            (Some(ctx), Some(start)) => {
                let end = Instant::now();
                Some(ctx.spans.record(
                    "interconnect.advance_slot_into",
                    Layer::Interconnect,
                    ctx.parent,
                    ctx.slot,
                    start,
                    end,
                ))
            }
            _ => None,
        };
        advanced.map_err(|e| format!("slot {slot}: interconnect replay failed: {e}"))?;
        self.counts.requests += batch.len() as u64;
        self.counts.source_busy += self.result.source_busy_losses() as u64;
        if let Some(scheduler) = self.scheduler.as_mut() {
            let ctx = match (trace.as_mut(), span) {
                (Some(ctx), Some(span)) => Some(ctx.child(span)),
                _ => None,
            };
            scheduler.replay(&self.result, ctx, slot)?;
        }
        Ok(&self.result)
    }
}
