//! `engine_heavy`: the daemon's decision core without TCP. Each slot the
//! benchmark calls `SlotEngine::reserve`, `submit` and `run_slot`
//! directly, as the daemon's coordinator does once per slot.
//!
//! Traffic: `N = 8` fibers, Bernoulli load 0.5 per input channel with
//! geometric holds of mean 2 slots (≈ 256 requests per slot, so output
//! channels are occupied and sources busy, paper §V), plus 2 advance
//! reservations per slot with leads of 1–16 slots. The timed span is the
//! slot's `reserve` and `submit` calls plus `run_slot`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wdm_interconnect::{ConnectionRequest, ReservationRequest};
use wdm_serve::{
    DenyReason, EngineConfig, Reply, ReserveRequest, SlotEngine, SubmitRequest, Verdict,
};
use wdm_sim::traffic::{BernoulliUniform, DurationModel, ReservationTraffic, TrafficModel};

use crate::replay::{InterconnectReplay, SchedulerReplay, TraceCtx};
use crate::spans::{Layer, Spans};
use crate::{conversion, Fingerprint, LayerCounts, Measured, Plan, Session, Tally, POLICY};

/// Fibers per side.
pub const N: usize = 8;
/// Per-channel arrival probability.
pub const LOAD: f64 = 0.5;
/// Mean holding time, slots.
pub const MEAN_HOLD: f64 = 2.0;
/// Advance reservations per slot.
pub const RESERVATIONS_PER_SLOT: f64 = 2.0;
/// Longest reservation lead, slots.
pub const MAX_LEAD: u32 = 16;
/// Reservation request ids start here; cell ids count up from 0.
const RESERVE_ID_BASE: u64 = 1 << 62;
const SALT: u64 = 0xe461_0002;

/// The run sizes of this workload.
pub const PLAN: Plan =
    Plan { setup_reps: 21, warmup_slots: 32, chunk: 500, grant_slots: 20_000, trace_slots: 15_000 };

fn engine_config() -> EngineConfig {
    EngineConfig::new(N, conversion(), POLICY)
}

/// The seeded input generators: cells and reservations share one stream.
#[derive(Debug)]
struct Inputs {
    rng: StdRng,
    cells: BernoulliUniform,
    reservations: ReservationTraffic,
    generated: Vec<ConnectionRequest>,
    arrivals: Vec<ReservationRequest>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let hold = DurationModel::Geometric { mean: MEAN_HOLD };
        Inputs {
            rng: StdRng::seed_from_u64(seed ^ SALT),
            cells: BernoulliUniform::new(N, crate::K, LOAD, hold),
            reservations: ReservationTraffic::new(
                N,
                crate::K,
                RESERVATIONS_PER_SLOT,
                MAX_LEAD,
                hold,
            ),
            generated: Vec::with_capacity(N * crate::K),
            arrivals: Vec::with_capacity(8),
        }
    }

    fn generate(&mut self, slot: u64) {
        self.reservations.generate_into(&mut self.rng, slot, &mut self.arrivals);
        self.cells.generate_into(&mut self.rng, slot, &mut self.generated);
    }
}

/// A `SlotEngine` driven slot by slot.
#[derive(Debug)]
pub struct HeavySession {
    engine: SlotEngine,
    inputs: Inputs,
    submits: Vec<SubmitRequest>,
    reserves: Vec<ReserveRequest>,
    answers: Vec<Reply>,
    replies: Vec<Reply>,
    seen: Vec<bool>,
    next_id: u64,
    next_reserve_id: u64,
    slot: u64,
    tally: Tally,
    counts: LayerCounts,
    fingerprint: Fingerprint,
    below: Option<(InterconnectReplay, Vec<Option<u64>>)>,
}

/// Opens a session: builds the engine.
pub fn open(seed: u64, traced: bool) -> Result<HeavySession, String> {
    let below = if traced {
        Some((InterconnectReplay::new(N, Some(SchedulerReplay::new(N, false)))?, Vec::new()))
    } else {
        None
    };
    Ok(HeavySession {
        engine: SlotEngine::new(engine_config()).map_err(|e| e.to_string())?,
        inputs: Inputs::new(seed),
        submits: Vec::with_capacity(N * crate::K),
        reserves: Vec::with_capacity(8),
        answers: Vec::with_capacity(N * crate::K),
        replies: Vec::with_capacity(2 * N * crate::K),
        seen: Vec::with_capacity(N * crate::K),
        next_id: 0,
        next_reserve_id: RESERVE_ID_BASE,
        slot: 0,
        tally: Tally::default(),
        counts: LayerCounts::default(),
        fingerprint: Fingerprint::default(),
        below,
    })
}

impl HeavySession {
    /// The per-slot outcome fingerprint of the session so far.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Checks the slot's replies: every cell request answered exactly once
    /// and never `InvalidRequest`/`QueueFull`, every reservation answered
    /// at admission, activation verdicts matching the engine's summary.
    /// Returns the cell grants.
    fn settle(&mut self, first_id: u64, summary: wdm_serve::SlotSummary) -> u64 {
        let len = self.submits.len();
        self.seen.clear();
        self.seen.resize(len, false);
        let (mut cell_grants, mut activated, mut expired, mut failed) = (0u64, 0, 0, 0u64);
        for r in &self.answers {
            let admission_answer = matches!(
                r.verdict,
                Verdict::Reserved { .. }
                    | Verdict::Denied {
                        reason: DenyReason::CapacityExhausted | DenyReason::HorizonExceeded,
                        ..
                    }
            );
            if r.id < RESERVE_ID_BASE || !admission_answer {
                // A cell denied at admission, or a reservation refused
                // for a reason other than capacity or horizon.
                failed += 1;
            }
        }
        for r in &self.replies {
            if r.id >= RESERVE_ID_BASE {
                match r.verdict {
                    Verdict::Granted { .. } => activated += 1,
                    Verdict::Denied { .. } => expired += 1,
                    Verdict::Reserved { .. } => failed += 1,
                }
                continue;
            }
            let index = r.id.checked_sub(first_id).map(|i| i as usize).filter(|&i| i < len);
            match index {
                Some(i) if !std::mem::replace(&mut self.seen[i], true) => {}
                _ => failed += 1,
            }
            match r.verdict {
                Verdict::Granted { .. } => cell_grants += 1,
                Verdict::Denied {
                    reason: DenyReason::InvalidRequest | DenyReason::QueueFull,
                    ..
                }
                | Verdict::Reserved { .. } => failed += 1,
                Verdict::Denied { .. } => {}
            }
        }
        failed += self.seen.iter().filter(|s| !**s).count() as u64;
        if activated != summary.reservation_grants
            || expired != summary.reservation_expiries
            || cell_grants != summary.grants as u64
        {
            failed += 1;
        }
        self.tally.failed += failed;
        cell_grants
    }
}

impl Session for HeavySession {
    fn slot(&mut self, mut spans: Option<&mut Spans>) -> Result<Option<u64>, String> {
        let slot = self.slot;
        let gen_start = Instant::now();
        self.inputs.generate(slot);
        let first_id = self.next_id;
        self.submits.clear();
        for r in &self.inputs.generated {
            self.submits.push(SubmitRequest {
                id: self.next_id,
                src_fiber: r.src_fiber as u32,
                src_wavelength: r.src_wavelength as u32,
                dst_fiber: r.dst_fiber as u32,
                duration: r.duration,
            });
            self.next_id += 1;
        }
        self.reserves.clear();
        for r in &self.inputs.arrivals {
            self.reserves.push(ReserveRequest {
                id: self.next_reserve_id,
                src_fiber: r.src_fiber as u32,
                src_wavelength: r.src_wavelength as u32,
                dst_fiber: r.dst_fiber as u32,
                start_in: (r.start_slot - slot) as u32,
                duration: r.duration,
            });
            self.next_reserve_id += 1;
        }
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("traffic.generate", Layer::Traffic, None, slot, gen_start, Instant::now());
        }

        self.answers.clear();
        self.replies.clear();
        let start = Instant::now();
        for r in &self.reserves {
            self.answers.push(self.engine.reserve(0, *r));
        }
        let reserved = Instant::now();
        for r in &self.submits {
            if let Some(deny) = self.engine.submit(0, *r) {
                self.answers.push(deny);
            }
        }
        let submitted = Instant::now();
        let summary = self.engine.run_slot(&mut self.replies);
        let done = Instant::now();

        let admitted =
            self.answers.iter().filter(|r| matches!(r.verdict, Verdict::Reserved { .. })).count()
                as u64;
        let grants = self.settle(first_id, summary);
        let n = self.submits.len() as u64;
        self.tally.slots += 1;
        self.tally.offered += n;
        self.tally.granted += grants;
        self.tally.attempted += n + self.reserves.len() as u64;
        self.counts.engine_submits += n;
        self.counts.engine_replies += (self.answers.len() + self.replies.len()) as u64;
        self.counts.reserve_attempted += self.reserves.len() as u64;
        self.counts.reserve_admitted += admitted;
        self.counts.reserve_expired += summary.reservation_expiries as u64;
        let outcome = [
            slot,
            summary.grants as u64,
            summary.reservation_grants as u64,
            summary.reservation_expiries as u64,
            admitted,
        ];
        self.fingerprint.push(&outcome);

        if let Some((below, ids)) = self.below.as_mut() {
            let (reserve_span, run_span) = match spans.as_deref_mut() {
                Some(spans) => {
                    let r =
                        spans.record("engine.reserve", Layer::Engine, None, slot, start, reserved);
                    spans.record("engine.submit", Layer::Engine, None, slot, reserved, submitted);
                    let s =
                        spans.record("engine.run_slot", Layer::Engine, None, slot, submitted, done);
                    (Some(r), Some(s))
                }
                None => (None, None),
            };
            let ctx = match (spans.as_deref_mut(), reserve_span) {
                (Some(spans), Some(parent)) => Some(TraceCtx { spans, parent: Some(parent), slot }),
                _ => None,
            };
            let replay_admitted = below.reserve(&self.inputs.arrivals, ids, ctx);
            let ctx = match (spans, run_span) {
                (Some(spans), Some(parent)) => Some(TraceCtx { spans, parent: Some(parent), slot }),
                _ => None,
            };
            let result = below.advance(&self.inputs.generated, ctx)?;
            let replayed = [
                slot,
                result.grants.len() as u64,
                result.reservation_grants.len() as u64,
                result.reservation_expired.len() as u64,
                replay_admitted as u64,
            ];
            if replayed != outcome {
                return Err(format!(
                    "slot {slot}: interconnect replay (grants, reservation grants, expiries, admitted) = {:?} but the engine reported {:?}",
                    &replayed[1..],
                    &outcome[1..]
                ));
            }
            below.check_paths(self.engine.warm_stats(), slot)?;
            self.counts.interconnect = below.counts();
        }
        self.slot += 1;
        Ok(Some(u64::try_from(done.duration_since(start).as_nanos()).unwrap_or(u64::MAX)))
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn counts(&self) -> LayerCounts {
        LayerCounts { scheduler: self.engine.warm_stats(), ..self.counts }
    }

    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

/// Replays the session's inputs through a bare `Interconnect` in the
/// engine's drain order and compares cell grants, reservation grants,
/// expiries and admissions slot by slot.
pub fn verify(seed: u64, live: &Fingerprint, slots: u64) -> Result<(), String> {
    let mut inputs = Inputs::new(seed);
    let mut below = InterconnectReplay::new(N, None)?;
    let mut ids = Vec::new();
    let mut replay = Fingerprint::default();
    for slot in 0..slots {
        inputs.generate(slot);
        let admitted = below.reserve(&inputs.arrivals, &mut ids, None);
        let result = below.advance(&inputs.generated, None)?;
        replay.push(&[
            slot,
            result.grants.len() as u64,
            result.reservation_grants.len() as u64,
            result.reservation_expired.len() as u64,
            admitted as u64,
        ]);
    }
    match live.first_difference(&replay) {
        None => Ok(()),
        Some(at) => Err(format!(
            "the Interconnect replay differs from the engine in the block starting at slot {at}"
        )),
    }
}

/// Runs the untraced measurement and its gates.
pub fn run(seed: u64, seconds: f64) -> Result<Measured, String> {
    let (mut measured, session) = crate::measure(open, seed, &PLAN, seconds)?;
    let fingerprint = session.fingerprint().clone();
    let slots = session.slot;
    session.finish()?;
    measured.gates.push(("engine.interconnect_replay", verify(seed, &fingerprint, slots).err()));
    Ok(measured)
}
