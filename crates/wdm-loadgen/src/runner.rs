//! The load-generation drivers: closed-loop (wait for every reply before
//! the next batch) and open-loop (submit on a fixed cadence regardless of
//! replies), both over seeded [`wdm_sim::traffic`] models so a run is
//! reproducible from its seed.
//!
//! With a compiled scenario plan attached, the generator swaps in
//! [`wdm_sim::scenario::ScenarioTraffic`] — the *same* stream the offline
//! simulator draws and the daemon's disruption timeline expects — taking
//! its seed, slot count, load shape, and holding-time model from the plan,
//! and the closed-loop report gains per-phase and during-disruption
//! breakdowns (sound because closed pacing settles every batch before the
//! next slot, so each reply attributes to exactly one plan slot).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use wdm_interconnect::ConnectionRequest;
use wdm_scenario::CompiledPlan;
use wdm_serve::protocol::{DenyReason, Frame, ProtocolError, ReserveRequest, SubmitRequest};
use wdm_serve::Client;
use wdm_sim::scenario::{duration_model, ScenarioTraffic};
use wdm_sim::traffic::{BernoulliUniform, DurationModel, TrafficModel};

use crate::histogram::LatencyHistogram;

/// Reservation wire ids live in their own namespace so a reply can be
/// classified as cell-path or reservation-path by its id alone — cell ids
/// count up from zero and would need ~146 years at 10⁹ requests/s to reach
/// this base.
pub const RESERVE_ID_BASE: u64 = 1 << 62;

/// How the generator paces itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Submit a batch, wait for all its replies, repeat — measures grant
    /// latency under lockstep load (latency ≈ slot period).
    Closed,
    /// Submit a batch every `interval`, reading replies on a separate
    /// thread — measures behavior when arrivals don't wait for service.
    Open {
        /// Gap between consecutive batch submissions.
        interval: Duration,
    },
}

/// Configuration of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Pacing mode.
    pub mode: Mode,
    /// Per-channel Bernoulli load in `[0, 1]`.
    pub load: f64,
    /// Traffic batches (slots of arrivals) to generate.
    pub batches: u64,
    /// RNG seed — same seed, same request stream.
    pub seed: u64,
    /// Mean connection holding time in slots (1 = optical packets).
    pub mean_duration: f64,
    /// Probability per batch of also placing one advance reservation
    /// (closed mode only; `0.0` disables and is the default path).
    pub reserve_fraction: f64,
    /// How many slots ahead each reservation books its start (RESERVE
    /// `start_in`).
    pub reserve_lead: u32,
    /// Send SHUTDOWN to the daemon when done.
    pub shutdown_server: bool,
    /// Drive a compiled scenario plan instead of the flat Bernoulli
    /// stream: the plan's seed, slot count, load shape, and holding-time
    /// model override `load`/`batches`/`seed`/`mean_duration`, and the
    /// server's advertised topology must match the plan's.
    pub scenario: Option<Arc<CompiledPlan>>,
}

/// What a run observed — the measurement artifact consumed by BENCH_4 and
/// the CI smoke gate. Every field is load-bearing: dropping the report
/// silently discards the measurement, hence `must_use`.
#[derive(Debug, Clone, Serialize)]
#[must_use]
pub struct LoadReport {
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Scheduling policy the server advertised.
    pub policy: String,
    /// Fibers per side.
    pub n: u32,
    /// Wavelengths per fiber.
    pub k: u32,
    /// Requests submitted.
    pub requests: u64,
    /// Requests granted.
    pub grants: u64,
    /// Denies: shard admission queue full (overload, retryable).
    pub denies_queue_full: u64,
    /// Denies: source channel busy with an in-flight connection.
    pub denies_source_busy: u64,
    /// Denies: lost the wavelength-level output contention.
    pub denies_contention: u64,
    /// Denies: malformed/out-of-range request — always a bug somewhere.
    pub denies_invalid: u64,
    /// SLOT_COMPLETE frames observed.
    pub slots: u64,
    /// Wall-clock seconds over the measured section.
    pub elapsed_s: f64,
    /// Observed slot rate.
    pub slots_per_sec: f64,
    /// Grant latency percentiles, submit → GRANT frame received, in ns.
    pub p50_grant_latency_ns: u64,
    /// 99th percentile grant latency (ns).
    pub p99_grant_latency_ns: u64,
    /// 99.9th percentile grant latency (ns).
    pub p999_grant_latency_ns: u64,
    /// Largest observed grant latency (ns).
    pub max_grant_latency_ns: u64,
    /// RESERVE frames sent.
    pub reservations: u64,
    /// Reservations admitted (RESERVE_ACK received).
    pub reservation_acks: u64,
    /// Reservations that activated into a granted connection.
    pub reservation_grants: u64,
    /// Reservations that expired at their start slot (hold timed out
    /// against live contention — normal under load, not a bug).
    pub reservation_expiries: u64,
    /// Reservations denied at admission: no future slot capacity.
    pub reserve_denied_capacity: u64,
    /// Reservations denied at admission: start slot beyond the horizon.
    pub reserve_denied_horizon: u64,
    /// Reservation latency (RESERVE sent → activation GRANT received)
    /// percentiles, bucketed by requested hold duration.
    pub reservation_latency_by_duration: Vec<DurationLatency>,
    /// Per-phase cell-path breakdown, in plan timeline order. Populated
    /// only for closed-loop scenario runs; empty otherwise (open-loop
    /// replies are not attributable to a single plan slot).
    pub phases: Vec<PhaseWindow>,
    /// Cell-path tallies over the slots where the plan holds at least one
    /// disruption open. All-zero outside closed-loop scenario runs.
    pub during_disruption: WindowTally,
}

/// Cell-path tallies over one window of plan slots.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct WindowTally {
    /// Plan slots attributed to this window.
    pub slots: u64,
    /// Cell requests submitted during the window.
    pub requests: u64,
    /// Grants received for those requests.
    pub grants: u64,
    /// Denies received for those requests (all reasons).
    pub denies: u64,
}

/// One plan phase's window tallies.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseWindow {
    /// Phase name from the scenario file.
    pub name: String,
    /// What the phase's slots observed.
    pub tally: WindowTally,
}

/// Reservation-grant latency percentiles for one requested hold duration.
#[derive(Debug, Clone, Serialize)]
pub struct DurationLatency {
    /// Requested hold duration in slots.
    pub duration: u32,
    /// Activation grants observed in this bucket.
    pub count: u64,
    /// Median latency (ns), RESERVE sent → GRANT received.
    pub p50_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// Largest observed latency (ns).
    pub max_ns: u64,
}

impl LoadReport {
    /// True when no reply indicated a bug (denies are fine; *invalid*
    /// denies and protocol errors are not — that's the CI smoke gate).
    pub fn clean(&self) -> bool {
        self.denies_invalid == 0
    }
}

/// Shared reply bookkeeping.
#[derive(Debug, Default)]
struct Tally {
    grants: u64,
    queue_full: u64,
    source_busy: u64,
    contention: u64,
    invalid: u64,
    slots: u64,
}

impl Tally {
    /// Cell-path denies across every reason.
    fn denies(&self) -> u64 {
        self.queue_full + self.source_busy + self.contention + self.invalid
    }

    /// Folds one frame in; returns how many outstanding replies it settled.
    fn observe(&mut self, frame: &Frame) -> u64 {
        match frame {
            Frame::Grant { .. } => {
                self.grants += 1;
                1
            }
            Frame::Deny { reason, .. } => {
                match reason {
                    DenyReason::QueueFull => self.queue_full += 1,
                    DenyReason::SourceBusy => self.source_busy += 1,
                    DenyReason::OutputContention => self.contention += 1,
                    DenyReason::InvalidRequest => self.invalid += 1,
                    // Reservation-admission reasons never apply to the
                    // cell path; one leaking here is a protocol bug, and
                    // `invalid` is the counter the CI clean gate watches.
                    DenyReason::CapacityExhausted | DenyReason::HorizonExceeded => {
                        self.invalid += 1;
                    }
                }
                1
            }
            Frame::SlotComplete { .. } => {
                self.slots += 1;
                0
            }
            _ => 0,
        }
    }
}

/// Reservation-session bookkeeping (closed mode only; stays all-zero when
/// `reserve_fraction` is 0 or the run is open-loop).
#[derive(Debug, Default)]
struct ReserveStats {
    requested: u64,
    acks: u64,
    grants: u64,
    expiries: u64,
    denied_capacity: u64,
    denied_horizon: u64,
    by_duration: std::collections::BTreeMap<u32, LatencyHistogram>,
}

impl ReserveStats {
    fn report_buckets(&self) -> Vec<DurationLatency> {
        self.by_duration
            .iter()
            .map(|(&duration, hist)| DurationLatency {
                duration,
                count: hist.count(),
                p50_ns: hist.value_at_percentile(50.0),
                p99_ns: hist.value_at_percentile(99.0),
                max_ns: hist.max(),
            })
            .collect()
    }
}

/// Per-window accumulators a closed-loop scenario run carries alongside
/// the flat tallies; empty (and all-zero) everywhere else.
#[derive(Debug, Default)]
struct ScenarioWindows {
    phases: Vec<PhaseWindow>,
    during_disruption: WindowTally,
}

impl ScenarioWindows {
    fn for_plan(plan: &CompiledPlan) -> ScenarioWindows {
        ScenarioWindows {
            phases: plan
                .phases()
                .iter()
                .map(|p| PhaseWindow { name: p.name.clone(), tally: WindowTally::default() })
                .collect(),
            during_disruption: WindowTally::default(),
        }
    }

    /// Attributes one settled plan slot's deltas to its phase and, when
    /// the plan holds a disruption open at that slot, to the disruption
    /// window.
    fn record(&mut self, plan: &CompiledPlan, slot: u64, requests: u64, grants: u64, denies: u64) {
        if let Some(phase) = self.phases.get_mut(plan.phase_index(slot)) {
            phase.tally.slots += 1;
            phase.tally.requests += requests;
            phase.tally.grants += grants;
            phase.tally.denies += denies;
        }
        if plan.is_disrupted(slot) {
            self.during_disruption.slots += 1;
            self.during_disruption.requests += requests;
            self.during_disruption.grants += grants;
            self.during_disruption.denies += denies;
        }
    }
}

/// Runs one load-generation session against a live daemon.
///
/// Reservation sessions (`reserve_fraction > 0`) require closed-loop
/// pacing: the open-loop collector has no submit-instant bookkeeping for
/// multi-slot holds, so mixing them is rejected up front rather than
/// silently mismeasured.
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, ProtocolError> {
    if config.reserve_fraction > 0.0 && matches!(config.mode, Mode::Open { .. }) {
        return Err(ProtocolError::UnexpectedFrame {
            got: "open-loop pacing with --reserve-fraction",
            expected: "closed mode for reservation sessions",
        });
    }
    let client = Client::connect(&config.addr)?;
    let (n, k) = (client.n(), client.k());
    let policy = client.policy().to_owned();
    if let Some(plan) = config.scenario.as_deref() {
        // The daemon applies the plan's disruptions to *its* topology; a
        // mismatched generator would submit out-of-range channels and the
        // per-slot windows would describe a different fabric.
        if plan.n() != n as usize || plan.k() != k as usize {
            return Err(ProtocolError::Scenario {
                message: format!(
                    "plan is for n={} k={} but the server serves n={n} k={k}",
                    plan.n(),
                    plan.k(),
                ),
            });
        }
    }
    let duration = match config.scenario.as_deref() {
        Some(plan) => duration_model(plan.duration()),
        None if config.mean_duration <= 1.0 => DurationModel::Deterministic(1),
        None => DurationModel::Geometric { mean: config.mean_duration },
    };
    let seed = config.scenario.as_deref().map_or(config.seed, CompiledPlan::seed);
    let batches = config.scenario.as_deref().map_or(config.batches, CompiledPlan::total_slots);
    let mut rng = StdRng::seed_from_u64(seed);

    let (mode_name, tally, hist, requests, elapsed, reserve, windows) = match &config.scenario {
        Some(plan) => {
            let mut traffic = ScenarioTraffic::new(Arc::clone(plan));
            drive(client, config, duration, batches, Some(plan), &mut traffic, &mut rng)?
        }
        None => {
            let mut traffic = BernoulliUniform::new(n as usize, k as usize, config.load, duration);
            drive(client, config, duration, batches, None, &mut traffic, &mut rng)?
        }
    };

    let elapsed_s = elapsed.as_secs_f64();
    Ok(LoadReport {
        mode: mode_name.to_owned(),
        policy,
        n,
        k,
        requests,
        grants: tally.grants,
        denies_queue_full: tally.queue_full,
        denies_source_busy: tally.source_busy,
        denies_contention: tally.contention,
        denies_invalid: tally.invalid,
        slots: tally.slots,
        elapsed_s,
        slots_per_sec: if elapsed_s > 0.0 { tally.slots as f64 / elapsed_s } else { 0.0 },
        p50_grant_latency_ns: hist.value_at_percentile(50.0),
        p99_grant_latency_ns: hist.value_at_percentile(99.0),
        p999_grant_latency_ns: hist.value_at_percentile(99.9),
        max_grant_latency_ns: hist.max(),
        reservations: reserve.requested,
        reservation_acks: reserve.acks,
        reservation_grants: reserve.grants,
        reservation_expiries: reserve.expiries,
        reserve_denied_capacity: reserve.denied_capacity,
        reserve_denied_horizon: reserve.denied_horizon,
        reservation_latency_by_duration: reserve.report_buckets(),
        phases: windows.phases,
        during_disruption: windows.during_disruption,
    })
}

/// Dispatches on pacing mode over any traffic model.
#[allow(clippy::type_complexity)]
fn drive<T: TrafficModel>(
    client: Client,
    config: &LoadgenConfig,
    duration: DurationModel,
    batches: u64,
    scenario: Option<&CompiledPlan>,
    traffic: &mut T,
    rng: &mut StdRng,
) -> Result<
    (&'static str, Tally, LatencyHistogram, u64, Duration, ReserveStats, ScenarioWindows),
    ProtocolError,
> {
    match config.mode {
        Mode::Closed => {
            let (t, h, r, e, rs, w) =
                run_closed(client, config, duration, batches, scenario, traffic, rng)?;
            Ok(("closed", t, h, r, e, rs, w))
        }
        Mode::Open { interval } => {
            let (t, h, r, e) = run_open(client, config, interval, batches, traffic, rng)?;
            Ok(("open", t, h, r, e, ReserveStats::default(), ScenarioWindows::default()))
        }
    }
}

/// Converts one generated slot of traffic into a SUBMIT batch, assigning
/// sequential ids starting at `next_id`.
fn to_batch(requests: &[ConnectionRequest], next_id: &mut u64, out: &mut Vec<SubmitRequest>) {
    out.clear();
    for r in requests {
        out.push(SubmitRequest {
            id: *next_id,
            src_fiber: u32::try_from(r.src_fiber).unwrap_or(u32::MAX),
            src_wavelength: u32::try_from(r.src_wavelength).unwrap_or(u32::MAX),
            dst_fiber: u32::try_from(r.dst_fiber).unwrap_or(u32::MAX),
            duration: r.duration,
        });
        *next_id += 1;
    }
}

/// In-flight reservation state on the client side, keyed by wire id.
/// `awaiting_ack` holds RESERVE frames whose admission verdict hasn't
/// arrived; `awaiting_activation` holds admitted reservations waiting for
/// their start slot's GRANT (or expiry DENY).
#[derive(Debug, Default)]
struct ReserveTracker {
    awaiting_ack: std::collections::HashMap<u64, (Instant, u32)>,
    awaiting_activation: std::collections::HashMap<u64, (Instant, u32)>,
}

impl ReserveTracker {
    /// Folds one frame in if it belongs to the reservation id namespace.
    /// Returns `Some(settled)` — how many *admission-outstanding* replies
    /// it settled (activation grants/expiries arrive slots later and
    /// settle 0) — or `None` for cell-path frames the caller should hand
    /// to [`Tally::observe`].
    fn observe(
        &mut self,
        frame: &Frame,
        stats: &mut ReserveStats,
        tally: &mut Tally,
    ) -> Option<u64> {
        match frame {
            Frame::ReserveAck { id, .. } => {
                if let Some(info) = self.awaiting_ack.remove(id) {
                    self.awaiting_activation.insert(*id, info);
                    stats.acks += 1;
                }
                Some(1)
            }
            Frame::Grant { id, .. } if *id >= RESERVE_ID_BASE => {
                if let Some((sent, duration)) = self.awaiting_activation.remove(id) {
                    stats.grants += 1;
                    let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    stats.by_duration.entry(duration).or_default().record(ns);
                }
                Some(0)
            }
            Frame::Deny { id, reason, .. } if *id >= RESERVE_ID_BASE => {
                if self.awaiting_ack.remove(id).is_some() {
                    match reason {
                        DenyReason::CapacityExhausted => stats.denied_capacity += 1,
                        DenyReason::HorizonExceeded => stats.denied_horizon += 1,
                        // Admission can also deny InvalidRequest; the
                        // generator only emits in-range reservations, so
                        // that (or any other reason here) is a bug the
                        // clean gate must catch.
                        _ => tally.invalid += 1,
                    }
                    Some(1)
                } else {
                    // Start-slot expiry: the hold lost to live traffic
                    // (SourceBusy / OutputContention). Normal under load.
                    self.awaiting_activation.remove(id);
                    stats.expiries += 1;
                    Some(0)
                }
            }
            _ => None,
        }
    }
}

/// Builds one in-range reservation. Durations are clamped to ≥ 2 slots so
/// every reservation session exercises a genuinely multi-slot hold even
/// under the packet-mode (`mean_duration = 1`) traffic model.
fn make_reservation(
    seq: &mut u64,
    n: u32,
    k: u32,
    lead: u32,
    duration: DurationModel,
    rng: &mut StdRng,
) -> ReserveRequest {
    let id = RESERVE_ID_BASE + *seq;
    *seq += 1;
    ReserveRequest {
        id,
        src_fiber: rng.gen_range(0..n),
        src_wavelength: rng.gen_range(0..k),
        dst_fiber: rng.gen_range(0..n),
        start_in: lead,
        duration: duration.sample(rng).max(2),
    }
}

#[allow(clippy::type_complexity)]
fn run_closed<T: TrafficModel>(
    mut client: Client,
    config: &LoadgenConfig,
    duration: DurationModel,
    batches: u64,
    scenario: Option<&CompiledPlan>,
    traffic: &mut T,
    rng: &mut StdRng,
) -> Result<(Tally, LatencyHistogram, u64, Duration, ReserveStats, ScenarioWindows), ProtocolError>
{
    let (n, k) = (client.n(), client.k());
    let mut tally = Tally::default();
    let mut hist = LatencyHistogram::new();
    let mut stats = ReserveStats::default();
    let mut tracker = ReserveTracker::default();
    let mut windows = scenario.map(ScenarioWindows::for_plan).unwrap_or_default();
    let mut generated = Vec::new();
    let mut batch = Vec::new();
    let mut next_id = 0u64;
    let mut reserve_seq = 0u64;
    let mut requests = 0u64;
    let start = Instant::now();
    for slot in 0..batches {
        traffic.generate_into(rng, slot, &mut generated);
        to_batch(&generated, &mut next_id, &mut batch);
        let reservation =
            if config.reserve_fraction > 0.0 && rng.gen_range(0.0..1.0) < config.reserve_fraction {
                Some(make_reservation(&mut reserve_seq, n, k, config.reserve_lead, duration, rng))
            } else {
                None
            };
        let before = (tally.grants, tally.denies());
        if !batch.is_empty() || reservation.is_some() {
            requests += batch.len() as u64;
            let submitted = Instant::now();
            if !batch.is_empty() {
                client.submit(&batch)?;
            }
            let mut outstanding = batch.len() as u64;
            if let Some(request) = reservation {
                tracker.awaiting_ack.insert(request.id, (Instant::now(), request.duration));
                stats.requested += 1;
                client.reserve(request)?;
                outstanding += 1;
            }
            while outstanding > 0 {
                let frame = client.next_frame()?;
                if let Frame::Error { code, message } = frame {
                    return Err(ProtocolError::ServerError { code, message });
                }
                if let Some(settled) = tracker.observe(&frame, &mut stats, &mut tally) {
                    outstanding = outstanding.saturating_sub(settled);
                    continue;
                }
                let settled = tally.observe(&frame);
                if settled > 0 {
                    if matches!(frame, Frame::Grant { .. }) {
                        let ns = u64::try_from(submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        hist.record(ns);
                    }
                    outstanding -= settled;
                }
            }
        }
        // Closed pacing settled every reply above, so the tally deltas
        // belong to exactly this plan slot (empty slots still count toward
        // their window's slot total).
        if let Some(plan) = scenario {
            windows.record(
                plan,
                slot,
                batch.len() as u64,
                tally.grants - before.0,
                tally.denies() - before.1,
            );
        }
    }
    // Admitted reservations with start slots beyond the last batch are
    // still in flight; the daemon keeps executing slots while holds are
    // pending, so every one resolves to a GRANT or an expiry DENY.
    while !tracker.awaiting_activation.is_empty() {
        let frame = client.next_frame()?;
        if let Frame::Error { code, message } = frame {
            return Err(ProtocolError::ServerError { code, message });
        }
        if tracker.observe(&frame, &mut stats, &mut tally).is_none() {
            let _ = tally.observe(&frame);
        }
    }
    let elapsed = start.elapsed();
    if config.shutdown_server {
        client.send_shutdown()?;
        drain_until_close(&mut client);
    }
    Ok((tally, hist, requests, elapsed, stats, windows))
}

/// Depth of the bounded submit-instant queue feeding the open-loop
/// collector. It holds the in-flight window only (the collector drains on
/// every grant), so this covers thousands of outstanding requests before
/// any latency sample is shed.
const TIME_QUEUE_DEPTH: usize = 16 * 1024;

fn run_open<T: TrafficModel>(
    client: Client,
    config: &LoadgenConfig,
    interval: Duration,
    batches: u64,
    traffic: &mut T,
    rng: &mut StdRng,
) -> Result<(Tally, LatencyHistogram, u64, Duration), ProtocolError> {
    let (mut reader, mut writer) = client.into_split();
    // Submit instants flow to the reader thread alongside the wire, keyed
    // by request id so a dropped sample cannot misalign later ones. The
    // channel is bounded (the workspace bans unbounded queues): under
    // normal pacing the collector drains it every grant, and if it ever
    // fills, `try_send` sheds the latency *sample* — never the request.
    let (time_tx, time_rx) = std::sync::mpsc::sync_channel::<(u64, Instant)>(TIME_QUEUE_DEPTH);
    let collector = std::thread::spawn(move || {
        let mut tally = Tally::default();
        let mut hist = LatencyHistogram::new();
        let mut submit_times: std::collections::HashMap<u64, Instant> =
            std::collections::HashMap::new();
        // A read error — the server closing the socket after SHUTDOWN — is
        // the normal end of an open-loop run.
        while let Ok(frame) = reader.next_frame() {
            let _ = tally.observe(&frame);
            if let Frame::Grant { id, .. } = frame {
                for (sent_id, t0) in time_rx.try_iter() {
                    submit_times.insert(sent_id, t0);
                }
                if let Some(t0) = submit_times.remove(&id) {
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    hist.record(ns);
                }
            }
        }
        (tally, hist)
    });

    let mut generated = Vec::new();
    let mut batch = Vec::new();
    let mut next_id = 0u64;
    let mut requests = 0u64;
    let mut shed_samples = 0u64;
    let start = Instant::now();
    let mut next_send = start;
    for slot in 0..batches {
        traffic.generate_into(rng, slot, &mut generated);
        to_batch(&generated, &mut next_id, &mut batch);
        let now = Instant::now();
        if let Some(sleep) = next_send.checked_duration_since(now) {
            std::thread::sleep(sleep);
        }
        next_send += interval;
        let first_id = next_id - batch.len() as u64;
        for offset in 0..batch.len() as u64 {
            // A full queue or a finished collector loses only this latency
            // sample; the request itself still goes on the wire below.
            match time_tx.try_send((first_id + offset, Instant::now())) {
                Ok(()) => {}
                Err(_) => shed_samples += 1,
            }
        }
        if !batch.is_empty() {
            writer.submit(&batch)?;
            requests += batch.len() as u64;
        }
    }
    // Give in-flight replies a grace period, then stop the daemon (which
    // closes the socket and ends the collector).
    std::thread::sleep(interval.max(Duration::from_millis(20)) * 4);
    let elapsed = start.elapsed();
    if config.shutdown_server {
        writer.send_shutdown()?;
    }
    drop(writer);
    drop(time_tx);
    let Ok((tally, hist)) = collector.join() else {
        return Err(ProtocolError::Disconnected);
    };
    if shed_samples > 0 {
        eprintln!("loadgen: shed {shed_samples} latency samples (submit-instant queue full)");
    }
    Ok((tally, hist, requests, elapsed))
}

/// Reads until the server closes the socket (post-SHUTDOWN drain).
fn drain_until_close(client: &mut Client) {
    while client.next_frame().is_ok() {}
}
