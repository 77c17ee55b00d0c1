//! # wdm-slotbench
//!
//! The repository's benchmark: three workloads over the paper's
//! per-output-fiber schedulers (BFA, `k = 64`, `d = 7` circular), each
//! driven from outside through the public API of the layer it exercises.
//!
//! * `serve_lockstep` — an in-process `wdm_serve::Server`, one `Client`,
//!   one batch in flight (closed loop);
//! * `engine_heavy` — the daemon's TCP-free decision core,
//!   `wdm_serve::SlotEngine`, called once per slot as the coordinator
//!   does, with advance reservations;
//! * `sim_coherent` — the simulator's slot loop over coherent streams
//!   (`CoherentStreams::generate_into` + `Interconnect::advance_slot_into`).
//!
//! An untraced run measures the end-to-end metrics and checks the
//! outputs; a traced run replays every slot layer by layer (see
//! [`replay`]) and reports per-layer metrics. `README.md` beside this
//! crate documents the workloads, metrics and estimators.

pub mod heavy;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;

use std::time::{Duration, Instant};

use wdm_core::{Conversion, Policy, WarmStats};

use crate::procfs::{TaskStat, ThreadSplit};
use crate::spans::Spans;
use crate::stats::{Chunk, ChunkRecorder, LogHistogram, Setup};

/// Wavelengths per fiber.
pub const K: usize = 64;
/// Conversion degree (circular, symmetric).
pub const DEGREE: usize = 7;
/// The scheduling policy: Break and First Available.
pub const POLICY: Policy = Policy::BreakFirstAvailable;

/// The benchmark's conversion scheme.
pub fn conversion() -> Conversion {
    Conversion::symmetric_circular(K, DEGREE).expect("k = 64, d = 7 is a valid circular scheme")
}

/// Fixed slot counts of one run: they do not depend on the machine's
/// speed, so counts and ratios repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Warm-up slots inside each set-up: a few milliseconds of real work,
    /// short enough that construction, bind and HELLO stay a visible share.
    pub warmup_slots: u64,
    /// Slots per chunk of the chunk estimators.
    pub chunk: usize,
    /// Measured slots `grant_ratio` is computed over (the run goes on at
    /// least this long, even past its time budget).
    pub grant_slots: u64,
    /// Most measured slots a traced pass records spans for.
    pub trace_slots: u64,
}

/// Running totals of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Slots the system decided.
    pub slots: u64,
    /// Cell requests submitted.
    pub offered: u64,
    /// Cell requests granted.
    pub granted: u64,
    /// Operations attempted (requests and reservations, or slots).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl std::ops::Sub for Tally {
    type Output = Tally;
    fn sub(self, o: Tally) -> Tally {
        Tally {
            slots: self.slots - o.slots,
            offered: self.offered - o.offered,
            granted: self.granted - o.granted,
            attempted: self.attempted - o.attempted,
            failed: self.failed - o.failed,
        }
    }
}

/// Per-layer work counters a session keeps; which fields move depends on
/// the layers the workload runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Frames the daemon wrote (as the client read them).
    pub server_frames: u64,
    /// Frames the protocol replay encoded and decoded.
    pub protocol_frames: u64,
    /// Bytes the protocol replay encoded.
    pub protocol_bytes: u64,
    /// `SlotEngine::submit` calls.
    pub engine_submits: u64,
    /// Replies the engine produced.
    pub engine_replies: u64,
    /// Reservations attempted through `SlotEngine::reserve`.
    pub reserve_attempted: u64,
    /// Of those, admitted into the ledger.
    pub reserve_admitted: u64,
    /// Admitted reservations that expired at activation.
    pub reserve_expired: u64,
    /// Interconnect counters (replayed, or live on `sim_coherent`).
    pub interconnect: replay::InterconnectCounts,
    /// The schedulers' own repaired/fallback/cold counters, as the
    /// `warm_stats()` of the engine or interconnect the workload drives
    /// (on `serve_lockstep`, of the TCP-free engine replay).
    pub scheduler: WarmStats,
}

impl std::ops::Sub for LayerCounts {
    type Output = LayerCounts;
    fn sub(self, o: LayerCounts) -> LayerCounts {
        LayerCounts {
            server_frames: self.server_frames - o.server_frames,
            protocol_frames: self.protocol_frames - o.protocol_frames,
            protocol_bytes: self.protocol_bytes - o.protocol_bytes,
            engine_submits: self.engine_submits - o.engine_submits,
            engine_replies: self.engine_replies - o.engine_replies,
            reserve_attempted: self.reserve_attempted - o.reserve_attempted,
            reserve_admitted: self.reserve_admitted - o.reserve_admitted,
            reserve_expired: self.reserve_expired - o.reserve_expired,
            interconnect: self.interconnect - o.interconnect,
            scheduler: WarmStats {
                repaired: self.scheduler.repaired - o.scheduler.repaired,
                fallback: self.scheduler.fallback - o.scheduler.fallback,
                cold: self.scheduler.cold - o.scheduler.cold,
            },
        }
    }
}

/// One workload session: the system under test plus its seeded input
/// generator.
pub trait Session {
    /// Runs one slot: generates its inputs (untimed), hands them to the
    /// system and waits for the last verdict (the timed span), then checks
    /// the verdicts (untimed). Returns the timed span in ns, or `None` for
    /// a slot with no inputs. With `spans`, the slot is also replayed
    /// layer by layer with spans around every call.
    fn slot(&mut self, spans: Option<&mut Spans>) -> Result<Option<u64>, String>;
    /// Totals so far.
    fn tally(&self) -> Tally;
    /// Per-layer counters so far.
    fn counts(&self) -> LayerCounts;
    /// Ends the session and runs its end-of-session gates.
    fn finish(self) -> Result<(), String>;
}

/// Opens a session for a seed; `traced` sessions carry the replay stack.
pub type Opener<S> = fn(seed: u64, traced: bool) -> Result<S, String>;

/// Host interference over a measured phase — printed, never gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Host {
    /// CPU steal ticks of the host (`/proc/stat`).
    pub steal_ticks: u64,
    /// CPU time and run delay of the benchmark's thread versus the
    /// in-process daemon's threads.
    pub threads: ThreadSplit,
}

struct HostProbe {
    steal: Option<u64>,
    tasks: Vec<TaskStat>,
}

impl HostProbe {
    fn start() -> HostProbe {
        HostProbe { steal: procfs::steal_ticks(), tasks: procfs::task_stats() }
    }

    fn stop(self) -> Host {
        let own: Vec<u32> = procfs::current_tid().into_iter().collect();
        Host {
            steal_ticks: procfs::steal_between(self.steal, procfs::steal_ticks()),
            threads: procfs::task_delta(&self.tasks, &procfs::task_stats(), &own),
        }
    }
}

/// The outcome of one untraced run of a workload.
#[derive(Debug)]
pub struct Measured {
    /// Each timed set-up.
    pub setups: Vec<Setup>,
    /// Per-chunk summaries of the measured phase.
    pub chunks: Vec<Chunk>,
    /// Slots per chunk.
    pub chunk_slots: usize,
    /// Whole-run latency histogram (ns).
    pub tail: LogHistogram,
    /// Totals over the first [`Plan::grant_slots`] measured slots.
    pub window: Tally,
    /// Totals over every session of the run, warm-up included.
    pub total: Tally,
    /// Measured slots.
    pub measured_slots: u64,
    /// Seconds of the measured phase.
    pub measured_s: f64,
    /// Peak resident set size (VmHWM) at the end of the measured phase, kB.
    pub peak_rss_kb: u64,
    /// Host interference over the measured phase.
    pub host: Host,
    /// Correctness gates, `(name, error)`; `None` passed.
    pub gates: Vec<(&'static str, Option<String>)>,
}

impl Measured {
    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|(_, e)| e.is_none())
    }
}

/// One timed set-up: opens a session and runs the warm-up slots.
fn timed_setup<S: Session>(open: Opener<S>, seed: u64, plan: &Plan) -> Result<(Setup, S), String> {
    let steal = procfs::steal_ticks();
    let start = Instant::now();
    let mut s = open(seed, false)?;
    for _ in 0..plan.warmup_slots {
        s.slot(None)?;
    }
    let seconds = start.elapsed().as_secs_f64();
    let steal_ticks = procfs::steal_between(steal, procfs::steal_ticks());
    Ok((Setup { seconds, steal_ticks }, s))
}

/// Runs an untraced measurement: one timed set-up whose session is then
/// measured for `seconds` (and at least `plan.grant_slots` slots). The
/// other `plan.setup_reps - 1` set-ups are spread evenly over the measured
/// phase, which pauses for each, so their median samples the whole run.
pub(crate) fn measure<S: Session>(
    open: Opener<S>,
    seed: u64,
    plan: &Plan,
    seconds: f64,
) -> Result<(Measured, S), String> {
    let reps = plan.setup_reps.max(1);
    let (first, mut s) = timed_setup(open, seed, plan)?;
    let mut setups = Vec::with_capacity(reps);
    setups.push(first);
    let mut others = Tally::default();
    let warm = s.tally();
    let probe = HostProbe::start();
    let mut recorder = ChunkRecorder::new(plan.chunk);
    let mut window = None;
    let mut measured = 0u64;
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    loop {
        if let Some(ns) = s.slot(None)? {
            recorder.record(ns);
        }
        measured += 1;
        if measured == plan.grant_slots {
            window = Some(s.tally() - warm);
        }
        let active = start.elapsed().saturating_sub(paused).as_secs_f64();
        if setups.len() < reps && active >= seconds * setups.len() as f64 / reps as f64 {
            let pause = Instant::now();
            let (t, other) = timed_setup(open, seed, plan)?;
            setups.push(t);
            others.attempted += other.tally().attempted;
            others.failed += other.tally().failed;
            other.finish()?;
            paused += pause.elapsed();
            recorder.exclude(pause.elapsed());
        }
        if measured >= plan.grant_slots && active >= seconds {
            break;
        }
    }
    let measured_s = start.elapsed().saturating_sub(paused).as_secs_f64();
    let host = probe.stop();
    let peak_rss_kb = procfs::vm_hwm_kb().unwrap_or(0);
    let mut total = s.tally();
    total.attempted += others.attempted;
    total.failed += others.failed;
    let out = Measured {
        setups,
        chunks: recorder.chunks().to_vec(),
        chunk_slots: plan.chunk,
        tail: recorder.tail().clone(),
        window: window.unwrap_or_else(|| s.tally() - warm),
        total,
        measured_slots: measured,
        measured_s,
        peak_rss_kb,
        host,
        gates: Vec::new(),
    };
    Ok((out, s))
}

/// The outcome of one traced pass.
#[derive(Debug)]
pub struct Traced {
    /// The spans of the measured slots.
    pub spans: Spans,
    /// Per-chunk summaries of the live calls' timed spans.
    pub chunks: Vec<Chunk>,
    /// Totals over the traced measured slots.
    pub tally: Tally,
    /// Per-layer counters over the traced measured slots.
    pub counts: LayerCounts,
    /// Host interference over the traced measured slots.
    pub host: Host,
    /// Totals over the whole session.
    pub total: Tally,
}

/// A traced run of one workload: an untraced reference pass (one set-up,
/// 30 % of `seconds`) for the tracing overhead, then [`trace_pass`] (the
/// rest). Either pass measures at least one chunk. Returns the traced pass
/// and the reference; the reference's `total` counts its operations and
/// failures.
pub fn trace<S: Session>(
    open: Opener<S>,
    seed: u64,
    plan: &Plan,
    seconds: f64,
) -> Result<(Traced, Measured), String> {
    let reference = Plan { setup_reps: 1, grant_slots: plan.chunk as u64, ..*plan };
    let (untraced, s) = measure(open, seed, &reference, 0.3 * seconds)?;
    s.finish()?;
    Ok((trace_pass(open, seed, plan, 0.7 * seconds)?, untraced))
}

/// Runs a traced pass: one set-up (the replays warm up with the live
/// system, unrecorded), then up to `plan.trace_slots` measured slots with
/// spans, for at most `seconds` once a chunk is complete.
fn trace_pass<S: Session>(
    open: Opener<S>,
    seed: u64,
    plan: &Plan,
    seconds: f64,
) -> Result<Traced, String> {
    let mut s = open(seed, true)?;
    for _ in 0..plan.warmup_slots {
        s.slot(None)?;
    }
    let (warm, warm_counts) = (s.tally(), s.counts());
    let per_slot_spans = 24;
    let mut spans = Spans::with_capacity(plan.trace_slots as usize * per_slot_spans);
    let mut recorder = ChunkRecorder::new(plan.chunk);
    let probe = HostProbe::start();
    let start = Instant::now();
    let mut measured = 0u64;
    let least = plan.chunk as u64;
    while measured < plan.trace_slots
        && (measured < least || start.elapsed().as_secs_f64() < seconds)
    {
        if let Some(ns) = s.slot(Some(&mut spans))? {
            recorder.record(ns);
        }
        measured += 1;
    }
    let host = probe.stop();
    let tally = s.tally() - warm;
    let counts = s.counts() - warm_counts;
    let total = s.tally();
    s.finish()?;
    Ok(Traced { spans, chunks: recorder.chunks().to_vec(), tally, counts, host, total })
}

/// A running FNV-1a fingerprint of per-slot outcomes, one hash per block of
/// [`Fingerprint::BLOCK`] slots, so a live run and its replay can be
/// compared slot for slot without keeping every slot's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    blocks: Vec<u64>,
    current: u64,
    in_block: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint { blocks: Vec::new(), current: FNV_OFFSET, in_block: 0 }
    }
}

impl Fingerprint {
    /// Slots per block.
    pub const BLOCK: u32 = 1024;

    /// Folds one slot's outcome in.
    pub fn push(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.current = (self.current ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        self.in_block += 1;
        if self.in_block == Self::BLOCK {
            self.blocks.push(self.current);
            self.current = FNV_OFFSET;
            self.in_block = 0;
        }
    }

    /// The first slot of the first block that differs, if any.
    pub fn first_difference(&self, other: &Fingerprint) -> Option<u64> {
        let block = u64::from(Self::BLOCK);
        if let Some(i) = self.blocks.iter().zip(&other.blocks).position(|(a, b)| a != b) {
            return Some(i as u64 * block);
        }
        if self != other {
            return Some(self.blocks.len().min(other.blocks.len()) as u64 * block);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_locates_the_differing_block() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        for slot in 0..3000u64 {
            a.push(&[slot, slot % 7]);
            b.push(&[slot, if slot == 2100 { 9 } else { slot % 7 }]);
        }
        assert_eq!(a.first_difference(&a.clone()), None);
        assert_eq!(a.first_difference(&b), Some(2048));
        let mut short = a.clone();
        short.push(&[1]);
        assert_eq!(a.first_difference(&short), Some(2048));
    }

    #[test]
    fn tallies_subtract_fieldwise() {
        let a = Tally { slots: 10, offered: 100, granted: 60, attempted: 100, failed: 1 };
        let b = Tally { slots: 4, offered: 40, granted: 20, attempted: 40, failed: 0 };
        assert_eq!(a - b, Tally { slots: 6, offered: 60, granted: 40, attempted: 60, failed: 1 });
    }
}
