//! `serve_lockstep`: an in-process `wdm_serve::Server` on 127.0.0.1 with a
//! free-running clock and one `Client` keeping one batch in flight — the
//! closed loop of a slotted interconnect's controller, which waits for its
//! verdicts before it transmits.
//!
//! Traffic: `N = 2` fibers, Bernoulli load 0.5 per input channel with
//! geometric holds of mean 2 slots (≈ 64 requests per slot). The timed
//! span runs from `Client::submit` to the batch's last GRANT/DENY frame.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wdm_interconnect::ConnectionRequest;
use wdm_serve::protocol::{read_frame, write_frame};
use wdm_serve::{
    Client, DenyReason, EngineConfig, Frame, ProtocolError, Reply, Server, ServerConfig,
    ServerReport, SlotEngine, SubmitRequest, Verdict,
};
use wdm_sim::traffic::{BernoulliUniform, DurationModel, TrafficModel};

use crate::replay::{InterconnectReplay, SchedulerReplay, TraceCtx};
use crate::spans::{Layer, Spans};
use crate::{conversion, Fingerprint, LayerCounts, Measured, Plan, Session, Tally, POLICY};

/// Fibers per side.
pub const N: usize = 2;
/// Per-channel arrival probability.
pub const LOAD: f64 = 0.5;
/// Mean holding time, slots.
pub const MEAN_HOLD: f64 = 2.0;
const SALT: u64 = 0x5e4e_0001;

/// The run sizes of this workload.
pub const PLAN: Plan =
    Plan { setup_reps: 21, warmup_slots: 32, chunk: 500, grant_slots: 20_000, trace_slots: 20_000 };

fn engine_config() -> EngineConfig {
    EngineConfig::new(N, conversion(), POLICY)
}

fn traffic() -> BernoulliUniform {
    BernoulliUniform::new(N, crate::K, LOAD, DurationModel::Geometric { mean: MEAN_HOLD })
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ SALT)
}

/// Converts one generated slot into a SUBMIT batch with sequential ids.
fn to_batch(requests: &[ConnectionRequest], next_id: &mut u64, out: &mut Vec<SubmitRequest>) {
    out.clear();
    for r in requests {
        out.push(SubmitRequest {
            id: *next_id,
            src_fiber: r.src_fiber as u32,
            src_wavelength: r.src_wavelength as u32,
            dst_fiber: r.dst_fiber as u32,
            duration: r.duration,
        });
        *next_id += 1;
    }
}

fn proto(e: ProtocolError) -> String {
    format!("protocol error: {e}")
}

/// The replay stack of a traced session: the wire frames through
/// `write_frame`/`read_frame`, and the batch through a TCP-free
/// `SlotEngine` and below it a bare `Interconnect` and the schedulers.
#[derive(Debug)]
struct Mirror {
    engine: SlotEngine,
    replies: Vec<Reply>,
    below: InterconnectReplay,
    wire: Vec<u8>,
    frames: Vec<Frame>,
    decoded: Vec<Frame>,
}

/// A live daemon plus the closed-loop client driving it.
#[derive(Debug)]
pub struct ServeSession {
    client: Client,
    server: Option<JoinHandle<Result<ServerReport, ProtocolError>>>,
    traffic: BernoulliUniform,
    rng: StdRng,
    generated: Vec<ConnectionRequest>,
    batch: Vec<SubmitRequest>,
    seen: Vec<bool>,
    next_id: u64,
    slot: u64,
    daemon_slot: u64,
    tally: Tally,
    counts: LayerCounts,
    fingerprint: Fingerprint,
    mirror: Option<Mirror>,
}

/// Opens a session: binds and spawns the daemon, connects and completes
/// the HELLO handshake.
pub fn open(seed: u64, traced: bool) -> Result<ServeSession, String> {
    let config = ServerConfig {
        engine: engine_config(),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: None,
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(proto)?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            // The daemon only stops on a client SHUTDOWN; without a client
            // it would run forever, so a failed connect is fatal.
            return Err(format!("connect to the daemon failed: {e}"));
        }
    };
    let mirror = if traced {
        Some(Mirror {
            engine: SlotEngine::new(engine_config()).map_err(|e| e.to_string())?,
            replies: Vec::new(),
            below: InterconnectReplay::new(N, Some(SchedulerReplay::new(N, false)))?,
            wire: Vec::new(),
            frames: Vec::new(),
            decoded: Vec::new(),
        })
    } else {
        None
    };
    Ok(ServeSession {
        client,
        server: Some(handle),
        traffic: traffic(),
        rng: rng(seed),
        generated: Vec::with_capacity(N * crate::K),
        batch: Vec::with_capacity(N * crate::K),
        seen: Vec::with_capacity(N * crate::K),
        next_id: 0,
        slot: 0,
        daemon_slot: 0,
        tally: Tally::default(),
        counts: LayerCounts::default(),
        fingerprint: Fingerprint::default(),
        mirror,
    })
}

impl ServeSession {
    /// The per-slot grant fingerprint of the session so far.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Reads one batch's verdicts; returns the grant count. Bad verdicts
    /// count as failed requests; a frame the protocol forbids here ends
    /// the run.
    fn read_verdicts(&mut self, first_id: u64, keep: bool) -> Result<u64, String> {
        let len = self.batch.len();
        self.seen.clear();
        self.seen.resize(len, false);
        let (mut remaining, mut grants) = (len, 0u64);
        while remaining > 0 {
            let frame = self.client.next_frame().map_err(proto)?;
            let (id, slot) = match &frame {
                Frame::Grant { id, slot, .. } => {
                    grants += 1;
                    (*id, *slot)
                }
                Frame::Deny { id, slot, reason, .. } => {
                    if matches!(reason, DenyReason::InvalidRequest | DenyReason::QueueFull) {
                        self.tally.failed += 1;
                    }
                    (*id, *slot)
                }
                other => return Err(format!("expected GRANT or DENY, got {other:?}")),
            };
            let index = id.checked_sub(first_id).map(|i| i as usize).filter(|&i| i < len);
            let Some(index) = index else {
                return Err(format!("verdict for unknown request id {id}"));
            };
            if std::mem::replace(&mut self.seen[index], true) {
                return Err(format!("second verdict for request id {id}"));
            }
            if slot != self.daemon_slot {
                self.tally.failed += 1;
            }
            remaining -= 1;
            if keep {
                if let Some(m) = self.mirror.as_mut() {
                    m.frames.push(frame);
                }
            }
        }
        Ok(grants)
    }

    /// Replays the slot just decided through the protocol, engine,
    /// interconnect and schedulers; every replay must match the daemon's
    /// grant count.
    fn replay(
        &mut self,
        grants: u64,
        mut spans: Option<&mut Spans>,
        roundtrip: Option<crate::spans::SpanId>,
    ) -> Result<(), String> {
        let Some(m) = self.mirror.as_mut() else {
            return Ok(());
        };
        let slot = self.slot;
        // Protocol: the SUBMIT frame and every frame the daemon wrote back.
        m.frames.insert(0, Frame::Submit { requests: self.batch.clone() });
        m.frames.push(Frame::SlotComplete { slot: self.daemon_slot });
        m.wire.clear();
        let start = Instant::now();
        for f in &m.frames {
            write_frame(&mut m.wire, f).map_err(proto)?;
        }
        let encoded = Instant::now();
        m.decoded.clear();
        let mut cursor = m.wire.as_slice();
        while !cursor.is_empty() {
            m.decoded.push(read_frame(&mut cursor).map_err(proto)?);
        }
        let decoded = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("protocol.encode", Layer::Protocol, roundtrip, slot, start, encoded);
            spans.record("protocol.decode", Layer::Protocol, roundtrip, slot, encoded, decoded);
        }
        if m.decoded != m.frames {
            return Err(format!("slot {slot}: protocol replay decoded different frames"));
        }
        self.counts.protocol_frames += m.frames.len() as u64;
        self.counts.protocol_bytes += m.wire.len() as u64;
        m.frames.clear();

        // Engine: the same batch through a TCP-free SlotEngine.
        let start = Instant::now();
        let mut immediate = 0u64;
        for r in &self.batch {
            if m.engine.submit(0, *r).is_some() {
                immediate += 1;
            }
        }
        let submitted = Instant::now();
        m.replies.clear();
        let summary = m.engine.run_slot(&mut m.replies);
        let ran = Instant::now();
        let mut run_span = None;
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("engine.submit", Layer::Engine, roundtrip, slot, start, submitted);
            run_span = Some(spans.record(
                "engine.run_slot",
                Layer::Engine,
                roundtrip,
                slot,
                submitted,
                ran,
            ));
        }
        self.counts.engine_submits += self.batch.len() as u64;
        self.counts.engine_replies += m.replies.len() as u64 + immediate;
        if summary.grants as u64 != grants || immediate != 0 {
            return Err(format!(
                "slot {slot}: engine replay granted {} (immediate denies {immediate}) but the daemon granted {grants}",
                summary.grants
            ));
        }

        // Interconnect and schedulers below the engine.
        self.generated.clear();
        self.generated.extend(self.batch.iter().map(|r| {
            ConnectionRequest::burst(
                r.src_fiber as usize,
                r.src_wavelength as usize,
                r.dst_fiber as usize,
                r.duration,
            )
        }));
        let ctx = match (spans, run_span) {
            (Some(spans), Some(parent)) => Some(TraceCtx { spans, parent: Some(parent), slot }),
            _ => None,
        };
        let result = m.below.advance(&self.generated, ctx)?;
        if result.grants.len() as u64 != grants {
            return Err(format!(
                "slot {slot}: interconnect replay granted {} but the engine granted {grants}",
                result.grants.len()
            ));
        }
        m.below.check_paths(m.engine.warm_stats(), slot)?;
        self.counts.interconnect = m.below.counts();
        self.counts.scheduler = m.engine.warm_stats();
        Ok(())
    }
}

impl Session for ServeSession {
    fn slot(&mut self, mut spans: Option<&mut Spans>) -> Result<Option<u64>, String> {
        let slot = self.slot;
        let gen_start = Instant::now();
        self.traffic.generate_into(&mut self.rng, slot, &mut self.generated);
        let first_id = self.next_id;
        to_batch(&self.generated, &mut self.next_id, &mut self.batch);
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("traffic.generate", Layer::Traffic, None, slot, gen_start, Instant::now());
        }
        self.slot += 1;
        if self.batch.is_empty() {
            return Ok(None);
        }
        let keep = self.mirror.is_some();

        let start = Instant::now();
        self.client.submit(&self.batch).map_err(proto)?;
        let submitted = Instant::now();
        let grants = self.read_verdicts(first_id, keep)?;
        let done = Instant::now();

        match self.client.next_frame().map_err(proto)? {
            Frame::SlotComplete { slot } if slot == self.daemon_slot => {}
            other => {
                return Err(format!("expected SLOT_COMPLETE {}, got {other:?}", self.daemon_slot))
            }
        }
        let n = self.batch.len() as u64;
        self.tally.slots += 1;
        self.tally.offered += n;
        self.tally.attempted += n;
        self.tally.granted += grants;
        self.counts.server_frames += n + 1;
        self.fingerprint.push(&[self.daemon_slot, grants]);

        let roundtrip = spans.as_deref_mut().map(|spans| {
            spans.record("client.submit", Layer::Client, None, slot, start, submitted);
            spans.record("client.wait", Layer::Client, None, slot, submitted, done);
            spans.record("server.roundtrip", Layer::Server, None, slot, start, done)
        });
        self.replay(grants, spans, roundtrip)?;
        self.daemon_slot += 1;
        Ok(Some(u64::try_from(done.duration_since(start).as_nanos()).unwrap_or(u64::MAX)))
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn counts(&self) -> LayerCounts {
        self.counts
    }

    /// Shuts the daemon down and checks its report against the client's
    /// own count.
    fn finish(mut self) -> Result<(), String> {
        self.client.send_shutdown().map_err(proto)?;
        while self.client.next_frame().is_ok() {}
        let handle = self.server.take().ok_or("daemon already joined")?;
        let report =
            handle.join().map_err(|_| "the daemon thread panicked".to_owned())?.map_err(proto)?;
        if report.grants != self.tally.granted {
            return Err(format!(
                "ServerReport.grants = {} but the client counted {}",
                report.grants, self.tally.granted
            ));
        }
        if report.admission_denies != 0 {
            return Err(format!("{} requests denied at admission", report.admission_denies));
        }
        Ok(())
    }
}

/// Replays the session's inputs through a TCP-free `SlotEngine` and
/// compares the per-slot grant counts with the daemon's.
pub fn verify(seed: u64, live: &Fingerprint, slots: u64) -> Result<(), String> {
    let mut engine = SlotEngine::new(engine_config()).map_err(|e| e.to_string())?;
    let mut traffic = traffic();
    let mut rng = rng(seed);
    let (mut generated, mut batch, mut replies) = (Vec::new(), Vec::new(), Vec::new());
    let mut next_id = 0;
    let mut replay = Fingerprint::default();
    let mut daemon_slot = 0u64;
    for slot in 0..slots {
        traffic.generate_into(&mut rng, slot, &mut generated);
        to_batch(&generated, &mut next_id, &mut batch);
        if batch.is_empty() {
            continue;
        }
        for r in &batch {
            if engine.submit(0, *r).is_some() {
                return Err(format!("slot {slot}: the engine replay denied at admission"));
            }
        }
        replies.clear();
        let summary = engine.run_slot(&mut replies);
        let grants =
            replies.iter().filter(|r| matches!(r.verdict, Verdict::Granted { .. })).count();
        if grants != summary.grants {
            return Err(format!("slot {slot}: engine replies disagree with its summary"));
        }
        replay.push(&[daemon_slot, grants as u64]);
        daemon_slot += 1;
    }
    match live.first_difference(&replay) {
        None => Ok(()),
        Some(at) => Err(format!(
            "per-slot grants differ from the TCP-free SlotEngine replay in the block starting at decided slot {at}"
        )),
    }
}

/// Runs the untraced measurement and its gates.
pub fn run(seed: u64, seconds: f64) -> Result<Measured, String> {
    let (mut measured, session) = crate::measure(open, seed, &PLAN, seconds)?;
    let fingerprint = session.fingerprint().clone();
    let slots = session.slot;
    let report = session.finish();
    measured.gates.push(("serve.server_report", report.err()));
    measured.gates.push(("serve.engine_replay", verify(seed, &fingerprint, slots).err()));
    Ok(measured)
}
