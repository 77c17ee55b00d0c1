//! The daemon: acceptor, per-connection readers, coordinator slot loop,
//! and the results writer.
//!
//! Thread layout (all std threads, no async runtime — see DESIGN.md §11
//! and §12):
//!
//! * **acceptor** — polls a non-blocking listener, assigns connection ids,
//!   registers the write half with the results thread, and spawns one
//!   **reader** thread per connection;
//! * **readers** — run the HELLO handshake, then forward SUBMIT requests
//!   into a *bounded* intake channel (a blocking send is the backpressure:
//!   a flooding client stalls its own reader, never the daemon's memory);
//! * **coordinator** (the [`Server::run`] thread) — drains intake until the
//!   slot boundary, ticks the [`crate::SlotClock`], runs
//!   [`SlotEngine::run_slot`], publishes the slot to the shared
//!   [`SlotSequence`], and hands the slot's replies to the results thread
//!   as one event;
//! * **results** — owns every connection's write half and one reused byte
//!   buffer per connection. It encodes grant/deny frames into the
//!   buffers, appends SLOT_COMPLETE to every connection (confirming each
//!   slot against the [`SlotSequence`]), and writes each buffer with one
//!   `write_all` whenever its queue goes momentarily empty (prompt when
//!   quiet, batched under load) or the buffer passes `WRITE_BOUND`.
//!
//! Every cross-thread structure here comes from [`crate::serve_sync`],
//! whose loom model (`tests/loom_serve.rs`) exhaustively checks the
//! intake → admit → slot → results protocol; the shutdown sequence
//! follows the drain order documented there — a client SHUTDOWN frame or
//! the configured `max_slots` stops the loop after the in-flight slot, and
//! queued requests are answered before the sockets close.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use wdm_sim::trace::SessionTrace;

use crate::clock::SlotClock;
use crate::engine::{EngineConfig, Reply, SlotEngine, Verdict};
use crate::protocol::{
    encode_frame, read_frame, Frame, ProtocolError, ReserveRequest, SubmitRequest, PROTOCOL_VERSION,
};
use crate::scenario::{ScenarioRuntime, ScenarioSummary};
use crate::serve_sync::{
    self, Receiver, RecvTimeoutError, Sender, SlotSequence, StopFlag, TryRecvError,
};

/// How many in-flight intake events the readers may buffer ahead of the
/// coordinator before blocking (per server, not per connection).
const INTAKE_DEPTH: usize = 4096;

/// How many result events the producers may buffer ahead of the results
/// writer. A slot travels as one event carrying all its replies and every
/// other event carries at most one, so the coordinator runs at most
/// `RESULTS_DEPTH` slots ahead of the socket writes. A slot answers the
/// requests it drained (at most `n · queue_capacity`), the reservations
/// due in it (at most `n · k`: the ledger books an input channel to one
/// reservation at a time), and the reservations an outage cancelled in
/// it. Outages aside, the queue thus holds at most
/// `8 · (n · queue_capacity + n · k)` replies — 69 632 with the default
/// 1 024-entry queues at `n = 8`, `k = 64`. This can never deadlock:
/// events flow into the results thread only — it sends nothing back — so a
/// full queue merely paces the coordinator to the write side's drain rate.
const RESULTS_DEPTH: usize = 8;

/// Bytes a connection's write buffer may reach before the results thread
/// writes it out without waiting for its queue to go quiet, so a buffer
/// never holds more than this plus one frame.
const WRITE_BOUND: usize = 8 * 1024;

/// Acceptor poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_micros(500);

/// How long an idle free-running coordinator parks waiting for work.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The scheduling core.
    pub engine: EngineConfig,
    /// Slot period; `Duration::ZERO` free-runs (slots fire whenever work
    /// is queued).
    pub slot_period: Duration,
    /// Stop after this many executed slots (`None` = run until SHUTDOWN).
    pub max_slots: Option<u64>,
    /// A compiled scenario whose disruption timeline and fallback rule the
    /// coordinator applies at the planned slots (`None` = steady serving).
    /// Must have been compiled for this engine's `n`/`k` topology.
    pub scenario: Option<Arc<wdm_scenario::CompiledPlan>>,
}

/// What a finished server run did.
#[derive(Debug, Clone)]
#[must_use]
pub struct ServerReport {
    /// Slots executed.
    pub slots: u64,
    /// Requests granted.
    pub grants: u64,
    /// Requests denied at scheduling time (source-busy + contention).
    pub denies: u64,
    /// Requests denied at admission (invalid + queue-full), including
    /// advance reservations the capacity ledger turned away.
    pub admission_denies: u64,
    /// Advance reservations admitted into the capacity ledger.
    pub reservations: u64,
    /// Admitted reservations that activated and were granted their hold.
    pub reservation_grants: u64,
    /// Admitted reservations that expired at their start slot.
    pub reservation_expiries: u64,
    /// Connections accepted over the run.
    pub connections: u64,
    /// What the scenario runtime did, when one was configured.
    pub scenario: Option<ScenarioSummary>,
    /// The recorded session, when the engine was configured to record.
    pub trace: Option<SessionTrace>,
}

/// Events flowing readers → coordinator. A SUBMIT frame travels as one
/// event so a client's batch is admitted atomically — it can never be
/// split across a slot boundary, which keeps single-client closed-loop
/// sessions fully deterministic.
#[derive(Debug)]
enum InEvent {
    Submit { conn: u64, requests: Vec<SubmitRequest> },
    Reserve { conn: u64, request: ReserveRequest },
    Release { conn: u64, reservation_id: u64 },
    Shutdown,
}

/// Events flowing acceptor/readers/coordinator → results writer. An
/// admission deny or RESERVE ack travels alone as a `Reply`; a slot's
/// replies travel together, in engine order, as one `Slot`, which the
/// writer follows with the slot's SLOT_COMPLETE.
#[derive(Debug)]
enum OutEvent {
    Register { conn: u64, stream: TcpStream },
    HelloOk { conn: u64 },
    Fatal { conn: u64, code: u32, message: String },
    Reply(Reply),
    Slot { slot: u64, replies: Vec<Reply> },
    Close { conn: u64 },
    Finish,
}

/// A bound-but-not-yet-running daemon. Binding is separate from running so
/// callers (tests, the loadgen smoke) can learn the ephemeral port first.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
}

impl Server {
    /// Binds the listening socket (use port 0 for an ephemeral port).
    pub fn bind(addr: &str, config: ServerConfig) -> Result<Server, ProtocolError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server { listener, addr, config })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the daemon until SHUTDOWN or `max_slots`, then tears every
    /// thread down and reports. Blocking — spawn a thread to run it
    /// alongside clients in-process.
    pub fn run(self) -> Result<ServerReport, ProtocolError> {
        let Server { listener, addr: _, config } = self;
        let mut engine = SlotEngine::new(config.engine)?;
        let mut scenario = match &config.scenario {
            Some(plan) => Some(ScenarioRuntime::new(Arc::clone(plan), &engine)?),
            None => None,
        };
        let hello = HelloInfo {
            n: u32::try_from(engine.n()).unwrap_or(u32::MAX),
            k: u32::try_from(engine.k()).unwrap_or(u32::MAX),
            policy: engine.policy().name().to_owned(),
        };

        let stop_accepting = Arc::new(StopFlag::new());
        let slot_seq = Arc::new(SlotSequence::new());
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(INTAKE_DEPTH);
        let (out_tx, out_rx) = serve_sync::bounded::<OutEvent>(RESULTS_DEPTH);

        let results = {
            let slot_seq = Arc::clone(&slot_seq);
            std::thread::spawn(move || results_loop(&out_rx, &hello, &slot_seq))
        };
        let acceptor = {
            let stop = Arc::clone(&stop_accepting);
            let out_tx = out_tx.clone();
            std::thread::spawn(move || acceptor_loop(&listener, &stop, &in_tx, &out_tx))
        };

        let mut clock = SlotClock::new(config.slot_period);
        let mut report = ServerReport {
            slots: 0,
            grants: 0,
            denies: 0,
            admission_denies: 0,
            reservations: 0,
            reservation_grants: 0,
            reservation_expiries: 0,
            connections: 0,
            scenario: None,
            trace: None,
        };
        let mut out: Vec<Reply> = Vec::new();
        let mut stop = false;

        'slots: loop {
            // 1. Intake window: admit submissions until the slot boundary.
            if clock.free_running() {
                loop {
                    match in_rx.try_recv() {
                        Ok(ev) => handle_in(ev, &mut engine, &out_tx, &mut report, &mut stop)?,
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => break 'slots,
                    }
                }
            } else {
                loop {
                    let remaining = clock.remaining();
                    if remaining.is_zero() {
                        break;
                    }
                    match in_rx.recv_timeout(remaining) {
                        Ok(ev) => handle_in(ev, &mut engine, &out_tx, &mut report, &mut stop)?,
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => break 'slots,
                    }
                }
            }
            clock.wait();

            if stop && engine.pending() == 0 {
                break;
            }
            if engine.pending() == 0 && engine.pending_reservations() == 0 && clock.free_running() {
                // Free-run advances time only when there is work: slots are
                // work units, so in-flight connections age one slot per
                // executed slot — timing can never leak into the trace. A
                // pending reservation counts as work: its start slot must
                // arrive, so slots keep executing until it activates.
                match in_rx.recv_timeout(IDLE_PARK) {
                    Ok(ev) => handle_in(ev, &mut engine, &out_tx, &mut report, &mut stop)?,
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break 'slots,
                }
                continue;
            }

            // 2. The slot: drain shards, schedule, hand the replies over as
            // one event. The slot is published to the shared sequence
            // *before* its event is enqueued (the results thread confirms
            // the order). Scenario disruptions and fallback decisions land
            // first, so a failure planned for slot s is in force when s is
            // scheduled; replies to outage-cancelled reservations lead the
            // stream.
            if let Some(rt) = scenario.as_mut() {
                rt.before_slot(&mut engine, clock.lag_slots(), &mut out);
            }
            let summary = engine.run_slot(&mut out);
            report.grants += summary.grants as u64;
            report.denies += summary.denies as u64;
            report.reservation_grants += summary.reservation_grants as u64;
            report.reservation_expiries += summary.reservation_expiries as u64;
            // The next slot's vector starts at this one's size, so it
            // rarely regrows.
            let next = Vec::with_capacity(out.len());
            let replies = std::mem::replace(&mut out, next);
            slot_seq.publish(summary.slot);
            send_out(&out_tx, OutEvent::Slot { slot: summary.slot, replies })?;
            report.slots += 1;

            if stop && engine.pending() == 0 {
                break;
            }
            if let Some(max) = config.max_slots {
                if report.slots >= max {
                    break;
                }
            }
        }

        // Teardown, in the serve_sync drain order: raise the stop flag and
        // join the acceptor (no new readers past this point), send Finish
        // and drop the results sender (the writer drains, flushes, closes
        // every socket — unblocking the readers), join the results writer,
        // join the readers, and only then drop the intake receiver.
        stop_accepting.raise();
        let reader_handles: Vec<std::thread::JoinHandle<()>> = acceptor.join().unwrap_or_default();
        report.connections = reader_handles.len() as u64;
        // A failed Finish send means the results thread already exited —
        // it only does that early by panicking, which the join surfaces.
        let finish_sent = out_tx.send(OutEvent::Finish).is_ok();
        drop(out_tx);
        if results.join().is_err() || !finish_sent {
            return Err(ProtocolError::Disconnected);
        }
        for h in reader_handles {
            // A reader that panicked already closed its connection; the
            // report is still sound, so keep joining the rest.
            let _ = h.join();
        }
        drop(in_rx);
        report.scenario = scenario.map(|rt| rt.summary());
        report.trace = engine.take_trace();
        Ok(report)
    }
}

/// Topology advertised in HELLO_ACK.
#[derive(Debug, Clone)]
struct HelloInfo {
    n: u32,
    k: u32,
    policy: String,
}

/// Forwards an event to the results writer, typing the only failure —
/// the writer is gone — as a disconnect for the coordinator to propagate.
fn send_out(out_tx: &Sender<OutEvent>, ev: OutEvent) -> Result<(), ProtocolError> {
    out_tx.send(ev).map_err(|_| ProtocolError::Disconnected)
}

/// Best-effort send for paths that terminate regardless of delivery: a
/// failed send means the receiving thread is already tearing down, which
/// also ends the caller's code path. Absorbing the typed error *here*, in
/// one audited place, is the handled alternative to `let _ = tx.send(..)`
/// at call sites (which the `channels` lint bans).
fn send_final<T>(tx: &Sender<T>, ev: T) {
    let Ok(()) = tx.send(ev) else { return };
}

fn handle_in(
    ev: InEvent,
    engine: &mut SlotEngine,
    out_tx: &Sender<OutEvent>,
    report: &mut ServerReport,
    stop: &mut bool,
) -> Result<(), ProtocolError> {
    match ev {
        InEvent::Submit { conn, requests } => {
            for req in requests {
                if let Some(reply) = engine.submit(conn, req) {
                    report.admission_denies += 1;
                    send_out(out_tx, OutEvent::Reply(reply))?;
                }
            }
        }
        InEvent::Reserve { conn, request } => {
            let reply = engine.reserve(conn, request);
            match reply.verdict {
                Verdict::Reserved { .. } => report.reservations += 1,
                Verdict::Denied { .. } => report.admission_denies += 1,
                Verdict::Granted { .. } => {
                    unreachable!("admission never grants; grants come from run_slot")
                }
            }
            send_out(out_tx, OutEvent::Reply(reply))?;
        }
        InEvent::Release { conn, reservation_id } => {
            // One-way by protocol contract: unknown ids, foreign owners,
            // and already-activated reservations are silent no-ops.
            let _released = engine.release(conn, reservation_id);
        }
        InEvent::Shutdown => *stop = true,
    }
    Ok(())
}

/// Accepts connections until told to stop; returns the reader handles so
/// the coordinator can join them after the sockets are shut down.
fn acceptor_loop(
    listener: &TcpListener,
    stop: &StopFlag,
    in_tx: &Sender<InEvent>,
    out_tx: &Sender<OutEvent>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handles = Vec::new();
    if listener.set_nonblocking(true).is_err() {
        return handles;
    }
    let mut next_conn: u64 = 0;
    while !stop.is_raised() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = next_conn;
                next_conn += 1;
                let _ = stream.set_nodelay(true);
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                if out_tx.send(OutEvent::Register { conn, stream: write_half }).is_err() {
                    // Results writer gone: the daemon is tearing down.
                    break;
                }
                let in_tx = in_tx.clone();
                let out_tx = out_tx.clone();
                handles.push(std::thread::spawn(move || {
                    reader_loop(conn, stream, &in_tx, &out_tx);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
    handles
}

/// One connection's read side: HELLO handshake, then SUBMIT/SHUTDOWN until
/// disconnect or a protocol violation (which closes only this connection).
///
/// Every event send is handled: a failed send means the receiving thread is
/// tearing down, which ends this connection too — readers exit, they never
/// drop an event silently.
fn reader_loop(conn: u64, stream: TcpStream, in_tx: &Sender<InEvent>, out_tx: &Sender<OutEvent>) {
    let mut reader = std::io::BufReader::new(stream);
    let handshake_sent = match read_frame(&mut reader) {
        Ok(Frame::Hello { version }) if version == PROTOCOL_VERSION => {
            out_tx.send(OutEvent::HelloOk { conn }).is_ok()
        }
        Ok(Frame::Hello { version }) => {
            let fatal = OutEvent::Fatal {
                conn,
                code: 2,
                message: format!(
                    "protocol version mismatch: server {PROTOCOL_VERSION}, client {version}"
                ),
            };
            send_final(out_tx, fatal);
            return;
        }
        Ok(_) => {
            let fatal = OutEvent::Fatal {
                conn,
                code: 3,
                message: "expected HELLO as the first frame".to_owned(),
            };
            send_final(out_tx, fatal);
            return;
        }
        Err(_) => {
            send_final(out_tx, OutEvent::Close { conn });
            return;
        }
    };
    if !handshake_sent {
        return;
    }
    loop {
        match read_frame(&mut reader) {
            Ok(Frame::Submit { requests }) => {
                if in_tx.send(InEvent::Submit { conn, requests }).is_err() {
                    send_final(out_tx, OutEvent::Close { conn });
                    return;
                }
            }
            Ok(Frame::Reserve { request }) => {
                if in_tx.send(InEvent::Reserve { conn, request }).is_err() {
                    send_final(out_tx, OutEvent::Close { conn });
                    return;
                }
            }
            Ok(Frame::Release { reservation_id }) => {
                if in_tx.send(InEvent::Release { conn, reservation_id }).is_err() {
                    send_final(out_tx, OutEvent::Close { conn });
                    return;
                }
            }
            Ok(Frame::Shutdown) => {
                if in_tx.send(InEvent::Shutdown).is_err() {
                    // The coordinator is already past its intake loop —
                    // shutdown is in progress, which is what was asked for.
                    send_final(out_tx, OutEvent::Close { conn });
                    return;
                }
            }
            Ok(_) => {
                let fatal = OutEvent::Fatal {
                    conn,
                    code: 3,
                    message: "clients may only send SUBMIT, RESERVE, RELEASE, or SHUTDOWN"
                        .to_owned(),
                };
                send_final(out_tx, fatal);
                return;
            }
            Err(_) => {
                send_final(out_tx, OutEvent::Close { conn });
                return;
            }
        }
    }
}

/// One connection's write side: the socket, and the frames encoded for it
/// since the last write. The buffer is reused, so encoding a steady
/// stream allocates nothing.
#[derive(Debug)]
struct ConnWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ConnWriter {
    /// Writes the buffered frames with one `write_all` and empties the
    /// buffer; `false` on a transport error.
    fn write_out(&mut self) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        let written = self.stream.write_all(&self.buf).is_ok();
        self.buf.clear();
        written
    }
}

/// The single writer thread: owns every connection's write side.
fn results_loop(out_rx: &Receiver<OutEvent>, hello: &HelloInfo, slot_seq: &SlotSequence) {
    // Connection ids are dense and small; a Vec doubles as the map.
    let mut writers: Vec<Option<ConnWriter>> = Vec::new();
    let mut dirty = false;
    loop {
        // Write-on-quiet: batch while the queue has depth, write every
        // buffer the moment it empties so a lone reply never waits for the
        // next slot.
        let ev = match out_rx.try_recv() {
            Ok(ev) => ev,
            Err(TryRecvError::Empty) => {
                if dirty {
                    write_all_out(&mut writers);
                    dirty = false;
                }
                match out_rx.recv() {
                    Ok(ev) => ev,
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => return,
        };
        match ev {
            OutEvent::Register { conn, stream } => {
                let idx = conn as usize;
                if writers.len() <= idx {
                    writers.resize_with(idx + 1, || None);
                }
                writers[idx] = Some(ConnWriter { stream, buf: Vec::new() });
            }
            OutEvent::HelloOk { conn } => {
                let ack = Frame::HelloAck {
                    version: PROTOCOL_VERSION,
                    n: hello.n,
                    k: hello.k,
                    policy: hello.policy.clone(),
                };
                send_to(&mut writers, conn, &ack);
                dirty = true;
            }
            OutEvent::Fatal { conn, code, message } => {
                send_to(&mut writers, conn, &Frame::Error { code, message });
                close_conn(&mut writers, conn);
            }
            OutEvent::Reply(reply) => {
                send_to(&mut writers, reply.conn, &reply_frame(&reply));
                dirty = true;
            }
            OutEvent::Slot { slot, replies } => {
                for reply in &replies {
                    send_to(&mut writers, reply.conn, &reply_frame(reply));
                }
                // Publish-before-send: the coordinator published this slot
                // before enqueuing the event.
                slot_seq.confirm(slot);
                for conn in 0..writers.len() as u64 {
                    send_to(&mut writers, conn, &Frame::SlotComplete { slot });
                }
                dirty = true;
            }
            OutEvent::Close { conn } => close_conn(&mut writers, conn),
            OutEvent::Finish => {
                for conn in 0..writers.len() as u64 {
                    close_conn(&mut writers, conn);
                }
                return;
            }
        }
    }
}

/// The GRANT, DENY, or RESERVE_ACK frame answering one reply.
fn reply_frame(reply: &Reply) -> Frame {
    match reply.verdict {
        Verdict::Granted { seq, output_wavelength } => {
            Frame::Grant { slot: reply.slot, seq, id: reply.id, output_wavelength }
        }
        Verdict::Denied { reason, retry_after_slots } => {
            Frame::Deny { slot: reply.slot, id: reply.id, reason, retry_after_slots }
        }
        Verdict::Reserved { reservation, start_slot } => {
            Frame::ReserveAck { id: reply.id, reservation_id: reservation, start_slot }
        }
    }
}

/// Appends a frame to one connection's buffer and writes the buffer out
/// once it passes [`WRITE_BOUND`]. A failure drops the writer (the reader
/// side notices the closed socket and unwinds the connection).
fn send_to(writers: &mut [Option<ConnWriter>], conn: u64, frame: &Frame) {
    let Some(slot) = writers.get_mut(conn as usize) else {
        return;
    };
    let Some(w) = slot.as_mut() else {
        return;
    };
    let sent =
        encode_frame(&mut w.buf, frame).is_ok() && (w.buf.len() < WRITE_BOUND || w.write_out());
    if !sent {
        *slot = None;
    }
}

/// Writes out every connection's buffer; a failure drops that writer.
fn write_all_out(writers: &mut [Option<ConnWriter>]) {
    for slot in writers.iter_mut() {
        if slot.as_mut().is_some_and(|w| !w.write_out()) {
            *slot = None;
        }
    }
}

/// Writes out what is buffered, shuts the socket down both ways
/// (unblocking the reader thread), and forgets the writer.
fn close_conn(writers: &mut [Option<ConnWriter>], conn: u64) {
    let Some(slot) = writers.get_mut(conn as usize) else {
        return;
    };
    if let Some(mut w) = slot.take() {
        // Best effort: the connection closes whether or not the tail lands.
        let _ = w.write_out();
        let _ = w.stream.shutdown(std::net::Shutdown::Both);
    }
}
