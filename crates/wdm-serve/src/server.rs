//! The daemon: acceptor, per-connection readers, and the coordinator, which
//! runs the slot loop and is the only thread that writes to a socket.
//!
//! Thread layout (all std threads, no async runtime — see DESIGN.md §11
//! and §12):
//!
//! * **acceptor** — polls a non-blocking listener, assigns connection ids,
//!   bounds every write to the new socket by [`WRITE_TIMEOUT`], spawns one
//!   **reader** thread per connection, and joins each reader once it has
//!   exited, so it holds a handle (and a clone of the socket, for teardown)
//!   per open connection, not per accepted one;
//! * **readers** — run the HELLO handshake and report its outcome to the
//!   coordinator, handing over a write half of the socket; once HELLO is
//!   accepted they forward SUBMIT, RESERVE, RELEASE and SHUTDOWN frames
//!   into a *bounded* intake channel (a blocking send is the backpressure:
//!   a flooding client stalls its own reader, never the daemon's memory).
//!   A reader never writes to its socket;
//! * **coordinator** (the [`Server::run`] thread) — drains intake until the
//!   slot boundary, ticks the [`crate::SlotClock`], runs
//!   [`SlotEngine::run_slot`], and writes every frame the daemon sends. A
//!   connection joins its writer table only when its reader reports an
//!   accepted HELLO, so HELLO_ACK is always the connection's first frame.
//!   Frames are encoded into one reused buffer per connection: HELLO_ACK,
//!   admission denies and RESERVE acks as intake yields them, then each
//!   slot's replies followed by SLOT_COMPLETE on every joined connection.
//!   Each buffer is written with one `write_all` at the end of every slot,
//!   before the coordinator blocks on intake, or as soon as it passes
//!   `WRITE_BOUND`.
//!
//! Every cross-thread structure here comes from [`crate::serve_sync`],
//! whose loom model (`tests/loom_serve.rs`) exhaustively checks the
//! readers → coordinator protocol; the shutdown sequence follows the drain
//! order documented there — a client SHUTDOWN frame or the configured
//! `max_slots` stops the loop after the in-flight slot, and admitted
//! requests are answered before the sockets close.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wdm_sim::scenario::{ScenarioRuntime, ScenarioSummary};
use wdm_sim::trace::SessionTrace;

use crate::clock::SlotClock;
use crate::engine::{EngineConfig, Reply, SlotEngine, Verdict};
use crate::protocol::{
    encode_frame, read_frame, Frame, ProtocolError, ReserveRequest, SubmitRequest, PROTOCOL_VERSION,
};
use crate::serve_sync::{self, RecvTimeoutError, Sender, StopFlag, TryRecvError};

/// How many in-flight intake events the readers may buffer ahead of the
/// coordinator before blocking (per server, not per connection).
const INTAKE_DEPTH: usize = 4096;

/// Bytes a connection's write buffer may reach before the coordinator
/// writes it out mid-slot, so a buffer never holds more than this plus one
/// frame.
const WRITE_BOUND: usize = 8 * 1024;

/// How long one buffer's write may block the coordinator. A client that
/// stops reading fills its socket buffers until a write blocks; that write
/// fails once this bound has passed, and the connection is closed both
/// ways. Each system call is bounded by the socket's write timeout, set to
/// this at accept, and a deadline across the calls keeps a client that
/// drains a trickle from stretching one write past twice this bound. So a
/// stalled client holds every other client's slot back at most once, for
/// at most that long.
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

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
/// sessions fully deterministic. A reader's first event reports its
/// handshake: `Join` hands an accepted connection's write half to the
/// writer table, `Refuse` hands over the socket of a refused one for its
/// ERROR frame (nothing else is ever written to it). After `Join` a
/// protocol violation arrives as `Fatal` (ERROR, then close) and a failed
/// read or EOF as `Close`. A reader's events arrive in the order it sent
/// them, so `Join` precedes everything else its connection sends.
#[derive(Debug)]
enum InEvent {
    Join { conn: u64, stream: TcpStream },
    Refuse { stream: TcpStream, code: u32, message: String },
    Submit { conn: u64, requests: Vec<SubmitRequest> },
    Reserve { conn: u64, request: ReserveRequest },
    Release { conn: u64, reservation_id: u64 },
    Fatal { conn: u64, code: u32, message: String },
    Close { conn: u64 },
    Shutdown,
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
            Some(plan) => Some(ScenarioRuntime::new(Arc::clone(plan), engine.interconnect())?),
            None => None,
        };
        let mut writers = Writers::new(Frame::HelloAck {
            version: PROTOCOL_VERSION,
            n: u32::try_from(engine.n()).unwrap_or(u32::MAX),
            k: u32::try_from(engine.k()).unwrap_or(u32::MAX),
            policy: engine.policy().name().to_owned(),
        });

        let stop_accepting = Arc::new(StopFlag::new());
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(INTAKE_DEPTH);
        let acceptor = {
            let stop = Arc::clone(&stop_accepting);
            std::thread::spawn(move || acceptor_loop(&listener, &stop, &in_tx))
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
        let mut replies: Vec<Reply> = Vec::new();
        let mut stop = false;
        // An engine error ends the slot loop; the teardown below still runs
        // before it is returned.
        let mut failure = None;

        'slots: loop {
            // 1. Intake window: admit submissions until the slot boundary.
            if clock.free_running() {
                loop {
                    match in_rx.try_recv() {
                        Ok(ev) => handle_in(ev, &mut engine, &mut writers, &mut report, &mut stop),
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
                    writers.write_dirty();
                    match in_rx.recv_timeout(remaining) {
                        Ok(ev) => handle_in(ev, &mut engine, &mut writers, &mut report, &mut stop),
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
                writers.write_dirty();
                match in_rx.recv_timeout(IDLE_PARK) {
                    Ok(ev) => handle_in(ev, &mut engine, &mut writers, &mut report, &mut stop),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break 'slots,
                }
                continue;
            }

            // 2. The slot: drain shards, schedule, write the replies and
            // SLOT_COMPLETE. Scenario disruptions and fallback decisions
            // land first, so a failure planned for slot s is in force when
            // s is scheduled; replies to outage-cancelled reservations lead
            // the stream.
            if let Some(rt) = scenario.as_mut() {
                if let Err(e) = engine.apply_scenario(rt, clock.lag_slots(), &mut replies) {
                    failure = Some(e);
                    break;
                }
            }
            let summary = engine.run_slot(&mut replies);
            report.grants += summary.grants as u64;
            report.denies += summary.denies as u64;
            report.reservation_grants += summary.reservation_grants as u64;
            report.reservation_expiries += summary.reservation_expiries as u64;
            writers.slot(summary.slot, &replies);
            replies.clear();
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
        // join the acceptor (no new readers past this point); write out and
        // close every joined connection; shut down every socket a reader
        // still holds, joined or not, which ends its blocked read; drop the
        // intake receiver, which fails any send still blocked on a full
        // intake; and join the readers.
        stop_accepting.raise();
        let (accepted, readers) = acceptor.join().unwrap_or_default();
        report.connections = accepted;
        writers.close_all();
        for (_, socket) in &readers {
            // Already shut down when the connection had joined; either
            // way the socket is closed afterwards.
            let _ = socket.shutdown(Shutdown::Both);
        }
        drop(in_rx);
        for (thread, _) in readers {
            // A reader that panicked held no daemon state; the report is
            // still sound, so keep joining the rest.
            let _ = thread.join();
        }
        if let Some(e) = failure {
            return Err(e.into());
        }
        report.scenario = scenario.map(|rt| rt.summary());
        report.trace = engine.take_trace();
        Ok(report)
    }
}

fn handle_in(
    ev: InEvent,
    engine: &mut SlotEngine,
    writers: &mut Writers,
    report: &mut ServerReport,
    stop: &mut bool,
) {
    match ev {
        InEvent::Join { conn, stream } => writers.join(conn, stream),
        InEvent::Refuse { stream, code, message } => {
            let mut entry = Some(ConnWriter { stream, buf: Vec::new() });
            queue(&mut entry, &Frame::Error { code, message });
            close_conn(&mut entry);
        }
        InEvent::Submit { conn, requests } => {
            for req in requests {
                if let Some(reply) = engine.submit(conn, req) {
                    report.admission_denies += 1;
                    writers.send(reply.conn, &reply_frame(&reply));
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
            writers.send(reply.conn, &reply_frame(&reply));
        }
        InEvent::Release { conn, reservation_id } => {
            // One-way by protocol contract: unknown ids, foreign owners,
            // and already-activated reservations are silent no-ops.
            let _released = engine.release(conn, reservation_id);
        }
        InEvent::Fatal { conn, code, message } => {
            writers.send(conn, &Frame::Error { code, message });
            writers.close(conn);
        }
        InEvent::Close { conn } => writers.close(conn),
        InEvent::Shutdown => *stop = true,
    }
}

/// A running reader thread and a clone of its socket, which teardown shuts
/// down to end the reader's blocked read — also for a connection that
/// never joined the writer table.
type ReaderHandle = (JoinHandle<()>, TcpStream);

/// Accepts connections until told to stop; returns how many readers it
/// started and those still running, so the coordinator can shut their
/// sockets down and join them. Readers that exit earlier are joined as the
/// loop goes.
fn acceptor_loop(
    listener: &TcpListener,
    stop: &StopFlag,
    in_tx: &Sender<InEvent>,
) -> (u64, Vec<ReaderHandle>) {
    let mut readers = Vec::new();
    let mut accepted: u64 = 0;
    if listener.set_nonblocking(true).is_err() {
        return (accepted, readers);
    }
    let mut next_conn: u64 = 0;
    while !stop.is_raised() {
        reap_finished(&mut readers);
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = next_conn;
                next_conn += 1;
                let _ = stream.set_nodelay(true);
                // The socket option covers every clone of the socket, so
                // each system call the coordinator makes on it is bounded.
                if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
                    continue;
                }
                let Ok(socket) = stream.try_clone() else {
                    continue;
                };
                let in_tx = in_tx.clone();
                let thread = std::thread::spawn(move || reader_loop(conn, stream, &in_tx));
                readers.push((thread, socket));
                accepted += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
    (accepted, readers)
}

/// Joins and drops the entries whose thread has exited; returns how many.
/// A reader that panicked held no daemon state, so its join result is not
/// an error of the daemon's.
fn reap_finished<T>(readers: &mut Vec<(JoinHandle<()>, T)>) -> usize {
    let before = readers.len();
    let mut i = 0;
    while let Some((thread, _)) = readers.get(i) {
        if thread.is_finished() {
            let _ = readers.swap_remove(i).0.join();
        } else {
            i += 1;
        }
    }
    before - readers.len()
}

/// One connection's read side: the HELLO handshake, then SUBMIT, RESERVE,
/// RELEASE and SHUTDOWN until disconnect or a protocol violation (which
/// closes only this connection). The reader never writes: it hands a write
/// half of the socket to the coordinator with the handshake's outcome.
///
/// Every event send is handled: a failed send means the coordinator is
/// tearing down, and it closes every connection itself.
fn reader_loop(conn: u64, stream: TcpStream, in_tx: &Sender<InEvent>) {
    let mut reader = BufReader::new(stream);
    let refusal = match read_frame(&mut reader) {
        Ok(Frame::Hello { version }) if version == PROTOCOL_VERSION => None,
        Ok(Frame::Hello { version }) => Some((
            2,
            format!("protocol version mismatch: server {PROTOCOL_VERSION}, client {version}"),
        )),
        Ok(_) => Some((3, "expected HELLO as the first frame".to_owned())),
        // Nothing to answer: the socket closes once the acceptor's clone
        // of it is reaped.
        Err(_) => return,
    };
    let Ok(stream) = reader.get_ref().try_clone() else {
        return;
    };
    let (first, joined) = match refusal {
        None => (InEvent::Join { conn, stream }, true),
        Some((code, message)) => (InEvent::Refuse { stream, code, message }, false),
    };
    if in_tx.send(first).is_err() || !joined {
        return;
    }
    loop {
        let ev = match read_frame(&mut reader) {
            Ok(Frame::Submit { requests }) => InEvent::Submit { conn, requests },
            Ok(Frame::Reserve { request }) => InEvent::Reserve { conn, request },
            Ok(Frame::Release { reservation_id }) => InEvent::Release { conn, reservation_id },
            Ok(Frame::Shutdown) => InEvent::Shutdown,
            Ok(_) => InEvent::Fatal {
                conn,
                code: 3,
                message: "clients may only send SUBMIT, RESERVE, RELEASE, or SHUTDOWN".to_owned(),
            },
            Err(_) => InEvent::Close { conn },
        };
        let last = matches!(ev, InEvent::Fatal { .. } | InEvent::Close { .. });
        if in_tx.send(ev).is_err() || last {
            return;
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
    /// Writes the buffered frames and empties the buffer; `false` on a
    /// transport error, or when the socket did not take them all within
    /// [`WRITE_TIMEOUT`].
    fn write_out(&mut self) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        let deadline = Instant::now() + WRITE_TIMEOUT;
        let mut rest = self.buf.as_slice();
        let written = loop {
            match self.stream.write(rest) {
                Ok(0) => break false,
                Ok(n) => rest = rest.get(n..).unwrap_or_default(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
            if rest.is_empty() {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
        };
        self.buf.clear();
        written
    }
}

/// The coordinator's write side: every joined connection's [`ConnWriter`],
/// indexed by connection id (ids are dense and small, so a `Vec` doubles
/// as the map).
#[derive(Debug)]
struct Writers {
    conns: Vec<Option<ConnWriter>>,
    /// Some buffer may hold frames not yet written.
    dirty: bool,
    /// The HELLO_ACK each connection receives as it joins.
    hello: Frame,
}

impl Writers {
    fn new(hello: Frame) -> Writers {
        Writers { conns: Vec::new(), dirty: false, hello }
    }

    /// Adds a connection whose HELLO was accepted and queues its HELLO_ACK.
    fn join(&mut self, conn: u64, stream: TcpStream) {
        let idx = conn as usize;
        if self.conns.len() <= idx {
            self.conns.resize_with(idx + 1, || None);
        }
        let entry = &mut self.conns[idx];
        *entry = Some(ConnWriter { stream, buf: Vec::new() });
        queue(entry, &self.hello);
        self.dirty = true;
    }

    /// Queues one frame for `conn`; dropped when `conn` is not joined.
    fn send(&mut self, conn: u64, frame: &Frame) {
        if let Some(entry) = self.conns.get_mut(conn as usize) {
            queue(entry, frame);
            self.dirty = true;
        }
    }

    /// Queues a slot's replies, then SLOT_COMPLETE on every joined
    /// connection, and writes every buffer out.
    fn slot(&mut self, slot: u64, replies: &[Reply]) {
        for reply in replies {
            self.send(reply.conn, &reply_frame(reply));
        }
        let complete = Frame::SlotComplete { slot };
        for entry in &mut self.conns {
            let written = entry
                .as_mut()
                .map(|w| encode_frame(&mut w.buf, &complete).is_ok() && w.write_out());
            if written == Some(false) {
                close_conn(entry);
            }
        }
        self.dirty = false;
    }

    /// Writes out every buffer that holds frames; a failed write closes its
    /// connection. Called before the coordinator blocks on intake.
    fn write_dirty(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        for entry in &mut self.conns {
            if entry.as_mut().is_some_and(|w| !w.write_out()) {
                close_conn(entry);
            }
        }
    }

    /// Writes out what `conn` has buffered and closes it.
    fn close(&mut self, conn: u64) {
        if let Some(entry) = self.conns.get_mut(conn as usize) {
            close_conn(entry);
        }
    }

    /// Writes out and closes every joined connection.
    fn close_all(&mut self) {
        for entry in &mut self.conns {
            close_conn(entry);
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

/// Appends a frame to the connection in `entry` and writes the buffer out
/// once it passes [`WRITE_BOUND`]. A failure closes the connection; an
/// empty entry (a closed connection) drops the frame.
fn queue(entry: &mut Option<ConnWriter>, frame: &Frame) {
    let Some(w) = entry.as_mut() else {
        return;
    };
    let sent =
        encode_frame(&mut w.buf, frame).is_ok() && (w.buf.len() < WRITE_BOUND || w.write_out());
    if !sent {
        close_conn(entry);
    }
}

/// Writes out what the connection in `entry` has buffered, shuts its socket
/// down both ways (which ends its reader's blocked read), and empties the
/// entry.
fn close_conn(entry: &mut Option<ConnWriter>) {
    if let Some(mut w) = entry.take() {
        // Best effort: the connection closes whether or not the tail lands.
        let _ = w.write_out();
        let _ = w.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Instant;

    use wdm_core::{Conversion, Policy};

    use super::*;
    use crate::Client;

    /// Reaps until `handles` is down to `left`, failing after ten seconds.
    fn reap_until(handles: &mut Vec<(JoinHandle<()>, ())>, left: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut reaped = 0;
        while handles.len() > left {
            assert!(Instant::now() < deadline, "{} handles never finished", handles.len() - left);
            reaped += reap_finished(handles);
            std::thread::yield_now();
        }
        reaped
    }

    #[test]
    fn reaping_joins_exited_threads_and_keeps_running_ones() {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let mut handles = vec![(
            std::thread::spawn(move || {
                let _ = release_rx.recv();
            }),
            (),
        )];
        handles.extend((0..3).map(|_| (std::thread::spawn(|| {}), ())));
        // The blocked thread cannot finish before its release, so exactly
        // the three that returned at once are reaped.
        assert_eq!(reap_until(&mut handles, 1), 3);
        assert_eq!(reap_finished(&mut handles), 0);
        assert_eq!(handles.len(), 1);
        release_tx.send(()).unwrap();
        assert_eq!(reap_until(&mut handles, 0), 1);
        assert_eq!(reap_finished::<()>(&mut Vec::new()), 0);
    }

    #[test]
    fn report_counts_every_connection_accepted_in_turn() {
        let config = ServerConfig {
            engine: EngineConfig::new(
                2,
                Conversion::symmetric_circular(8, 3).unwrap(),
                Policy::Auto,
            ),
            slot_period: Duration::ZERO,
            max_slots: None,
            scenario: None,
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();
        let server_thread = std::thread::spawn(move || server.run());
        // Each client completes the handshake, then closes; its reader
        // exits and the acceptor joins it long before shutdown.
        for _ in 0..32 {
            drop(Client::connect(&addr).unwrap());
        }
        let mut last = Client::connect(&addr).unwrap();
        last.send_shutdown().unwrap();
        while last.next_frame().is_ok() {}
        let report = server_thread.join().unwrap().unwrap();
        assert_eq!(report.connections, 33);
        assert_eq!(report.slots, 0);
    }
}
