//! The daemon's byte stream, connection by connection.
//!
//! A live, free-running daemon serves three raw TCP connections that take
//! strict turns: a turn ends only once every verdict of its connection has
//! arrived, a reservation's activation included, so the daemon is idle
//! between turns and its slots are exactly those a TCP-free [`SlotEngine`]
//! runs when fed the same events. Each connection's bytes, from HELLO_ACK
//! to the close, must equal that engine's replies encoded with
//! [`write_frame`], with a SLOT_COMPLETE for every slot on every
//! connection.
//!
//! The stream holds a slot whose replies to one connection exceed 8 KiB
//! (every input channel of `N = 8`, `k = 64` requested at once), so the
//! coordinator writes that connection's buffer mid-slot; it also holds
//! `InvalidRequest` admission denies, RESERVE acks with their activation
//! verdicts, and a connection that never submits and so receives only
//! HELLO_ACK and the SLOT_COMPLETE broadcasts.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashSet;
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::time::Duration;

use wdm_core::{Conversion, Policy};
use wdm_serve::protocol::{read_frame, write_frame};
use wdm_serve::{
    DenyReason, EngineConfig, Frame, Reply, ReserveRequest, Server, ServerConfig, SlotEngine,
    SubmitRequest, Verdict, PROTOCOL_VERSION,
};

const N: usize = 8;
const K: usize = 64;
/// Connections 0 and 1 submit; connection 2 never does.
const CONNS: usize = 3;
const SILENT: usize = 2;
const TURNS: u64 = 12;

fn engine_config() -> EngineConfig {
    EngineConfig::new(N, Conversion::symmetric_circular(K, 7).unwrap(), Policy::BreakFirstAvailable)
}

/// splitmix64: a fixed request stream without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> u32 {
        (self.next() % n as u64) as u32
    }
}

/// What one turn sends on its connection.
enum Turn {
    Submit(Vec<SubmitRequest>),
    Reserve(ReserveRequest),
}

/// The turns, in order, as (connection, what it sends). Connection ids on
/// the daemon are accept order, which is the handshake order below.
fn turns() -> Vec<(usize, Turn)> {
    let mut rng = Rng(0x5EED_0014);
    let mut next_id = [1000u64, 2000];
    let mut id = |conn: usize| {
        next_id[conn] += 1;
        next_id[conn]
    };
    let mut out = Vec::new();
    for turn in 0..TURNS {
        let conn = (turn % 2) as usize;
        let sent = match turn % 4 {
            // Every input channel at once, plus an out-of-range request:
            // an admission deny, then a slot of 512 verdicts.
            0 => {
                let mut requests = Vec::new();
                for src_fiber in 0..N as u32 {
                    for src_wavelength in 0..K as u32 {
                        requests.push(SubmitRequest {
                            id: id(conn),
                            src_fiber,
                            src_wavelength,
                            dst_fiber: rng.below(N),
                            duration: 1 + rng.below(3),
                        });
                    }
                }
                requests.push(SubmitRequest {
                    id: id(conn),
                    src_fiber: N as u32,
                    src_wavelength: 0,
                    dst_fiber: 0,
                    duration: 1,
                });
                Turn::Submit(requests)
            }
            // A reservation two slots out: acked at admission, activated
            // (or expired) at its start slot.
            1 | 3 if turn < 8 => Turn::Reserve(ReserveRequest {
                id: id(conn),
                src_fiber: rng.below(N),
                src_wavelength: rng.below(K),
                dst_fiber: rng.below(N),
                start_in: 2,
                duration: 1 + rng.below(2),
            }),
            // A partial load with a zero-duration request among it.
            _ => {
                let mut requests: Vec<SubmitRequest> = (0..40)
                    .map(|_| SubmitRequest {
                        id: id(conn),
                        src_fiber: rng.below(N),
                        src_wavelength: rng.below(K),
                        dst_fiber: rng.below(N),
                        duration: 1 + rng.below(2),
                    })
                    .collect();
                requests.push(SubmitRequest {
                    id: id(conn),
                    src_fiber: 0,
                    src_wavelength: 0,
                    dst_fiber: 0,
                    duration: 0,
                });
                Turn::Submit(requests)
            }
        };
        out.push((conn, sent));
    }
    out
}

/// The wire frame answering one reply.
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

/// The TCP-free side: one engine fed the same events, driven the way the
/// free-running coordinator drives it, and every connection's expected
/// bytes.
struct Reference {
    engine: SlotEngine,
    streams: Vec<Vec<u8>>,
    slots: u64,
    /// Most bytes one slot sent one connection.
    largest_slot_bytes: usize,
    invalid_denies: usize,
    /// (id, start_slot) of every acked reservation.
    acked: Vec<(u64, u64)>,
    /// (id, slot) of every GRANT/DENY frame.
    verdicts: Vec<(u64, u64)>,
}

impl Reference {
    fn new() -> Reference {
        let engine = SlotEngine::new(engine_config()).unwrap();
        let hello = Frame::HelloAck {
            version: PROTOCOL_VERSION,
            n: N as u32,
            k: K as u32,
            policy: engine.policy().name().to_owned(),
        };
        let mut streams = vec![Vec::new(); CONNS];
        for stream in &mut streams {
            write_frame(stream, &hello).unwrap();
        }
        Reference {
            engine,
            streams,
            slots: 0,
            largest_slot_bytes: 0,
            invalid_denies: 0,
            acked: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    fn send(&mut self, reply: &Reply) {
        match reply.verdict {
            Verdict::Reserved { start_slot, .. } => self.acked.push((reply.id, start_slot)),
            Verdict::Denied { reason: DenyReason::InvalidRequest, .. } => {
                self.invalid_denies += 1;
                self.verdicts.push((reply.id, reply.slot));
            }
            _ => self.verdicts.push((reply.id, reply.slot)),
        }
        write_frame(&mut self.streams[reply.conn as usize], &reply_frame(reply)).unwrap();
    }

    fn play(&mut self, conn: usize, turn: &Turn) {
        match turn {
            Turn::Submit(requests) => {
                for &request in requests {
                    if let Some(reply) = self.engine.submit(conn as u64, request) {
                        self.send(&reply);
                    }
                }
            }
            Turn::Reserve(request) => {
                let reply = self.engine.reserve(conn as u64, *request);
                self.send(&reply);
            }
        }
        // Free-running: a slot executes while requests are queued or a
        // reservation waits for its start slot.
        while self.engine.pending() > 0 || self.engine.pending_reservations() > 0 {
            let before: Vec<usize> = self.streams.iter().map(Vec::len).collect();
            let mut replies = Vec::new();
            let summary = self.engine.run_slot(&mut replies);
            for reply in &replies {
                self.send(reply);
            }
            for stream in &mut self.streams {
                write_frame(stream, &Frame::SlotComplete { slot: summary.slot }).unwrap();
            }
            for (stream, start) in self.streams.iter().zip(before) {
                self.largest_slot_bytes = self.largest_slot_bytes.max(stream.len() - start);
            }
            self.slots += 1;
        }
    }
}

/// A reader that keeps a copy of every byte it hands out.
struct Tap {
    stream: TcpStream,
    seen: Vec<u8>,
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// One raw client connection: HELLO sent, HELLO_ACK read (and tapped).
struct Conn {
    writer: TcpStream,
    reader: BufReader<Tap>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        // A lost frame fails the test instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        write_frame(&mut writer, &Frame::Hello { version: PROTOCOL_VERSION }).unwrap();
        let mut reader = BufReader::new(Tap { stream, seen: Vec::new() });
        assert!(matches!(read_frame(&mut reader).unwrap(), Frame::HelloAck { .. }));
        Conn { writer, reader }
    }

    /// Sends the turn and reads until every verdict it asked for arrived.
    fn take_turn(&mut self, turn: &Turn) {
        let mut waiting: HashSet<u64> = HashSet::new();
        match turn {
            Turn::Submit(requests) => {
                waiting.extend(requests.iter().map(|r| r.id));
                let frame = Frame::Submit { requests: requests.clone() };
                write_frame(&mut self.writer, &frame).unwrap();
            }
            Turn::Reserve(request) => {
                waiting.insert(request.id);
                write_frame(&mut self.writer, &Frame::Reserve { request: *request }).unwrap();
            }
        }
        while !waiting.is_empty() {
            match read_frame(&mut self.reader).unwrap() {
                Frame::Grant { id, .. } | Frame::Deny { id, .. } => {
                    assert!(waiting.remove(&id), "verdict for id {id} not waited on");
                }
                // An acked reservation still owes its activation verdict.
                Frame::ReserveAck { id, .. } => assert!(waiting.contains(&id)),
                Frame::SlotComplete { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    /// Reads to the daemon's close and returns every byte received.
    fn finish(self) -> Vec<u8> {
        let mut reader = self.reader;
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        reader.into_inner().seen
    }
}

fn frames(mut bytes: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        out.push(read_frame(&mut bytes).unwrap());
    }
    out
}

/// Byte equality, reported at the first differing frame.
fn assert_same_stream(conn: usize, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let (got_frames, want_frames) = (frames(got), frames(want));
    let at = got_frames
        .iter()
        .zip(&want_frames)
        .position(|(g, w)| g != w)
        .unwrap_or(got_frames.len().min(want_frames.len()));
    panic!(
        "connection {conn}: {} bytes / {} frames received, {} bytes / {} frames expected; \
         first difference at frame {at}: got {:?}, want {:?}",
        got.len(),
        got_frames.len(),
        want.len(),
        want_frames.len(),
        got_frames.get(at),
        want_frames.get(at),
    );
}

#[test]
fn each_connection_receives_the_engine_stream_byte_for_byte() {
    let config = ServerConfig {
        engine: engine_config(),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: None,
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // One handshake at a time, so accept order (the daemon's connection
    // ids) is this order, and every connection is registered before the
    // first slot.
    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(&addr)).collect();

    let mut reference = Reference::new();
    for (conn, turn) in &turns() {
        assert_ne!(*conn, SILENT);
        conns[*conn].take_turn(turn);
        reference.play(*conn, turn);
    }
    write_frame(&mut conns[0].writer, &Frame::Shutdown).unwrap();
    let received: Vec<Vec<u8>> = conns.into_iter().map(Conn::finish).collect();
    let report = daemon.join().unwrap().unwrap();

    // The stream covers what it claims to.
    assert_eq!(report.slots, reference.slots, "daemon and engine ran different slot counts");
    assert!(
        reference.largest_slot_bytes > 8 * 1024,
        "no slot sent one connection more than 8 KiB ({} bytes at most)",
        reference.largest_slot_bytes
    );
    assert!(reference.invalid_denies >= 2, "InvalidRequest admission denies missing");
    assert!(!reference.acked.is_empty(), "no reservation was acked");
    for &(id, start_slot) in &reference.acked {
        assert!(
            reference.verdicts.contains(&(id, start_slot)),
            "reservation {id} got no verdict at its start slot {start_slot}"
        );
    }
    let silent = frames(&reference.streams[SILENT]);
    assert_eq!(silent.len() as u64, 1 + reference.slots);
    for (slot, frame) in silent[1..].iter().enumerate() {
        assert_eq!(*frame, Frame::SlotComplete { slot: slot as u64 });
    }

    for (conn, (got, want)) in received.iter().zip(&reference.streams).enumerate() {
        assert_same_stream(conn, got, want);
    }
}
