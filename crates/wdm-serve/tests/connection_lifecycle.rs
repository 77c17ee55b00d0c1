//! Connections that join late or stop reading, against a live daemon.
//!
//! * A connection's first frame is HELLO_ACK even when it says HELLO long
//!   after it was accepted, while another client drives slots: a
//!   connection receives SLOT_COMPLETE only once its handshake has reached
//!   the coordinator.
//! * A client that submits without ever reading is closed once a write to
//!   it stays blocked past the daemon's write bound, while a second
//!   client's closed-loop session completes every slot.
//!
//! Every socket here carries a read timeout, so a daemon that stalls fails
//! the test instead of hanging it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashSet;
use std::io::{BufReader, ErrorKind};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wdm_core::{Conversion, Policy};
use wdm_serve::protocol::{read_frame, write_frame};
use wdm_serve::{Frame, ProtocolError, Server, ServerConfig, SubmitRequest, PROTOCOL_VERSION};

const N: u32 = 4;
const K: u32 = 32;
/// Longer than any stall the daemon may impose on a well-behaved client.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn start_daemon(
) -> (String, std::thread::JoinHandle<Result<wdm_serve::ServerReport, ProtocolError>>) {
    let config = ServerConfig {
        engine: wdm_serve::EngineConfig::new(
            N as usize,
            Conversion::symmetric_circular(K as usize, 5).unwrap(),
            Policy::BreakFirstAvailable,
        ),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: None,
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// A raw connection: a write half and a buffered, time-limited read half.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects without saying anything yet.
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let writer = stream.try_clone().unwrap();
        Conn { writer, reader: BufReader::new(stream) }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ProtocolError> {
        write_frame(&mut self.writer, frame)
    }

    fn next(&mut self) -> Result<Frame, ProtocolError> {
        read_frame(&mut self.reader)
    }

    /// Sends HELLO and returns the first frame that comes back.
    fn hello(&mut self) -> Frame {
        self.send(&Frame::Hello { version: PROTOCOL_VERSION }).unwrap();
        self.next().unwrap()
    }

    /// One closed-loop slot: submits `requests` and reads until each has
    /// its verdict and the slot's SLOT_COMPLETE has arrived.
    fn slot(&mut self, requests: &[SubmitRequest]) {
        self.send(&Frame::Submit { requests: requests.to_vec() }).unwrap();
        let mut waiting: HashSet<u64> = requests.iter().map(|r| r.id).collect();
        let mut verdict_slot = None;
        loop {
            match self.next().unwrap() {
                Frame::Grant { id, slot, .. } | Frame::Deny { id, slot, .. } => {
                    assert!(waiting.remove(&id), "second or unknown verdict for id {id}");
                    verdict_slot = Some(slot);
                }
                Frame::SlotComplete { slot } => {
                    if waiting.is_empty() && verdict_slot.is_some_and(|s| s <= slot) {
                        return;
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
}

/// `count` requests with ids from `first`, spread over the input channels.
fn batch(first: u64, count: u32) -> Vec<SubmitRequest> {
    (0..count)
        .map(|i| SubmitRequest {
            id: first + u64::from(i),
            src_fiber: i % N,
            src_wavelength: (i / N) % K,
            dst_fiber: (i + (first as u32)) % N,
            duration: 1,
        })
        .collect()
}

#[test]
fn hello_ack_comes_first_for_a_connection_that_joins_while_slots_run() {
    let (addr, daemon) = start_daemon();
    let (count_tx, count_rx) = mpsc::channel::<()>();
    let (counted_tx, counted_rx) = mpsc::channel::<u64>();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();

    // Client A drives one slot after another until told to stop. Once
    // asked to count, it reports the moment 100 more slots are complete.
    let driver = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut a = Conn::open(&addr);
            assert!(matches!(a.hello(), Frame::HelloAck { .. }));
            let (mut slots, mut next_id, mut counting_from) = (0u64, 0u64, None);
            loop {
                a.slot(&batch(next_id, 8));
                next_id += 8;
                slots += 1;
                if counting_from.is_none() && count_rx.try_recv().is_ok() {
                    counting_from = Some(slots);
                }
                if counting_from.is_some_and(|from| slots == from + 100) {
                    counted_tx.send(slots).unwrap();
                }
                if stop_rx.try_recv().is_ok() {
                    break;
                }
            }
            a.send(&Frame::Shutdown).unwrap();
            while a.next().is_ok() {}
            slots
        })
    };

    // Connection B is accepted now but says HELLO only after A has
    // completed 100 more slots.
    let mut b = Conn::open(&addr);
    count_tx.send(()).unwrap();
    let reached = counted_rx.recv_timeout(READ_TIMEOUT).unwrap();
    assert!(reached >= 100);
    let first = b.hello();
    assert!(matches!(first, Frame::HelloAck { .. }), "B's first frame is {first:?}, not HELLO_ACK");

    stop_tx.send(()).unwrap();
    let slots = driver.join().unwrap();
    // After HELLO_ACK, B sees only the SLOT_COMPLETEs of the slots run
    // since it joined, consecutive, up to A's last slot.
    let mut last: Option<u64> = None;
    loop {
        match b.next() {
            Ok(Frame::SlotComplete { slot }) => {
                if let Some(prev) = last {
                    assert_eq!(slot, prev + 1, "B skipped a SLOT_COMPLETE");
                }
                assert!(slot >= reached, "slot {slot} completed before B joined");
                last = Some(slot);
            }
            Ok(other) => panic!("B was sent {other:?}"),
            Err(ProtocolError::Disconnected) => break,
            Err(e) => panic!("B's stream failed: {e}"),
        }
    }
    if let Some(last) = last {
        assert_eq!(last + 1, slots, "B's last SLOT_COMPLETE is not A's last slot");
    }
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(report.slots, slots);
    assert_eq!(report.connections, 2);
}

#[test]
fn a_client_that_never_reads_is_closed_while_another_completes_every_slot() {
    let (addr, daemon) = start_daemon();
    let (closed_tx, closed_rx) = mpsc::channel::<ErrorKind>();

    // The stalled client completes the handshake, then floods SUBMITs of
    // every input channel and never reads again. It stops at the first
    // write that fails and reports why.
    let stalled = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut s = Conn::open(&addr);
            assert!(matches!(s.hello(), Frame::HelloAck { .. }));
            // A daemon that never closes it makes this write time out
            // instead of hanging the test.
            s.writer.set_write_timeout(Some(READ_TIMEOUT)).unwrap();
            let started = Instant::now();
            let mut next_id = 1 << 40;
            let kind = loop {
                match s.send(&Frame::Submit { requests: batch(next_id, N * K) }) {
                    Ok(()) => next_id += u64::from(N * K),
                    Err(ProtocolError::Io(e)) => break e.kind(),
                    Err(e) => panic!("unexpected send failure {e}"),
                }
                assert!(started.elapsed() < 2 * READ_TIMEOUT, "the daemon never closed the client");
            };
            closed_tx.send(kind).unwrap();
            drop(s);
        })
    };

    // The well-behaved client keeps its closed loop going until 50 slots
    // after the stalled client was closed.
    let mut good = Conn::open(&addr);
    assert!(matches!(good.hello(), Frame::HelloAck { .. }));
    let started = Instant::now();
    let (mut next_id, mut slots, mut closed_at) = (0u64, 0u64, None);
    while closed_at.is_none_or(|at| slots < at + 50) {
        good.slot(&batch(next_id, 16));
        next_id += 16;
        slots += 1;
        if closed_at.is_none() {
            if let Ok(kind) = closed_rx.try_recv() {
                assert!(
                    !matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "the stalled client's write timed out: the daemon never closed it"
                );
                closed_at = Some(slots);
            }
        }
        assert!(started.elapsed() < 2 * READ_TIMEOUT, "the stalled client was never closed");
    }
    stalled.join().unwrap();
    good.send(&Frame::Shutdown).unwrap();
    while good.next().is_ok() {}
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(report.connections, 2);
    assert!(report.slots >= slots);
}
