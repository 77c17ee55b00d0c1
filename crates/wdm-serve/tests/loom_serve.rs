//! Exhaustive loom models of the daemon's cross-thread protocol.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS=--cfg loom` — run via
//! `cargo xtask loom`. Each model drives the real
//! [`wdm_serve::serve_sync`] primitives — the bounded intake channel, the
//! [`ShardQueues`] admission structure, the [`StopFlag`] — through a
//! miniature of the readers → coordinator pipeline, inside `loom::model`,
//! which executes it once per distinct sequentially consistent
//! interleaving and asserts in every one:
//!
//! * **no-lost-batch** — every admitted request id is answered exactly
//!   once, on its own connection, even when admission denies it (queue
//!   full) and even when a SHUTDOWN races the submission;
//! * **no-double-grant** — an id never receives two replies;
//! * **HELLO_ACK first** — a connection's first frame is its HELLO_ACK, and
//!   it receives the SLOT_COMPLETE of every slot run after it joined and of
//!   no other, consecutive, with each verdict before its slot's completion;
//! * **clean shutdown with in-flight frames** — the drain order from
//!   `serve_sync`'s module docs terminates in every interleaving (a hang
//!   is reported by the shim's deadlock detection): a reader whose send
//!   raced the teardown gets a typed error, never a hang.
//!
//! The coordinator is the only socket writer, as in the daemon, so each
//! connection's socket is a frame log the coordinator owns: it runs on the
//! model's root thread, and the streams are checked once it has torn down
//! and joined the readers. Each connection thread is the daemon's reader
//! for it, sending its `Join` and then its events into the intake. No
//! socket write can block here; the write timeout that bounds a blocked
//! one needs a clock, which the model has not, and
//! `tests/connection_lifecycle.rs` covers it on real sockets.
//!
//! Every test asserts a floor on the interleaving count reported by
//! `loom::model` (the shim's return value), so the exhaustiveness claim in
//! DESIGN.md §12 is itself regression-checked. Keep the models tiny: the
//! shim has no partial-order reduction, so each extra channel operation
//! multiplies the tree.

#![cfg(loom)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::atomic::{AtomicUsize, Ordering};

use wdm_serve::serve_sync::{self, AdmitRejection, Receiver, Sender, ShardQueues, StopFlag};

/// A submitted request: id and destination shard.
#[derive(Debug, Clone, Copy)]
struct Submit {
    id: u64,
    shard: usize,
}

/// One frame on a connection's socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    HelloAck,
    /// A GRANT or DENY: a cell verdict, or a reservation's activation.
    Verdict {
        id: u64,
        slot: u64,
        granted: bool,
    },
    ReserveAck {
        id: u64,
    },
    SlotComplete(u64),
}

/// What a reader forwards, as in the daemon. `Join` reports the accepted
/// HELLO, so it precedes everything else the reader sends.
#[derive(Debug)]
enum InEvent {
    Join { conn: usize },
    Batch { conn: usize, requests: Vec<Submit> },
    Reserve { conn: usize, id: u64, start_in: u64 },
    Release { conn: usize, id: u64 },
    Shutdown,
}

/// The coordinator: the admission queues, a miniature reservation store,
/// and the writer table, with the scheduling core stubbed to "grant
/// everything drained".
struct Coordinator {
    queues: ShardQueues<(usize, Submit)>,
    /// The writer table: each joined connection's stream so far.
    streams: Vec<Option<Vec<Wire>>>,
    slot: u64,
    /// (owner, id, start slot) of each pending reservation.
    reservations: Vec<(usize, u64, u64)>,
    /// Every id admitted (queued, denied at admission, or acked).
    admitted: Vec<u64>,
    /// A RELEASE cancelled a pending reservation.
    cancelled: bool,
    stop: bool,
}

impl Coordinator {
    fn new(shards: usize, capacity: usize) -> Coordinator {
        Coordinator {
            queues: ShardQueues::new(shards, capacity),
            streams: Vec::new(),
            slot: 0,
            reservations: Vec::new(),
            admitted: Vec::new(),
            cancelled: false,
            stop: false,
        }
    }

    /// Writes one frame to `conn`; dropped when it has not joined.
    fn write(&mut self, conn: usize, wire: Wire) {
        if let Some(Some(stream)) = self.streams.get_mut(conn) {
            stream.push(wire);
        }
    }

    /// `handle_in`: applies one intake event.
    fn handle(&mut self, ev: InEvent) {
        match ev {
            InEvent::Join { conn } => {
                if self.streams.len() <= conn {
                    self.streams.resize_with(conn + 1, || None);
                }
                self.streams[conn] = Some(vec![Wire::HelloAck]);
            }
            InEvent::Batch { conn, requests } => {
                for s in requests {
                    self.admitted.push(s.id);
                    match self.queues.try_admit(s.shard, (conn, s)) {
                        Ok(()) => {}
                        Err(AdmitRejection::Full((conn, rejected))) => {
                            // The admission deny is a reply too — never
                            // dropped, and ahead of its slot's completion.
                            let deny =
                                Wire::Verdict { id: rejected.id, slot: self.slot, granted: false };
                            self.write(conn, deny);
                        }
                        Err(AdmitRejection::InvalidShard(_)) => panic!("every shard exists"),
                    }
                }
            }
            InEvent::Reserve { conn, id, start_in } => {
                self.admitted.push(id);
                self.reservations.push((conn, id, self.slot + start_in));
                self.write(conn, Wire::ReserveAck { id });
            }
            InEvent::Release { conn, id } => {
                // Only the owner's RELEASE cancels, as in
                // `SlotEngine::release`; anything else is a silent no-op.
                let before = self.reservations.len();
                self.reservations.retain(|&(owner, rid, _)| (owner, rid) != (conn, id));
                self.cancelled |= self.reservations.len() < before;
            }
            InEvent::Shutdown => self.stop = true,
        }
    }

    fn has_work(&self) -> bool {
        !self.queues.is_empty() || !self.reservations.is_empty()
    }

    /// One slot: due reservations activate first, then every drained
    /// request is granted, then every joined connection gets the slot's
    /// SLOT_COMPLETE.
    fn run_slot(&mut self) {
        let slot = self.slot;
        let mut replies = Vec::new();
        self.reservations.retain(|&(owner, id, start)| {
            if start == slot {
                replies.push((owner, id));
            }
            start != slot
        });
        self.queues.drain_into(|(conn, s)| replies.push((conn, s.id)));
        for (conn, id) in replies {
            self.write(conn, Wire::Verdict { id, slot, granted: true });
        }
        for stream in self.streams.iter_mut().flatten() {
            stream.push(Wire::SlotComplete(slot));
        }
        self.slot += 1;
    }
}

/// `Server::run` on a free-running clock: an intake window (here at most
/// one event: a non-blocking receive while work is queued, a blocking one
/// when idle), the stop check, and a slot whenever work is queued; then
/// the drain order — raise the stop flag and drop the intake receiver,
/// which fails every send still blocked on it. (Closing the sockets, the
/// step between, is the end of each stream here.)
fn serve(mut coord: Coordinator, in_rx: Receiver<InEvent>, stop: &StopFlag) -> Coordinator {
    loop {
        let ev = if coord.has_work() {
            in_rx.try_recv().ok()
        } else {
            match in_rx.recv() {
                Ok(ev) => Some(ev),
                Err(_) => break,
            }
        };
        if let Some(ev) = ev {
            coord.handle(ev);
        }
        if coord.stop && coord.queues.is_empty() {
            break;
        }
        if coord.has_work() {
            coord.run_slot();
        }
    }
    stop.raise();
    drop(in_rx);
    coord
}

/// Spawns one reader per script, connection `i` running `scripts[i]`: it
/// sends `Join` and then its events, stopping at the first failed send, as
/// a reader does once the coordinator is tearing down. The intake senders
/// are all cloned before the first spawn, which keeps the clones out of
/// the explored tree.
fn readers(
    in_tx: Sender<InEvent>,
    scripts: Vec<Vec<InEvent>>,
) -> Vec<loom::thread::JoinHandle<()>> {
    let mut senders: Vec<Sender<InEvent>> = (1..scripts.len()).map(|_| in_tx.clone()).collect();
    senders.push(in_tx);
    scripts
        .into_iter()
        .zip(senders)
        .enumerate()
        .map(|(conn, (events, in_tx))| {
            loom::thread::spawn(move || {
                for ev in std::iter::once(InEvent::Join { conn }).chain(events) {
                    if in_tx.send(ev).is_err() {
                        break;
                    }
                }
            })
        })
        .collect()
}

/// Joins every reader.
fn join_all(readers: Vec<loom::thread::JoinHandle<()>>) {
    for r in readers {
        r.join().expect("a reader exits after its sends");
    }
}

/// Each connection's stream, empty for one that never joined.
fn streams(coord: &Coordinator, conns: usize) -> Vec<Vec<Wire>> {
    (0..conns).map(|c| coord.streams.get(c).cloned().flatten().unwrap_or_default()).collect()
}

/// Checks one connection's stream and returns the ids it was answered:
/// nothing at all (it never joined), or HELLO_ACK first, consecutive
/// SLOT_COMPLETEs, and each verdict after the previous slot's completion
/// and before its own.
fn check_stream(conn: usize, stream: &[Wire]) -> Vec<u64> {
    let Some((first, rest)) = stream.split_first() else {
        return Vec::new();
    };
    assert_eq!(*first, Wire::HelloAck, "connection {conn}: first frame of {stream:?}");
    let mut completed: Option<u64> = None;
    let mut ids = Vec::new();
    for wire in rest {
        match *wire {
            Wire::HelloAck => panic!("connection {conn}: second HELLO_ACK in {stream:?}"),
            Wire::SlotComplete(slot) => {
                if let Some(prev) = completed {
                    assert_eq!(
                        slot,
                        prev + 1,
                        "connection {conn}: SLOT_COMPLETE gap in {stream:?}"
                    );
                }
                completed = Some(slot);
            }
            Wire::Verdict { id, slot, .. } => {
                assert!(
                    completed.is_none_or(|c| c < slot),
                    "connection {conn}: verdict for slot {slot} after its completion in {stream:?}"
                );
                ids.push(id);
            }
            Wire::ReserveAck { id } => ids.push(1000 + id),
        }
    }
    ids
}

/// Checks every stream, that each connection was answered exactly the
/// ids in its `expected` entry, and returns the streams' SLOT_COMPLETE
/// counts.
fn check_answers(streams: &[Vec<Wire>], expected: &[Vec<u64>]) -> Vec<usize> {
    for (conn, (stream, want)) in streams.iter().zip(expected).enumerate() {
        let mut got = check_stream(conn, stream);
        got.sort_unstable();
        let mut want = want.clone();
        want.sort_unstable();
        assert_eq!(got, want, "connection {conn}: every id answered exactly once, here");
    }
    streams
        .iter()
        .map(|s| s.iter().filter(|w| matches!(w, Wire::SlotComplete(_))).count())
        .collect()
}

/// Records, across a model's interleavings, which of a race's outcomes
/// occurred: bit `outcome` of `seen`. A plain `std` atomic, outside the
/// model, so recording adds nothing to the explored tree.
fn saw(seen: &AtomicUsize, outcome: usize) {
    seen.fetch_or(1 << outcome, Ordering::Relaxed);
}

/// A one-request batch.
fn batch(conn: usize, id: u64, shard: usize) -> InEvent {
    InEvent::Batch { conn, requests: vec![Submit { id, shard }] }
}

/// Config A — two connections, one single-request batch each, racing a
/// capacity-1 intake: every batch gets its own slot, so the slot sequence
/// is checked across *multiple* slots under every arrival and
/// blocked-sender wakeup order. Both connections joined before their
/// batches, so both see every slot's completion.
#[test]
fn two_readers_two_slots_sequence_monotone() {
    let interleavings = loom::model(|| {
        let stop = StopFlag::new();
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(1);
        let readers = readers(in_tx, vec![vec![batch(0, 1, 0)], vec![batch(1, 2, 1)]]);
        let coord = serve(Coordinator::new(2, 4), in_rx, &stop);
        join_all(readers);
        let completions = check_answers(&streams(&coord, 2), &[vec![1], vec![2]]);
        assert_eq!(coord.slot, 2, "one slot per batch");
        // Each connection joined before its own batch's slot; the other
        // one's slot may have run before it joined.
        assert!(completions.iter().all(|&c| (1..=2).contains(&c)), "{completions:?}");
    });
    eprintln!("loom_serve config A: {interleavings} interleavings");
    assert!(interleavings > 1000, "config A must be non-trivial, got {interleavings}");
}

/// Config B — three readers racing a capacity-1 intake channel: bounded
/// sends block, so every blocked-producer wakeup order (and every arrival
/// order) is explored; one slot answers all three batches. The focus is
/// the hand-off itself, so replies are collected by the coordinator
/// directly — no-lost-batch and no-double-grant must hold for every
/// wakeup order.
#[test]
fn three_readers_contend_bounded_intake() {
    let interleavings = loom::model(|| {
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(1);

        let tx2 = in_tx.clone();
        let tx3 = in_tx.clone();
        let readers: Vec<_> = [(10u64, in_tx), (20u64, tx2), (30u64, tx3)]
            .into_iter()
            .map(|(id, tx)| {
                loom::thread::spawn(move || {
                    tx.send(batch(0, id, 0))
                        .expect("coordinator drains before dropping the receiver");
                })
            })
            .collect();

        // Coordinator: admit all batches (whatever their order), then run
        // a single slot over the combined queue.
        let mut queues: ShardQueues<Submit> = ShardQueues::new(1, 4);
        for _ in 0..3 {
            let Ok(InEvent::Batch { requests, .. }) = in_rx.recv() else {
                panic!("each reader sends exactly one batch")
            };
            for s in requests {
                queues.try_admit(s.shard, s).expect("queues sized for the load");
            }
        }
        let mut replies: Vec<u64> = Vec::new();
        queues.drain_into(|s| replies.push(s.id));
        for r in readers {
            r.join().expect("reader exits after its send");
        }
        replies.sort_unstable();
        assert_eq!(replies, vec![10, 20, 30], "every batch admitted exactly once");
    });
    eprintln!("loom_serve config B: {interleavings} interleavings");
    assert!(interleavings > 1000, "config B must be non-trivial, got {interleavings}");
}

/// Config C — SHUTDOWN racing an in-flight batch from another connection:
/// the coordinator stops once the SHUTDOWN is in and nothing admitted is
/// pending, so the batch is answered exactly when it was admitted before
/// that — and teardown completes in every arrival order, closing the
/// connection whose join or batch was still queued or blocked.
#[test]
fn shutdown_races_inflight_batch() {
    static SEEN_C: AtomicUsize = AtomicUsize::new(0);
    let interleavings = loom::model(|| {
        let stop = StopFlag::new();
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(2);
        let readers = readers(in_tx, vec![vec![batch(0, 7, 0)], vec![InEvent::Shutdown]]);
        let coord = serve(Coordinator::new(1, 4), in_rx, &stop);
        assert!(coord.stop, "the SHUTDOWN event is never lost");
        assert!(stop.is_raised(), "acceptor gate raised before the join");
        join_all(readers);
        let streams = streams(&coord, 2);
        check_answers(&streams, &[coord.admitted.clone(), Vec::new()]);
        assert!(!streams[1].is_empty(), "the shutting connection joined before its SHUTDOWN");
        let outcome = match (coord.admitted.is_empty(), streams[0].is_empty()) {
            (false, _) => 0,
            (true, false) => 1,
            (true, true) => 2,
        };
        saw(&SEEN_C, outcome);
    });
    eprintln!("loom_serve config C: {interleavings} interleavings");
    // The batch was answered; the batch was cut off by the stop but its
    // connection had joined; neither had reached the coordinator.
    assert_eq!(SEEN_C.load(Ordering::Relaxed), 0b111, "config C missed an outcome of the race");
    assert!(interleavings > 1000, "config C must be non-trivial, got {interleavings}");
}

/// Config D — admission overflow: two connections each send two requests
/// for one capacity-1 shard; the second of each batch is denied Full *at
/// admission*, and the deny is written like any other reply — every id
/// answered exactly once, the granted ones in their slots, each deny
/// before its slot's completion.
#[test]
fn queue_full_deny_is_still_answered() {
    let interleavings = loom::model(|| {
        let stop = StopFlag::new();
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(2);
        let pair = |conn: usize, first: u64| InEvent::Batch {
            conn,
            requests: vec![Submit { id: first, shard: 0 }, Submit { id: first + 1, shard: 0 }],
        };
        let readers = readers(in_tx, vec![vec![pair(0, 1)], vec![pair(1, 3)]]);
        let coord = serve(Coordinator::new(1, 1), in_rx, &stop);
        join_all(readers);
        let streams = streams(&coord, 2);
        check_answers(&streams, &[vec![1, 2], vec![3, 4]]);
        let granted: Vec<u64> = streams
            .iter()
            .flatten()
            .filter_map(|w| match *w {
                Wire::Verdict { id, granted: true, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(granted.len(), 2, "a capacity-1 shard grants one request per batch");
        assert!(
            granted.contains(&1) && granted.contains(&3),
            "the first of each batch: {granted:?}"
        );
        assert_eq!(coord.slot, 2);
    });
    eprintln!("loom_serve config D: {interleavings} interleavings");
    assert!(interleavings > 1000, "config D must be non-trivial, got {interleavings}");
}

/// Config E — a RESERVE and its RELEASE racing the activation slot, while
/// another connection's batch drives slots: the ack is delivered exactly
/// once, the activation verdict arrives iff the release lost the race, the
/// batch is answered exactly once, and no reservation outlives its start
/// slot. Only the owner's RELEASE cancels, as in `SlotEngine::release`, so
/// the race is the owner's own RELEASE against the slots the coordinator
/// runs between its intake events. Reservations ride the same intake and
/// the same writer table as cell traffic, with no extra locks.
#[test]
fn reserve_release_race_acked_exactly_once() {
    static SEEN_E: AtomicUsize = AtomicUsize::new(0);
    let interleavings = loom::model(|| {
        let stop = StopFlag::new();
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(2);
        let owner = vec![
            InEvent::Reserve { conn: 0, id: 5, start_in: 1 },
            InEvent::Release { conn: 0, id: 5 },
        ];
        let readers = readers(in_tx, vec![owner, vec![batch(1, 7, 0)]]);
        let coord = serve(Coordinator::new(1, 4), in_rx, &stop);
        join_all(readers);
        let mut owner_ids = vec![1005];
        if !coord.cancelled {
            // The release came after the start slot: it hit nothing, and
            // the reservation activated.
            owner_ids.push(5);
        }
        check_answers(&streams(&coord, 2), &[owner_ids, vec![7]]);
        assert!(coord.reservations.is_empty(), "no reservation outlives its start slot");
        saw(&SEEN_E, usize::from(coord.cancelled));
    });
    eprintln!("loom_serve config E: {interleavings} interleavings");
    assert_eq!(SEEN_E.load(Ordering::Relaxed), 0b11, "config E missed an outcome of the race");
    assert!(interleavings > 1000, "config E must be non-trivial, got {interleavings}");
}

/// Config F — one connection's HELLO racing another connection's
/// SUBMIT-driven slots: however the join lands against the two slots, the
/// late connection's first frame is HELLO_ACK, and it then sees the
/// completion of exactly the slots run after it joined.
#[test]
fn hello_races_submit_driven_slots() {
    static SEEN_F: AtomicUsize = AtomicUsize::new(0);
    let interleavings = loom::model(|| {
        let stop = StopFlag::new();
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(1);
        let readers = readers(in_tx, vec![vec![batch(0, 1, 0), batch(0, 2, 0)], Vec::new()]);
        let coord = serve(Coordinator::new(1, 4), in_rx, &stop);
        join_all(readers);
        let streams = streams(&coord, 2);
        let completions = check_answers(&streams, &[vec![1, 2], Vec::new()]);
        assert_eq!(coord.slot, 2);
        assert_eq!(completions[0], 2, "the driver joined before both of its slots");
        // `check_stream` proved the late stream consecutive; it must also
        // end at the last slot whenever it saw one.
        if let Some(Wire::SlotComplete(last)) = streams[1].last() {
            assert_eq!(*last, 1, "the late connection missed a slot run after it joined");
        } else {
            assert_eq!(streams[1], vec![Wire::HelloAck], "joined after both slots");
        }
        saw(&SEEN_F, completions[1]);
    });
    eprintln!("loom_serve config F: {interleavings} interleavings");
    // The late connection joined before both slots, between them, and
    // after both.
    assert_eq!(SEEN_F.load(Ordering::Relaxed), 0b111, "config F missed a join position");
    assert!(interleavings > 1000, "config F must be non-trivial, got {interleavings}");
}
