//! Exhaustive loom models of the daemon's cross-thread protocol.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS=--cfg loom` — run via
//! `cargo xtask loom`. Each model drives the real
//! [`wdm_serve::serve_sync`] primitives — the bounded intake channel, the
//! [`ShardQueues`] admission structure, the [`SlotSequence`], the results
//! channel — through a miniature of the reader → coordinator → results
//! pipeline, inside `loom::model`, which executes it once per distinct
//! sequentially consistent interleaving and asserts in every one:
//!
//! * **no-lost-batch** — every submitted request id is answered exactly
//!   once, even when admission denies it (queue full) and even when a
//!   SHUTDOWN races the submission;
//! * **no-double-grant** — an id never receives two replies (the reply
//!   set is checked for duplicates after the join);
//! * **slot-sequence monotonicity** — the coordinator publishes slots
//!   monotone-dense and the results thread confirms each slot event
//!   arrived *after* its publication ([`SlotSequence`] asserts both);
//! * **results-written-before-join** — the reply log is read from the
//!   results thread's join value, so any interleaving where results could
//!   be lost at teardown surfaces as a missing reply;
//! * **clean shutdown with in-flight frames** — the drain order from
//!   `serve_sync`'s module docs terminates in every interleaving (a hang
//!   is reported by the shim's deadlock detection).
//!
//! Every test asserts a floor on the interleaving count reported by
//! `loom::model` (the shim's return value), so the exhaustiveness claim in
//! DESIGN.md §12 is itself regression-checked. Keep the models tiny: the
//! shim has no partial-order reduction, so each extra channel operation
//! multiplies the tree.

#![cfg(loom)]

use std::sync::Arc;

use wdm_serve::serve_sync::{self, AdmitRejection, ShardQueues, SlotSequence, StopFlag};

/// A submitted request: (reader id, request id, destination shard).
#[derive(Debug, Clone, Copy)]
struct Submit {
    id: u64,
    shard: usize,
}

/// One reader's intake event: a batch of requests, an advance reservation
/// (admitted immediately, activated at `start_slot`), a release of a
/// pending reservation, or SHUTDOWN.
#[derive(Debug)]
enum InEvent {
    Batch(Vec<Submit>),
    Reserve { id: u64, start_slot: u64 },
    Release { id: u64 },
    Shutdown,
}

/// One answer to one id.
#[derive(Debug, Clone, Copy)]
struct Reply {
    id: u64,
    slot: u64,
    granted: bool,
}

/// What the coordinator streams to the results thread, as in the daemon:
/// an admission reply travels alone, a slot's replies travel together
/// with its completion.
#[derive(Debug)]
enum OutEvent {
    Reply(Reply),
    Slot { slot: u64, replies: Vec<Reply> },
}

/// What the results thread hands back through its join: the replies in
/// arrival order, the completed slots in arrival order, and how many
/// replies arrived after their own slot had completed.
#[derive(Debug, Default)]
struct ResultsLog {
    replies: Vec<(u64, u64, bool)>,
    done_slots: Vec<u64>,
    replies_after_own_slot_done: usize,
}

impl ResultsLog {
    fn record(&mut self, r: Reply) {
        if self.done_slots.iter().any(|d| *d >= r.slot) {
            self.replies_after_own_slot_done += 1;
        }
        self.replies.push((r.id, r.slot, r.granted));
    }
}

/// The coordinator's slot step: answer `leading` (replies the slot
/// produces ahead of its cell batch, like activating reservations) and
/// then every drained request as granted, publish the slot, and send the
/// slot as one event. Mirrors `SlotEngine::run_slot` + the `Server::run`
/// slot section with the scheduling core stubbed to "grant everything
/// drained".
fn run_slot(
    queues: &mut ShardQueues<Submit>,
    slot: u64,
    seq: &SlotSequence,
    out_tx: &serve_sync::Sender<OutEvent>,
    leading: Vec<Reply>,
) {
    let mut replies = leading;
    queues.drain_into(|s| replies.push(Reply { id: s.id, slot, granted: true }));
    seq.publish(slot);
    out_tx
        .send(OutEvent::Slot { slot, replies })
        .expect("results thread lives until the sender side is dropped");
}

/// The results thread: drains the out channel until disconnect, logging
/// replies and confirming every slot event against the shared sequence.
fn results_loop(out_rx: &serve_sync::Receiver<OutEvent>, seq: &SlotSequence) -> ResultsLog {
    let mut log = ResultsLog::default();
    while let Ok(ev) = out_rx.recv() {
        match ev {
            OutEvent::Reply(r) => log.record(r),
            OutEvent::Slot { slot, replies } => {
                for r in replies {
                    log.record(r);
                }
                // Publish-before-send in every interleaving.
                seq.confirm(slot);
                // Monotone-dense arrival order on the results side.
                assert_eq!(slot, log.done_slots.len() as u64, "slot events out of order");
                log.done_slots.push(slot);
            }
        }
    }
    log
}

/// Checks a finished run: every id in `expected` answered exactly once
/// (no-lost-batch + no-double-grant), replies never arrive after their own
/// slot's completion, and `slots` slot events arrived.
fn check_log(log: &ResultsLog, expected: &[u64], slots: u64) {
    let mut answered: Vec<u64> = log.replies.iter().map(|(id, _, _)| *id).collect();
    answered.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(answered, want, "every request answered exactly once");
    assert_eq!(log.replies_after_own_slot_done, 0, "reply arrived after its slot completed");
    assert_eq!(log.done_slots.len() as u64, slots, "every slot completed exactly once");
}

/// Config A — two readers, one single-request batch each, racing a
/// capacity-1 intake; the coordinator runs one slot per received batch, so
/// slot-sequence monotonicity is proven across *multiple* slots under
/// every arrival and blocked-sender wakeup order. The results stream is
/// validated by draining the out channel on the root thread after the
/// join, which proves the same ordering facts (replies before their
/// slot's completion, monotone-dense slots) for every reader/coordinator
/// interleaving while keeping the tree small enough to exhaust. (Configs C
/// and D explore a concurrently-draining results thread.)
#[test]
fn two_readers_two_slots_sequence_monotone() {
    let interleavings = loom::model(|| {
        let seq = Arc::new(SlotSequence::new());
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(1);
        let (out_tx, out_rx) = serve_sync::bounded::<OutEvent>(8);

        let second_tx = in_tx.clone();
        let readers: Vec<_> = [(1u64, 0usize, in_tx), (2u64, 1usize, second_tx)]
            .into_iter()
            .map(|(id, shard, tx)| {
                loom::thread::spawn(move || {
                    tx.send(InEvent::Batch(vec![Submit { id, shard }]))
                        .expect("coordinator outlives the readers");
                })
            })
            .collect();

        // Coordinator (this thread): one slot per received batch.
        let mut queues: ShardQueues<Submit> = ShardQueues::new(2, 4);
        for slot in 0..2u64 {
            let Ok(InEvent::Batch(batch)) = in_rx.recv() else {
                panic!("each reader sends exactly one batch")
            };
            for s in batch {
                queues.try_admit(s.shard, s).expect("queues sized for the load");
            }
            run_slot(&mut queues, slot, &seq, &out_tx, Vec::new());
        }
        for r in readers {
            r.join().expect("reader exits after its send");
        }
        drop(out_tx);
        let log = results_loop(&out_rx, &seq);
        check_log(&log, &[1, 2], 2);
        assert_eq!(seq.published(), 2);
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
                    tx.send(InEvent::Batch(vec![Submit { id, shard: 0 }]))
                        .expect("coordinator drains before dropping the receiver");
                })
            })
            .collect();

        // Coordinator: admit all batches (whatever their order), then run
        // a single slot over the combined queue.
        let mut queues: ShardQueues<Submit> = ShardQueues::new(1, 4);
        for _ in 0..3 {
            let Ok(InEvent::Batch(batch)) = in_rx.recv() else {
                panic!("each reader sends exactly one batch")
            };
            for s in batch {
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

/// Config C — SHUTDOWN racing an in-flight SUBMIT from another reader: in
/// every arrival order the batch is still answered before teardown (the
/// drain-order guarantee), the stop flag is raised before the acceptor
/// gate is checked, and teardown completes cleanly.
#[test]
fn shutdown_races_inflight_batch() {
    let interleavings = loom::model(|| {
        let seq = Arc::new(SlotSequence::new());
        let stop = Arc::new(StopFlag::new());
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(2);
        let (out_tx, out_rx) = serve_sync::bounded::<OutEvent>(4);

        let results = {
            let seq = Arc::clone(&seq);
            loom::thread::spawn(move || results_loop(&out_rx, &seq))
        };
        let submitter = {
            let in_tx = in_tx.clone();
            loom::thread::spawn(move || {
                in_tx
                    .send(InEvent::Batch(vec![Submit { id: 7, shard: 0 }]))
                    .expect("coordinator drains the intake before dropping it");
            })
        };
        let shutter = {
            let in_tx = in_tx.clone();
            loom::thread::spawn(move || {
                in_tx.send(InEvent::Shutdown).expect("coordinator drains the intake");
            })
        };
        drop(in_tx);

        // Coordinator: drain the intake to disconnect (both events arrive
        // in some order), then answer everything admitted in a final slot
        // — queued work is never dropped by a shutdown.
        let mut queues: ShardQueues<Submit> = ShardQueues::new(1, 4);
        let mut saw_shutdown = false;
        while let Ok(ev) = in_rx.recv() {
            match ev {
                InEvent::Batch(batch) => {
                    for s in batch {
                        queues.try_admit(s.shard, s).expect("queues sized for the load");
                    }
                }
                InEvent::Shutdown => saw_shutdown = true,
                InEvent::Reserve { .. } | InEvent::Release { .. } => {
                    panic!("config C sends no reservation events")
                }
            }
        }
        assert!(saw_shutdown, "the SHUTDOWN event is never lost");
        stop.raise();
        run_slot(&mut queues, 0, &seq, &out_tx, Vec::new());
        submitter.join().expect("submitter exits");
        shutter.join().expect("shutter exits");
        assert!(stop.is_raised(), "acceptor gate raised before the join");
        drop(out_tx);
        let log = results.join().expect("results thread never panics");
        check_log(&log, &[7], 1);
    });
    eprintln!("loom_serve config C: {interleavings} interleavings");
    assert!(interleavings > 1000, "config C must be non-trivial, got {interleavings}");
}

/// Config D — admission overflow: a capacity-1 shard queue receives two
/// requests for the same shard; the second is denied Full *at admission*
/// and the deny reply is delivered like any other — both ids answered
/// exactly once, the granted one in the slot, the denied one before it.
#[test]
fn queue_full_deny_is_still_answered() {
    let interleavings = loom::model(|| {
        let seq = Arc::new(SlotSequence::new());
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(2);
        let (out_tx, out_rx) = serve_sync::bounded::<OutEvent>(4);

        let results = {
            let seq = Arc::clone(&seq);
            loom::thread::spawn(move || results_loop(&out_rx, &seq))
        };
        let reader = loom::thread::spawn(move || {
            in_tx
                .send(InEvent::Batch(vec![Submit { id: 1, shard: 0 }, Submit { id: 2, shard: 0 }]))
                .expect("coordinator outlives the reader");
        });

        let mut queues: ShardQueues<Submit> = ShardQueues::new(1, 1);
        let Ok(InEvent::Batch(batch)) = in_rx.recv() else {
            panic!("the reader sends exactly one batch")
        };
        for s in batch {
            match queues.try_admit(s.shard, s) {
                Ok(()) => {}
                Err(AdmitRejection::Full(rejected)) => {
                    // The admission deny is a reply too — never dropped.
                    out_tx
                        .send(OutEvent::Reply(Reply { id: rejected.id, slot: 0, granted: false }))
                        .expect("results thread lives");
                }
                Err(AdmitRejection::InvalidShard(_)) => panic!("shard 0 exists"),
            }
        }
        run_slot(&mut queues, 0, &seq, &out_tx, Vec::new());
        reader.join().expect("reader exits");
        drop(out_tx);
        let log = results.join().expect("results thread never panics");
        check_log(&log, &[1, 2], 1);
        let granted: Vec<u64> =
            log.replies.iter().filter(|(_, _, g)| *g).map(|(id, _, _)| *id).collect();
        assert_eq!(granted, vec![1], "capacity-1 shard grants exactly the first request");
    });
    eprintln!("loom_serve config D: {interleavings} interleavings");
    assert!(interleavings > 1000, "config D must be non-trivial, got {interleavings}");
}

/// Config E — a RESERVE racing a RELEASE from another reader, with a cell
/// batch in flight: reservation admission happens at intake-processing
/// time (an ack reply is sent immediately), activation happens at the
/// reservation's start slot, and a release cancels a still-pending
/// reservation. In every arrival order: the ack is delivered exactly once,
/// the activation reply fires iff the release lost the race (arrived
/// before the reserve, hitting nothing), the cell batch is answered
/// exactly once, and the slot sequence stays monotone-dense. This is the
/// coordination shape of `InEvent::Reserve`/`InEvent::Release` in the real
/// daemon — reservations ride the same bounded intake and the same results
/// stream as cell traffic, with no extra locks.
#[test]
fn reserve_release_race_acked_exactly_once() {
    let interleavings = loom::model(|| {
        let seq = Arc::new(SlotSequence::new());
        let (in_tx, in_rx) = serve_sync::bounded::<InEvent>(2);
        let (out_tx, out_rx) = serve_sync::bounded::<OutEvent>(8);

        let reserver = {
            let in_tx = in_tx.clone();
            loom::thread::spawn(move || {
                in_tx
                    .send(InEvent::Reserve { id: 5, start_slot: 1 })
                    .expect("coordinator drains the intake before dropping it");
            })
        };
        let releaser = {
            let in_tx = in_tx.clone();
            loom::thread::spawn(move || {
                in_tx.send(InEvent::Release { id: 5 }).expect("coordinator drains the intake");
            })
        };
        let submitter = {
            let in_tx = in_tx.clone();
            loom::thread::spawn(move || {
                in_tx
                    .send(InEvent::Batch(vec![Submit { id: 7, shard: 0 }]))
                    .expect("coordinator drains the intake");
            })
        };
        drop(in_tx);

        // Coordinator: drain the intake to disconnect, applying events in
        // arrival order against a miniature reservation store. The ack
        // reply (id 100 + rid) is emitted at admission; the activation
        // reply (the rid itself) at the start slot, unless released first.
        let mut queues: ShardQueues<Submit> = ShardQueues::new(1, 4);
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut cancelled = false;
        while let Ok(ev) = in_rx.recv() {
            match ev {
                InEvent::Batch(batch) => {
                    for s in batch {
                        queues.try_admit(s.shard, s).expect("queues sized for the load");
                    }
                }
                InEvent::Reserve { id, start_slot } => {
                    pending.push((id, start_slot));
                    out_tx
                        .send(OutEvent::Reply(Reply { id: 100 + id, slot: 0, granted: true }))
                        .expect("results drained after the coordinator");
                }
                InEvent::Release { id } => {
                    let before = pending.len();
                    pending.retain(|(rid, _)| *rid != id);
                    cancelled = pending.len() < before;
                }
                InEvent::Shutdown => panic!("config E sends no SHUTDOWN"),
            }
        }
        for slot in 0..2u64 {
            // Activation replies lead the slot's stream, like the due
            // drain in `advance_slot_into`.
            let mut activations = Vec::new();
            pending.retain(|&(rid, start)| {
                let due = start == slot;
                if due {
                    activations.push(Reply { id: rid, slot, granted: true });
                }
                !due
            });
            run_slot(&mut queues, slot, &seq, &out_tx, activations);
        }
        for r in [reserver, releaser, submitter] {
            r.join().expect("reader exits after its send");
        }
        drop(out_tx);
        let log = results_loop(&out_rx, &seq);
        let mut expected = vec![7u64, 105];
        if !cancelled {
            // The release arrived first and hit nothing: the reservation
            // survives to its start slot and must activate.
            expected.push(5);
        }
        check_log(&log, &expected, 2);
        assert!(pending.is_empty(), "no reservation outlives its start slot");
    });
    eprintln!("loom_serve config E: {interleavings} interleavings");
    assert!(interleavings > 1000, "config E must be non-trivial, got {interleavings}");
}
