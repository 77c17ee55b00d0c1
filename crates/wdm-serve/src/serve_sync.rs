//! Daemon coordination primitives, model-checkable under loom.
//!
//! Everything the three server roles (acceptor, per-connection readers,
//! coordinator slot loop — see [`crate::server`]) use to talk *across
//! threads* lives here, built on `cfg(loom)`-swappable primitives exactly
//! like [`wdm_sim::sweep_sync`]:
//!
//! * [`bounded`] — the bounded blocking channel (`sync_channel` semantics)
//!   that carries the readers → coordinator intake. Backpressure is the
//!   bound: a flooding client stalls its own reader, never the daemon's
//!   memory;
//! * [`StopFlag`] — the accept-gate the coordinator raises at shutdown;
//! * [`ShardQueues`] — the bounded per-destination admission queues behind
//!   [`crate::SlotEngine`]: batch-atomic admission, deny-when-full, drained
//!   fully every slot.
//!
//! Nothing here orders socket writes: the coordinator is the daemon's only
//! socket writer, so each connection's frames leave in the coordinator's
//! program order, and a connection only receives frames once its reader's
//! HELLO has reached the coordinator through the intake.
//!
//! Under `--cfg loom` (set by `cargo xtask loom` via `RUSTFLAGS`) the
//! mutexes/condvars/atomics below come from the in-tree `loom` shim, and
//! `wdm-serve/tests/loom_serve.rs` explores **every** sequentially
//! consistent interleaving of the readers → coordinator protocol, proving
//! no-lost-batch, no-double-grant, HELLO_ACK-first on every connection,
//! and clean shutdown with in-flight frames.
//!
//! # Lock hierarchy
//!
//! Every mutex in this module is a **leaf** lock: no code path acquires any
//! other lock while holding one (`cargo xtask lint`'s `lock_order` pass
//! enforces the declared hierarchy workspace-wide). Channel condvar
//! notifies are always issued while holding the channel's state lock — the
//! discipline the loom shim's `Condvar` model requires for soundness.
//!
//! # The shutdown drain order
//!
//! This is the daemon's *single* documented teardown sequence; `server.rs`
//! implements it and the loom model replays it with in-flight frames:
//!
//! 1. The coordinator decides to stop (client SHUTDOWN frame or
//!    `max_slots`) and keeps running slots until every admitted request
//!    has been answered (`pending() == 0`) — admitted work is never
//!    dropped. Events still queued in the intake are not admitted.
//! 2. The coordinator raises the [`StopFlag`] and joins the acceptor: no
//!    new connections or reader threads exist past this point.
//! 3. The coordinator writes out every joined connection's buffer and
//!    shuts its socket down both ways.
//! 4. It shuts down every socket whose reader still runs, including the
//!    connections that never joined (HELLO unread, or its join still
//!    queued), so every blocked read fails.
//! 5. It drops the intake receiver: a reader blocked on a full intake gets
//!    its event back as a typed [`SendError`] — never a hang, never a send
//!    that succeeds into a dead queue. What is still queued is never
//!    admitted and goes when the last reader does.
//! 6. It joins the readers.

use std::collections::VecDeque;

#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::{Condvar, Mutex, MutexGuard};

use std::sync::Arc;
#[cfg(not(loom))]
use std::time::{Duration, Instant};

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

/// Locks a channel-state mutex, riding through poisoning: the state is a
/// plain queue plus liveness counters, valid at every instruction boundary,
/// and a panicking peer must not wedge the teardown paths that run next.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What sits behind a channel's state mutex. The sender count and receiver
/// liveness live *inside* the lock so disconnect checks cost no extra
/// shared operations (one lock acquisition per send/recv keeps the loom
/// decision tree small).
#[derive(Debug)]
struct ChanState<T> {
    queue: VecDeque<T>,
    /// Live [`Sender`] clones; 0 means `recv` on an empty queue reports
    /// disconnection instead of blocking.
    senders: usize,
    /// The [`Receiver`] is alive; false fails every send with the value.
    rx_alive: bool,
}

#[derive(Debug)]
struct Chan<T> {
    state: Mutex<ChanState<T>>,
    /// Capacity bound (immutable; outside the lock).
    cap: usize,
    /// Signalled (lock held) when the queue gains an item or the last
    /// sender disconnects.
    not_empty: Condvar,
    /// Signalled (lock held) when the queue loses an item or the receiver
    /// disconnects.
    not_full: Condvar,
}

/// Creates a bounded blocking channel with `std::sync::mpsc::sync_channel`
/// semantics: `send` blocks once `cap` items are in flight (`cap` is
/// clamped to at least 1 — rendezvous channels are not provided), `recv`
/// blocks on empty, and either side disconnecting turns the other side's
/// blocking calls into typed errors. Built on the `cfg(loom)`-swappable
/// mutex + condvar pair so `cargo xtask loom` can model it exhaustively.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState { queue: VecDeque::new(), senders: 1, rx_alive: true }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
}

/// The sending half of a [`bounded`] channel. Cloneable; the channel
/// disconnects for the receiver when the last clone drops.
#[derive(Debug)]
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Blocking send: waits while the channel is full. Fails — returning
    /// the value — once the receiver is gone, so no event is ever silently
    /// dropped (`cargo xtask lint`'s `channels` pass bans discarding the
    /// result).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = lock(&self.chan.state);
        while state.rx_alive && state.queue.len() >= self.chan.cap {
            state =
                self.chan.not_full.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if !state.rx_alive {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        // Notify while holding the lock (loom-model soundness requirement).
        self.chan.not_empty.notify_all();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        lock(&self.chan.state).senders += 1;
        Sender { chan: Arc::clone(&self.chan) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.chan.state);
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver blocked on an empty queue so it can observe
            // the disconnect.
            self.chan.not_empty.notify_all();
        }
    }
}

/// The receiving half of a [`bounded`] channel (single consumer).
#[derive(Debug)]
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Blocking receive: waits for an item, or reports [`RecvError`] once
    /// the queue is empty *and* every sender is gone (queued items are
    /// always delivered before the disconnect — the drain guarantee the
    /// shutdown order relies on).
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = lock(&self.chan.state);
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.chan.not_full.notify_all();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state =
                self.chan.not_empty.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = lock(&self.chan.state);
        if let Some(value) = state.queue.pop_front() {
            self.chan.not_full.notify_all();
            return Ok(value);
        }
        if state.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Receive with a deadline, for the coordinator's slot-boundary intake
    /// window. Not available under `--cfg loom`: the model has no clock, so
    /// the loom build delegates to blocking [`Receiver::recv`] — model code
    /// must drive shutdown through disconnects, which is exactly what the
    /// drain order does.
    #[cfg(not(loom))]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = lock(&self.chan.state);
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.chan.not_full.notify_all();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Some(deadline) = deadline else {
                // Effectively-infinite timeout: block without a deadline.
                state = self
                    .chan
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            };
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _timed_out) = self
                .chan
                .not_empty
                .wait_timeout(state, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }

    /// Loom stand-in for [`Receiver::recv_timeout`] (see above): blocks
    /// until an item or a disconnect — timeouts are not modeled.
    #[cfg(loom)]
    pub fn recv_timeout(&self, _timeout: core::time::Duration) -> Result<T, RecvTimeoutError> {
        self.recv().map_err(|RecvError| RecvTimeoutError::Disconnected)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.chan.state);
        state.rx_alive = false;
        // Senders blocked on a full queue must wake to observe the
        // disconnect and get their value back.
        self.chan.not_full.notify_all();
    }
}

/// The shutdown gate the coordinator raises and the acceptor polls (step 2
/// of the drain order). A plain `bool` behind the loom-swappable atomic so
/// the model can prove raise-before-join ordering.
#[derive(Debug, Default)]
pub struct StopFlag {
    flag: AtomicUsize,
}

impl StopFlag {
    /// A lowered flag.
    pub fn new() -> StopFlag {
        StopFlag { flag: AtomicUsize::new(0) }
    }

    /// Raises the flag (idempotent).
    pub fn raise(&self) {
        self.flag.store(1, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    pub fn is_raised(&self) -> bool {
        self.flag.load(Ordering::SeqCst) != 0
    }
}

/// Why [`ShardQueues::try_admit`] refused a request; carries the value back
/// so the caller can answer the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum AdmitRejection<T> {
    /// The shard index is out of range for this queue set.
    InvalidShard(T),
    /// The shard's bounded queue is full — retry next slot (queues drain
    /// fully every slot, so the hint is exact).
    Full(T),
}

/// Bounded per-destination-fiber admission queues — the paper's per-output
/// partition, extracted from the slot engine so the admission policy
/// (batch-atomic, deny-when-full, drained fully every slot) is one
/// auditable structure the loom model can drive directly.
///
/// Owned by the coordinator thread; cross-thread hand-off happens *before*
/// admission (the intake channel) so a client batch travels as one event
/// and can never be split across a slot boundary.
#[derive(Debug)]
pub struct ShardQueues<T> {
    queues: Vec<VecDeque<T>>,
    capacity: usize,
}

impl<T> ShardQueues<T> {
    /// `shards` bounded FIFO queues of `capacity` each (clamped to ≥ 1).
    pub fn new(shards: usize, capacity: usize) -> ShardQueues<T> {
        ShardQueues {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            capacity: capacity.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Per-shard capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `item` into shard `shard`'s queue, or rejects it (returning
    /// the item) when the shard is unknown or full. Never buffers without
    /// bound.
    pub fn try_admit(&mut self, shard: usize, item: T) -> Result<(), AdmitRejection<T>> {
        let Some(queue) = self.queues.get_mut(shard) else {
            return Err(AdmitRejection::InvalidShard(item));
        };
        if queue.len() >= self.capacity {
            return Err(AdmitRejection::Full(item));
        }
        queue.push_back(item);
        Ok(())
    }

    /// Items waiting across all shards.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Drains every shard (shard order, FIFO within a shard) into `sink`.
    /// Allocation-free: part of the zero-alloc slot loop.
    pub fn drain_into(&mut self, mut sink: impl FnMut(T)) {
        for queue in &mut self.queues {
            while let Some(item) = queue.pop_front() {
                sink(item);
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::{bounded, AdmitRejection, RecvTimeoutError, ShardQueues, StopFlag, TryRecvError};
    use std::time::Duration;

    #[test]
    fn channel_delivers_in_order_and_reports_disconnects() {
        let (tx, rx) = bounded::<u32>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn queued_items_survive_sender_disconnect() {
        let (tx, rx) = bounded::<u32>(4);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7), "drain before disconnect");
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_to_dead_receiver_returns_the_value() {
        let (tx, rx) = bounded::<String>(2);
        drop(rx);
        let err = tx.send("lost?".to_owned()).unwrap_err();
        assert_eq!(err.0, "lost?");
    }

    #[test]
    fn full_channel_blocks_until_drained() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2).map(|()| "delivered"));
        // The blocked send completes once we make room.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(sender.join().unwrap(), Ok("delivered"));
    }

    #[test]
    fn blocked_send_fails_when_receiver_drops() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(10));
        drop(rx);
        let err = sender.join().unwrap().unwrap_err();
        assert_eq!(err.0, 2, "the undeliverable value comes back");
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded::<u32>(2);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn clone_keeps_channel_alive_until_last_sender() {
        let (tx, rx) = bounded::<u32>(4);
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(3).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(3));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn stop_flag_is_sticky() {
        let flag = StopFlag::new();
        assert!(!flag.is_raised());
        flag.raise();
        flag.raise();
        assert!(flag.is_raised());
    }

    #[test]
    fn shard_queues_bound_admission_and_drain_in_order() {
        let mut q: ShardQueues<u32> = ShardQueues::new(2, 2);
        assert_eq!(q.shards(), 2);
        assert_eq!(q.capacity(), 2);
        q.try_admit(0, 10).unwrap();
        q.try_admit(1, 20).unwrap();
        q.try_admit(0, 11).unwrap();
        assert_eq!(q.try_admit(0, 12), Err(AdmitRejection::Full(12)));
        assert_eq!(q.try_admit(9, 13), Err(AdmitRejection::InvalidShard(13)));
        assert_eq!(q.pending(), 3);
        let mut drained = Vec::new();
        q.drain_into(|v| drained.push(v));
        assert_eq!(drained, vec![10, 11, 20], "shard order, FIFO within");
        assert!(q.is_empty());
        // Draining reopens admission.
        q.try_admit(0, 14).unwrap();
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut q: ShardQueues<u8> = ShardQueues::new(1, 0);
        assert_eq!(q.capacity(), 1);
        q.try_admit(0, 1).unwrap();
        assert_eq!(q.try_admit(0, 2), Err(AdmitRejection::Full(2)));
    }
}
