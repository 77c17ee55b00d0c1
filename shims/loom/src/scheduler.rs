//! The exhaustive quiescence scheduler behind [`model`], plus the modeled
//! primitives (`AtomicUsize`, `Mutex`, `spawn`/`JoinHandle`).
//!
//! # The park/choose discipline
//!
//! Model threads are real OS threads, but at most one executes user code at
//! a time (freshly spawned threads may run their closure prologue
//! concurrently — it cannot touch modeled state). Every modeled shared
//! operation calls [`Scheduler::pre_op`] first, which **parks** the thread.
//! When the last live thread parks (quiescence), one parked thread is
//! *chosen* to perform its pending operation; it runs — operation plus any
//! thread-local code after it — until it parks at its next operation, and
//! the cycle repeats.
//!
//! Choices replay a recorded decision path, then extend it depth-first;
//! [`model`] re-runs its closure until the whole tree is explored. Because a
//! decision is recorded *only* when ≥ 2 threads sit parked at a pending
//! operation, the tree has exactly one decision per shared operation — the
//! minimum for an exhaustive explorer. Non-operations never branch:
//! thread exit, a join on a finished thread, and mutex release just update
//! scheduler state, so joining or finishing threads cost nothing. (Real
//! loom additionally prunes *commuting* operation orders with DPOR; this
//! shim re-runs them, so keep modeled protocols to a few dozen operations.)
//!
//! Blocked threads (waiting on a held mutex or an unfinished join target)
//! are not choosable; quiescence with no pending thread but blocked ones is
//! reported as a deadlock.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Condvar as StdCondvar, LockResult, OnceLock, PoisonError};

/// Hard cap on explored interleavings — a runaway-model backstop far above
/// anything the in-tree models need.
const MAX_ITERATIONS: u64 = 2_000_000;

/// One recorded scheduling decision: at a quiescence point with `options`
/// parked pending threads, the `chosen`-th (in slot order) was picked.
#[derive(Debug, Clone, Copy)]
struct Decision {
    chosen: usize,
    options: usize,
}

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockOn {
    /// A mutex (keyed by address) that is currently held.
    Mutex(usize),
    /// Another model thread (by slot) that has not finished.
    Join(usize),
    /// A condition variable (keyed by address) awaiting a notify.
    Condvar(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Executing user code (counted in `State::unparked`).
    Running,
    /// Parked at `pre_op`, waiting to be chosen to perform its operation.
    Pending,
    /// Waiting on a mutex or join; not choosable until freed.
    Blocked(BlockOn),
    Finished,
}

#[derive(Debug, Default)]
struct State {
    /// A model iteration is executing.
    active: bool,
    /// Per-slot thread states for the current iteration.
    threads: Vec<ThreadState>,
    /// Number of `Running` threads; a choice is made only at zero.
    unparked: usize,
    /// DFS decision path: replay prefix + extensions made this iteration.
    schedule: Vec<Decision>,
    /// Next decision index to replay/extend.
    depth: usize,
    /// Held-state of every modeled mutex touched this iteration, by address.
    mutexes: HashMap<usize, bool>,
    /// Iterations completed so far in this [`model`] call.
    iterations: u64,
}

#[derive(Debug, Default)]
struct Scheduler {
    state: std::sync::Mutex<State>,
    cv: StdCondvar,
}

fn scheduler() -> &'static Scheduler {
    static SCHED: OnceLock<Scheduler> = OnceLock::new();
    SCHED.get_or_init(Scheduler::default)
}

/// Held by [`model`] for its whole run. The scheduler is one process-wide
/// state, so `model` calls from parallel test threads must take turns.
static MODEL_TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

thread_local! {
    /// This OS thread's model slot, when it is a model thread.
    static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

type Guard<'a> = std::sync::MutexGuard<'a, State>;

impl Scheduler {
    fn lock_state(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// At quiescence (no running thread), chooses the next pending thread —
    /// replaying the decision prefix, then extending it depth-first — and
    /// sets it running. No-op while any thread still runs.
    ///
    /// Quiescence with nothing pending means the iteration is over (all
    /// threads finished) or the model deadlocked; a deadlock deactivates the
    /// iteration (so parked threads drain instead of hanging) and panics.
    fn try_choose(&self, st: &mut State) {
        if st.unparked > 0 {
            return;
        }
        let pending: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == ThreadState::Pending)
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            let all_finished = st.threads.iter().all(|t| *t == ThreadState::Finished);
            if !all_finished {
                st.active = false;
                self.cv.notify_all();
            }
            assert!(
                all_finished,
                "loom model deadlock: every live thread is blocked ({:?})",
                st.threads
            );
            // Iteration complete; model() is woken by the caller's notify.
            return;
        }
        let pick = if pending.len() == 1 {
            pending[0]
        } else {
            if st.depth == st.schedule.len() {
                st.schedule.push(Decision { chosen: 0, options: pending.len() });
            }
            let decision = st.schedule[st.depth];
            debug_assert_eq!(
                decision.options,
                pending.len(),
                "non-deterministic model: replay diverged at depth {}",
                st.depth
            );
            st.depth += 1;
            pending[decision.chosen]
        };
        st.threads[pick] = ThreadState::Running;
        st.unparked += 1;
    }

    /// Parks this thread before a shared operation and blocks until it is
    /// chosen to perform it. No-op for threads outside a model.
    fn pre_op(&self) {
        let Some(me) = SLOT.with(Cell::get) else { return };
        let mut st = self.lock_state();
        if !st.active {
            return;
        }
        st.threads[me] = ThreadState::Pending;
        st.unparked -= 1;
        self.try_choose(&mut st);
        self.wait_until_running(st, me);
    }

    /// Parks this thread as blocked on `on` and returns once it is freed
    /// *and* running again (join waiters are freed straight to `Running` by
    /// the exiting thread; mutex waiters are freed to `Pending` on release
    /// and re-chosen, so contended acquisition order is explored).
    fn block_on(&self, mut st: Guard<'_>, me: usize, on: BlockOn) {
        st.threads[me] = ThreadState::Blocked(on);
        st.unparked -= 1;
        self.try_choose(&mut st);
        self.wait_until_running(st, me);
    }

    fn wait_until_running(&self, mut st: Guard<'_>, me: usize) {
        self.cv.notify_all();
        while st.active && st.threads[me] != ThreadState::Running {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks `me` finished and sets its joiners running. Not a decision
    /// point: an exit performs no shared operation.
    fn finish_thread(&self, me: usize) {
        let mut st = self.lock_state();
        st.threads[me] = ThreadState::Finished;
        if st.active {
            let mut freed = 0;
            for t in &mut st.threads {
                if *t == ThreadState::Blocked(BlockOn::Join(me)) {
                    *t = ThreadState::Running;
                    freed += 1;
                }
            }
            st.unparked += freed;
            st.unparked -= 1;
            self.try_choose(&mut st);
        }
        self.cv.notify_all();
    }
}

/// Runs `f` under the exhaustive scheduler, once per distinct interleaving,
/// until the whole decision tree is explored, and returns how many
/// interleavings were executed (so model tests can record and assert their
/// coverage). Panics from any model thread (a failed assertion in some
/// interleaving) are propagated to the caller with the schedule already torn
/// down.
///
/// The closure is `Fn` (not `FnOnce`) because it runs many times; shared
/// state must be created *inside* it so every iteration starts fresh.
///
/// Calls from different threads (parallel tests) run one after another;
/// a call from inside a model thread panics.
pub fn model<F>(f: F) -> u64
where
    F: Fn() + Send + Sync + 'static,
{
    // Checked before taking the turn: a model thread would otherwise wait
    // forever on the turn its own run holds.
    assert!(SLOT.with(Cell::get).is_none(), "loom::model cannot be nested");
    // A poisoned turn only means an earlier model failed; the state it
    // leaves behind is reset below.
    let _turn = MODEL_TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let sched = scheduler();
    {
        let mut st = sched.lock_state();
        assert!(!st.active, "loom::model cannot be nested");
        st.schedule.clear();
        st.iterations = 0;
    }
    loop {
        // Fresh iteration: slot 0 is this thread, replaying st.schedule.
        {
            let mut st = sched.lock_state();
            assert!(st.iterations < MAX_ITERATIONS, "loom model too large: {MAX_ITERATIONS} interleavings explored without exhausting the schedule tree");
            st.active = true;
            st.threads = vec![ThreadState::Running];
            st.unparked = 1;
            st.depth = 0;
            st.mutexes.clear();
        }
        SLOT.with(|s| s.set(Some(0)));
        let outcome = catch_unwind(AssertUnwindSafe(&f));
        sched.finish_thread(0);
        // Wait for every spawned thread to finish before judging the
        // iteration (they keep choosing among themselves).
        let mut st = sched.lock_state();
        while !st.threads.iter().all(|t| *t == ThreadState::Finished) {
            st = sched.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.active = false;
        st.iterations += 1;
        SLOT.with(|s| s.set(None));
        if let Err(panic) = outcome {
            let iterations = st.iterations;
            let path: Vec<usize> = st.schedule.iter().map(|d| d.chosen).collect();
            st.schedule.clear();
            drop(st);
            eprintln!("loom: model failed on iteration {iterations} (decision path {path:?})");
            resume_unwind(panic);
        }
        if !backtrack(&mut st.schedule) {
            eprintln!("loom: model complete, {} interleavings explored", st.iterations);
            return st.iterations;
        }
    }
}

/// Advances the decision path to the next unexplored branch (depth-first):
/// drops exhausted trailing decisions and bumps the deepest one that still
/// has an untried option. Returns `false` when the tree is exhausted.
fn backtrack(schedule: &mut Vec<Decision>) -> bool {
    while let Some(d) = schedule.pop() {
        if d.chosen + 1 < d.options {
            schedule.push(Decision { chosen: d.chosen + 1, options: d.options });
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Modeled primitives
// ---------------------------------------------------------------------------

/// Modeled `AtomicUsize`: every operation parks at the scheduler. The
/// `Ordering` argument is accepted for API compatibility but the shim
/// explores sequentially consistent interleavings regardless (see the crate
/// docs for why that is sound here and what TSan adds).
#[derive(Debug, Default)]
pub struct AtomicUsize {
    value: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    /// A new modeled atomic.
    pub const fn new(value: usize) -> AtomicUsize {
        AtomicUsize { value: std::sync::atomic::AtomicUsize::new(value) }
    }

    /// Modeled `load`.
    pub fn load(&self, _order: Ordering) -> usize {
        scheduler().pre_op();
        self.value.load(Ordering::SeqCst)
    }

    /// Modeled `store`.
    pub fn store(&self, value: usize, _order: Ordering) {
        scheduler().pre_op();
        self.value.store(value, Ordering::SeqCst);
    }

    /// Modeled `fetch_add`.
    pub fn fetch_add(&self, value: usize, _order: Ordering) -> usize {
        scheduler().pre_op();
        self.value.fetch_add(value, Ordering::SeqCst)
    }

    /// Modeled `swap`.
    pub fn swap(&self, value: usize, _order: Ordering) -> usize {
        scheduler().pre_op();
        self.value.swap(value, Ordering::SeqCst)
    }

    /// Modeled `compare_exchange`.
    pub fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<usize, usize> {
        scheduler().pre_op();
        self.value.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }
}

/// Modeled mutex. Acquisition is a scheduling point; contended acquisition
/// blocks the model thread at the scheduler level (it is simply not
/// choosable until the holder releases), so the explored tree never
/// contains busy-wait schedules.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Guard for a modeled [`Mutex`]; releases the scheduler-level hold on drop.
/// Holds the mutex itself (not just its address) so [`Condvar::wait`] can
/// re-acquire the same lock after being woken.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
}

/// Releases the logical (scheduler-level) hold on mutex `addr` and frees its
/// waiters back to `Pending`, so their retried acquisitions are re-chosen
/// like any pending operation (contended acquisition order is explored).
fn release_logical(st: &mut State, addr: usize) {
    st.mutexes.insert(addr, false);
    for t in &mut st.threads {
        if *t == ThreadState::Blocked(BlockOn::Mutex(addr)) {
            *t = ThreadState::Pending;
        }
    }
}

impl<T> Mutex<T> {
    /// A new modeled mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Takes the scheduler-level (logical) lock for model thread `me`,
    /// blocking at the scheduler while it is held. The *caller* supplies the
    /// scheduling point: [`Mutex::lock`] parks at `pre_op` first, while a
    /// [`Condvar::wait`] relock uses the wakeup choice itself.
    fn logical_acquire(&self, me: usize) {
        let sched = scheduler();
        let addr = self.addr();
        // Loop: a release frees every waiter back to Pending, and a later
        // choice may let another waiter win.
        loop {
            let mut st = sched.lock_state();
            if !st.active {
                break;
            }
            let held = st.mutexes.entry(addr).or_insert(false);
            if !*held {
                *held = true;
                break;
            }
            sched.block_on(st, me, BlockOn::Mutex(addr));
        }
    }

    /// Takes the std lock (guaranteed uncontended while the logical lock is
    /// held) and wraps it in the modeled guard.
    fn std_lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match self.inner.lock() {
            Ok(guard) => Ok(MutexGuard { inner: Some(guard), mutex: self }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                inner: Some(poisoned.into_inner()),
                mutex: self,
            })),
        }
    }

    /// Modeled `lock`.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(me) = SLOT.with(Cell::get) {
            // The acquisition is the shared operation: park, get chosen,
            // then take the logical lock.
            scheduler().pre_op();
            self.logical_acquire(me);
        }
        self.std_lock()
    }

    /// Modeled `into_inner` (no scheduling: exclusive access is static).
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        let Some(inner) = self.inner.as_deref() else { unreachable!("guard accessed after drop") };
        inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        let Some(inner) = self.inner.as_deref_mut() else {
            unreachable!("guard accessed after drop")
        };
        inner
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock before the logical lock so the next logical
        // holder can never find the std lock still taken.
        self.inner = None;
        if SLOT.with(Cell::get).is_some() {
            let sched = scheduler();
            let mut st = sched.lock_state();
            if st.active {
                // Releasing itself is not a decision point.
                release_logical(&mut st, self.mutex.addr());
            }
        }
    }
}

/// Modeled condition variable.
///
/// `wait` atomically (under the scheduler's state lock) releases the guard's
/// mutex and parks the thread as `Blocked(Condvar)`; [`Condvar::notify_all`]
/// frees every such waiter back to `Pending`, and the scheduler's choice of
/// *which* freed waiter runs first is the explored decision. The relock after
/// wakeup reuses that choice as its scheduling point, so an uncontended
/// wait/notify pair costs the decision tree exactly one branch.
///
/// # Soundness requirement
///
/// `notify_all` is **not** itself a decision point. That is sound only when
/// every notify is issued *while holding the mutex* associated with the
/// waiters' condition (as `serve_sync`'s channel does): the notify is then
/// ordered against every waiter by the mutex itself, and a waiter can never
/// be parked "between" its predicate check and its wait — the shim makes
/// release-and-park atomic, so modeled wakeups are never lost. Notifying
/// without the lock held would let the shim miss interleavings a real
/// condvar allows; don't do it in modeled code.
///
/// Like the other primitives, a `Condvar` used outside [`model`] falls
/// through to `std::sync::Condvar` (which may wake spuriously — callers must
/// loop on their predicate either way). `notify_one` is deliberately not
/// provided: modeled code uses `notify_all` so no wakeup-targeting bug can
/// hide behind a lucky scheduler.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new modeled condvar.
    pub const fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new() }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Modeled `wait`: atomically releases `guard`'s mutex and blocks until
    /// a `notify_all`, then re-acquires the mutex and returns a fresh guard.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let mutex = guard.mutex;
        let std_guard = guard.inner.take();
        // The logical release is performed manually below (model path) or
        // not needed (std path); the guard must not release it again.
        std::mem::forget(guard);
        if let Some(me) = SLOT.with(Cell::get) {
            let sched = scheduler();
            let st = sched.lock_state();
            // After a deadlock tears the iteration down, a free-running
            // drain thread that waits again would hang forever (no modeled
            // notifier is coming) — fail fast instead; the spawn wrapper
            // still marks the thread finished so `model` can report the
            // primary deadlock.
            assert!(st.active, "loom: Condvar::wait during model teardown");
            // Atomically (under the scheduler state lock): drop the std
            // lock, release the logical lock, park on the condvar.
            drop(std_guard);
            let mut st = st;
            release_logical(&mut st, mutex.addr());
            sched.block_on(st, me, BlockOn::Condvar(self.addr()));
            // Woken: re-acquire. The wakeup choice was the scheduling
            // point, so no extra pre_op here.
            mutex.logical_acquire(me);
            mutex.std_lock()
        } else {
            let Some(std_guard) = std_guard else { unreachable!("guard accessed after drop") };
            match self.inner.wait(std_guard) {
                Ok(g) => Ok(MutexGuard { inner: Some(g), mutex }),
                Err(poisoned) => {
                    Err(PoisonError::new(MutexGuard { inner: Some(poisoned.into_inner()), mutex }))
                }
            }
        }
    }

    /// Modeled `notify_all`: frees every waiter parked on this condvar back
    /// to `Pending`. Not a decision point (see the soundness note above).
    pub fn notify_all(&self) {
        if SLOT.with(Cell::get).is_some() {
            let sched = scheduler();
            let mut st = sched.lock_state();
            if st.active {
                let addr = self.addr();
                for t in &mut st.threads {
                    if *t == ThreadState::Blocked(BlockOn::Condvar(addr)) {
                        *t = ThreadState::Pending;
                    }
                }
                return;
            }
        }
        self.inner.notify_all();
    }
}

/// Modeled `thread::spawn`. The child starts running immediately (its
/// closure prologue cannot touch modeled state) and parks at its first
/// shared operation like any other model thread.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let sched = scheduler();
    let slot = {
        let mut st = sched.lock_state();
        assert!(
            st.active && SLOT.with(Cell::get).is_some(),
            "loom::thread::spawn outside loom::model"
        );
        st.threads.push(ThreadState::Running);
        st.unparked += 1;
        st.threads.len() - 1
    };
    let handle = std::thread::spawn(move || {
        SLOT.with(|s| s.set(Some(slot)));
        let outcome = catch_unwind(AssertUnwindSafe(f));
        scheduler().finish_thread(slot);
        SLOT.with(|s| s.set(None));
        match outcome {
            Ok(value) => value,
            Err(panic) => resume_unwind(panic),
        }
    });
    JoinHandle { handle, slot }
}

/// Handle to a modeled thread.
#[derive(Debug)]
pub struct JoinHandle<T> {
    handle: std::thread::JoinHandle<T>,
    slot: usize,
}

impl<T> JoinHandle<T> {
    /// Modeled `join`: blocks at the scheduler level until the target
    /// finishes, then collects its result from the OS thread.
    ///
    /// Deliberately *not* a decision point: a join reads only the target's
    /// monotonic finished flag, so it commutes with every shared operation —
    /// the joining thread (typically the model root, joining every worker)
    /// costs the decision tree nothing.
    pub fn join(self) -> std::thread::Result<T> {
        let sched = scheduler();
        if let Some(me) = SLOT.with(Cell::get) {
            let st = sched.lock_state();
            if st.active && st.threads[self.slot] != ThreadState::Finished {
                sched.block_on(st, me, BlockOn::Join(self.slot));
            }
        }
        self.handle.join()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use super::{model, spawn, AtomicUsize, Condvar, Mutex};

    #[test]
    fn single_thread_model_runs_once() {
        model(|| {
            let a = AtomicUsize::new(0);
            a.store(7, Ordering::SeqCst);
            assert_eq!(a.load(Ordering::SeqCst), 7);
        });
    }

    #[test]
    fn fetch_add_is_atomic_in_every_interleaving() {
        model(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let a = Arc::clone(&a);
                    spawn(move || a.fetch_add(1, Ordering::SeqCst))
                })
                .collect();
            let mut seen: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1], "both increments must be distinct");
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        model(|| {
            let m = Arc::new(Mutex::new(0usize));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    spawn(move || {
                        let mut g = m.lock().unwrap();
                        *g += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(m.lock().map(|g| *g).unwrap(), 2);
        });
    }

    #[test]
    fn exploration_visits_both_orders_of_two_stores() {
        // Across all interleavings, a race of two distinct stores must be
        // observed in both final states — i.e. the explorer really branches.
        use std::sync::Mutex as StdMutex;
        static FINALS: StdMutex<Vec<usize>> = StdMutex::new(Vec::new());
        FINALS.lock().unwrap().clear();
        model(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let h1 = {
                let a = Arc::clone(&a);
                spawn(move || a.store(1, Ordering::SeqCst))
            };
            let h2 = {
                let a = Arc::clone(&a);
                spawn(move || a.store(2, Ordering::SeqCst))
            };
            h1.join().unwrap();
            h2.join().unwrap();
            FINALS.lock().unwrap().push(a.load(Ordering::SeqCst));
        });
        let finals = FINALS.lock().unwrap();
        assert!(finals.contains(&1), "store(1)-last interleaving explored");
        assert!(finals.contains(&2), "store(2)-last interleaving explored");
    }

    #[test]
    fn condvar_handoff_is_never_lost() {
        // Producer sets the flag and notifies while holding the mutex; the
        // consumer loops on wait. Every interleaving must hand the value
        // over — a lost wakeup would surface as a modeled deadlock.
        let interleavings = model(|| {
            let shared = Arc::new((Mutex::new(false), Condvar::new()));
            let producer = {
                let shared = Arc::clone(&shared);
                spawn(move || {
                    let (lock, cv) = &*shared;
                    let mut ready = lock.lock().unwrap();
                    *ready = true;
                    cv.notify_all();
                })
            };
            let (lock, cv) = &*shared;
            let mut ready = lock.lock().unwrap();
            while !*ready {
                ready = cv.wait(ready).unwrap();
            }
            drop(ready);
            producer.join().unwrap();
        });
        assert!(interleavings >= 2, "wait-first and notify-first orders both explored");
    }

    #[test]
    fn model_reports_interleaving_count() {
        let count = model(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let h1 = {
                let a = Arc::clone(&a);
                spawn(move || a.store(1, Ordering::SeqCst))
            };
            let h2 = {
                let a = Arc::clone(&a);
                spawn(move || a.store(2, Ordering::SeqCst))
            };
            h1.join().unwrap();
            h2.join().unwrap();
        });
        assert!(count >= 2, "two racing stores need at least two interleavings, got {count}");
    }

    #[test]
    fn parallel_model_calls_take_turns() {
        // Test threads call `model` concurrently; each call must still
        // explore its own whole tree.
        let racing_stores = || {
            model(|| {
                let a = Arc::new(AtomicUsize::new(0));
                let h = {
                    let a = Arc::clone(&a);
                    spawn(move || a.store(1, Ordering::SeqCst))
                };
                a.store(2, Ordering::SeqCst);
                h.join().unwrap();
            })
        };
        let alone = racing_stores();
        let callers: Vec<_> = (0..4).map(|_| std::thread::spawn(racing_stores)).collect();
        for caller in callers {
            assert_eq!(caller.join().unwrap(), alone, "a parallel call saw a different tree");
        }
    }

    #[test]
    fn nested_model_call_panics() {
        let result = std::panic::catch_unwind(|| {
            model(|| {
                model(|| {});
            })
        });
        let payload = result.expect_err("a model inside a model must panic");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("cannot be nested"), "unexpected panic: {message:?}");
    }

    #[test]
    fn panicking_interleaving_is_reported() {
        let result = std::panic::catch_unwind(|| {
            model(|| {
                let a = Arc::new(AtomicUsize::new(0));
                let h = {
                    let a = Arc::clone(&a);
                    spawn(move || a.store(1, Ordering::SeqCst))
                };
                let seen = a.load(Ordering::SeqCst);
                h.join().unwrap();
                // Fails only in the interleaving where the child ran first.
                assert_eq!(seen, 0, "child store observed before join");
            });
        });
        assert!(result.is_err(), "the failing interleaving must surface");
    }
}
