//! Persistent worker pool for multi-sink flow evaluation.
//!
//! [`min_max_flow_parallel`](crate::min_max_flow_parallel) used to spawn scoped threads
//! on every call; at fleet scale — thousands of evaluations per sweep, each fanning out
//! and joining — the per-call spawn cost is pure overhead. [`FlowPool`] keeps a set of
//! long-lived workers alive instead, each owning a reusable [`FlowSolver`] workspace
//! that stays warm across evaluations:
//!
//! * work is fed through a channel (a `Mutex<VecDeque>` + `Condvar` queue — no external
//!   dependency, no unsafe code);
//! * workers are spawned lazily: a pool starts with zero threads and grows on demand up
//!   to its configured cap, so sequential callers never pay for a pool;
//! * every evaluation shares its running minimum through an atomic, and the
//!   *submitting* thread always works a share of the sinks itself, so an evaluation
//!   makes progress even when every pool worker is busy with other submitters (no
//!   deadlock, no idle submitter);
//! * dropping the pool shuts the workers down cleanly: the queue is drained, the
//!   shutdown flag raised, and every worker joined.
//!
//! # Fairness contract under many submitters
//!
//! The pool is shared by every shard of a `bmp-serve` fleet, so the contract matters
//! at N-submitter scale: **a submitter blocked on a slow evaluation can never starve
//! another submitter's tickets.** Three mechanisms combine to guarantee it:
//!
//! 1. the submitting thread always drains its own evaluation's sink order itself, so
//!    an evaluation completes even if no worker ever picks up one of its tickets;
//! 2. tickets from different evaluations interleave in one FIFO queue — a worker that
//!    finishes a slow ticket pulls whatever evaluation is at the head next, and a
//!    single evaluation can queue at most `threads - 1` tickets, bounding how much of
//!    the queue any one submitter occupies;
//! 3. a submitter that finishes its own drain *reclaims* its still-queued tickets
//!    (counted by [`FlowPool::tickets_reclaimed`]) instead of waiting for busy workers
//!    to reach them, so a fast evaluation never inherits a slow neighbour's wall time.
//!
//! The arena travels to the workers as an [`Arc<FlowArena>`] — the safe way to hand a
//! borrowed-for-the-call network to threads that outlive the call. Workers drop their
//! clones *before* the submitter is released, so a caller that holds the only other
//! reference (the evaluation context of `bmp-core`, say) regains unique ownership the
//! moment the call returns and can keep rewriting its retained arena in place.
//!
//! Exactness is inherited from the capped batched evaluator: every sink's solve is
//! capped at a running minimum that is never below the true minimum, a capped-out solve
//! cannot lower the minimum, and the sink realising the minimum is computed exactly —
//! so the pooled result is bit-for-bit the sequential [`FlowSolver::min_max_flow`].

use crate::csr::{FlowArena, FlowSolver};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Worker cap of the process-wide pool ([`FlowPool::global`]), aligned with the cap of
/// [`crate::suggested_flow_threads`] so evaluation fan-out stays polite inside
/// already-parallel sweeps.
const GLOBAL_POOL_CAP: usize = 8;

/// Shared state of one multi-sink evaluation dispatched onto the pool.
#[derive(Debug)]
struct EvalShared {
    /// Sinks in ascending in-capacity order — the evaluation order shared with the
    /// sequential evaluator.
    order: Vec<u32>,
    source: u32,
    /// Next unclaimed index into `order`; workers and the submitter pull from it.
    next: AtomicUsize,
    /// Bit pattern of the running minimum (non-negative IEEE-754 doubles, flows and
    /// +inf, order identically to their bit patterns, so `fetch_min` works on the bits).
    min_bits: AtomicU64,
    /// Tickets not yet finished; the submitter waits for zero.
    pending: Mutex<usize>,
    done: Condvar,
    /// Raised when a worker panicked mid-ticket; the submitter discards the pooled
    /// result and recomputes the evaluation sequentially on its own thread.
    poisoned: AtomicBool,
}

impl EvalShared {
    /// Claims sinks until the order is exhausted or the running minimum hits zero.
    fn drain(&self, solver: &mut FlowSolver, arena: &FlowArena) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.order.len() {
                return;
            }
            let cap = f64::from_bits(self.min_bits.load(Ordering::Acquire));
            if cap <= 0.0 {
                return;
            }
            let sink = self.order[index] as usize;
            let flow = solver.max_flow_limited(arena, self.source as usize, sink, cap);
            self.min_bits.fetch_min(flow.to_bits(), Ordering::AcqRel);
        }
    }

    /// Marks one ticket finished, waking the submitter when it was the last.
    fn finish_ticket(&self) {
        let mut pending = self.pending.lock().expect("pool evaluation state poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// One unit of pool work: a share of one evaluation's sinks.
struct Ticket {
    arena: Arc<FlowArena>,
    shared: Arc<EvalShared>,
}

/// The channel feeding tickets to the workers.
struct Queue {
    state: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    tickets: VecDeque<Ticket>,
    shutdown: bool,
}

/// Outstanding injected worker panics (the `FaultPlan` hook of `bmp-sim`): each armed
/// panic makes one worker ticket panic at the start of its drain. Zero in production —
/// the only cost of the disabled hook is one relaxed load per ticket.
static INJECTED_WORKER_PANICS: AtomicU64 = AtomicU64::new(0);

/// Arms `count` injected worker panics: the next `count` pool tickets picked up by
/// worker threads panic instead of draining their share. The submitting thread is never
/// the victim, so every poisoned evaluation still completes (sequentially) — this is
/// the fault-injection entry point the crash-resilience tests use to prove panic
/// containment and worker survival.
pub fn arm_worker_panics(count: u64) {
    INJECTED_WORKER_PANICS.fetch_add(count, Ordering::SeqCst);
}

/// Clears any outstanding injected worker panics, returning how many were pending.
/// Fault-plan teardown calls this so one test's leftover tokens cannot leak into the
/// next run's evaluations.
pub fn disarm_worker_panics() -> u64 {
    INJECTED_WORKER_PANICS.swap(0, Ordering::SeqCst)
}

/// RAII wrapper around the worker-panic tokens: arms `count` tokens on construction
/// and disarms whatever is left on drop. Fleet-level fault injection holds one of
/// these for the duration of a run so that *any* exit path — normal completion, an
/// early return, or an unwinding panic — clears leftover tokens instead of leaking
/// them into the next run's evaluations.
#[derive(Debug)]
pub struct WorkerPanicGuard {
    _private: (),
}

impl WorkerPanicGuard {
    /// Arms `count` injected worker panics (see [`arm_worker_panics`]) and returns a
    /// guard that disarms any unconsumed tokens when dropped.
    #[must_use]
    pub fn arm(count: u64) -> Self {
        arm_worker_panics(count);
        WorkerPanicGuard { _private: () }
    }
}

impl Drop for WorkerPanicGuard {
    fn drop(&mut self) {
        disarm_worker_panics();
    }
}

/// Consumes one armed panic token, if any are outstanding.
fn take_injected_panic() -> bool {
    if INJECTED_WORKER_PANICS.load(Ordering::Relaxed) == 0 {
        return false;
    }
    INJECTED_WORKER_PANICS
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// Worker main loop: pull tickets until the queue is drained *and* shut down. The
/// solver workspace lives for the whole thread, so its buffers stay warm across
/// evaluations — the entire point of keeping the workers persistent.
fn worker_main(queue: Arc<Queue>) {
    let mut solver = FlowSolver::new();
    loop {
        let ticket = {
            let mut state = queue.state.lock().expect("pool queue poisoned");
            loop {
                if let Some(ticket) = state.tickets.pop_front() {
                    break ticket;
                }
                if state.shutdown {
                    return;
                }
                state = queue.available.wait(state).expect("pool queue poisoned");
            }
        };
        // A panicking solve must not wedge the submitter (it waits for the pending
        // count) or kill the worker; contain it, flag the evaluation as poisoned, and
        // let the submitter recompute sequentially. The worker itself stays in its
        // loop — a panic never shrinks the pool's parallelism.
        let Ticket { arena, shared } = ticket;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if take_injected_panic() {
                panic!("injected flow worker panic");
            }
            shared.drain(&mut solver, &arena)
        }));
        // Release the network before the submitter can wake: once `pending` hits
        // zero, no worker holds an arena reference any more.
        drop(arena);
        if outcome.is_err() {
            shared.poisoned.store(true, Ordering::Release);
            // The unwound solve may have left the workspace mid-mutation; a fresh
            // solver restores the buffers' invariants for the next ticket.
            solver = FlowSolver::new();
        }
        shared.finish_ticket();
    }
}

/// A persistent pool of flow workers (see the module docs).
///
/// Cheap to construct: no thread is spawned until the first parallel evaluation needs
/// one, and never more than the configured cap. The pool is `Sync` — any number of
/// threads may submit evaluations concurrently; tickets from different evaluations
/// interleave on the same workers.
#[derive(Debug)]
pub struct FlowPool {
    queue: Arc<Queue>,
    max_workers: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Evaluations that hit a worker panic and were recomputed sequentially.
    panics_contained: AtomicU64,
    /// Helper tickets reclaimed unpicked by their own submitter after it drained the
    /// whole sink order itself (the anti-starvation escape hatch of the fairness
    /// contract — see the module docs).
    tickets_reclaimed: AtomicU64,
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue").finish_non_exhaustive()
    }
}

impl FlowPool {
    /// Creates a pool that will spawn at most `max_workers` helper threads (lazily).
    ///
    /// `max_workers == 0` is a valid degenerate pool: every evaluation runs sequentially
    /// on the submitting thread.
    #[must_use]
    pub fn new(max_workers: usize) -> Self {
        FlowPool {
            queue: Arc::new(Queue {
                state: Mutex::new(QueueState {
                    tickets: VecDeque::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
            }),
            max_workers,
            workers: Mutex::new(Vec::new()),
            panics_contained: AtomicU64::new(0),
            tickets_reclaimed: AtomicU64::new(0),
        }
    }

    /// The process-wide shared pool (capped at 8 workers, matching
    /// [`crate::suggested_flow_threads`]). This is the pool behind
    /// [`crate::min_max_flow_parallel`] and the parallel evaluation mode of `bmp-core`'s
    /// `EvalCtx`; sharing one pool keeps the machine-wide flow-thread count bounded no
    /// matter how many contexts or sweep workers request parallel evaluation.
    #[must_use]
    pub fn global() -> &'static FlowPool {
        static GLOBAL: OnceLock<FlowPool> = OnceLock::new();
        GLOBAL.get_or_init(|| FlowPool::new(GLOBAL_POOL_CAP))
    }

    /// Maximum number of helper threads this pool may spawn.
    #[must_use]
    pub fn max_workers(&self) -> usize {
        self.max_workers
    }

    /// Number of worker threads spawned so far (they are never retired before drop, so
    /// this is monotone and bounded by [`FlowPool::max_workers`] — the spawn-counting
    /// tests assert that repeated evaluations do not grow it).
    #[must_use]
    pub fn spawned_workers(&self) -> usize {
        self.workers
            .lock()
            .expect("pool worker list poisoned")
            .len()
    }

    /// Number of worker threads spawned so far that are still running. Workers contain
    /// panics with `catch_unwind` and never exit before pool shutdown, so this equals
    /// [`FlowPool::spawned_workers`] even after poisoned evaluations — the assertion
    /// behind the panic-containment tests.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.workers
            .lock()
            .expect("pool worker list poisoned")
            .iter()
            .filter(|handle| !handle.is_finished())
            .count()
    }

    /// Number of evaluations that hit a worker panic, were discarded, and were
    /// recomputed sequentially on the submitting thread.
    #[must_use]
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained.load(Ordering::Relaxed)
    }

    /// Number of helper tickets reclaimed by their own submitter because it finished
    /// the evaluation's whole sink order before any worker picked them up — the
    /// fairness contract's anti-starvation counter (see the module docs). A growing
    /// value under concurrent load is healthy: fast submitters are declining to wait
    /// behind slow neighbours.
    #[must_use]
    pub fn tickets_reclaimed(&self) -> u64 {
        self.tickets_reclaimed.load(Ordering::Relaxed)
    }

    /// Lazily grows the worker set to `wanted` threads (capped at the pool maximum).
    fn ensure_workers(&self, wanted: usize) {
        let target = wanted.min(self.max_workers);
        let mut workers = self.workers.lock().expect("pool worker list poisoned");
        while workers.len() < target {
            let queue = Arc::clone(&self.queue);
            let handle = std::thread::Builder::new()
                .name(format!("bmp-flow-{}", workers.len()))
                .spawn(move || worker_main(queue))
                .expect("cannot spawn flow pool worker");
            workers.push(handle);
        }
    }

    /// Minimum over `sinks` of the maximum flow from `source`, fanned out over the pool
    /// with up to `threads` concurrent lanes (the submitting thread is one of them —
    /// at most `threads - 1` helper tickets are queued).
    ///
    /// The submitter's share of the work runs on `solver`, so a caller holding a warm
    /// workspace (an evaluation context) reuses it. The result is bit-for-bit equal to
    /// the sequential [`FlowSolver::min_max_flow`]; `threads <= 1` (or a pool with no
    /// workers) simply runs it. Returns `f64::INFINITY` for an empty `sinks`.
    ///
    /// A worker panic mid-evaluation is contained, not propagated: the poisoned pooled
    /// result is discarded and the evaluation recomputed sequentially on the submitting
    /// thread (counted by [`FlowPool::panics_contained`]), so the returned value is
    /// correct — and the workers survive for the next evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `source` or a sink is out of range.
    pub fn min_max_flow_with(
        &self,
        solver: &mut FlowSolver,
        arena: &Arc<FlowArena>,
        source: usize,
        sinks: &[usize],
        threads: usize,
    ) -> f64 {
        let lanes = threads.min(sinks.len());
        let helpers = lanes.saturating_sub(1).min(self.max_workers);
        if helpers == 0 {
            return solver.min_max_flow(arena, source, sinks);
        }
        assert!(source < arena.num_nodes(), "source out of range");
        let mut order = Vec::with_capacity(sinks.len());
        arena.order_sinks_into(sinks, &mut order);
        self.ensure_workers(helpers);
        let shared = Arc::new(EvalShared {
            order,
            source: source as u32,
            next: AtomicUsize::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            pending: Mutex::new(helpers),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
        });
        {
            let mut state = self.queue.state.lock().expect("pool queue poisoned");
            for _ in 0..helpers {
                state.tickets.push_back(Ticket {
                    arena: Arc::clone(arena),
                    shared: Arc::clone(&shared),
                });
            }
        }
        self.queue.available.notify_all();
        // The submitter works its own share: progress never depends on a free worker.
        shared.drain(solver, arena);
        // Reclaim helper tickets no worker has picked up yet: the submitter already
        // drained the order, so their work is done, and leaving them queued would park
        // this evaluation behind whatever unrelated evaluations busy workers are still
        // draining — a fast submitter must not inherit a slow neighbour's wall time.
        {
            let mut state = self.queue.state.lock().expect("pool queue poisoned");
            let before = state.tickets.len();
            state
                .tickets
                .retain(|ticket| !Arc::ptr_eq(&ticket.shared, &shared));
            let reclaimed = before - state.tickets.len();
            drop(state);
            if reclaimed > 0 {
                self.tickets_reclaimed
                    .fetch_add(reclaimed as u64, Ordering::Relaxed);
                let mut pending = shared
                    .pending
                    .lock()
                    .expect("pool evaluation state poisoned");
                *pending -= reclaimed;
                // No notify needed: this thread is the only waiter on `done`.
            }
        }
        let mut pending = shared
            .pending
            .lock()
            .expect("pool evaluation state poisoned");
        while *pending > 0 {
            pending = shared
                .done
                .wait(pending)
                .expect("pool evaluation state poisoned");
        }
        drop(pending);
        if shared.poisoned.load(Ordering::Acquire) {
            // A worker panicked mid-drain: its claimed sink may have been abandoned
            // without lowering the running minimum, so the pooled value cannot be
            // trusted. Recompute sequentially — same result contract, one thread.
            self.panics_contained.fetch_add(1, Ordering::Relaxed);
            return solver.min_max_flow(arena, source, sinks);
        }
        f64::from_bits(shared.min_bits.load(Ordering::Acquire))
    }

    /// [`FlowPool::min_max_flow_with`] on a throwaway submitter workspace, for one-shot
    /// callers without a warm [`FlowSolver`] of their own.
    pub fn min_max_flow(
        &self,
        arena: &Arc<FlowArena>,
        source: usize,
        sinks: &[usize],
        threads: usize,
    ) -> f64 {
        self.min_max_flow_with(&mut FlowSolver::new(), arena, source, sinks, threads)
    }
}

impl Drop for FlowPool {
    /// Clean shutdown: raise the flag, wake everyone, join every worker. Queued tickets
    /// are drained first (workers only exit on an empty queue), so no submitter is left
    /// waiting on an abandoned evaluation.
    fn drop(&mut self) {
        {
            let mut state = self.queue.state.lock().expect("pool queue poisoned");
            state.shutdown = true;
        }
        self.queue.available.notify_all();
        let workers = self.workers.get_mut().expect("pool worker list poisoned");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_arena(n: usize) -> FlowArena {
        // One sink has a much smaller flow than the others, so early-exit caps matter.
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v, if v == n / 2 { 0.5 } else { 10.0 }));
        }
        FlowArena::from_edges(n, &edges)
    }

    #[test]
    fn pooled_evaluation_matches_sequential() {
        let arena = Arc::new(wide_arena(40));
        let sinks: Vec<usize> = (1..40).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        assert_eq!(expected, 0.5);
        let pool = FlowPool::new(4);
        for threads in [1usize, 2, 3, 8, 64] {
            assert_eq!(pool.min_max_flow(&arena, 0, &sinks, threads), expected);
        }
    }

    #[test]
    fn empty_sinks_are_infinite_and_spawn_nothing() {
        let pool = FlowPool::new(4);
        let arena = Arc::new(wide_arena(8));
        assert_eq!(pool.min_max_flow(&arena, 0, &[], 4), f64::INFINITY);
        assert_eq!(pool.spawned_workers(), 0);
    }

    #[test]
    fn workers_are_spawned_lazily_and_reused_across_calls() {
        let pool = FlowPool::new(3);
        let arena = Arc::new(wide_arena(32));
        let sinks: Vec<usize> = (1..32).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);

        // Sequential requests never touch the pool.
        assert_eq!(pool.min_max_flow(&arena, 0, &sinks, 1), expected);
        assert_eq!(pool.spawned_workers(), 0);

        // The first parallel request spawns exactly the helpers it needs (lanes - 1,
        // capped at the pool maximum); every later call reuses them. This is the
        // spawn-counting acceptance test: no per-call thread spawn on the pooled path.
        assert_eq!(pool.min_max_flow(&arena, 0, &sinks, 3), expected);
        assert_eq!(pool.spawned_workers(), 2);
        for _ in 0..25 {
            assert_eq!(pool.min_max_flow(&arena, 0, &sinks, 8), expected);
            assert_eq!(
                pool.spawned_workers(),
                3,
                "a pooled call spawned a new thread"
            );
        }
    }

    #[test]
    fn submitter_arc_is_unique_again_after_the_call() {
        let pool = FlowPool::new(2);
        let mut arena = Arc::new(wide_arena(24));
        let sinks: Vec<usize> = (1..24).collect();
        let mut solver = FlowSolver::new();
        for _ in 0..10 {
            let _ = pool.min_max_flow_with(&mut solver, &arena, 0, &sinks, 4);
            // Every worker dropped its clone before the submitter was released, so the
            // caller can keep mutating its retained arena in place.
            assert!(
                Arc::get_mut(&mut arena).is_some(),
                "a worker still holds the arena"
            );
        }
    }

    #[test]
    fn zero_capacity_pool_degenerates_to_sequential() {
        let pool = FlowPool::new(0);
        let arena = Arc::new(wide_arena(16));
        let sinks: Vec<usize> = (1..16).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        assert_eq!(pool.min_max_flow(&arena, 0, &sinks, 8), expected);
        assert_eq!(pool.spawned_workers(), 0);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = FlowPool::new(2);
        let arena = Arc::new(wide_arena(16));
        let sinks: Vec<usize> = (1..16).collect();
        let _ = pool.min_max_flow(&arena, 0, &sinks, 4);
        assert_eq!(pool.spawned_workers(), 2);
        drop(pool); // must not hang: shutdown drains the queue and joins both workers
    }

    #[test]
    fn global_pool_is_shared_and_capped() {
        let a = FlowPool::global() as *const FlowPool;
        let b = FlowPool::global() as *const FlowPool;
        assert_eq!(a, b);
        assert_eq!(FlowPool::global().max_workers(), GLOBAL_POOL_CAP);
    }

    #[test]
    fn a_panicking_evaluation_is_contained_and_parallelism_survives() {
        let pool = FlowPool::new(2);
        // Wide enough that draining the sink order takes far longer than a worker
        // wake-up: on a small arena an optimized submitter can finish the whole order
        // and reclaim both helper tickets before either worker dequeues one, and the
        // armed panic would never fire.
        let arena = Arc::new(wide_arena(1024));
        let sinks: Vec<usize> = (1..1024).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        // Warm the pool so both workers exist before the fault is armed.
        assert_eq!(pool.min_max_flow(&arena, 0, &sinks, 3), expected);
        assert_eq!(pool.spawned_workers(), 2);
        // Panic tokens are process-global: a concurrently running test's worker may
        // consume one (its evaluation falls back sequentially and stays correct), and
        // ticket pickup races the submitter's own drain, so arm-and-evaluate until a
        // panic lands on this pool.
        let mut attempts = 0;
        while pool.panics_contained() == 0 {
            attempts += 1;
            assert!(attempts <= 500, "no injected panic ever reached this pool");
            arm_worker_panics(1);
            // Even the poisoned evaluation returns the exact sequential result.
            assert_eq!(pool.min_max_flow(&arena, 0, &sinks, 3), expected);
        }
        disarm_worker_panics();
        // Containment: no worker died and none was respawned — later evaluations keep
        // the full fan-out and exact results.
        assert_eq!(pool.spawned_workers(), 2);
        assert_eq!(pool.live_workers(), 2);
        let contained = pool.panics_contained();
        for _ in 0..10 {
            assert_eq!(pool.min_max_flow(&arena, 0, &sinks, 3), expected);
        }
        assert_eq!(pool.panics_contained(), contained);
    }

    #[test]
    fn worker_panic_guard_disarms_on_unwind() {
        // Regression: `run_fleet` used to disarm tokens only on its success path, so a
        // panic between arming and disarming leaked them into the next run. The guard
        // must clear its tokens even when dropped during an unwind.
        let armed = 1_000_000;
        let result = catch_unwind(|| {
            let _guard = WorkerPanicGuard::arm(armed);
            panic!("unwinding while holding the guard");
        });
        assert!(result.is_err());
        // Tokens are process-global and a concurrently running test may arm a few of
        // its own, so assert our block was cleared rather than demanding exactly zero.
        let leftover = disarm_worker_panics();
        assert!(leftover < armed, "guard leaked {leftover} tokens");
    }

    #[test]
    fn a_slow_submitter_cannot_starve_its_neighbours() {
        // The fairness contract at fleet scale: one shard stuck on a big evaluation
        // (the slow submitter, large arena) shares the pool with several shards
        // running small evaluations. Every fast evaluation must return the exact
        // sequential result regardless of what the slow one occupies — the submitters
        // drain their own orders and reclaim unpicked tickets rather than queueing
        // behind the big evaluation's tickets.
        let pool = Arc::new(FlowPool::new(2));
        let big = Arc::new(wide_arena(1024));
        let big_sinks: Vec<usize> = (1..1024).collect();
        let big_expected = FlowSolver::new().min_max_flow(&big, 0, &big_sinks);
        let small = Arc::new(wide_arena(24));
        let small_sinks: Vec<usize> = (1..24).collect();
        let small_expected = FlowSolver::new().min_max_flow(&small, 0, &small_sinks);
        // Ticket pickup races the submitters' own drains, so a single pass may see
        // every ticket either worker-served or reclaimed; loop until at least one
        // reclamation proves the anti-starvation path was exercised.
        let mut attempts = 0;
        while pool.tickets_reclaimed() == 0 {
            attempts += 1;
            assert!(attempts <= 500, "no ticket was ever reclaimed");
            std::thread::scope(|scope| {
                for submitter in 0..5 {
                    let pool = Arc::clone(&pool);
                    let (arena, sinks, expected) = if submitter == 0 {
                        (Arc::clone(&big), &big_sinks, big_expected)
                    } else {
                        (Arc::clone(&small), &small_sinks, small_expected)
                    };
                    scope.spawn(move || {
                        for _ in 0..4 {
                            assert_eq!(pool.min_max_flow(&arena, 0, sinks, 3), expected);
                        }
                    });
                }
            });
        }
        assert!(pool.spawned_workers() <= 2);
        assert_eq!(pool.live_workers(), pool.spawned_workers());
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(FlowPool::new(2));
        let arena = Arc::new(wide_arena(32));
        let sinks: Vec<usize> = (1..32).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (pool, arena, sinks) = (Arc::clone(&pool), Arc::clone(&arena), &sinks);
                scope.spawn(move || {
                    for _ in 0..8 {
                        assert_eq!(pool.min_max_flow(&arena, 0, sinks, 3), expected);
                    }
                });
            }
        });
        assert!(pool.spawned_workers() <= 2);
    }
}
