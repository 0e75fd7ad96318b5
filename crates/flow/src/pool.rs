//! Scoped fan-out of the multi-sink flow evaluation.
//!
//! [`FlowPool::min_max_flow_with`] splits one `min_k maxflow(source → k)` evaluation
//! across up to `threads` lanes for the duration of the call: the submitting thread is
//! one lane, and `threads - 1` helpers (at most [`FlowPool::max_workers`]) are spawned
//! in a [`std::thread::scope`] and joined before it returns. The arena is simply
//! borrowed — nothing outlives the call, so no thread is left idle between evaluations
//! and no reference to the caller's arena survives it.
//!
//! Every lane pulls sinks from one shared index into the sequential evaluation order
//! ([`FlowArena`]'s ascending in-capacity order) and caps its solve at a shared
//! running minimum. Exactness is inherited from the capped batched evaluator: the cap is
//! never below the true minimum, a capped-out solve cannot lower it, and the sink
//! realising the minimum is computed exactly — so the result is bit-for-bit the
//! sequential [`FlowSolver::min_max_flow`].
//!
//! The thread count is bounded per evaluation, not per process: a caller running `K`
//! evaluations concurrently (a fleet of `K` shards, say) can have up to
//! `K × min(threads - 1, max_workers)` helpers alive at once, and none at `threads = 1`.
//!
//! A helper panic is contained: the submitter discards the fanned-out value, recomputes
//! the evaluation sequentially and counts it in [`FlowPool::panics_contained`]. Armed
//! panic tokens ([`FlowPool::arm_worker_panics`], the `FaultPlan` hook of `bmp-sim`) make
//! helpers panic on purpose; every fanned-out evaluation spawns its helpers, so an armed
//! token always lands on the next one.

use crate::csr::{FlowArena, FlowSolver};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Helper cap of the process-wide pool ([`FlowPool::global`]), aligned with the cap of
/// [`crate::suggested_flow_threads`] so evaluation fan-out stays polite inside
/// already-parallel sweeps.
const GLOBAL_POOL_CAP: usize = 8;

/// Arms `count` injected worker panics on [`FlowPool::global`] (see
/// [`FlowPool::arm_worker_panics`]).
pub fn arm_worker_panics(count: u64) {
    FlowPool::global().arm_worker_panics(count);
}

/// Clears any outstanding injected worker panics of [`FlowPool::global`], returning how
/// many were pending. Fault-plan teardown calls this so one run's leftover tokens cannot
/// leak into the next run's evaluations.
pub fn disarm_worker_panics() -> u64 {
    FlowPool::global().disarm_worker_panics()
}

/// RAII wrapper around the worker-panic tokens of [`FlowPool::global`]: arms `count`
/// tokens on construction and disarms whatever is left on drop. Fleet-level fault
/// injection holds one of these for the duration of a run so that *any* exit path —
/// normal completion, an early return, or an unwinding panic — clears leftover tokens
/// instead of leaking them into the next run's evaluations.
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

/// Fan-out settings and fault-plane counters of multi-sink evaluations (see the module
/// docs). `Sync`: any number of threads may evaluate through one pool concurrently.
#[derive(Debug)]
pub struct FlowPool {
    max_workers: usize,
    /// Outstanding injected helper panics: each armed token makes one helper of *this*
    /// pool panic before it drains. Zero in production — the disabled hook costs one
    /// failed update per helper.
    injected_panics: AtomicU64,
    /// Evaluations that hit a helper panic and were recomputed sequentially.
    panics_contained: AtomicU64,
}

impl FlowPool {
    /// Creates a pool whose evaluations spawn at most `max_workers` helpers each.
    ///
    /// `max_workers == 0` is a valid degenerate pool: every evaluation runs sequentially
    /// on the submitting thread.
    #[must_use]
    pub fn new(max_workers: usize) -> Self {
        FlowPool {
            max_workers,
            injected_panics: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
        }
    }

    /// The process-wide pool (at most 8 helpers per evaluation, matching
    /// [`crate::suggested_flow_threads`]), behind the parallel evaluation mode of
    /// `bmp-core`'s `EvalCtx` and the fault plans of `bmp-sim`.
    #[must_use]
    pub fn global() -> &'static FlowPool {
        static GLOBAL: OnceLock<FlowPool> = OnceLock::new();
        GLOBAL.get_or_init(|| FlowPool::new(GLOBAL_POOL_CAP))
    }

    /// Arms `count` injected worker panics on this pool: the next `count` helpers spawned
    /// by its evaluations panic instead of draining their share. The submitting thread is
    /// never the victim, so every poisoned evaluation still completes (sequentially) —
    /// this is the fault-injection entry point the crash-resilience tests use to prove
    /// panic containment. Tokens belong to the pool: arming one pool never reaches
    /// another pool's helpers.
    pub fn arm_worker_panics(&self, count: u64) {
        self.injected_panics.fetch_add(count, Ordering::SeqCst);
    }

    /// Clears this pool's outstanding injected worker panics, returning how many were
    /// pending.
    pub fn disarm_worker_panics(&self) -> u64 {
        self.injected_panics.swap(0, Ordering::SeqCst)
    }

    /// Consumes one armed panic token, if any are outstanding.
    fn take_injected_panic(&self) -> bool {
        self.injected_panics
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Maximum number of helper threads one evaluation of this pool may spawn.
    #[must_use]
    pub fn max_workers(&self) -> usize {
        self.max_workers
    }

    /// Number of evaluations that hit a helper panic, were discarded, and were
    /// recomputed sequentially on the submitting thread.
    #[must_use]
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained.load(Ordering::Relaxed)
    }

    /// Minimum over `sinks` of the maximum flow from `source`, fanned out over up to
    /// `threads` lanes: the submitting thread drains on `solver` (so a caller holding a
    /// warm workspace reuses it), and `min(threads, sinks) - 1` helpers, capped at
    /// [`FlowPool::max_workers`], drain on fresh solvers until the call returns.
    ///
    /// The result is bit-for-bit the sequential [`FlowSolver::min_max_flow`], which is
    /// what runs when there is no helper to spawn. Returns `f64::INFINITY` for an empty
    /// `sinks`.
    ///
    /// A helper panic is contained, not propagated: the fanned-out value is discarded
    /// and the evaluation recomputed sequentially on `solver` (counted by
    /// [`FlowPool::panics_contained`]), so the returned value is still exact.
    ///
    /// # Panics
    ///
    /// Panics if `source` or a sink is out of range.
    pub fn min_max_flow_with(
        &self,
        solver: &mut FlowSolver,
        arena: &FlowArena,
        source: usize,
        sinks: &[usize],
        threads: usize,
    ) -> f64 {
        let helpers = threads
            .min(sinks.len())
            .saturating_sub(1)
            .min(self.max_workers);
        if helpers == 0 {
            return solver.min_max_flow(arena, source, sinks);
        }
        assert!(source < arena.num_nodes(), "source out of range");
        let mut order = Vec::with_capacity(sinks.len());
        arena.order_sinks_into(sinks, &mut order);
        let next = AtomicUsize::new(0);
        // Bits of the running minimum: non-negative IEEE-754 doubles, `+inf` included,
        // order like their bit patterns, so `fetch_min` on the bits is a running minimum.
        let min_bits = AtomicU64::new(f64::INFINITY.to_bits());
        // One lane: claim sinks until the order is exhausted or the minimum hits zero.
        let drain = |solver: &mut FlowSolver| {
            while let Some(&sink) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                let cap = f64::from_bits(min_bits.load(Ordering::Acquire));
                if cap <= 0.0 {
                    return;
                }
                let flow = solver.max_flow_limited(arena, source, sink as usize, cap);
                min_bits.fetch_min(flow.to_bits(), Ordering::AcqRel);
            }
        };
        let poisoned = std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..helpers)
                .map(|_| {
                    scope.spawn(|| {
                        if self.take_injected_panic() {
                            panic!("injected flow worker panic");
                        }
                        drain(&mut FlowSolver::new());
                    })
                })
                .collect();
            drain(solver);
            // Joining every helper by hand turns its panic into an `Err` here instead of
            // a panic of the whole scope.
            let mut poisoned = false;
            for lane in lanes {
                poisoned |= lane.join().is_err();
            }
            poisoned
        });
        if poisoned {
            // A helper died mid-drain: its claimed sink may have been abandoned without
            // lowering the running minimum, so the fanned-out value cannot be trusted.
            self.panics_contained.fetch_add(1, Ordering::Relaxed);
            return solver.min_max_flow(arena, source, sinks);
        }
        f64::from_bits(min_bits.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    fn wide_arena(n: usize) -> FlowArena {
        // One sink has a much smaller flow than the others, so early-exit caps matter.
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v, if v == n / 2 { 0.5 } else { 10.0 }));
        }
        FlowArena::from_edges(n, &edges)
    }

    fn fanned_out(pool: &FlowPool, arena: &FlowArena, sinks: &[usize], threads: usize) -> f64 {
        pool.min_max_flow_with(&mut FlowSolver::new(), arena, 0, sinks, threads)
    }

    #[test]
    fn pooled_evaluation_matches_sequential() {
        let arena = wide_arena(40);
        let sinks: Vec<usize> = (1..40).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        assert_eq!(expected, 0.5);
        let pool = FlowPool::new(4);
        for threads in [1usize, 2, 3, 8, 64] {
            assert_eq!(fanned_out(&pool, &arena, &sinks, threads), expected);
        }
    }

    #[test]
    fn empty_sinks_are_infinite_and_spawn_nothing() {
        let pool = FlowPool::new(4);
        let arena = wide_arena(8);
        // An armed token would make the first spawned helper panic: it survives the
        // call only if no helper was spawned.
        pool.arm_worker_panics(1);
        assert_eq!(fanned_out(&pool, &arena, &[], 4), f64::INFINITY);
        assert_eq!(pool.disarm_worker_panics(), 1);
        assert_eq!(pool.panics_contained(), 0);
    }

    #[test]
    fn zero_capacity_pool_degenerates_to_sequential() {
        let pool = FlowPool::new(0);
        let arena = wide_arena(16);
        let sinks: Vec<usize> = (1..16).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        pool.arm_worker_panics(1);
        assert_eq!(fanned_out(&pool, &arena, &sinks, 8), expected);
        assert_eq!(pool.disarm_worker_panics(), 1, "a helper was spawned");
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
        let arena = wide_arena(64);
        let sinks: Vec<usize> = (1..64).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        // Every fanned-out evaluation spawns its helpers, so the armed token lands on
        // the first one, and the poisoned evaluation still returns the exact result.
        pool.arm_worker_panics(1);
        assert_eq!(fanned_out(&pool, &arena, &sinks, 3), expected);
        assert_eq!(pool.panics_contained(), 1);
        assert_eq!(
            pool.disarm_worker_panics(),
            0,
            "the panic consumed its token"
        );
        // Later evaluations fan out again, exactly and without further panics.
        for _ in 0..10 {
            assert_eq!(fanned_out(&pool, &arena, &sinks, 3), expected);
        }
        assert_eq!(pool.panics_contained(), 1);
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
        // No other test of this crate arms the global pool, so nothing may be left.
        let leftover = disarm_worker_panics();
        assert_eq!(leftover, 0, "guard leaked {leftover} tokens");
    }

    #[test]
    fn panic_tokens_belong_to_their_pool() {
        let armed = FlowPool::new(1);
        let other = FlowPool::new(1);
        armed.arm_worker_panics(5);
        assert_eq!(other.disarm_worker_panics(), 0);
        assert_eq!(armed.disarm_worker_panics(), 5);
        assert_eq!(armed.disarm_worker_panics(), 0);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = FlowPool::new(2);
        let arena = wide_arena(32);
        let sinks: Vec<usize> = (1..32).collect();
        let expected = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(fanned_out(&pool, &arena, &sinks, 3), expected);
                    }
                });
            }
        });
        assert_eq!(pool.panics_contained(), 0);
    }
}
