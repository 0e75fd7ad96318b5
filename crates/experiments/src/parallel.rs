//! Scoped-thread parallel map used by the heavier experiment sweeps.
//!
//! The experiment workloads (thousands of independent random instances, or a grid of
//! `(n, m, Δ)` cells) are embarrassingly parallel; a simple chunked fan-out over
//! `crossbeam::scope` threads is all that is needed — no work stealing, no shared mutable
//! state beyond the pre-allocated result slots.

/// Applies `f` to every item of `items` using up to `threads` worker threads and returns the
/// results in the original order.
///
/// With `threads ≤ 1` the map is executed sequentially (useful for debugging and for keeping
/// results bit-for-bit reproducible when the caller relies on thread-local RNG state).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, threads, || (), |(), item| f(item))
}

/// Like [`parallel_map`], but every worker thread builds one reusable state with `init`
/// and threads it through its whole chunk.
///
/// This is how the sweeps carry a per-worker `bmp_core::solver::EvalCtx`: the flow
/// workspace (and, for fixed edge sets, the arena itself) is constructed once per worker
/// instead of once per item — or, worse, hidden in a thread-local the caller cannot see
/// or account.
pub fn parallel_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let workers = threads.min(items.len());
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);

    // Split the result buffer into contiguous chunks, one per worker, so that each thread
    // writes to its own slice without synchronisation.
    let chunk_size = items.len().div_ceil(workers);
    crossbeam::scope(|scope| {
        for (chunk_index, results_chunk) in results.chunks_mut(chunk_size).enumerate() {
            let start = chunk_index * chunk_size;
            let items_chunk = &items[start..(start + results_chunk.len()).min(items.len())];
            let (init, f) = (&init, &f);
            scope.spawn(move |_| {
                let mut state = init();
                for (slot, item) in results_chunk.iter_mut().zip(items_chunk) {
                    *slot = Some(f(&mut state, item));
                }
            });
        }
    })
    .expect("a parallel experiment worker panicked");

    results
        .into_iter()
        .map(|r| r.expect("every slot is filled by construction"))
        .collect()
}

/// Flow-evaluation fan-out for the per-worker `bmp_core::solver::EvalCtx` of a sweep
/// running `outer_threads` workers (the value to pass to `EvalCtx::set_parallelism`).
///
/// A sweep that is itself parallel already owns the cores: the flow fan-out's helper
/// bound holds per evaluation (at most 8 scoped helpers each), so stacking it on top
/// would oversubscribe the machine, and its workers evaluate sequentially (`1`). A
/// sequential sweep has the whole machine to itself, so its one worker gets the auto
/// setting (`0` — the `suggested_flow_threads` heuristic), which stays sequential on the
/// small instances the sweeps mostly score and fans out only at fleet scale.
#[must_use]
pub fn eval_parallelism(outer_threads: usize) -> usize {
    if outer_threads > 1 {
        1
    } else {
        0
    }
}

/// Default number of worker threads: the machine's available parallelism, capped at 8 so the
/// experiment binaries stay polite on shared machines.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..200).collect();
        let sequential = parallel_map(&items, 1, |&x| x * x + 1);
        let parallel = parallel_map(&items, 4, |&x| x * x + 1);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential[10], 101);
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        let out = parallel_map(&items, 5, |&x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[42u32], 4, |&x| x + 1), vec![43]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn eval_parallelism_never_stacks_fanouts() {
        // A parallel sweep pins its workers' flow evaluation to sequential; only a
        // sequential sweep hands its one worker the auto setting.
        assert_eq!(eval_parallelism(0), 0);
        assert_eq!(eval_parallelism(1), 0);
        for outer in 2..=16 {
            assert_eq!(eval_parallelism(outer), 1);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(default_threads() <= 8);
    }

    #[test]
    fn stateful_map_reuses_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u64> = (0..100).collect();
        let inits = AtomicUsize::new(0);
        let out = parallel_map_with(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, &x| {
                *acc += 1;
                x + *acc - *acc // result independent of the state
            },
        );
        assert_eq!(out, items);
        // One state per worker (4), not one per item (100).
        assert!(inits.load(Ordering::Relaxed) <= 4);
        // Sequential path: exactly one state.
        let inits_seq = AtomicUsize::new(0);
        let _ = parallel_map_with(
            &items,
            1,
            || inits_seq.fetch_add(1, Ordering::Relaxed),
            |_, &x| x,
        );
        assert_eq!(inits_seq.load(Ordering::Relaxed), 1);
    }
}
