//! Asserts that a tree decomposition costs memory in proportion to the overlay, not to
//! trees × nodes: decomposing a 1000-receiver acyclic-guarded scheme (about a thousand
//! trees), verifying it and aggregating its edge usage must raise the live heap by less
//! than 1 MB. One parent array per tree would need over 16 MB.
//!
//! A counting global allocator tracks the live bytes and their peak per thread, so
//! allocations made by the test harness's other threads are not charged to the code
//! under test. This binary holds one test.

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_trees::decompose_acyclic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper tracking the live bytes of every thread.
struct CountingAllocator;

thread_local! {
    /// Bytes currently allocated by this thread (const-initialized, so touching it never
    /// allocates from inside the allocator).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Highest value `LIVE` reached since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with` fails only while the thread tears its locals down; nothing is measured
    // then.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Restarts the peak at the current live size and returns that size.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

#[test]
fn decomposing_1000_receivers_grows_the_heap_by_less_than_a_megabyte() {
    let config = GeneratorConfig::new(1000, 0.7).unwrap();
    let generator = InstanceGenerator::new(config, NamedDistribution::Unif100.build());
    let instance = generator.generate(&mut StdRng::seed_from_u64(7));
    let solution = AcyclicGuardedSolver::default().solve(&instance);

    let before = reset_peak();
    let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
    decomposition.verify(&solution.scheme).unwrap();
    let used = decomposition.used_edges().unwrap();
    let growth = PEAK.with(Cell::get) - before;

    assert!(
        decomposition.num_trees() >= 500,
        "{} trees is too few to tell O(m) from O(k·n) storage",
        decomposition.num_trees()
    );
    assert!(!used.is_empty());
    assert!(
        growth < 1 << 20,
        "peak live heap grew by {growth} bytes over {} trees",
        decomposition.num_trees()
    );
}
