//! Asserts the CSR kernel's zero-allocation contract: once a [`FlowSolver`]'s buffers are
//! warm, repeated value-only solves (`max_flow`, `max_flow_limited`, `min_max_flow`) must
//! not touch the heap. A counting global allocator makes any regression an immediate test
//! failure instead of a silent performance cliff.
//!
//! The count is per thread: the test harness runs tests on parallel threads, and an
//! allocation made by a sibling test must not be charged to the solver under test.

use bmp_flow::{FlowArena, FlowSolver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation (and reallocation).
struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread (const-initialized, so reading it never
    /// allocates from inside the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread tears its locals down; nothing is measured
    // then.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A layered network large enough that a solve exercises BFS, DFS and multiple phases.
fn layered_arena(layers: usize, width: usize) -> FlowArena {
    let node = |layer: usize, index: usize| 2 + layer * width + index;
    let mut edges = Vec::new();
    for i in 0..width {
        edges.push((0, node(0, i), 1.0 + (i % 7) as f64));
        edges.push((node(layers - 1, i), 1, 1.0 + (i % 5) as f64));
    }
    for layer in 0..layers - 1 {
        for i in 0..width {
            for j in 0..width {
                if (i + 3 * j + layer) % 3 != 0 {
                    edges.push((
                        node(layer, i),
                        node(layer + 1, j),
                        0.5 + ((i + j) % 4) as f64,
                    ));
                }
            }
        }
    }
    FlowArena::from_edges(2 + layers * width, &edges)
}

#[test]
fn warm_solver_performs_no_heap_allocation() {
    let start = allocation_count();
    let arena = layered_arena(5, 8);
    assert!(
        allocation_count() > start,
        "the counter must see the calling thread's allocations"
    );
    let sinks: Vec<usize> = (2..arena.num_nodes()).collect();
    let mut solver = FlowSolver::new();

    // Warm-up: sizes every buffer (cap, levels, cursors, queues, sink ordering).
    let reference_flow = solver.max_flow(&arena, 0, 1);
    let reference_min = solver.min_max_flow(&arena, 0, &sinks);
    assert!(reference_flow > 0.0);
    assert!(reference_min >= 0.0);

    let before = allocation_count();
    for _ in 0..50 {
        let flow = solver.max_flow(&arena, 0, 1);
        assert_eq!(flow, reference_flow);
        let limited = solver.max_flow_limited(&arena, 0, 1, reference_flow / 2.0);
        assert!(limited >= reference_flow / 2.0);
        let minimum = solver.min_max_flow(&arena, 0, &sinks);
        assert_eq!(minimum, reference_min);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "hot-path solves allocated {} time(s); the workspace must be fully reused",
        after - before
    );
}

#[test]
fn shrinking_to_a_smaller_arena_allocates_nothing_new() {
    let big = layered_arena(5, 8);
    let small = layered_arena(2, 3);
    let mut solver = FlowSolver::new();
    let big_flow = solver.max_flow(&big, 0, 1);
    let small_flow = solver.max_flow(&small, 0, 1);

    let before = allocation_count();
    for _ in 0..20 {
        assert_eq!(solver.max_flow(&small, 0, 1), small_flow);
        assert_eq!(solver.max_flow(&big, 0, 1), big_flow);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "alternating between warm arenas must not reallocate buffers"
    );
}
