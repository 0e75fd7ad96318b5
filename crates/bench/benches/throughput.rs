//! Multi-sink throughput evaluation: the batched CSR evaluator vs the scoped parallel
//! fan-out, measured from n = 50 up to the fleet-scale n ∈ {2000, 5000} overlays called
//! out by the ROADMAP.
//!
//! `BroadcastScheme::throughput` is `min_k maxflow(source → C_k)` over all receivers.
//! The variants:
//!
//! * `batched`        — arena build + `FlowSolver::min_max_flow` (cold workspace;
//!   n ≤ 500),
//! * `batched_reuse`  — `min_max_flow` on a prebuilt arena with a warm solver (the
//!   steady-state hot path of the experiment sweeps — the sequential baseline),
//! * `parallel-auto`  — `FlowPool::min_max_flow_with` with the `suggested_flow_threads`
//!   heuristic (sequential below 512 nodes / 96 sinks, capped available parallelism
//!   above) and a warm submitter solver,
//! * `parallel/T`     — fixed thread counts for the fan-out curve (`T - 1` scoped
//!   helpers spawned per evaluation).
//!
//! Before timing, the sizes up to 500 assert that the batched evaluator equals the
//! minimum of one full `FlowSolver::max_flow` per sink, and every size asserts that the
//! parallel fan-out equals the batched evaluator.
//!
//! Results are drained from the harness and written as `BENCH_throughput.json` at the
//! repo root (machine-readable perf trajectory).

use bmp_flow::{suggested_flow_threads, FlowArena, FlowPool, FlowSolver};
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Random broadcast-like digraph: node 0 is the source, every node has out-degree ~8 with
/// capacities in `[0.1, 5)`, plus a guaranteed source → k path structure so flows are
/// non-trivial. Returned as edge triples for [`FlowArena::from_edges`].
fn random_overlay(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for k in 1..n {
        // A sparse backbone keeps every node reachable.
        let parent = rng.gen_range(0..k);
        edges.push((parent, k, rng.gen_range(0.5..5.0)));
    }
    let extra_edges = n * 7;
    for _ in 0..extra_edges {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if from != to {
            edges.push((from, to, rng.gen_range(0.1..5.0)));
        }
    }
    edges
}

fn bench_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let pool = FlowPool::global();
    for &n in &[50usize, 200, 500, 2000, 5000] {
        let edges = random_overlay(n, 0xBEA0 + n as u64);
        let sinks: Vec<usize> = (1..n).collect();
        let arena = FlowArena::from_edges(n, &edges);
        let mut warm = FlowSolver::new();
        let expected = warm.min_max_flow(&arena, 0, &sinks);
        if n <= 500 {
            // Exactness anchor, affordable at these sizes: the capped batched pass
            // equals one full solve per sink.
            let per_sink = sinks
                .iter()
                .map(|&sink| warm.max_flow(&arena, 0, sink))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                per_sink, expected,
                "batched evaluator must agree with per-sink solves before being timed"
            );
            group.bench_with_input(BenchmarkId::new("batched", n), &edges, |b, edges| {
                b.iter(|| {
                    let arena = FlowArena::from_edges(n, edges);
                    FlowSolver::new().min_max_flow(&arena, 0, &sinks)
                })
            });
        }
        // The parallel fan-out shares the exactness argument at every size.
        let mut submitter = FlowSolver::new();
        assert_eq!(
            pool.min_max_flow_with(&mut submitter, &arena, 0, &sinks, 4),
            expected,
            "parallel evaluator must agree with the sequential baseline before being timed"
        );
        group.bench_with_input(BenchmarkId::new("batched_reuse", n), &arena, |b, arena| {
            b.iter(|| warm.min_max_flow(arena, 0, &sinks))
        });
        if n >= 500 {
            let auto_threads = suggested_flow_threads(n, sinks.len());
            group.bench_with_input(BenchmarkId::new("parallel-auto", n), &arena, |b, arena| {
                b.iter(|| pool.min_max_flow_with(&mut submitter, arena, 0, &sinks, auto_threads))
            });
            for threads in [4usize, 8] {
                group.bench_with_input(
                    BenchmarkId::new(format!("parallel/{threads}"), n),
                    &arena,
                    |b, arena| {
                        b.iter(|| pool.min_max_flow_with(&mut submitter, arena, 0, &sinks, threads))
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);

fn main() {
    benches();
    if let Some(path) = bmp_bench::write_bench_json("throughput", &criterion::take_reports()) {
        println!("wrote {}", path.display());
    }
    criterion::Criterion::default().final_summary();
}
