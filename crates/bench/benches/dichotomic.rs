//! Dichotomic search benches: cost of the optimal-throughput search as a function of the
//! tolerance (shared `DichotomicSearch` driver, Theorem 4.1) and the cost of re-scoring
//! near-identical schemes — per-iteration `FlowArena::from_edges` rebuilds versus the
//! retained arena of `EvalCtx`, whose capacities are rewritten in place. The results are
//! drained from the harness and written as `BENCH_dichotomic.json` at the repo root
//! (machine-readable perf trajectory).

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::solver::{AcyclicGuardedAlgorithm, EvalCtx, Solver};
use bmp_flow::{FlowArena, FlowSolver};
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_platform::Instance;
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_instance(receivers: usize, p: f64, seed: u64) -> Instance {
    let config = GeneratorConfig::new(receivers, p).unwrap();
    let generator = InstanceGenerator::new(config, UniformBandwidth::unif100());
    generator.generate(&mut StdRng::seed_from_u64(seed))
}

fn bench_dichotomic(c: &mut Criterion) {
    let mut group = c.benchmark_group("dichotomic_search");
    let inst = random_instance(500, 0.6, 99);
    for &tolerance in &[1e-4_f64, 1e-8, 1e-12] {
        let solver = AcyclicGuardedSolver::with_tolerance(tolerance);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{tolerance:e}")),
            &inst,
            |b, inst| b.iter(|| solver.optimal_throughput(inst).0),
        );
    }
    group.finish();
}

/// Re-scoring near-identical schemes, the access pattern of a search loop probing a
/// scheme whose edge set is fixed while the rates move. Three variants, identical flow
/// solves, different arena handling:
///
/// * `rebuild` — what the pre-registry code paid per probe: `FlowArena::from_edges`
///   over `scheme.edges()` (rate scan + full CSR construction with its allocations)
///   then the batched evaluator;
/// * `incremental` — `EvalCtx::throughput`: same rate scan, but the retained arena's
///   capacities are rewritten in place instead of rebuilding the CSR layout;
/// * `incremental-edges` — `EvalCtx::min_max_flow` over a caller-maintained edge list
///   (the search loop mutates the probed rate directly), skipping the rate scan too.
fn bench_reevaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dichotomic_reevaluation");
    group.sample_size(20);
    for &n in &[50usize, 200, 500] {
        let inst = random_instance(n, 0.7, 42);
        let solution = AcyclicGuardedAlgorithm
            .solve(&inst, &mut EvalCtx::new())
            .expect("solvable");
        let receivers: Vec<usize> = inst.receivers().collect();
        let base_edges = solution.scheme.edges();

        group.bench_with_input(
            BenchmarkId::new("rebuild", n),
            &solution.scheme,
            |b, scheme| {
                let mut scheme = scheme.clone();
                let mut solver = FlowSolver::new();
                let mut k = 0usize;
                b.iter(|| {
                    let (from, to, rate) = base_edges[k % base_edges.len()];
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    scheme.set_rate(from, to, rate * scale);
                    let arena = FlowArena::from_edges(inst.num_nodes(), &scheme.edges());
                    solver.min_max_flow(&arena, 0, &receivers)
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("incremental", n),
            &solution.scheme,
            |b, scheme| {
                let mut scheme = scheme.clone();
                let mut ctx = EvalCtx::new();
                let mut k = 0usize;
                b.iter(|| {
                    let (from, to, rate) = base_edges[k % base_edges.len()];
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    scheme.set_rate(from, to, rate * scale);
                    ctx.throughput(&scheme)
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("incremental-edges", n),
            &solution.scheme,
            |b, scheme| {
                let num_nodes = scheme.instance().num_nodes();
                let mut edges = base_edges.clone();
                let mut ctx = EvalCtx::new();
                let mut k = 0usize;
                b.iter(|| {
                    let index = k % edges.len();
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    edges[index].2 = base_edges[index].2 * scale;
                    ctx.min_max_flow(num_nodes, &edges, 0, &receivers)
                })
            },
        );

        // Single-sink probes (the churn-sweep access pattern): with only one max-flow
        // per evaluation, the arena handling dominates the iteration cost.
        let probe_sink = receivers[receivers.len() / 2];
        group.bench_with_input(
            BenchmarkId::new("rebuild-single-sink", n),
            &solution.scheme,
            |b, scheme| {
                let mut scheme = scheme.clone();
                let mut solver = FlowSolver::new();
                let mut k = 0usize;
                b.iter(|| {
                    let (from, to, rate) = base_edges[k % base_edges.len()];
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    scheme.set_rate(from, to, rate * scale);
                    let arena = FlowArena::from_edges(inst.num_nodes(), &scheme.edges());
                    solver.max_flow(&arena, 0, probe_sink)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental-single-sink", n),
            &solution.scheme,
            |b, scheme| {
                let num_nodes = scheme.instance().num_nodes();
                let mut edges = base_edges.clone();
                let mut ctx = EvalCtx::new();
                let sinks = [probe_sink];
                let mut k = 0usize;
                b.iter(|| {
                    let index = k % edges.len();
                    let scale = if k.is_multiple_of(2) { 0.999 } else { 1.0 };
                    k += 1;
                    edges[index].2 = base_edges[index].2 * scale;
                    ctx.min_max_flow(num_nodes, &edges, 0, &sinks)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dichotomic, bench_reevaluation);

fn main() {
    benches();
    if let Some(path) = bmp_bench::write_bench_json("dichotomic", &criterion::take_reports()) {
        println!("wrote {}", path.display());
    }
    criterion::Criterion::default().final_summary();
}
