//! Max-flow kernel benchmark: Dinic (`FlowSolver::max_flow`) on layered networks.

use bmp_flow::{FlowArena, FlowSolver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Layered random network with `layers` layers of `width` nodes.
fn layered_network(layers: usize, width: usize, seed: u64) -> FlowArena {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_nodes = 2 + layers * width;
    let mut edges = Vec::new();
    let node = |layer: usize, index: usize| 2 + layer * width + index;
    for i in 0..width {
        edges.push((0, node(0, i), rng.gen_range(1.0..10.0)));
        edges.push((node(layers - 1, i), 1, rng.gen_range(1.0..10.0)));
    }
    for layer in 0..layers - 1 {
        for i in 0..width {
            for j in 0..width {
                if rng.gen::<f64>() < 0.5 {
                    edges.push((node(layer, i), node(layer + 1, j), rng.gen_range(0.5..5.0)));
                }
            }
        }
    }
    FlowArena::from_edges(num_nodes, &edges)
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_flow");
    for &width in &[4usize, 8, 16] {
        let arena = layered_network(6, width, 42);
        group.bench_with_input(BenchmarkId::new("dinic", width), &arena, |b, arena| {
            b.iter(|| FlowSolver::new().max_flow(arena, 0, 1))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
