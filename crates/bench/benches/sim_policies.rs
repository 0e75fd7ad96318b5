//! Chunk-policy ablation: delivery time of the same overlay under the four push policies
//! (random-useful — the one analysed by Massoulié et al. —, sequential, latest-useful and
//! rarest-first), plus the overhead of churn handling in the one session driver.

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_sim::{run_adaptive, ChunkPolicy, ChurnSchedule, Overlay, SimConfig, StaticPolicy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Rounds a whole frozen-overlay broadcast under `churn` takes.
fn rounds(overlay: &Overlay, config: SimConfig, churn: &ChurnSchedule) -> usize {
    run_adaptive(overlay.clone(), config, churn, &mut StaticPolicy, 0.0)
        .report
        .rounds_run
}

fn overlay_and_config() -> (Overlay, SimConfig, f64) {
    let config = GeneratorConfig::new(30, 0.7).unwrap();
    let generator = InstanceGenerator::new(config, UniformBandwidth::unif100());
    let inst = generator.generate(&mut StdRng::seed_from_u64(4242));
    let solution = AcyclicGuardedSolver::default().solve(&inst);
    let sim_config = SimConfig {
        num_chunks: 200,
        // Bound the horizon so a churn-starved run stays cheap to benchmark.
        max_rounds: 5_000,
        ..SimConfig::default()
    }
    .scaled_to(solution.throughput, 2.0);
    (
        Overlay::from_scheme(&solution.scheme),
        sim_config,
        solution.throughput,
    )
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_policy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (overlay, base_config, _) = overlay_and_config();
    for policy in ChunkPolicy::all() {
        let config = base_config.with_policy(policy);
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.label()),
            &config,
            |b, config| b.iter(|| rounds(&overlay, *config, &ChurnSchedule::empty())),
        );
    }
    group.finish();
}

fn bench_engine_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_features");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (overlay, config, throughput) = overlay_and_config();
    group.bench_function("plain_run", |b| {
        b.iter(|| rounds(&overlay, config, &ChurnSchedule::empty()))
    });
    let horizon = 200.0 * config.chunk_size / throughput;
    let churn = ChurnSchedule::departures_at(0.5 * horizon, &[overlay.num_nodes() - 1]);
    group.bench_function("run_with_churn", |b| {
        b.iter(|| rounds(&overlay, config, &churn))
    });
    group.finish();
}

criterion_group!(benches, bench_policies, bench_engine_features);
criterion_main!(benches);
