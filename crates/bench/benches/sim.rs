//! Chunk-level streaming simulator benchmarks (the Massoulié-style data plane).
//!
//! Four groups:
//!
//! * `streaming_simulation` — whole runs over solved overlays (end-to-end cost);
//! * `sim_round` — the per-round hot path of the session engine: stepping a
//!   mid-broadcast session (word-packed possession bitsets, O(chunks/64) useful-chunk
//!   scans) and the rarest-first pick on wide chunk sets;
//! * `fault_storm` — the hardened repair pipeline under injected solver failures: one
//!   full faulted repair cycle (probe, residual, retries, hot-swap plan);
//! * `repair` — the warm-started repair solve against its cold twin: the same
//!   post-departure re-solve with and without the residual-throughput lower bracket
//!   ([`EvalCtx::set_warm_start_lower`]) the controller arms before every attempt.
//!
//! Drained into `BENCH_sim.json` at the repo root; the `sim_round`, `fault_storm` and
//! `repair` ids are pinned by the CI perf gate (`validate_bench`).

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::churn::repair_with;
use bmp_core::{registry, EvalCtx};
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_platform::Instance;
use bmp_sim::{
    AdaptationPolicy, ChunkBitset, FaultPlan, Overlay, RepairController, Session, SimConfig,
    Simulator,
};
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn generated_instance(receivers: usize, seed: u64) -> Instance {
    let config = GeneratorConfig::new(receivers, 0.7).unwrap();
    let generator = InstanceGenerator::new(config, UniformBandwidth::unif100());
    generator.generate(&mut StdRng::seed_from_u64(seed))
}

fn solved_overlay(receivers: usize, seed: u64) -> (Overlay, f64) {
    let solution = AcyclicGuardedSolver::default().solve(&generated_instance(receivers, seed));
    (Overlay::from_scheme(&solution.scheme), solution.throughput)
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_simulation");
    group.sample_size(10);
    for &receivers in &[10usize, 50] {
        let (overlay, throughput) = solved_overlay(receivers, 17);
        let sim_config = SimConfig {
            num_chunks: 200,
            ..SimConfig::default()
        }
        .scaled_to(throughput, 2.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(receivers),
            &(overlay, sim_config),
            |b, (overlay, sim_config)| {
                b.iter(|| {
                    Simulator::new(overlay.clone(), *sim_config)
                        .run()
                        .worst_progress()
                })
            },
        );
    }
    group.finish();
}

/// The session engine's hot path: one round over every edge, each push scanning the
/// word-packed possession sets. The session is advanced to mid-broadcast first (all
/// possession sets partially filled — the expensive regime for useful-chunk scans), then
/// every iteration steps a fresh clone a fixed number of rounds.
fn bench_session_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_round");
    group.sample_size(10);

    let (overlay, throughput) = solved_overlay(50, 17);
    let sim_config = SimConfig {
        num_chunks: 1000,
        ..SimConfig::default()
    }
    .scaled_to(throughput, 2.0);
    let mut warm = Session::new(overlay, sim_config);
    // Advance to mid-broadcast: stop once the mean receiver holds ~half the message.
    while !warm.is_complete() {
        warm.step();
        let held: usize = warm.counts().iter().skip(1).sum();
        if held * 2 >= 1000 * (warm.counts().len() - 1) {
            break;
        }
    }
    const ROUNDS: usize = 25;
    group.bench_with_input(
        BenchmarkId::new("session", "50x1000"),
        &warm,
        |b, session| {
            b.iter(|| {
                let mut session = session.clone();
                let mut delivered = 0usize;
                for _ in 0..ROUNDS {
                    delivered += session.step().delivered;
                }
                delivered
            })
        },
    );

    // The rarest-first pick is the most expensive policy scan: it must visit every
    // useful chunk, not just the first hit. 4096 chunks = 64 words per scan.
    let chunks = 4096usize;
    let sender = {
        let mut set = ChunkBitset::new(chunks);
        (0..chunks).filter(|c| c % 3 != 0).for_each(|c| {
            set.insert(c);
        });
        set
    };
    let receiver = {
        let mut set = ChunkBitset::new(chunks);
        (0..chunks).filter(|c| c % 5 == 0).for_each(|c| {
            set.insert(c);
        });
        set
    };
    let replication: Vec<usize> = (0..chunks).map(|c| 1 + (c * 31) % 97).collect();
    group.bench_with_input(
        BenchmarkId::new("pick/rarest-first", chunks),
        &(sender, receiver, replication),
        |b, (sender, receiver, replication)| b.iter(|| sender.rarest_useful(receiver, replication)),
    );

    // A/B baseline: the pre-session boolean data plane (one byte per chunk, no word
    // skipping) — what every pick cost before the bitset refactor.
    let sender_bools: Vec<bool> = (0..chunks).map(|c| c % 3 != 0).collect();
    let receiver_bools: Vec<bool> = (0..chunks).map(|c| c % 5 == 0).collect();
    let replication_bools: Vec<usize> = (0..chunks).map(|c| 1 + (c * 31) % 97).collect();
    group.bench_with_input(
        BenchmarkId::new("pick/rarest-first-bools", chunks),
        &(sender_bools, receiver_bools, replication_bools),
        |b, (sender, receiver, replication)| {
            b.iter(|| {
                (0..sender.len())
                    .filter(|&c| sender[c] && !receiver[c])
                    .min_by_key(|&c| (replication[c], c))
            })
        },
    );
    group.finish();
}

/// One full faulted repair cycle of the hardened controller on a 50-receiver platform:
/// the victim probe (degradation bisection), the pooled-capable residual evaluation,
/// two injected solve failures absorbed by the retry budget, and the successful third
/// attempt producing the hot-swap plan. This is the whole control-plane cost of
/// surviving a transient solver outage, gated so hardening never regresses it silently.
fn bench_fault_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_storm");
    group.sample_size(10);
    let receivers = 50usize;
    let instance = generated_instance(receivers, 17);
    let solution = AcyclicGuardedSolver::default().solve(&instance);
    let victim = solution.scheme.busiest_receiver().unwrap();
    group.bench_with_input(
        BenchmarkId::new("repair-cycle", receivers),
        &(instance, solution),
        |b, (instance, solution)| {
            b.iter(|| {
                let mut controller = RepairController::new(
                    instance.clone(),
                    solution.scheme.clone(),
                    solution.throughput,
                    0.9,
                );
                FaultPlan::disabled()
                    .with_solve_failures(vec![0, 1])
                    .install(controller.ctx_mut());
                let decision = controller.adapt(&[victim], 0.0);
                assert!(decision.is_some(), "the third attempt must repair");
                controller.decisions()[0].attempts
            })
        },
    );
    group.finish();
}

/// The repair-latency halves of one hot-swap: the post-departure re-solve warm-started
/// from the verified residual throughput of the still-deployed overlay (the bracket the
/// controller arms via [`EvalCtx::set_warm_start_lower`] before every attempt) against
/// the identical solve from a cold lower bracket of zero. The victim is a leaf of the
/// deployed overlay — it relays to no one, so every survivor stays fed and the residual
/// bracket is non-trivial (a relay victim starves its subtree, residual 0, and the warm
/// solve degenerates into the cold one). Both variants run the same 50-receiver
/// departure on a fresh context, so the delta isolates what the warm bracket saves in
/// bisection probes — the cost the `sim_churn` telemetry CSV now reports per repair
/// (`repair_ms_mean` / `repair_ms_max`).
fn bench_repair_warm_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair");
    group.sample_size(10);
    let receivers = 50usize;
    let instance = generated_instance(receivers, 17);
    let solution = AcyclicGuardedSolver::default().solve(&instance);
    let deployed = Overlay::from_scheme(&solution.scheme);
    let num_nodes = instance.num_nodes();
    let victim = (1..num_nodes)
        .find(|&node| deployed.edges().iter().all(|edge| edge.from != node))
        .expect("an acyclic overlay always has a leaf receiver");
    let survivors: Vec<usize> = (1..num_nodes).filter(|&node| node != victim).collect();
    // The residual throughput of the deployed overlay on the survivors, computed
    // exactly as the controller's residual probe does: this is the verified feasible
    // lower bracket a real repair warm-starts from.
    let residual = EvalCtx::new().min_max_flow_with(num_nodes, 0, &survivors, |edges| {
        edges.extend(
            deployed
                .edges()
                .iter()
                .filter(|edge| edge.from != victim && edge.to != victim)
                .map(|edge| (edge.from, edge.to, edge.rate)),
        );
    });
    assert!(
        residual.is_finite() && residual > 0.0,
        "the deployed overlay must retain residual throughput after one departure"
    );
    let solvers = registry();
    let solver = solvers
        .iter()
        .find(|solver| solver.name() == "acyclic-guarded")
        .expect("the registry always carries the acyclic-guarded solver");
    for (variant, hint) in [("warm", Some(residual)), ("cold", None)] {
        group.bench_with_input(
            BenchmarkId::new("warm-vs-cold", variant),
            &hint,
            |b, hint| {
                b.iter(|| {
                    let mut ctx = EvalCtx::new();
                    // The hint is one-shot, so a real controller re-arms it before
                    // every attempt; a fresh context per iteration does the same.
                    ctx.set_warm_start_lower(*hint);
                    let plan = repair_with(&instance, &[victim], solver.as_ref(), &mut ctx)
                        .expect("the fault-free repair solve cannot fail")
                        .expect("a survivor remains after one departure");
                    plan.throughput
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_session_round,
    bench_fault_storm,
    bench_repair_warm_vs_cold
);

fn main() {
    benches();
    if let Some(path) = bmp_bench::write_bench_json("sim", &criterion::take_reports()) {
        println!("wrote {}", path.display());
    }
    criterion::Criterion::default().final_summary();
}
