//! Cross-crate integration tests for the churn analysis and the chunk-selection policies:
//! the static residual-throughput analysis of `bmp-core` agrees with the dynamic behaviour of
//! `bmp-sim` under injected departures, and every push policy sustains the overlay's rate.

use bmp::core::churn::{repair_with, residual_throughput};
use bmp::core::solver::AcyclicGuardedAlgorithm;
use bmp::platform::distribution::NamedDistribution;
use bmp::platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp::prelude::*;
use bmp::sim::{ChunkPolicy, ChurnSchedule, Overlay};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_instance(receivers: usize, p: f64, seed: u64) -> Instance {
    let config = GeneratorConfig::new(receivers, p).unwrap();
    let generator = InstanceGenerator::new(config, NamedDistribution::Unif100.build());
    generator.generate(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn every_policy_sustains_the_overlay_rate() {
    let solver = AcyclicGuardedSolver::default();
    let instance = random_instance(25, 0.7, 31);
    let solution = solver.solve(&instance);
    let overlay = Overlay::from_scheme(&solution.scheme);
    for policy in ChunkPolicy::all() {
        let config = SimConfig {
            num_chunks: 250,
            policy,
            ..SimConfig::default()
        }
        .scaled_to(solution.throughput, 2.0);
        let report = run_adaptive(
            overlay.clone(),
            config,
            &ChurnSchedule::empty(),
            &mut StaticPolicy,
            solution.throughput,
        )
        .report;
        assert!(report.all_completed(), "policy {}", policy.label());
        let rate = report.min_achieved_rate().unwrap();
        assert!(
            rate > 0.7 * solution.throughput,
            "policy {} achieved {rate} vs nominal {}",
            policy.label(),
            solution.throughput
        );
    }
}

#[test]
fn static_residual_analysis_predicts_simulated_starvation() {
    let solver = AcyclicGuardedSolver::default();
    let instance = random_instance(20, 0.6, 77);
    let solution = solver.solve(&instance);

    // Remove the busiest relay: the static analysis says how much rate survives.
    let victim = (1..instance.num_nodes())
        .max_by_key(|&node| solution.scheme.outdegree(node))
        .unwrap();
    let residual = residual_throughput(&solution.scheme, &[victim], &mut EvalCtx::new());
    assert!(residual < solution.throughput + 1e-9);

    // Simulate the same departure from the very start of the broadcast.
    let config = SimConfig {
        num_chunks: 200,
        max_rounds: 5_000,
        ..SimConfig::default()
    }
    .scaled_to(solution.throughput, 2.0);
    let churn = ChurnSchedule::departures_at(0.0, &[victim]);
    let report = run_adaptive(
        Overlay::from_scheme(&solution.scheme),
        config,
        &churn,
        &mut StaticPolicy,
        solution.throughput,
    )
    .report;

    let survivors = churn.surviving_receivers(instance.num_nodes());
    let all_survivors_done = survivors
        .iter()
        .all(|&node| report.completion_time[node].is_some());
    if residual <= 1e-9 {
        // Static analysis says some survivor is cut off: the simulation must starve too.
        assert!(
            !all_survivors_done,
            "static analysis predicts starvation but the simulation completed"
        );
    } else {
        // Some rate survives for every receiver; with a generous horizon everyone finishes.
        assert!(
            all_survivors_done,
            "residual {residual} > 0 but survivors starved"
        );
    }
}

#[test]
fn repair_restores_the_optimum_of_the_surviving_platform() {
    let solver = AcyclicGuardedSolver::default();
    let instance = random_instance(30, 0.5, 13);
    let solution = solver.solve(&instance);
    let victim = (1..instance.num_nodes())
        .max_by_key(|&node| solution.scheme.outdegree(node))
        .unwrap();

    let plan = repair_with(
        &instance,
        &[victim],
        &AcyclicGuardedAlgorithm,
        &mut EvalCtx::new(),
    )
    .unwrap()
    .unwrap();
    let mut deployed = BroadcastScheme::new(instance.clone());
    for &(from, to, rate) in &plan.edges {
        deployed.set_rate(from, to, rate);
    }
    assert!(deployed.is_feasible());
    // The repaired overlay is the solver's optimum on the reduced platform, hence at least
    // 5/7 of the reduced cyclic optimum.
    let reduced_cyclic = bmp::core::bounds::cyclic_upper_bound(&plan.instance);
    assert!(plan.throughput >= bmp::core::bounds::five_sevenths() * reduced_cyclic - 1e-6);

    // And it streams: the simulator delivers on the repaired overlay, which still
    // addresses the full platform, to every survivor of the departure.
    let config = SimConfig {
        num_chunks: 200,
        ..SimConfig::default()
    }
    .scaled_to(plan.throughput, 2.0);
    let churn = ChurnSchedule::departures_at(0.0, &[victim]);
    let report = run_adaptive(
        Overlay::new(instance.num_nodes(), plan.edges),
        config,
        &churn,
        &mut StaticPolicy,
        plan.throughput,
    )
    .report;
    for node in churn.surviving_receivers(instance.num_nodes()) {
        assert!(report.completion_time[node].is_some(), "survivor {node}");
    }
}

#[test]
fn rejoin_after_an_outage_still_completes() {
    let solver = AcyclicGuardedSolver::default();
    let instance = random_instance(15, 0.7, 5);
    let solution = solver.solve(&instance);
    let victim = (1..instance.num_nodes())
        .max_by_key(|&node| solution.scheme.outdegree(node))
        .unwrap();
    let config = SimConfig {
        num_chunks: 200,
        max_rounds: 50_000,
        ..SimConfig::default()
    }
    .scaled_to(solution.throughput, 2.0);
    let horizon = 200.0 * config.chunk_size / solution.throughput;
    let churn = ChurnSchedule::new(vec![
        bmp::sim::ChurnEvent {
            time: 0.25 * horizon,
            node: victim,
            action: bmp::sim::ChurnAction::Depart,
        },
        bmp::sim::ChurnEvent {
            time: 0.75 * horizon,
            node: victim,
            action: bmp::sim::ChurnAction::Rejoin,
        },
    ]);
    let report = run_adaptive(
        Overlay::from_scheme(&solution.scheme),
        config,
        &churn,
        &mut StaticPolicy,
        solution.throughput,
    )
    .report;
    // Once the relay is back, everyone eventually finishes (the outage only delays delivery).
    assert!(report.all_completed());
    assert!(report.makespan().unwrap() >= 0.5 * horizon);
}
