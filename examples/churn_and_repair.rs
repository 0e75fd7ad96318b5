//! Churn: what a departure costs, and what recomputing the overlay buys back — live.
//!
//! The conclusion of the paper remarks that the computed overlays "should be resilient to
//! small variations in the communication performance of nodes. However [they are] probably
//! not resilient to churn." This example quantifies the remark on a PlanetLab-like platform
//! with the closed-loop session engine:
//!
//! 1. build the optimal low-degree acyclic overlay,
//! 2. depart the busiest relay mid-broadcast and stream the *same* churn trace twice —
//!    once over the frozen overlay (the paper's static control plane) and once with the
//!    adaptive repair controller, which probes the victim's degradation tolerance,
//!    measures the residual throughput of the frozen overlay, re-solves the surviving
//!    platform (Theorem 4.1, linear time) and hot-swaps the repaired overlay into the
//!    running session without losing delivered chunks,
//! 3. compare *delivered* goodput and post-churn recovery time under the identical seed.
//!
//! Run with `cargo run --release --example churn_and_repair`.

use bmp::platform::distribution::NamedDistribution;
use bmp::platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp::prelude::*;
use bmp::sim::{run_adaptive, ChurnSchedule, Overlay, RepairController, StaticPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A 40-node platform with PlanetLab-like bandwidths, 70% open nodes (the paper's
    // Figure 19 protocol).
    let config = GeneratorConfig::new(40, 0.7).expect("valid generator config");
    let generator = InstanceGenerator::new(config, NamedDistribution::PLab.build());
    let instance = generator.generate(&mut StdRng::seed_from_u64(2024));
    println!(
        "platform: n = {} open, m = {} guarded, b0 = {:.2}",
        instance.n(),
        instance.m(),
        instance.source_bandwidth()
    );

    let solver = AcyclicGuardedSolver::default();
    let solution = solver.solve(&instance);
    let nominal = solution.throughput;
    println!("nominal acyclic throughput: {nominal:.3}");

    // The busiest relay (largest outdegree among the receivers) departs mid-broadcast.
    let victim = solution
        .scheme
        .busiest_receiver()
        .expect("there is at least one receiver");
    println!(
        "departing node: C{victim} (outdegree {}, bandwidth {:.2})",
        solution.scheme.outdegree(victim),
        instance.bandwidth(victim)
    );

    let sim_config = SimConfig {
        num_chunks: 400,
        max_rounds: 40_000,
        ..SimConfig::default()
    }
    .scaled_to(nominal, 2.0);
    let half_time = 0.5 * 400.0 * sim_config.chunk_size / nominal;
    let churn = ChurnSchedule::departures_at(half_time, &[victim]);
    let overlay = Overlay::from_scheme(&solution.scheme);

    // Static baseline: the overlay is never adapted.
    let static_run = run_adaptive(
        overlay.clone(),
        sim_config,
        &churn,
        &mut StaticPolicy,
        nominal,
    );
    let starving = static_run
        .survivors
        .iter()
        .filter(|&&node| static_run.report.completion_time[node].is_none())
        .count();
    println!(
        "\nstatic overlay, departure at t = {half_time:.1}: {starving} surviving receiver(s) \
         never finished; delivered goodput {:.3} ({:.0}% of nominal)",
        static_run.goodput(),
        100.0 * static_run.goodput_vs_nominal()
    );

    // Closed loop: the controller repairs and hot-swaps on the membership change.
    let mut controller =
        RepairController::new(instance.clone(), solution.scheme.clone(), nominal, 0.9);
    let repaired_run = run_adaptive(overlay, sim_config, &churn, &mut controller, nominal);
    let decision = controller
        .decisions()
        .first()
        .expect("the departure triggered a decision");
    println!(
        "controller at t = {:.1}: victim tolerance {:.3}, residual {:.3} ({:.0}% of nominal) \
         -> repaired overlay at {:.3}",
        decision.time,
        decision.victim_tolerance,
        decision.residual,
        100.0 * decision.residual / nominal,
        decision.repaired.unwrap_or(f64::NAN)
    );
    println!(
        "repaired session: all survivors completed = {}, delivered goodput {:.3} \
         ({:.0}% of nominal), recovery {:.2} time units after the swap",
        repaired_run
            .survivors
            .iter()
            .all(|&node| repaired_run.report.completion_time[node].is_some()),
        repaired_run.goodput(),
        100.0 * repaired_run.goodput_vs_nominal(),
        repaired_run.recovery_time().unwrap_or(f64::NAN)
    );
    let ctx = controller.ctx();
    println!(
        "controller telemetry: {} cut certifications, {} flow solves, {} bisection iters",
        ctx.cut_certifications(),
        ctx.flow_solves(),
        ctx.bisection_iters()
    );
    assert!(
        repaired_run.goodput() > static_run.goodput(),
        "the repaired session must beat the frozen overlay on delivered goodput"
    );
}
