//! End-to-end integration: random platforms → scheduling algorithms → max-flow verification
//! → chunk-level streaming simulation.

use bmp::core::acyclic_guarded::AcyclicGuardedSolver;
use bmp::core::bounds::{cyclic_open_optimum, cyclic_upper_bound};
use bmp::core::cyclic_open::cyclic_open_optimal_scheme;
use bmp::platform::distribution::NamedDistribution;
use bmp::platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp::platform::{Instance, NodeClass};
use bmp::sim::{run_adaptive, ChurnSchedule, Overlay, SimConfig, StaticPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_instance(receivers: usize, p: f64, dist: NamedDistribution, seed: u64) -> Instance {
    let config = GeneratorConfig::new(receivers, p).unwrap();
    let generator = InstanceGenerator::new(config, dist.build());
    generator.generate(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn acyclic_pipeline_on_random_platforms() {
    let solver = AcyclicGuardedSolver::default();
    for (seed, dist) in [
        (1u64, NamedDistribution::Unif100),
        (2, NamedDistribution::Power1),
        (3, NamedDistribution::Ln1),
        (4, NamedDistribution::PLab),
    ] {
        let instance = random_instance(40, 0.6, dist, seed);
        let cyclic = cyclic_upper_bound(&instance);
        let solution = solver.solve(&instance);

        // Feasibility, acyclicity and max-flow verification.
        assert!(
            solution.scheme.is_feasible(),
            "violations: {:?}",
            solution.scheme.validate()
        );
        assert!(solution.scheme.is_acyclic());
        let measured = solution.scheme.throughput();
        assert!(
            measured + 1e-6 * cyclic >= solution.throughput,
            "{}: measured {measured} < claimed {}",
            dist.label(),
            solution.throughput
        );

        // The acyclic optimum never beats the cyclic bound, and never drops below 5/7 of it.
        assert!(solution.throughput <= cyclic + 1e-6);
        assert!(solution.throughput >= 5.0 / 7.0 * cyclic - 1e-6);

        // Degree bounds of Theorem 4.1.
        let mut excess_three = 0;
        for node in 0..instance.num_nodes() {
            let excess = solution.scheme.degree_excess(node, solution.throughput);
            match instance.class(node) {
                NodeClass::Guarded => assert!(excess <= 1, "guarded node {node}: {excess}"),
                _ => {
                    assert!(excess <= 3, "open node {node}: {excess}");
                    if excess == 3 {
                        excess_three += 1;
                    }
                }
            }
        }
        assert!(excess_three <= 1);

        // Firewall constraint holds structurally: no guarded → guarded edge.
        for (from, to, _) in solution.scheme.edges() {
            assert!(
                !(instance.is_guarded(from) && instance.is_guarded(to)),
                "guarded-to-guarded edge {from} -> {to}"
            );
        }
    }
}

#[test]
fn simulation_delivers_close_to_nominal_rate() {
    let solver = AcyclicGuardedSolver::default();
    let instance = random_instance(25, 0.7, NamedDistribution::Unif100, 99);
    let solution = solver.solve(&instance);
    let overlay = Overlay::from_scheme(&solution.scheme);
    let config = SimConfig {
        num_chunks: 300,
        ..SimConfig::default()
    }
    .scaled_to(solution.throughput, 2.0);
    let report = run_adaptive(
        overlay,
        config,
        &ChurnSchedule::empty(),
        &mut StaticPolicy,
        solution.throughput,
    )
    .report;
    assert!(report.all_completed());
    let rate = report.min_achieved_rate().unwrap();
    assert!(
        rate > 0.8 * solution.throughput,
        "simulated {rate} vs nominal {}",
        solution.throughput
    );
}

#[test]
fn cyclic_pipeline_on_open_only_platforms() {
    for seed in [5u64, 6, 7] {
        let instance = random_instance(30, 1.0, NamedDistribution::Unif100, seed);
        assert_eq!(instance.m(), 0);
        let optimum = cyclic_open_optimum(&instance).unwrap();
        let (scheme, t) = cyclic_open_optimal_scheme(&instance).unwrap();
        assert!((t - optimum).abs() < 1e-9);
        assert!(scheme.is_feasible());
        assert!(scheme.throughput() + 1e-6 >= t);
        // Theorem 5.2 degree bound.
        for node in 0..instance.num_nodes() {
            let bound = bmp::platform::node::degree_lower_bound(instance.bandwidth(node), t) + 2;
            assert!(scheme.outdegree(node) <= bound.max(4));
        }
    }
}

#[test]
fn guarded_heavy_platforms_are_handled() {
    // Mostly-guarded swarms: the open nodes and the source are the only possible relays.
    let solver = AcyclicGuardedSolver::default();
    let instance = random_instance(30, 0.15, NamedDistribution::Power2, 11);
    let solution = solver.solve(&instance);
    assert!(solution.scheme.is_feasible());
    let cyclic = cyclic_upper_bound(&instance);
    assert!(solution.throughput >= 5.0 / 7.0 * cyclic - 1e-6);
    assert!(solution.scheme.throughput() + 1e-6 >= solution.throughput);
}
