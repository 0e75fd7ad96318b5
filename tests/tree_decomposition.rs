//! Cross-crate integration tests for the broadcast-tree decomposition: the trees extracted
//! from the solver's overlays are valid, their analytical completion model agrees with the
//! chunk-level simulator, and the greedy packing handles the cyclic construction.

use bmp::core::cyclic_open::cyclic_open_optimal_scheme;
use bmp::platform::distribution::NamedDistribution;
use bmp::platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp::prelude::*;
use bmp::sim::Overlay;
use bmp::trees::{decompose_acyclic, greedy_packing, makespan_estimate};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_instance(receivers: usize, p: f64, dist: NamedDistribution, seed: u64) -> Instance {
    let config = GeneratorConfig::new(receivers, p).unwrap();
    let generator = InstanceGenerator::new(config, dist.build());
    generator.generate(&mut StdRng::seed_from_u64(seed))
}

#[test]
fn decomposition_of_random_overlays_is_valid_across_distributions() {
    let solver = AcyclicGuardedSolver::default();
    for (seed, dist) in NamedDistribution::all().into_iter().enumerate() {
        let instance = random_instance(30, 0.7, dist, 100 + seed as u64);
        let solution = solver.solve(&instance);
        if solution.throughput <= 1e-6 {
            continue;
        }
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput)
            .unwrap_or_else(|e| panic!("{}: {e}", dist.label()));
        decomposition.verify(&solution.scheme).unwrap();
        // The trees collectively carry the full throughput with no more connections per node
        // than the low-degree scheme already uses.
        for node in 0..instance.num_nodes() {
            assert!(
                decomposition.connection_degree(node) <= solution.scheme.outdegree(node),
                "{}: node {node}",
                dist.label()
            );
        }
    }
}

#[test]
fn analytical_completion_estimate_tracks_the_simulator() {
    let solver = AcyclicGuardedSolver::default();
    let instance = random_instance(20, 0.8, NamedDistribution::Unif100, 7);
    let solution = solver.solve(&instance);
    let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();

    let chunk = solution.throughput / 4.0;
    let num_chunks = 240;
    let message = num_chunks as f64 * chunk;
    let estimate = makespan_estimate(&decomposition, message, chunk).unwrap();

    let config = SimConfig {
        num_chunks,
        chunk_size: chunk,
        round_duration: 0.25,
        ..SimConfig::default()
    };
    let report = run_adaptive(
        Overlay::from_scheme(&solution.scheme),
        config,
        &ChurnSchedule::empty(),
        &mut StaticPolicy,
        solution.throughput,
    )
    .report;
    assert!(report.all_completed());
    let simulated = report.makespan().unwrap();

    let fluid = message / solution.throughput;
    // Both the estimate and the simulation lie above the fluid bound and within a modest
    // factor of it; the randomized data plane pays some extra chunk-granularity overhead.
    assert!(estimate >= fluid - 1e-9);
    assert!(simulated >= fluid - 1e-9);
    assert!(
        estimate <= 1.5 * fluid,
        "analytical estimate {estimate} too far above the fluid time {fluid}"
    );
    assert!(
        simulated <= 2.0 * fluid,
        "simulated makespan {simulated} too far above the fluid time {fluid}"
    );
}

#[test]
fn greedy_packing_recovers_most_of_the_cyclic_optimum_on_open_platforms() {
    // The cyclic construction (Theorem 5.2) produces overlays with back edges; the interval
    // decomposition does not apply, but the greedy packing still extracts a tree set carrying
    // a large share of the optimum.
    let open: Vec<f64> = (0..12).map(|i| 10.0 - 0.5 * i as f64).collect();
    let instance = Instance::open_only(6.0, open).unwrap();
    let (scheme, _throughput) = cyclic_open_optimal_scheme(&instance).unwrap();
    let packing = greedy_packing(&scheme).unwrap();
    packing.decomposition.verify(&scheme).unwrap();
    assert!(
        packing.efficiency() > 0.5,
        "greedy packing efficiency {} unexpectedly low",
        packing.efficiency()
    );
}

#[test]
fn per_word_schemes_also_decompose() {
    // Decomposition applies to any acyclic scheme, not only the solver's optimum: use the
    // regular ω1 word at a sub-optimal throughput.
    let instance = random_instance(16, 0.6, NamedDistribution::Power1, 11);
    let solver = AcyclicGuardedSolver::default();
    let word = bmp::core::omega::omega1(instance.n(), instance.m());
    let target = bmp::core::word::optimal_throughput_for_word(&instance, &word, 1e-10) * 0.95;
    if target <= 1e-6 {
        return;
    }
    let scheme = solver.scheme_for_word(&instance, target, &word).unwrap();
    let decomposition = decompose_acyclic(&scheme, target).unwrap();
    decomposition.verify(&scheme).unwrap();
    assert!(decomposition.num_trees() >= 1);
}
