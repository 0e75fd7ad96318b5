//! Cross-crate integration tests of the closed-loop session engine: determinism across
//! hot-swaps, the identical-overlay no-op property, and agreement between the repaired
//! session's *delivered* rate and the static max-flow prediction of `bmp_core::churn`.

use bmp::core::churn::residual_throughput;
use bmp::platform::distribution::NamedDistribution;
use bmp::platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp::prelude::*;
use bmp::sim::{run_adaptive, ChurnSchedule, Overlay, RepairController, Session, StaticPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_instance(receivers: usize, p: f64, seed: u64) -> Instance {
    let config = GeneratorConfig::new(receivers, p).unwrap();
    let generator = InstanceGenerator::new(config, NamedDistribution::Unif100.build());
    generator.generate(&mut StdRng::seed_from_u64(seed))
}

/// Same seed + same churn schedule ⇒ bit-identical `SimReport`, including across an
/// overlay hot-swap performed by the repair controller (the session RNG is owned by the
/// session and never re-seeded on swap).
#[test]
fn adaptive_runs_are_bit_identical_across_repeats() {
    let instance = random_instance(20, 0.7, 91);
    let solution = AcyclicGuardedSolver::default().solve(&instance);
    let nominal = solution.throughput;
    let victim = solution.scheme.busiest_receiver().unwrap();
    let config = SimConfig {
        num_chunks: 200,
        max_rounds: 20_000,
        seed: 0xC0FFEE,
        ..SimConfig::default()
    }
    .scaled_to(nominal, 2.0);
    let half_time = 0.5 * 200.0 * config.chunk_size / nominal;
    let churn = ChurnSchedule::departures_at(half_time, &[victim]);
    let run = || {
        let mut controller =
            RepairController::new(instance.clone(), solution.scheme.clone(), nominal, 0.9);
        run_adaptive(
            Overlay::from_scheme(&solution.scheme),
            config,
            &churn,
            &mut controller,
            nominal,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first.report, second.report);
    assert_eq!(first.swaps, second.swaps);
    // The swap really happened (otherwise this test degenerates to the frozen case).
    assert!(first.swaps.iter().any(|s| s.swapped));
    // And the static-policy run under the same seed/trace differs — the swap is real.
    let static_run = run_adaptive(
        Overlay::from_scheme(&solution.scheme),
        config,
        &churn,
        &mut StaticPolicy,
        nominal,
    );
    assert_ne!(first.report, static_run.report);
}

/// The repaired session's delivered rate (measured *after* the hot-swap) recovers to
/// within chunk-granularity tolerance of the static prediction for the repaired overlay
/// (`churn::residual_throughput` of the repaired scheme with nobody departed = its
/// nominal throughput).
#[test]
fn repaired_delivery_matches_the_static_prediction() {
    let instance = random_instance(25, 0.7, 47);
    let solution = AcyclicGuardedSolver::default().solve(&instance);
    let nominal = solution.throughput;
    let victim = solution.scheme.busiest_receiver().unwrap();
    let config = SimConfig {
        num_chunks: 400,
        max_rounds: 40_000,
        ..SimConfig::default()
    }
    .scaled_to(nominal, 2.0);
    let half_time = 0.5 * 400.0 * config.chunk_size / nominal;
    let churn = ChurnSchedule::departures_at(half_time, &[victim]);

    let mut controller =
        RepairController::new(instance.clone(), solution.scheme.clone(), nominal, 0.9);
    let outcome = run_adaptive(
        Overlay::from_scheme(&solution.scheme),
        config,
        &churn,
        &mut controller,
        nominal,
    );
    let swap = outcome
        .swaps
        .iter()
        .find(|s| s.swapped)
        .expect("the busiest relay's departure must trigger a repair");
    let predicted = swap
        .repaired_nominal
        .expect("a swap carries its repaired nominal");
    // Static consistency: repairing means re-solving, and the repaired scheme restricted
    // to nobody-departed is its own nominal throughput.
    assert!(predicted > 0.0);

    // Dynamic check: every survivor completed, and the slowest survivor's achieved rate
    // recovers to within chunk-granularity tolerance of the static prediction (the run
    // streamed at `nominal` before the swap and at `predicted` after it, so the
    // whole-run rate is bounded below by a discounted `min` of the two).
    assert!(
        outcome
            .survivors
            .iter()
            .all(|&node| outcome.report.completion_time[node].is_some()),
        "survivors starved on the repaired overlay"
    );
    let message = config.num_chunks as f64 * config.chunk_size;
    let worst_rate = outcome
        .survivors
        .iter()
        .map(|&node| message / outcome.report.completion_time[node].unwrap())
        .fold(f64::INFINITY, f64::min);
    let floor = predicted.min(nominal);
    assert!(
        worst_rate > 0.5 * floor,
        "worst achieved rate {worst_rate} vs static prediction {floor} for the repaired overlay"
    );
    assert!(
        worst_rate <= nominal * 1.05,
        "the simulation cannot beat the fluid optimum"
    );

    // Cross-check with the frozen-overlay prediction: the static residual explains why
    // the swap fired in the first place.
    let residual = residual_throughput(&solution.scheme, &[victim], &mut EvalCtx::new());
    assert!(residual < 0.9 * nominal);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hot-swapping an overlay with the *identical* edge list mid-run is a no-op for
    /// every metric, at any swap round, for any seed.
    #[test]
    fn identical_hot_swap_is_a_metrics_noop(seed in 0u64..1_000, swap_round in 1usize..120) {
        let instance = random_instance(12, 0.7, 7);
        let solution = AcyclicGuardedSolver::default().solve(&instance);
        let config = SimConfig {
            num_chunks: 60,
            seed,
            max_rounds: 5_000,
            ..SimConfig::default()
        }
        .scaled_to(solution.throughput, 2.0);
        let overlay = Overlay::from_scheme(&solution.scheme);
        let mut swapped = Session::new(overlay.clone(), config);
        let mut plain = Session::new(overlay.clone(), config);
        for round in 0..config.max_rounds {
            if round == swap_round {
                swapped.hot_swap(overlay.clone());
            }
            let a = swapped.step();
            let b = plain.step();
            prop_assert_eq!(a, b);
            if swapped.is_complete() && plain.is_complete() {
                break;
            }
        }
        prop_assert_eq!(swapped.report(), plain.report());
        prop_assert_eq!(swapped.swaps(), if swap_round < swapped.rounds_run() { 1 } else { 0 });
    }
}
