//! Depth / delay extension experiment.
//!
//! The conclusion of the paper lists "optimizing the depth of produced schemes in order to
//! minimize delays" as future work. This experiment measures the depth profile (overlay hops
//! from the source) of three families of schemes on random platforms:
//!
//! * the optimal-throughput acyclic scheme found by Algorithm 2 + dichotomic search,
//! * the scheme built from the best regular ω-word (ω1/ω2),
//! * the same ω-word scheme throttled to 95% of its throughput (showing that giving up a
//!   little rate buys shallower, lower-delay overlays).
//!
//! Together with the broadcast-tree decomposition (`bmp-trees`) this quantifies the
//! throughput-versus-delay trade-off left open by the paper.

use crate::csvout::CsvTable;
use crate::parallel::parallel_map_with;
use crate::stats::{mean, Summary};
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::depth::depth_profile;
use bmp_core::omega::{best_omega_throughput, omega_word, OmegaChoice};
use bmp_core::solver::EvalCtx;
use bmp_core::word::optimal_throughput_for_word;
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Depth measurements of one scheme family on one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthMeasurement {
    /// Throughput of the scheme (absolute).
    pub throughput: f64,
    /// Largest hop distance from the source to a receiver.
    pub max_hops: usize,
    /// Mean hop distance over the receivers.
    pub mean_hops: f64,
}

/// One trial: the three scheme families measured on the same instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthTrial {
    /// Number of receivers.
    pub receivers: usize,
    /// Optimal acyclic scheme.
    pub optimal: DepthMeasurement,
    /// Best regular ω-word scheme at its full throughput.
    pub omega: DepthMeasurement,
    /// Best regular ω-word scheme throttled to 95% of its throughput.
    pub omega_throttled: DepthMeasurement,
}

/// Aggregated cell of the report (one platform size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCell {
    /// Number of receivers.
    pub receivers: usize,
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean of the maximum hop count, per scheme family.
    pub optimal_max_hops: f64,
    /// Mean of the maximum hop count for the ω scheme.
    pub omega_max_hops: f64,
    /// Mean of the maximum hop count for the throttled ω scheme.
    pub throttled_max_hops: f64,
    /// Mean ratio `ω throughput / optimal throughput`.
    pub omega_throughput_ratio: f64,
    /// Summary of the optimal scheme's mean hop distance.
    pub optimal_mean_hops: Summary,
}

/// Full report of the depth experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthReport {
    /// One cell per platform size.
    pub cells: Vec<DepthCell>,
}

impl DepthReport {
    /// Renders the report as CSV.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new(&[
            "receivers",
            "trials",
            "optimal_max_hops",
            "omega_max_hops",
            "throttled_max_hops",
            "omega_throughput_ratio",
            "optimal_mean_hops_median",
        ]);
        for cell in &self.cells {
            table.push_row(vec![
                cell.receivers.to_string(),
                cell.trials.to_string(),
                format!("{:.3}", cell.optimal_max_hops),
                format!("{:.3}", cell.omega_max_hops),
                format!("{:.3}", cell.throttled_max_hops),
                format!("{:.6}", cell.omega_throughput_ratio),
                format!("{:.3}", cell.optimal_mean_hops.median),
            ]);
        }
        table
    }
}

/// Measures a scheme's depth profile, after certifying through the worker's context that
/// it actually delivers its claimed throughput (every flow evaluation of the sweep goes
/// through the per-worker [`EvalCtx`]).
fn measure(
    ctx: &mut EvalCtx,
    scheme: &bmp_core::scheme::BroadcastScheme,
    throughput: f64,
) -> Option<DepthMeasurement> {
    ctx.verify(scheme, throughput)
        .expect("a solved scheme delivers its claimed throughput");
    let profile = depth_profile(scheme);
    Some(DepthMeasurement {
        throughput,
        max_hops: profile.max_hops()?,
        mean_hops: profile.mean_hops()?,
    })
}

fn run_trial(ctx: &mut EvalCtx, receivers: usize, seed: u64) -> Option<DepthTrial> {
    let config = GeneratorConfig::new(receivers, 0.7).ok()?;
    let generator = InstanceGenerator::new(config, NamedDistribution::Unif100.build());
    let instance = generator.generate(&mut StdRng::seed_from_u64(seed));
    let solver = AcyclicGuardedSolver::default();

    let solution = solver.solve(&instance);
    if solution.throughput <= 1e-9 {
        return None;
    }
    let optimal = measure(ctx, &solution.scheme, solution.throughput)?;

    let (_, choice) = best_omega_throughput(&instance, 1e-9);
    let word = omega_word(&instance, choice);
    let omega_throughput = optimal_throughput_for_word(&instance, &word, 1e-10);
    if omega_throughput <= 1e-9 {
        return None;
    }
    // Back off marginally from the word's optimum so the feasibility test is unambiguous.
    let full = omega_throughput * (1.0 - 1e-7);
    let omega_scheme = solver.scheme_for_word(&instance, full, &word).ok()?;
    let omega = measure(ctx, &omega_scheme, full)?;

    let throttled_target = omega_throughput * 0.95;
    let throttled_scheme = solver
        .scheme_for_word(&instance, throttled_target, &word)
        .ok()?;
    let omega_throttled = measure(ctx, &throttled_scheme, throttled_target)?;

    Some(DepthTrial {
        receivers,
        optimal,
        omega,
        omega_throttled,
    })
}

/// Runs the depth experiment. `quick` uses fewer trials and smaller platforms.
#[must_use]
pub fn run(quick: bool, threads: usize) -> DepthReport {
    let sizes: &[usize] = if quick {
        &[15, 40]
    } else {
        &[15, 40, 100, 300]
    };
    let trials = if quick { 15 } else { 100 };
    let mut cells = Vec::new();
    for &receivers in sizes {
        let seeds: Vec<u64> = (0..trials)
            .map(|t| t as u64 * 6151 + receivers as u64)
            .collect();
        // One EvalCtx per worker (the churn_exp convention), reused across the chunk;
        // its flow fan-out is 1 inside a parallel sweep (the outer map owns the cores)
        // and the auto heuristic when the sweep runs sequentially.
        let worker_ctx = || {
            let mut ctx = EvalCtx::new();
            ctx.set_parallelism(crate::parallel::eval_parallelism(threads));
            ctx
        };
        let results: Vec<DepthTrial> =
            parallel_map_with(&seeds, threads, worker_ctx, |ctx, &seed| {
                run_trial(ctx, receivers, seed)
            })
            .into_iter()
            .flatten()
            .collect();
        if results.is_empty() {
            continue;
        }
        let optimal_mean: Vec<f64> = results.iter().map(|t| t.optimal.mean_hops).collect();
        cells.push(DepthCell {
            receivers,
            trials: results.len(),
            optimal_max_hops: mean(
                &results
                    .iter()
                    .map(|t| t.optimal.max_hops as f64)
                    .collect::<Vec<_>>(),
            ),
            omega_max_hops: mean(
                &results
                    .iter()
                    .map(|t| t.omega.max_hops as f64)
                    .collect::<Vec<_>>(),
            ),
            throttled_max_hops: mean(
                &results
                    .iter()
                    .map(|t| t.omega_throttled.max_hops as f64)
                    .collect::<Vec<_>>(),
            ),
            omega_throughput_ratio: mean(
                &results
                    .iter()
                    .map(|t| t.omega.throughput / t.optimal.throughput)
                    .collect::<Vec<_>>(),
            ),
            optimal_mean_hops: Summary::of(&optimal_mean).expect("non-empty"),
        });
    }
    DepthReport { cells }
}

/// The ω-word choice used by the depth experiment for a given instance (exposed for tests).
#[must_use]
pub fn omega_choice_used(instance: &bmp_platform::Instance) -> OmegaChoice {
    best_omega_throughput(instance, 1e-9).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_platform::paper::figure1;

    #[test]
    fn quick_run_produces_cells_with_sane_values() {
        let report = run(true, 2);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.trials > 0);
            // Depths are at least one hop and bounded by the number of nodes.
            assert!(cell.optimal_max_hops >= 1.0);
            assert!(cell.optimal_max_hops <= cell.receivers as f64 + 1.0);
            assert!(cell.omega_max_hops >= 1.0);
            // The ω word never beats the optimum.
            assert!(cell.omega_throughput_ratio <= 1.0 + 1e-6);
            assert!(cell.omega_throughput_ratio >= 5.0 / 7.0 - 0.05);
        }
    }

    #[test]
    fn single_trial_is_consistent() {
        let mut ctx = EvalCtx::new();
        let trial = run_trial(&mut ctx, 20, 3).expect("trial runs");
        // The trial evaluates its acyclic schemes through the ctx, by their cut.
        assert!(
            ctx.cut_certifications() > 0,
            "trial must evaluate through the ctx"
        );
        assert_eq!(ctx.flow_solves(), 0, "acyclic schemes need no max-flow");
        assert_eq!(trial.receivers, 20);
        assert!(trial.omega.throughput <= trial.optimal.throughput * (1.0 + 1e-6));
        assert!(trial.omega_throttled.throughput < trial.omega.throughput);
        assert!(trial.optimal.mean_hops <= trial.optimal.max_hops as f64);
    }

    #[test]
    fn csv_rendering() {
        let report = run(true, 1);
        let csv = report.to_csv().to_csv_string();
        assert!(csv.starts_with("receivers,trials"));
        assert_eq!(csv.lines().count(), report.cells.len() + 1);
    }

    #[test]
    fn omega_choice_is_exposed() {
        // Just exercises the helper on the running example.
        let _ = omega_choice_used(&figure1());
    }
}
