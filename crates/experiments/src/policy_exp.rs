//! Chunk-policy extension experiment: how the data plane's chunk-selection policy affects the
//! delivered rate on the overlays computed by the paper's algorithms.
//!
//! Massoulié et al. prove the *random useful chunk* policy optimal in the fluid limit; this
//! experiment measures, at chunk granularity, the fraction of the nominal overlay throughput
//! that each policy actually delivers (worst receiver, file broadcast), over random platforms
//! generated with the Figure 19 protocol.

use crate::csvout::CsvTable;
use crate::parallel::parallel_map;
use crate::stats::Summary;
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_sim::{run_adaptive, ChunkPolicy, ChurnSchedule, Overlay, SimConfig, StaticPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregated results for one (policy, platform size) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyCell {
    /// Chunk-selection policy.
    pub policy: ChunkPolicy,
    /// Number of receivers.
    pub receivers: usize,
    /// Summary of `worst achieved rate / nominal throughput` over the trials.
    pub rate_fraction: Summary,
    /// Fraction of trials in which every receiver completed within the horizon.
    pub completion_fraction: f64,
}

/// Full report of the policy experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// One cell per (policy, size) pair.
    pub cells: Vec<PolicyCell>,
}

impl PolicyReport {
    /// Renders the report as CSV.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new(&[
            "policy",
            "receivers",
            "rate_fraction_mean",
            "rate_fraction_median",
            "rate_fraction_p05",
            "completion_fraction",
        ]);
        for cell in &self.cells {
            table.push_row(vec![
                cell.policy.label().to_string(),
                cell.receivers.to_string(),
                format!("{:.4}", cell.rate_fraction.mean),
                format!("{:.4}", cell.rate_fraction.median),
                format!("{:.4}", cell.rate_fraction.p05),
                format!("{:.4}", cell.completion_fraction),
            ]);
        }
        table
    }
}

/// One simulation trial: returns `(worst rate / nominal, completed)`.
fn run_trial(receivers: usize, policy: ChunkPolicy, seed: u64) -> Option<(f64, bool)> {
    let config = GeneratorConfig::new(receivers, 0.7).ok()?;
    let generator = InstanceGenerator::new(config, NamedDistribution::Unif100.build());
    let instance = generator.generate(&mut StdRng::seed_from_u64(seed));
    let solution = AcyclicGuardedSolver::default().solve(&instance);
    if solution.throughput <= 1e-9 {
        return None;
    }
    let sim_config = SimConfig {
        num_chunks: 200,
        max_rounds: 20_000,
        policy,
        seed,
        ..SimConfig::default()
    }
    .scaled_to(solution.throughput, 2.0);
    let report = run_adaptive(
        Overlay::from_scheme(&solution.scheme),
        sim_config,
        &ChurnSchedule::empty(),
        &mut StaticPolicy,
        solution.throughput,
    )
    .report;
    match report.min_achieved_rate() {
        Some(rate) => Some((rate / solution.throughput, true)),
        // A starved run counts as rate 0 (its partial progress is reflected by the
        // completion_fraction column, not by the rate summary).
        None => Some((0.0, false)),
    }
}

/// Runs the policy experiment. `quick` uses fewer trials and smaller platforms.
#[must_use]
pub fn run(quick: bool, threads: usize) -> PolicyReport {
    let sizes: &[usize] = if quick { &[15] } else { &[15, 50, 150] };
    let trials = if quick { 8 } else { 50 };
    let mut cells = Vec::new();
    for &receivers in sizes {
        for policy in ChunkPolicy::all() {
            let seeds: Vec<u64> = (0..trials)
                .map(|t| t as u64 * 4099 + receivers as u64)
                .collect();
            let results: Vec<(f64, bool)> =
                parallel_map(&seeds, threads, |&seed| run_trial(receivers, policy, seed))
                    .into_iter()
                    .flatten()
                    .collect();
            if results.is_empty() {
                continue;
            }
            let fractions: Vec<f64> = results.iter().map(|&(f, _)| f).collect();
            let completed = results.iter().filter(|&&(_, done)| done).count();
            cells.push(PolicyCell {
                policy,
                receivers,
                rate_fraction: Summary::of(&fractions).expect("non-empty"),
                completion_fraction: completed as f64 / results.len() as f64,
            });
        }
    }
    PolicyReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_every_policy() {
        let report = run(true, 2);
        assert_eq!(report.cells.len(), ChunkPolicy::all().len());
        for cell in &report.cells {
            // Every policy pushes some useful chunk whenever one exists, so the delivered rate
            // stays within a constant factor of the nominal rate and everyone completes.
            assert!(
                cell.completion_fraction > 0.9,
                "{}: completion {}",
                cell.policy.label(),
                cell.completion_fraction
            );
            assert!(
                cell.rate_fraction.mean > 0.5,
                "{}: mean fraction {}",
                cell.policy.label(),
                cell.rate_fraction.mean
            );
            assert!(cell.rate_fraction.max <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn csv_rendering_lists_every_cell() {
        let report = run(true, 1);
        let csv = report.to_csv().to_csv_string();
        assert_eq!(csv.lines().count(), report.cells.len() + 1);
        assert!(csv.contains("random-useful"));
        assert!(csv.contains("rarest-first"));
    }
}
