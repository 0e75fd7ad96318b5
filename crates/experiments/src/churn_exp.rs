//! Churn extension experiment: how much throughput a frozen overlay loses when a node departs,
//! and how much a linear-time recomputation recovers.
//!
//! The paper's conclusion claims the overlays are "probably not resilient to churn" but that
//! the algorithms are cheap enough to re-run. This experiment quantifies both statements on
//! random platforms (Figure 19 protocol): for each instance we remove either the *busiest
//! relay* (the receiver with the largest outdegree — the adversarial case) or a *random
//! receiver*, and we report
//!
//! * `residual / nominal` — the fraction of the nominal rate that the unchanged overlay still
//!   delivers to the survivors,
//! * `repaired / reduced optimum` — how close the re-solved overlay gets to the cyclic optimum
//!   of the surviving platform (Theorem 4.1 guarantees at least 5/7).

use crate::csvout::{telemetry_cells, telemetry_sum, CsvTable, TELEMETRY_COLUMNS};
use crate::parallel::parallel_map_with;
use crate::stats::Summary;
use bmp_core::bounds::cyclic_upper_bound;
use bmp_core::churn::{degradation_tolerance, repair_with, residual_throughput};
use bmp_core::solver::{AcyclicGuardedAlgorithm, EvalCtx, SolveRecorder, Solver, Telemetry};
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which node is removed from the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepartureKind {
    /// The receiver with the largest outdegree in the computed overlay.
    BusiestRelay,
    /// A uniformly random receiver.
    RandomReceiver,
}

impl DepartureKind {
    /// Label used in CSV output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DepartureKind::BusiestRelay => "busiest-relay",
            DepartureKind::RandomReceiver => "random-receiver",
        }
    }
}

/// Result of one (instance, departure) trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnTrial {
    /// Number of receivers of the platform.
    pub receivers: usize,
    /// Departure scenario.
    pub kind: DepartureKind,
    /// Nominal acyclic throughput before the departure.
    pub nominal: f64,
    /// Throughput of the frozen overlay restricted to the survivors.
    pub residual: f64,
    /// Throughput of the re-solved overlay on the reduced platform.
    pub repaired: f64,
    /// Cyclic optimum (Lemma 5.1) of the reduced platform.
    pub reduced_optimum: f64,
    /// Dichotomic degradation tolerance of the victim before it departs: the largest
    /// fraction of its upload it can lose while the overlay still delivers 90% of the
    /// nominal rate ([`degradation_tolerance`]).
    pub degradation: f64,
    /// Evaluation cost of this trial (solve + verification + degradation probes +
    /// residual evaluation + repair solve), as counted by the worker's [`EvalCtx`].
    pub telemetry: Telemetry,
}

impl ChurnTrial {
    /// `residual / nominal` (0 when the nominal throughput is 0).
    #[must_use]
    pub fn residual_ratio(&self) -> f64 {
        if self.nominal <= 0.0 {
            0.0
        } else {
            self.residual / self.nominal
        }
    }

    /// `repaired / reduced cyclic optimum` (1 when the reduced platform is degenerate).
    #[must_use]
    pub fn repaired_ratio(&self) -> f64 {
        if self.reduced_optimum <= 0.0 {
            1.0
        } else {
            self.repaired / self.reduced_optimum
        }
    }
}

/// Aggregated report over all trials of one scenario and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnCell {
    /// Number of receivers.
    pub receivers: usize,
    /// Departure scenario.
    pub kind: DepartureKind,
    /// Summary of `residual / nominal` over the trials.
    pub residual: Summary,
    /// Summary of `repaired / reduced optimum` over the trials.
    pub repaired: Summary,
    /// Summary of the victims' degradation tolerance over the trials.
    pub degradation: Summary,
    /// Total evaluation cost of the cell's trials.
    pub telemetry: Telemetry,
}

/// Full report of the churn experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// One cell per (size, scenario) pair.
    pub cells: Vec<ChurnCell>,
}

impl ChurnReport {
    /// Renders the report as CSV, with the shared telemetry columns appended
    /// ([`TELEMETRY_COLUMNS`]) so the sweep's evaluation cost is tracked next to its
    /// results.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let header: Vec<&str> = [
            "receivers",
            "departure",
            "residual_mean",
            "residual_median",
            "residual_p05",
            "repaired_mean",
            "repaired_median",
            "repaired_min",
            "degradation_mean",
            "degradation_median",
        ]
        .into_iter()
        .chain(TELEMETRY_COLUMNS)
        .collect();
        let mut table = CsvTable::new(&header);
        for cell in &self.cells {
            let mut row = vec![
                cell.receivers.to_string(),
                cell.kind.label().to_string(),
                format!("{:.6}", cell.residual.mean),
                format!("{:.6}", cell.residual.median),
                format!("{:.6}", cell.residual.p05),
                format!("{:.6}", cell.repaired.mean),
                format!("{:.6}", cell.repaired.median),
                format!("{:.6}", cell.repaired.min),
                format!("{:.6}", cell.degradation.mean),
                format!("{:.6}", cell.degradation.median),
            ];
            row.extend(telemetry_cells(&cell.telemetry));
            table.push_row(row);
        }
        table
    }
}

fn run_trial(
    ctx: &mut EvalCtx,
    receivers: usize,
    kind: DepartureKind,
    seed: u64,
) -> Option<ChurnTrial> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = GeneratorConfig::new(receivers, 0.7).ok()?;
    let generator = InstanceGenerator::new(config, NamedDistribution::Unif100.build());
    let instance = generator.generate(&mut rng);
    let recorder = SolveRecorder::start(ctx);
    // The registry solver evaluates (and self-verifies) through the worker's context, so
    // the whole trial's flow cost lands in one telemetry record.
    let solution = AcyclicGuardedAlgorithm.solve(&instance, ctx).ok()?;
    if solution.throughput <= 1e-9 {
        return None;
    }
    let victim = match kind {
        DepartureKind::BusiestRelay => solution.scheme.busiest_receiver()?,
        DepartureKind::RandomReceiver => rng.gen_range(1..instance.num_nodes()),
    };
    // Performance-variation half of the paper's remark: how far the victim's upload can
    // degrade before the overlay misses 90% of the nominal rate. The probes rebuild the
    // worker context's arena in its own buffers.
    let degradation =
        degradation_tolerance(&solution.scheme, victim, 0.9 * solution.throughput, ctx).ok()?;
    let residual = residual_throughput(&solution.scheme, &[victim], ctx);
    let plan = repair_with(&instance, &[victim], &AcyclicGuardedAlgorithm, ctx)
        .ok()
        .flatten()?;
    Some(ChurnTrial {
        receivers,
        kind,
        nominal: solution.throughput,
        residual,
        repaired: plan.throughput,
        reduced_optimum: cyclic_upper_bound(&plan.instance),
        degradation,
        telemetry: recorder.telemetry(ctx),
    })
}

/// Runs the churn experiment. `quick` uses fewer trials and smaller platforms.
#[must_use]
pub fn run(quick: bool, threads: usize) -> ChurnReport {
    let sizes: &[usize] = if quick { &[20, 50] } else { &[20, 50, 200] };
    let trials = if quick { 20 } else { 200 };
    let mut cells = Vec::new();
    for &receivers in sizes {
        for kind in [DepartureKind::BusiestRelay, DepartureKind::RandomReceiver] {
            let seeds: Vec<u64> = (0..trials)
                .map(|t| t as u64 * 7919 + receivers as u64)
                .collect();
            // One EvalCtx per worker: the flow workspace and its arena buffers are reused
            // across that worker's whole chunk. Its flow fan-out never stacks on the
            // sweep's own (`eval_parallelism`).
            let worker_ctx = || {
                let mut ctx = EvalCtx::new();
                ctx.set_parallelism(crate::parallel::eval_parallelism(threads));
                ctx
            };
            let trials: Vec<ChurnTrial> =
                parallel_map_with(&seeds, threads, worker_ctx, |ctx, &seed| {
                    run_trial(ctx, receivers, kind, seed)
                })
                .into_iter()
                .flatten()
                .collect();
            let residual: Vec<f64> = trials.iter().map(ChurnTrial::residual_ratio).collect();
            let repaired: Vec<f64> = trials.iter().map(ChurnTrial::repaired_ratio).collect();
            let degradation: Vec<f64> = trials.iter().map(|t| t.degradation).collect();
            if let (Some(residual), Some(repaired), Some(degradation)) = (
                Summary::of(&residual),
                Summary::of(&repaired),
                Summary::of(&degradation),
            ) {
                cells.push(ChurnCell {
                    receivers,
                    kind,
                    residual,
                    repaired,
                    degradation,
                    telemetry: telemetry_sum(trials.iter().map(|t| &t.telemetry)),
                });
            }
        }
    }
    ChurnReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_every_cell() {
        let report = run(true, 2);
        assert_eq!(report.cells.len(), 4); // 2 sizes × 2 scenarios
        for cell in &report.cells {
            // The repaired overlay is the solver's optimum on the reduced platform: at least
            // 5/7 of its cyclic optimum, and never above it.
            assert!(cell.repaired.min >= 5.0 / 7.0 - 1e-6, "{cell:?}");
            assert!(cell.repaired.max <= 1.0 + 1e-6, "{cell:?}");
            // Residual throughput cannot exceed the nominal throughput.
            assert!(cell.residual.max <= 1.0 + 1e-6, "{cell:?}");
            assert!(cell.residual.min >= -1e-9);
            // Degradation tolerances are fractions, and every trial evaluated its
            // acyclic overlays by their cut, without a max-flow.
            assert!(cell.degradation.min >= -1e-9, "{cell:?}");
            assert!(cell.degradation.max <= 1.0 + 1e-9, "{cell:?}");
            assert!(cell.telemetry.cut_certifications > 0, "{cell:?}");
            assert_eq!(cell.telemetry.flow_solves, 0, "{cell:?}");
            assert!(cell.telemetry.bisection_iters > 0, "{cell:?}");
        }
    }

    #[test]
    fn busiest_relay_hurts_at_least_as_much_as_a_random_receiver_on_average() {
        let report = run(true, 2);
        for &receivers in &[20usize, 50] {
            let busiest = report
                .cells
                .iter()
                .find(|c| c.receivers == receivers && c.kind == DepartureKind::BusiestRelay)
                .unwrap();
            let random = report
                .cells
                .iter()
                .find(|c| c.receivers == receivers && c.kind == DepartureKind::RandomReceiver)
                .unwrap();
            assert!(
                busiest.residual.mean <= random.residual.mean + 0.05,
                "busiest {} vs random {}",
                busiest.residual.mean,
                random.residual.mean
            );
        }
    }

    #[test]
    fn csv_has_one_row_per_cell_with_telemetry_columns() {
        let report = run(true, 1);
        let csv = report.to_csv().to_csv_string();
        assert_eq!(csv.lines().count(), report.cells.len() + 1);
        assert!(csv.starts_with("receivers,departure"));
        let header = csv.lines().next().unwrap();
        for column in TELEMETRY_COLUMNS {
            assert!(header.contains(column), "missing column {column}: {header}");
        }
        assert!(header.contains("degradation_mean"));
        assert!(csv.contains("busiest-relay"));
        assert!(csv.contains("random-receiver"));
    }

    #[test]
    fn trial_ratios_handle_degenerate_inputs() {
        let trial = ChurnTrial {
            receivers: 5,
            kind: DepartureKind::RandomReceiver,
            nominal: 0.0,
            residual: 0.0,
            repaired: 1.0,
            reduced_optimum: 0.0,
            degradation: 1.0,
            telemetry: Telemetry::default(),
        };
        assert_eq!(trial.residual_ratio(), 0.0);
        assert_eq!(trial.repaired_ratio(), 1.0);
    }
}
