//! Repair-vs-static churn *simulation* sweep: the closed-loop counterpart of
//! [`crate::churn_exp`].
//!
//! The static churn experiment predicts, by max-flow analysis, how much throughput a
//! frozen overlay loses when a node departs and how much a re-solve recovers. This sweep
//! checks the prediction *dynamically*: for every trial it runs the chunk-level session
//! engine twice under the **same seed and churn trace** — once with the static baseline
//! ([`bmp_sim::StaticPolicy`], the paper's control plane) and once with the adaptive
//! controller ([`bmp_sim::RepairController`], re-solve + mid-broadcast
//! hot-swap) — and compares *delivered* goodput against the nominal throughput, along
//! with the post-churn recovery time of the repaired run.
//!
//! The controller's evaluation cost (degradation probes and residual evaluations on
//! its one reused arena) is aggregated into the shared
//! telemetry CSV columns next to the results.

use crate::csvout::{telemetry_cells, telemetry_sum, CsvTable, TELEMETRY_COLUMNS};
use crate::parallel::parallel_map_with;
use crate::stats::Summary;
use bmp_core::solver::{AcyclicGuardedAlgorithm, EvalCtx, SolveRecorder, Solver, Telemetry};
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_platform::NodeId;
use bmp_sim::{
    run_adaptive, AdaptDecision, AdaptationPolicy, ChurnSchedule, Overlay, RepairController,
    SimConfig, StaticPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Wraps a policy and measures the wall-clock latency of every `adapt` call — the
/// end-to-end cost of one repair decision (degradation probe, re-solve,
/// overlay extraction). The timings feed the `repair_ms_*` CSV columns only; they
/// never enter a deterministic report or any simulated-time metric.
struct TimedPolicy<'a, P: AdaptationPolicy> {
    inner: &'a mut P,
    latencies_ms: Vec<f64>,
}

impl<'a, P: AdaptationPolicy> TimedPolicy<'a, P> {
    fn new(inner: &'a mut P) -> Self {
        TimedPolicy {
            inner,
            latencies_ms: Vec::new(),
        }
    }
}

impl<P: AdaptationPolicy> AdaptationPolicy for TimedPolicy<'_, P> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn adapt(&mut self, departed: &[NodeId], time: f64) -> Option<AdaptDecision> {
        let start = std::time::Instant::now();
        let decision = self.inner.adapt(departed, time);
        self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        decision
    }

    fn degraded_floor(&self) -> Option<f64> {
        self.inner.degraded_floor()
    }
}

/// Result of one (instance, churn trace) trial: the same trace simulated twice.
#[derive(Debug, Clone, PartialEq)]
pub struct SimChurnTrial {
    /// Number of receivers of the platform.
    pub receivers: usize,
    /// Nominal throughput of the solved overlay.
    pub nominal: f64,
    /// Static residual prediction of the frozen overlay (controller diagnostics).
    pub residual_prediction: f64,
    /// Nominal throughput of the repaired overlay the controller swapped in.
    pub repaired_nominal: f64,
    /// Delivered goodput of the static run, as a fraction of nominal.
    pub static_ratio: f64,
    /// Delivered goodput of the repaired run, as a fraction of nominal.
    pub repaired_ratio: f64,
    /// Time from the hot-swap to the first starvation-free round.
    pub recovery_time: Option<f64>,
    /// Wall-clock latency of each repair decision in the adaptive run, in
    /// milliseconds (one entry per `adapt` call).
    pub repair_ms: Vec<f64>,
    /// Evaluation cost: the solve plus the controller's probes.
    pub telemetry: Telemetry,
}

/// Aggregate over the trials of one platform size.
#[derive(Debug, Clone, PartialEq)]
pub struct SimChurnCell {
    /// Number of receivers.
    pub receivers: usize,
    /// Trials that contributed (solvable instance, load-bearing victim).
    pub trials: usize,
    /// Summary of the static goodput ratios.
    pub static_ratio: Summary,
    /// Summary of the repaired goodput ratios.
    pub repaired_ratio: Summary,
    /// Summary of `repaired − static` goodput-ratio gains.
    pub gain: Summary,
    /// Summary of the recovery times (trials that recovered).
    pub recovery: Option<Summary>,
    /// Summary of per-decision repair latencies (wall-clock milliseconds) across
    /// the cell's adaptive runs.
    pub repair_ms: Option<Summary>,
    /// Total evaluation cost of the cell.
    pub telemetry: Telemetry,
}

/// Full report of the repair-vs-static simulation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SimChurnReport {
    /// One cell per platform size.
    pub cells: Vec<SimChurnCell>,
}

impl SimChurnReport {
    /// Renders the report as CSV with the shared telemetry columns appended.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let header: Vec<&str> = [
            "receivers",
            "trials",
            "static_goodput_mean",
            "static_goodput_median",
            "repaired_goodput_mean",
            "repaired_goodput_median",
            "gain_mean",
            "gain_min",
            "recovery_mean",
            "recovery_max",
            "repair_ms_mean",
            "repair_ms_max",
        ]
        .into_iter()
        .chain(TELEMETRY_COLUMNS)
        .collect();
        let mut table = CsvTable::new(&header);
        for cell in &self.cells {
            let (recovery_mean, recovery_max) = match &cell.recovery {
                Some(summary) => (
                    format!("{:.4}", summary.mean),
                    format!("{:.4}", summary.max),
                ),
                None => ("n/a".to_string(), "n/a".to_string()),
            };
            let (repair_mean, repair_max) = match &cell.repair_ms {
                Some(summary) => (
                    format!("{:.3}", summary.mean),
                    format!("{:.3}", summary.max),
                ),
                None => ("n/a".to_string(), "n/a".to_string()),
            };
            let mut row = vec![
                cell.receivers.to_string(),
                cell.trials.to_string(),
                format!("{:.6}", cell.static_ratio.mean),
                format!("{:.6}", cell.static_ratio.median),
                format!("{:.6}", cell.repaired_ratio.mean),
                format!("{:.6}", cell.repaired_ratio.median),
                format!("{:.6}", cell.gain.mean),
                format!("{:.6}", cell.gain.min),
                recovery_mean,
                recovery_max,
                repair_mean,
                repair_max,
            ];
            row.extend(telemetry_cells(&cell.telemetry));
            table.push_row(row);
        }
        table
    }
}

/// Floor fraction below which the controller repairs: chosen high so that any
/// load-bearing departure triggers a swap, matching the 0.9 floor of the static
/// churn experiment's degradation probes.
const FLOOR_FRACTION: f64 = 0.9;

fn run_trial(
    ctx: &mut EvalCtx,
    receivers: usize,
    num_chunks: usize,
    seed: u64,
) -> Option<SimChurnTrial> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = GeneratorConfig::new(receivers, 0.7).ok()?;
    let generator = InstanceGenerator::new(config, NamedDistribution::Unif100.build());
    let instance = generator.generate(&mut rng);
    let recorder = SolveRecorder::start(ctx);
    let solution = AcyclicGuardedAlgorithm.solve(&instance, ctx).ok()?;
    if solution.throughput <= 1e-9 {
        return None;
    }
    let nominal = solution.throughput;
    let victim = solution.scheme.busiest_receiver()?;
    let overlay = Overlay::from_scheme(&solution.scheme);

    // The busiest relay departs mid-broadcast; both runs replay the same seed + trace.
    let sim_config = SimConfig {
        num_chunks,
        max_rounds: 40_000,
        seed,
        ..SimConfig::default()
    }
    .scaled_to(nominal, 2.0);
    let half_time = 0.5 * num_chunks as f64 * sim_config.chunk_size / nominal;
    let churn = ChurnSchedule::departures_at(half_time, &[victim]);

    let static_run = run_adaptive(
        overlay.clone(),
        sim_config,
        &churn,
        &mut StaticPolicy,
        nominal,
    );
    let mut controller = RepairController::new(
        instance.clone(),
        solution.scheme.clone(),
        nominal,
        FLOOR_FRACTION,
    );
    let mut timed = TimedPolicy::new(&mut controller);
    let repaired_run = run_adaptive(overlay, sim_config, &churn, &mut timed, nominal);
    let repair_ms = timed.latencies_ms;

    let decision = controller.decisions().first()?;
    let residual_prediction = decision.residual;
    let repaired_nominal = decision.repaired.unwrap_or(nominal);
    let mut telemetry = recorder.telemetry(ctx);
    let controller_ctx = controller.ctx();
    telemetry.flow_solves += controller_ctx.flow_solves();
    telemetry.bisection_iters += controller_ctx.bisection_iters();
    Some(SimChurnTrial {
        receivers,
        nominal,
        residual_prediction,
        repaired_nominal,
        static_ratio: static_run.goodput_vs_nominal(),
        repaired_ratio: repaired_run.goodput_vs_nominal(),
        recovery_time: repaired_run.recovery_time(),
        repair_ms,
        telemetry,
    })
}

/// Runs the sweep. `quick` uses fewer trials, smaller platforms and shorter messages.
#[must_use]
pub fn run(quick: bool, threads: usize) -> SimChurnReport {
    let sizes: &[usize] = if quick { &[15, 30] } else { &[20, 50, 100] };
    let trials = if quick { 6 } else { 40 };
    let num_chunks = if quick { 150 } else { 400 };
    let mut cells = Vec::new();
    for &receivers in sizes {
        let seeds: Vec<u64> = (0..trials)
            .map(|t| t as u64 * 6151 + receivers as u64)
            .collect();
        let results: Vec<SimChurnTrial> =
            parallel_map_with(&seeds, threads, EvalCtx::new, |ctx, &seed| {
                run_trial(ctx, receivers, num_chunks, seed)
            })
            .into_iter()
            .flatten()
            .collect();
        let static_ratio: Vec<f64> = results.iter().map(|t| t.static_ratio).collect();
        let repaired_ratio: Vec<f64> = results.iter().map(|t| t.repaired_ratio).collect();
        let gain: Vec<f64> = results
            .iter()
            .map(|t| t.repaired_ratio - t.static_ratio)
            .collect();
        let recovery: Vec<f64> = results.iter().filter_map(|t| t.recovery_time).collect();
        let repair_ms: Vec<f64> = results
            .iter()
            .flat_map(|t| t.repair_ms.iter().copied())
            .collect();
        if let (Some(static_ratio), Some(repaired_ratio), Some(gain)) = (
            Summary::of(&static_ratio),
            Summary::of(&repaired_ratio),
            Summary::of(&gain),
        ) {
            cells.push(SimChurnCell {
                receivers,
                trials: results.len(),
                static_ratio,
                repaired_ratio,
                gain,
                recovery: Summary::of(&recovery),
                repair_ms: Summary::of(&repair_ms),
                telemetry: telemetry_sum(results.iter().map(|t| &t.telemetry)),
            });
        }
    }
    SimChurnReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_repair_beating_static_on_delivered_goodput() {
        let report = run(true, 2);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.trials > 0, "{cell:?}");
            // The acceptance bar: under the same seed and churn trace, the repaired
            // session delivers strictly more than the frozen overlay on average…
            assert!(
                cell.repaired_ratio.mean > cell.static_ratio.mean,
                "repair {} does not beat static {} at n = {}",
                cell.repaired_ratio.mean,
                cell.static_ratio.mean,
                cell.receivers
            );
            // …and the goodput ratios are sane fractions of nominal.
            assert!(cell.static_ratio.min >= 0.0);
            assert!(cell.repaired_ratio.max <= 1.5, "{cell:?}");
            // Every session overlay is acyclic, so the cut certified every evaluation.
            assert!(cell.telemetry.cut_certifications > 0, "{cell:?}");
            assert_eq!(cell.telemetry.flow_solves, 0, "{cell:?}");
            assert!(cell.telemetry.bisection_iters > 0);
            // Every cell repaired at least once, so repair latencies were measured
            // (wall-clock, strictly positive).
            let repair_ms = cell.repair_ms.as_ref().expect("repairs were timed");
            assert!(repair_ms.mean > 0.0, "{cell:?}");
        }
    }

    #[test]
    fn csv_has_one_row_per_cell_with_telemetry_columns() {
        let report = run(true, 2);
        let csv = report.to_csv().to_csv_string();
        assert_eq!(csv.lines().count(), report.cells.len() + 1);
        let header = csv.lines().next().unwrap();
        assert!(header.starts_with("receivers,trials,static_goodput_mean"));
        for column in TELEMETRY_COLUMNS {
            assert!(header.contains(column), "missing column {column}: {header}");
        }
        assert!(header.contains("recovery_mean"));
        assert!(header.contains("repair_ms_mean"));
        assert!(header.contains("repair_ms_max"));
    }
}
