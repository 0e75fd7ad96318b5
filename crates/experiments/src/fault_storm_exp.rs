//! Fault-storm survival sweep: the hardened repair pipeline under scripted failures.
//!
//! [`crate::sim_churn_exp`] measures what the repair controller buys under clean churn.
//! This sweep measures what it *survives*: every trial installs a seeded
//! [`bmp_sim::FaultPlan`] storm — injected solver failures, a forced verification
//! failure, a degradation-probe timeout, an armed flow-worker panic — on the
//! controller's evaluation context, merges a seeded churn storm (depart/rejoin waves at
//! named instants) into the load-bearing departure trace, and runs the session engine
//! twice under the same seed: the static baseline and the hardened controller
//! (retry/backoff budget, registry fallback chain, graceful degradation).
//!
//! The emitted telemetry is about *survival and recovery*, not just goodput: how many
//! repaired sessions delivered the full message to every survivor, how many ended in
//! the degraded terminal state, how many faults actually fired, how many solve attempts
//! the retry/fallback machinery consumed, and how fast the data plane recovered after
//! each hot-swap. Each trial's storm is seeded by the trial seed, so a sweep replays
//! exactly.

use crate::csvout::{telemetry_cells, telemetry_sum, CsvTable, TELEMETRY_COLUMNS};
use crate::parallel::parallel_map_with;
use crate::stats::Summary;
use bmp_core::solver::{AcyclicGuardedAlgorithm, EvalCtx, SolveRecorder, Solver, Telemetry};
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_sim::{
    merge_schedules, run_adaptive, ChurnSchedule, FaultPlan, Overlay, RepairController, SimConfig,
    StaticPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one (instance, fault storm) trial: the same trace simulated twice.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStormTrial {
    /// Number of receivers of the platform.
    pub receivers: usize,
    /// Nominal throughput of the solved overlay.
    pub nominal: f64,
    /// Delivered goodput of the static run, as a fraction of nominal.
    pub static_ratio: f64,
    /// Delivered goodput of the repaired (faulted) run, as a fraction of nominal.
    pub repaired_ratio: f64,
    /// Whether every surviving receiver of the repaired run completed the broadcast.
    pub survived: bool,
    /// Whether the controller ended the run in the graceful-degradation state.
    pub degraded: bool,
    /// Injected faults that actually fired during the repaired run.
    pub faults_fired: u64,
    /// Solve attempts the retry/backoff + fallback machinery consumed.
    pub repair_attempts: u32,
    /// Time from the last hot-swap to the first starvation-free round.
    pub recovery_time: Option<f64>,
    /// Evaluation cost: the solve plus the controller's probes and repairs.
    pub telemetry: Telemetry,
}

/// Aggregate over the trials of one platform size.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStormCell {
    /// Number of receivers.
    pub receivers: usize,
    /// Trials that contributed (solvable instance, load-bearing victim).
    pub trials: usize,
    /// Trials whose repaired run delivered the full message to every survivor.
    pub survived: usize,
    /// Trials that ended in the graceful-degradation terminal state.
    pub degraded: usize,
    /// Summary of the static goodput ratios.
    pub static_ratio: Summary,
    /// Summary of the repaired goodput ratios.
    pub repaired_ratio: Summary,
    /// Summary of `repaired − static` goodput-ratio gains.
    pub gain: Summary,
    /// Summary of the recovery times (trials that recovered).
    pub recovery: Option<Summary>,
    /// Total injected faults fired across the cell.
    pub faults_fired: u64,
    /// Total solve attempts consumed by retries and fallbacks across the cell.
    pub repair_attempts: u64,
    /// Total evaluation cost of the cell.
    pub telemetry: Telemetry,
}

/// Full report of the fault-storm survival sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStormReport {
    /// One cell per platform size.
    pub cells: Vec<FaultStormCell>,
}

impl FaultStormReport {
    /// Renders the report as CSV with the shared telemetry columns appended.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let header: Vec<&str> = [
            "receivers",
            "trials",
            "survived",
            "degraded",
            "static_goodput_mean",
            "repaired_goodput_mean",
            "gain_mean",
            "gain_min",
            "recovery_mean",
            "recovery_max",
            "faults_fired",
            "repair_attempts",
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
            let mut row = vec![
                cell.receivers.to_string(),
                cell.trials.to_string(),
                cell.survived.to_string(),
                cell.degraded.to_string(),
                format!("{:.6}", cell.static_ratio.mean),
                format!("{:.6}", cell.repaired_ratio.mean),
                format!("{:.6}", cell.gain.mean),
                format!("{:.6}", cell.gain.min),
                recovery_mean,
                recovery_max,
                cell.faults_fired.to_string(),
                cell.repair_attempts.to_string(),
            ];
            row.extend(telemetry_cells(&cell.telemetry));
            table.push_row(row);
        }
        table
    }
}

/// Floor fraction below which the controller repairs (same bar as the clean churn
/// sweep, so the two reports compare directly).
const FLOOR_FRACTION: f64 = 0.9;

fn run_trial(
    ctx: &mut EvalCtx,
    receivers: usize,
    num_chunks: usize,
    seed: u64,
) -> Option<FaultStormTrial> {
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

    // The storm: seeded per trial. The churn trace is the load-bearing departure of the
    // clean sweep plus the plan's seeded depart/rejoin waves.
    let plan = FaultPlan::storm(seed);
    let sim_config = SimConfig {
        num_chunks,
        max_rounds: 40_000,
        seed,
        ..SimConfig::default()
    }
    .scaled_to(nominal, 2.0);
    let half_time = 0.5 * num_chunks as f64 * sim_config.chunk_size / nominal;
    let storm_churn = plan.churn_storm(
        instance.num_nodes(),
        1.2 * half_time,
        (0.15 * half_time).max(sim_config.round_duration),
        2,
    );
    let churn = merge_schedules(
        &ChurnSchedule::departures_at(half_time, &[victim]),
        &storm_churn,
    );

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
    // Fanned-out evaluation gives the armed worker panic a helper to land in;
    // containment recomputes the exact value, so the trial stays deterministic.
    controller.set_parallelism(2);
    plan.install(controller.ctx_mut());
    let repaired_run = run_adaptive(overlay, sim_config, &churn, &mut controller, nominal);

    let faults_fired = controller
        .ctx()
        .injected_faults()
        .map_or(0, bmp_core::InjectedFaults::fired);
    let repair_attempts = controller.decisions().iter().map(|d| d.attempts).sum();
    let survived = repaired_run
        .survivors
        .iter()
        .all(|&node| repaired_run.report.completion_time[node].is_some());
    let mut telemetry = recorder.telemetry(ctx);
    let controller_ctx = controller.ctx();
    telemetry.flow_solves += controller_ctx.flow_solves();
    telemetry.bisection_iters += controller_ctx.bisection_iters();
    Some(FaultStormTrial {
        receivers,
        nominal,
        static_ratio: static_run.goodput_vs_nominal(),
        repaired_ratio: repaired_run.goodput_vs_nominal(),
        survived,
        degraded: controller.is_degraded(),
        faults_fired,
        repair_attempts,
        recovery_time: repaired_run.recovery_time(),
        telemetry,
    })
}

/// Runs the sweep. `quick` uses fewer trials, smaller platforms and shorter messages.
#[must_use]
pub fn run(quick: bool, threads: usize) -> FaultStormReport {
    let sizes: &[usize] = if quick { &[12, 24] } else { &[20, 50, 100] };
    let trials = if quick { 5 } else { 30 };
    let num_chunks = if quick { 120 } else { 300 };
    let mut cells = Vec::new();
    for &receivers in sizes {
        let seeds: Vec<u64> = (0..trials)
            .map(|t| t as u64 * 7919 + receivers as u64)
            .collect();
        let results: Vec<FaultStormTrial> =
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
        if let (Some(static_ratio), Some(repaired_ratio), Some(gain)) = (
            Summary::of(&static_ratio),
            Summary::of(&repaired_ratio),
            Summary::of(&gain),
        ) {
            cells.push(FaultStormCell {
                receivers,
                trials: results.len(),
                survived: results.iter().filter(|t| t.survived).count(),
                degraded: results.iter().filter(|t| t.degraded).count(),
                static_ratio,
                repaired_ratio,
                gain,
                recovery: Summary::of(&recovery),
                faults_fired: results.iter().map(|t| t.faults_fired).sum(),
                repair_attempts: results.iter().map(|t| u64::from(t.repair_attempts)).sum(),
                telemetry: telemetry_sum(results.iter().map(|t| &t.telemetry)),
            });
        }
    }
    // Storm plans arm one worker panic per trial; panics that never found a fanned-out
    // evaluation to land in must not leak into whatever runs next in this process.
    bmp_flow::disarm_worker_panics();
    FaultStormReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_survives_the_storm_and_beats_static() {
        let report = run(true, 2);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.trials > 0, "{cell:?}");
            // Survival: the hardened pipeline keeps delivering through injected solver
            // failures, probe timeouts and worker panics.
            assert!(
                cell.survived > 0,
                "no repaired session survived the storm at n = {}",
                cell.receivers
            );
            assert!(
                cell.repaired_ratio.mean > cell.static_ratio.mean,
                "repair {} does not beat static {} under the storm at n = {}",
                cell.repaired_ratio.mean,
                cell.static_ratio.mean,
                cell.receivers
            );
            // The storm actually happened: faults fired and the retry/fallback
            // machinery consumed attempts beyond one-per-decision.
            assert!(cell.faults_fired > 0, "{cell:?}");
            assert!(cell.repair_attempts as usize > cell.trials, "{cell:?}");
            // Every session overlay is acyclic, so the cut certified every evaluation.
            assert!(cell.telemetry.cut_certifications > 0, "{cell:?}");
            assert_eq!(cell.telemetry.flow_solves, 0, "{cell:?}");
        }
    }

    #[test]
    fn csv_has_one_row_per_cell_with_survival_columns() {
        let report = run(true, 2);
        let csv = report.to_csv().to_csv_string();
        assert_eq!(csv.lines().count(), report.cells.len() + 1);
        let header = csv.lines().next().unwrap();
        assert!(header.starts_with("receivers,trials,survived,degraded"));
        for column in ["faults_fired", "repair_attempts", "recovery_mean"] {
            assert!(header.contains(column), "missing column {column}: {header}");
        }
        for column in TELEMETRY_COLUMNS {
            assert!(header.contains(column), "missing column {column}: {header}");
        }
    }
}
