//! `fleet-steady` and `fleet-churn`: one `serve` call per operation, 256 sessions of
//! 50 receivers on 2 shards.
//!
//! The end-to-end run times `serve` through `bmp_cli::run` and checks every report.
//! The traced run adds, per pass, a bare and a traced `serve` call, `run_fleet_with` at
//! 1 shard (with a checkpoint sink that mirrors the CLI's), and a sequential
//! replay of every admitted session built and stepped exactly as the fleet's shards do,
//! with the repair controller wrapped in a timing [`AdaptationPolicy`]. Each replayed
//! session must reproduce its row of the fleet report.

use crate::trace::Trace;
use crate::util::{
    cli, fnv1a, median, ms_since, peak_rss_mb, percentile, read_output, splitmix, tail, WorkDir,
};
use crate::{Args, Outcome};
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_flow::WorkerPanicGuard;
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_platform::NodeId;
use bmp_serve::supervise::{FaultProgress, SavedSessionState};
use bmp_serve::{
    mix_seed, run_fleet_with, AdmissionPolicy, AdmissionVerdict, ChurnConfig, ChurnFeed,
    FleetCheckpoint, FleetConfig, FleetOptions, FleetReport, FleetRun, SessionFaults, SessionStats,
    SupervisionConfig,
};
use bmp_sim::{
    AdaptDecision, AdaptationPolicy, AdaptiveRun, FaultPlan, Overlay, RepairController, SimConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One fleet workload: the `serve` flags it runs with.
pub struct Shape {
    name: &'static str,
    sessions: usize,
    receivers: usize,
    chunks: usize,
    /// `--churn START:SPACING:WAVES`.
    churn: (f64, f64, usize),
    fault_plan: Option<&'static str>,
    /// `--max-sessions N --queue`.
    max_sessions: Option<usize>,
    /// `--checkpoint FILE --checkpoint-every 1`.
    checkpoint: bool,
}

/// Data-plane bound: long broadcasts, no churn, every session admitted at once.
pub const STEADY: Shape = Shape {
    name: "fleet-steady",
    sessions: 256,
    receivers: 50,
    chunks: 2000,
    churn: (0.0, 1.0, 0),
    fault_plan: None,
    max_sessions: None,
    checkpoint: false,
};

/// Control-plane bound: churn waves under the fault storm, admission in waves of 64,
/// a fleet checkpoint after every wave.
pub const CHURN: Shape = Shape {
    name: "fleet-churn",
    sessions: 256,
    receivers: 50,
    chunks: 200,
    churn: (2.0, 2.0, 6),
    fault_plan: Some("storm"),
    max_sessions: Some(64),
    checkpoint: true,
};

const SHARDS: usize = 2;
/// Set-ups per end-to-end run; the median is reported.
const SETUPS: usize = 3;
/// `serve --floor` default.
const FLOOR: f64 = 0.9;

/// The files one `serve` call writes.
struct Outputs {
    report: String,
    csv: String,
    checkpoint: String,
}

impl Outputs {
    fn new(work: &WorkDir) -> Self {
        Outputs {
            report: work.path("report.json"),
            csv: work.path("report.csv"),
            checkpoint: work.path("fleet.ckpt"),
        }
    }
}

/// The `serve` command line of `shape`.
fn serve_args(shape: &Shape, seed: u64, outputs: &Outputs) -> Vec<String> {
    let (start, spacing, waves) = shape.churn;
    let mut args: Vec<String> = [
        "serve",
        "--sessions",
        &shape.sessions.to_string(),
        "--shards",
        &SHARDS.to_string(),
        "--receivers",
        &shape.receivers.to_string(),
        "--chunks",
        &shape.chunks.to_string(),
        "--seed",
        &seed.to_string(),
        "--churn",
        &format!("{start}:{spacing}:{waves}"),
        "--report",
        &outputs.report,
        "--csv",
        &outputs.csv,
    ]
    .iter()
    .map(|arg| (*arg).to_string())
    .collect();
    if let Some(plan) = shape.fault_plan {
        args.extend(["--fault-plan".to_string(), plan.to_string()]);
    }
    if let Some(cap) = shape.max_sessions {
        args.extend([
            "--max-sessions".to_string(),
            cap.to_string(),
            "--queue".to_string(),
        ]);
    }
    if shape.checkpoint {
        args.extend([
            "--checkpoint".to_string(),
            outputs.checkpoint.clone(),
            "--checkpoint-every".to_string(),
            "1".to_string(),
        ]);
    }
    args
}

/// The [`FleetConfig`] `serve` builds from [`serve_args`], at `shards` shards.
fn fleet_config(shape: &Shape, seed: u64, shards: usize) -> FleetConfig {
    let (start, spacing, waves) = shape.churn;
    FleetConfig {
        sessions: shape.sessions,
        shards,
        receivers: shape.receivers,
        chunks: shape.chunks,
        seed,
        floor: FLOOR,
        flow_threads: 1,
        repair_algorithm: None,
        admission: AdmissionPolicy {
            max_sessions: shape.max_sessions,
            capacity: None,
            queue: shape.max_sessions.is_some(),
        },
        churn: ChurnConfig {
            start,
            spacing,
            waves,
        },
        fault_plan: shape.fault_plan.and_then(FaultPlan::parse),
        supervision: SupervisionConfig::default(),
        session_faults: SessionFaults::default(),
    }
}

/// Digests and sizes of one call's output files.
#[derive(PartialEq)]
struct Written {
    digests: Vec<u64>,
    bytes: usize,
}

/// Reads back the files of one call: report JSON, CSV and (when written) the final
/// checkpoint.
fn read_outputs(shape: &Shape, outputs: &Outputs) -> Result<(FleetReport, Written), String> {
    let mut paths = vec![&outputs.report, &outputs.csv];
    if shape.checkpoint {
        paths.push(&outputs.checkpoint);
    }
    let mut digests = Vec::new();
    let mut bytes = 0;
    let mut report_text = Vec::new();
    for path in paths {
        let data = read_output(path)?;
        digests.push(fnv1a(&data));
        bytes += data.len();
        if report_text.is_empty() {
            report_text = data;
        }
    }
    let text = String::from_utf8(report_text).map_err(|e| format!("report is not UTF-8: {e}"))?;
    let report: FleetReport =
        serde_json::from_str(&text).map_err(|e| format!("report does not parse: {e}"))?;
    Ok((report, Written { digests, bytes }))
}

/// Checks a fleet report; returns the sessions that did not complete healthy
/// (rejected, quarantined or degraded).
fn check_report(shape: &Shape, report: &FleetReport) -> Result<u64, String> {
    let metrics = &report.metrics;
    if report.sessions_submitted != shape.sessions
        || metrics.sessions_run + metrics.sessions_rejected + metrics.sessions_quarantined
            != report.sessions_submitted
        || report.sessions.len() != metrics.sessions_run
    {
        return Err(format!(
            "submitted {} != run {} + rejected {} + quarantined {}",
            report.sessions_submitted,
            metrics.sessions_run,
            metrics.sessions_rejected,
            metrics.sessions_quarantined
        ));
    }
    let goodput = metrics.mean_goodput_vs_nominal;
    if !(goodput > 0.0 && goodput <= 1.0) {
        return Err(format!("mean goodput {goodput} outside (0, 1]"));
    }
    if let Some(row) = report
        .sessions
        .iter()
        .find(|row| row.goodput.is_nan() || row.goodput <= 0.0)
    {
        return Err(format!("session {} delivered nothing", row.session));
    }
    Ok(
        (metrics.sessions_rejected + metrics.sessions_quarantined + metrics.degraded_sessions)
            as u64,
    )
}

/// One checked `serve` call: wall time in ms and the report, or `None` after a failure
/// was recorded in `outcome`.
fn checked_call(
    outcome: &mut Outcome,
    shape: &Shape,
    argv: &[String],
    outputs: &Outputs,
    reference: &Written,
    trace: Option<&mut Trace>,
) -> Result<Option<(f64, FleetReport)>, String> {
    outcome.attempted += shape.sessions as u64;
    let start = Instant::now();
    let served = match trace {
        Some(trace) => trace.span("cli.serve", 0, || cli(argv)),
        None => cli(argv),
    };
    let ms = ms_since(start);
    if let Err(message) = served {
        outcome.fail(shape.sessions as u64, message);
        return Ok(None);
    }
    let (report, written) = read_outputs(shape, outputs)?;
    if &written != reference {
        outcome.fail(
            shape.sessions as u64,
            "output digests changed between repetitions".into(),
        );
        return Ok(None);
    }
    match check_report(shape, &report) {
        Ok(unhealthy) => {
            if unhealthy > 0 {
                outcome.fail(
                    unhealthy,
                    format!("{unhealthy} sessions rejected, quarantined or degraded"),
                );
            }
            Ok(Some((ms, report)))
        }
        Err(message) => {
            outcome.fail(shape.sessions as u64, message);
            Ok(None)
        }
    }
}

fn render(written: &Written) -> String {
    written
        .digests
        .iter()
        .map(|digest| format!("{digest:016x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn run(args: &Args, shape: &Shape) -> Result<Outcome, String> {
    let work = WorkDir::create(shape.name)?;
    let outputs = Outputs::new(&work);
    let seed = splitmix(args.seed, 0xF1EE7);
    let argv = serve_args(shape, seed, &outputs);
    if args.trace {
        return traced(args, shape, seed, &argv, &outputs);
    }
    let mut outcome = Outcome::default();

    // Set-up: a warm-up call, whose outputs every measured call must reproduce.
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        cli(&argv)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let (reference_report, reference) = read_outputs(shape, &outputs)?;

    let mut call_ms = Vec::new();
    let mut completed = 0usize;
    let start = Instant::now();
    while outcome.attempted == 0 || start.elapsed() < args.seconds {
        if let Some((ms, report)) =
            checked_call(&mut outcome, shape, &argv, &outputs, &reference, None)?
        {
            call_ms.push(ms);
            completed += report.metrics.sessions_run;
        }
    }

    let call_tail = tail(&call_ms);
    let metrics = &reference_report.metrics;
    outcome.set("setup_s", median(&setups));
    outcome.set("op_ms_p50", median(&call_ms));
    outcome.set("op_ms_tail", call_tail.value);
    outcome.set(
        "platforms_per_s",
        completed as f64 / (call_ms.iter().sum::<f64>() / 1e3),
    );
    outcome.set("quality_ratio", metrics.mean_goodput_vs_nominal);
    outcome.set("output_mb", reference.bytes as f64 / 1e6);
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.note(format!(
        "{}: {} serve calls of {} sessions, op_ms_tail is p{:.1} of {} samples",
        shape.name,
        call_ms.len(),
        shape.sessions,
        call_tail.percentile,
        call_tail.samples
    ));
    outcome.note(format!(
        "failed_share {}, recovery_p99 {}, repairs {} of {} attempts",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        metrics
            .recovery_p99
            .map_or("none".to_string(), |p99| p99.to_string()),
        metrics.total_repairs,
        metrics.total_attempts
    ));
    outcome.note(format!(
        "output digests (report, csv, checkpoint): {}",
        render(&reference)
    ));
    Ok(outcome)
}

/// The repair controller behind a timing wrapper: every `adapt` call becomes an
/// `adapt.repair` span, and the time spent inside it is accumulated so the session
/// round time can exclude it.
struct TimedPolicy<'t> {
    controller: RepairController,
    trace: &'t mut Trace,
    id: u64,
    inside: Duration,
}

impl AdaptationPolicy for TimedPolicy<'_> {
    fn label(&self) -> &'static str {
        self.controller.label()
    }

    fn adapt(&mut self, departed: &[NodeId], time: f64) -> Option<AdaptDecision> {
        self.trace.begin("adapt.repair", self.id);
        let decision = self.controller.adapt(departed, time);
        self.inside += self.trace.end();
        decision
    }

    fn degraded_floor(&self) -> Option<f64> {
        self.controller.degraded_floor()
    }
}

/// The per-session state the fleet's supervisor keeps in memory for restarts.
fn snapshot(
    run: &AdaptiveRun,
    controller: &RepairController,
    stall: usize,
    forced: bool,
) -> SavedSessionState {
    SavedSessionState {
        run: run.checkpoint(Some(controller)),
        rounds: run.session().rounds_run(),
        fault_progress: controller
            .ctx()
            .injected_faults()
            .map(FaultProgress::capture),
        stall,
        forced,
    }
}

/// What the replay of one fleet collects besides its spans.
#[derive(Default)]
struct ReplayStats {
    round_us: Vec<f64>,
    rounds: u64,
    decisions: u64,
    repairs: u64,
    attempts: u64,
    flow_solves: u64,
    probes: u64,
    warm_started: u64,
}

/// Builds and steps one session exactly as a fleet shard does (build, supervised
/// rounds with the no-progress watchdog, round budget and checkpoint cadence), with
/// spans around each layer call.
fn replay_session(
    trace: &mut Trace,
    config: &FleetConfig,
    generator: &InstanceGenerator<UniformBandwidth>,
    feed: &ChurnFeed,
    session: usize,
    stats: &mut ReplayStats,
) -> Result<SessionStats, String> {
    let id = session as u64;
    let seed = mix_seed(config.seed, id);
    let instance = trace.span("platform.generate", id, || {
        generator.generate(&mut StdRng::seed_from_u64(seed))
    });

    trace.begin("serve.session_build", id);
    let solution = trace.span("core.solve", id, || {
        AcyclicGuardedSolver::default().solve(&instance)
    });
    let overlay = Overlay::from_scheme(&solution.scheme);
    let sim = SimConfig {
        num_chunks: config.chunks,
        seed,
        ..SimConfig::default()
    }
    .scaled_to(solution.throughput, 2.0);
    let churn = feed.schedule(session, instance.num_nodes());
    let mut controller = RepairController::new(
        instance.clone(),
        solution.scheme,
        solution.throughput,
        config.floor,
    );
    controller.set_repair_algorithm(config.repair_algorithm.clone());
    if let Some(plan) = &config.fault_plan {
        controller
            .ctx_mut()
            .set_injected_faults(plan.injected_faults());
    }
    let mut run = AdaptiveRun::new(overlay, sim, churn, solution.throughput);
    black_box(trace.span("session.snapshot", id, || {
        snapshot(&run, &controller, 0, false)
    }));
    controller.set_parallelism(config.flow_threads);
    trace.end();

    let budget = config.supervision.round_budget(config.chunks);
    let deadline = config.supervision.no_progress_deadline(config.chunks);
    let mut policy = TimedPolicy {
        controller,
        trace,
        id,
        inside: Duration::ZERO,
    };
    policy.trace.begin("session.run", id);
    let (mut stall, mut forced) = (0usize, false);
    let verdict = loop {
        let before = policy.inside;
        let start = Instant::now();
        let finished = run.step(&mut policy);
        let round = start.elapsed().saturating_sub(policy.inside - before);
        stats.round_us.push(round.as_secs_f64() * 1e6);
        if finished {
            let outcome = run.outcome(&policy.controller);
            break Ok(SessionStats::from_outcome(
                session,
                seed,
                &outcome,
                policy.controller.decisions(),
            ));
        }
        if run.last_round_progressed() {
            stall = 0;
            forced = false;
        } else {
            stall += 1;
            if stall >= deadline {
                if forced {
                    break Err(format!("session {session} stuck in the replay"));
                }
                forced = true;
                stall = 0;
                run.force_repair(&mut policy);
            }
        }
        let rounds = run.session().rounds_run();
        if rounds >= budget {
            break Err(format!(
                "session {session} over its round budget in the replay"
            ));
        }
        if rounds.is_multiple_of(config.supervision.checkpoint_rounds) {
            let controller = &policy.controller;
            black_box(policy.trace.span("session.snapshot", id, || {
                snapshot(&run, controller, stall, forced)
            }));
        }
    };
    policy.trace.end();

    let controller = policy.controller;
    let decisions = controller.decisions();
    stats.decisions += decisions.len() as u64;
    stats.repairs += decisions.iter().filter(|d| d.repaired.is_some()).count() as u64;
    stats.attempts += decisions.iter().map(|d| u64::from(d.attempts)).sum::<u64>();
    stats.flow_solves += controller.ctx().flow_solves();
    stats.probes += controller.ctx().bisection_iters();
    stats.warm_started += controller.ctx().flows_warm_started();
    if let Ok(row) = &verdict {
        stats.rounds += row.rounds as u64;
    }
    verdict
}

/// Replays every admitted session of `report` and compares each with its row.
fn replay_fleet(
    trace: &mut Trace,
    config: &FleetConfig,
    report: &FleetReport,
    stats: &mut ReplayStats,
) -> Result<Vec<String>, String> {
    let generator = InstanceGenerator::new(
        GeneratorConfig::new(config.receivers, 0.7).map_err(|e| e.to_string())?,
        UniformBandwidth::unif100(),
    );
    let feed = ChurnFeed::new(config.seed, config.churn);
    let _panic_guard = config.fault_plan.as_ref().and_then(|plan| {
        (plan.worker_panics() > 0).then(|| WorkerPanicGuard::arm(plan.worker_panics()))
    });
    let mut mismatches = Vec::new();
    for decision in &report.admissions {
        if !matches!(decision.verdict, AdmissionVerdict::Admitted { .. }) {
            continue;
        }
        let session = decision.session;
        let expected = report.sessions.iter().find(|row| row.session == session);
        match (
            replay_session(trace, config, &generator, &feed, session, stats),
            expected,
        ) {
            (Ok(row), Some(expected)) if &row == expected => {}
            (Ok(_), _) => mismatches.push(format!(
                "session {session}: replayed row differs from the report"
            )),
            (Err(message), _) => mismatches.push(message),
        }
    }
    Ok(mismatches)
}

/// Checkpoints the traced 1-shard fleets handed to their sink.
#[derive(Default)]
struct Checkpoints {
    /// (encoded bytes, encode ms) per checkpoint.
    encoded: Vec<(usize, f64)>,
    /// Total encode plus write time, in ms.
    total_ms: f64,
}

/// `run_fleet_with` at 1 shard, inside a `serve.fleet` span, with a checkpoint sink
/// that encodes and writes each checkpoint the way `serve --checkpoint` does.
fn one_shard_fleet(
    trace: &mut Trace,
    shape: &Shape,
    seed: u64,
    path: &str,
    checkpoints: &mut Checkpoints,
) -> Result<(f64, FleetReport), String> {
    let config = fleet_config(shape, seed, 1);
    let mut write_error = None;
    trace.begin("serve.fleet", 1);
    let outcome = {
        let mut sink = |checkpoint: &FleetCheckpoint| {
            trace.begin("serve.ckpt_encode", 1);
            let json = checkpoint.to_json();
            let encode = trace.end();
            trace.begin("io.ckpt_write", 1);
            if let Err(e) = std::fs::write(path, &json) {
                write_error = Some(format!("cannot write {path}: {e}"));
            }
            let write = trace.end();
            checkpoints
                .encoded
                .push((json.len(), encode.as_secs_f64() * 1e3));
            checkpoints.total_ms += (encode + write).as_secs_f64() * 1e3;
        };
        let options = FleetOptions {
            checkpoint_every: usize::from(shape.checkpoint),
            on_checkpoint: shape
                .checkpoint
                .then_some(&mut sink as &mut dyn FnMut(&FleetCheckpoint)),
            ..FleetOptions::default()
        };
        run_fleet_with(&config, options)
    };
    let ms = trace.end().as_secs_f64() * 1e3;
    if let Some(message) = write_error {
        return Err(message);
    }
    match outcome {
        FleetRun::Completed(report) => Ok((ms, report)),
        FleetRun::Halted(_) => Err("the traced fleet halted".into()),
    }
}

fn traced(
    args: &Args,
    shape: &Shape,
    seed: u64,
    argv: &[String],
    outputs: &Outputs,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    cli(argv)?;
    let (_, reference) = read_outputs(shape, outputs)?;

    let mut trace = Trace::new();
    let mut stats = ReplayStats::default();
    let mut checkpoints = Checkpoints::default();
    let (mut bare_ms, mut traced_ms, mut one_shard) = (vec![], vec![], vec![]);
    let mut recovery_p99 = 0.0;
    let mut passes = 0u32;
    let start = Instant::now();
    let mut last_pass = Duration::ZERO;
    // A pass: a bare and a traced `serve` call at 2 shards, the same fleet through
    // `run_fleet_with` at 1 shard, then the sequential replay of its sessions. A new
    // pass starts only when it is expected to end within `--seconds`.
    while passes == 0 || start.elapsed() + last_pass <= args.seconds {
        let pass_start = Instant::now();
        if let Some((ms, _)) = checked_call(&mut outcome, shape, argv, outputs, &reference, None)? {
            bare_ms.push(ms);
        }
        if let Some((ms, _)) = checked_call(
            &mut outcome,
            shape,
            argv,
            outputs,
            &reference,
            Some(&mut trace),
        )? {
            traced_ms.push(ms);
        }
        let (ms, report) = one_shard_fleet(
            &mut trace,
            shape,
            seed,
            &outputs.checkpoint,
            &mut checkpoints,
        )?;
        one_shard.push(ms);
        if fnv1a(report.to_json().as_bytes()) != reference.digests[0] {
            outcome.fail(
                shape.sessions as u64,
                "the 1-shard report differs from the 2-shard CLI report".into(),
            );
        }
        recovery_p99 = report.metrics.recovery_p99.unwrap_or(0.0);

        outcome.attempted += shape.sessions as u64;
        trace.begin("replay", u64::from(passes));
        // On a thread of its own, as a shard steps its sessions: the allocator then
        // serves the replay from a fresh per-thread arena, like the fleet's shard.
        let config = fleet_config(shape, seed, 1);
        let mismatches = std::thread::scope(|scope| {
            scope
                .spawn(|| replay_fleet(&mut trace, &config, &report, &mut stats))
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        })?;
        trace.end();
        for message in mismatches {
            outcome.fail(1, message);
        }
        passes += 1;
        last_pass = pass_start.elapsed();
    }

    let per_pass = f64::from(passes);
    let sessions_ms = trace.total_ms(&["platform.generate", "serve.session_build", "session.run"]);
    let one_shard_total: f64 = one_shard.iter().sum();
    let repair_ms = trace.durations_ms("adapt.repair");
    let largest = checkpoints
        .encoded
        .iter()
        .copied()
        .max_by_key(|&(bytes, _)| bytes)
        .unwrap_or((0, 0.0));
    let ratio = |numerator: u64, denominator: u64| {
        if denominator == 0 {
            0.0
        } else {
            numerator as f64 / denominator as f64
        }
    };
    let bare = median(&bare_ms);
    outcome.set(
        "platform.generate_ms",
        median(&trace.durations_ms("platform.generate")),
    );
    outcome.set("core.solve_ms", median(&trace.durations_ms("core.solve")));
    outcome.set("session.round_us_p50", percentile(&stats.round_us, 0.50));
    outcome.set("session.round_us_p99", percentile(&stats.round_us, 0.99));
    outcome.set("session.rounds", stats.rounds as f64 / per_pass);
    outcome.set(
        "session.snapshot_us",
        median(&trace.durations_ms("session.snapshot")) * 1e3,
    );
    outcome.set("adapt.repair_ms_p50", percentile(&repair_ms, 0.50));
    outcome.set("adapt.repair_ms_p99", percentile(&repair_ms, 0.99));
    outcome.set("adapt.decisions", stats.decisions as f64 / per_pass);
    outcome.set(
        "adapt.attempts_per_repair",
        ratio(stats.attempts, stats.repairs),
    );
    outcome.set("adapt.repair_yield", ratio(stats.repairs, stats.attempts));
    outcome.set("adapt.flow_solves", stats.flow_solves as f64 / per_pass);
    outcome.set("adapt.probes", stats.probes as f64 / per_pass);
    outcome.set(
        "adapt.warm_share",
        ratio(stats.warm_started, stats.flow_solves),
    );
    outcome.set("adapt.recovery_p99", recovery_p99);
    outcome.set(
        "serve.session_build_ms",
        median(&trace.durations_ms("serve.session_build")),
    );
    outcome.set(
        "serve.shard_speedup",
        median(&one_shard) / median(&traced_ms),
    );
    outcome.set("serve.self_share", 1.0 - sessions_ms / one_shard_total);
    outcome.set("serve.ckpt_kb_max", largest.0 as f64 / 1e3);
    outcome.set("serve.ckpt_encode_ms", largest.1);
    outcome.set(
        "unattributed_share",
        1.0 - (sessions_ms + checkpoints.total_ms) / one_shard_total,
    );
    outcome.set("trace.overhead_share", (median(&traced_ms) - bare) / bare);
    outcome.note(format!(
        "{} traced: {passes} passes; 1-shard fleet {:.1} ms, replayed sessions {:.1} ms, checkpoints {:.1} ms",
        shape.name,
        one_shard_total,
        sessions_ms,
        checkpoints.total_ms
    ));
    outcome.note(format!(
        "output digests (report, csv, checkpoint): {}",
        render(&reference)
    ));
    outcome.trace = Some(trace);
    Ok(outcome)
}
