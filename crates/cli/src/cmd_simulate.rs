//! `simulate` — run the chunk-level streaming simulator on a broadcast scheme.
//!
//! Two modes share the flag surface:
//!
//! * **frozen overlay** (no `--churn`): the classic one-shot validation run, with
//!   optional progress tracing;
//! * **closed loop** (`--churn SPEC`): the session engine applies the churn trace and an
//!   adaptation policy — the static baseline by default, the
//!   re-solve-and-hot-swap controller with `--repair` — and reports *delivered* goodput
//!   against the nominal throughput, plus the controller's decision log and telemetry.
//!
//! The command can also solve and simulate in one shot: `--instance FILE` (with
//! `--algorithm NAME` and `--threads N`) runs a registry solver first and streams over
//! the overlay it produces.
//!
//! Closed-loop runs are crash-safe: `--checkpoint FILE` periodically serializes the
//! complete run state (`--checkpoint-every N` rounds), `--halt-after N` stops
//! mid-broadcast as a crash stand-in, and `--resume FILE` continues from a checkpoint —
//! producing a final report bit-identical to the uninterrupted run under the same seed
//! and trace (`--report FILE` writes it as JSON for byte-for-byte comparison).

use crate::args::{ArgList, FlagSpec};
use crate::cmd_solve::resolve_algorithm;
use crate::error::CliError;
use crate::files;
use bmp_core::scheme::BroadcastScheme;
use bmp_core::solver::EvalCtx;
use bmp_sim::{
    AdaptiveRun, ChunkPolicy, ChurnAction, ChurnEvent, ChurnSchedule, Overlay, RepairController,
    SessionOutcome, SimConfig, Simulator, SourceMode, StaticPolicy,
};
use std::io::Write;

pub(crate) fn parse_policy(raw: &str) -> Result<ChunkPolicy, CliError> {
    match raw.to_ascii_lowercase().as_str() {
        "random" | "random-useful" => Ok(ChunkPolicy::RandomUseful),
        "sequential" | "in-order" => Ok(ChunkPolicy::Sequential),
        "latest" | "latest-useful" => Ok(ChunkPolicy::LatestUseful),
        "rarest" | "rarest-first" => Ok(ChunkPolicy::RarestFirst),
        other => Err(CliError::Usage(format!(
            "unknown chunk policy {other:?} (expected random, sequential, latest or rarest)"
        ))),
    }
}

/// Flags accepted by `simulate`.
pub const FLAGS: FlagSpec = FlagSpec {
    command: "simulate",
    flags: &[
        "--scheme",
        "--instance",
        "--algorithm",
        "--threads",
        "--chunks",
        "--policy",
        "--seed",
        "--jitter",
        "--live",
        "--trace",
        "--churn",
        "--repair",
        "--repair-algorithm",
        "--floor",
        "--checkpoint",
        "--checkpoint-every",
        "--halt-after",
        "--resume",
        "--report",
    ],
};

/// Parses a churn specification: `TIME:NODES` events separated by `;`, nodes separated
/// by `,`. A node is an index (departure), `+index` (rejoin), or the word `busiest`
/// (the scheme's busiest relay departs).
fn parse_churn(raw: &str, scheme: &BroadcastScheme) -> Result<ChurnSchedule, CliError> {
    let num_nodes = scheme.instance().num_nodes();
    let mut events = Vec::new();
    for part in raw.split(';').filter(|part| !part.trim().is_empty()) {
        let (time_raw, nodes_raw) = part.split_once(':').ok_or_else(|| {
            CliError::Usage(format!(
                "churn event {part:?} must be TIME:NODE[,NODE...] (e.g. \"5:3,7;12:+3\")"
            ))
        })?;
        let time: f64 = time_raw.trim().parse().map_err(|_| {
            CliError::Usage(format!("invalid churn event time {:?}", time_raw.trim()))
        })?;
        if !time.is_finite() || time < 0.0 {
            return Err(CliError::Usage(format!(
                "churn event time {time} must be non-negative and finite"
            )));
        }
        for token in nodes_raw.split(',') {
            let token = token.trim();
            let (action, name) = match token.strip_prefix('+') {
                Some(rest) => (ChurnAction::Rejoin, rest),
                None => (ChurnAction::Depart, token),
            };
            let node = if name.eq_ignore_ascii_case("busiest") {
                scheme.busiest_receiver().unwrap_or(1)
            } else {
                name.parse().map_err(|_| {
                    CliError::Usage(format!(
                        "invalid churn node {token:?} (expected an index, +index or \"busiest\")"
                    ))
                })?
            };
            if node == 0 {
                return Err(CliError::Usage("the source (node 0) cannot churn".into()));
            }
            if node >= num_nodes {
                return Err(CliError::Usage(format!(
                    "churn node {node} out of range (the platform has {num_nodes} nodes)"
                )));
            }
            events.push(ChurnEvent { time, node, action });
        }
    }
    if events.is_empty() {
        return Err(CliError::Usage(
            "empty churn specification (expected TIME:NODE[,NODE...][;...])".into(),
        ));
    }
    Ok(ChurnSchedule::new(events))
}

/// Loads the scheme: from `--scheme FILE`, or by solving `--instance FILE` with the
/// requested `--algorithm` (one-shot solve + simulate). A `--scheme` file that fails
/// [`BroadcastScheme::validate`] is refused, naming its first violation.
fn load_scheme<W: Write>(
    args: &ArgList,
    threads: usize,
    out: &mut W,
) -> Result<BroadcastScheme, CliError> {
    match (args.get("--scheme"), args.get("--instance")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "pass either --scheme FILE or --instance FILE, not both".into(),
        )),
        (Some(path), None) => {
            if args.has("--algorithm") {
                return Err(CliError::Usage(
                    "--algorithm only applies when solving from --instance".into(),
                ));
            }
            let scheme = files::read_scheme(path)?;
            let violations = scheme.validate();
            match violations.first() {
                None => Ok(scheme),
                Some(first) => Err(CliError::InvalidScheme(format!(
                    "{path} violates its constraints: {first:?} (1 of {} violation(s); \
                     `verify` lists them all)",
                    violations.len()
                ))),
            }
        }
        (None, Some(path)) => {
            let instance = files::read_instance(path)?;
            let solver = resolve_algorithm(args.get("--algorithm").unwrap_or("acyclic-guarded"))?;
            let mut ctx = EvalCtx::new();
            ctx.set_parallelism(threads);
            let solution = solver.solve(&instance, &mut ctx)?;
            writeln!(
                out,
                "solved {} receivers with {} (throughput {:.4}, {} flow solves)",
                instance.num_receivers(),
                solution.algorithm,
                solution.throughput,
                solution.telemetry.flow_solves
            )?;
            Ok(solution.scheme)
        }
        (None, None) => Err(CliError::Usage(
            "missing required flag --scheme (or --instance to solve first)".into(),
        )),
    }
}

/// The closed-loop policy, held concretely so the driver can both step the run through
/// the `AdaptationPolicy` trait and borrow the controller for checkpointing.
enum PolicyKind {
    Static(StaticPolicy),
    Repair(Box<RepairController>),
}

impl PolicyKind {
    fn label(&self) -> &'static str {
        match self {
            PolicyKind::Static(_) => "static",
            PolicyKind::Repair(_) => "repair",
        }
    }

    fn step(&mut self, run: &mut AdaptiveRun) -> bool {
        match self {
            PolicyKind::Static(policy) => run.step(policy),
            PolicyKind::Repair(controller) => run.step(&mut **controller),
        }
    }

    fn controller(&self) -> Option<&RepairController> {
        match self {
            PolicyKind::Static(_) => None,
            PolicyKind::Repair(controller) => Some(controller),
        }
    }

    fn outcome(&self, run: &AdaptiveRun) -> SessionOutcome {
        match self {
            PolicyKind::Static(policy) => run.outcome(policy),
            PolicyKind::Repair(controller) => run.outcome(&**controller),
        }
    }
}

/// Crash-safety options of a closed-loop run.
struct Checkpointing<'a> {
    /// Where to write checkpoints (`--checkpoint FILE`); `None` disables them.
    path: Option<&'a str>,
    /// Rounds between checkpoint writes (`--checkpoint-every N`).
    every: usize,
    /// Stop (without finishing) once this many rounds have run (`--halt-after N`) — the
    /// crash stand-in of the recovery smoke test.
    halt_after: Option<usize>,
}

/// Parses and validates the crash-safety flags. `closed_loop` says whether the run has
/// a churn trace (or is a resume): the flags are meaningless for frozen-overlay runs.
fn parse_checkpointing<'a>(
    args: &'a ArgList,
    closed_loop: bool,
) -> Result<Checkpointing<'a>, CliError> {
    if !closed_loop {
        for flag in [
            "--checkpoint",
            "--checkpoint-every",
            "--halt-after",
            "--report",
        ] {
            if args.has(flag) {
                return Err(CliError::Usage(format!(
                    "{flag} only applies to closed-loop runs (--churn or --resume)"
                )));
            }
        }
    }
    if args.has("--checkpoint-every") && !args.has("--checkpoint") {
        return Err(CliError::Usage(
            "--checkpoint-every requires --checkpoint FILE (where to write)".into(),
        ));
    }
    let every: usize = args.get_parsed("--checkpoint-every", 50usize)?;
    if every == 0 {
        return Err(CliError::Usage(
            "--checkpoint-every must be at least 1 round".into(),
        ));
    }
    let halt_after = args
        .get("--halt-after")
        .map(|raw| {
            raw.parse::<usize>().map_err(|_| {
                CliError::Usage(format!("flag --halt-after has an invalid value {raw:?}"))
            })
        })
        .transpose()?;
    Ok(Checkpointing {
        path: args.get("--checkpoint"),
        every,
        halt_after,
    })
}

/// Steps the closed loop to completion — or to the `--halt-after` crash point — writing
/// checkpoints on the configured cadence (and always at the halt point, so a crash
/// never loses more than the final partial round). Returns whether the run finished.
fn drive(
    run: &mut AdaptiveRun,
    kind: &mut PolicyKind,
    checkpointing: &Checkpointing<'_>,
) -> Result<bool, CliError> {
    let mut since_checkpoint = 0usize;
    loop {
        let finished = kind.step(run);
        since_checkpoint += 1;
        let halted = !finished
            && checkpointing
                .halt_after
                .is_some_and(|halt| run.session().rounds_run() >= halt);
        if let Some(path) = checkpointing.path {
            if finished || halted || since_checkpoint >= checkpointing.every {
                files::write_checkpoint(path, &run.checkpoint(kind.controller()))?;
                since_checkpoint = 0;
            }
        }
        if finished || halted {
            return Ok(finished);
        }
    }
}

/// Renders the end of a closed-loop run: the outcome report (or the halt notice),
/// controller telemetry, and the `--report FILE` JSON artefact.
fn finish_closed_loop<W: Write>(
    run: &AdaptiveRun,
    kind: &PolicyKind,
    finished: bool,
    checkpointing: &Checkpointing<'_>,
    report_path: Option<&str>,
    out: &mut W,
) -> Result<(), CliError> {
    if !finished {
        match checkpointing.path {
            Some(path) => writeln!(
                out,
                "halted after {} rounds (checkpoint written to {path})",
                run.session().rounds_run()
            )?,
            None => writeln!(out, "halted after {} rounds", run.session().rounds_run())?,
        }
        return Ok(());
    }
    let outcome = kind.outcome(run);
    report_outcome(&outcome, out)?;
    if let Some(controller) = kind.controller() {
        let ctx = controller.ctx();
        writeln!(
            out,
            "controller telemetry : {} flow solves, {} bisection iters",
            ctx.flow_solves(),
            ctx.bisection_iters()
        )?;
        for decision in controller.decisions() {
            let solver = decision.solver.as_deref().unwrap_or("-");
            writeln!(
                out,
                "  decision at t = {:.2}: departed {:?}, victim tolerance {:.3}, residual {:.4} ({:.1}% of nominal), {} attempt(s), solver {solver}{}{}",
                decision.time,
                decision.departed,
                decision.victim_tolerance,
                decision.residual,
                100.0 * decision.residual / outcome.nominal,
                decision.attempts,
                if decision.probe_timed_out { ", probe timed out" } else { "" },
                if decision.degraded { ", DEGRADED" } else { "" },
            )?;
        }
    }
    if let Some(path) = report_path {
        files::write_text(path, &serde_json::to_string(&outcome.report)?)?;
        writeln!(out, "report written to {path}")?;
    }
    Ok(())
}

/// Runs `simulate --resume FILE`: rehydrates a checkpointed closed-loop run (the
/// checkpoint fixes the overlay, churn trace, configuration and policy, so the usual
/// input flags conflict) and steps it to completion — or to the next `--halt-after`.
fn run_resumed<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    for flag in [
        "--scheme",
        "--instance",
        "--algorithm",
        "--threads",
        "--chunks",
        "--policy",
        "--seed",
        "--jitter",
        "--live",
        "--trace",
        "--churn",
        "--repair",
        "--repair-algorithm",
        "--floor",
    ] {
        if args.has(flag) {
            return Err(CliError::Usage(format!(
                "{flag} conflicts with --resume (the checkpoint already fixes the run)"
            )));
        }
    }
    let checkpointing = parse_checkpointing(args, true)?;
    let path = args.get("--resume").expect("caller checked");
    let checkpoint = files::read_checkpoint(path)?;
    let (mut run, controller) = AdaptiveRun::resume(checkpoint);
    let mut kind = match controller {
        Some(controller) => PolicyKind::Repair(Box::new(controller)),
        None => PolicyKind::Static(StaticPolicy),
    };
    writeln!(
        out,
        "resumed closed-loop run at round {} (adaptation {})",
        run.session().rounds_run(),
        kind.label()
    )?;
    let finished = drive(&mut run, &mut kind, &checkpointing)?;
    finish_closed_loop(
        &run,
        &kind,
        finished,
        &checkpointing,
        args.get("--report"),
        out,
    )
}

/// Renders the closed-loop outcome: swap timeline, survivor completion, goodput ratio.
fn report_outcome<W: Write>(outcome: &SessionOutcome, out: &mut W) -> Result<(), CliError> {
    for swap in &outcome.swaps {
        let action = match swap.repaired_nominal {
            Some(repaired) if swap.swapped => {
                format!("hot-swapped (repaired nominal {repaired:.4})")
            }
            _ => "kept the overlay".to_string(),
        };
        let recovery = match swap.recovered_at {
            Some(at) => format!("recovered at t = {at:.2}"),
            None => "never recovered".to_string(),
        };
        writeln!(
            out,
            "  t = {:>7.2}  membership change: {action}, {recovery}",
            swap.time
        )?;
    }
    let completed = outcome
        .survivors
        .iter()
        .filter(|&&node| outcome.report.completion_time[node].is_some())
        .count();
    writeln!(out, "rounds simulated : {}", outcome.report.rounds_run)?;
    writeln!(
        out,
        "survivors completed : {completed}/{}",
        outcome.survivors.len()
    )?;
    writeln!(
        out,
        "delivered goodput : {:.4} ({:.1}% of nominal)",
        outcome.goodput(),
        100.0 * outcome.goodput_vs_nominal()
    )?;
    if let Some(recovery) = outcome.recovery_time() {
        writeln!(out, "post-churn recovery : {recovery:.2} time units")?;
    }
    if let Some(floor) = outcome.degraded_floor {
        writeln!(
            out,
            "DEGRADED : repair budget exhausted, kept the last good overlay (residual floor {floor:.4})"
        )?;
    }
    Ok(())
}

/// Runs the `simulate` subcommand.
///
/// Flags: `--scheme FILE` *or* `--instance FILE` (solve first; `--algorithm NAME`
/// selects the registry solver, `--threads N` its flow fan-out), `--chunks N` (at
/// least 1, default 300), `--policy NAME` (default random), `--seed S`, `--jitter J`
/// (in `[0, 1)`, default 0), `--live RATE`,
/// `--trace` (worst-receiver progress every 50 rounds; frozen-overlay runs only),
/// `--churn SPEC` (scheduled departures/rejoins, e.g. `"5:busiest"` or `"5:3,7;12:+3"`),
/// `--repair` (adapt by re-solve + hot-swap instead of the static baseline),
/// `--repair-algorithm NAME` (pin the named registry solver to the front of the repair
/// fallback chain; unset keeps the registry order), `--floor F` (repair when the
/// residual drops below `F ×` nominal, default 0.9).
///
/// Crash safety (closed-loop runs only): `--checkpoint FILE` writes the run state
/// every `--checkpoint-every N` rounds (default 50) and at the end, `--halt-after N`
/// stops mid-broadcast after N rounds (a crash stand-in), `--resume FILE` continues a
/// checkpointed run bit-identically, and `--report FILE` writes the final delivery
/// report as JSON for byte-for-byte comparison.
///
/// # Errors
///
/// Returns a [`CliError`] when the scheme/instance cannot be read, a `--scheme` file
/// violates its constraints, or a flag is malformed.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    if args.get("--resume").is_some() {
        return run_resumed(args, out);
    }
    let threads: usize = args.get_parsed("--threads", 1)?;
    if args.has("--threads") && !(args.has("--repair") || args.get("--instance").is_some()) {
        return Err(CliError::Usage(
            "--threads only applies when solving (--instance) or repairing (--repair)".into(),
        ));
    }
    let scheme = load_scheme(args, threads, out)?;
    let nominal = scheme.throughput();
    let overlay = Overlay::from_scheme(&scheme);

    let num_chunks: usize = args.get_parsed("--chunks", 300usize)?;
    if num_chunks == 0 {
        return Err(CliError::Usage("--chunks must be at least 1".into()));
    }
    let jitter: f64 = args.get_parsed("--jitter", 0.0)?;
    if !(0.0..1.0).contains(&jitter) {
        return Err(CliError::Usage(format!(
            "--jitter {jitter} must lie in [0, 1)"
        )));
    }
    let mut config = SimConfig {
        num_chunks,
        jitter,
        policy: parse_policy(args.get("--policy").unwrap_or("random"))?,
        ..SimConfig::default()
    };
    config.seed = args.get_parsed("--seed", config.seed)?;
    if let Some(rate) = args.get("--live") {
        let rate: f64 = rate
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid live rate {rate:?}")))?;
        config.source_mode = SourceMode::Live { rate };
    }
    let config = config.scaled_to(nominal, 2.0);

    let churn = args
        .get("--churn")
        .map(|raw| parse_churn(raw, &scheme))
        .transpose()?;
    if args.has("--repair") && churn.is_none() {
        return Err(CliError::Usage(
            "--repair requires a --churn specification to react to".into(),
        ));
    }
    if args.has("--floor") && !args.has("--repair") {
        return Err(CliError::Usage(
            "--floor only applies with --repair (it is the repair controller's threshold)".into(),
        ));
    }
    let repair_algorithm = args.get("--repair-algorithm");
    if repair_algorithm.is_some() && !args.has("--repair") {
        return Err(CliError::Usage(
            "--repair-algorithm only applies with --repair (it pins the repair chain's first solver)"
                .into(),
        ));
    }
    if let Some(name) = repair_algorithm {
        if bmp_core::solver::find(name).is_none() {
            let names: Vec<&str> = bmp_core::solver::registry()
                .iter()
                .map(|solver| solver.name())
                .collect();
            return Err(CliError::Usage(format!(
                "unknown repair algorithm {name:?} (expected one of {})",
                names.join(", ")
            )));
        }
    }
    let floor: f64 = args.get_parsed("--floor", 0.9)?;
    if !(0.0..=1.0).contains(&floor) || floor == 0.0 {
        return Err(CliError::Usage(format!(
            "--floor {floor} must lie in (0, 1]"
        )));
    }
    if args.has("--trace") && churn.is_some() {
        return Err(CliError::Usage(
            "--trace is only available without --churn (the closed loop reports its own timeline)"
                .into(),
        ));
    }

    let checkpointing = parse_checkpointing(args, churn.is_some())?;

    if let Some(churn) = churn {
        // Closed-loop run: the session engine plus an adaptation policy, stepped
        // through the crash-safe driver so checkpoints can be cut between rounds.
        let mut kind = if args.has("--repair") {
            let mut controller =
                RepairController::new(scheme.instance().clone(), scheme.clone(), nominal, floor);
            controller.set_parallelism(threads);
            controller.set_repair_algorithm(repair_algorithm.map(str::to_string));
            PolicyKind::Repair(Box::new(controller))
        } else {
            PolicyKind::Static(StaticPolicy)
        };
        writeln!(
            out,
            "simulating {} chunks over {} edges (policy {}, nominal throughput {:.4}, adaptation {})",
            config.num_chunks,
            overlay.edges().len(),
            config.policy.label(),
            nominal,
            kind.label()
        )?;
        let mut run = AdaptiveRun::new(overlay, config, churn, nominal);
        let finished = drive(&mut run, &mut kind, &checkpointing)?;
        return finish_closed_loop(
            &run,
            &kind,
            finished,
            &checkpointing,
            args.get("--report"),
            out,
        );
    }

    let simulator = Simulator::new(overlay, config);
    writeln!(
        out,
        "simulating {} chunks over {} edges (policy {}, nominal throughput {:.4})",
        config.num_chunks,
        simulator.overlay().edges().len(),
        config.policy.label(),
        nominal
    )?;

    let report = if args.has("--trace") {
        let (report, trace) = simulator.run_traced(50);
        for (time, progress) in trace.worst_progress_series() {
            writeln!(
                out,
                "  t = {time:>8.2}  worst progress {:.1}%",
                progress * 100.0
            )?;
        }
        report
    } else {
        simulator.run()
    };

    writeln!(out, "rounds simulated : {}", report.rounds_run)?;
    writeln!(out, "all completed    : {}", report.all_completed())?;
    match report.min_achieved_rate() {
        Some(rate) => {
            writeln!(
                out,
                "worst delivery rate : {rate:.4} ({:.1}% of nominal)",
                100.0 * rate / nominal
            )?;
        }
        None => {
            writeln!(
                out,
                "worst delivery rate : n/a (slowest receiver got {:.1}% of the message)",
                100.0 * report.worst_progress()
            )?;
        }
    }
    if let Some(makespan) = report.makespan() {
        writeln!(out, "makespan         : {makespan:.2}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::testutil::temp_path;
    use bmp_core::AcyclicGuardedSolver;
    use bmp_platform::paper::figure1;

    fn scheme_path() -> String {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let path = temp_path("sim-scheme.json").to_str().unwrap().to_string();
        files::write_scheme(&path, &solution.scheme).unwrap();
        path
    }

    fn instance_path() -> String {
        let path = temp_path("sim-instance.json").to_str().unwrap().to_string();
        files::write_instance(&path, &figure1()).unwrap();
        path
    }

    fn run_args(args: Vec<String>) -> Result<String, CliError> {
        let list = ArgList::parse(&args)?;
        let mut out = Vec::new();
        run(&list, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn infeasible_scheme_files_are_refused() {
        // A well-formed document whose edge carries a negative rate: `verify` reports
        // the violation, and `simulate` must refuse to deploy it.
        let instance = serde_json::to_string(&figure1()).unwrap();
        let path = temp_path("sim-infeasible.json")
            .to_str()
            .unwrap()
            .to_string();
        std::fs::write(
            &path,
            format!(r#"{{"format":2,"instance":{instance},"edges":[[0,1,2],[0,2,-2]]}}"#),
        )
        .unwrap();
        match run_args(vec!["--scheme".into(), path.clone()]) {
            Err(CliError::InvalidScheme(message)) => {
                assert!(message.contains("InvalidRate"), "{message}");
                assert!(message.contains("rate: -2.0"), "{message}");
            }
            other => panic!("expected an invalid-scheme error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulates_a_file_broadcast() {
        let path = scheme_path();
        let output = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--chunks".into(),
            "150".into(),
            "--seed".into(),
            "9".into(),
        ])
        .unwrap();
        assert!(output.contains("all completed    : true"));
        assert!(output.contains("worst delivery rate"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulates_with_trace_and_policy() {
        let path = scheme_path();
        let output = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--chunks".into(),
            "100".into(),
            "--policy".into(),
            "rarest".into(),
            "--trace".into(),
        ])
        .unwrap();
        assert!(output.contains("policy rarest-first"));
        assert!(output.contains("worst progress"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn live_mode_and_bad_flags() {
        let path = scheme_path();
        let ok = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--chunks".into(),
            "100".into(),
            "--live".into(),
            "3.5".into(),
        ]);
        assert!(ok.is_ok());
        assert!(matches!(
            run_args(vec![
                "--scheme".into(),
                path.clone(),
                "--live".into(),
                "fast".into()
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_args(vec![
                "--scheme".into(),
                path.clone(),
                "--policy".into(),
                "bogus".into()
            ]),
            Err(CliError::Usage(_))
        ));
        // Values the simulator would reject with a panic are usage errors instead.
        for (flag, value) in [("--chunks", "0"), ("--jitter", "1.5"), ("--jitter", "nan")] {
            assert!(
                matches!(
                    run_args(vec![
                        "--scheme".into(),
                        path.clone(),
                        flag.into(),
                        value.into()
                    ]),
                    Err(CliError::Usage(_))
                ),
                "{flag} {value} should be a usage error"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn churned_static_run_reports_goodput() {
        let path = scheme_path();
        let output = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--chunks".into(),
            "150".into(),
            "--churn".into(),
            "5:busiest".into(),
        ])
        .unwrap();
        assert!(output.contains("adaptation static"));
        assert!(output.contains("membership change: kept the overlay"));
        assert!(output.contains("delivered goodput"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn churned_repair_run_swaps_and_beats_static() {
        let path = scheme_path();
        let common = |repair: bool| {
            let mut args = vec![
                "--scheme".to_string(),
                path.clone(),
                "--chunks".into(),
                "150".into(),
                "--churn".into(),
                "5:3".into(),
            ];
            if repair {
                args.push("--repair".into());
            }
            run_args(args).unwrap()
        };
        let static_out = common(false);
        let repair_out = common(true);
        assert!(repair_out.contains("adaptation repair"));
        assert!(repair_out.contains("hot-swapped"));
        assert!(repair_out.contains("controller telemetry"));
        assert!(repair_out.contains("decision at t ="));
        let goodput = |report: &str| -> f64 {
            report
                .lines()
                .find(|line| line.starts_with("delivered goodput"))
                .and_then(|line| line.split(':').nth(1))
                .and_then(|rest| rest.trim().split(' ').next())
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(
            goodput(&repair_out) > goodput(&static_out),
            "repair {repair_out} vs static {static_out}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn repair_algorithm_flag_pins_the_chain_head() {
        let path = scheme_path();
        let output = run_args(vec![
            "--scheme".to_string(),
            path.clone(),
            "--chunks".into(),
            "150".into(),
            "--churn".into(),
            "5:3".into(),
            "--repair".into(),
            "--repair-algorithm".into(),
            "exhaustive".into(),
        ])
        .unwrap();
        assert!(output.contains("hot-swapped"));
        assert!(
            output.contains("solver exhaustive"),
            "the pinned solver should take the repair: {output}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn solves_and_simulates_in_one_shot() {
        let path = instance_path();
        let output = run_args(vec![
            "--instance".into(),
            path.clone(),
            "--algorithm".into(),
            "acyclic-guarded".into(),
            "--threads".into(),
            "2".into(),
            "--chunks".into(),
            "120".into(),
            "--churn".into(),
            "4:busiest".into(),
            "--repair".into(),
        ])
        .unwrap();
        assert!(output.contains("solved 5 receivers with acyclic-guarded"));
        assert!(output.contains("adaptation repair"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn churn_specs_parse_and_reject_malformed_input() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let scheme = &solution.scheme;
        let schedule = parse_churn("5:3,+4;1.5:busiest", scheme).unwrap();
        assert_eq!(schedule.events().len(), 3);
        assert_eq!(schedule.events()[0].time, 1.5);
        for bad in ["", "5", "x:3", "5:zero", "5:0", "5:99", "-1:3", "5:+nope"] {
            assert!(parse_churn(bad, scheme).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn conflicting_and_incomplete_flag_combinations_are_rejected() {
        let scheme = scheme_path();
        let instance = instance_path();
        for args in [
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--instance".into(),
                instance.clone(),
            ],
            vec!["--scheme".to_string(), scheme.clone(), "--repair".into()],
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--algorithm".into(),
                "auto".into(),
            ],
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--churn".into(),
                "5:3".into(),
                "--trace".into(),
            ],
            vec![
                "--instance".to_string(),
                instance.clone(),
                "--algorithm".into(),
                "frobnicate".into(),
            ],
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--churn".into(),
                "5:3".into(),
                "--floor".into(),
                "2.0".into(),
            ],
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--threads".into(),
                "4".into(),
            ],
            // --repair-algorithm without --repair, and an unknown solver name.
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--churn".into(),
                "5:3".into(),
                "--repair-algorithm".into(),
                "auto".into(),
            ],
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--churn".into(),
                "5:3".into(),
                "--repair".into(),
                "--repair-algorithm".into(),
                "frobnicate".into(),
            ],
        ] {
            assert!(
                matches!(run_args(args.clone()), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
        std::fs::remove_file(scheme).ok();
        std::fs::remove_file(instance).ok();
    }

    #[test]
    fn halted_run_resumes_to_a_bit_identical_report() {
        let path = scheme_path();
        let checkpoint = temp_path("sim-checkpoint.json")
            .to_str()
            .unwrap()
            .to_string();
        let report_full = temp_path("sim-report-full.json")
            .to_str()
            .unwrap()
            .to_string();
        let report_resumed = temp_path("sim-report-resumed.json")
            .to_str()
            .unwrap()
            .to_string();
        let base = |extra: Vec<String>| {
            let mut args = vec![
                "--scheme".to_string(),
                path.clone(),
                "--chunks".into(),
                "150".into(),
                "--churn".into(),
                "5:3;12:+3".into(),
                "--repair".into(),
            ];
            args.extend(extra);
            args
        };
        // Uninterrupted reference run through the same crash-safe driver.
        let full = run_args(base(vec![
            "--checkpoint".into(),
            checkpoint.clone(),
            "--report".into(),
            report_full.clone(),
        ]))
        .unwrap();
        assert!(full.contains("report written to"));
        // Interrupted run: checkpoint every 10 rounds, crash after 40.
        let halted = run_args(base(vec![
            "--checkpoint".into(),
            checkpoint.clone(),
            "--checkpoint-every".into(),
            "10".into(),
            "--halt-after".into(),
            "40".into(),
        ]))
        .unwrap();
        assert!(halted.contains("halted after 40 rounds"));
        // Resume from the crash point and finish.
        let resumed = run_args(vec![
            "--resume".into(),
            checkpoint.clone(),
            "--report".into(),
            report_resumed.clone(),
        ])
        .unwrap();
        assert!(resumed.contains("resumed closed-loop run at round 40 (adaptation repair)"));
        assert!(resumed.contains("hot-swapped"));
        let full_bytes = std::fs::read(&report_full).unwrap();
        let resumed_bytes = std::fs::read(&report_resumed).unwrap();
        assert!(!full_bytes.is_empty());
        assert_eq!(
            full_bytes, resumed_bytes,
            "resumed report must be byte-identical to the uninterrupted run"
        );
        for file in [&path, &checkpoint, &report_full, &report_resumed] {
            std::fs::remove_file(file).ok();
        }
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        let path = scheme_path();
        for args in [
            // --checkpoint-every without --checkpoint.
            vec![
                "--scheme".to_string(),
                path.clone(),
                "--churn".into(),
                "5:3".into(),
                "--checkpoint-every".into(),
                "10".into(),
            ],
            // Crash-safety flags on a frozen-overlay run.
            vec![
                "--scheme".to_string(),
                path.clone(),
                "--checkpoint".into(),
                "/tmp/never-written.json".into(),
            ],
            vec![
                "--scheme".to_string(),
                path.clone(),
                "--report".into(),
                "/tmp/never-written.json".into(),
            ],
            // Zero cadence.
            vec![
                "--scheme".to_string(),
                path.clone(),
                "--churn".into(),
                "5:3".into(),
                "--checkpoint".into(),
                "/tmp/never-written.json".into(),
                "--checkpoint-every".into(),
                "0".into(),
            ],
            // Input flags conflict with --resume.
            vec![
                "--resume".to_string(),
                "/tmp/whatever.json".into(),
                "--scheme".into(),
                path.clone(),
            ],
            vec![
                "--resume".to_string(),
                "/tmp/whatever.json".into(),
                "--repair".into(),
            ],
        ] {
            assert!(
                matches!(run_args(args.clone()), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
        // A missing checkpoint file is an I/O error, not a usage error.
        assert!(matches!(
            run_args(vec!["--resume".into(), "/nonexistent/bmp/cp.json".into()]),
            Err(CliError::Io(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn all_policy_names_parse() {
        for name in [
            "random",
            "random-useful",
            "sequential",
            "in-order",
            "latest",
            "rarest-first",
        ] {
            assert!(parse_policy(name).is_ok(), "{name}");
        }
        assert!(parse_policy("fifo").is_err());
    }
}
