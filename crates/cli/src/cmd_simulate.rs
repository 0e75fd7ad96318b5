//! `simulate` — run the chunk-level streaming simulator on a broadcast scheme.
//!
//! Every run steps one driver, [`bmp_sim::AdaptiveRun`], under an adaptation policy;
//! the flags choose what it sees:
//!
//! * **frozen overlay** (no `--churn`): an empty churn schedule under the static policy
//!   — the one-shot validation run, with optional progress tracing (`--trace` samples
//!   the worst receiver every 50 rounds and after the final round);
//! * **closed loop** (`--churn SPEC`): the driver applies the churn trace — the static
//!   baseline by default, the re-solve-and-hot-swap controller with `--repair` — and
//!   reports *delivered* goodput against the nominal throughput, plus the controller's
//!   decision log and telemetry.
//!
//! The overlay comes from a `--scheme` file: `solve --out FILE` writes one. Repair
//! probes take [`bmp_core::solver::EvalCtx`]'s automatic flow fan-out, which changes
//! wall time only.
//!
//! Closed-loop runs are crash-safe: `--checkpoint FILE` periodically serializes the
//! complete run state (`--checkpoint-every N` rounds), `--halt-after N` stops
//! mid-broadcast as a crash stand-in, and `--resume FILE` continues from a checkpoint —
//! producing a final report bit-identical to the uninterrupted run under the same seed
//! and trace (`--report FILE` writes it as JSON for byte-for-byte comparison). A
//! resumed run is fixed by its checkpoint: only the crash-safety and report flags may
//! accompany `--resume`, and any other flag is refused.
//!
//! The flags carry no rules of their own: each value is checked by the type that owns
//! it, the same check a checkpoint decoder or a library caller meets —
//! [`SimConfig::validate`] on the scaled session config (`--chunks`, `--jitter`,
//! `--live`), [`ChurnSchedule::try_new`] and [`ChurnSchedule::check_nodes`] (`--churn`),
//! and [`RepairController::check_floor`] (`--floor`).

use crate::args::{checkpoint_every, repair_algorithm, ArgList, FlagSpec};
use crate::error::CliError;
use crate::files;
use bmp_core::scheme::BroadcastScheme;
use bmp_sim::{
    AdaptiveRun, ChunkPolicy, ChurnAction, ChurnEvent, ChurnSchedule, Overlay, RepairController,
    Session, SessionOutcome, SimConfig, SourceMode, StaticPolicy,
};
use std::io::Write;

/// Rounds between two `--trace` samples of the worst receiver's progress.
const TRACE_EVERY: usize = 50;

/// The `--trace` sample of `session` after its latest round: the simulated time and
/// the slowest receiver's share of the message.
fn worst_progress(session: &Session) -> (f64, f64) {
    let num_chunks = session.config().num_chunks;
    let min_chunks = session.counts()[1..]
        .iter()
        .copied()
        .min()
        .unwrap_or(num_chunks);
    (session.time(), min_chunks as f64 / num_chunks as f64)
}

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
/// (the scheme's busiest relay departs). The schedule's rules are
/// [`ChurnSchedule::try_new`]'s and [`ChurnSchedule::check_nodes`]'.
fn parse_churn(raw: &str, scheme: &BroadcastScheme) -> Result<ChurnSchedule, CliError> {
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
            events.push(ChurnEvent { time, node, action });
        }
    }
    if events.is_empty() {
        return Err(CliError::Usage(
            "empty churn specification (expected TIME:NODE[,NODE...][;...])".into(),
        ));
    }
    let schedule = ChurnSchedule::try_new(events).map_err(CliError::Usage)?;
    schedule
        .check_nodes(scheme.instance().num_nodes())
        .map_err(CliError::Usage)?;
    Ok(schedule)
}

/// Loads the `--scheme FILE` overlay, refusing a scheme that fails
/// [`BroadcastScheme::validate`] and naming its first violation.
fn load_scheme(args: &ArgList) -> Result<BroadcastScheme, CliError> {
    let path = args.require("--scheme")?;
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
    Ok(Checkpointing {
        path: args.get("--checkpoint"),
        every: checkpoint_every(args, 50)?,
        halt_after: args.get_optional("--halt-after")?,
    })
}

/// Steps the run to completion — or to the `--halt-after` crash point — calling
/// `after_round` on the session after every round and writing checkpoints on the
/// configured cadence (and always at the halt point, so a crash never loses more than
/// the final partial round). Returns whether the run finished.
fn drive(
    run: &mut AdaptiveRun,
    kind: &mut PolicyKind,
    checkpointing: &Checkpointing<'_>,
    mut after_round: impl FnMut(&Session),
) -> Result<bool, CliError> {
    let mut since_checkpoint = 0usize;
    loop {
        let finished = kind.step(run);
        after_round(run.session());
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

/// The flags that may accompany `--resume`: the checkpoint fixes the overlay, churn
/// trace, configuration and policy, so every other flag conflicts.
const RESUME_ALLOWS: &[&str] = &[
    "--checkpoint",
    "--checkpoint-every",
    "--halt-after",
    "--report",
];

/// Runs `simulate --resume FILE`: rehydrates a checkpointed closed-loop run and steps
/// it to completion — or to the next `--halt-after`.
fn run_resumed<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_resume_conflicts(RESUME_ALLOWS)?;
    let checkpointing = parse_checkpointing(args, true)?;
    let path = args.get("--resume").expect("caller checked");
    let checkpoint = files::read_checkpoint(path)?;
    let (mut run, controller) = AdaptiveRun::resume(checkpoint)?;
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
    let finished = drive(&mut run, &mut kind, &checkpointing, |_| {})?;
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
/// Flags: `--scheme FILE` (required unless resuming), `--chunks N` (at least 1,
/// default 300), `--policy NAME` (default random), `--seed S`, `--jitter J` (in
/// `[0, 1)`, default 0), `--live RATE` (finite and positive; these three are
/// [`SimConfig::validate`]'s ranges), `--trace`
/// (worst-receiver progress every 50 rounds; frozen-overlay runs only), `--churn SPEC`
/// (scheduled departures/rejoins, e.g. `"5:busiest"` or `"5:3,7;12:+3"`), `--repair`
/// (adapt by re-solve + hot-swap instead of the static baseline),
/// `--repair-algorithm NAME` (pin the named registry solver to the front of the repair
/// fallback chain; unset keeps the registry order), `--floor F` (repair when the
/// residual drops below `F ×` nominal, default 0.9).
///
/// Crash safety (closed-loop runs only): `--checkpoint FILE` writes the run state
/// every `--checkpoint-every N` rounds (default 50) and at the end, `--halt-after N`
/// stops mid-broadcast after N rounds (a crash stand-in), `--resume FILE` continues a
/// checkpointed run bit-identically (only the crash-safety flags and `--report` may
/// accompany it), and `--report FILE` writes the final delivery report as JSON for
/// byte-for-byte comparison.
///
/// # Errors
///
/// Returns a [`CliError`] when the scheme cannot be read or violates its constraints,
/// or a flag is malformed.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    if args.get("--resume").is_some() {
        return run_resumed(args, out);
    }
    let scheme = load_scheme(args)?;
    let nominal = scheme.throughput();
    let overlay = Overlay::from_scheme(&scheme);

    let mut config = SimConfig {
        num_chunks: args.get_parsed("--chunks", 300)?,
        jitter: args.get_parsed("--jitter", 0.0)?,
        policy: parse_policy(args.get("--policy").unwrap_or("random"))?,
        ..SimConfig::default()
    };
    config.seed = args.get_parsed("--seed", config.seed)?;
    if let Some(rate) = args.get_optional("--live")? {
        config.source_mode = SourceMode::Live { rate };
    }
    let config = config.scaled_to(nominal, 2.0);
    config
        .validate()
        .map_err(|message| CliError::Usage(format!("invalid simulation flags: {message}")))?;

    let churn = args
        .get("--churn")
        .map(|raw| parse_churn(raw, &scheme))
        .transpose()?;
    if args.has("--repair") && churn.is_none() {
        return Err(CliError::Usage(
            "--repair requires a --churn specification to react to".into(),
        ));
    }
    if args.has("--repair") && nominal <= 0.0 {
        return Err(CliError::Usage(format!(
            "--repair needs a scheme that delivers a positive throughput (this one delivers {nominal})"
        )));
    }
    if args.has("--floor") && !args.has("--repair") {
        return Err(CliError::Usage(
            "--floor only applies with --repair (it is the repair controller's threshold)".into(),
        ));
    }
    if args.has("--repair-algorithm") && !args.has("--repair") {
        return Err(CliError::Usage(
            "--repair-algorithm only applies with --repair (it pins the repair chain's first solver)"
                .into(),
        ));
    }
    let repair_algorithm = repair_algorithm(args)?;
    let floor: f64 = args.get_parsed("--floor", 0.9)?;
    RepairController::check_floor(floor)
        .map_err(|message| CliError::Usage(format!("--floor {floor}: {message}")))?;
    if args.has("--trace") && churn.is_some() {
        return Err(CliError::Usage(
            "--trace is only available without --churn (the closed loop reports its own timeline)"
                .into(),
        ));
    }

    let checkpointing = parse_checkpointing(args, churn.is_some())?;

    // One driver for every run: the session engine under an adaptation policy, stepped
    // through the crash-safe loop so checkpoints can be cut between rounds. A run
    // without `--churn` is the static policy over an empty schedule (a frozen overlay).
    let mut kind = if args.has("--repair") {
        let mut controller =
            RepairController::new(scheme.instance().clone(), scheme.clone(), nominal, floor);
        controller.set_repair_algorithm(repair_algorithm.map(str::to_string));
        PolicyKind::Repair(Box::new(controller))
    } else {
        PolicyKind::Static(StaticPolicy)
    };
    let closed_loop = churn.is_some();
    write!(
        out,
        "simulating {} chunks over {} edges (policy {}, nominal throughput {:.4}",
        config.num_chunks,
        overlay.edges().len(),
        config.policy.label(),
        nominal
    )?;
    if closed_loop {
        write!(out, ", adaptation {}", kind.label())?;
    }
    writeln!(out, ")")?;
    let mut run = AdaptiveRun::new(
        overlay,
        config,
        churn.unwrap_or_else(ChurnSchedule::empty),
        nominal,
    );
    let trace = args.has("--trace");
    let mut samples = Vec::new();
    let finished = drive(&mut run, &mut kind, &checkpointing, |session| {
        if trace && session.rounds_run().is_multiple_of(TRACE_EVERY) {
            samples.push(worst_progress(session));
        }
    })?;
    if closed_loop {
        return finish_closed_loop(
            &run,
            &kind,
            finished,
            &checkpointing,
            args.get("--report"),
            out,
        );
    }
    if trace && !run.session().rounds_run().is_multiple_of(TRACE_EVERY) {
        samples.push(worst_progress(run.session()));
    }
    for (time, progress) in samples {
        writeln!(
            out,
            "  t = {time:>8.2}  worst progress {:.1}%",
            progress * 100.0
        )?;
    }

    let report = run.session().report();
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
    use crate::args::BOOLEAN_FLAGS;
    use crate::files::testutil::{at, edit_json, temp_path};
    use bmp_core::AcyclicGuardedSolver;
    use bmp_platform::paper::figure1;
    use serde::Value::Array;

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
    fn repair_of_a_zero_throughput_scheme_is_a_usage_error() {
        // A feasible scheme without edges delivers nothing: there is no nominal rate
        // for the repair controller's floor to be a fraction of.
        let path = temp_path("sim-zero.json").to_str().unwrap().to_string();
        files::write_scheme(&path, &BroadcastScheme::new(figure1())).unwrap();
        let args = ["--scheme", &path, "--churn", "1:2", "--repair"];
        match run_args(args.iter().map(ToString::to_string).collect()) {
            Err(CliError::Usage(message)) => {
                assert!(message.contains("positive throughput"), "{message}");
            }
            other => panic!("expected a usage error, got {other:?}"),
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
    fn trace_samples_every_fifty_rounds_and_the_final_round() {
        let path = scheme_path();
        let args = |trace: bool| {
            let mut args = vec!["--scheme".to_string(), path.clone()];
            args.extend(trace.then(|| "--trace".to_string()));
            run_args(args).unwrap()
        };
        let (traced, plain) = (args(true), args(false));
        let (samples, report): (Vec<&str>, Vec<&str>) = traced
            .lines()
            .partition(|line| line.contains("worst progress"));
        assert_eq!(report, plain.lines().collect::<Vec<_>>());
        let rounds: usize = plain
            .lines()
            .find_map(|line| line.strip_prefix("rounds simulated : "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            rounds > 2 * TRACE_EVERY && !rounds.is_multiple_of(TRACE_EVERY),
            "{rounds}"
        );
        let round_duration = SimConfig::default().round_duration;
        let mut expected: Vec<usize> = (1..=rounds / TRACE_EVERY)
            .map(|k| k * TRACE_EVERY)
            .collect();
        expected.push(rounds);
        assert_eq!(samples.len(), expected.len(), "{traced}");
        for (line, round) in samples.iter().zip(&expected) {
            let time = format!("t = {:>8.2}", *round as f64 * round_duration);
            assert!(line.contains(&time), "{line} should sample round {round}");
        }
        assert!(samples.last().unwrap().ends_with("worst progress 100.0%"));
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
        for (flag, value) in [
            ("--chunks", "0"),
            ("--jitter", "1.5"),
            ("--jitter", "nan"),
            ("--live", "0"),
            ("--live", "-1"),
            ("--live", "nan"),
            ("--live", "inf"),
        ] {
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
    fn a_solved_scheme_file_simulates_with_repair() {
        let instance = instance_path();
        let scheme = temp_path("sim-solved.json").to_str().unwrap().to_string();
        let solve = ArgList::parse(&[
            "--instance".to_string(),
            instance.clone(),
            "--out".into(),
            scheme.clone(),
        ])
        .unwrap();
        crate::cmd_solve::run(&solve, &mut Vec::new()).unwrap();
        let output = run_args(vec![
            "--scheme".into(),
            scheme.clone(),
            "--chunks".into(),
            "120".into(),
            "--churn".into(),
            "4:busiest".into(),
            "--repair".into(),
        ])
        .unwrap();
        assert!(output.contains("adaptation repair"));
        assert!(output.contains("controller telemetry"));
        std::fs::remove_file(instance).ok();
        std::fs::remove_file(scheme).ok();
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
        for args in [
            vec!["--scheme".to_string(), scheme.clone(), "--repair".into()],
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--churn".into(),
                "5:3".into(),
                "--trace".into(),
            ],
            vec![
                "--scheme".to_string(),
                scheme.clone(),
                "--churn".into(),
                "5:3".into(),
                "--floor".into(),
                "2.0".into(),
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

    /// Overwrites the value at `path` in the JSON `file` with the raw JSON text `raw`,
    /// which may be a number the serializer cannot write (`1e400` reads as infinity).
    fn overwrite_raw(file: &str, path: &[&str], raw: &str) {
        edit_json(file, |value| {
            *at(value, path) = serde::Value::Str("overwritten".into());
        });
        let text = std::fs::read_to_string(file).unwrap();
        std::fs::write(file, text.replacen("\"overwritten\"", raw, 1)).unwrap();
    }

    /// Halts a repair run after 20 rounds, applies `change` to its checkpoint file, and
    /// requires `--resume` to refuse the file with a [`CliError::InvalidCheckpoint`]
    /// whose message contains `expected`.
    fn corrupted_checkpoint_is_refused(change: impl FnOnce(&str), expected: &str) {
        let scheme = scheme_path();
        let checkpoint = temp_path("sim-corrupt.json").to_str().unwrap().to_string();
        run_args(vec![
            "--scheme".into(),
            scheme.clone(),
            "--churn".into(),
            "5:3;12:+3".into(),
            "--repair".into(),
            "--checkpoint".into(),
            checkpoint.clone(),
            "--halt-after".into(),
            "20".into(),
        ])
        .unwrap();
        change(&checkpoint);
        match run_args(vec!["--resume".into(), checkpoint.clone()]) {
            Err(CliError::InvalidCheckpoint(message)) => {
                assert!(message.contains(expected), "{message}");
            }
            other => panic!("expected an invalid-checkpoint error, got {other:?}"),
        }
        std::fs::remove_file(scheme).ok();
        std::fs::remove_file(checkpoint).ok();
    }

    /// One test per corruption that overwrites the value at a checkpoint path with raw
    /// JSON text.
    macro_rules! overwrite_is_refused {
        ($($name:ident: $path:expr => $raw:expr, $expected:expr;)+) => {$(
            #[test]
            fn $name() {
                corrupted_checkpoint_is_refused(|file| overwrite_raw(file, &$path, $raw), $expected);
            }
        )+};
    }

    overwrite_is_refused! {
        resume_refuses_an_event_cursor_past_the_schedule:
            ["next_event"] => "99", "event cursor 99 is past the end";
        resume_refuses_a_recovery_index_outside_the_timeline:
            ["awaiting_recovery"] => "[42]", "recovery index 42";
        resume_refuses_a_zero_chunk_config:
            ["session", "config", "num_chunks"] => "0", "need at least one chunk";
        resume_refuses_an_infinite_chunk_size:
            ["session", "config", "chunk_size"] => "1e400", "chunk size must be finite";
        resume_refuses_an_infinite_round_duration:
            ["session", "config", "round_duration"] => "1e400", "round duration must be finite";
        resume_refuses_an_infinite_credit:
            ["session", "credit", "0"] => "1e400", "`credit`";
        resume_refuses_an_infinite_source_progress:
            ["session", "source_progress"] => "1e400", "`source_progress`";
        resume_refuses_an_infinite_nominal:
            ["nominal"] => "1e400", "`nominal`";
        resume_refuses_a_negative_nominal:
            ["nominal"] => "-1", "`nominal`";
        resume_refuses_churn_on_an_unknown_node:
            ["churn", "events", "0", "node"] => "500", "targets node 500";
        resume_refuses_a_negative_controller_bandwidth:
            ["controller", "open_bandwidths", "0"] => "-3.0", "invalid platform instance";
        resume_refuses_a_deployed_edge_outside_the_instance:
            ["controller", "deployed_edges", "0", "1"] => "999", "edge 0 -> 999 outside";
    }

    #[test]
    fn resume_refuses_a_truncated_chunk_count() {
        corrupted_checkpoint_is_refused(
            |file| {
                edit_json(file, |cp| {
                    let Array(count) = at(cp, &["session", "count"]) else {
                        panic!("count is an array");
                    };
                    count.pop();
                });
            },
            "`count` does not cover every node",
        );
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
    fn every_flag_outside_the_resume_allow_list_conflicts_with_resume() {
        let allowed =
            "only --checkpoint, --checkpoint-every, --halt-after, --report may accompany it";
        for &flag in FLAGS.flags {
            if flag == "--resume" || RESUME_ALLOWS.contains(&flag) {
                continue;
            }
            let mut args = vec![
                "--resume".to_string(),
                "never-read.json".into(),
                flag.into(),
            ];
            if !BOOLEAN_FLAGS.contains(&flag) {
                args.push("1".into());
            }
            match run_args(args) {
                Err(CliError::Usage(message)) => {
                    assert!(message.starts_with(&format!("{flag} conflicts with --resume")));
                    assert!(message.contains(allowed), "{message}");
                }
                other => panic!("{flag} with --resume: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn churn_rules_read_the_same_from_every_door() {
        let scheme = scheme_path();
        let checkpoint = temp_path("sim-churn-rules.json")
            .to_str()
            .unwrap()
            .to_string();
        run_args(vec![
            "--scheme".into(),
            scheme.clone(),
            "--churn".into(),
            "5:3;12:+3".into(),
            "--checkpoint".into(),
            checkpoint.clone(),
            "--halt-after".into(),
            "2".into(),
        ])
        .unwrap();
        let original = std::fs::read_to_string(&checkpoint).unwrap();
        for (time, node, spec) in [(5, 0, "5:0"), (-1, 3, "-1:3")] {
            let events = || {
                vec![ChurnEvent {
                    time: f64::from(time),
                    node,
                    action: ChurnAction::Depart,
                }]
            };
            let rule = ChurnSchedule::try_new(events()).unwrap_err();
            // The constructor panics with the rule.
            let panic = std::panic::catch_unwind(|| ChurnSchedule::new(events())).unwrap_err();
            assert_eq!(panic.downcast_ref::<String>(), Some(&rule));
            // The command line refuses the spec with the rule.
            let cli = ["--scheme", &scheme, "--churn", spec]
                .map(String::from)
                .to_vec();
            match run_args(cli) {
                Err(CliError::Usage(message)) => assert_eq!(message, rule),
                other => panic!("{spec}: expected a usage error, got {other:?}"),
            }
            // A checkpoint document holding the event is refused with the rule.
            std::fs::write(&checkpoint, &original).unwrap();
            edit_json(&checkpoint, |cp| {
                *at(cp, &["churn", "events", "0", "time"]) = serde::Value::I64(time.into());
                *at(cp, &["churn", "events", "0", "node"]) = serde::Value::I64(node as i64);
            });
            let message = run_args(vec!["--resume".into(), checkpoint.clone()])
                .unwrap_err()
                .to_string();
            assert!(message.contains(&rule), "{spec}: {message} lacks {rule}");
        }
        std::fs::remove_file(scheme).ok();
        std::fs::remove_file(checkpoint).ok();
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
