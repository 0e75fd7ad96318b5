//! `serve` — run a sharded multi-session broadcast fleet ([`bmp_serve`]).
//!
//! One process hosts N concurrent broadcast sessions behind admission control:
//!
//! ```text
//! bmp serve --sessions 64 --shards 4 --churn 4:3:2 --fault-plan storm \
//!           --max-sessions 48 --queue --report fleet.json --csv fleet.csv
//! ```
//!
//! The run is deterministic for a fixed seed regardless of `--shards` (per-session
//! RNG streams, ordered metric merge) — the report written for `--shards 1` and
//! `--shards 4` is byte-identical.
//!
//! Supervised fleets can be halted and resumed without changing any result:
//!
//! ```text
//! bmp serve --sessions 64 --checkpoint fleet.ckpt --halt-after 200
//! bmp serve --resume fleet.ckpt --shards 8 --report fleet.json
//! ```
//!
//! The resumed report is byte-identical to the uninterrupted run's. Only `--shards`,
//! the checkpoint flags and the output flags may accompany `--resume`; every other flag
//! describes the fleet, which the checkpoint fixes. `--panic-session` and
//! `--wedge-session` inject deterministic session failures to exercise the quarantine,
//! watchdog and retry machinery end to end.
//!
//! The fleet flags carry no rules of their own: fresh and resumed fleets alike meet
//! [`FleetConfig::validate`] (which holds the repair floor to
//! [`bmp_sim::RepairController::check_floor`]), the check a fleet checkpoint also meets.
//! `--report` and `--csv` create missing parent directories, like every CLI output.

use crate::args::{checkpoint_every, repair_algorithm, ArgList, FlagSpec};
use crate::error::CliError;
use crate::files;
use bmp_serve::{
    run_fleet_with, AdmissionPolicy, AdmissionVerdict, ChurnConfig, Disposition, FleetCheckpoint,
    FleetConfig, FleetOptions, FleetReport, FleetRun, QuarantineReason, SessionFaults,
    SessionPanic, SessionWedge, SupervisionConfig,
};
use bmp_sim::FaultPlan;
use std::io::Write;

/// Flags accepted by `serve`.
pub const FLAGS: FlagSpec = FlagSpec {
    command: "serve",
    flags: &[
        "--sessions",
        "--shards",
        "--receivers",
        "--chunks",
        "--seed",
        "--floor",
        "--max-sessions",
        "--capacity",
        "--queue",
        "--repair-algorithm",
        "--churn",
        "--fault-plan",
        "--report",
        "--csv",
        "--checkpoint",
        "--checkpoint-every",
        "--halt-after",
        "--resume",
        "--max-rounds",
        "--no-progress",
        "--retries",
        "--panic-session",
        "--wedge-session",
    ],
};

/// The flags that may accompany `--resume` — scheduling and output; the checkpoint
/// carries the fleet description, so every other flag conflicts.
const RESUME_ALLOWS: &[&str] = &[
    "--shards",
    "--checkpoint",
    "--checkpoint-every",
    "--halt-after",
    "--report",
    "--csv",
];

/// Parses a `START:SPACING:WAVES` churn feed specification; the ranges are
/// [`FleetConfig::validate`]'s to check, shared with resumed checkpoints.
fn parse_churn(raw: &str) -> Result<ChurnConfig, CliError> {
    let parts: Vec<&str> = raw.split(':').collect();
    if parts.len() != 3 {
        return Err(CliError::Usage(format!(
            "churn spec {raw:?} must be START:SPACING:WAVES (e.g. \"4:3:2\")"
        )));
    }
    let start: f64 = parts[0]
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid churn start {:?}", parts[0])))?;
    let spacing: f64 = parts[1]
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid churn spacing {:?}", parts[1])))?;
    let waves: usize = parts[2]
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid churn wave count {:?}", parts[2])))?;
    Ok(ChurnConfig {
        start,
        spacing,
        waves,
    })
}

/// Parses a `SESSION:ROUND` (optionally `SESSION:ROUND:once` when `allow_once`)
/// injected-fault specification.
fn parse_session_fault(
    raw: &str,
    flag: &str,
    allow_once: bool,
) -> Result<(usize, usize, bool), CliError> {
    let parts: Vec<&str> = raw.split(':').collect();
    let once = match parts.as_slice() {
        [_, _] => false,
        [_, _, tag] if allow_once && tag.trim() == "once" => true,
        _ => {
            let shape = if allow_once {
                "SESSION:ROUND or SESSION:ROUND:once"
            } else {
                "SESSION:ROUND"
            };
            return Err(CliError::Usage(format!(
                "{flag} spec {raw:?} must be {shape}"
            )));
        }
    };
    let session: usize = parts[0]
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag}: invalid session id {:?}", parts[0])))?;
    let round: usize = parts[1]
        .trim()
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag}: invalid round {:?}", parts[1])))?;
    Ok((session, round, once))
}

/// Builds the fleet configuration from scratch (the non-`--resume` path); the caller
/// validates it.
fn config_from_flags(args: &ArgList) -> Result<FleetConfig, CliError> {
    let repair_algorithm = repair_algorithm(args)?;
    let churn = match args.get("--churn") {
        Some(raw) => parse_churn(raw)?,
        None => ChurnConfig::default(),
    };
    let fault_plan = match args.get("--fault-plan") {
        Some(spec) => FaultPlan::try_parse(spec)
            .map_err(|message| CliError::Usage(format!("--fault-plan: {message}")))?,
        None => None,
    };
    let supervision = SupervisionConfig {
        max_rounds: args.get_optional("--max-rounds")?,
        no_progress_rounds: args.get_optional("--no-progress")?,
        max_retries: args.get_parsed("--retries", SupervisionConfig::default().max_retries)?,
        ..SupervisionConfig::default()
    };
    let mut session_faults = SessionFaults::default();
    if let Some(raw) = args.get("--panic-session") {
        let (session, round, once) = parse_session_fault(raw, "--panic-session", true)?;
        session_faults.panics.push(SessionPanic {
            session,
            round,
            transient: once,
        });
    }
    if let Some(raw) = args.get("--wedge-session") {
        let (session, round, _) = parse_session_fault(raw, "--wedge-session", false)?;
        session_faults.wedges.push(SessionWedge { session, round });
    }
    Ok(FleetConfig {
        sessions: args.get_parsed("--sessions", 8)?,
        shards: args.get_parsed("--shards", 1)?,
        receivers: args.get_parsed("--receivers", 4)?,
        chunks: args.get_parsed("--chunks", 60)?,
        seed: args.get_parsed("--seed", 0x5EED)?,
        floor: args.get_parsed("--floor", 0.9)?,
        // Sequential flow evaluations: the shard threads already own the cores.
        flow_threads: FleetConfig::default().flow_threads,
        repair_algorithm: repair_algorithm.map(str::to_string),
        admission: AdmissionPolicy {
            max_sessions: args.get_optional("--max-sessions")?,
            capacity: args.get_optional("--capacity")?,
            queue: args.has("--queue"),
        },
        churn,
        fault_plan,
        supervision,
        session_faults,
    })
}

/// Runs the `serve` subcommand.
///
/// Flags: `--sessions N` (default 8), `--shards K` (default 1), `--receivers R` (at
/// least 2, default 4), `--chunks C` (at least 1, default 60), `--seed S`, `--floor F`
/// (in `(0, 1]`, default 0.9), `--max-sessions N` / `--capacity L` / `--queue`
/// (admission policy), `--repair-algorithm NAME`, `--churn START:SPACING:WAVES`
/// (default `4:3:2`), `--fault-plan SPEC` (`storm`, `storm:SEED`, a bare seed, or
/// `off`; unset runs without faults), `--report FILE` (fleet report JSON), `--csv FILE`
/// (per-session rows). Flow evaluations stay sequential: the `K` shard threads already
/// own the cores.
///
/// Supervision: `--max-rounds N` / `--no-progress N` override the derived watchdog
/// budgets, `--retries R` bounds panic re-admissions, `--panic-session S:R[:once]` /
/// `--wedge-session S:R` inject deterministic session failures.
///
/// Checkpointing: `--checkpoint FILE` streams a fleet checkpoint to FILE every
/// `--checkpoint-every K` waves (default 1), `--halt-after N` parks every session at
/// round N and halts (requires `--checkpoint`), and `--resume FILE` continues a
/// halted fleet — only `--shards`, the checkpoint flags and the output flags may
/// accompany it; the fleet description comes from the checkpoint.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed flags, conflicting resume flags, or
/// unwritable output paths.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    if args.has("--resume") {
        args.reject_resume_conflicts(RESUME_ALLOWS)?;
    }
    let checkpoint_path = args.get("--checkpoint");
    let halt_after: Option<usize> = args.get_optional("--halt-after")?;
    let checkpoint_every = checkpoint_every(args, 1)?;
    if halt_after.is_some() && checkpoint_path.is_none() {
        return Err(CliError::Usage(
            "--halt-after requires --checkpoint (the parked fleet must be persisted)".into(),
        ));
    }
    let resume = args
        .get("--resume")
        .map(files::read_fleet_checkpoint)
        .transpose()?;
    let config = match &resume {
        Some(checkpoint) => FleetConfig {
            shards: args.get_parsed("--shards", checkpoint.config.shards)?,
            ..checkpoint.config.clone()
        },
        None => config_from_flags(args)?,
    };
    config
        .validate()
        .map_err(|message| CliError::Usage(format!("invalid fleet flags: {message}")))?;

    writeln!(
        out,
        "serving {} session(s) across {} shard(s) (receivers {}, chunks {}, seed {:#x}, floor {})",
        config.sessions, config.shards, config.receivers, config.chunks, config.seed, config.floor
    )?;
    let mut write_error: Option<CliError> = None;
    let outcome = {
        let mut sink = |checkpoint: &FleetCheckpoint| {
            if write_error.is_some() {
                return;
            }
            if let Some(path) = checkpoint_path {
                if let Err(e) = files::write_fleet_checkpoint(path, checkpoint) {
                    write_error = Some(e);
                }
            }
        };
        let options = FleetOptions {
            resume,
            halt_after,
            checkpoint_every: if checkpoint_path.is_some() {
                checkpoint_every
            } else {
                0
            },
            on_checkpoint: checkpoint_path
                .is_some()
                .then_some(&mut sink as &mut dyn FnMut(&FleetCheckpoint)),
        };
        run_fleet_with(&config, options)
    };
    if let Some(e) = write_error {
        return Err(e);
    }
    match outcome {
        FleetRun::Halted(checkpoint) => {
            let path = checkpoint_path.expect("--halt-after requires --checkpoint");
            files::write_fleet_checkpoint(path, &checkpoint)?;
            writeln!(
                out,
                "fleet halted before wave {} with {} session(s) pending; checkpoint \
                 written to {path} (continue with --resume {path})",
                checkpoint.next_wave,
                checkpoint.pending.len()
            )?;
        }
        FleetRun::Completed(report) => {
            render_summary(&report, out)?;
            if let Some(path) = args.get("--report") {
                files::write_text(path, &report.to_json())?;
                writeln!(out, "fleet report written to {path}")?;
            }
            if let Some(path) = args.get("--csv") {
                files::write_text(path, &report.to_csv())?;
                writeln!(out, "per-session CSV written to {path}")?;
            }
        }
    }
    Ok(())
}

/// Renders the human-readable fleet summary.
fn render_summary<W: Write>(report: &FleetReport, out: &mut W) -> Result<(), CliError> {
    let metrics = &report.metrics;
    writeln!(
        out,
        "admission : {} run, {} rejected, {} quarantined",
        metrics.sessions_run, metrics.sessions_rejected, metrics.sessions_quarantined
    )?;
    for decision in &report.admissions {
        if let AdmissionVerdict::Rejected { reason } = decision.verdict {
            writeln!(
                out,
                "  session {:>4} rejected ({reason:?}, load {:.2})",
                decision.session, decision.load
            )?;
        }
    }
    if !report.quarantined.is_empty() {
        writeln!(
            out,
            "quarantine: {} permanent, {} retried re-admission(s)",
            metrics.sessions_quarantined, metrics.session_retries
        )?;
        for record in &report.quarantined {
            let reason = match &record.reason {
                QuarantineReason::Panic { tag } => format!("panicked: {tag}"),
                QuarantineReason::Stuck {
                    rounds_without_progress,
                } => format!("stuck ({rounds_without_progress} rounds without progress)"),
                QuarantineReason::Budget { rounds } => {
                    format!("over round budget ({rounds} rounds)")
                }
            };
            let disposition = match record.disposition {
                Disposition::Retried { wave } => format!("retried in wave {wave}"),
                Disposition::Permanent => "permanently quarantined".to_string(),
            };
            writeln!(
                out,
                "  session {:>4} attempt {} (wave {}, round {}): {reason} — {disposition}",
                record.session, record.attempt, record.wave, record.round
            )?;
        }
    }
    writeln!(
        out,
        "goodput   : mean {:.1}% of nominal; histogram {:?}",
        100.0 * metrics.mean_goodput_vs_nominal,
        metrics.goodput_histogram
    )?;
    match (
        metrics.recovery_p50,
        metrics.recovery_p90,
        metrics.recovery_p99,
    ) {
        (Some(p50), Some(p90), Some(p99)) => writeln!(
            out,
            "recovery  : p50 {p50:.2} / p90 {p90:.2} / p99 {p99:.2} (simulated time)"
        )?,
        _ => writeln!(out, "recovery  : no repaired session recovered")?,
    }
    writeln!(
        out,
        "repairs   : {} swaps, {} repairs, {} attempts, {} degraded session(s)",
        metrics.total_swaps,
        metrics.total_repairs,
        metrics.total_attempts,
        metrics.degraded_sessions
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::BOOLEAN_FLAGS;
    use crate::files::testutil::{at, edit_json, temp_path};

    fn run_args(args: Vec<String>) -> Result<String, CliError> {
        let list = ArgList::parse(&args)?;
        let mut out = Vec::new();
        run(&list, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn a_small_fleet_serves_and_summarizes() {
        let output = run_args(vec![
            "--sessions".into(),
            "3".into(),
            "--shards".into(),
            "2".into(),
            "--chunks".into(),
            "24".into(),
        ])
        .unwrap();
        assert!(output.contains("serving 3 session(s) across 2 shard(s)"));
        assert!(output.contains("admission : 3 run, 0 rejected, 0 quarantined"));
        assert!(output.contains("goodput"));
    }

    #[test]
    fn reports_are_written_and_shard_agnostic() {
        let dir = std::env::temp_dir().join(format!("bmp-serve-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let common = |shards: &str, report: String| {
            run_args(vec![
                "--sessions".into(),
                "4".into(),
                "--shards".into(),
                shards.into(),
                "--chunks".into(),
                "24".into(),
                "--report".into(),
                report,
                "--csv".into(),
                path("fleet.csv"),
            ])
            .unwrap()
        };
        common("1", path("one.json"));
        common("3", path("three.json"));
        let one = std::fs::read(dir.join("one.json")).unwrap();
        let three = std::fs::read(dir.join("three.json")).unwrap();
        assert_eq!(one, three, "fleet report must not depend on shard count");
        let csv = std::fs::read_to_string(dir.join("fleet.csv")).unwrap();
        assert_eq!(csv.lines().count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_and_csv_create_their_directories() {
        let dir = temp_path("serve-new-dir");
        let report = dir.join("reports/fleet.json");
        let csv = dir.join("tables/fleet.csv");
        run_args(vec![
            "--sessions".into(),
            "2".into(),
            "--chunks".into(),
            "24".into(),
            "--report".into(),
            report.to_str().unwrap().into(),
            "--csv".into(),
            csv.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(std::fs::read_to_string(&report).unwrap().starts_with('{'));
        assert_eq!(std::fs::read_to_string(&csv).unwrap().lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_flag_outside_the_resume_allow_list_conflicts_with_resume() {
        let allowed = "only --shards, --checkpoint, --checkpoint-every, --halt-after, --report, \
                       --csv may accompany it";
        for &flag in FLAGS.flags {
            if flag == "--resume" || RESUME_ALLOWS.contains(&flag) {
                continue;
            }
            let mut args = vec![
                "--resume".to_string(),
                "never-read.ckpt".into(),
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
    fn halted_fleets_resume_to_the_uninterrupted_report() {
        let dir = temp_path("serve-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let base = |extra: Vec<String>| {
            let mut args = vec![
                "--sessions".to_string(),
                "4".into(),
                "--chunks".into(),
                "24".into(),
            ];
            args.extend(extra);
            run_args(args).unwrap()
        };
        base(vec!["--report".into(), path("full.json")]);
        let halted = base(vec![
            "--checkpoint".into(),
            path("fleet.ckpt"),
            "--halt-after".into(),
            "10".into(),
        ]);
        assert!(halted.contains("fleet halted"), "{halted}");
        let resumed = run_args(vec![
            "--resume".into(),
            path("fleet.ckpt"),
            "--shards".into(),
            "3".into(),
            "--report".into(),
            path("resumed.json"),
        ])
        .unwrap();
        assert!(resumed.contains("fleet report written"), "{resumed}");
        let full = std::fs::read(dir.join("full.json")).unwrap();
        let back = std::fs::read(dir.join("resumed.json")).unwrap();
        assert_eq!(
            full, back,
            "a halted-and-resumed fleet must reproduce the uninterrupted report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupted_fleet_checkpoint_is_refused_before_any_wave() {
        let dir = temp_path("serve-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let checkpoint = dir.join("fleet.ckpt").to_str().unwrap().to_string();
        run_args(vec![
            "--sessions".into(),
            "4".into(),
            "--chunks".into(),
            "24".into(),
            "--checkpoint".into(),
            checkpoint.clone(),
            "--halt-after".into(),
            "10".into(),
        ])
        .unwrap();
        let original = std::fs::read_to_string(&checkpoint).unwrap();
        // A pending session that cannot resume, and embedded configs the fleet cannot
        // run: each is refused with the reason, never a panic.
        for (field, value, prefix, reason) in [
            (
                &["pending", "0", "state", "run", "next_event"][..],
                99,
                "pending session ",
                "past the end of the schedule",
            ),
            (
                &["config", "receivers"],
                1,
                "fleet config: ",
                "two receivers",
            ),
            (&["config", "sessions"], 0, "fleet config: ", "one session"),
            (
                &["config", "supervision", "checkpoint_rounds"],
                0,
                "fleet config: ",
                "checkpoint cadence",
            ),
            (
                &["config", "churn", "spacing"],
                0,
                "fleet config: ",
                "churn spacing",
            ),
            (
                &["config", "admission", "capacity"],
                -5,
                "fleet config: ",
                "admission capacity",
            ),
            (
                &["config", "admission", "max_sessions"],
                1,
                "admission log: ",
                "recomputed from the fleet config",
            ),
        ] {
            std::fs::write(&checkpoint, &original).unwrap();
            edit_json(&checkpoint, |fleet| {
                *at(fleet, field) = serde::Value::I64(value)
            });
            match run_args(vec!["--resume".into(), checkpoint.clone()]) {
                Err(CliError::InvalidCheckpoint(message)) => {
                    assert!(message.starts_with(prefix), "{field:?}: {message}");
                    assert!(message.contains(reason), "{field:?}: {message}");
                }
                other => panic!("{field:?}: expected an invalid checkpoint, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_panics_are_quarantined_and_summarized() {
        let output = run_args(vec![
            "--sessions".into(),
            "3".into(),
            "--chunks".into(),
            "24".into(),
            "--panic-session".into(),
            "1:3".into(),
            "--retries".into(),
            "0".into(),
        ])
        .unwrap();
        assert!(
            output.contains("admission : 2 run, 0 rejected, 1 quarantined"),
            "{output}"
        );
        assert!(output.contains("permanently quarantined"), "{output}");
        assert!(output.contains("injected session panic"), "{output}");
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        let never_written = temp_path("serve-never-written.ckpt");
        let never_written = never_written.to_str().unwrap();
        for args in [
            vec!["--sessions".to_string(), "0".into()],
            vec!["--shards".to_string(), "0".into()],
            vec!["--chunks".to_string(), "0".into()],
            vec!["--floor".to_string(), "1.5".into()],
            vec!["--floor".to_string(), "nan".into()],
            vec!["--receivers".to_string(), "0".into()],
            vec!["--receivers".to_string(), "1".into()],
            vec!["--churn".to_string(), "4:3".into()],
            vec!["--churn".to_string(), "4:-1:2".into()],
            vec!["--churn".to_string(), "4:0:2".into()],
            vec!["--churn".to_string(), "-1:3:2".into()],
            vec!["--churn".to_string(), "1:1:99999999999".into()],
            vec!["--capacity".to_string(), "nan".into()],
            vec!["--capacity".to_string(), "-1".into()],
            vec!["--repair-algorithm".to_string(), "frobnicate".into()],
            vec!["--fault-plan".to_string(), "bogus".into()],
            vec!["--fault-plan".to_string(), "storm:abc".into()],
            vec!["--fault-plan".to_string(), "storm:".into()],
            vec!["--fault-plan".to_string(), "18446744073709551616".into()],
            vec!["--panic-session".to_string(), "1".into()],
            vec!["--panic-session".to_string(), "1:2:often".into()],
            vec!["--wedge-session".to_string(), "1:2:once".into()],
            vec!["--halt-after".to_string(), "5".into()],
            vec!["--checkpoint-every".to_string(), "2".into()],
            vec![
                "--checkpoint".to_string(),
                never_written.into(),
                "--checkpoint-every".into(),
                "0".into(),
            ],
            vec!["--max-rounds".to_string(), "many".into()],
            vec![
                "--resume".to_string(),
                "nope.ckpt".into(),
                "--sessions".into(),
                "4".into(),
            ],
        ] {
            assert!(
                matches!(run_args(args.clone()), Err(CliError::Usage(_))),
                "{args:?} should be a usage error"
            );
        }
        assert!(!std::path::Path::new(never_written).exists());
    }
}
