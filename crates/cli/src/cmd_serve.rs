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
//! The resumed report is byte-identical to the uninterrupted run's. `--panic-session`
//! and `--wedge-session` inject deterministic session failures to exercise the
//! quarantine, watchdog and retry machinery end to end.

use crate::args::{ArgList, FlagSpec};
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
        "--threads",
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

/// The flags that describe the fleet itself (as opposed to scheduling and output):
/// these conflict with `--resume`, which carries the fleet description in the
/// checkpoint.
const RESUME_CONFLICTS: &[&str] = &[
    "--sessions",
    "--receivers",
    "--chunks",
    "--seed",
    "--floor",
    "--threads",
    "--max-sessions",
    "--capacity",
    "--repair-algorithm",
    "--churn",
    "--fault-plan",
    "--max-rounds",
    "--no-progress",
    "--retries",
    "--panic-session",
    "--wedge-session",
];

/// Parses a `START:SPACING:WAVES` churn feed specification.
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
    if !start.is_finite() || start < 0.0 || spacing <= 0.0 || !spacing.is_finite() {
        return Err(CliError::Usage(format!(
            "churn spec {raw:?}: start must be non-negative and spacing positive"
        )));
    }
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

/// Parses an optional non-negative integer flag.
fn get_optional<T: std::str::FromStr>(args: &ArgList, flag: &str) -> Result<Option<T>, CliError> {
    args.get(flag)
        .map(|raw| {
            raw.parse::<T>()
                .map_err(|_| CliError::Usage(format!("invalid value {raw:?} for {flag}")))
        })
        .transpose()
}

/// Builds the fleet configuration from scratch (the non-`--resume` path).
fn config_from_flags(args: &ArgList) -> Result<FleetConfig, CliError> {
    let sessions: usize = args.get_parsed("--sessions", 8)?;
    let shards: usize = args.get_parsed("--shards", 1)?;
    if sessions == 0 || shards == 0 {
        return Err(CliError::Usage(
            "--sessions and --shards must both be at least 1".into(),
        ));
    }
    let chunks: usize = args.get_parsed("--chunks", 60)?;
    if chunks == 0 {
        return Err(CliError::Usage("--chunks must be at least 1".into()));
    }
    let floor: f64 = args.get_parsed("--floor", 0.9)?;
    if !(floor > 0.0 && floor <= 1.0) {
        return Err(CliError::Usage(format!(
            "--floor {floor} must lie in (0, 1]"
        )));
    }
    let repair_algorithm = args.get("--repair-algorithm");
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
    let capacity = args
        .get("--capacity")
        .map(|raw| {
            raw.parse::<f64>()
                .map_err(|_| CliError::Usage(format!("invalid capacity {raw:?}")))
        })
        .transpose()?;
    let max_sessions = args
        .get("--max-sessions")
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| CliError::Usage(format!("invalid session cap {raw:?}")))
        })
        .transpose()?;
    let churn = match args.get("--churn") {
        Some(raw) => parse_churn(raw)?,
        None => ChurnConfig::default(),
    };
    let fault_plan = match args.get("--fault-plan") {
        Some(spec) => FaultPlan::parse(spec),
        None => FaultPlan::from_env(),
    };
    let supervision = SupervisionConfig {
        max_rounds: get_optional(args, "--max-rounds")?,
        no_progress_rounds: get_optional(args, "--no-progress")?,
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
        sessions,
        shards,
        receivers: args.get_parsed("--receivers", 4)?,
        chunks,
        seed: args.get_parsed("--seed", 0x5EED)?,
        floor,
        flow_threads: args.get_parsed("--threads", 1)?,
        repair_algorithm: repair_algorithm.map(str::to_string),
        admission: AdmissionPolicy {
            max_sessions,
            capacity,
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
/// Flags: `--sessions N` (default 8), `--shards K` (default 1), `--receivers R`
/// (default 4), `--chunks C` (at least 1, default 60), `--seed S`, `--floor F` (default
/// 0.9), `--threads T` (flow fan-out per controller), `--max-sessions N` /
/// `--capacity L` / `--queue` (admission policy), `--repair-algorithm NAME`, `--churn
/// START:SPACING:WAVES` (default `4:3:2`), `--fault-plan SPEC` (`storm`,
/// `storm:SEED`, `off`; unset reads `BMP_FAULT_PLAN`), `--report FILE` (fleet report
/// JSON), `--csv FILE` (per-session rows).
///
/// Supervision: `--max-rounds N` / `--no-progress N` override the derived watchdog
/// budgets, `--retries R` bounds panic re-admissions, `--panic-session S:R[:once]` /
/// `--wedge-session S:R` inject deterministic session failures.
///
/// Checkpointing: `--checkpoint FILE` streams a fleet checkpoint to FILE every
/// `--checkpoint-every K` waves (default 1), `--halt-after N` parks every session at
/// round N and halts (requires `--checkpoint`), and `--resume FILE` continues a
/// halted fleet — only `--shards` and the output flags may accompany it; the fleet
/// description comes from the checkpoint.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed flags, conflicting resume flags, or
/// unwritable output paths.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    let checkpoint_path = args.get("--checkpoint");
    let halt_after: Option<usize> = get_optional(args, "--halt-after")?;
    let checkpoint_every: usize = args.get_parsed("--checkpoint-every", 1)?;
    if checkpoint_path.is_none() {
        if halt_after.is_some() {
            return Err(CliError::Usage(
                "--halt-after requires --checkpoint (the parked fleet must be persisted)".into(),
            ));
        }
        if args.get("--checkpoint-every").is_some() {
            return Err(CliError::Usage(
                "--checkpoint-every requires --checkpoint".into(),
            ));
        }
    }
    let resume = match args.get("--resume") {
        Some(path) => {
            for flag in RESUME_CONFLICTS {
                if args.get(flag).is_some() {
                    return Err(CliError::Usage(format!(
                        "{flag} conflicts with --resume: the fleet description comes \
                         from the checkpoint (only --shards and output flags apply)"
                    )));
                }
            }
            if args.has("--queue") {
                return Err(CliError::Usage(
                    "--queue conflicts with --resume: the admission policy comes from \
                     the checkpoint"
                        .into(),
                ));
            }
            Some(files::read_fleet_checkpoint(path)?)
        }
        None => None,
    };
    let config = match &resume {
        Some(checkpoint) => {
            let mut config = checkpoint.config.clone();
            config.shards = args.get_parsed("--shards", config.shards)?;
            if config.shards == 0 {
                return Err(CliError::Usage("--shards must be at least 1".into()));
            }
            config
        }
        None => config_from_flags(args)?,
    };

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
                std::fs::write(path, report.to_json()).map_err(|e| {
                    CliError::Io(format!("cannot write fleet report {path:?}: {e}"))
                })?;
                writeln!(out, "fleet report written to {path}")?;
            }
            if let Some(path) = args.get("--csv") {
                std::fs::write(path, report.to_csv())
                    .map_err(|e| CliError::Io(format!("cannot write fleet CSV {path:?}: {e}")))?;
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
    use crate::files::testutil::temp_path;

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
        for args in [
            vec!["--sessions".to_string(), "0".into()],
            vec!["--shards".to_string(), "0".into()],
            vec!["--chunks".to_string(), "0".into()],
            vec!["--floor".to_string(), "1.5".into()],
            vec!["--churn".to_string(), "4:3".into()],
            vec!["--churn".to_string(), "4:-1:2".into()],
            vec!["--repair-algorithm".to_string(), "frobnicate".into()],
            vec!["--panic-session".to_string(), "1".into()],
            vec!["--panic-session".to_string(), "1:2:often".into()],
            vec!["--wedge-session".to_string(), "1:2:once".into()],
            vec!["--halt-after".to_string(), "5".into()],
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
    }
}
