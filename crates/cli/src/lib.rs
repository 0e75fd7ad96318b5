//! Command-line interface to the bounded multi-port broadcast toolkit.
//!
//! The binary (`bmp-cli`) exposes the full pipeline a platform operator would run:
//!
//! ```text
//! bmp-cli generate  --receivers 100 --open-prob 0.7 --dist plab --out platform.json
//! bmp-cli bounds    --instance platform.json
//! bmp-cli solve     --instance platform.json --out overlay.json --dot overlay.dot
//! bmp-cli verify    --scheme overlay.json
//! bmp-cli decompose --scheme overlay.json --message 1000
//! bmp-cli simulate  --scheme overlay.json --chunks 500 --policy rarest
//! bmp-cli export    --scheme overlay.json --format degrees
//! ```
//!
//! Every subcommand lives in its own module and is unit-tested through the same [`run`] entry
//! point the binary uses; the binary itself is a thin wrapper around [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod cmd_bounds;
pub mod cmd_decompose;
pub mod cmd_export;
pub mod cmd_generate;
pub mod cmd_serve;
pub mod cmd_simulate;
pub mod cmd_solve;
pub mod cmd_verify;
pub mod error;
pub mod files;

pub use error::CliError;

use args::ArgList;
use std::io::Write;

/// Usage text printed by `help` and on unknown commands.
pub const USAGE: &str = "\
bmp-cli — broadcasting under the bounded multi-port model

USAGE: bmp-cli <command> [flags]

COMMANDS:
  generate   sample a random platform instance          (--receivers, --open-prob, --dist, --seed, --source, --out)
  bounds     print closed-form and computed throughput bounds  (--instance)
  solve      compute a low-degree broadcast overlay     (--instance, --algorithm, --cyclic, --tolerance, --out, --dot)
  verify     check a scheme's constraints and degrees   (--scheme, --throughput)
  decompose  split a scheme into weighted broadcast trees  (--scheme, --throughput, --message, --out)
  simulate   run the chunk-level streaming simulator    (--scheme | --instance [--algorithm, --threads], --chunks,
             and the closed-loop session engine          --policy, --seed, --jitter, --live, --trace,
                                                         --churn SPEC, --repair, --floor)
  serve      run a sharded multi-session broadcast fleet  (--sessions, --shards, --receivers, --chunks, --seed,
             with admission control and fleet metrics     --floor, --threads, --max-sessions, --capacity, --queue,
                                                          --repair-algorithm, --churn START:SPACING:WAVES,
                                                          --fault-plan, --report FILE, --csv FILE)
  export     render a scheme as DOT or CSV              (--scheme, --format, --throughput, --out)
  help       print this message

`solve --algorithm NAME` dispatches any registered solver (acyclic-guarded,
acyclic-open, cyclic-open, exhaustive, omega-word, auto, tree-decomposition);
an unknown NAME lists the registry with one-line descriptions. Unrecognized
flags are rejected with the subcommand's accepted flag list.

`simulate --churn \"5:busiest;12:+3\"` injects scheduled departures/rejoins and
reports delivered goodput; adding `--repair` re-solves the surviving platform
on every membership change and hot-swaps the repaired overlay mid-broadcast.
With `--instance` the command solves and simulates in one shot. A `--scheme`
file that violates its constraints is refused; `verify` lists the violations.
";

/// Parses `args` (excluding the binary name) and runs the corresponding subcommand, writing
/// human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] describing bad usage, I/O problems or algorithm-level failures; the
/// binary prints it to stderr and exits with a non-zero status.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let parsed = ArgList::parse(args)?;
    match parsed.command.as_str() {
        "generate" => cmd_generate::run(&parsed, out),
        "bounds" => cmd_bounds::run(&parsed, out),
        "solve" => cmd_solve::run(&parsed, out),
        "verify" => cmd_verify::run(&parsed, out),
        "decompose" => cmd_decompose::run(&parsed, out),
        "simulate" => cmd_simulate::run(&parsed, out),
        "serve" => cmd_serve::run(&parsed, out),
        "export" => cmd_export::run(&parsed, out),
        "help" | "" => {
            parsed.reject_unknown_flags(&args::FlagSpec {
                command: "help",
                flags: &[],
            })?;
            out.write_all(USAGE.as_bytes())?;
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}; run `bmp-cli help` for the command list"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strings(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_is_printed_for_empty_and_help_commands() {
        assert!(run_strings(&[]).unwrap().contains("USAGE"));
        assert!(run_strings(&["help"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run_strings(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn full_pipeline_through_the_dispatcher() {
        let dir = std::env::temp_dir().join(format!("bmp-cli-pipeline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let instance = dir.join("instance.json");
        let scheme = dir.join("scheme.json");
        let instance = instance.to_str().unwrap();
        let scheme = scheme.to_str().unwrap();

        run_strings(&[
            "generate",
            "--receivers",
            "15",
            "--open-prob",
            "0.6",
            "--seed",
            "5",
            "--out",
            instance,
        ])
        .unwrap();
        let bounds = run_strings(&["bounds", "--instance", instance]).unwrap();
        assert!(bounds.contains("cyclic optimum"));
        let solve = run_strings(&["solve", "--instance", instance, "--out", scheme]).unwrap();
        assert!(solve.contains("feasible   : true"));
        let verify = run_strings(&["verify", "--scheme", scheme]).unwrap();
        assert!(verify.contains("constraints : satisfied"));
        let decompose = run_strings(&["decompose", "--scheme", scheme]).unwrap();
        assert!(decompose.contains("trees"));
        let export = run_strings(&["export", "--scheme", scheme, "--format", "edges"]).unwrap();
        assert!(export.starts_with("from,to,rate"));
        let simulate = run_strings(&[
            "simulate",
            "--scheme",
            scheme,
            "--chunks",
            "120",
            "--policy",
            "sequential",
        ])
        .unwrap();
        assert!(simulate.contains("all completed"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
