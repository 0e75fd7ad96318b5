//! Command-line interface to the bounded multi-port broadcast toolkit.
//!
//! The binary (`bmp`, built from this `bmp-cli` crate) exposes the full pipeline a platform
//! operator would run:
//!
//! ```text
//! bmp generate  --receivers 100 --open-prob 0.7 --dist plab --out platform.json
//! bmp bounds    --instance platform.json
//! bmp solve     --instance platform.json --out overlay.json --dot overlay.dot
//! bmp verify    --scheme overlay.json
//! bmp decompose --scheme overlay.json --message 1000
//! bmp simulate  --scheme overlay.json --chunks 500 --policy rarest
//! bmp export    --scheme overlay.json --format degrees
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
bmp — broadcasting under the bounded multi-port model

USAGE: bmp <command> [flags]

COMMANDS:
  generate   sample a random platform instance          (--receivers, --open-prob, --dist, --seed, --source, --out)
  bounds     print closed-form and computed throughput bounds  (--instance)
  solve      compute a low-degree broadcast overlay     (--instance, --algorithm, --tolerance, --out, --dot)
  verify     check a scheme's constraints and degrees   (--scheme, --throughput)
  decompose  split a scheme into weighted broadcast trees  (--scheme, --throughput, --message, --out)
  simulate   step a scheme's broadcast in the session   (--scheme, --chunks, --policy, --seed, --jitter, --live,
             engine: frozen, or under churn and repair   --trace, --churn SPEC, --repair, --repair-algorithm,
                                                         --floor, --checkpoint FILE, --checkpoint-every,
                                                         --halt-after, --resume FILE, --report FILE)
  serve      run a sharded multi-session broadcast fleet  (--sessions, --shards, --receivers, --chunks, --seed,
             with admission control and fleet metrics     --floor, --max-sessions, --capacity, --queue,
                                                          --repair-algorithm, --churn START:SPACING:WAVES,
                                                          --fault-plan, --report FILE, --csv FILE,
                                                          --checkpoint FILE, --checkpoint-every, --halt-after,
                                                          --resume FILE, --max-rounds, --no-progress,
                                                          --retries, --panic-session, --wedge-session)
  export     render a scheme as DOT or CSV              (--scheme, --format, --throughput, --out)
  help       print this message

`solve --algorithm NAME` dispatches any registered solver (acyclic-guarded,
acyclic-open, cyclic-open, exhaustive, omega-word, auto, tree-decomposition);
an unknown NAME lists the registry with one-line descriptions. Unrecognized
flags are rejected with the subcommand's accepted flag list.

`solve`, `verify`, `simulate`, `decompose` and `export` split each flow
evaluation over up to min(cores, 8) lanes on platforms of at least 512 nodes
and 96 sinks; results are identical to a sequential run.

`simulate --churn \"5:busiest;12:+3\"` injects scheduled departures/rejoins and
reports delivered goodput; adding `--repair` re-solves the surviving platform
on every membership change and hot-swaps the repaired overlay mid-broadcast.
Simulate a solved overlay with `solve --out FILE` then `simulate --scheme FILE`.
A `--scheme` file that violates its constraints is refused; `verify` lists the
violations.
";

/// The hint the `bmp` binary prints under every error.
pub const USAGE_HINT: &str = "run `bmp help` for usage";

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
            "unknown command {other:?}; run `bmp help` for the command list"
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
    fn usage_and_hints_name_the_bmp_binary() {
        assert!(USAGE.starts_with("bmp — "), "{USAGE}");
        assert!(USAGE.contains("\nUSAGE: bmp <command> [flags]\n"));
        assert_eq!(USAGE_HINT, "run `bmp help` for usage");
        let err = run_strings(&["frobnicate"]).unwrap_err().to_string();
        assert!(err.contains("run `bmp help`"), "{err}");
        assert!(!USAGE.contains("bmp-cli") && !err.contains("bmp-cli"));
    }

    #[test]
    fn unknown_command_is_rejected() {
        let err = run_strings(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags_of_every_command() {
        let commands = USAGE
            .split_once("COMMANDS:\n")
            .and_then(|(_, rest)| rest.split("\n\n").next())
            .unwrap();
        for spec in [
            cmd_generate::FLAGS,
            cmd_bounds::FLAGS,
            cmd_solve::FLAGS,
            cmd_verify::FLAGS,
            cmd_decompose::FLAGS,
            cmd_simulate::FLAGS,
            cmd_serve::FLAGS,
            cmd_export::FLAGS,
        ] {
            // A command's entry is its own line plus the indented continuation lines.
            let heading = format!("  {} ", spec.command);
            let entry: Vec<&str> = commands
                .lines()
                .skip_while(|line| !line.starts_with(&heading))
                .enumerate()
                .take_while(|(index, line)| *index == 0 || line.starts_with("   "))
                .map(|(_, line)| line)
                .collect();
            assert!(!entry.is_empty(), "no USAGE entry for {}", spec.command);
            let listed: Vec<&str> = entry
                .iter()
                .flat_map(|line| line.split([' ', ',', '(', ')']))
                .filter(|word| word.starts_with("--"))
                .collect();
            for flag in spec.flags {
                assert!(listed.contains(flag), "USAGE omits {} {flag}", spec.command);
            }
            for flag in &listed {
                assert!(
                    spec.flags.contains(flag),
                    "USAGE lists {flag} but {} does not accept it",
                    spec.command
                );
            }
        }
    }

    #[test]
    fn retired_flags_are_usage_errors_naming_the_flag() {
        for (args, flag) in [
            (
                &["solve", "--instance", "i.json", "--threads", "2"][..],
                "--threads",
            ),
            (&["solve", "--instance", "i.json", "--cyclic"], "--cyclic"),
            (
                &["simulate", "--scheme", "s.json", "--threads", "2"],
                "--threads",
            ),
            (&["simulate", "--instance", "i.json"], "--instance"),
            (
                &["simulate", "--scheme", "s.json", "--algorithm", "auto"],
                "--algorithm",
            ),
            (&["serve", "--threads", "2"], "--threads"),
        ] {
            match run_strings(args) {
                Err(CliError::Usage(message)) => assert!(message.contains(flag), "{message}"),
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn numeric_flags_outside_their_domain_are_usage_errors() {
        let dir = std::env::temp_dir().join(format!("bmp-cli-numeric-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let instance = dir.join("instance.json").to_str().unwrap().to_string();
        let scheme = dir.join("scheme.json").to_str().unwrap().to_string();
        run_strings(&["generate", "--receivers", "6", "--out", &instance]).unwrap();
        run_strings(&["solve", "--instance", &instance, "--out", &scheme]).unwrap();
        let targets = ["-1", "0", "nan", "inf"];
        let cases: [(&[&str], &str, &[&str]); 3] = [
            (
                &["solve", "--instance", &instance],
                "--tolerance",
                &["0", "-1", "nan", "1", "2", "inf"],
            ),
            (&["verify", "--scheme", &scheme], "--throughput", &targets),
            (
                &["export", "--scheme", &scheme, "--format", "degrees"],
                "--throughput",
                &targets,
            ),
        ];
        for (command, flag, values) in cases {
            for value in values {
                let args = [command, &[flag, value]].concat();
                let result = run_strings(&args);
                assert!(
                    matches!(result, Err(CliError::Usage(_))),
                    "{args:?}: {result:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
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
