//! `decompose` — split a broadcast scheme into weighted broadcast trees.

use crate::args::{ArgList, FlagSpec};
use crate::error::CliError;
use crate::files;
use bmp_trees::{decompose_acyclic, greedy_packing, stripe_message};
use std::io::Write;

/// Flags accepted by `decompose`.
pub const FLAGS: FlagSpec = FlagSpec {
    command: "decompose",
    flags: &["--scheme", "--throughput", "--message", "--out"],
};

/// Runs the `decompose` subcommand.
///
/// Flags: `--scheme FILE` (required), `--throughput T` (finite, positive rate to
/// decompose; defaults to the scheme's max-flow throughput), `--message M` (also print
/// the stripe plan for a message of finite, positive size `M`), `--out FILE` (write the
/// decomposition as JSON: the O(m) parent-run table of [`bmp_trees::decompose`]).
///
/// Acyclic schemes are decomposed exactly (interval decomposition); cyclic schemes fall back
/// to the greedy arborescence-packing heuristic.
///
/// # Errors
///
/// Returns a [`CliError`] when the scheme cannot be read or the decomposition fails.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    let scheme = files::read_scheme(args.require("--scheme")?)?;
    let throughput = args.get_positive("--throughput", scheme.throughput())?;

    let decomposition = if scheme.is_acyclic() {
        writeln!(
            out,
            "method     : exact interval decomposition (acyclic scheme)"
        )?;
        decompose_acyclic(&scheme, throughput)?
    } else {
        let packing = greedy_packing(&scheme)?;
        writeln!(
            out,
            "method     : greedy arborescence packing (cyclic scheme), efficiency {:.3}",
            packing.efficiency()
        )?;
        packing.decomposition
    };
    decomposition.verify(&scheme)?;

    writeln!(out, "throughput : {:.6}", decomposition.throughput())?;
    writeln!(out, "trees      : {}", decomposition.num_trees())?;
    writeln!(out, "max depth  : {}", decomposition.max_depth()?)?;
    for (index, tree) in decomposition.trees().enumerate() {
        let tree = tree?;
        writeln!(
            out,
            "  tree {index}: weight {:.4}, depth {}, edges {:?}",
            tree.weight(),
            tree.max_depth(),
            tree.edges()
        )?;
    }

    if args.get("--message").is_some() {
        let message = args.get_positive("--message", 0.0)?;
        let plan = stripe_message(&decomposition, message)?;
        writeln!(out, "stripe plan for a message of size {message}:")?;
        for (index, stripe) in plan.stripes.iter().enumerate() {
            writeln!(out, "  tree {index}: {stripe:.4}")?;
        }
    }

    if let Some(path) = args.get("--out") {
        files::write_text(path, &serde_json::to_string_pretty(&decomposition)?)?;
        writeln!(out, "wrote decomposition to {path}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::testutil::temp_path;
    use bmp_core::cyclic_open::cyclic_open_optimal_scheme;
    use bmp_core::AcyclicGuardedSolver;
    use bmp_platform::paper::{figure1, figure14};
    use bmp_trees::TreeDecomposition;

    fn run_args(args: Vec<String>) -> Result<String, CliError> {
        let list = ArgList::parse(&args)?;
        let mut out = Vec::new();
        run(&list, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn decomposes_an_acyclic_scheme() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let path = temp_path("dec-acyclic.json").to_str().unwrap().to_string();
        files::write_scheme(&path, &solution.scheme).unwrap();
        let json_path = temp_path("dec-out.json").to_str().unwrap().to_string();
        let output = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--message".into(),
            "100".into(),
            "--out".into(),
            json_path.clone(),
        ])
        .unwrap();
        assert!(output.contains("exact interval decomposition"));
        assert!(output.contains("trees      :"));
        assert!(output.contains("stripe plan"));
        let written: TreeDecomposition =
            serde_json::from_str(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
        written.verify(&solution.scheme).unwrap();
        let listed = format!("trees      : {}\n", written.num_trees());
        assert!(output.contains(&listed), "{output}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(json_path).ok();
    }

    #[test]
    fn falls_back_to_greedy_packing_on_cyclic_schemes() {
        let (scheme, _) = cyclic_open_optimal_scheme(&figure14()).unwrap();
        let path = temp_path("dec-cyclic.json").to_str().unwrap().to_string();
        files::write_scheme(&path, &scheme).unwrap();
        let output = run_args(vec!["--scheme".into(), path.clone()]).unwrap();
        assert!(output.contains("greedy arborescence packing"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_message_size_is_a_usage_error() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let path = temp_path("dec-bad.json").to_str().unwrap().to_string();
        files::write_scheme(&path, &solution.scheme).unwrap();
        for flag in ["--throughput", "--message"] {
            for value in ["huge", "0", "-1", "nan", "inf"] {
                let err = run_args(vec![
                    "--scheme".into(),
                    path.clone(),
                    flag.into(),
                    value.into(),
                ])
                .unwrap_err();
                match err {
                    CliError::Usage(message) => assert!(message.contains(flag), "{message}"),
                    other => panic!("{flag} {value}: expected a usage error, got {other:?}"),
                }
            }
        }
        std::fs::remove_file(path).ok();
    }
}
