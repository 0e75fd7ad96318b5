//! `export` — render a broadcast scheme as Graphviz DOT or CSV.

use crate::args::{ArgList, FlagSpec};
use crate::error::CliError;
use crate::files;
use bmp_core::export::{degrees_to_csv, scheme_to_csv, scheme_to_dot};
use std::io::Write;

/// Flags accepted by `export`.
pub const FLAGS: FlagSpec = FlagSpec {
    command: "export",
    flags: &["--scheme", "--format", "--throughput", "--out"],
};

/// Runs the `export` subcommand.
///
/// Flags: `--scheme FILE` (required), `--format dot|edges|degrees` (default dot),
/// `--throughput T` (finite and positive, used by the `degrees` format; defaults to the
/// scheme's max-flow throughput), `--out FILE` (write to a file instead of printing).
///
/// # Errors
///
/// Returns a [`CliError`] when the scheme cannot be read, the format is unknown or the output
/// file cannot be written.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    let scheme = files::read_scheme(args.require("--scheme")?)?;
    let format = args.get("--format").unwrap_or("dot");
    let rendered = match format {
        "dot" => scheme_to_dot(&scheme),
        "edges" | "csv" => scheme_to_csv(&scheme),
        "degrees" => {
            let throughput = args.get_positive("--throughput", scheme.throughput())?;
            degrees_to_csv(&scheme, throughput)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown export format {other:?} (expected dot, edges or degrees)"
            )))
        }
    };
    match args.get("--out") {
        Some(path) => {
            files::write_text(path, &rendered)?;
            writeln!(out, "wrote {format} export to {path}")?;
        }
        None => out.write_all(rendered.as_bytes())?,
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
        let path = temp_path("export-scheme.json")
            .to_str()
            .unwrap()
            .to_string();
        files::write_scheme(&path, &solution.scheme).unwrap();
        path
    }

    fn run_args(args: Vec<String>) -> Result<String, CliError> {
        let list = ArgList::parse(&args)?;
        let mut out = Vec::new();
        run(&list, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn exports_dot_to_stdout_by_default() {
        let path = scheme_path();
        let output = run_args(vec!["--scheme".into(), path.clone()]).unwrap();
        assert!(output.starts_with("digraph broadcast"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exports_edge_and_degree_csv() {
        let path = scheme_path();
        let edges = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--format".into(),
            "edges".into(),
        ])
        .unwrap();
        assert!(edges.starts_with("from,to,rate"));
        let degrees = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--format".into(),
            "degrees".into(),
        ])
        .unwrap();
        assert!(degrees.starts_with("node,class,bandwidth"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exports_to_a_file() {
        let path = scheme_path();
        let out_path = temp_path("export.dot").to_str().unwrap().to_string();
        let output = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--out".into(),
            out_path.clone(),
        ])
        .unwrap();
        assert!(output.contains("wrote dot export"));
        assert!(std::fs::read_to_string(&out_path)
            .unwrap()
            .starts_with("digraph"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn unknown_format_is_a_usage_error() {
        let path = scheme_path();
        let err = run_args(vec![
            "--scheme".into(),
            path.clone(),
            "--format".into(),
            "png".into(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        std::fs::remove_file(path).ok();
    }
}
