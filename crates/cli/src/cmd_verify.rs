//! `verify` — check a broadcast scheme against the model's constraints.

use crate::args::{ArgList, FlagSpec};
use crate::error::CliError;
use crate::files;
use bmp_platform::node::degree_lower_bound;
use std::io::Write;

/// Flags accepted by `verify`.
pub const FLAGS: FlagSpec = FlagSpec {
    command: "verify",
    flags: &["--scheme", "--throughput"],
};

/// Runs the `verify` subcommand.
///
/// Flags: `--scheme FILE` (required), `--throughput T` (finite, positive target
/// throughput; defaults to the max-flow throughput of the scheme itself).
///
/// Prints the feasibility violations (bandwidth, firewall, malformed rates), the max-flow
/// throughput, whether the scheme is acyclic, and the per-node degree excess with respect to
/// `⌈b_i / T⌉`.
///
/// # Errors
///
/// Returns a [`CliError`] when the scheme cannot be read.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    let scheme = files::read_scheme(args.require("--scheme")?)?;
    let violations = scheme.validate();
    let measured = scheme.throughput();
    let target = args.get_positive("--throughput", measured)?;

    if violations.is_empty() {
        writeln!(out, "constraints : satisfied")?;
    } else {
        writeln!(out, "constraints : {} violation(s)", violations.len())?;
        for violation in &violations {
            writeln!(out, "  - {violation:?}")?;
        }
    }
    writeln!(
        out,
        "throughput  : {measured:.6} (max-flow from the source to every receiver)"
    )?;
    writeln!(out, "acyclic     : {}", scheme.is_acyclic())?;
    writeln!(out, "node  class    bandwidth  outdegree  bound  excess")?;
    let instance = scheme.instance();
    for node in instance.nodes() {
        let outdegree = scheme.outdegree(node.id);
        let bound = degree_lower_bound(node.bandwidth, target);
        writeln!(
            out,
            "C{:<4} {:<8} {:>9.3}  {:>9}  {:>5}  {:>6}",
            node.id,
            format!("{:?}", node.class).to_lowercase(),
            node.bandwidth,
            outdegree,
            bound,
            outdegree as i64 - bound as i64
        )?;
    }
    writeln!(
        out,
        "max degree excess over ceil(b_i/T): {}",
        scheme.max_degree_excess(target)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::testutil::temp_path;
    use bmp_core::scheme::BroadcastScheme;
    use bmp_core::AcyclicGuardedSolver;
    use bmp_platform::paper::figure1;

    fn run_on(scheme: &BroadcastScheme, extra: &[&str]) -> String {
        let path = temp_path("verify-scheme.json");
        let path_str = path.to_str().unwrap();
        files::write_scheme(path_str, scheme).unwrap();
        let mut args = vec!["--scheme".to_string(), path_str.to_string()];
        args.extend(extra.iter().map(|s| (*s).to_string()));
        let list = ArgList::parse(&args).unwrap();
        let mut out = Vec::new();
        run(&list, &mut out).unwrap();
        std::fs::remove_file(path).ok();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn a_solver_scheme_verifies_cleanly() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let output = run_on(&solution.scheme, &[]);
        assert!(output.contains("constraints : satisfied"));
        assert!(output.contains("acyclic     : true"));
        assert!(output.contains("max degree excess"));
        assert!(output.contains("C0"));
        assert!(output.contains("guarded"));
    }

    #[test]
    fn violations_are_listed() {
        let mut scheme = BroadcastScheme::new(figure1());
        scheme.set_rate(3, 4, 1.0); // guarded -> guarded
        scheme.set_rate(4, 1, 5.0); // bandwidth of node 4 is 1
        let output = run_on(&scheme, &["--throughput", "1.0"]);
        assert!(output.contains("violation(s)"));
        assert!(output.contains("FirewallViolated"));
        assert!(output.contains("BandwidthExceeded"));
    }

    #[test]
    fn missing_scheme_flag_is_a_usage_error() {
        let list = ArgList::parse(&[]).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&list, &mut out), Err(CliError::Usage(_))));
    }
}
