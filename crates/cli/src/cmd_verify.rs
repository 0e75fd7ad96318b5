//! `verify` — check a broadcast scheme against the model's constraints.

use crate::args::{ArgList, FlagSpec};
use crate::error::CliError;
use crate::files;
use bmp_core::solver::EvalCtx;
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
/// throughput; defaults to the throughput of the scheme itself).
///
/// Prints the feasibility violations (bandwidth, firewall, malformed rates), the
/// throughput (the smallest in-rate over the receivers when the scheme is acyclic, the
/// smallest max-flow to a receiver otherwise) and the method that measured it, whether the scheme is acyclic, and the per-node degree excess with respect to
/// `⌈b_i / T⌉`.
///
/// # Errors
///
/// Returns a [`CliError`] when the scheme cannot be read.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    let scheme = files::read_scheme(args.require("--scheme")?)?;
    let violations = scheme.validate();
    // One evaluation measures the throughput and, by how it measured it, the shape: the
    // cut certificate applies exactly when the scheme's edges admit a topological order.
    let mut ctx = EvalCtx::new();
    let measured = ctx.throughput(&scheme);
    let acyclic = ctx.cut_certifications() == 1;
    let target = args.get_positive("--throughput", measured)?;

    if violations.is_empty() {
        writeln!(out, "constraints : satisfied")?;
    } else {
        writeln!(out, "constraints : {} violation(s)", violations.len())?;
        for violation in &violations {
            writeln!(out, "  - {violation:?}")?;
        }
    }
    let method = if acyclic {
        "acyclic cut: smallest in-rate over the receivers"
    } else {
        "max-flow from the source to every receiver"
    };
    writeln!(out, "throughput  : {measured:.6} ({method})")?;
    writeln!(out, "acyclic     : {acyclic}")?;
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
        assert!(output.contains("(acyclic cut: smallest in-rate over the receivers)"));
        assert!(output.contains("max degree excess"));
        assert!(output.contains("C0"));
        assert!(output.contains("guarded"));
    }

    #[test]
    fn a_cyclic_scheme_is_measured_by_max_flow() {
        let instance = bmp_platform::Instance::open_only(10.0, vec![4.0, 4.0, 1.0]).unwrap();
        let (scheme, throughput) =
            bmp_core::cyclic_open::cyclic_open_optimal_scheme(&instance).unwrap();
        let output = run_on(&scheme, &[]);
        assert!(output.contains("acyclic     : false"));
        assert!(output.contains(&format!(
            "throughput  : {throughput:.6} (max-flow from the source to every receiver)"
        )));
    }

    #[test]
    fn a_back_edge_at_dust_rate_leaves_the_scheme_acyclic() {
        // Dust is never an edge, so a back edge at a rate of at most `RATE_EPS` closes no
        // cycle: the cut certificate still measures the scheme.
        let mut scheme = AcyclicGuardedSolver::default().solve(&figure1()).scheme;
        let (from, to, _) = scheme.edges()[0];
        scheme.set_rate(to, from, bmp_core::scheme::RATE_EPS);
        let output = run_on(&scheme, &[]);
        assert!(output.contains("acyclic     : true"));
        assert!(output.contains("(acyclic cut: smallest in-rate over the receivers)"));
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
