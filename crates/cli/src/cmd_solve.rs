//! `solve` — compute a low-degree broadcast overlay for an instance.

use crate::args::{ArgList, FlagSpec};
use crate::error::CliError;
use crate::files;
use bmp_core::export::scheme_to_dot;
use bmp_core::solver::{EvalCtx, Solution, Solver};
use std::io::Write;

/// Flags accepted by `solve`.
pub const FLAGS: FlagSpec = FlagSpec {
    command: "solve",
    flags: &["--instance", "--algorithm", "--tolerance", "--out", "--dot"],
};

pub use bmp_trees::solver::full_registry;

/// One line per registered solver: `name — description`.
fn registry_listing(solvers: &[Box<dyn Solver>]) -> String {
    solvers
        .iter()
        .map(|solver| format!("  {:<20} {}", solver.name(), solver.describe()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Resolves `--algorithm` (default `acyclic-guarded`) against the full registry,
/// enumerating the registered solvers (with descriptions) on an unknown name.
fn pick_solver(args: &ArgList) -> Result<Box<dyn Solver>, CliError> {
    let requested = args.get("--algorithm").unwrap_or("acyclic-guarded");
    let mut solvers = full_registry();
    match solvers.iter().position(|s| s.name() == requested) {
        Some(index) => Ok(solvers.swap_remove(index)),
        None => Err(CliError::Usage(format!(
            "unknown algorithm {requested:?}; registered solvers:\n{}",
            registry_listing(&solvers)
        ))),
    }
}

/// Renders the uniform report every algorithm shares, from its [`Solution`].
fn report<W: Write>(solution: &Solution, out: &mut W) -> Result<(), CliError> {
    writeln!(out, "algorithm  : {}", solution.algorithm)?;
    if let Some(word) = &solution.word {
        writeln!(out, "word       : {word}")?;
    }
    let scheme = &solution.scheme;
    let acyclic = scheme.is_acyclic();
    writeln!(out, "throughput : {:.6}", solution.throughput)?;
    writeln!(
        out,
        "verified   : {:.6} ({})",
        solution.verified_throughput,
        if acyclic {
            "acyclic cut: smallest in-rate"
        } else {
            "max-flow"
        }
    )?;
    writeln!(out, "feasible   : {}", scheme.is_feasible())?;
    writeln!(out, "acyclic    : {acyclic}")?;
    writeln!(out, "edges      : {}", scheme.edges().len())?;
    writeln!(
        out,
        "outdegrees : {:?} (max excess over ceil(b_i/T): {})",
        scheme.outdegrees(),
        scheme.max_degree_excess(solution.throughput)
    )?;
    let telemetry = &solution.telemetry;
    writeln!(
        out,
        "telemetry  : {} cut certifications, {} flow solves, {} bisection iters, {:.3} ms",
        telemetry.cut_certifications,
        telemetry.flow_solves,
        telemetry.bisection_iters,
        telemetry.wall_time.as_secs_f64() * 1e3
    )?;
    Ok(())
}

/// Runs the `solve` subcommand.
///
/// Flags: `--instance FILE` (required), `--algorithm NAME` (registry dispatch; unknown
/// names list the registered solvers), `--tolerance EPS` (dichotomic search precision
/// in `(0, 1)`, default `1e-9`), `--out FILE` (write the scheme as JSON), `--dot FILE`
/// (write a Graphviz rendering).
///
/// Flow evaluations take [`EvalCtx`]'s automatic fan-out: sequential below 512 nodes
/// or 96 sinks, up to `min(cores, 8)` lanes above; the result is bit-identical to a
/// sequential solve.
///
/// # Errors
///
/// Returns a [`CliError`] when the instance cannot be read, the algorithm name is
/// unknown, the algorithm rejects the instance, or an output file cannot be written.
pub fn run<W: Write>(args: &ArgList, out: &mut W) -> Result<(), CliError> {
    args.reject_unknown_flags(&FLAGS)?;
    let solver = pick_solver(args)?;
    let instance = files::read_instance(args.require("--instance")?)?;
    let tolerance: f64 = args.get_parsed("--tolerance", 1e-9)?;
    if !(tolerance > 0.0 && tolerance < 1.0) {
        return Err(CliError::Usage(format!(
            "--tolerance {tolerance} must lie in (0, 1)"
        )));
    }

    let mut ctx = EvalCtx::with_tolerance(tolerance);
    let solution = solver.solve(&instance, &mut ctx)?;
    report(&solution, out)?;

    if let Some(path) = args.get("--out") {
        files::write_scheme(path, &solution.scheme)?;
        writeln!(out, "wrote scheme to {path}")?;
    }
    if let Some(path) = args.get("--dot") {
        files::write_text(path, &scheme_to_dot(&solution.scheme))?;
        writeln!(out, "wrote Graphviz rendering to {path}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::testutil::temp_path;
    use bmp_platform::paper::figure1;
    use bmp_platform::Instance;

    fn run_args(args: &[String]) -> Result<String, CliError> {
        let list = ArgList::parse(args)?;
        let mut out = Vec::new();
        run(&list, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn write_figure1() -> String {
        let path = temp_path("solve-instance.json");
        let path_str = path.to_str().unwrap().to_string();
        files::write_instance(&path_str, &figure1()).unwrap();
        path_str
    }

    fn write_open_instance(name: &str) -> String {
        let path = temp_path(name).to_str().unwrap().to_string();
        let instance = Instance::open_only(5.0, vec![5.0, 5.0, 3.0, 2.0]).unwrap();
        files::write_instance(&path, &instance).unwrap();
        path
    }

    #[test]
    fn solves_the_running_example_acyclically() {
        let instance_path = write_figure1();
        let scheme_path = temp_path("solve-scheme.json").to_str().unwrap().to_string();
        let dot_path = temp_path("solve.dot").to_str().unwrap().to_string();
        let output = run_args(&[
            "--instance".into(),
            instance_path.clone(),
            "--out".into(),
            scheme_path.clone(),
            "--dot".into(),
            dot_path.clone(),
        ])
        .unwrap();
        assert!(output.contains("algorithm  : acyclic-guarded"));
        assert!(output.contains("throughput : 4.0"));
        assert!(output.contains("feasible   : true"));
        assert!(output.contains("word       :"));
        // The acyclic scheme was verified by its cut, and the labels say so.
        assert!(output.contains("verified   : 4.000000 (acyclic cut: smallest in-rate)"));
        assert!(output.contains("telemetry  : 1 cut certifications, 0 flow solves,"));
        // The word comes after the algorithm header (uniform report order).
        assert!(output.find("algorithm").unwrap() < output.find("word").unwrap());
        let scheme = files::read_scheme(&scheme_path).unwrap();
        assert!(scheme.is_feasible());
        let dot = std::fs::read_to_string(&dot_path).unwrap();
        assert!(dot.starts_with("digraph"));
        for path in [instance_path, scheme_path, dot_path] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn registry_dispatch_covers_every_applicable_solver() {
        // The acceptance bar for the unified API: at least five distinct registry names
        // dispatchable through `--algorithm` on stock instances.
        let guarded_path = write_figure1();
        let open_path = write_open_instance("solve-open-dispatch.json");
        let mut dispatched = Vec::new();
        for solver in full_registry() {
            let name = solver.name();
            let path = match name {
                "acyclic-open" | "cyclic-open" => &open_path,
                _ => &guarded_path,
            };
            let output = run_args(&[
                "--instance".into(),
                path.clone(),
                "--algorithm".into(),
                name.into(),
            ])
            .unwrap_or_else(|e| panic!("--algorithm {name} failed: {e}"));
            assert!(output.contains("feasible   : true"), "{name}: {output}");
            assert!(output.contains("telemetry  :"), "{name}: {output}");
            // The verification label names the method that ran: max-flow only on the
            // cyclic construction.
            let method = if name == "cyclic-open" {
                "(max-flow)"
            } else {
                "(acyclic cut: smallest in-rate)"
            };
            assert!(output.contains(method), "{name}: {output}");
            dispatched.push(name);
        }
        assert!(dispatched.len() >= 5, "only dispatched {dispatched:?}");
        for path in [guarded_path, open_path] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn cyclic_solve_rejects_guarded_instances() {
        let path = write_figure1();
        let err = run_args(&[
            "--instance".into(),
            path.clone(),
            "--algorithm".into(),
            "cyclic-open".into(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Algorithm(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_algorithm_lists_the_registry() {
        let path = write_figure1();
        let err = run_args(&[
            "--instance".into(),
            path.clone(),
            "--algorithm".into(),
            "frobnicate".into(),
        ])
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("unknown algorithm"));
        for name in ["acyclic-guarded", "cyclic-open", "tree-decomposition"] {
            assert!(message.contains(name), "missing {name} in: {message}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn typoed_flag_is_rejected_with_the_accepted_list() {
        let err = run_args(&["--instnace".into(), "x.json".into()]).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("--instnace"));
        assert!(message.contains("--instance"));
        assert!(message.contains("--algorithm"));
    }

    #[test]
    fn missing_instance_flag() {
        assert!(matches!(run_args(&[]), Err(CliError::Usage(_))));
    }
}
