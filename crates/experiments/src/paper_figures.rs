//! Figures 1, 2 and 5: the paper's running example, its optimal cyclic scheme, its acyclic
//! schemes, and an end-to-end streaming simulation over the computed overlays.

use bmp_core::bounds::cyclic_upper_bound;
use bmp_core::scheme::BroadcastScheme;
use bmp_core::solver::{AcyclicGuardedAlgorithm, EvalCtx, Solver, Telemetry};
use bmp_core::word::CodingWord;
use bmp_platform::paper::figure1;
use bmp_sim::{run_adaptive, ChurnSchedule, Overlay, SimConfig, StaticPolicy};

/// The Figure 1/2/5 reproduction bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperFiguresReport {
    /// Optimal cyclic throughput of the Figure 1 instance (paper: 4.4).
    pub cyclic_optimum: f64,
    /// Optimal acyclic throughput (paper: 4).
    pub acyclic_optimum: f64,
    /// The coding word found by Algorithm 2 at the acyclic optimum (paper: ■©■©■).
    pub word: CodingWord,
    /// The explicit low-degree acyclic scheme (Figure 5).
    pub acyclic_scheme: BroadcastScheme,
    /// Outdegrees of the acyclic scheme, source first.
    pub outdegrees: Vec<usize>,
    /// Throughput of the acyclic scheme as its verification measured it: the smallest
    /// in-rate over the receivers, certified by the acyclic cut.
    pub measured_throughput: f64,
    /// Empirical delivery rate of the slowest receiver in the chunk-level simulation.
    pub simulated_rate: f64,
    /// Evaluation cost of the solve (cut certifications, flow solves, probes, wall time).
    pub telemetry: Telemetry,
}

/// Builds the report: solve the Figure 1 instance, re-verify the scheme by its cut and by
/// chunk-level simulation.
#[must_use]
pub fn run() -> PaperFiguresReport {
    let instance = figure1();
    let cyclic_optimum = cyclic_upper_bound(&instance);
    let solution = AcyclicGuardedAlgorithm
        .solve(&instance, &mut EvalCtx::new())
        .expect("the acyclic-guarded solver handles every instance");
    let measured_throughput = solution.verified_throughput;
    let overlay = Overlay::from_scheme(&solution.scheme);
    let sim_config = SimConfig {
        num_chunks: 400,
        chunk_size: 0.5,
        round_duration: 0.25,
        ..SimConfig::default()
    };
    let report = run_adaptive(
        overlay,
        sim_config,
        &ChurnSchedule::empty(),
        &mut StaticPolicy,
        measured_throughput,
    )
    .report;
    let simulated_rate = report.min_achieved_rate().unwrap_or(0.0);
    PaperFiguresReport {
        cyclic_optimum,
        acyclic_optimum: solution.throughput,
        word: solution.word.expect("acyclic-guarded always yields a word"),
        outdegrees: solution.scheme.outdegrees(),
        acyclic_scheme: solution.scheme,
        measured_throughput,
        simulated_rate,
        telemetry: solution.telemetry,
    }
}

impl PaperFiguresReport {
    /// Renders a human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Figure 1 instance: cyclic optimum T* = {:.3} (paper: 4.4)\n",
            self.cyclic_optimum
        ));
        out.push_str(&format!(
            "Optimal acyclic throughput T*_ac = {:.3} (paper: 4)\n",
            self.acyclic_optimum
        ));
        out.push_str(&format!("Algorithm 2 word: {}\n", self.word));
        out.push_str(&format!("Outdegrees: {:?}\n", self.outdegrees));
        out.push_str(&format!(
            "Cut-certified throughput: {:.3}\n",
            self.measured_throughput
        ));
        out.push_str(&format!(
            "Simulated worst-receiver rate: {:.3}\n",
            self.simulated_rate
        ));
        out.push_str(&format!(
            "Telemetry: {} cut certifications, {} flow solves, {} bisection iters, {:.3} ms\n",
            self.telemetry.cut_certifications,
            self.telemetry.flow_solves,
            self.telemetry.bisection_iters,
            self.telemetry.wall_time.as_secs_f64() * 1e3
        ));
        for (from, to, rate) in self.acyclic_scheme.edges() {
            out.push_str(&format!("  C{from} -> C{to} : {rate:.3}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_matches_the_paper() {
        let report = run();
        assert!((report.cyclic_optimum - 4.4).abs() < 1e-9);
        assert!((report.acyclic_optimum - 4.0).abs() < 1e-6);
        assert_eq!(report.word.to_string(), "gogog");
        assert!((report.measured_throughput - 4.0).abs() < 1e-6);
        assert!(report.simulated_rate > 0.85 * report.acyclic_optimum);
        // Degree bounds of Theorem 4.1 on this instance.
        assert!(report.outdegrees.iter().max().copied().unwrap_or(0) <= 4);
    }

    #[test]
    fn render_mentions_key_quantities() {
        let report = run();
        let text = report.render();
        assert!(text.contains("4.4"));
        assert!(text.contains("gogog"));
        assert!(text.contains("C0 -> C3"));
        assert!(text.contains("cut certifications"));
        // The acyclic scheme was certified by its cut, and the certified value is the
        // Dinic oracle's.
        assert!(report.telemetry.cut_certifications > 0);
        assert_eq!(report.telemetry.flow_solves, 0);
        let scheme = &report.acyclic_scheme;
        let instance = scheme.instance();
        let oracle = bmp_flow::FlowSolver::new().min_max_flow(
            &bmp_flow::FlowArena::from_edges(instance.num_nodes(), &scheme.edges()),
            0,
            &instance.receivers().collect::<Vec<_>>(),
        );
        let certified = report.measured_throughput;
        assert!((certified - oracle).abs() <= 1e-12 * certified.max(1.0));
    }
}
