//! Adapter exposing the tree decomposition as a registered [`Solver`].
//!
//! The core registry (`bmp_core::solver::registry`) enumerates the algorithms of
//! `bmp-core`; this module contributes the tree-based schedule: solve the instance with
//! the acyclic-guarded algorithm (Theorem 4.1), decompose the resulting overlay into
//! weighted broadcast trees ([`decompose_acyclic`]), and return the overlay *implied by
//! the trees* — the scheme whose rate on each edge is the aggregate weight of the trees
//! using it. The trees are the operational data plane (each one says which share of the
//! stream travels over which edge), so this solver answers "what does the tree-shaped
//! deployment of the optimal acyclic schedule look like, and what does it cost?".
//!
//! The CLI appends this adapter to the core registry for `solve --algorithm`
//! dispatch; it lives here (not in `bmp-core`) because `bmp-trees` depends on
//! `bmp-core`, not the other way around.

use crate::decompose::decompose_acyclic;
use crate::error::TreesError;
use bmp_core::solver::{EvalCtx, Solution, SolveRecorder, Solver};
use bmp_core::{BroadcastScheme, CoreError};
use bmp_platform::Instance;

/// Tree-decomposition schedule: Theorem 4.1 overlay, re-expressed through its broadcast
/// trees.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeDecompositionAlgorithm;

impl Solver for TreeDecompositionAlgorithm {
    fn name(&self) -> &'static str {
        "tree-decomposition"
    }

    fn describe(&self) -> &'static str {
        "acyclic-guarded overlay decomposed into weighted broadcast trees (Section II-C), returned as the tree-aggregate scheme; any instance"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let base = bmp_core::solver::AcyclicGuardedAlgorithm.solve(instance, ctx)?;
        if base.throughput <= 0.0 {
            // Nothing to decompose; the empty overlay is already tree-shaped.
            return Ok(Solution {
                algorithm: self.name(),
                ..base
            });
        }
        let unsupported = |e: TreesError| CoreError::Unsupported {
            algorithm: "tree-decomposition",
            reason: e.to_string(),
        };
        let decomposition =
            decompose_acyclic(&base.scheme, base.throughput).map_err(unsupported)?;
        let mut scheme = BroadcastScheme::new(instance.clone());
        for (from, to, weight) in decomposition.used_edges().map_err(unsupported)? {
            // The trees cover each overlay edge up to its allocated rate; summing their
            // weights can overshoot it by accumulated rounding, so clamp to the base
            // rate to keep the aggregate scheme exactly as feasible as the base overlay.
            scheme.set_rate(from, to, weight.min(base.scheme.rate(from, to)));
        }
        recorder.finish(
            self.name(),
            ctx,
            decomposition.throughput(),
            base.word,
            scheme,
        )
    }
}

/// The core registry plus this crate's adapter — the full solver list the CLI and the
/// umbrella crate dispatch through. Defined once, here, because `bmp-trees` is the
/// highest crate in the dependency order that sees both sides.
#[must_use]
pub fn full_registry() -> Vec<Box<dyn Solver>> {
    let mut solvers = bmp_core::solver::registry();
    solvers.push(Box::new(TreeDecompositionAlgorithm));
    solvers
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::solver::AcyclicGuardedAlgorithm;
    use bmp_platform::paper::figure1;

    #[test]
    fn tree_solver_matches_the_base_throughput_on_figure1() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = TreeDecompositionAlgorithm
            .solve(&instance, &mut ctx)
            .unwrap();
        assert_eq!(solution.algorithm, "tree-decomposition");
        let base = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        // The trees carry the full base throughput and never over-use an edge, so the
        // aggregate scheme is feasible and achieves the same rate.
        assert!((solution.throughput - base.throughput).abs() < 1e-6);
        assert!(solution.scheme.is_feasible());
        assert!(solution.scheme.is_acyclic());
        assert!(solution.telemetry.flow_solves > 0);
        assert!(solution.telemetry.bisection_iters > 0);
        // Edge usage stays within the base overlay's rates.
        for (from, to, weight) in solution.scheme.edges() {
            assert!(weight <= base.scheme.rate(from, to) + 1e-9);
        }
    }

    #[test]
    fn full_registry_appends_the_adapter_once() {
        let names: Vec<&str> = full_registry().iter().map(|s| s.name()).collect();
        assert_eq!(names.last(), Some(&"tree-decomposition"));
        assert_eq!(
            names.len(),
            bmp_core::solver::registry().len() + 1,
            "adapter appended exactly once"
        );
    }

    #[test]
    fn tree_solver_handles_open_only_instances() {
        let instance = Instance::open_only(6.0, vec![5.0, 4.0, 3.0]).unwrap();
        let solution = TreeDecompositionAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        assert!(solution.throughput > 0.0);
        assert!(solution.scheme.is_feasible());
        assert_eq!(solution.word.as_ref().unwrap().num_open(), 3);
    }
}
