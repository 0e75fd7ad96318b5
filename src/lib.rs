//! Umbrella crate for the bounded multi-port broadcasting reproduction.
//!
//! This crate re-exports the public API of every sub-crate of the workspace so that
//! examples and downstream users only need a single dependency:
//!
//! * [`platform`] — LastMile / bounded multi-port platform instances and generators.
//! * [`flow`] — flow-network substrate (max-flow / min-cut).
//! * [`lp`] — dense two-phase simplex solver used for ground-truth cross checks.
//! * [`core`] — the paper's algorithms: bounds, Algorithm 1, Algorithm 2 + dichotomic
//!   search, the cyclic construction, coding words, ω-words and worst-case families.
//! * [`trees`] — decomposition of the overlays into weighted broadcast trees.
//! * [`sim`] — Massoulié-style randomized chunk streaming simulator over the overlays.
//! * [`experiments`] — statistics and runners that regenerate every table and figure.
//! * [`serve`] — sharded multi-session broadcast server with admission control and
//!   fleet metrics.

pub use bmp_core as core;
pub use bmp_experiments as experiments;
pub use bmp_flow as flow;
pub use bmp_lp as lp;
pub use bmp_platform as platform;
pub use bmp_serve as serve;
pub use bmp_sim as sim;
pub use bmp_trees as trees;

/// Convenience prelude bringing the most commonly used items into scope.
pub mod prelude {
    pub use bmp_core::{
        acyclic_guarded::AcyclicGuardedSolver,
        acyclic_open::acyclic_open_scheme,
        bounds::Bounds,
        cyclic_open::cyclic_open_scheme,
        scheme::BroadcastScheme,
        solver::{EvalCtx, Solution, Solver, Telemetry},
        word::CodingWord,
    };
    pub use bmp_platform::{
        distribution::BandwidthDistribution, generator::InstanceGenerator, instance::Instance,
        node::NodeClass,
    };
    pub use bmp_sim::{run_adaptive, ChurnSchedule, SimConfig, StaticPolicy};
}

/// Every solver in the workspace: the `bmp-core` registry plus the tree-decomposition
/// adapter of `bmp-trees` — the same list the CLI dispatches through
/// `solve --algorithm NAME`.
pub use bmp_trees::full_registry;

#[cfg(test)]
mod tests {
    #[test]
    fn full_registry_includes_core_and_trees() {
        let names: Vec<&str> = super::full_registry().iter().map(|s| s.name()).collect();
        assert!(names.len() >= 6);
        assert!(names.contains(&"acyclic-guarded"));
        assert!(names.contains(&"tree-decomposition"));
    }
}
