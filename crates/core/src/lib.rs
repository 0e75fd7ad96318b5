//! Broadcast scheduling under the bounded multi-port model with open and guarded nodes.
//!
//! This crate implements the algorithmic contribution of *"Broadcasting on Large Scale
//! Heterogeneous Platforms under the Bounded Multi-Port Model"* (Beaumont, Bonichon,
//! Eyraud-Dubois, Uznański, Agrawal):
//!
//! | Problem | Module | Result |
//! |---|---|---|
//! | Acyclic, open nodes only | [`acyclic_open`] | optimal throughput `min(b₀, S_{n−1}/n)`, degree `⌈bᵢ/T⌉ + 1` (Algorithm 1) |
//! | Acyclic, with guarded nodes | [`greedy`], [`acyclic_guarded`] | linear-time feasibility test (Algorithm 2), dichotomic search, degrees `+1`/`+2`/`+3` (Theorem 4.1) |
//! | Cyclic, open nodes only | [`cyclic_open`] | optimal throughput `min(b₀, (b₀+O)/n)`, degree `max(⌈bᵢ/T⌉+2, 4)` (Theorem 5.2) |
//! | Cyclic, with guarded nodes | [`bounds`], [`worst_case`] | closed-form optimum (Lemma 5.1), unbounded-degree family (Figure 6) |
//! | Cyclic/acyclic comparison | [`omega`], [`homogeneous`], [`worst_case`] | tight 5/7 bound (Theorem 6.2), `(1+√41)/8` family (Theorem 6.3) |
//! | Complexity | [`reduction`] | 3-PARTITION reduction of Theorem 3.1 |
//!
//! Ground-truth oracles for the tests and experiments live in [`exhaustive`] (enumeration of
//! increasing orders) and [`lp_check`] (linear programming via `bmp-lp`). Broadcast schemes
//! themselves, and their throughput evaluation by max-flow (`bmp-flow`), live in [`scheme`].
//!
//! # Architecture: the unified solver API
//!
//! The algorithms above are uniformly exposed through the [`solver`] module, which is the
//! entry point every layer (CLI, experiments, benchmarks) programs against:
//!
//! * [`solver::Solver`] — the trait every algorithm implements: `name()`, `describe()`,
//!   `solve(&Instance, &mut EvalCtx) -> Result<Solution, CoreError>`.
//! * [`solver::Solution`] — the uniform result: scheme, claimed (and verified) throughput,
//!   optional coding word, algorithm label, and [`solver::Telemetry`] (flow solves,
//!   bisection probes, wall time).
//! * [`solver::EvalCtx`] — the evaluation context owning the flow arena and solver
//!   workspace, and the only throughput-evaluation path: `BroadcastScheme::throughput`
//!   is a convenience over a fresh context, and churn residuals are masked evaluations
//!   on the same arena. It keeps one arena across evaluations and rebuilds it in its
//!   own buffers on each one, so re-scoring schemes of one size allocates nothing.
//!   [`solver::EvalCtx::verify`] is the one claim check: every solve's self-verification
//!   and every experiment's certification of a claimed throughput go through it.
//! * [`solver::registry`] — enumerates the built-in solvers (`acyclic-guarded`,
//!   `acyclic-open`, `cyclic-open`, `exhaustive`, `omega-word`, `auto`); downstream
//!   crates append their own implementations (`bmp-trees` ships a tree-decomposition
//!   adapter, assembled into the full list by the CLI).
//! * [`search::DichotomicSearch`] — the one shared bisection driver behind every
//!   dichotomic search in the crate, reporting its probe count for telemetry.
//!
//! The pre-existing free functions and builder types ([`AcyclicGuardedSolver`],
//! [`acyclic_open::acyclic_open_scheme`], [`cyclic_open::cyclic_open_scheme`], …) remain
//! supported thin entry points; the trait implementations delegate to them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acyclic_guarded;
pub mod acyclic_open;
pub mod bounds;
pub mod churn;
pub mod conservative;
pub mod cyclic_open;
pub mod depth;
pub mod error;
pub mod exhaustive;
pub mod export;
pub mod faults;
pub mod greedy;
pub mod homogeneous;
pub mod lp_check;
pub mod omega;
pub mod reduction;
pub mod scheme;
pub mod search;
pub mod solver;
pub mod word;
pub mod worst_case;

pub use acyclic_guarded::{AcyclicGuardedSolver, AcyclicSolution};
pub use acyclic_open::{acyclic_open_optimal_scheme, acyclic_open_scheme};
pub use bounds::Bounds;
pub use cyclic_open::{cyclic_open_optimal_scheme, cyclic_open_scheme};
pub use error::CoreError;
pub use faults::{FaultSite, InjectedFaults};
pub use scheme::BroadcastScheme;
pub use search::DichotomicSearch;
pub use solver::{registry, EvalCtx, Solution, Solver, Telemetry};
pub use word::CodingWord;
