//! Flow-network substrate for the bounded multi-port broadcast reproduction.
//!
//! The throughput of a broadcast scheme is *defined* (Section II-D of the paper) as the
//! minimum over all receivers of the maximum flow from the source in the weighted digraph of
//! transfer rates. Every algorithm, oracle and benchmark in the workspace is scored through
//! that definition, which makes this crate the hottest layer of the codebase.
//!
//! # Architecture: CSR arena + reusable solver workspace
//!
//! The kernel (module [`csr`]) separates the *immutable* description of a network from the
//! *mutable* state of a solve:
//!
//! * [`csr::FlowArena`] — a flat compressed-sparse-row arc arena (`start`/`to`/`partner`/
//!   `base_cap` arrays plus precomputed per-node in-capacities), built once per network.
//!   Residual arcs of a node are contiguous, so the hot BFS/DFS loops scan linear memory
//!   instead of chasing `Vec<Vec<usize>>` pointers. When only the *capacities* of a fixed
//!   edge set change (the dichotomic search re-scoring near-identical schemes),
//!   [`csr::FlowArena::set_edge_capacities`] rewrites them in place — equivalent to a
//!   from-scratch rebuild, without the CSR construction or its allocations. When the
//!   caller knows exactly *which* edges moved (a dirty-edge journal on the probed
//!   scheme), [`csr::FlowArena::patch_edge_capacities`] writes only those capacities and
//!   resums only the affected in-capacities — still bit-for-bit equal to a rebuild.
//! * [`csr::FlowSolver`] — a workspace owning every buffer the solvers mutate (residual
//!   capacities, levels, current-arc cursors, queues, push-relabel state). Buffers are
//!   reused across calls: in steady state a solve performs **zero heap allocation**.
//! * [`csr::FlowSolver::min_max_flow`] — batched multi-sink evaluation of
//!   `min_k maxflow(source → k)`: sinks are visited in ascending in-capacity order and each
//!   solve is capped at the running minimum, terminating early once the cap is reached (a
//!   sink whose flow reaches the running minimum cannot lower it). The result is exactly
//!   the minimum of the individually computed flows.
//!
//! # The worker-pool layer
//!
//! Large multi-sink evaluations fan out across [`pool::FlowPool`], a persistent pool of
//! long-lived workers, each owning a reusable [`csr::FlowSolver`] that stays warm across
//! evaluations. Workers are spawned lazily up to the pool cap and fed sink batches
//! through a channel; every evaluation shares its running minimum through an atomic, and
//! the submitting thread always works a share itself. [`pool::FlowPool::global`] is the
//! process-wide instance (capped at 8 workers, the same ceiling as
//! [`suggested_flow_threads`]) shared by [`min_max_flow_parallel`] and the parallel
//! evaluation mode of `bmp-core`'s `EvalCtx`, so the machine-wide flow-thread count stays
//! bounded no matter how many contexts request parallelism. Arenas travel to the workers
//! as `Arc<FlowArena>` clones that are dropped before the submitter is released — a
//! context that owns the only other reference keeps patching its retained arena in place.
//!
//! [`suggested_flow_threads`] decides when fan-out pays at all: sequential below 512
//! nodes / 96 sinks, available parallelism capped at 8 above. The fan-out is bit-for-bit
//! equal to the sequential batched evaluation.
//!
//! # Incremental reuse: warm residual states
//!
//! Consecutive dichotomic probes evaluate the *same* arc structure under rescaled
//! capacities, so the previous probe's feasible flow is one capacity-delta away from a
//! valid warm start. Module [`incremental`] retains that state per
//! `(arena epoch, source, sink)` in a [`incremental::WarmFlowCache`]:
//!
//! * **State machine** — a warm solve diffs the state's capacity snapshot against the
//!   arena (`O(m)`), widens forward residuals for increases, and for decreases that
//!   undercut committed flow drains the severed units back along reverse residual
//!   paths (excess to the source avoiding the sink, deficit from the sink avoiding the
//!   source) before re-augmenting from the retained flow. If the retained value already
//!   meets the caller's limit it is returned as a one-sided certificate with zero
//!   augmentation; if augmentation converges *below* the limit, the exact value is
//!   recomputed cold and the state reseeded — so every number that can steer brackets,
//!   probe verdicts or the final solution is produced by the cold arithmetic, and warm
//!   mode is bit-for-bit equivalent to cold mode end to end.
//! * **Invalidation rules** — states key on [`csr::FlowArena::epoch`], a process-unique
//!   id minted by `from_edges`. Rebuilding an arena (edge-*set* change, e.g. churn
//!   survivors) mints a new epoch and orphans old states; in-place capacity updates
//!   (`set_edge_capacities`, journal patches via `patch_edge_capacities`, including
//!   through `Arc::make_mut`) keep the epoch and are absorbed by the snapshot diff. A
//!   failed drain invalidates just that state and falls back to the always-correct cold
//!   path.
//! * **Plumbing** — `bmp-core`'s `EvalCtx` owns a cache for sequential evaluation and
//!   each [`pool::FlowPool`] worker owns one for fanned-out evaluation (reset alongside
//!   the solver on panic containment); the `BMP_INCREMENTAL` / `--incremental` /
//!   `EvalCtx::set_incremental` knob gates the whole path, and the
//!   `flows_warm_started` / `augment_saved` / `excess_drained` telemetry makes reuse
//!   observable.
//!
//! # Entry points
//!
//! * [`graph::FlowNetwork`] — edge-list builder API with `O(1)` in-capacity queries,
//! * [`dinic`] — Dinic's blocking-flow algorithm (the default solver),
//! * [`edmonds_karp`] — the shortest-augmenting-path algorithm (used as a cross-check),
//! * [`push_relabel`] — a FIFO push-relabel implementation (second cross-check),
//! * [`mincut`] — minimum-cut extraction from a maximum flow,
//! * [`eps`] — tolerant floating-point comparisons shared by the whole workspace.
//!
//! The free functions build a one-shot arena per call and remain the convenient API for
//! single solves; hot paths (scheme throughput, churn analysis, benchmarks) hold a
//! [`csr::FlowArena`] and reuse a [`csr::FlowSolver`].
//!
//! All algorithms operate on `f64` capacities; comparisons use the tolerances of [`eps`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod dinic;
pub mod edmonds_karp;
pub mod eps;
pub mod graph;
pub mod incremental;
pub mod mincut;
pub mod pool;
pub mod push_relabel;

pub use csr::{min_max_flow_parallel, suggested_flow_threads, FlowArena, FlowSolver};
pub use dinic::dinic_max_flow;
pub use edmonds_karp::edmonds_karp_max_flow;
pub use graph::{EdgeId, FlowNetwork, FlowResult};
pub use incremental::{WarmFlowCache, WarmStats};
pub use mincut::{min_cut, MinCut};
pub use pool::{arm_worker_panics, disarm_worker_panics, FlowPool, WorkerPanicGuard};
pub use push_relabel::push_relabel_max_flow;

/// Maximum-flow value from `source` to `sink` computed with the default solver (Dinic).
#[must_use]
pub fn max_flow_value(network: &FlowNetwork, source: usize, sink: usize) -> f64 {
    FlowSolver::with_capacity(network.num_nodes(), network.num_edges()).max_flow(
        &network.arena(),
        source,
        sink,
    )
}

/// Minimum over `sinks` of the maximum flow from `source` (batched evaluation).
///
/// Convenience wrapper over [`csr::FlowSolver::min_max_flow`] for one-shot callers; hot
/// paths should build the arena once and reuse a solver. Returns `f64::INFINITY` when
/// `sinks` is empty.
#[must_use]
pub fn min_max_flow(network: &FlowNetwork, source: usize, sinks: &[usize]) -> f64 {
    FlowSolver::with_capacity(network.num_nodes(), network.num_edges()).min_max_flow(
        &network.arena(),
        source,
        sinks,
    )
}
