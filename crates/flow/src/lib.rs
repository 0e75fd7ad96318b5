//! Flow-network substrate for the bounded multi-port broadcast reproduction.
//!
//! The throughput of a broadcast scheme is *defined* (Section II-D of the paper) as the
//! minimum over all receivers of the maximum flow from the source in the weighted digraph of
//! transfer rates. Every algorithm, oracle and benchmark in the workspace is scored through
//! that definition, which makes this crate the hottest layer of the codebase.
//!
//! # One kernel: CSR arena + reusable Dinic workspace
//!
//! The kernel (module [`csr`]) separates the *immutable* description of a network from the
//! *mutable* state of a solve:
//!
//! * [`csr::FlowArena`] — the one way to build a network: a flat compressed-sparse-row arc
//!   arena (`start`/`to`/`partner`/`base_cap` arrays plus precomputed per-node
//!   in-capacities) built by [`csr::FlowArena::from_edges`] from `(from, to, capacity)`
//!   triples. Residual arcs of a node are contiguous, so the hot BFS/DFS loops scan linear
//!   memory. When only the *capacities* of a fixed edge set change (the dichotomic search
//!   re-scoring near-identical schemes), [`csr::FlowArena::set_edge_capacities`] rewrites
//!   them in place — equivalent to a from-scratch rebuild, without the CSR construction or
//!   its allocations.
//! * [`csr::FlowSolver`] — the one solver: Dinic's blocking-flow algorithm on a workspace
//!   owning every buffer a solve mutates (residual capacities, levels, current-arc
//!   cursors, the BFS queue). Buffers are reused across calls: in steady state a solve
//!   performs **zero heap allocation**. [`csr::FlowSolver::min_cut`] returns the minimum
//!   cut certifying a solve, and [`csr::FlowSolver::extract_edge_flows_into`] its per-edge
//!   flows.
//! * [`csr::FlowSolver::min_max_flow`] — batched multi-sink evaluation of
//!   `min_k maxflow(source → k)`: sinks are visited in ascending in-capacity order and each
//!   solve is capped at the running minimum, terminating early once the cap is reached (a
//!   sink whose flow reaches the running minimum cannot lower it). The result is exactly
//!   the minimum of the individually computed flows.
//!
//! The crate's property tests compare Dinic against an independent adjacency-list
//! Edmonds–Karp that shares no code with the kernel.
//!
//! [`FlowPool::min_max_flow_with`] fans one multi-sink evaluation out over scoped helper
//! threads that live for that call only, bit-for-bit equal to the sequential batched
//! evaluation; [`suggested_flow_threads`] decides when the fan-out pays (sequential below
//! 512 nodes / 96 sinks, available parallelism capped at 8 above).
//!
//! All capacities are `f64`; comparisons use the tolerances of [`eps`], which the whole
//! workspace shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod eps;
pub mod pool;

pub use csr::{suggested_flow_threads, FlowArena, FlowSolver, MinCut};
pub use pool::{arm_worker_panics, disarm_worker_panics, FlowPool, WorkerPanicGuard};
