//! Decomposition of broadcast schemes into weighted broadcast trees.
//!
//! Section II-C of the paper notes that the weighted overlay produced by the scheduling
//! algorithms "can be decomposed into a set of weighted broadcast trees" (Schrijver,
//! *Combinatorial Optimization*, vol. B, Chapter 53): a collection of spanning arborescences
//! rooted at the source, each carrying a share of the stream, whose shares sum to the
//! throughput and whose aggregate use of every overlay edge stays within the rate allocated
//! to that edge. The decomposition makes the schedule *operational* — it says which part of
//! the message travels over which edge — and is the classical alternative to running
//! Massoulié's randomized broadcast on the overlay (which `bmp-sim` simulates).
//!
//! * [`arborescence`] — spanning arborescences rooted at the source and their validation,
//! * [`decompose`] — the exact interval decomposition of *acyclic* schemes (the low-degree
//!   schemes built by `bmp-core` are all acyclic except for the cyclic construction of
//!   Theorem 5.2), and [`TreeDecomposition`], which stores any decomposition as one O(m)
//!   parent-run table — also its serialized (`bmp decompose --out`) form,
//!   `{"throughput", "weights", "runs"}` — and materializes one tree at a time,
//! * [`packing`] — a greedy packing heuristic that also handles cyclic schemes, measured
//!   against the Edmonds bound,
//! * [`stripe`] — striping a finite message over a decomposition and estimating per-node
//!   completion times under pipelined chunked transfer,
//! * [`solver`] — an adapter registering the tree-based schedule in the unified solver
//!   API (`bmp_core::solver`), so `solve --algorithm tree-decomposition` works alongside
//!   the core algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arborescence;
pub mod decompose;
pub mod error;
pub mod packing;
pub mod solver;
pub mod stripe;

pub use arborescence::Arborescence;
pub use decompose::{decompose_acyclic, TreeDecomposition};
pub use error::TreesError;
pub use packing::greedy_packing;
pub use solver::{full_registry, TreeDecompositionAlgorithm};
pub use stripe::{completion_estimate, makespan_estimate, stripe_message, StripePlan};
