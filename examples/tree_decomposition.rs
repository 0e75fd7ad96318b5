//! Decompose a broadcast overlay into weighted broadcast trees and stripe a file over them.
//!
//! The paper (Section II-C) notes that the weighted overlay can be decomposed into a set of
//! weighted broadcast trees, which makes the schedule operational without the randomized data
//! plane: each tree carries a stripe of the message, pipelined down the tree in chunks. This
//! example builds the overlay for the paper's running instance, extracts the trees, stripes a
//! 100-unit file over them, and cross-checks the analytical completion estimate against the
//! chunk-level simulator.
//!
//! The decomposition is stored as a parent-run table (tree weights, plus per node the runs
//! of trees sharing its parent), O(m) in the overlay's edges; `trees()` materializes one
//! tree at a time, and serializing the decomposition writes that table as
//! `{"throughput", "weights", "runs"}`.
//!
//! Run with `cargo run --example tree_decomposition`.

use bmp::prelude::*;
use bmp::sim::Overlay;
use bmp::trees::{completion_estimate, decompose_acyclic, stripe_message};

fn main() {
    // The running example of the paper: 2 open nodes, 3 guarded nodes behind NATs.
    let instance = Instance::new(6.0, vec![5.0, 5.0], vec![4.0, 1.0, 1.0]).expect("valid instance");
    let solution = AcyclicGuardedSolver::default().solve(&instance);
    println!(
        "acyclic overlay: throughput {:.3}, {} edges",
        solution.throughput,
        solution.scheme.edges().len()
    );

    // Exact decomposition into spanning broadcast trees.
    let decomposition = decompose_acyclic(&solution.scheme, solution.throughput)
        .expect("acyclic schemes decompose");
    decomposition
        .verify(&solution.scheme)
        .expect("the decomposition respects every edge capacity");
    println!(
        "decomposition: {} trees summing to rate {:.3} (max depth {})",
        decomposition.num_trees(),
        decomposition.throughput(),
        decomposition.max_depth().expect("verified above")
    );
    for (index, tree) in decomposition.trees().enumerate() {
        let tree = tree.expect("verified above");
        println!(
            "  tree {index}: weight {:.3}, depth {}, edges {:?}",
            tree.weight(),
            tree.max_depth(),
            tree.edges()
        );
    }

    // Stripe a 100-unit file proportionally to the tree weights.
    let message = 100.0;
    let chunk = 0.5;
    let plan = stripe_message(&decomposition, message).expect("non-empty decomposition");
    println!("stripes for a {message}-unit file:");
    for (index, stripe) in plan.stripes.iter().enumerate() {
        println!("  tree {index}: {stripe:.2}");
    }

    // Analytical per-node completion estimate under pipelined chunked transfer.
    let estimate = completion_estimate(&decomposition, message, chunk).expect("valid inputs");
    println!("analytical completion estimates (chunk size {chunk}):");
    for (node, time) in estimate.iter().enumerate().skip(1) {
        println!("  C{node}: {time:.2}");
    }

    // Cross-check with the randomized chunk simulator on the same overlay.
    let config = SimConfig {
        num_chunks: (message / chunk) as usize,
        chunk_size: chunk,
        round_duration: 0.25,
        ..SimConfig::default()
    };
    let report = run_adaptive(
        Overlay::from_scheme(&solution.scheme),
        config,
        &ChurnSchedule::empty(),
        &mut StaticPolicy,
        solution.throughput,
    )
    .report;
    println!("simulated completion times (random-useful-chunk data plane):");
    for node in 1..instance.num_nodes() {
        match report.completion_time[node] {
            Some(time) => println!("  C{node}: {time:.2}"),
            None => println!("  C{node}: did not complete"),
        }
    }
    println!(
        "fluid lower bound: {:.2} time units (message / throughput)",
        message / solution.throughput
    );
}
