//! Quickstart: build a small platform with open and guarded (NATed) nodes, compute a
//! low-degree acyclic broadcast overlay, and inspect it.
//!
//! Run with `cargo run --example quickstart`.

use bmp::core::bounds::cyclic_upper_bound;
use bmp::prelude::*;

fn main() {
    // A source with 6 Mbit/s of upload, two open nodes (5 Mbit/s each) and three guarded
    // nodes behind NATs (4, 1 and 1 Mbit/s) — this is the running example of the paper.
    let instance =
        Instance::new(6.0, vec![5.0, 5.0], vec![4.0, 1.0, 1.0]).expect("valid bandwidths");

    println!(
        "platform: n = {} open, m = {} guarded",
        instance.n(),
        instance.m()
    );
    println!(
        "cyclic optimum (Lemma 5.1): {:.3}",
        cyclic_upper_bound(&instance)
    );

    // Solve the acyclic problem: dichotomic search over the linear-time feasibility test.
    let solver = AcyclicGuardedSolver::default();
    let solution = solver.solve(&instance);
    println!("optimal acyclic throughput: {:.3}", solution.throughput);
    println!("increasing order (coding word): {}", solution.word);

    // The solution is an explicit overlay: who sends to whom, at which rate.
    println!("overlay edges:");
    for (from, to, rate) in solution.scheme.edges() {
        println!("  C{from} -> C{to} at {rate:.3}");
    }

    // Degree bounds of Theorem 4.1: every node handles few simultaneous connections.
    for node in instance.nodes() {
        println!(
            "  node C{} ({:?}, b = {}): outdegree {} (lower bound {})",
            node.id,
            node.class,
            node.bandwidth,
            solution.scheme.outdegree(node.id),
            node.degree_lower_bound(solution.throughput),
        );
    }

    // The throughput definition of the paper (the smallest max-flow to a receiver) is
    // re-checked; on this acyclic scheme it is the smallest in-rate over the receivers.
    println!(
        "cut-certified throughput: {:.3}",
        solution.scheme.throughput()
    );
}
