//! Striping a finite message over a tree decomposition.
//!
//! Once a scheme has been decomposed into weighted broadcast trees, broadcasting a message of
//! size `M` amounts to cutting it into one stripe per tree, proportional to the tree weights,
//! and pipelining each stripe down its tree in blocks. This module computes the stripe sizes
//! and a simple analytical estimate of the per-node completion times under that schedule,
//! which the `bmp-sim` chunk simulator can be checked against.
//!
//! The block size used on a tree is proportional to the tree's weight (`chunk · w / T`, as in
//! SplitStream-style striping), so every tree needs the same pipeline-fill time per hop:
//!
//! * a node at depth `d` in a tree of weight `w` finishes receiving that tree's stripe of size
//!   `s = M · w / T` at time `≈ s / w + d · chunk / T = M / T + d · chunk / T`,
//! * the node completes when the *last* of its stripes arrives, i.e. at
//!   `M / T + (chunk / T) · max_over_trees depth(node)`.

use crate::decompose::TreeDecomposition;
use crate::error::TreesError;
use serde::{Deserialize, Serialize};

/// How a message is split over the trees of a decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripePlan {
    /// Total message size.
    pub message_size: f64,
    /// Size of the stripe assigned to each tree (same order as the decomposition's trees).
    pub stripes: Vec<f64>,
}

/// Splits a message of size `message_size` over the trees of `decomposition`, proportionally
/// to the tree weights.
///
/// # Errors
///
/// Returns [`TreesError::NonPositiveThroughput`] when the decomposition is empty (it carries
/// no rate) or the message size is not positive.
pub fn stripe_message(
    decomposition: &TreeDecomposition,
    message_size: f64,
) -> Result<StripePlan, TreesError> {
    if !(message_size.is_finite() && message_size > 0.0) {
        return Err(TreesError::NonPositiveThroughput(message_size));
    }
    let throughput = decomposition.throughput();
    if decomposition.num_trees() == 0 || throughput <= 0.0 {
        return Err(TreesError::NonPositiveThroughput(throughput));
    }
    let stripes = decomposition
        .weights()
        .iter()
        .map(|weight| message_size * weight / throughput)
        .collect();
    Ok(StripePlan {
        message_size,
        stripes,
    })
}

/// Per-node completion-time estimate when a message of size `message_size` is striped over
/// `decomposition` and pipelined in per-tree blocks of size `chunk_size · weight / T`.
///
/// Index 0 (the source) completes at time 0. The estimate for a receiver is
/// `message / T + (chunk_size / T) · max_over_trees depth(node)`: the fluid streaming time
/// plus one block of pipeline fill per hop of its deepest tree.
///
/// # Errors
///
/// Same conditions as [`stripe_message`]; additionally the chunk size must be positive, and
/// the first error of [`TreeDecomposition::trees`] is returned.
pub fn completion_estimate(
    decomposition: &TreeDecomposition,
    message_size: f64,
    chunk_size: f64,
) -> Result<Vec<f64>, TreesError> {
    if !(chunk_size.is_finite() && chunk_size > 0.0) {
        return Err(TreesError::NonPositiveThroughput(chunk_size));
    }
    // stripe_message validates the message size and the decomposition's throughput.
    let _ = stripe_message(decomposition, message_size)?;
    let throughput = decomposition.throughput();
    let n = decomposition.num_nodes();
    let stream_time = message_size / throughput;
    let fill_per_hop = chunk_size / throughput;
    let mut completion = vec![0.0_f64; n];
    for tree in decomposition.trees() {
        for (node, depth) in tree?.depths().iter().enumerate().skip(1) {
            let depth = depth.expect("constructed arborescences have no cycles");
            let arrival = stream_time + depth as f64 * fill_per_hop;
            if arrival > completion[node] {
                completion[node] = arrival;
            }
        }
    }
    Ok(completion)
}

/// Largest completion estimate over the receivers (the broadcast makespan estimate).
///
/// # Errors
///
/// Same conditions as [`completion_estimate`].
pub fn makespan_estimate(
    decomposition: &TreeDecomposition,
    message_size: f64,
    chunk_size: f64,
) -> Result<f64, TreesError> {
    Ok(
        completion_estimate(decomposition, message_size, chunk_size)?
            .into_iter()
            .skip(1)
            .fold(0.0, f64::max),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose_acyclic;
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_core::acyclic_open::acyclic_open_optimal_scheme;
    use bmp_platform::paper::figure1;
    use bmp_platform::Instance;

    fn figure1_decomposition() -> (TreeDecomposition, f64) {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let d = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
        (d, solution.throughput)
    }

    #[test]
    fn stripes_are_proportional_and_sum_to_the_message() {
        let (decomposition, throughput) = figure1_decomposition();
        let plan = stripe_message(&decomposition, 100.0).unwrap();
        assert!((plan.stripes.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        for (tree, stripe) in decomposition.trees().zip(&plan.stripes) {
            assert!((stripe - 100.0 * tree.unwrap().weight() / throughput).abs() < 1e-9);
        }
    }

    #[test]
    fn chain_completion_matches_the_pipeline_formula() {
        let inst = Instance::open_only(2.0, vec![2.0, 2.0, 2.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        let decomposition = decompose_acyclic(&scheme, t).unwrap();
        assert_eq!(decomposition.num_trees(), 1);
        let completion = completion_estimate(&decomposition, 20.0, 1.0).unwrap();
        // Node at depth d: 20/2 + d * 1/2.
        assert!((completion[1] - 10.5).abs() < 1e-9);
        assert!((completion[2] - 11.0).abs() < 1e-9);
        assert!((completion[3] - 11.5).abs() < 1e-9);
        assert!((makespan_estimate(&decomposition, 20.0, 1.0).unwrap() - 11.5).abs() < 1e-9);
        assert_eq!(completion[0], 0.0);
    }

    #[test]
    fn makespan_is_at_least_the_fluid_lower_bound() {
        let (decomposition, throughput) = figure1_decomposition();
        let message = 50.0;
        let makespan = makespan_estimate(&decomposition, message, 0.5).unwrap();
        assert!(makespan >= message / throughput - 1e-9);
        // With vanishing chunk size the makespan tends to the fluid time.
        let tiny = makespan_estimate(&decomposition, message, 1e-6).unwrap();
        assert!((tiny - message / throughput).abs() < 1e-3);
    }

    #[test]
    fn smaller_chunks_never_increase_the_makespan() {
        let (decomposition, _) = figure1_decomposition();
        let coarse = makespan_estimate(&decomposition, 50.0, 2.0).unwrap();
        let fine = makespan_estimate(&decomposition, 50.0, 0.25).unwrap();
        assert!(fine <= coarse + 1e-9);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (decomposition, _) = figure1_decomposition();
        assert!(stripe_message(&decomposition, 0.0).is_err());
        assert!(stripe_message(&decomposition, f64::NAN).is_err());
        assert!(completion_estimate(&decomposition, 10.0, 0.0).is_err());
        let empty = TreeDecomposition::new(6, 0.0);
        assert!(stripe_message(&empty, 10.0).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let (decomposition, _) = figure1_decomposition();
        let plan = stripe_message(&decomposition, 10.0).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: StripePlan = serde_json::from_str(&json).unwrap();
        // serde_json floats roundtrip to within one ULP; compare approximately.
        assert_eq!(back.stripes.len(), plan.stripes.len());
        assert_eq!(back.message_size, plan.message_size);
        for (a, b) in plan.stripes.iter().zip(&back.stripes) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
