//! Arborescence packing for general (possibly cyclic) broadcast schemes.
//!
//! Edmonds' branching theorem (Schrijver, vol. B, Chapter 53) states that the maximum total
//! weight of a fractional packing of spanning arborescences rooted at the source, subject to
//! the edge capacities `c_{i,j}`, equals the minimum over all receivers of the maximum flow
//! from the source to that receiver — i.e. exactly the paper's definition of the throughput of
//! a broadcast scheme, which [`GreedyPacking::upper_bound`] records. [`greedy_packing`]
//! extracts an explicit packing by repeatedly peeling off a bottleneck-weighted arborescence
//! from the residual capacities; it is exact on the single-path and star cases and a lower
//! bound in general (the exact interval decomposition of [`crate::decompose`] should be
//! preferred for acyclic schemes).

use crate::arborescence::Arborescence;
use crate::decompose::TreeDecomposition;
use crate::error::TreesError;
use bmp_core::scheme::{BroadcastScheme, RATE_EPS};
use bmp_platform::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Outcome of the greedy packing heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreedyPacking {
    /// The extracted trees, bundled as a decomposition.
    pub decomposition: TreeDecomposition,
    /// The Edmonds bound of the input scheme (its throughput `min_k maxflow(C0 → Ck)`), for
    /// comparison.
    pub upper_bound: f64,
}

impl GreedyPacking {
    /// Fraction of the Edmonds bound achieved by the greedy packing (1 when the heuristic is
    /// exact, 0 when the scheme carries nothing).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.upper_bound <= RATE_EPS {
            1.0
        } else {
            self.decomposition.throughput() / self.upper_bound
        }
    }
}

/// Greedily packs bottleneck-weighted spanning arborescences into the residual capacities of
/// `scheme`. Works on cyclic schemes as well as acyclic ones. Stops when some receiver is no
/// longer reachable in the residual graph; each extracted tree saturates at least one edge, so
/// the number of trees never exceeds the number of overlay edges.
///
/// # Errors
///
/// Propagates [`TreesError::InvalidArborescence`] if an internal tree is malformed (which
/// would indicate a bug rather than a property of the input).
pub fn greedy_packing(scheme: &BroadcastScheme) -> Result<GreedyPacking, TreesError> {
    let n = scheme.instance().num_nodes();
    // One residual capacity per scheme edge, in the order of the scheme's sorted rows.
    let edges = scheme.edges();
    let mut residual: Vec<f64> = edges.iter().map(|&(_, _, rate)| rate).collect();

    let mut decomposition = TreeDecomposition::new(n, 0.0);
    while let Some(tree) = bfs_arborescence(&edges, &residual, n) {
        // Bottleneck of this tree in the residual capacities.
        let bottleneck = tree
            .iter()
            .flatten()
            .map(|&(_, edge)| residual[edge])
            .fold(f64::INFINITY, f64::min);
        if !bottleneck.is_finite() || bottleneck <= RATE_EPS {
            break;
        }
        for &(_, edge) in tree.iter().flatten() {
            residual[edge] -= bottleneck;
        }
        decomposition.throughput += bottleneck;
        let parent = tree.iter().map(|link| link.map(|(u, _)| u)).collect();
        decomposition.push(&Arborescence::new(parent, bottleneck)?, false);
    }
    Ok(GreedyPacking {
        decomposition,
        upper_bound: scheme.throughput(),
    })
}

/// Breadth-first spanning arborescence over the residual edges, as each node's
/// `(parent, edge index)` (`None` at the source), or `None` when some receiver is
/// unreachable from the source.
fn bfs_arborescence(
    edges: &[(NodeId, NodeId, f64)],
    residual: &[f64],
    n: usize,
) -> Option<Vec<Option<(NodeId, usize)>>> {
    let mut parent: Vec<Option<(NodeId, usize)>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut queue = VecDeque::from([0usize]);
    while let Some(u) = queue.pop_front() {
        // `edges` is row-major: `u`'s edges are one run, in ascending receiver order.
        let first = edges.partition_point(|&(from, _, _)| from < u);
        let end = edges.partition_point(|&(from, _, _)| from <= u);
        for edge in first..end {
            let v = edges[edge].1;
            if !visited[v] && residual[edge] > RATE_EPS {
                visited[v] = true;
                parent[v] = Some((u, edge));
                queue.push_back(v);
            }
        }
    }
    visited.iter().all(|&v| v).then_some(parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_core::acyclic_open::acyclic_open_optimal_scheme;
    use bmp_core::cyclic_open::cyclic_open_optimal_scheme;
    use bmp_flow::eps;
    use bmp_platform::paper::{figure1, figure14};
    use bmp_platform::Instance;

    #[test]
    fn upper_bound_is_the_scheme_throughput() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        assert!(eps::approx_eq(
            greedy_packing(&solution.scheme).unwrap().upper_bound,
            solution.scheme.throughput()
        ));
    }

    #[test]
    fn greedy_packing_on_a_star_is_exact() {
        let inst = Instance::open_only(100.0, vec![1.0, 1.0, 1.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        let packing = greedy_packing(&scheme).unwrap();
        assert!(eps::approx_eq(packing.decomposition.throughput(), t));
        assert!((packing.efficiency() - 1.0).abs() < 1e-9);
        packing.decomposition.verify(&scheme).unwrap();
    }

    #[test]
    fn greedy_packing_on_a_chain_is_exact() {
        let inst = Instance::open_only(2.0, vec![2.0, 2.0, 2.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        let packing = greedy_packing(&scheme).unwrap();
        assert!(eps::approx_eq(packing.decomposition.throughput(), t));
        packing.decomposition.verify(&scheme).unwrap();
    }

    #[test]
    fn greedy_packing_never_exceeds_the_bound_and_respects_capacities() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let packing = greedy_packing(&solution.scheme).unwrap();
        assert!(eps::approx_le(
            packing.decomposition.throughput(),
            packing.upper_bound
        ));
        packing.decomposition.verify(&solution.scheme).unwrap();
        assert!(packing.efficiency() <= 1.0 + 1e-9);
        assert!(packing.efficiency() > 0.0);
    }

    #[test]
    fn greedy_packing_handles_cyclic_schemes() {
        let (scheme, t) = cyclic_open_optimal_scheme(&figure14()).unwrap();
        let packing = greedy_packing(&scheme).unwrap();
        // The heuristic yields a genuine (possibly partial) packing of the cyclic overlay.
        packing.decomposition.verify(&scheme).unwrap();
        assert!(packing.decomposition.throughput() > 0.0);
        assert!(eps::approx_le(packing.decomposition.throughput(), t));
    }

    #[test]
    fn greedy_packing_of_an_empty_scheme_is_empty() {
        let scheme = bmp_core::scheme::BroadcastScheme::new(figure1());
        let packing = greedy_packing(&scheme).unwrap();
        assert_eq!(packing.decomposition.num_trees(), 0);
        assert_eq!(packing.decomposition.throughput(), 0.0);
        assert!((packing.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tree_count_is_bounded_by_edge_count() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let packing = greedy_packing(&solution.scheme).unwrap();
        assert!(packing.decomposition.num_trees() <= solution.scheme.edges().len());
    }
}
