//! Spanning arborescences rooted at the source.
//!
//! A broadcast tree is an arborescence rooted at the source `C0` that spans every receiver:
//! each receiver has exactly one parent and following parents always leads back to the source.
//! A *weighted* arborescence additionally carries a rate: the share of the stream that is
//! routed along this tree.

use crate::error::TreesError;
use bmp_core::scheme::{BroadcastScheme, RATE_EPS};
use bmp_platform::{Instance, NodeClass, NodeId};
use serde::{Deserialize, Serialize};

/// A spanning arborescence rooted at the source, carrying a share of the broadcast rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arborescence {
    /// `parent[v]` is the node that feeds `v` in this tree; `parent[0]` is `None` (the source
    /// has no parent).
    parent: Vec<Option<NodeId>>,
    /// Rate carried by this tree.
    weight: f64,
}

impl Arborescence {
    /// Builds an arborescence from a parent vector (index 0 must be `None`) and a weight.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::InvalidArborescence`] when the parent vector is structurally
    /// invalid: a parent assigned to the source, a missing parent for a receiver, a parent
    /// index out of range, or a cycle.
    pub fn new(parent: Vec<Option<NodeId>>, weight: f64) -> Result<Self, TreesError> {
        let invalid = |reason: String| Err(TreesError::InvalidArborescence(reason));
        match parent.first() {
            None => return invalid("empty parent vector".into()),
            Some(Some(_)) => return invalid("the source cannot have a parent".into()),
            Some(None) => {}
        }
        if !(weight.is_finite() && weight > 0.0) {
            return invalid(format!(
                "tree weight must be positive and finite, got {weight}"
            ));
        }
        let n = parent.len();
        for (v, &p) in parent.iter().enumerate().skip(1) {
            match p {
                None => return invalid(format!("receiver C{v} has no parent")),
                Some(u) if u >= n => return invalid(format!("parent {u} of C{v} is out of range")),
                Some(u) if u == v => return invalid(format!("C{v} cannot be its own parent")),
                Some(_) => {}
            }
        }
        let tree = Arborescence { parent, weight };
        if tree.depths().iter().any(Option::is_none) {
            return invalid("the parent pointers contain a cycle".into());
        }
        Ok(tree)
    }

    /// Number of nodes spanned by the tree (including the source).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `node` in the tree (`None` for the source).
    #[must_use]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node]
    }

    /// Rate carried by the tree.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Directed edges `(parent, child)` of the tree.
    #[must_use]
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|u| (u, v)))
            .collect()
    }

    /// Depth of every node (0 for the source, `None` if the parent pointers loop — which
    /// [`Arborescence::new`] rejects, so on constructed values every depth is `Some`).
    #[must_use]
    pub fn depths(&self) -> Vec<Option<usize>> {
        let n = self.parent.len();
        let mut depth: Vec<Option<usize>> = vec![None; n];
        depth[0] = Some(0);
        let mut path = Vec::new();
        for start in 1..n {
            if depth[start].is_some() {
                continue;
            }
            // Walk up to a node of known depth, then unwind.
            path.clear();
            let mut current = start;
            while depth[current].is_none() {
                if path.contains(&current) {
                    return depth; // cycle: leave the whole chain as None
                }
                path.push(current);
                match self.parent[current] {
                    Some(p) => current = p,
                    None => break,
                }
            }
            let Some(mut d) = depth[current] else {
                continue;
            };
            for &v in path.iter().rev() {
                d += 1;
                depth[v] = Some(d);
            }
        }
        depth
    }

    /// Largest depth over all receivers.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.depths().into_iter().flatten().max().unwrap_or(0)
    }

    /// Checks that every edge of the tree is supported by the scheme (positive rate) and that
    /// no edge connects two guarded nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TreesError::InvalidArborescence`] describing the first offending edge.
    pub fn check_against_scheme(&self, scheme: &BroadcastScheme) -> Result<(), TreesError> {
        let instance = scheme.instance();
        if self.parent.len() != instance.num_nodes() {
            return Err(TreesError::InvalidArborescence(format!(
                "tree spans {} nodes, scheme has {}",
                self.parent.len(),
                instance.num_nodes()
            )));
        }
        for (u, v) in self.edges() {
            if scheme.rate(u, v) <= RATE_EPS {
                return Err(TreesError::InvalidArborescence(format!(
                    "edge C{u} -> C{v} is not present in the scheme"
                )));
            }
            if firewall_blocked(instance, u, v) {
                return Err(TreesError::InvalidArborescence(format!(
                    "edge C{u} -> C{v} connects two guarded nodes"
                )));
            }
        }
        Ok(())
    }
}

fn firewall_blocked(instance: &Instance, from: NodeId, to: NodeId) -> bool {
    instance.class(from) == NodeClass::Guarded && instance.class(to) == NodeClass::Guarded
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_platform::paper::figure1;

    fn children(tree: &Arborescence, node: NodeId) -> usize {
        tree.edges()
            .iter()
            .filter(|&&(parent, _)| parent == node)
            .count()
    }

    fn chain(n: usize, weight: f64) -> Arborescence {
        let parent = (0..n)
            .map(|v| if v == 0 { None } else { Some(v - 1) })
            .collect();
        Arborescence::new(parent, weight).unwrap()
    }

    #[test]
    fn chain_structure() {
        let tree = chain(4, 2.0);
        assert_eq!(tree.num_nodes(), 4);
        assert_eq!(tree.weight(), 2.0);
        assert_eq!(tree.parent(0), None);
        assert_eq!(tree.parent(3), Some(2));
        assert_eq!(tree.edges(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(tree.max_depth(), 3);
        assert_eq!(children(&tree, 0), 1);
        assert_eq!(children(&tree, 3), 0);
        assert_eq!(tree.depths(), vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn star_structure() {
        let parent = vec![None, Some(0), Some(0), Some(0)];
        let tree = Arborescence::new(parent, 1.0).unwrap();
        assert_eq!(tree.max_depth(), 1);
        assert_eq!(children(&tree, 0), 3);
    }

    #[test]
    fn rejects_source_with_parent() {
        let err = Arborescence::new(vec![Some(1), Some(0)], 1.0).unwrap_err();
        assert!(matches!(err, TreesError::InvalidArborescence(_)));
    }

    #[test]
    fn rejects_missing_parent() {
        let err = Arborescence::new(vec![None, None], 1.0).unwrap_err();
        assert!(err.to_string().contains("no parent"));
    }

    #[test]
    fn rejects_out_of_range_parent() {
        let err = Arborescence::new(vec![None, Some(7)], 1.0).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_self_parent() {
        let err = Arborescence::new(vec![None, Some(1)], 1.0).unwrap_err();
        assert!(err.to_string().contains("own parent"));
    }

    #[test]
    fn rejects_cycle() {
        // 1 -> 2 -> 3 -> 1 never reaches the source.
        let err = Arborescence::new(vec![None, Some(3), Some(1), Some(2)], 1.0).unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn rejects_non_positive_weight() {
        assert!(Arborescence::new(vec![None, Some(0)], 0.0).is_err());
        assert!(Arborescence::new(vec![None, Some(0)], f64::NAN).is_err());
        assert!(Arborescence::new(vec![None, Some(0)], f64::INFINITY).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(Arborescence::new(vec![], 1.0).is_err());
    }

    #[test]
    fn check_against_scheme_accepts_supported_edges() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let scheme = &solution.scheme;
        // Build a tree that only uses edges of the scheme: parent = the strongest feeder.
        let n = scheme.instance().num_nodes();
        let mut parent = vec![None; n];
        for (v, slot) in parent.iter_mut().enumerate().skip(1) {
            *slot = (0..n)
                .filter(|&u| u != v && scheme.rate(u, v) > RATE_EPS)
                .max_by(|&a, &b| scheme.rate(a, v).partial_cmp(&scheme.rate(b, v)).unwrap());
        }
        let tree = Arborescence::new(parent, 0.5).unwrap();
        tree.check_against_scheme(scheme).unwrap();
    }

    #[test]
    fn check_against_scheme_rejects_unsupported_edge() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        // A star from the source is not supported: the source does not feed everyone directly.
        let n = solution.scheme.instance().num_nodes();
        let parent: Vec<Option<NodeId>> = (0..n)
            .map(|v| if v == 0 { None } else { Some(0) })
            .collect();
        let tree = Arborescence::new(parent, 0.5).unwrap();
        assert!(tree.check_against_scheme(&solution.scheme).is_err());
    }

    #[test]
    fn check_against_scheme_rejects_firewalled_edge() {
        let mut scheme = bmp_core::scheme::BroadcastScheme::new(figure1());
        // Deliberately add a guarded -> guarded edge to the raw matrix.
        scheme.set_rate(0, 1, 5.0);
        scheme.set_rate(1, 2, 5.0);
        scheme.set_rate(2, 3, 5.0);
        scheme.set_rate(3, 4, 1.0);
        scheme.set_rate(2, 5, 1.0);
        let parent = vec![None, Some(0), Some(1), Some(2), Some(3), Some(2)];
        let tree = Arborescence::new(parent, 0.5).unwrap();
        let err = tree.check_against_scheme(&scheme).unwrap_err();
        assert!(err.to_string().contains("guarded"));
    }

    #[test]
    fn check_against_scheme_rejects_size_mismatch() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let tree = chain(3, 1.0);
        assert!(tree.check_against_scheme(&solution.scheme).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let tree = chain(5, 1.25);
        let json = serde_json::to_string(&tree).unwrap();
        let back: Arborescence = serde_json::from_str(&json).unwrap();
        assert_eq!(tree, back);
    }
}
