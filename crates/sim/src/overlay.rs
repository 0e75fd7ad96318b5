//! Static overlays: the weighted digraphs over which the streaming simulation runs.

use bmp_core::scheme::BroadcastScheme;

/// A directed overlay edge with its allocated bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayEdge {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Bandwidth allocated to the edge (data units per time unit).
    pub rate: f64,
}

/// A static overlay network: the output of the scheduling algorithms, input of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Overlay {
    num_nodes: usize,
    edges: Vec<OverlayEdge>,
}

impl Overlay {
    /// Builds an overlay from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node outside `0..num_nodes`, is a self-loop, or has a
    /// non-positive rate.
    #[must_use]
    pub fn new(num_nodes: usize, edge_list: Vec<(usize, usize, f64)>) -> Self {
        Overlay::try_new(num_nodes, edge_list).unwrap_or_else(|message| panic!("{message}"))
    }

    /// Fallible [`Overlay::new`], for edge lists read from untrusted input.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first edge that references a node outside
    /// `0..num_nodes`, is a self-loop, or has a non-positive or non-finite rate.
    pub fn try_new(num_nodes: usize, edge_list: Vec<(usize, usize, f64)>) -> Result<Self, String> {
        let mut edges = Vec::with_capacity(edge_list.len());
        for (from, to, rate) in edge_list {
            if from >= num_nodes || to >= num_nodes {
                return Err(format!(
                    "edge endpoint out of range: {from} -> {to} in a {num_nodes}-node overlay"
                ));
            }
            if from == to {
                return Err(format!("self-loops are not allowed: {from} -> {to}"));
            }
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(format!(
                    "edge rate must be positive and finite: {from} -> {to} at {rate}"
                ));
            }
            edges.push(OverlayEdge { from, to, rate });
        }
        Ok(Overlay { num_nodes, edges })
    }

    /// Extracts the overlay of a broadcast scheme (one edge per positive rate).
    #[must_use]
    pub fn from_scheme(scheme: &BroadcastScheme) -> Self {
        Overlay::new(scheme.instance().num_nodes(), scheme.edges())
    }

    /// Number of nodes (node 0 is the source).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[OverlayEdge] {
        &self.edges
    }

    /// Total rate entering `node`.
    #[must_use]
    pub fn in_rate(&self, node: usize) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.to == node)
            .map(|e| e.rate)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_platform::paper::figure1;

    #[test]
    fn build_from_edge_list() {
        let overlay = Overlay::new(3, vec![(0, 1, 2.0), (1, 2, 1.5), (0, 2, 0.5)]);
        assert_eq!(overlay.num_nodes(), 3);
        assert_eq!(overlay.edges().len(), 3);
        let leaving: Vec<_> = overlay.edges().iter().filter(|e| e.from == 0).collect();
        assert_eq!(leaving.len(), 2);
        assert!((overlay.in_rate(2) - 2.0).abs() < 1e-12);
        assert!((leaving.iter().map(|e| e.rate).sum::<f64>() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let _ = Overlay::new(2, vec![(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_rate() {
        let _ = Overlay::new(2, vec![(0, 1, 0.0)]);
    }

    #[test]
    fn from_scheme_matches_scheme_edges() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let overlay = Overlay::from_scheme(&solution.scheme);
        assert_eq!(overlay.num_nodes(), 6);
        assert_eq!(overlay.edges().len(), solution.scheme.edges().len());
        // Every receiver has incoming rate equal to the throughput.
        for node in 1..6 {
            assert!((overlay.in_rate(node) - solution.throughput).abs() < 1e-6);
        }
    }
}
