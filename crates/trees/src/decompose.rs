//! Exact decomposition of acyclic broadcast schemes into weighted broadcast trees.
//!
//! The construction follows the classical "interval" argument. Every receiver of an acyclic
//! scheme of throughput `T` receives a total rate of at least `T` from nodes that appear
//! earlier in a topological order. Lay the incoming edges of every receiver side by side over
//! the segment `[0, T)` (earlier feeders first). For any level `y ∈ [0, T)`, picking for every
//! receiver the feeder whose interval covers `y` yields a parent function with no cycles
//! (parents precede children in the topological order), i.e. a spanning arborescence rooted at
//! the source. Levels with the same parent function form sub-intervals of `[0, T)`; each
//! maximal sub-interval becomes one weighted broadcast tree, and by construction the total
//! weight of the trees using an edge never exceeds the rate the scheme allocates to it.
//!
//! The number of trees produced is at most `E − R + 1`, where `E` is the number of overlay
//! edges actually used and `R` the number of receivers.
//!
//! # Storage and document format
//!
//! Consecutive trees differ in a few parents, so a [`TreeDecomposition`] is one parent-run
//! table: the tree weights in level order and, per node, `(first_tree, parent)` for every
//! run of trees sharing that node's parent. The interval decomposition starts at most one
//! run per used edge, so the table is O(m). It is also the `bmp decompose --out` document,
//! `{"throughput": T, "weights": [w0, …], "runs": [[], [[0, p], [k, q], …], …]}`: the
//! source's runs are empty, and every receiver's start at tree 0 with strictly increasing
//! first trees below the tree count. A hand-edited document that breaks this reads back,
//! but materializing, aggregating or verifying it reports a [`TreesError`].

use crate::arborescence::Arborescence;
use crate::error::TreesError;
use bmp_core::scheme::{BroadcastScheme, RATE_EPS};
use bmp_flow::eps;
use bmp_platform::NodeId;
use serde::{Deserialize, Serialize};

/// A set of weighted broadcast trees carrying a broadcast of rate
/// [`TreeDecomposition::throughput`], stored as a parent-run table (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeDecomposition {
    pub(crate) throughput: f64,
    /// Weight of every tree, in level order.
    weights: Vec<f64>,
    /// Per node, `(first_tree, parent)` for every maximal run of trees sharing its parent.
    runs: Vec<Vec<(usize, NodeId)>>,
}

impl TreeDecomposition {
    /// An empty table over `num_nodes` nodes carrying `throughput`.
    pub(crate) fn new(num_nodes: usize, throughput: f64) -> Self {
        TreeDecomposition {
            throughput,
            weights: Vec::new(),
            runs: vec![Vec::new(); num_nodes],
        }
    }

    /// Appends `tree` (spanning this table's nodes). With `merge`, a tree whose parents all
    /// equal the last tree's widens the last tree by its weight instead.
    pub(crate) fn push(&mut self, tree: &Arborescence, merge: bool) {
        let index = self.weights.len();
        let last_parent = |runs: &[(usize, NodeId)]| runs.last().map(|&(_, parent)| parent);
        let mut nodes = self.runs.iter().enumerate();
        if merge && index > 0 && nodes.all(|(v, runs)| last_parent(runs) == tree.parent(v)) {
            self.weights[index - 1] += tree.weight();
            return;
        }
        for (v, runs) in self.runs.iter_mut().enumerate() {
            if let Some(parent) = tree.parent(v).filter(|&p| last_parent(runs) != Some(p)) {
                runs.push((index, parent));
            }
        }
        self.weights.push(tree.weight());
    }

    /// The broadcast trees in level order, materialized one at a time from the table.
    ///
    /// Every tree goes through [`Arborescence::new`], so a table whose runs are out of order
    /// or whose parents do not form a spanning arborescence yields an error item.
    pub fn trees(&self) -> impl Iterator<Item = Result<Arborescence, TreesError>> + '_ {
        let mut parent = vec![None; self.num_nodes()];
        let mut next = vec![0_usize; self.num_nodes()];
        (0..self.num_trees()).map(move |index| {
            for (v, runs) in self.runs.iter().enumerate() {
                if let Some(&(first, p)) = runs.get(next[v]).filter(|run| run.0 <= index) {
                    if first < index {
                        return Err(disordered(v));
                    }
                    (parent[v], next[v]) = (Some(p), next[v] + 1);
                }
            }
            Arborescence::new(parent.clone(), self.weights[index])
        })
    }

    /// The tree weights, in level order.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of trees in the decomposition.
    #[must_use]
    pub fn num_trees(&self) -> usize {
        self.weights.len()
    }

    /// Total rate carried by the decomposition (sum of the tree weights).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Number of nodes of the underlying platform (including the source).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.runs.len()
    }

    /// All edges used by at least one tree, with their aggregate usage, in row-major order.
    /// Each usage adds the tree weights one by one in level order.
    ///
    /// # Errors
    ///
    /// [`TreesError::InvalidArborescence`] when some node's runs are out of order or range.
    pub fn used_edges(&self) -> Result<Vec<(NodeId, NodeId, f64)>, TreesError> {
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for (v, runs) in self.runs.iter().enumerate() {
            let first_edge = edges.len();
            for (i, &(first, u)) in runs.iter().enumerate() {
                let end = runs.get(i + 1).map_or(self.num_trees(), |run| run.0);
                let weights = (self.weights.get(first..end))
                    .filter(|weights| !weights.is_empty())
                    .ok_or_else(|| disordered(v))?;
                let slot = (edges[first_edge..].iter().position(|e| e.0 == u))
                    .map_or(edges.len(), |offset| first_edge + offset);
                if slot == edges.len() {
                    edges.push((u, v, 0.0));
                }
                for &weight in weights {
                    edges[slot].2 += weight;
                }
            }
        }
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        Ok(edges)
    }

    /// Largest tree depth over all trees (an upper bound on the pipeline start-up delay in
    /// hops).
    ///
    /// # Errors
    ///
    /// The first error of [`TreeDecomposition::trees`].
    pub fn max_depth(&self) -> Result<usize, TreesError> {
        self.trees()
            .try_fold(0, |depth, tree| Ok(depth.max(tree?.max_depth())))
    }

    /// Largest, over all nodes, of the number of *distinct children* the node has across all
    /// trees — the number of simultaneous connections the node must maintain when the
    /// decomposition is used as the data plane. This never exceeds the outdegree of the node
    /// in the scheme the decomposition was extracted from.
    #[must_use]
    pub fn connection_degree(&self, node: NodeId) -> usize {
        self.runs
            .iter()
            .filter(|runs| runs.iter().any(|&(_, parent)| parent == node))
            .count()
    }

    /// Checks the decomposition against the scheme it was extracted from:
    ///
    /// * every tree is a spanning arborescence over edges of the scheme,
    /// * the tree weights sum to the decomposition's throughput,
    /// * for every edge, the aggregate tree usage stays within the rate allocated by the
    ///   scheme, up to [`RATE_EPS`]-sized rounding dust (the schemes themselves are built by
    ///   dichotomic searches, so their rates carry the same dust).
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`TreesError::InvalidArborescence`].
    pub fn verify(&self, scheme: &BroadcastScheme) -> Result<(), TreesError> {
        for tree in self.trees() {
            tree?.check_against_scheme(scheme)?;
        }
        let total: f64 = self.weights.iter().sum();
        if !eps::approx_eq(total, self.throughput) {
            return Err(TreesError::InvalidArborescence(format!(
                "tree weights sum to {total}, expected {}",
                self.throughput
            )));
        }
        for (u, v, usage) in self.used_edges()? {
            let rate = scheme.rate(u, v);
            if usage > rate + RATE_EPS * rate.abs().max(1.0) {
                return Err(TreesError::InvalidArborescence(format!(
                    "edge C{u} -> C{v} is used at rate {usage} but the scheme only allocates {rate}"
                )));
            }
        }
        Ok(())
    }
}

fn disordered(node: NodeId) -> TreesError {
    TreesError::InvalidArborescence(format!("C{node}'s parent runs are out of order or range"))
}

/// Decomposes an acyclic broadcast scheme of throughput `throughput` into weighted broadcast
/// trees.
///
/// # Errors
///
/// * [`TreesError::NonPositiveThroughput`] when `throughput ≤ 0`,
/// * [`TreesError::NotAcyclic`] when the scheme's digraph has a cycle,
/// * [`TreesError::InsufficientIncoming`] when some receiver receives less than `throughput`.
pub fn decompose_acyclic(
    scheme: &BroadcastScheme,
    throughput: f64,
) -> Result<TreeDecomposition, TreesError> {
    if !(throughput.is_finite() && throughput > 0.0) {
        return Err(TreesError::NonPositiveThroughput(throughput));
    }
    let order = scheme.topological_order().ok_or(TreesError::NotAcyclic)?;
    let n = scheme.instance().num_nodes();
    let mut position = vec![0usize; n];
    for (pos, &node) in order.iter().enumerate() {
        position[node] = pos;
    }
    let mut feeders: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
    for (u, v, rate) in scheme.edges() {
        feeders[v].push((u, rate));
    }

    // For every receiver, the feeders laid out over [0, throughput), earliest feeder first.
    // `coverage[v]` is a list of (feeder, start, end) with 0 = start_1 < end_1 = start_2 < …
    let mut coverage: Vec<Vec<(NodeId, f64, f64)>> = vec![Vec::new(); n];
    for v in scheme.instance().receivers() {
        feeders[v].sort_by_key(|&(u, _)| position[u]);
        let mut level = 0.0_f64;
        for &(u, rate) in &feeders[v] {
            if level >= throughput - RATE_EPS {
                break;
            }
            let end = (level + rate).min(throughput);
            coverage[v].push((u, level, end));
            level = end;
        }
        if level + RATE_EPS < throughput {
            return Err(TreesError::InsufficientIncoming {
                node: v,
                received: level,
                required: throughput,
            });
        }
        // Stretch the last interval to exactly `throughput` so rounding dust cannot leave the
        // top level uncovered.
        if let Some(last) = coverage[v].last_mut() {
            last.2 = throughput;
        }
    }

    // Global breakpoints: the union of all interval boundaries strictly inside (0, throughput).
    let mut breakpoints: Vec<f64> = vec![0.0, throughput];
    for intervals in &coverage {
        for &(_, _, end) in intervals {
            if end > RATE_EPS && end < throughput - RATE_EPS {
                breakpoints.push(end);
            }
        }
    }
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are finite"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() <= RATE_EPS);

    // One tree per consecutive pair of breakpoints.
    let mut decomposition = TreeDecomposition::new(n, throughput);
    for window in breakpoints.windows(2) {
        let (start, end) = (window[0], window[1]);
        let width = end - start;
        if width <= RATE_EPS {
            continue;
        }
        let level = 0.5 * (start + end);
        // The stretch above covers every level; a receiver left without a parent would be
        // reported by `Arborescence::new` rather than panic.
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        for v in scheme.instance().receivers() {
            parent[v] = coverage[v]
                .iter()
                .find(|&&(_, s, e)| s <= level && level < e)
                .map(|&(u, _, _)| u);
        }
        decomposition.push(&Arborescence::new(parent, width)?, true);
    }
    Ok(decomposition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_core::acyclic_open::acyclic_open_optimal_scheme;
    use bmp_core::cyclic_open::cyclic_open_optimal_scheme;
    use bmp_platform::paper::{figure1, figure14};
    use bmp_platform::Instance;

    #[test]
    fn figure1_acyclic_solution_decomposes() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
        decomposition.verify(&solution.scheme).unwrap();
        assert!(decomposition.num_trees() >= 1);
        assert!(eps::approx_eq(
            decomposition.throughput(),
            solution.throughput
        ));
        // Tree count bound: at most E - R + 1.
        let e = solution.scheme.edges().len();
        let r = solution.scheme.instance().num_receivers();
        assert!(
            decomposition.num_trees() <= e - r + 1,
            "{} trees",
            decomposition.num_trees()
        );
    }

    #[test]
    fn star_scheme_is_a_single_tree() {
        // Receivers have no upload of their own, so the optimum is the source feeding each of
        // them directly: a single star-shaped broadcast tree.
        let inst = Instance::open_only(3.0, vec![0.0, 0.0, 0.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        let decomposition = decompose_acyclic(&scheme, t).unwrap();
        decomposition.verify(&scheme).unwrap();
        assert_eq!(decomposition.num_trees(), 1);
        assert_eq!(decomposition.max_depth(), Ok(1));
        let tree = decomposition.trees().next().unwrap().unwrap();
        assert_eq!(tree.edges(), vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn chain_scheme_is_a_single_path_tree() {
        let inst = Instance::open_only(2.0, vec![2.0, 2.0, 2.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        let decomposition = decompose_acyclic(&scheme, t).unwrap();
        decomposition.verify(&scheme).unwrap();
        assert_eq!(decomposition.num_trees(), 1);
        assert_eq!(decomposition.max_depth(), Ok(3));
    }

    #[test]
    fn connection_degree_never_exceeds_scheme_outdegree() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
        for node in 0..6 {
            assert!(decomposition.connection_degree(node) <= solution.scheme.outdegree(node));
        }
    }

    #[test]
    fn edge_usage_matches_used_edges() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
        // Per-edge usage summed over the materialized trees, weight by weight in level order.
        let n = decomposition.num_nodes();
        let mut usage = vec![0.0_f64; n * n];
        for tree in decomposition.trees() {
            let tree = tree.unwrap();
            for (u, v) in tree.edges() {
                usage[u * n + v] += tree.weight();
            }
        }
        let used = decomposition.used_edges().unwrap();
        let expected: Vec<(NodeId, NodeId, f64)> = (0..n * n)
            .filter(|&i| usage[i] > 0.0)
            .map(|i| (i / n, i % n, usage[i]))
            .collect();
        // Bit-identical sums, in row-major order.
        assert_eq!(used, expected);
        for (u, v, usage) in used {
            // Capacity respected up to the RATE_EPS dust documented in `verify`.
            assert!(usage <= solution.scheme.rate(u, v) + RATE_EPS);
        }
        assert!(expected.iter().all(|&(u, v, _)| (u, v) != (5, 0)));
    }

    #[test]
    fn partial_throughput_decomposition() {
        // Asking for less than the scheme's throughput is allowed: only a prefix of every
        // node's feeders is used.
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let half = solution.throughput / 2.0;
        let decomposition = decompose_acyclic(&solution.scheme, half).unwrap();
        decomposition.verify(&solution.scheme).unwrap();
        assert!(eps::approx_eq(decomposition.throughput(), half));
    }

    #[test]
    fn rejects_cyclic_scheme() {
        let (scheme, t) = cyclic_open_optimal_scheme(&figure14()).unwrap();
        assert_eq!(decompose_acyclic(&scheme, t), Err(TreesError::NotAcyclic));
    }

    #[test]
    fn rejects_non_positive_throughput() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        assert!(matches!(
            decompose_acyclic(&solution.scheme, 0.0),
            Err(TreesError::NonPositiveThroughput(_))
        ));
        assert!(matches!(
            decompose_acyclic(&solution.scheme, f64::NAN),
            Err(TreesError::NonPositiveThroughput(_))
        ));
    }

    #[test]
    fn rejects_starved_receiver() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let err = decompose_acyclic(&solution.scheme, solution.throughput * 2.0).unwrap_err();
        assert!(matches!(err, TreesError::InsufficientIncoming { .. }));
    }

    #[test]
    fn serde_roundtrip() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
        let json = serde_json::to_string(&decomposition).unwrap();
        let back: TreeDecomposition = serde_json::from_str(&json).unwrap();
        // serde_json parses floats to within one ULP (the `float_roundtrip` feature is off),
        // so compare structure exactly and weights approximately.
        assert_eq!(back.num_trees(), decomposition.num_trees());
        assert_eq!(back.num_nodes(), decomposition.num_nodes());
        for (a, b) in decomposition.trees().zip(back.trees()) {
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(a.edges(), b.edges());
            assert!(eps::approx_eq(a.weight(), b.weight()));
        }
        assert!(eps::approx_eq(
            back.throughput(),
            decomposition.throughput()
        ));
    }

    #[test]
    fn hand_corrupted_documents_are_errors_not_panics() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
        let trees = decomposition.num_trees();
        // The receiver with the most runs has its runs edited in a copy, which is written
        // out and read back as a hand-edited `--out` document would be.
        let v = (1..decomposition.num_nodes())
            .max_by_key(|&v| decomposition.runs[v].len())
            .unwrap();
        assert!(decomposition.runs[v].len() >= 2, "{decomposition:?}");
        type Edit<'a> = dyn Fn(&mut Vec<(usize, NodeId)>) + 'a;
        let corrupt = |node: NodeId, edit: &Edit<'_>| {
            let mut copy = decomposition.clone();
            edit(&mut copy.runs[node]);
            let text = serde_json::to_string(&copy).unwrap();
            serde_json::from_str::<TreeDecomposition>(&text).unwrap()
        };
        let edits: [(&str, &Edit<'_>); 6] = [
            ("runs out of order", &|runs| runs.swap(0, 1)),
            ("duplicate first tree", &|runs| runs[1].0 = runs[0].0),
            ("first tree out of range", &|runs| runs[1].0 = trees + 3),
            ("run past the last tree", &|runs| runs.push((trees, 0))),
            ("parent out of range", &|runs| runs[0].1 = 99),
            ("no runs", &|runs| runs.clear()),
        ];
        for (what, edit) in edits {
            let verdict = corrupt(v, edit).verify(&solution.scheme);
            assert!(
                matches!(verdict, Err(TreesError::InvalidArborescence(_))),
                "{what}: {verdict:?}"
            );
        }
        let parented_source = corrupt(0, &|runs| runs.push((0, 1)));
        assert!(parented_source.trees().next().unwrap().is_err());
        assert!(parented_source.max_depth().is_err());
        assert!(crate::stripe::completion_estimate(&parented_source, 10.0, 1.0).is_err());
        let out_of_range = corrupt(v, &|runs| runs[1].0 = trees + 3);
        assert!(out_of_range.used_edges().is_err());
    }

    #[test]
    fn deep_open_only_instance() {
        // Source-limited open-only instance with many relays: the decomposition still covers
        // every receiver and respects every edge capacity.
        let inst = Instance::open_only(3.0, vec![3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.25, 0.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        let decomposition = decompose_acyclic(&scheme, t).unwrap();
        decomposition.verify(&scheme).unwrap();
        let e = scheme.edges().len();
        let r = inst.num_receivers();
        assert!(decomposition.num_trees() <= e - r + 1);
    }
}
