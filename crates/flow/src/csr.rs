//! CSR flow kernel: the flat arc arena ([`FlowArena`]), the reusable Dinic workspace
//! ([`FlowSolver`]) with its batched multi-sink evaluator ([`FlowSolver::min_max_flow`])
//! and min-cut certificate ([`FlowSolver::min_cut`]), and the fan-out heuristic
//! ([`suggested_flow_threads`]). The crate docs describe how they fit together; the
//! counting-allocator test in `tests/no_alloc.rs` pins the kernel's zero-allocation
//! steady state.

use crate::eps;

/// Immutable CSR residual arena for one network.
///
/// Input edge `k` contributes a forward arc (capacity `c_k`) and a backward arc
/// (capacity 0); both live in the flat arrays below, grouped by tail node. The arena
/// carries no mutable solver state — residual capacities live in [`FlowSolver`], so one
/// arena can be shared by any number of solvers (including across threads).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowArena {
    num_nodes: usize,
    num_edges: usize,
    /// `start[v]..start[v + 1]` is the CSR arc range of node `v` (length `n + 1`).
    start: Vec<u32>,
    /// Head node of each arc (length `2m`).
    to: Vec<u32>,
    /// Position of each arc's reverse arc (length `2m`).
    partner: Vec<u32>,
    /// Initial residual capacity of each arc: `c_k` forward, `0` backward (length `2m`).
    base_cap: Vec<f64>,
    /// CSR position of the forward arc of input edge `k` (length `m`).
    edge_pos: Vec<u32>,
    /// Total capacity entering each node (length `n`).
    in_cap: Vec<f64>,
}

impl FlowArena {
    /// Builds the arena from explicit edge triples.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or a capacity is negative or not finite.
    #[must_use]
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize, f64)]) -> Self {
        let num_edges = edges.len();
        assert!(
            2 * num_edges < u32::MAX as usize && num_nodes < u32::MAX as usize,
            "network too large for u32 arc indices"
        );
        let mut degree = vec![0u32; num_nodes + 1];
        for &(from, to, capacity) in edges {
            assert!(from < num_nodes, "edge tail {from} out of range");
            assert!(to < num_nodes, "edge head {to} out of range");
            assert!(
                capacity.is_finite() && capacity >= 0.0,
                "capacity must be finite and non-negative, got {capacity}"
            );
            degree[from] += 1;
            degree[to] += 1;
        }
        let mut start = vec![0u32; num_nodes + 1];
        for v in 0..num_nodes {
            start[v + 1] = start[v] + degree[v];
        }
        let mut cursor: Vec<u32> = start[..num_nodes].to_vec();
        let mut to_arr = vec![0u32; 2 * num_edges];
        let mut partner = vec![0u32; 2 * num_edges];
        let mut base_cap = vec![0.0f64; 2 * num_edges];
        let mut edge_pos = vec![0u32; num_edges];
        let mut in_cap = vec![0.0f64; num_nodes];
        for (k, &(from, to, capacity)) in edges.iter().enumerate() {
            let forward = cursor[from];
            cursor[from] += 1;
            let backward = cursor[to];
            cursor[to] += 1;
            to_arr[forward as usize] = to as u32;
            base_cap[forward as usize] = capacity;
            to_arr[backward as usize] = from as u32;
            base_cap[backward as usize] = 0.0;
            partner[forward as usize] = backward;
            partner[backward as usize] = forward;
            edge_pos[k] = forward;
            in_cap[to] += capacity;
        }
        FlowArena {
            num_nodes,
            num_edges,
            start,
            to: to_arr,
            partner,
            base_cap,
            edge_pos,
            in_cap,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of input edges (half the number of residual arcs).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Total capacity entering `node` (precomputed; `O(1)`).
    #[must_use]
    pub fn in_capacity(&self, node: usize) -> f64 {
        self.in_cap[node]
    }

    /// Endpoints `(tail, head)` of input edge `edge` (insertion order of
    /// [`FlowArena::from_edges`]).
    ///
    /// # Panics
    ///
    /// Panics if `edge >= num_edges`.
    #[must_use]
    pub fn edge_endpoints(&self, edge: usize) -> (usize, usize) {
        let forward = self.edge_pos[edge] as usize;
        let head = self.to[forward] as usize;
        let tail = self.to[self.partner[forward] as usize] as usize;
        (tail, head)
    }

    /// Capacity currently assigned to input edge `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge >= num_edges`.
    #[must_use]
    pub fn edge_capacity(&self, edge: usize) -> f64 {
        self.base_cap[self.edge_pos[edge] as usize]
    }

    /// Overwrites every input edge's capacity in place (`capacities[k]` is the new
    /// capacity of edge `k`).
    ///
    /// This is the in-place update path used by evaluation contexts that re-score
    /// near-identical networks (e.g. the dichotomic search probing a scheme whose edge
    /// *set* is fixed while the rates move): instead of rebuilding the arena — degree
    /// counting, prefix sums, and five array allocations — only the capacities and the
    /// in-capacity sums are rewritten. The result is bit-for-bit the arena that
    /// [`FlowArena::from_edges`] would build over the same edge set with the new
    /// capacities — in-capacities are resummed in insertion order — without any
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != num_edges` or any capacity is negative or not
    /// finite.
    pub fn set_edge_capacities(&mut self, capacities: &[f64]) {
        assert_eq!(
            capacities.len(),
            self.num_edges,
            "expected one capacity per input edge"
        );
        self.in_cap.fill(0.0);
        for (edge, &capacity) in capacities.iter().enumerate() {
            assert!(
                capacity.is_finite() && capacity >= 0.0,
                "capacity must be finite and non-negative, got {capacity}"
            );
            let forward = self.edge_pos[edge] as usize;
            self.base_cap[forward] = capacity;
            self.in_cap[self.to[forward] as usize] += capacity;
        }
    }

    /// Total capacity leaving `node` (`O(out-degree)`).
    #[must_use]
    pub fn out_capacity(&self, node: usize) -> f64 {
        let range = self.start[node] as usize..self.start[node + 1] as usize;
        range.map(|arc| self.base_cap[arc]).sum()
    }

    /// Fills `order` with `sinks` sorted ascending by in-capacity (ties by node id).
    ///
    /// This is the evaluation order shared by [`FlowSolver::min_max_flow`] and
    /// [`crate::FlowPool::min_max_flow_with`]; the two must visit sinks identically, so
    /// the ordering lives in one place. Reuses `order`'s allocation.
    ///
    /// # Panics
    ///
    /// Panics if a sink is out of range.
    pub(crate) fn order_sinks_into(&self, sinks: &[usize], order: &mut Vec<u32>) {
        order.clear();
        order.extend(sinks.iter().map(|&sink| {
            assert!(sink < self.num_nodes, "sink out of range");
            sink as u32
        }));
        order.sort_unstable_by(|&a, &b| {
            self.in_cap[a as usize]
                .partial_cmp(&self.in_cap[b as usize])
                .expect("capacities are finite")
                .then(a.cmp(&b))
        });
    }
}

/// A minimum `s`–`t` cut, the optimality certificate of a maximum flow (see
/// [`FlowSolver::min_cut`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MinCut {
    /// Value of the cut (equal to the maximum flow value up to tolerance).
    pub value: f64,
    /// Nodes on the source side of the cut, ascending.
    pub source_side: Vec<usize>,
    /// Input edges crossing the cut from the source side to the sink side, as indices in
    /// [`FlowArena::from_edges`] order, ascending.
    pub cut_edges: Vec<usize>,
}

/// Reusable max-flow workspace (Dinic's blocking-flow algorithm).
///
/// Dinic runs in `O(V² E)` independently of the capacity values, which makes it safe for
/// the real-valued capacities used throughout this workspace; residual capacities below
/// the workspace tolerance ([`eps::is_positive`]) are treated as zero.
///
/// All buffers are owned by the solver and resized lazily to the arena's dimensions, so a
/// solver can be reused across networks of different sizes; in steady state (same-or-smaller
/// arena) a solve performs no heap allocation. A fresh default solver is cheap — reuse is
/// what makes the batched evaluators fast, not construction cost.
#[derive(Debug, Default, Clone)]
pub struct FlowSolver {
    /// Residual capacities, indexed like the arena's arc arrays.
    cap: Vec<f64>,
    /// BFS level of each node.
    level: Vec<i32>,
    /// Current-arc cursor of each node, an absolute CSR position.
    iter: Vec<u32>,
    /// BFS queue.
    queue: Vec<u32>,
    /// Sink ordering scratch for [`FlowSolver::min_max_flow`].
    sinks: Vec<u32>,
}

impl FlowSolver {
    /// Creates an empty solver; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        FlowSolver::default()
    }

    /// Resets residual capacities to the arena's base capacities and sizes the per-node
    /// buffers.
    fn reset(&mut self, arena: &FlowArena) {
        self.cap.clear();
        self.cap.extend_from_slice(&arena.base_cap);
        self.level.resize(arena.num_nodes, -1);
        self.iter.resize(arena.num_nodes, 0);
        self.queue.resize(arena.num_nodes + 1, 0);
    }

    /// Maximum-flow value from `source` to `sink` (Dinic). Buffers are reused.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `sink` is out of range.
    pub fn max_flow(&mut self, arena: &FlowArena, source: usize, sink: usize) -> f64 {
        self.max_flow_limited(arena, source, sink, f64::INFINITY)
    }

    /// Like [`FlowSolver::max_flow`], but stops augmenting as soon as the accumulated flow
    /// reaches `limit`.
    ///
    /// The return value is exact when it is below `limit`; when it is `>= limit` it is a
    /// certificate that the true maximum flow is at least that large (the batched
    /// evaluators only need this one-sided information).
    pub fn max_flow_limited(
        &mut self,
        arena: &FlowArena,
        source: usize,
        sink: usize,
        limit: f64,
    ) -> f64 {
        assert!(source < arena.num_nodes, "source out of range");
        assert!(sink < arena.num_nodes, "sink out of range");
        self.reset(arena);
        if source == sink || limit <= 0.0 {
            return 0.0;
        }
        let mut total = 0.0;
        while total < limit
            && Self::bfs_levels(
                arena,
                &self.cap,
                &mut self.level,
                &mut self.queue,
                source,
                sink,
            )
        {
            for v in 0..arena.num_nodes {
                self.iter[v] = arena.start[v];
            }
            loop {
                let pushed = Self::dfs_augment(
                    arena,
                    &mut self.cap,
                    &self.level,
                    &mut self.iter,
                    source as u32,
                    sink as u32,
                    f64::INFINITY,
                );
                if !eps::is_positive(pushed) {
                    break;
                }
                total += pushed;
                if total >= limit {
                    return total;
                }
            }
        }
        total
    }

    /// Per-edge flows of the last solve on `arena`, reusing `edge_flows`' allocation (one
    /// entry per input edge, [`FlowArena::from_edges`] order): original capacity minus
    /// remaining forward residual, clamped to `[0, ∞)`. A solve with `source == sink`
    /// leaves every flow at zero.
    pub fn extract_edge_flows_into(&self, arena: &FlowArena, edge_flows: &mut Vec<f64>) {
        edge_flows.clear();
        edge_flows.extend(arena.edge_pos.iter().map(|&pos| {
            eps::clamp_nonnegative(arena.base_cap[pos as usize] - self.cap[pos as usize]).max(0.0)
        }));
    }

    /// Solves `source → sink` and returns the minimum cut certifying the solve: the
    /// source side is the set of nodes reachable from `source` in the final residual
    /// network (one BFS over this solver's residual capacities, `O(n + m)` on top of the
    /// solve), and the cut edges are the input edges of positive capacity leaving it.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `sink` is out of range.
    pub fn min_cut(&mut self, arena: &FlowArena, source: usize, sink: usize) -> MinCut {
        self.max_flow(arena, source, sink);
        Self::bfs_levels(
            arena,
            &self.cap,
            &mut self.level,
            &mut self.queue,
            source,
            sink,
        );
        let source_side = (0..arena.num_nodes)
            .filter(|&node| self.level[node] >= 0)
            .collect();
        let mut cut_edges = Vec::new();
        let mut value = 0.0;
        for edge in 0..arena.num_edges {
            let (tail, head) = arena.edge_endpoints(edge);
            let capacity = arena.edge_capacity(edge);
            if self.level[tail] >= 0 && self.level[head] < 0 && eps::is_positive(capacity) {
                cut_edges.push(edge);
                value += capacity;
            }
        }
        MinCut {
            value,
            source_side,
            cut_edges,
        }
    }

    /// Breadth-first search building the Dinic level graph; `true` iff the sink is reachable.
    // The CSR range indexes two parallel arrays (`to` and `cap`); an iterator over one of
    // them would hide that coupling.
    #[allow(clippy::needless_range_loop)]
    fn bfs_levels(
        arena: &FlowArena,
        cap: &[f64],
        level: &mut [i32],
        queue: &mut [u32],
        source: usize,
        sink: usize,
    ) -> bool {
        level.fill(-1);
        level[source] = 0;
        queue[0] = source as u32;
        let (mut head, mut tail) = (0usize, 1usize);
        while head < tail {
            let node = queue[head] as usize;
            head += 1;
            for arc in arena.start[node] as usize..arena.start[node + 1] as usize {
                let to = arena.to[arc] as usize;
                if level[to] < 0 && eps::is_positive(cap[arc]) {
                    level[to] = level[node] + 1;
                    queue[tail] = to as u32;
                    tail += 1;
                }
            }
        }
        level[sink] >= 0
    }

    /// Depth-first search pushing flow along the level graph (current-arc variant).
    fn dfs_augment(
        arena: &FlowArena,
        cap: &mut [f64],
        level: &[i32],
        iter: &mut [u32],
        node: u32,
        sink: u32,
        limit: f64,
    ) -> f64 {
        if node == sink {
            return limit;
        }
        let node_idx = node as usize;
        let end = arena.start[node_idx + 1];
        while iter[node_idx] < end {
            let arc = iter[node_idx] as usize;
            let to = arena.to[arc];
            if level[to as usize] == level[node_idx] + 1 && eps::is_positive(cap[arc]) {
                let pushed =
                    Self::dfs_augment(arena, cap, level, iter, to, sink, limit.min(cap[arc]));
                if eps::is_positive(pushed) {
                    cap[arc] -= pushed;
                    cap[arena.partner[arc] as usize] += pushed;
                    return pushed;
                }
            }
            iter[node_idx] += 1;
        }
        0.0
    }

    /// Minimum over `sinks` of the maximum flow from `source` — the batched evaluator
    /// behind `BroadcastScheme::throughput`.
    ///
    /// Returns `f64::INFINITY` when `sinks` is empty (the identity of `min`), mirroring a
    /// fold over individually computed flows. The result is **exactly** equal to computing
    /// every max-flow in full and taking the minimum:
    ///
    /// * sinks are evaluated in ascending in-capacity order, so a tight minimum is usually
    ///   established after the first solve;
    /// * each subsequent solve is capped at the running minimum — a sink whose flow reaches
    ///   the cap cannot lower the minimum, so terminating it early never changes the result,
    ///   and a sink whose true flow is below the cap is computed exactly;
    /// * a running minimum of zero short-circuits the remaining sinks.
    pub fn min_max_flow(&mut self, arena: &FlowArena, source: usize, sinks: &[usize]) -> f64 {
        let mut order = std::mem::take(&mut self.sinks);
        arena.order_sinks_into(sinks, &mut order);
        let mut minimum = f64::INFINITY;
        for &sink in &order {
            if minimum <= 0.0 {
                break;
            }
            let flow = self.max_flow_limited(arena, source, sink as usize, minimum);
            if flow < minimum {
                minimum = flow;
            }
        }
        self.sinks = order;
        minimum
    }
}

/// Lane-count heuristic for [`crate::FlowPool::min_max_flow_with`]: how many threads
/// are worth using for a multi-sink evaluation of `num_sinks` sinks on a
/// `num_nodes`-node arena.
///
/// Small evaluations cannot repay the per-call helper spawn and the helpers' cold
/// solver buffers, so the heuristic stays sequential below 512 nodes or 96 sinks. Above
/// the thresholds it uses the machine's available parallelism, capped at 8 so
/// evaluation fan-out stays polite inside already-parallel sweeps (on a single-core
/// host it therefore always returns 1, and fan-out costs nothing where it cannot win).
/// The bound holds per evaluation: concurrent evaluations each get their own lanes.
#[must_use]
pub fn suggested_flow_threads(num_nodes: usize, num_sinks: usize) -> usize {
    if num_nodes < 512 || num_sinks < 96 {
        return 1;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowPool;

    /// The multi-sink evaluation from node 0, fanned out over `threads` lanes on a
    /// pool of this test's own.
    fn fanned_out(arena: &FlowArena, sinks: &[usize], threads: usize) -> f64 {
        FlowPool::new(8).min_max_flow_with(&mut FlowSolver::new(), arena, 0, sinks, threads)
    }

    fn diamond_arena() -> FlowArena {
        FlowArena::from_edges(
            4,
            &[
                (0, 1, 3.0),
                (0, 2, 2.0),
                (1, 3, 2.0),
                (2, 3, 4.0),
                (1, 2, 5.0),
            ],
        )
    }

    #[test]
    fn arena_layout_is_consistent() {
        let arena = diamond_arena();
        assert_eq!(arena.num_nodes(), 4);
        assert_eq!(arena.num_edges(), 5);
        assert_eq!(arena.start.len(), 5);
        assert_eq!(arena.to.len(), 10);
        // Every arc's partner points back.
        for arc in 0..arena.to.len() {
            assert_eq!(arena.partner[arena.partner[arc] as usize] as usize, arc);
        }
        // In-capacities are maintained.
        assert!((arena.in_capacity(3) - 6.0).abs() < 1e-12);
        assert!((arena.in_capacity(2) - 7.0).abs() < 1e-12);
        assert_eq!(arena.in_capacity(0), 0.0);
        assert!((arena.out_capacity(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dinic_on_arena_matches_known_value() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        assert!((solver.max_flow(&arena, 0, 3) - 5.0).abs() < 1e-9);
        // Reuse for a different terminal pair without rebuilding anything.
        assert!((solver.max_flow(&arena, 0, 2) - 5.0).abs() < 1e-9);
        assert!((solver.max_flow(&arena, 1, 3) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn limited_solve_stops_early_but_never_underreports() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        let limited = solver.max_flow_limited(&arena, 0, 3, 1.0);
        assert!(limited >= 1.0);
        let full = solver.max_flow(&arena, 0, 3);
        assert!(limited <= full + 1e-12);
    }

    #[test]
    fn min_max_flow_matches_per_sink_evaluation() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        let naive = [1usize, 2, 3]
            .iter()
            .map(|&sink| FlowSolver::new().max_flow(&arena, 0, sink))
            .fold(f64::INFINITY, f64::min);
        let batched = solver.min_max_flow(&arena, 0, &[1, 2, 3]);
        assert_eq!(batched, naive);
        assert_eq!(fanned_out(&arena, &[1, 2, 3], 3), naive);
    }

    #[test]
    fn min_max_flow_empty_sinks_is_infinite() {
        let arena = diamond_arena();
        assert_eq!(
            FlowSolver::new().min_max_flow(&arena, 0, &[]),
            f64::INFINITY
        );
        assert_eq!(fanned_out(&arena, &[], 4), f64::INFINITY);
    }

    #[test]
    fn min_max_flow_zero_short_circuits() {
        // Node 3 is unreachable: the batched evaluator must report 0 and may skip the rest.
        let arena = FlowArena::from_edges(4, &[(0, 1, 2.0), (1, 2, 2.0)]);
        let mut solver = FlowSolver::new();
        assert_eq!(solver.min_max_flow(&arena, 0, &[1, 2, 3]), 0.0);
    }

    #[test]
    fn solver_reuse_across_different_arenas() {
        let mut solver = FlowSolver::new();
        let small = FlowArena::from_edges(2, &[(0, 1, 1.5)]);
        assert!((solver.max_flow(&small, 0, 1) - 1.5).abs() < 1e-12);
        let larger = diamond_arena();
        assert!((solver.max_flow(&larger, 0, 3) - 5.0).abs() < 1e-9);
        let tiny = FlowArena::from_edges(3, &[(0, 2, 0.25)]);
        assert!((solver.max_flow(&tiny, 0, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn edge_accessors_follow_insertion_order() {
        let arena = diamond_arena();
        assert_eq!(arena.edge_endpoints(0), (0, 1));
        assert_eq!(arena.edge_endpoints(4), (1, 2));
        assert_eq!(arena.edge_capacity(0), 3.0);
        assert_eq!(arena.edge_capacity(3), 4.0);
    }

    #[test]
    fn in_place_capacity_update_matches_rebuild() {
        let edges = [
            (0usize, 1usize, 3.0),
            (0, 2, 2.0),
            (1, 3, 2.0),
            (2, 3, 4.0),
            (1, 2, 5.0),
        ];
        let mut updated = FlowArena::from_edges(4, &edges);
        let new_caps = [1.0, 7.0, 0.0, 2.5, 3.0];
        updated.set_edge_capacities(&new_caps);
        let rebuilt = FlowArena::from_edges(
            4,
            &edges
                .iter()
                .zip(new_caps)
                .map(|(&(from, to, _), cap)| (from, to, cap))
                .collect::<Vec<_>>(),
        );
        // The updated arena must be bit-for-bit the rebuilt one (same CSR layout, same
        // capacities, same in-capacities), so every downstream solve agrees exactly.
        assert_eq!(updated, rebuilt);
        let mut solver = FlowSolver::new();
        assert_eq!(
            solver.max_flow(&updated, 0, 3),
            solver.max_flow(&rebuilt, 0, 3)
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_capacity_update_is_rejected() {
        let mut arena = diamond_arena();
        arena.set_edge_capacities(&[1.0, 2.0, -1.0, 4.0, 5.0]);
    }

    #[test]
    fn suggested_threads_stays_sequential_for_small_evaluations() {
        assert_eq!(suggested_flow_threads(511, 499), 1);
        assert_eq!(suggested_flow_threads(5000, 64), 1);
        assert_eq!(suggested_flow_threads(500, 95), 1);
        // At or above the thresholds the heuristic defers to available
        // parallelism (so it still returns 1 on a single-core host).
        for eligible in [
            suggested_flow_threads(512, 96),
            suggested_flow_threads(2000, 1999),
        ] {
            assert!((1..=8).contains(&eligible));
        }
    }

    #[test]
    fn parallel_workers_cap_from_shared_minimum() {
        // A wide instance where one sink has a much smaller flow than the others.
        let mut edges = Vec::new();
        let n = 40;
        for v in 1..n {
            edges.push((0, v, if v == 17 { 0.5 } else { 10.0 }));
        }
        let arena = FlowArena::from_edges(n, &edges);
        let sinks: Vec<usize> = (1..n).collect();
        let sequential = FlowSolver::new().min_max_flow(&arena, 0, &sinks);
        assert_eq!(sequential, 0.5);
        assert_eq!(fanned_out(&arena, &sinks, 8), 0.5);
    }

    /// Solves `source → sink` on a fresh arena and checks the extracted edge flows:
    /// every flow within `[0, capacity]`, conservation at every inner node, and the
    /// solve's value arriving at the sink. Returns the value.
    fn solve_checked(num_nodes: usize, edges: &[(usize, usize, f64)], s: usize, t: usize) -> f64 {
        let arena = FlowArena::from_edges(num_nodes, edges);
        let mut solver = FlowSolver::new();
        let value = solver.max_flow(&arena, s, t);
        let mut flows = Vec::new();
        solver.extract_edge_flows_into(&arena, &mut flows);
        assert_eq!(flows.len(), edges.len());
        let mut balance = vec![0.0; num_nodes];
        for (&(from, to, capacity), &flow) in edges.iter().zip(&flows) {
            assert!(
                (0.0..=capacity + 1e-9).contains(&flow),
                "flow {flow} on {from}->{to}"
            );
            balance[from] -= flow;
            balance[to] += flow;
        }
        for (node, &net) in balance.iter().enumerate() {
            if node != s && node != t {
                assert!(net.abs() < 1e-9, "node {node} is unbalanced by {net}");
            }
        }
        if s != t {
            assert!((balance[t] - value).abs() < 1e-9);
        }
        value
    }

    #[test]
    fn simple_path() {
        let value = solve_checked(3, &[(0, 1, 2.0), (1, 2, 1.5)], 0, 2);
        assert!((value - 1.5).abs() < 1e-9);
    }

    #[test]
    fn diamond_max_flow() {
        let edges = [
            (0, 1, 3.0),
            (0, 2, 2.0),
            (1, 3, 2.0),
            (2, 3, 4.0),
            (1, 2, 5.0),
        ];
        assert!((solve_checked(4, &edges, 0, 3) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink() {
        assert_eq!(solve_checked(4, &[(0, 1, 2.0), (2, 3, 2.0)], 0, 3), 0.0);
    }

    #[test]
    fn source_equals_sink() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        assert!(solver.max_flow(&arena, 0, 3) > 0.0);
        // Nothing is solved, and no flow of the previous solve lingers.
        assert_eq!(solver.max_flow(&arena, 1, 1), 0.0);
        let mut flows = Vec::new();
        solver.extract_edge_flows_into(&arena, &mut flows);
        assert_eq!(flows, vec![0.0; arena.num_edges()]);
    }

    #[test]
    fn respects_fractional_capacities() {
        let edges = [(0, 1, 0.3), (0, 2, 0.7), (1, 3, 1.0), (2, 3, 0.25)];
        assert!((solve_checked(4, &edges, 0, 3) - 0.55).abs() < 1e-9);
    }

    #[test]
    fn parallel_edges_accumulate() {
        assert!((solve_checked(2, &[(0, 1, 1.0), (0, 1, 2.5)], 0, 1) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn back_edges_are_used() {
        // Classic example where the augmenting path must undo flow on the cross edge.
        let edges = [
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 2, 1.0),
            (1, 3, 1.0),
            (2, 3, 1.0),
        ];
        assert!((solve_checked(4, &edges, 0, 3) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn source_out_of_range() {
        let _ = FlowSolver::new().max_flow(&diamond_arena(), 9, 3);
    }

    #[test]
    fn cut_value_equals_flow_value() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        let flow = solver.max_flow(&arena, 0, 3);
        let cut = solver.min_cut(&arena, 0, 3);
        assert!((cut.value - flow).abs() < 1e-9);
        assert!((cut.value - 5.0).abs() < 1e-9);
        assert!(cut.source_side.contains(&0));
        assert!(!cut.source_side.contains(&3));
    }

    #[test]
    fn bottleneck_edge_identified() {
        // Edge 0 is wide, edge 1 narrow: only the narrow one is cut.
        let arena = FlowArena::from_edges(3, &[(0, 1, 10.0), (1, 2, 1.0)]);
        let cut = FlowSolver::new().min_cut(&arena, 0, 2);
        assert_eq!(cut.cut_edges, vec![1]);
        assert!((cut.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink_gives_zero_cut() {
        let arena = FlowArena::from_edges(3, &[(0, 1, 2.0)]);
        let cut = FlowSolver::new().min_cut(&arena, 0, 2);
        assert_eq!(cut.value, 0.0);
        assert!(cut.cut_edges.is_empty());
        assert_eq!(cut.source_side, vec![0, 1]);
    }

    #[test]
    fn source_side_contains_all_reachable_when_cut_downstream() {
        let arena = FlowArena::from_edges(5, &[(0, 1, 5.0), (1, 2, 5.0), (2, 3, 0.5), (3, 4, 5.0)]);
        let cut = FlowSolver::new().min_cut(&arena, 0, 4);
        assert_eq!(cut.source_side, vec![0, 1, 2]);
        assert_eq!(cut.cut_edges, vec![2]);
        assert!((cut.value - 0.5).abs() < 1e-9);
    }
}
