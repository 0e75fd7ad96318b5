//! CSR flow kernel: a flat arc arena plus a reusable solver workspace.
//!
//! Every algorithm in the workspace scores schemes through `min_k maxflow(source → C_k)`,
//! so the flow substrate is the hottest layer of the codebase. This module replaces the
//! former pointer-chasing `Vec<Vec<usize>>` residual representation with:
//!
//! * [`FlowArena`] — an immutable compressed-sparse-row (CSR) arc arena built once per
//!   network: flat `start`/`to`/`partner`/`base_cap` arrays, residual arcs of a node stored
//!   contiguously for cache-friendly scans, plus a precomputed per-node in-capacity.
//! * [`FlowSolver`] — a reusable workspace owning every mutable buffer the solvers need
//!   (residual capacities, BFS levels, current-arc cursors, queues, push-relabel state).
//!   After warm-up, repeated solves perform **no heap allocation**: buffers are cleared and
//!   refilled in place (this is asserted by a counting-allocator test).
//! * [`FlowSolver::min_max_flow`] — the batched multi-sink evaluator behind
//!   `BroadcastScheme::throughput`: sinks are visited in ascending in-capacity order so a
//!   tight minimum is found early, and each subsequent max-flow is capped at the running
//!   minimum (a sink whose flow reaches the cap cannot lower the minimum, so its solve
//!   terminates early). The result is exactly equal to evaluating every sink in full.
//! * [`min_max_flow_parallel`] — the same evaluation fanned out over the persistent
//!   worker pool ([`crate::pool::FlowPool`]) for large instances, one long-lived solver
//!   workspace per worker, sharing the running minimum through an atomic so late sinks
//!   still benefit from early-exit caps.

use crate::eps;
use crate::graph::{FlowNetwork, FlowResult};

/// Sentinel for "no arc" in parent arrays.
const NO_ARC: u32 = u32::MAX;

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

    /// Builds the arena from a [`FlowNetwork`] (same arc order as edge insertion order).
    #[must_use]
    pub fn from_network(network: &FlowNetwork) -> Self {
        let edges: Vec<(usize, usize, f64)> = network
            .edges()
            .iter()
            .map(|e| (e.from, e.to, e.capacity))
            .collect();
        FlowArena::from_edges(network.num_nodes(), &edges)
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
    /// [`min_max_flow_parallel`]; the two must visit sinks identically, so the ordering
    /// lives in one place. Reuses `order`'s allocation.
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

/// Reusable max-flow workspace.
///
/// All buffers are owned by the solver and resized lazily to the arena's dimensions, so a
/// solver can be reused across networks of different sizes; in steady state (same-or-smaller
/// arena) a solve performs no heap allocation. A fresh default solver is cheap — reuse is
/// what makes the batched evaluators fast, not construction cost.
#[derive(Debug, Default, Clone)]
pub struct FlowSolver {
    /// Residual capacities, indexed like the arena's arc arrays.
    cap: Vec<f64>,
    /// BFS level of each node (Dinic).
    level: Vec<i32>,
    /// Current-arc cursor of each node, an absolute CSR position (Dinic).
    iter: Vec<u32>,
    /// BFS queue (Dinic, Edmonds–Karp) / FIFO ring buffer (push-relabel).
    queue: Vec<u32>,
    /// Arc used to reach each node (Edmonds–Karp).
    parent_arc: Vec<u32>,
    /// Bottleneck capacity along the BFS tree path (Edmonds–Karp).
    bottleneck: Vec<f64>,
    /// Node heights (push-relabel).
    height: Vec<u32>,
    /// Node excesses (push-relabel).
    excess: Vec<f64>,
    /// Whether a node is queued (push-relabel).
    in_queue: Vec<bool>,
    /// Sink ordering scratch for [`FlowSolver::min_max_flow`].
    sinks: Vec<u32>,
}

impl FlowSolver {
    /// Creates an empty solver; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        FlowSolver::default()
    }

    /// Creates a solver with buffers pre-sized for `num_nodes` / `num_edges`.
    #[must_use]
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        let mut solver = FlowSolver::default();
        solver.cap.reserve(2 * num_edges);
        solver.level.reserve(num_nodes);
        solver.iter.reserve(num_nodes);
        solver.queue.reserve(num_nodes + 1);
        solver
    }

    /// Resets residual capacities to the arena's base capacities.
    fn load_caps(&mut self, arena: &FlowArena) {
        self.cap.clear();
        self.cap.extend_from_slice(&arena.base_cap);
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
        if source == sink || limit <= 0.0 {
            return 0.0;
        }
        self.load_caps(arena);
        self.level.resize(arena.num_nodes, -1);
        self.iter.resize(arena.num_nodes, 0);
        self.queue.resize(arena.num_nodes + 1, 0);
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

    /// Maximum flow with per-edge flow extraction (Dinic).
    pub fn max_flow_result(&mut self, arena: &FlowArena, source: usize, sink: usize) -> FlowResult {
        let mut edge_flows = Vec::new();
        let value = self.max_flow_result_into(arena, source, sink, &mut edge_flows);
        FlowResult { value, edge_flows }
    }

    /// Like [`FlowSolver::max_flow_result`], but writes the per-edge flows into a
    /// caller-owned buffer instead of allocating a fresh `Vec` per call.
    ///
    /// `edge_flows` is cleared and refilled (one entry per input edge, insertion order);
    /// in steady state — a buffer that has already reached `num_edges` capacity — the
    /// call performs no heap allocation, which is what the repair / simulation loops
    /// that extract flows every tick rely on. Returns the flow value.
    pub fn max_flow_result_into(
        &mut self,
        arena: &FlowArena,
        source: usize,
        sink: usize,
        edge_flows: &mut Vec<f64>,
    ) -> f64 {
        assert!(source < arena.num_nodes, "source out of range");
        assert!(sink < arena.num_nodes, "sink out of range");
        if source == sink {
            // `max_flow` skips the solve (and the capacity load) for this case, so there
            // is no residual state to extract flows from.
            edge_flows.clear();
            edge_flows.resize(arena.num_edges, 0.0);
            return 0.0;
        }
        let value = self.max_flow(arena, source, sink);
        self.extract_edge_flows_into(arena, edge_flows);
        value
    }

    /// Per-edge flows of the last solve, reusing `edge_flows`' allocation: original
    /// capacity minus remaining forward residual, clamped to `[0, ∞)`.
    pub fn extract_edge_flows_into(&self, arena: &FlowArena, edge_flows: &mut Vec<f64>) {
        edge_flows.clear();
        edge_flows.extend(arena.edge_pos.iter().map(|&pos| {
            eps::clamp_nonnegative(arena.base_cap[pos as usize] - self.cap[pos as usize]).max(0.0)
        }));
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

    /// Maximum flow via shortest augmenting paths (Edmonds–Karp), with edge flows.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `sink` is out of range.
    pub fn edmonds_karp(&mut self, arena: &FlowArena, source: usize, sink: usize) -> FlowResult {
        assert!(source < arena.num_nodes, "source out of range");
        assert!(sink < arena.num_nodes, "sink out of range");
        if source == sink {
            return FlowResult {
                value: 0.0,
                edge_flows: vec![0.0; arena.num_edges],
            };
        }
        self.load_caps(arena);
        self.parent_arc.resize(arena.num_nodes, NO_ARC);
        self.bottleneck.resize(arena.num_nodes, 0.0);
        self.queue.resize(arena.num_nodes + 1, 0);
        let mut total = 0.0;
        loop {
            self.parent_arc.fill(NO_ARC);
            self.bottleneck[source] = f64::INFINITY;
            self.queue[0] = source as u32;
            let (mut head, mut tail) = (0usize, 1usize);
            let mut found = 0.0;
            'bfs: while head < tail {
                let node = self.queue[head] as usize;
                head += 1;
                for arc in arena.start[node] as usize..arena.start[node + 1] as usize {
                    let to = arena.to[arc] as usize;
                    if to != source
                        && self.parent_arc[to] == NO_ARC
                        && eps::is_positive(self.cap[arc])
                    {
                        self.parent_arc[to] = arc as u32;
                        self.bottleneck[to] = self.bottleneck[node].min(self.cap[arc]);
                        if to == sink {
                            found = self.bottleneck[sink];
                            break 'bfs;
                        }
                        self.queue[tail] = to as u32;
                        tail += 1;
                    }
                }
            }
            if !eps::is_positive(found) {
                break;
            }
            total += found;
            let mut node = sink;
            while node != source {
                let arc = self.parent_arc[node] as usize;
                self.cap[arc] -= found;
                let partner = arena.partner[arc] as usize;
                self.cap[partner] += found;
                node = arena.to[partner] as usize;
            }
        }
        let mut edge_flows = Vec::new();
        self.extract_edge_flows_into(arena, &mut edge_flows);
        FlowResult {
            value: total,
            edge_flows,
        }
    }

    /// Maximum flow via FIFO push-relabel, with edge flows.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `sink` is out of range.
    pub fn push_relabel(&mut self, arena: &FlowArena, source: usize, sink: usize) -> FlowResult {
        assert!(source < arena.num_nodes, "source out of range");
        assert!(sink < arena.num_nodes, "sink out of range");
        if source == sink {
            return FlowResult {
                value: 0.0,
                edge_flows: vec![0.0; arena.num_edges],
            };
        }
        self.load_caps(arena);
        let n = arena.num_nodes;
        self.height.resize(n, 0);
        self.height.fill(0);
        self.excess.resize(n, 0.0);
        self.excess.fill(0.0);
        self.in_queue.resize(n, false);
        self.in_queue.fill(false);
        // FIFO ring buffer: `in_queue` guarantees at most one entry per node, so `n + 1`
        // slots can never overflow.
        self.queue.resize(n + 1, 0);
        let ring = n + 1;
        let (mut head, mut tail) = (0usize, 0usize);
        self.height[source] = n as u32;

        // Saturate every arc leaving the source.
        for arc in arena.start[source] as usize..arena.start[source + 1] as usize {
            let capacity = self.cap[arc];
            if !eps::is_positive(capacity) {
                continue;
            }
            let to = arena.to[arc] as usize;
            self.cap[arc] = 0.0;
            self.cap[arena.partner[arc] as usize] += capacity;
            self.excess[to] += capacity;
            self.excess[source] -= capacity;
            if to != sink && to != source && !self.in_queue[to] {
                self.in_queue[to] = true;
                self.queue[tail] = to as u32;
                tail = (tail + 1) % ring;
            }
        }

        while head != tail {
            let node = self.queue[head] as usize;
            head = (head + 1) % ring;
            self.in_queue[node] = false;
            // Discharge `node`.
            while eps::is_positive(self.excess[node]) {
                let mut pushed_any = false;
                for arc in arena.start[node] as usize..arena.start[node + 1] as usize {
                    if !eps::is_positive(self.excess[node]) {
                        break;
                    }
                    let to = arena.to[arc] as usize;
                    if eps::is_positive(self.cap[arc]) && self.height[node] == self.height[to] + 1 {
                        let delta = self.excess[node].min(self.cap[arc]);
                        self.cap[arc] -= delta;
                        self.cap[arena.partner[arc] as usize] += delta;
                        self.excess[node] -= delta;
                        self.excess[to] += delta;
                        pushed_any = true;
                        if to != source && to != sink && !self.in_queue[to] {
                            self.in_queue[to] = true;
                            self.queue[tail] = to as u32;
                            tail = (tail + 1) % ring;
                        }
                    }
                }
                if eps::is_positive(self.excess[node]) && !pushed_any {
                    // Relabel just above the lowest admissible neighbour.
                    let mut min_height = u32::MAX;
                    for arc in arena.start[node] as usize..arena.start[node + 1] as usize {
                        if eps::is_positive(self.cap[arc]) {
                            min_height = min_height.min(self.height[arena.to[arc] as usize]);
                        }
                    }
                    if min_height == u32::MAX || min_height as usize + 1 > 2 * n {
                        // The remaining excess cannot reach the sink.
                        break;
                    }
                    self.height[node] = min_height + 1;
                }
            }
        }

        let mut edge_flows = Vec::new();
        self.extract_edge_flows_into(arena, &mut edge_flows);
        FlowResult {
            value: self.excess[sink].max(0.0),
            edge_flows,
        }
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

/// Worker-count heuristic for [`min_max_flow_parallel`]: how many threads are worth
/// spawning for a multi-sink evaluation of `num_sinks` sinks on a `num_nodes`-node arena.
///
/// Small evaluations are dominated by per-lane warm-up, so the heuristic stays
/// sequential below 512 nodes or 96 sinks; the persistent [`crate::pool::FlowPool`]
/// costs a queue push to already-warm workers per call, and the `worker_pool` group of
/// `crates/bench/benches/throughput.rs` measures it against the sequential evaluator
/// at these sizes. Above the thresholds it uses the machine's available parallelism, capped at 8 so evaluation
/// fan-out stays polite inside already-parallel sweeps (on a single-core host it
/// therefore always returns 1, and fan-out costs nothing where it cannot win).
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

/// [`FlowSolver::min_max_flow`] fanned out over the persistent worker pool
/// ([`crate::pool::FlowPool::global`]).
///
/// This is a thin convenience wrapper for borrowed arenas: the pool hands work to
/// long-lived threads, so the arena is cloned into an [`std::sync::Arc`] for the call
/// (one memcpy of the CSR arrays — noise next to a multi-sink solve at the sizes where
/// fan-out pays). Hot paths that evaluate repeatedly should hold an
/// `Arc<FlowArena>` themselves and call [`crate::pool::FlowPool::min_max_flow_with`]
/// directly, reusing their submitter workspace and skipping the clone; `bmp-core`'s
/// evaluation context does exactly that.
///
/// `threads <= 1` falls back to the sequential evaluator. Returns `f64::INFINITY` for an
/// empty `sinks`. The result is bit-for-bit the sequential evaluation either way.
#[must_use]
pub fn min_max_flow_parallel(
    arena: &FlowArena,
    source: usize,
    sinks: &[usize],
    threads: usize,
) -> f64 {
    let mut solver = FlowSolver::new();
    if threads.min(sinks.len()) <= 1 {
        return solver.min_max_flow(arena, source, sinks);
    }
    let arena = std::sync::Arc::new(arena.clone());
    crate::pool::FlowPool::global().min_max_flow_with(&mut solver, &arena, source, sinks, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(min_max_flow_parallel(&arena, 0, &[1, 2, 3], 3), naive);
    }

    #[test]
    fn min_max_flow_empty_sinks_is_infinite() {
        let arena = diamond_arena();
        assert_eq!(
            FlowSolver::new().min_max_flow(&arena, 0, &[]),
            f64::INFINITY
        );
        assert_eq!(min_max_flow_parallel(&arena, 0, &[], 4), f64::INFINITY);
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
    fn edmonds_karp_and_push_relabel_agree_on_arena() {
        let arena = diamond_arena();
        let mut solver = FlowSolver::new();
        let dinic = solver.max_flow(&arena, 0, 3);
        let ek = solver.edmonds_karp(&arena, 0, 3);
        let pr = solver.push_relabel(&arena, 0, 3);
        assert!((ek.value - dinic).abs() < 1e-9);
        assert!((pr.value - dinic).abs() < 1e-9);
        assert_eq!(ek.edge_flows.len(), arena.num_edges());
        assert_eq!(pr.edge_flows.len(), arena.num_edges());
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
        // At or above the pool-tuned thresholds the heuristic defers to available
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
        assert_eq!(min_max_flow_parallel(&arena, 0, &sinks, 8), 0.5);
    }
}
