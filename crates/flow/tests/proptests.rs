//! Property tests of the CSR flow kernel on random networks.
//!
//! The reference every Dinic result is compared against is [`oracle_max_flow`], a plain
//! adjacency-list Edmonds–Karp written here that shares no code with the kernel, so an
//! arena-layout bug cannot pass both. The remaining properties pin the kernel's own
//! equivalences: batched multi-sink evaluation (with early-exit caps, and with the
//! parallel fan-out) must agree exactly with naive per-sink evaluation, a reused solver
//! workspace must behave like a fresh one, and the minimum cut must certify the flow.

use bmp_flow::{FlowArena, FlowPool, FlowSolver};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A network as `(num_nodes, edge triples)`, the input of [`FlowArena::from_edges`].
type Network = (usize, Vec<(usize, usize, f64)>);

/// Strategy generating a random directed network with 2 to `max_nodes` nodes and up to
/// `max_edges` edges (self-loops dropped).
fn random_network(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Network> {
    (2..=max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.0_f64..20.0), 0..=max_edges).prop_map(
            move |edges| {
                let edges = edges
                    .into_iter()
                    .filter(|&(from, to, _)| from != to)
                    .collect();
                (n, edges)
            },
        )
    })
}

/// Maximum-flow value by Edmonds–Karp (shortest augmenting paths found by BFS) on an
/// adjacency list of residual arcs: arc `2k` is input edge `k`, arc `2k + 1` its reverse.
fn oracle_max_flow(num_nodes: usize, edges: &[(usize, usize, f64)], s: usize, t: usize) -> f64 {
    if s == t {
        return 0.0;
    }
    let mut head = Vec::with_capacity(2 * edges.len());
    let mut residual = Vec::with_capacity(2 * edges.len());
    let mut adjacency = vec![Vec::new(); num_nodes];
    for &(from, to, capacity) in edges {
        adjacency[from].push(head.len());
        head.push(to);
        residual.push(capacity);
        adjacency[to].push(head.len());
        head.push(from);
        residual.push(0.0);
    }
    let mut total = 0.0;
    loop {
        let mut parent_arc: Vec<Option<usize>> = vec![None; num_nodes];
        let mut queue = VecDeque::from([s]);
        while let Some(node) = queue.pop_front() {
            for &arc in &adjacency[node] {
                let next = head[arc];
                if next != s && parent_arc[next].is_none() && residual[arc] > 1e-9 {
                    parent_arc[next] = Some(arc);
                    queue.push_back(next);
                }
            }
        }
        if parent_arc[t].is_none() {
            return total;
        }
        let path = || std::iter::successors(parent_arc[t], |&arc| parent_arc[head[arc ^ 1]]);
        let bottleneck = path()
            .map(|arc| residual[arc])
            .fold(f64::INFINITY, f64::min);
        for arc in path().collect::<Vec<_>>() {
            residual[arc] -= bottleneck;
            residual[arc ^ 1] += bottleneck;
        }
        total += bottleneck;
    }
}

/// Whether `flows` is a feasible `s → t` flow of value `value` on `edges`: every edge flow
/// in `[0, capacity]` and conservation at every node other than `s` and `t`, up to a
/// scale-aware tolerance.
fn is_valid_flow(
    num_nodes: usize,
    edges: &[(usize, usize, f64)],
    flows: &[f64],
    s: usize,
    t: usize,
    value: f64,
) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    if flows.len() != edges.len() {
        return false;
    }
    let mut net = vec![0.0; num_nodes];
    for (&(from, to, capacity), &flow) in edges.iter().zip(flows) {
        if flow < 0.0 || !(flow <= capacity || close(flow, capacity)) {
            return false;
        }
        net[from] -= flow;
        net[to] += flow;
    }
    let balanced = (0..num_nodes)
        .filter(|&node| node != s && node != t)
        .all(|node| close(net[node], 0.0));
    balanced && close(-net[s], value) && close(net[t], value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solvers_agree(net in random_network(8, 24)) {
        let (n, edges) = net;
        let arena = FlowArena::from_edges(n, &edges);
        let t = n - 1;
        let dinic = FlowSolver::new().max_flow(&arena, 0, t);
        let oracle = oracle_max_flow(n, &edges, 0, t);
        let tol = 1e-6 * dinic.abs().max(1.0);
        prop_assert!((dinic - oracle).abs() <= tol, "dinic {} vs oracle {}", dinic, oracle);
    }

    #[test]
    fn flows_are_valid(net in random_network(8, 24)) {
        let (n, edges) = net;
        let arena = FlowArena::from_edges(n, &edges);
        let t = n - 1;
        let mut solver = FlowSolver::new();
        let value = solver.max_flow(&arena, 0, t);
        let mut flows = Vec::new();
        solver.extract_edge_flows_into(&arena, &mut flows);
        prop_assert!(is_valid_flow(n, &edges, &flows, 0, t, value));
    }

    #[test]
    fn max_flow_equals_min_cut(net in random_network(8, 24)) {
        let (n, edges) = net;
        let arena = FlowArena::from_edges(n, &edges);
        let t = n - 1;
        let mut solver = FlowSolver::new();
        let flow = solver.max_flow(&arena, 0, t);
        let cut = solver.min_cut(&arena, 0, t);
        let tol = 1e-6 * flow.abs().max(1.0);
        prop_assert!((cut.value - flow).abs() <= tol, "cut {} vs flow {}", cut.value, flow);
        prop_assert!(cut.source_side.contains(&0));
        prop_assert!(!cut.source_side.contains(&t));
        // The cut edges are exactly the positive-capacity edges leaving the source side.
        for (k, &(from, to, capacity)) in edges.iter().enumerate() {
            let crosses = cut.source_side.contains(&from)
                && !cut.source_side.contains(&to)
                && capacity > 1e-9;
            prop_assert_eq!(cut.cut_edges.contains(&k), crosses);
        }
    }

    #[test]
    fn flow_bounded_by_source_capacity(net in random_network(8, 24)) {
        let (n, edges) = net;
        let arena = FlowArena::from_edges(n, &edges);
        let t = n - 1;
        let value = FlowSolver::new().max_flow(&arena, 0, t);
        prop_assert!(value <= arena.out_capacity(0) + 1e-6);
        prop_assert!(value <= arena.in_capacity(t) + 1e-6);
    }

    #[test]
    fn batched_min_max_flow_equals_naive_per_sink(net in random_network(9, 28)) {
        let (n, edges) = net;
        let arena = FlowArena::from_edges(n, &edges);
        let source = 0;
        let sinks: Vec<usize> = (1..n).collect();
        // Naive: one full Dinic per sink on a fresh solver, minimum of the exact values.
        let naive = sinks
            .iter()
            .map(|&sink| FlowSolver::new().max_flow(&arena, source, sink))
            .fold(f64::INFINITY, f64::min);
        // Batched: in-capacity ordering, early-exit caps. Must be *exactly* equal —
        // capping only ever truncates solves that cannot lower the minimum.
        let batched = FlowSolver::new().min_max_flow(&arena, source, &sinks);
        prop_assert_eq!(batched, naive, "batched {} vs naive {}", batched, naive);
        // Parallel fan-out with a shared atomic minimum: same exactness argument.
        let parallel =
            FlowPool::global().min_max_flow_with(&mut FlowSolver::new(), &arena, source, &sinks, 4);
        prop_assert_eq!(parallel, naive, "parallel {} vs naive {}", parallel, naive);
        // And the exact minimum agrees with the independent oracle.
        let oracle = sinks
            .iter()
            .map(|&sink| oracle_max_flow(n, &edges, source, sink))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((naive - oracle).abs() <= 1e-6 * oracle.abs().max(1.0));
    }

    #[test]
    fn batched_evaluation_is_sink_order_invariant(net in random_network(8, 24)) {
        let (n, edges) = net;
        let arena = FlowArena::from_edges(n, &edges);
        let sinks: Vec<usize> = (1..n).collect();
        let mut reversed = sinks.clone();
        reversed.reverse();
        let mut solver = FlowSolver::new();
        let forward = solver.min_max_flow(&arena, 0, &sinks);
        let backward = solver.min_max_flow(&arena, 0, &reversed);
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn reused_workspace_matches_fresh_solver(
        net_a in random_network(8, 24),
        net_b in random_network(5, 12),
    ) {
        let (n_a, edges_a) = net_a;
        let (n_b, edges_b) = net_b;
        // One solver solving across two different networks (different sizes) must report
        // the same values as fresh solvers: buffers are fully re-initialised per solve.
        let arena_a = FlowArena::from_edges(n_a, &edges_a);
        let arena_b = FlowArena::from_edges(n_b, &edges_b);
        let fresh_a = FlowSolver::new().max_flow(&arena_a, 0, n_a - 1);
        let fresh_b = FlowSolver::new().max_flow(&arena_b, 0, n_b - 1);
        let mut reused = FlowSolver::new();
        for _ in 0..3 {
            prop_assert_eq!(reused.max_flow(&arena_a, 0, n_a - 1), fresh_a);
            prop_assert_eq!(reused.max_flow(&arena_b, 0, n_b - 1), fresh_b);
        }
    }

    #[test]
    fn incremental_capacity_update_equals_rebuild(
        net in random_network(8, 24),
        new_caps in proptest::collection::vec(0.0_f64..20.0, 0..=24),
    ) {
        let (n, edges) = net;
        // Overwriting capacities in place must be indistinguishable from rebuilding the
        // arena from scratch over the same edge set with the new capacities.
        let mut updated = FlowArena::from_edges(n, &edges);
        let edges: Vec<(usize, usize, f64)> = (0..updated.num_edges())
            .map(|k| {
                let (from, to) = updated.edge_endpoints(k);
                let cap = new_caps.get(k).copied().unwrap_or(updated.edge_capacity(k));
                (from, to, cap)
            })
            .collect();
        updated.set_edge_capacities(&edges.iter().map(|&(_, _, cap)| cap).collect::<Vec<_>>());
        let rebuilt = FlowArena::from_edges(n, &edges);
        prop_assert_eq!(&updated, &rebuilt);
        let sinks: Vec<usize> = (1..n).collect();
        let mut solver = FlowSolver::new();
        let in_place = solver.min_max_flow(&updated, 0, &sinks);
        let fresh = solver.min_max_flow(&rebuilt, 0, &sinks);
        prop_assert_eq!(in_place, fresh);
    }

    #[test]
    fn adding_an_edge_never_decreases_flow(
        net in random_network(7, 18),
        extra_cap in 0.1_f64..5.0,
    ) {
        let (n, edges) = net;
        let t = n - 1;
        let mut solver = FlowSolver::new();
        let before = solver.max_flow(&FlowArena::from_edges(n, &edges), 0, t);
        let mut bigger = edges.clone();
        bigger.push((0, t, extra_cap));
        let after = solver.max_flow(&FlowArena::from_edges(n, &bigger), 0, t);
        prop_assert!(after + 1e-9 >= before);
        prop_assert!((after - (before + extra_cap)).abs() <= 1e-6 * (after.max(1.0)));
    }
}

#[test]
fn min_cut_source_side_excludes_sink_when_flow_saturates() {
    let arena = FlowArena::from_edges(4, &[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 2.0)]);
    let mut solver = FlowSolver::new();
    assert!((solver.max_flow(&arena, 0, 3) - 1.0).abs() < 1e-9);
    let cut = solver.min_cut(&arena, 0, 3);
    assert!(!cut.source_side.contains(&3));
    assert_eq!(cut.cut_edges, vec![1]);
}

#[test]
fn flow_checker_rejects_violations() {
    let edges = [(0, 1, 2.0), (1, 2, 2.0)];
    assert!(is_valid_flow(3, &edges, &[1.5, 1.5], 0, 2, 1.5));
    // Over capacity.
    assert!(!is_valid_flow(3, &edges, &[3.0, 3.0], 0, 2, 3.0));
    // Conservation violated at node 1.
    assert!(!is_valid_flow(3, &edges, &[1.0, 0.5], 0, 2, 1.0));
    // Wrong number of edges.
    assert!(!is_valid_flow(3, &edges, &[0.0], 0, 2, 0.0));
}
