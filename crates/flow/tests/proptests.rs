//! Property tests cross-checking the three max-flow solvers on random networks, plus the
//! CSR-kernel equivalences: batched multi-sink evaluation (with early-exit caps, and with
//! the parallel fan-out) must agree exactly with naive per-sink evaluation, and a reused
//! solver workspace must behave like a fresh one.

use bmp_flow::{
    dinic_max_flow, edmonds_karp_max_flow, min_cut, min_max_flow_parallel, push_relabel_max_flow,
    FlowNetwork, FlowSolver,
};
use proptest::prelude::*;

/// Strategy generating a random directed network with up to `max_nodes` nodes.
fn random_network(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = FlowNetwork> {
    (2..=max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 0.0_f64..20.0), 0..=max_edges).prop_map(
            move |edges| {
                let mut net = FlowNetwork::new(n);
                for (from, to, cap) in edges {
                    if from != to {
                        net.add_edge(from, to, cap);
                    }
                }
                net
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solvers_agree(net in random_network(8, 24)) {
        let s = 0;
        let t = net.num_nodes() - 1;
        let dn = dinic_max_flow(&net, s, t);
        let ek = edmonds_karp_max_flow(&net, s, t);
        let pr = push_relabel_max_flow(&net, s, t);
        let tol = 1e-6 * dn.value.abs().max(1.0);
        prop_assert!((dn.value - ek.value).abs() <= tol,
            "dinic {} vs edmonds-karp {}", dn.value, ek.value);
        prop_assert!((dn.value - pr.value).abs() <= tol,
            "dinic {} vs push-relabel {}", dn.value, pr.value);
    }

    #[test]
    fn flows_are_valid(net in random_network(8, 24)) {
        let s = 0;
        let t = net.num_nodes() - 1;
        let dn = dinic_max_flow(&net, s, t);
        let ek = edmonds_karp_max_flow(&net, s, t);
        prop_assert!(dn.is_valid(&net, s, t));
        prop_assert!(ek.is_valid(&net, s, t));
    }

    #[test]
    fn max_flow_equals_min_cut(net in random_network(8, 24)) {
        let s = 0;
        let t = net.num_nodes() - 1;
        let (cut, flow) = min_cut(&net, s, t);
        let tol = 1e-6 * flow.value.abs().max(1.0);
        prop_assert!((cut.value - flow.value).abs() <= tol,
            "cut {} vs flow {}", cut.value, flow.value);
        prop_assert!(cut.source_side.contains(&s));
        prop_assert!(!cut.source_side.contains(&t) || flow.value == 0.0 && cut.source_side.len() == net.num_nodes());
    }

    #[test]
    fn flow_bounded_by_source_capacity(net in random_network(8, 24)) {
        let s = 0;
        let t = net.num_nodes() - 1;
        let dn = dinic_max_flow(&net, s, t);
        let out_cap = net.out_capacity(s);
        let in_cap = net.in_capacity(t);
        prop_assert!(dn.value <= out_cap + 1e-6);
        prop_assert!(dn.value <= in_cap + 1e-6);
    }

    #[test]
    fn batched_min_max_flow_equals_naive_per_sink(net in random_network(9, 28)) {
        let source = 0;
        let sinks: Vec<usize> = (1..net.num_nodes()).collect();
        // Naive: one full Dinic per sink, minimum of the exact values.
        let naive = sinks
            .iter()
            .map(|&sink| dinic_max_flow(&net, source, sink).value)
            .fold(f64::INFINITY, f64::min);
        // Batched: shared arena, in-capacity ordering, early-exit caps. Must be *exactly*
        // equal — capping only ever truncates solves that cannot lower the minimum.
        let arena = net.arena();
        let batched = FlowSolver::new().min_max_flow(&arena, source, &sinks);
        prop_assert_eq!(batched, naive, "batched {} vs naive {}", batched, naive);
        // Parallel fan-out with a shared atomic minimum: same exactness argument.
        let parallel = min_max_flow_parallel(&arena, source, &sinks, 4);
        prop_assert_eq!(parallel, naive, "parallel {} vs naive {}", parallel, naive);
    }

    #[test]
    fn batched_evaluation_is_sink_order_invariant(net in random_network(8, 24)) {
        let sinks: Vec<usize> = (1..net.num_nodes()).collect();
        let mut reversed = sinks.clone();
        reversed.reverse();
        let arena = net.arena();
        let mut solver = FlowSolver::new();
        let forward = solver.min_max_flow(&arena, 0, &sinks);
        let backward = solver.min_max_flow(&arena, 0, &reversed);
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn reused_workspace_matches_fresh_solver(
        first in random_network(8, 24),
        second in random_network(5, 12),
    ) {
        // One solver solving across two different networks (different sizes) must report
        // the same values as fresh solvers: buffers are fully re-initialised per solve.
        let arena_a = first.arena();
        let arena_b = second.arena();
        let mut reused = FlowSolver::new();
        for _ in 0..3 {
            let a = reused.max_flow(&arena_a, 0, first.num_nodes() - 1);
            let b = reused.max_flow(&arena_b, 0, second.num_nodes() - 1);
            prop_assert_eq!(a, dinic_max_flow(&first, 0, first.num_nodes() - 1).value);
            prop_assert_eq!(b, dinic_max_flow(&second, 0, second.num_nodes() - 1).value);
        }
    }

    #[test]
    fn csr_solvers_match_on_arena_and_network_paths(net in random_network(8, 24)) {
        // The free functions (arena built per call) and a long-lived solver on a shared
        // arena are the same code path with different buffer lifetimes; cross-check all
        // three algorithms through both entries.
        let s = 0;
        let t = net.num_nodes() - 1;
        let arena = net.arena();
        let mut solver = FlowSolver::new();
        prop_assert_eq!(solver.max_flow(&arena, s, t), dinic_max_flow(&net, s, t).value);
        prop_assert_eq!(
            solver.edmonds_karp(&arena, s, t).value,
            edmonds_karp_max_flow(&net, s, t).value
        );
        prop_assert_eq!(
            solver.push_relabel(&arena, s, t).value,
            push_relabel_max_flow(&net, s, t).value
        );
    }

    #[test]
    fn incremental_capacity_update_equals_rebuild(
        net in random_network(8, 24),
        new_caps in proptest::collection::vec(0.0_f64..20.0, 0..=24),
    ) {
        // Overwriting capacities in place must be indistinguishable from rebuilding the
        // arena from scratch over the same edge set with the new capacities.
        let mut updated = net.arena();
        let edges: Vec<(usize, usize, f64)> = (0..updated.num_edges())
            .map(|k| {
                let (from, to) = updated.edge_endpoints(k);
                let cap = new_caps.get(k).copied().unwrap_or(updated.edge_capacity(k));
                (from, to, cap)
            })
            .collect();
        updated.set_edge_capacities(&edges.iter().map(|&(_, _, cap)| cap).collect::<Vec<_>>());
        let rebuilt = bmp_flow::FlowArena::from_edges(net.num_nodes(), &edges);
        prop_assert_eq!(&updated, &rebuilt);
        let sinks: Vec<usize> = (1..net.num_nodes()).collect();
        let mut solver = FlowSolver::new();
        let in_place = solver.min_max_flow(&updated, 0, &sinks);
        let fresh = solver.min_max_flow(&rebuilt, 0, &sinks);
        prop_assert_eq!(in_place, fresh);
    }

    #[test]
    fn adding_an_edge_never_decreases_flow(net in random_network(7, 18), extra_cap in 0.1_f64..5.0) {
        let s = 0;
        let t = net.num_nodes() - 1;
        let before = dinic_max_flow(&net, s, t).value;
        let mut bigger = net.clone();
        bigger.add_edge(s, t, extra_cap);
        let after = dinic_max_flow(&bigger, s, t).value;
        prop_assert!(after + 1e-9 >= before);
        prop_assert!((after - (before + extra_cap)).abs() <= 1e-6 * (after.max(1.0)));
    }
}

#[test]
fn min_cut_source_side_excludes_sink_when_flow_saturates() {
    let mut net = FlowNetwork::new(4);
    net.add_edge(0, 1, 2.0);
    net.add_edge(1, 2, 1.0);
    net.add_edge(2, 3, 2.0);
    let (cut, flow) = min_cut(&net, 0, 3);
    assert!((flow.value - 1.0).abs() < 1e-9);
    assert!(!cut.source_side.contains(&3));
}
