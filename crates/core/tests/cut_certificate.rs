//! Oracle tests of the acyclic cut certificate: on a scheme whose live edges form no
//! cycle, [`EvalCtx`] returns the smallest live in-rate over the live receivers without
//! running max-flow. Every value is compared against sequential Dinic
//! ([`FlowSolver::min_max_flow`]) on the masked edge list, and the counters must name
//! the path that ran: one cut certification and no flow solve on a DAG, one flow solve
//! per live receiver and no cut certification once a live cycle closes.

use bmp_core::churn::residual_throughput;
use bmp_core::solver::EvalCtx;
use bmp_core::BroadcastScheme;
use bmp_flow::{FlowArena, FlowSolver};
use bmp_platform::{Instance, NodeId};
use proptest::prelude::*;

/// A random DAG scheme and a churn mask: `(scheme, topological order, departed)`.
///
/// The order is a random permutation of the nodes (the source need not come first, so
/// the nodes before it are unreachable); each forward pair carries an edge with
/// probability about 1/3 at a rate in `[1e-6, 100]`, so some receivers get no in-edge.
/// The departed receivers are a random subset; the source never departs.
fn random_dag() -> impl Strategy<Value = (BroadcastScheme, Vec<NodeId>, Vec<NodeId>)> {
    (2..=24usize).prop_flat_map(|n| {
        let keys = proptest::collection::vec(0..u32::MAX, n);
        let pairs = proptest::collection::vec((0..3u8, 1e-6_f64..100.0), n * (n - 1) / 2);
        let departs = proptest::collection::vec(0..4u8, n);
        (keys, pairs, departs).prop_map(move |(keys, pairs, departs)| {
            let mut order: Vec<NodeId> = (0..n).collect();
            order.sort_by_key(|&node| keys[node]);
            let instance =
                Instance::open_only(1e3, vec![1e3; n - 1]).expect("valid open-only instance");
            let mut scheme = BroadcastScheme::new(instance);
            let mut pair = pairs.iter();
            for (i, &from) in order.iter().enumerate() {
                for &to in &order[i + 1..] {
                    let &(pick, rate) = pair.next().expect("one draw per forward pair");
                    if pick == 0 {
                        scheme.set_rate(from, to, rate);
                    }
                }
            }
            let departed = (1..n).filter(|&node| departs[node] == 0).collect();
            (scheme, order, departed)
        })
    })
}

/// Sequential Dinic on `scheme`'s edges without the departed nodes' edges, to the
/// surviving receivers (`f64::INFINITY` when none survives).
fn dinic_oracle(scheme: &BroadcastScheme, departed: &[NodeId]) -> f64 {
    let live = |node: &NodeId| !departed.contains(node);
    let edges: Vec<_> = scheme
        .edges()
        .into_iter()
        .filter(|(from, to, _)| live(from) && live(to))
        .collect();
    let sinks: Vec<NodeId> = scheme.instance().receivers().filter(live).collect();
    let arena = FlowArena::from_edges(scheme.instance().num_nodes(), &edges);
    FlowSolver::new().min_max_flow(&arena, 0, &sinks)
}

/// `residual_throughput` reports "no survivor" as 0, not infinity.
fn as_residual(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_cut_certificate_equals_dinic_on_random_dags(case in random_dag()) {
        let (mut scheme, order, departed) = case;
        let mut ctx = EvalCtx::new();
        for mask in [&[][..], &departed[..]] {
            let expected = as_residual(dinic_oracle(&scheme, mask));
            let (cuts, flows) = (ctx.cut_certifications(), ctx.flow_solves());
            let value = residual_throughput(&scheme, mask, &mut ctx);
            prop_assert!(
                (value - expected).abs() <= 1e-12 * value.max(1.0),
                "mask {:?}: cut {} vs Dinic {}", mask, value, expected
            );
            prop_assert_eq!(ctx.cut_certifications(), cuts + 1);
            prop_assert_eq!(ctx.flow_solves(), flows);
        }

        // A back edge from the head of a live edge to its tail closes a live cycle: the
        // evaluation falls back to Dinic over every live receiver.
        let live = |node: &NodeId| !departed.contains(node);
        let closing = scheme
            .edges()
            .into_iter()
            .find(|(from, to, _)| live(from) && live(to));
        if let Some((from, to, rate)) = closing {
            prop_assert!(order.iter().position(|&v| v == from) < order.iter().position(|&v| v == to));
            scheme.set_rate(to, from, rate);
            let expected = as_residual(dinic_oracle(&scheme, &departed));
            let survivors = scheme.instance().receivers().filter(live).count() as u64;
            let (cuts, flows) = (ctx.cut_certifications(), ctx.flow_solves());
            let value = residual_throughput(&scheme, &departed, &mut ctx);
            prop_assert_eq!(value.to_bits(), expected.to_bits(), "cyclic: {} vs {}", value, expected);
            prop_assert_eq!(ctx.cut_certifications(), cuts);
            prop_assert_eq!(ctx.flow_solves(), flows + survivors);
        }
    }
}

/// A cycle among departed nodes only is not live: the mask drops it, and the scheme is
/// certified by its cut.
#[test]
fn a_cycle_through_departed_nodes_only_is_cut_certified() {
    let instance = Instance::open_only(10.0, vec![4.0, 4.0, 4.0]).unwrap();
    let mut scheme = BroadcastScheme::new(instance);
    scheme.set_rate(0, 1, 3.0);
    scheme.set_rate(0, 2, 2.0);
    scheme.set_rate(2, 3, 1.0);
    scheme.set_rate(3, 2, 1.0);
    let mut ctx = EvalCtx::new();
    assert_eq!(ctx.throughput(&scheme), dinic_oracle(&scheme, &[]));
    assert_eq!((ctx.cut_certifications(), ctx.flow_solves()), (0, 3));
    let residual = residual_throughput(&scheme, &[3], &mut ctx);
    assert_eq!(residual, dinic_oracle(&scheme, &[3]));
    assert_eq!(residual, 2.0);
    assert_eq!((ctx.cut_certifications(), ctx.flow_solves()), (1, 3));
}
