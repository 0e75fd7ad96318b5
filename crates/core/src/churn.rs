//! Churn analysis: what happens to a broadcast scheme when participating nodes leave.
//!
//! The paper's conclusion notes that the computed overlays "should be resilient to small
//! variations in the communication performance of nodes. However [they are] probably not
//! resilient to churn." This module quantifies both halves of that remark:
//!
//! * [`residual_throughput`] measures how much of the nominal rate survives when a set of
//!   nodes disappears while the overlay stays unchanged (typically: a large drop — the
//!   static overlay is *not* churn-resilient);
//! * [`repair_with`] removes the departed nodes from the instance, re-solves it through
//!   any registry [`Solver`] (which verifies its own output through
//!   [`EvalCtx::verify`]) and returns the new overlay in the original node ids, i.e. the
//!   price of a recomputation (typically: small — the algorithms are fast enough to be
//!   re-run on every membership change);
//! * [`degradation_tolerance`] quantifies the *other* half of the remark ("resilient to
//!   small variations in the communication performance of nodes"): the dichotomic search
//!   for the largest fraction by which one node's upload rates can degrade before the
//!   delivered throughput drops below a floor. Its probes re-score one working copy of
//!   the scheme with only that node's outgoing rates moving, each on the evaluation
//!   context's arena, rebuilt in the buffers of the previous probe. It is the fault
//!   plane's [`FaultSite::Probe`] site.

use crate::error::CoreError;
use crate::faults::FaultSite;
use crate::scheme::BroadcastScheme;
use crate::solver::{EvalCtx, Solver};
use bmp_platform::{Instance, NodeId};

/// Throughput of `scheme` restricted to the surviving nodes: departed nodes neither send nor
/// receive nor relay, and departed receivers are not counted in the minimum.
///
/// The evaluation is the scheme's own, masked: every edge touching a departed node gets
/// capacity 0 and only the surviving receivers are sinks. `ctx` rebuilds its arena from
/// the masked edge list like any other evaluation.
///
/// # Panics
///
/// Panics if the source (node 0) is listed among the departed nodes.
#[must_use]
pub fn residual_throughput(
    scheme: &BroadcastScheme,
    departed: &[NodeId],
    ctx: &mut EvalCtx,
) -> f64 {
    let alive = alive_mask(scheme.instance(), departed);
    let throughput = ctx.masked_throughput(scheme, Some(&alive));
    if throughput.is_finite() {
        throughput
    } else {
        0.0
    }
}

/// `alive[v]` is `false` exactly for the departed nodes (ids out of range are ignored).
///
/// # Panics
///
/// Panics if the source is listed among the departed nodes.
fn alive_mask(instance: &Instance, departed: &[NodeId]) -> Vec<bool> {
    let mut alive = vec![true; instance.num_nodes()];
    for &node in departed {
        assert_ne!(node, 0, "the source cannot depart");
        if let Some(slot) = alive.get_mut(node) {
            *slot = false;
        }
    }
    alive
}

/// Dichotomic degradation probe: the largest fraction `d ∈ [0, 1]` by which `node`'s
/// outgoing rates can be uniformly scaled down (to `1 − d` of their nominal value) while
/// the scheme still delivers at least `floor` to every receiver.
///
/// Returns 1.0 when even losing the node's entire upload keeps the floor (the node is
/// not load-bearing) and 0.0 when any degradation at all breaks it. The probes bisect
/// through `ctx` ([`crate::search::DichotomicSearch`] at the context tolerance, probes
/// accounted as [`crate::solver::Telemetry::bisection_iters`]). It clones one working
/// copy up front and mutates only `node`'s outgoing rates per probe, so every probe
/// rebuilds the context's arena in buffers that already fit.
///
/// The probe is intercepted at [`FaultSite::Probe`] before any flow evaluation; without
/// an installed fault script it always succeeds.
///
/// # Errors
///
/// [`CoreError::Timeout`] when the context's fault script fails this probe.
///
/// # Panics
///
/// Panics if `node` is out of range for the scheme's instance.
pub fn degradation_tolerance(
    scheme: &BroadcastScheme,
    node: NodeId,
    floor: f64,
    ctx: &mut EvalCtx,
) -> Result<f64, CoreError> {
    if ctx.intercept_fault(FaultSite::Probe).is_some() {
        return Err(CoreError::Timeout {
            operation: format!("degradation probe of node {node}"),
        });
    }
    let instance = scheme.instance();
    assert!(node < instance.num_nodes(), "node {node} out of range");
    let out_edges: Vec<(NodeId, f64)> = scheme.out_edges(node).collect();
    let mut probe = scheme.clone();
    let search = ctx.search();
    let tol = 1e-9 * floor.max(1.0);
    let outcome = search.maximize(1.0, |degradation| {
        let scale = 1.0 - degradation;
        for &(to, rate) in &out_edges {
            probe.set_rate(node, to, rate * scale);
        }
        ctx.throughput(&probe) + tol >= floor
    });
    ctx.add_bisection_iters(outcome.probes);
    Ok(outcome.value)
}

/// Rebuilds the instance without the departed nodes, returning the reduced instance and
/// the original id of every reduced node (indexed by reduced id), or `None` when no
/// receiver survives.
///
/// # Panics
///
/// Panics if the source is listed among the departed nodes.
fn reduce_instance(instance: &Instance, departed: &[NodeId]) -> Option<(Instance, Vec<NodeId>)> {
    let alive = alive_mask(instance, departed);
    // The surviving nodes keep their relative (sorted) order within each class, so the
    // reduced instance is already sorted and its ids are positions in `original`.
    let mut original = vec![0];
    original.extend(instance.open_indices().filter(|&i| alive[i]));
    let open = original.len();
    original.extend(instance.guarded_indices().filter(|&i| alive[i]));
    let bandwidths = |ids: &[NodeId]| ids.iter().map(|&i| instance.bandwidth(i)).collect();
    let reduced = Instance::new_presorted(
        instance.source_bandwidth(),
        bandwidths(&original[1..open]),
        bandwidths(&original[open..]),
    )
    .ok()?; // no survivor: `PlatformError::EmptyInstance`
    Some((reduced, original))
}

/// `scheme`'s edges with every endpoint mapped to its original id.
fn translate_edges(scheme: &BroadcastScheme, original: &[NodeId]) -> Vec<(NodeId, NodeId, f64)> {
    scheme
        .edges()
        .into_iter()
        .map(|(from, to, rate)| (original[from], original[to], rate))
        .collect()
}

/// A repaired overlay computed by a registry solver on the reduced instance, already
/// translated back to the original id space — what the fallback-solver chain of the
/// adaptive repair pipeline hot-swaps in.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPlan {
    /// Registry name of the solver that produced the plan.
    pub algorithm: &'static str,
    /// Verified throughput of the repaired overlay on the reduced instance.
    pub throughput: f64,
    /// The repaired overlay's edges in *original* node ids. The running data plane still
    /// addresses the full platform (departed nodes stay addressable in case they
    /// rejoin), so the re-solved overlay must be expressed in the original id space
    /// before it can replace the frozen one mid-broadcast.
    pub edges: Vec<(NodeId, NodeId, f64)>,
    /// The reduced instance the plan was solved on (departed nodes removed, survivors in
    /// their original relative order).
    pub instance: Instance,
}

/// Rebuilds the instance without the departed nodes and re-solves it through any
/// [`Solver`].
///
/// Returns `Ok(None)` when no receiver survives (nothing to repair). Solver failures —
/// real ([`CoreError::GuardedNodesNotSupported`], [`CoreError::Unsupported`],
/// [`CoreError::VerificationFailed`]) or injected through the context's fault script —
/// propagate so the caller can retry or walk a fallback chain.
///
/// # Errors
///
/// Any error of the underlying [`Solver::solve`] call.
///
/// # Panics
///
/// Panics if the source is listed among the departed nodes.
pub fn repair_with(
    instance: &Instance,
    departed: &[NodeId],
    solver: &dyn Solver,
    ctx: &mut EvalCtx,
) -> Result<Option<RepairPlan>, CoreError> {
    let Some((reduced, original)) = reduce_instance(instance, departed) else {
        return Ok(None);
    };
    let solution = solver.solve(&reduced, ctx)?;
    let edges = translate_edges(&solution.scheme, &original);
    Ok(Some(RepairPlan {
        algorithm: solution.algorithm,
        throughput: solution.throughput,
        edges,
        instance: reduced,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic_guarded::AcyclicGuardedSolver;
    use crate::faults::InjectedFaults;
    use crate::solver::AcyclicGuardedAlgorithm;
    use bmp_flow::{FlowArena, FlowSolver};
    use bmp_platform::paper::figure1;

    #[test]
    fn departure_of_a_relay_collapses_the_static_overlay() {
        // In the Figure 1 solution the guarded node C3 relays a large share of the rate: if
        // it leaves and the overlay is not recomputed, the surviving receivers starve.
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let nominal = solution.throughput;
        let residual = residual_throughput(&solution.scheme, &[3], &mut EvalCtx::new());
        assert!(
            residual < 0.75 * nominal,
            "residual {residual} vs nominal {nominal}"
        );
    }

    #[test]
    fn departure_of_a_leaf_is_harmless() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        // C5 is the last guarded node: it relays little, so removing it barely matters for
        // the others.
        let residual = residual_throughput(&solution.scheme, &[5], &mut EvalCtx::new());
        assert!(residual + 1e-9 >= 0.9 * solution.throughput);
    }

    #[test]
    fn no_departure_keeps_the_nominal_throughput() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let residual = residual_throughput(&solution.scheme, &[], &mut EvalCtx::new());
        assert!((residual - solution.scheme.throughput()).abs() < 1e-9);
    }

    #[test]
    fn probe_residual_and_throughput_share_one_arena() {
        // The repair controller's cycle on one deployed scheme: a degradation probe of
        // the victim, the residual over the survivors, then the nominal throughput, all
        // on one context. Each evaluation rebuilds the context's arena, so none of them
        // may see capacities left behind by another.
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let scheme = &solution.scheme;
        let mut ctx = EvalCtx::new();
        for victim in [3, 1, 5] {
            let floor = 0.9 * solution.throughput;
            let tolerance = degradation_tolerance(scheme, victim, floor, &mut ctx).unwrap();
            assert!(
                (0.0..=1.0).contains(&tolerance),
                "victim {victim}: {tolerance}"
            );
            let residual = residual_throughput(scheme, &[victim], &mut ctx);
            let nominal = ctx.throughput(scheme);
            assert_eq!(
                residual,
                residual_throughput(scheme, &[victim], &mut EvalCtx::new())
            );
            assert_eq!(nominal, scheme.throughput());
            assert!(residual <= nominal);
        }
    }

    #[test]
    fn degradation_tolerance_separates_relays_from_leaves() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let mut ctx = EvalCtx::new();
        let floor = 0.9 * solution.throughput;
        // The guarded relay C3 carries a large share of the rate: it cannot degrade far
        // before the floor breaks.
        let relay = degradation_tolerance(&solution.scheme, 3, floor, &mut ctx).unwrap();
        // The last guarded node relays little: it tolerates much more degradation.
        let leaf = degradation_tolerance(&solution.scheme, 5, floor, &mut ctx).unwrap();
        assert!(
            relay < leaf,
            "relay tolerance {relay} should be below leaf tolerance {leaf}"
        );
        assert!((0.0..=1.0).contains(&relay));
        assert!((0.0..=1.0).contains(&leaf));
        assert!(ctx.bisection_iters() > 0);
    }

    #[test]
    fn degradation_tolerance_honors_trivial_floors() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let mut ctx = EvalCtx::new();
        // A zero floor survives losing the node entirely.
        assert_eq!(
            degradation_tolerance(&solution.scheme, 3, 0.0, &mut ctx).unwrap(),
            1.0
        );
        // A floor above the nominal throughput fails immediately.
        let t = solution.throughput;
        assert_eq!(
            degradation_tolerance(&solution.scheme, 3, 2.0 * t, &mut ctx).unwrap(),
            0.0
        );
    }

    #[test]
    fn degradation_probe_matches_a_hand_scaled_evaluation() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let mut ctx = EvalCtx::new();
        let floor = 0.8 * solution.throughput;
        let d = degradation_tolerance(&solution.scheme, 0, floor, &mut ctx).unwrap();
        // Re-scale by hand at the returned tolerance and just below the breaking point:
        // the floor must hold there and fail slightly above.
        let verify = |degradation: f64| {
            let mut scaled = solution.scheme.clone();
            for (from, to, rate) in solution.scheme.edges() {
                if from == 0 {
                    scaled.set_rate(from, to, rate * (1.0 - degradation));
                }
            }
            scaled.throughput()
        };
        assert!(verify(d) + 1e-6 >= floor);
        if d < 1.0 - 1e-6 {
            assert!(verify((d + 0.05).min(1.0)) < floor + 1e-6);
        }
    }

    /// The repair of Figure 1 after the guarded relay C3 departs.
    fn repair_figure1_without_c3(ctx: &mut EvalCtx) -> RepairPlan {
        repair_with(&figure1(), &[3], &AcyclicGuardedAlgorithm, ctx)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn repair_restores_a_feasible_low_degree_overlay() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let plan = repair_figure1_without_c3(&mut ctx);
        assert_eq!(plan.instance.num_receivers(), 4);
        assert_eq!(plan.instance.m(), 2);
        // Deployed over the original platform, the plan is feasible and delivers its
        // throughput to the survivors.
        let mut deployed = BroadcastScheme::new(instance);
        for &(from, to, rate) in &plan.edges {
            deployed.set_rate(from, to, rate);
        }
        assert!(deployed.is_feasible());
        assert!(residual_throughput(&deployed, &[3], &mut ctx) + 1e-6 >= plan.throughput);
    }

    #[test]
    fn repaired_edges_translate_back_to_original_ids() {
        let instance = figure1();
        let plan = repair_figure1_without_c3(&mut EvalCtx::new());
        let reduced = AcyclicGuardedSolver::default().solve(&plan.instance);
        assert_eq!(plan.edges.len(), reduced.scheme.edges().len());
        for &(from, to, rate) in &plan.edges {
            assert_ne!(from, 3, "departed node reappeared as sender");
            assert_ne!(to, 3, "departed node reappeared as receiver");
            assert!(from < instance.num_nodes() && to < instance.num_nodes());
            assert!(rate > 0.0);
        }
        // The translated overlay delivers the repaired throughput to the survivors.
        let survivors: Vec<NodeId> = (1..instance.num_nodes()).filter(|&v| v != 3).collect();
        let arena = FlowArena::from_edges(instance.num_nodes(), &plan.edges);
        let value = FlowSolver::new().min_max_flow(&arena, 0, &survivors);
        assert!(
            (value - plan.throughput).abs() < 1e-6,
            "translated overlay delivers {value} vs repaired {}",
            plan.throughput
        );
    }

    #[test]
    fn repair_with_matches_the_legacy_repair() {
        // The legacy entry point: the acyclic solver run directly on the reduced
        // instance, its edges translated back to the original ids.
        let (reduced, original) = reduce_instance(&figure1(), &[3]).unwrap();
        assert_eq!(original, [0, 1, 2, 4, 5]);
        let legacy = AcyclicGuardedSolver::default().solve(&reduced);
        let plan = repair_figure1_without_c3(&mut EvalCtx::new());
        assert_eq!(plan.algorithm, "acyclic-guarded");
        assert_eq!(plan.instance, reduced);
        assert!((plan.throughput - legacy.throughput).abs() < 1e-9);
        assert_eq!(plan.edges, translate_edges(&legacy.scheme, &original));
    }

    #[test]
    fn repair_with_propagates_injected_solver_faults() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        ctx.set_injected_faults(Some(InjectedFaults::new(vec![0], vec![], vec![])));
        let err = repair_with(&instance, &[3], &AcyclicGuardedAlgorithm, &mut ctx).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InjectedFault {
                site: "solve",
                occurrence: 0
            }
        ));
        // The script is spent: the next attempt through the same context succeeds.
        let plan = repair_with(&instance, &[3], &AcyclicGuardedAlgorithm, &mut ctx).unwrap();
        assert!(plan.is_some());
    }

    #[test]
    fn repair_with_after_all_receivers_depart_is_none() {
        let mut ctx = EvalCtx::new();
        let plan = repair_with(
            &figure1(),
            &[1, 2, 3, 4, 5],
            &AcyclicGuardedAlgorithm,
            &mut ctx,
        )
        .unwrap();
        assert!(plan.is_none());
    }

    #[test]
    fn repair_after_all_receivers_depart_is_none() {
        // The reduction underneath every repair: with no receiver left (in any departure
        // order) there is no instance to re-solve.
        assert!(reduce_instance(&figure1(), &[5, 4, 3, 2, 1]).is_none());
        let (reduced, original) = reduce_instance(&figure1(), &[1, 2, 3, 4]).unwrap();
        assert_eq!(reduced.num_receivers(), 1);
        assert_eq!(original, [0, 5]);
    }

    #[test]
    fn degradation_tolerance_times_out_on_schedule() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let floor = 0.9 * solution.throughput;
        let mut ctx = EvalCtx::new();
        let plain = degradation_tolerance(&solution.scheme, 3, floor, &mut ctx).unwrap();
        ctx.set_injected_faults(Some(
            InjectedFaults::default().and_fail(FaultSite::Probe, 1),
        ));
        let probe = |ctx: &mut EvalCtx| degradation_tolerance(&solution.scheme, 3, floor, ctx);
        assert_eq!(probe(&mut ctx).unwrap(), plain);
        let err = probe(&mut ctx).unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }));
        assert!(err.to_string().contains("node 3"));
        // The script is spent: the next probe measures the same value again.
        assert_eq!(probe(&mut ctx).unwrap(), plain);
    }

    #[test]
    #[should_panic(expected = "source cannot depart")]
    fn source_departure_is_rejected() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let _ = residual_throughput(&solution.scheme, &[0], &mut EvalCtx::new());
    }
}
