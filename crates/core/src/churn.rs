//! Churn analysis: what happens to a broadcast scheme when participating nodes leave.
//!
//! The paper's conclusion notes that the computed overlays "should be resilient to small
//! variations in the communication performance of nodes. However [they are] probably not
//! resilient to churn." This module quantifies both halves of that remark:
//!
//! * [`residual_throughput`] measures how much of the nominal rate survives when a set of
//!   nodes disappears while the overlay stays unchanged (typically: a large drop — the
//!   static overlay is *not* churn-resilient);
//! * [`repair`] removes the departed nodes from the instance, re-runs the acyclic solver and
//!   reports the new optimum, i.e. the price of a recomputation (typically: small — the
//!   algorithms are fast enough to be re-run on every membership change);
//! * [`degradation_tolerance`] quantifies the *other* half of the remark ("resilient to
//!   small variations in the communication performance of nodes"): the dichotomic search
//!   for the largest fraction by which one node's upload rates can degrade before the
//!   delivered throughput drops below a floor. Its probes re-score one working copy of
//!   the scheme with only that node's outgoing rates moving, each on the evaluation
//!   context's arena, rebuilt in the buffers of the previous probe.

use crate::acyclic_guarded::{AcyclicGuardedSolver, AcyclicSolution};
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
/// # Panics
///
/// Panics if `node` is out of range for the scheme's instance.
#[must_use]
pub fn degradation_tolerance(
    scheme: &BroadcastScheme,
    node: NodeId,
    floor: f64,
    ctx: &mut EvalCtx,
) -> f64 {
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
    outcome.value
}

/// Fallible variant of [`degradation_tolerance`] for callers that participate in the
/// fault-injection plane: the probe is intercepted at [`FaultSite::Probe`] before any
/// flow evaluation, surfacing an injected timeout as [`CoreError::Timeout`]. Without an
/// installed fault script this is exactly [`degradation_tolerance`].
///
/// # Errors
///
/// [`CoreError::Timeout`] when the context's fault script fails this probe.
///
/// # Panics
///
/// Panics if `node` is out of range for the scheme's instance.
pub fn try_degradation_tolerance(
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
    Ok(degradation_tolerance(scheme, node, floor, ctx))
}

/// Result of repairing an overlay after departures.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The reduced instance (departed nodes removed).
    pub instance: Instance,
    /// The freshly computed acyclic solution on the reduced instance.
    pub solution: AcyclicSolution,
    /// Mapping from surviving original node ids to ids in the reduced instance.
    pub id_map: Vec<(NodeId, NodeId)>,
}

impl RepairOutcome {
    /// The repaired scheme's overlay edges translated back to the *original* node ids
    /// (through [`RepairOutcome::id_map`]). This is the hot-swap entry point of the
    /// adaptive session controller in `bmp-sim`: the running data plane still addresses
    /// the full platform (departed nodes stay addressable in case they rejoin), so the
    /// re-solved overlay must be expressed in the original id space before it can
    /// replace the frozen one mid-broadcast.
    #[must_use]
    pub fn edges_in_original_ids(&self) -> Vec<(NodeId, NodeId, f64)> {
        translate_edges(&self.solution.scheme, &self.id_map)
    }
}

/// Translates a reduced-instance scheme's edges back to original node ids through an
/// `(old, new)` id map.
fn translate_edges(
    scheme: &BroadcastScheme,
    id_map: &[(NodeId, NodeId)],
) -> Vec<(NodeId, NodeId, f64)> {
    let slots = id_map.iter().map(|&(_, new)| new).max().unwrap_or(0) + 1;
    let mut new_to_old = vec![0; slots];
    for &(old, new) in id_map {
        new_to_old[new] = old;
    }
    scheme
        .edges()
        .into_iter()
        .map(|(from, to, rate)| (new_to_old[from], new_to_old[to], rate))
        .collect()
}

/// Rebuilds the instance without the departed nodes, returning the reduced instance and
/// the `(old, new)` id map, or `None` when no receiver survives.
///
/// # Panics
///
/// Panics if the source is listed among the departed nodes.
fn reduce_instance(
    instance: &Instance,
    departed: &[NodeId],
) -> Option<(Instance, Vec<(NodeId, NodeId)>)> {
    let alive = alive_mask(instance, departed);
    let open: Vec<(NodeId, f64)> = instance
        .open_indices()
        .filter(|&i| alive[i])
        .map(|i| (i, instance.bandwidth(i)))
        .collect();
    let guarded: Vec<(NodeId, f64)> = instance
        .guarded_indices()
        .filter(|&i| alive[i])
        .map(|i| (i, instance.bandwidth(i)))
        .collect();
    if open.is_empty() && guarded.is_empty() {
        return None;
    }
    // The surviving nodes keep their relative (sorted) order within each class, so the
    // reduced instance is already sorted and the id mapping is positional.
    let reduced = Instance::new_presorted(
        instance.source_bandwidth(),
        open.iter().map(|&(_, b)| b).collect(),
        guarded.iter().map(|&(_, b)| b).collect(),
    )
    .ok()?;
    let mut id_map = vec![(0, 0)];
    for (new_index, &(old_id, _)) in open.iter().enumerate() {
        id_map.push((old_id, new_index + 1));
    }
    for (new_index, &(old_id, _)) in guarded.iter().enumerate() {
        id_map.push((old_id, reduced.n() + new_index + 1));
    }
    Some((reduced, id_map))
}

/// A repaired overlay computed by an arbitrary registry solver, already translated back
/// to the original id space — the solver-agnostic counterpart of [`RepairOutcome`] that
/// the fallback-solver chain of the adaptive repair pipeline consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPlan {
    /// Registry name of the solver that produced the plan.
    pub algorithm: &'static str,
    /// Verified throughput of the repaired overlay on the reduced instance.
    pub throughput: f64,
    /// The repaired overlay's edges in *original* node ids (see
    /// [`RepairOutcome::edges_in_original_ids`]).
    pub edges: Vec<(NodeId, NodeId, f64)>,
}

/// Rebuilds the instance without the departed nodes and re-solves it through any
/// [`Solver`] — the fallible, fallback-capable sibling of [`repair`].
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
    let Some((reduced, id_map)) = reduce_instance(instance, departed) else {
        return Ok(None);
    };
    let solution = solver.solve(&reduced, ctx)?;
    let edges = translate_edges(&solution.scheme, &id_map);
    Ok(Some(RepairPlan {
        algorithm: solution.algorithm,
        throughput: solution.throughput,
        edges,
    }))
}

/// Rebuilds an instance without the departed nodes and re-runs the acyclic solver.
///
/// Returns `None` when no receiver survives.
///
/// # Panics
///
/// Panics if the source is listed among the departed nodes.
#[must_use]
pub fn repair(
    instance: &Instance,
    departed: &[NodeId],
    solver: &AcyclicGuardedSolver,
) -> Option<RepairOutcome> {
    let (reduced, id_map) = reduce_instance(instance, departed)?;
    let solution = solver.solve(&reduced);
    Some(RepairOutcome {
        instance: reduced,
        solution,
        id_map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let tolerance = degradation_tolerance(scheme, victim, floor, &mut ctx);
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
        let relay = degradation_tolerance(&solution.scheme, 3, floor, &mut ctx);
        // The last guarded node relays little: it tolerates much more degradation.
        let leaf = degradation_tolerance(&solution.scheme, 5, floor, &mut ctx);
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
            degradation_tolerance(&solution.scheme, 3, 0.0, &mut ctx),
            1.0
        );
        // A floor above the nominal throughput fails immediately.
        let t = solution.throughput;
        assert_eq!(
            degradation_tolerance(&solution.scheme, 3, 2.0 * t, &mut ctx),
            0.0
        );
    }

    #[test]
    fn degradation_probe_matches_a_hand_scaled_evaluation() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let mut ctx = EvalCtx::new();
        let floor = 0.8 * solution.throughput;
        let d = degradation_tolerance(&solution.scheme, 0, floor, &mut ctx);
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

    #[test]
    fn repair_restores_a_feasible_low_degree_overlay() {
        let solver = AcyclicGuardedSolver::default();
        let instance = figure1();
        let outcome = repair(&instance, &[3], &solver).unwrap();
        assert_eq!(outcome.instance.num_receivers(), 4);
        assert_eq!(outcome.instance.m(), 2);
        assert!(outcome.solution.scheme.is_feasible());
        // The repaired throughput is the optimum of the reduced platform and is certified by
        // max-flow.
        assert!(outcome.solution.scheme.throughput() + 1e-6 >= outcome.solution.throughput);
        // The id map covers the source and the four survivors.
        assert_eq!(outcome.id_map.len(), 5);
        assert!(outcome.id_map.iter().all(|&(old, _)| old != 3));
    }

    #[test]
    fn repaired_edges_translate_back_to_original_ids() {
        let solver = AcyclicGuardedSolver::default();
        let instance = figure1();
        let outcome = repair(&instance, &[3], &solver).unwrap();
        let edges = outcome.edges_in_original_ids();
        assert_eq!(edges.len(), outcome.solution.scheme.edges().len());
        for &(from, to, rate) in &edges {
            assert_ne!(from, 3, "departed node reappeared as sender");
            assert_ne!(to, 3, "departed node reappeared as receiver");
            assert!(from < instance.num_nodes() && to < instance.num_nodes());
            assert!(rate > 0.0);
        }
        // The translated overlay delivers the repaired throughput to the survivors.
        let survivors: Vec<NodeId> = (1..instance.num_nodes()).filter(|&v| v != 3).collect();
        let arena = FlowArena::from_edges(instance.num_nodes(), &edges);
        let value = FlowSolver::new().min_max_flow(&arena, 0, &survivors);
        assert!(
            (value - outcome.solution.throughput).abs() < 1e-6,
            "translated overlay delivers {value} vs repaired {}",
            outcome.solution.throughput
        );
    }

    #[test]
    fn repair_after_all_receivers_depart_is_none() {
        let solver = AcyclicGuardedSolver::default();
        let instance = figure1();
        assert!(repair(&instance, &[1, 2, 3, 4, 5], &solver).is_none());
    }

    #[test]
    fn repair_with_matches_the_legacy_repair() {
        use crate::solver::AcyclicGuardedAlgorithm;
        let instance = figure1();
        let legacy = repair(&instance, &[3], &AcyclicGuardedSolver::default()).unwrap();
        let mut ctx = EvalCtx::new();
        let plan = repair_with(&instance, &[3], &AcyclicGuardedAlgorithm, &mut ctx)
            .unwrap()
            .unwrap();
        assert_eq!(plan.algorithm, "acyclic-guarded");
        assert!((plan.throughput - legacy.solution.throughput).abs() < 1e-9);
        assert_eq!(plan.edges, legacy.edges_in_original_ids());
    }

    #[test]
    fn repair_with_propagates_injected_solver_faults() {
        use crate::faults::InjectedFaults;
        use crate::solver::AcyclicGuardedAlgorithm;
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
        use crate::solver::AcyclicGuardedAlgorithm;
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
    fn try_degradation_tolerance_matches_and_times_out_on_schedule() {
        use crate::faults::{FaultSite, InjectedFaults};
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let floor = 0.9 * solution.throughput;
        let mut ctx = EvalCtx::new();
        let plain = degradation_tolerance(&solution.scheme, 3, floor, &mut ctx);
        let fallible = try_degradation_tolerance(&solution.scheme, 3, floor, &mut ctx).unwrap();
        assert_eq!(plain, fallible);
        ctx.set_injected_faults(Some(
            InjectedFaults::default().and_fail(FaultSite::Probe, 1),
        ));
        assert!(try_degradation_tolerance(&solution.scheme, 3, floor, &mut ctx).is_ok());
        let err = try_degradation_tolerance(&solution.scheme, 3, floor, &mut ctx).unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }));
        assert!(err.to_string().contains("node 3"));
    }

    #[test]
    #[should_panic(expected = "source cannot depart")]
    fn source_departure_is_rejected() {
        let solver = AcyclicGuardedSolver::default();
        let solution = solver.solve(&figure1());
        let _ = residual_throughput(&solution.scheme, &[0], &mut EvalCtx::new());
        let _ = repair(&figure1(), &[0], &solver);
    }
}
