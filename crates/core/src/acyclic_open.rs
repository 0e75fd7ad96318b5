//! Algorithm 1: optimal acyclic broadcast for instances without guarded nodes.
//!
//! Nodes are sorted by non-increasing bandwidth and served one after the other: each sender
//! `C_i` pours its whole outgoing bandwidth into the first receivers that are not yet served
//! at rate `T`. The resulting scheme is acyclic, reaches the optimal acyclic throughput
//! `T* = min(b_0, S_{n−1}/n)` and every node has outdegree at most `⌈b_i/T⌉ + 1`
//! (Section III-B of the paper).

use crate::bounds::acyclic_open_optimum;
use crate::error::CoreError;
use crate::scheme::BroadcastScheme;
use bmp_flow::eps;
use bmp_platform::Instance;

/// Builds the Algorithm 1 scheme at throughput `throughput` for an instance without guarded
/// nodes.
///
/// # Errors
///
/// * [`CoreError::GuardedNodesNotSupported`] if the instance has guarded nodes,
/// * [`CoreError::InfeasibleThroughput`] if `throughput` exceeds `min(b_0, S_{n−1}/n)`.
pub fn acyclic_open_scheme(
    instance: &Instance,
    throughput: f64,
) -> Result<BroadcastScheme, CoreError> {
    if instance.has_guarded() {
        return Err(CoreError::GuardedNodesNotSupported {
            algorithm: "Algorithm 1 (acyclic, open nodes only)",
        });
    }
    let optimum = acyclic_open_optimum(instance)?;
    if eps::definitely_gt(throughput, optimum) {
        return Err(CoreError::InfeasibleThroughput {
            requested: throughput,
            optimum,
        });
    }
    // Guard against callers passing `optimum + ε` (allowed by the tolerant comparison above):
    // the construction below assumes the prefix-sum invariant S_{i−1} ≥ i·T exactly.
    let throughput = throughput.min(optimum);
    let n = instance.n();
    let mut scheme = BroadcastScheme::new(instance.clone());
    if throughput <= 0.0 || n == 0 {
        return Ok(scheme);
    }

    // `remaining_need[t]` is how much receiver C_t still has to receive (r_t in the paper),
    // `t` is the first receiver that is not yet fully served.
    let mut remaining_need: Vec<f64> = vec![throughput; n + 1];
    remaining_need[0] = 0.0; // the source receives nothing
    let mut t = 1usize;
    let tol = 1e-12 * throughput.max(1.0);

    for sender in 0..=n {
        let mut supply = instance.bandwidth(sender);
        while supply > tol && t <= n {
            // Acyclicity invariant (S_{i−1} ≥ i·T): the receiver pointer is always ahead of
            // the sender.
            debug_assert!(t > sender, "receiver pointer caught up with the sender");
            let transfer = remaining_need[t].min(supply);
            if transfer > tol {
                scheme.add_rate(sender, t, transfer);
            }
            remaining_need[t] -= transfer;
            supply -= transfer;
            if remaining_need[t] <= tol {
                remaining_need[t] = 0.0;
                t += 1;
            }
        }
        if t > n {
            break;
        }
    }
    scheme.prune_dust();
    Ok(scheme)
}

/// Builds the optimal Algorithm 1 scheme (`T = min(b_0, S_{n−1}/n)`) and returns it together
/// with its throughput.
///
/// # Errors
///
/// Returns [`CoreError::GuardedNodesNotSupported`] if the instance has guarded nodes.
pub fn acyclic_open_optimal_scheme(
    instance: &Instance,
) -> Result<(BroadcastScheme, f64), CoreError> {
    let optimum = acyclic_open_optimum(instance)?;
    let scheme = acyclic_open_scheme(instance, optimum)?;
    Ok((scheme, optimum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_platform::paper::figure1;

    fn check_scheme(instance: &Instance, throughput: f64) -> BroadcastScheme {
        let scheme = acyclic_open_scheme(instance, throughput).expect("feasible");
        assert!(scheme.is_feasible(), "violations: {:?}", scheme.validate());
        assert!(scheme.is_acyclic());
        let achieved = scheme.throughput();
        assert!(
            achieved + 1e-7 >= throughput,
            "achieved {achieved} < requested {throughput}"
        );
        // Degree bound of Section III-B: ⌈b_i/T⌉ + 1.
        for node in 0..instance.num_nodes() {
            let excess = scheme.degree_excess(node, throughput);
            assert!(excess <= 1, "node {node} has degree excess {excess} (> +1)");
        }
        scheme
    }

    #[test]
    fn optimal_scheme_on_simple_instance() {
        let inst = Instance::open_only(6.0, vec![5.0, 4.0, 3.0]).unwrap();
        let (scheme, optimum) = acyclic_open_optimal_scheme(&inst).unwrap();
        assert!((optimum - 5.0).abs() < 1e-12);
        assert!(scheme.is_feasible());
        assert!((scheme.throughput() - 5.0).abs() < 1e-9);
        check_scheme(&inst, 5.0);
    }

    #[test]
    fn source_limited_instance() {
        let inst = Instance::open_only(2.0, vec![50.0, 40.0, 30.0]).unwrap();
        let (scheme, optimum) = acyclic_open_optimal_scheme(&inst).unwrap();
        assert!((optimum - 2.0).abs() < 1e-12);
        assert!((scheme.throughput() - 2.0).abs() < 1e-9);
        // The source only needs to feed the first node; the chain then relays.
        assert_eq!(scheme.outdegree(0), 1);
    }

    #[test]
    fn figure3_structure_consecutive_receivers() {
        // Each sender serves a consecutive range of receivers (Figure 3 of the paper).
        let inst = Instance::open_only(10.0, vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0]).unwrap();
        let (scheme, optimum) = acyclic_open_optimal_scheme(&inst).unwrap();
        let t = optimum;
        for sender in 0..inst.num_nodes() {
            let receivers: Vec<usize> = scheme.out_edges(sender).map(|(to, _)| to).collect();
            for pair in receivers.windows(2) {
                assert_eq!(
                    pair[1],
                    pair[0] + 1,
                    "receivers of {sender} not consecutive"
                );
            }
            // Senders only feed strictly later nodes.
            if let Some(&first) = receivers.first() {
                assert!(first > sender);
            }
        }
        check_scheme(&inst, t);
    }

    #[test]
    fn every_receiver_gets_exactly_t() {
        let inst = Instance::open_only(4.0, vec![3.5, 3.0, 2.5, 2.0, 1.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        for receiver in inst.receivers() {
            let received = scheme.received(receiver);
            assert!(
                (received - t).abs() < 1e-9,
                "receiver {receiver} got {received}, expected {t}"
            );
        }
    }

    #[test]
    fn sub_optimal_throughput_also_works() {
        let inst = Instance::open_only(6.0, vec![5.0, 4.0, 3.0]).unwrap();
        for t in [0.5, 1.0, 2.5, 4.0, 4.999] {
            check_scheme(&inst, t);
        }
    }

    #[test]
    fn rejects_guarded_instances() {
        let err = acyclic_open_scheme(&figure1(), 1.0).unwrap_err();
        assert!(matches!(err, CoreError::GuardedNodesNotSupported { .. }));
    }

    #[test]
    fn rejects_infeasible_throughput() {
        let inst = Instance::open_only(6.0, vec![5.0, 4.0, 3.0]).unwrap();
        let err = acyclic_open_scheme(&inst, 5.1).unwrap_err();
        assert!(matches!(err, CoreError::InfeasibleThroughput { .. }));
    }

    #[test]
    fn zero_throughput_gives_empty_scheme() {
        let inst = Instance::open_only(6.0, vec![5.0]).unwrap();
        let scheme = acyclic_open_scheme(&inst, 0.0).unwrap();
        assert!(scheme.edges().is_empty());
    }

    #[test]
    fn homogeneous_instance_degree_bound_tight() {
        // Homogeneous open-only instance: every node should have degree close to ⌈b/T⌉.
        let inst = Instance::open_only(1.0, vec![1.0; 20]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        for node in 0..inst.num_nodes() {
            assert!(scheme.outdegree(node) <= 2);
        }
    }

    #[test]
    fn single_receiver() {
        let inst = Instance::open_only(3.0, vec![1.0]).unwrap();
        let (scheme, t) = acyclic_open_optimal_scheme(&inst).unwrap();
        assert!((t - 3.0).abs() < 1e-12);
        assert!((scheme.rate(0, 1) - 3.0).abs() < 1e-9);
    }
}
