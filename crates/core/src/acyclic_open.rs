//! Algorithm 1: optimal acyclic broadcast for instances without guarded nodes.
//!
//! Nodes are sorted by non-increasing bandwidth and served one after the other: each sender
//! `C_i` pours its whole outgoing bandwidth into the first receivers that are not yet served
//! at rate `T`. The resulting scheme is acyclic, reaches the optimal acyclic throughput
//! `T* = min(b_0, S_{n−1}/n)` and every node has outdegree at most `⌈b_i/T⌉ + 1`
//! (Section III-B of the paper).
//!
//! The construction lays both sides on one axis: receiver `C_t` needs the window
//! `[(t−1)·T, t·T)` and sender `C_i` supplies `[S_{i−1}, S_i)`, and each transfer is
//! the overlap of two windows. Every window end is computed directly, not by running
//! subtractions, so rounding cannot accumulate along the sender order.

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
/// * [`CoreError::InfeasibleThroughput`] if `throughput` exceeds `min(b_0, S_{n−1}/n)`,
///   or if some receiver `C_t` would need a transfer from a node at or after it (the
///   prefix-sum invariant `S_{t−1} ≥ t·T` failing by more than `1e-9·T`); `optimum` is
///   then `S_{t−1}/t`.
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

    // `t` is the first receiver whose window `[(t−1)·T, t·T)` is not yet covered, and
    // `[supply_start, supply_end)` is the sender's window `[S_{i−1}, S_i)`.
    let mut t = 1usize;
    let mut supply_start = 0.0;
    for sender in 0..=n {
        let supply_end = supply_start + instance.bandwidth(sender);
        while t <= n {
            let need_end = t as f64 * throughput;
            let transfer = supply_end.min(need_end) - supply_start.max((t - 1) as f64 * throughput);
            if transfer > 0.0 && t <= sender {
                // Acyclicity invariant (S_{t−1} ≥ t·T): receiver t is covered before its
                // own turn as a sender, up to a rounding-level remainder it goes without.
                if need_end - supply_start > eps::DEFAULT_EPS * throughput {
                    return Err(CoreError::InfeasibleThroughput {
                        requested: throughput,
                        optimum: supply_start / t as f64,
                    });
                }
                t += 1;
                continue;
            }
            if transfer > 0.0 {
                scheme.add_rate(sender, t, transfer);
            }
            if need_end > supply_end {
                break;
            }
            t += 1;
        }
        supply_start = supply_end;
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
    use crate::solver::{AcyclicOpenAlgorithm, EvalCtx, Solver};
    use bmp_platform::distribution::NamedDistribution;
    use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
    use bmp_platform::paper::figure1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// An open-only platform exactly as `bmp generate --open-prob 1` samples it.
    fn open_only_platform(dist: NamedDistribution, receivers: usize, seed: u64) -> Instance {
        let config = GeneratorConfig::new(receivers, 1.0).unwrap();
        InstanceGenerator::new(config, dist.build()).generate(&mut StdRng::seed_from_u64(seed))
    }

    /// The Section III-B guarantees of an Algorithm 1 scheme at `t`, checked without
    /// max-flow: feasible and acyclic (so its throughput is its smallest in-rate), every
    /// receiver's in-rate at least `t·(1 − 1e-9)`, every outdegree at most `⌈bᵢ/T⌉ + 1`.
    fn assert_algorithm1_guarantees(instance: &Instance, t: f64, label: &str) {
        let scheme =
            acyclic_open_scheme(instance, t).unwrap_or_else(|error| panic!("{label}: {error}"));
        assert!(scheme.is_feasible(), "{label}: {:?}", scheme.validate());
        assert!(scheme.is_acyclic(), "{label}: cyclic");
        let mut in_rate = vec![0.0; instance.num_nodes()];
        for (_, to, rate) in scheme.edges() {
            in_rate[to] += rate;
        }
        for receiver in instance.receivers() {
            assert!(
                in_rate[receiver] >= t * (1.0 - 1e-9),
                "{label}: receiver {receiver} gets {} < {t}",
                in_rate[receiver]
            );
        }
        for node in 0..instance.num_nodes() {
            let excess = scheme.degree_excess(node, t);
            assert!(
                excess <= 1,
                "{label}: node {node} has degree excess {excess}"
            );
        }
    }

    #[test]
    fn receiver_pointer_never_catches_up_on_the_seed8_platform() {
        // Regression: `bmp generate --receivers 2000 --open-prob 1 --seed 8`, then
        // `solve --algorithm acyclic-open`, panicked with "a node cannot send to itself"
        // once running subtractions left the last receiver unserved.
        // The sweep below covers the construction on this platform; this runs the
        // registry solver the CLI dispatches, max-flow verification included.
        let instance = open_only_platform(NamedDistribution::Unif100, 2000, 8);
        let solution = AcyclicOpenAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        assert_eq!(
            solution.throughput,
            acyclic_open_optimum(&instance).unwrap()
        );
        assert!(solution.scheme.is_acyclic());
    }

    #[test]
    fn algorithm1_sweep_over_the_six_distributions() {
        for dist in NamedDistribution::all() {
            for receivers in [500, 1000, 2000] {
                for seed in 0..40 {
                    let instance = open_only_platform(dist, receivers, seed);
                    let t = acyclic_open_optimum(&instance).unwrap();
                    let label = format!("{}/{receivers}/seed {seed}", dist.label());
                    assert_algorithm1_guarantees(&instance, t, &label);
                }
            }
        }
    }
}
