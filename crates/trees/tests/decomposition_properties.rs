//! Property tests: every low-degree acyclic solution produced by the paper's algorithms can be
//! decomposed into weighted broadcast trees, and the decomposition respects its invariants.

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::acyclic_open::acyclic_open_optimal_scheme;
use bmp_flow::eps;
use bmp_platform::Instance;
use bmp_trees::{decompose_acyclic, greedy_packing};
use proptest::prelude::*;

/// Bandwidths in a range that keeps the solvers numerically comfortable.
fn bandwidth() -> impl Strategy<Value = f64> {
    (1u32..=1000).prop_map(|b| f64::from(b) / 10.0)
}

fn open_guarded_instance() -> impl Strategy<Value = Instance> {
    (
        bandwidth(),
        prop::collection::vec(bandwidth(), 1..12),
        prop::collection::vec(bandwidth(), 0..12),
    )
        .prop_map(|(b0, open, guarded)| {
            Instance::new(b0, open, guarded).expect("positive bandwidths build an instance")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acyclic_guarded_solutions_decompose_exactly(instance in open_guarded_instance()) {
        let solution = AcyclicGuardedSolver::default().solve(&instance);
        prop_assume!(solution.throughput > 1e-6);
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput)
            .expect("low-degree acyclic solutions always decompose");
        decomposition.verify(&solution.scheme).expect("decomposition invariants hold");

        // Weights sum to the throughput.
        let total: f64 = decomposition.trees().map(|t| t.unwrap().weight()).sum();
        prop_assert!(eps::approx_eq(total, solution.throughput));

        // Tree count bound E - R + 1.
        let edges = solution.scheme.edges().len();
        let receivers = instance.num_receivers();
        prop_assert!(decomposition.num_trees() <= edges.saturating_sub(receivers) + 1);

        // The data-plane connection degree never exceeds the scheme outdegree.
        for node in 0..instance.num_nodes() {
            prop_assert!(
                decomposition.connection_degree(node) <= solution.scheme.outdegree(node)
            );
        }
    }

    #[test]
    fn open_only_solutions_decompose_exactly(
        b0 in bandwidth(),
        open in prop::collection::vec(bandwidth(), 2..16),
    ) {
        let instance = Instance::open_only(b0, open).unwrap();
        let (scheme, throughput) = acyclic_open_optimal_scheme(&instance).unwrap();
        prop_assume!(throughput > 1e-6);
        let decomposition = decompose_acyclic(&scheme, throughput).unwrap();
        decomposition.verify(&scheme).unwrap();
        prop_assert!(eps::approx_eq(decomposition.throughput(), throughput));
    }

    #[test]
    fn greedy_packing_is_feasible_and_below_the_bound(instance in open_guarded_instance()) {
        let solution = AcyclicGuardedSolver::default().solve(&instance);
        prop_assume!(solution.throughput > 1e-6);
        let packing = greedy_packing(&solution.scheme).unwrap();
        packing.decomposition.verify(&solution.scheme).unwrap();
        prop_assert!(eps::approx_le(
            packing.decomposition.throughput(),
            solution.scheme.throughput()
        ));
        prop_assert!(packing.decomposition.num_trees() <= solution.scheme.edges().len());
    }

    #[test]
    fn stripes_cover_the_message(
        instance in open_guarded_instance(),
        message in 1u32..1000,
    ) {
        let solution = AcyclicGuardedSolver::default().solve(&instance);
        prop_assume!(solution.throughput > 1e-6);
        let decomposition = decompose_acyclic(&solution.scheme, solution.throughput).unwrap();
        let message = f64::from(message);
        let plan = bmp_trees::stripe_message(&decomposition, message).unwrap();
        let total: f64 = plan.stripes.iter().sum();
        prop_assert!((total - message).abs() < 1e-6 * message.max(1.0));
        let completion =
            bmp_trees::completion_estimate(&decomposition, message, message / 100.0).unwrap();
        // Every receiver completes no earlier than the fluid bound.
        for &t in &completion[1..] {
            prop_assert!(t + 1e-9 >= message / solution.throughput);
        }
    }
}
