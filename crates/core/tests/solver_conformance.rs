//! Conformance suite for the unified solver registry: every registered solver, run over a
//! corpus of small open/guarded instances, must produce a feasible scheme whose claimed
//! throughput is certified by max-flow, with populated telemetry — and the trait
//! implementations must agree with the legacy free-function entry points they wrap.

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::acyclic_open::acyclic_open_optimal_scheme;
use bmp_core::churn::degradation_tolerance;
use bmp_core::cyclic_open::cyclic_open_optimal_scheme;
use bmp_core::exhaustive::optimal_acyclic_exhaustive;
use bmp_core::omega::best_omega_throughput;
use bmp_core::solver::{registry, EvalCtx, SolveRecorder};
use bmp_core::CoreError;
use bmp_platform::paper::{figure1, figure11, figure14};
use bmp_platform::Instance;
use proptest::prelude::*;

/// Small open/guarded instances covering every solver's supported class.
fn corpus() -> Vec<Instance> {
    vec![
        figure1(),
        figure11(),
        figure14(),
        Instance::open_only(6.0, vec![5.0, 4.0, 3.0]).unwrap(),
        Instance::open_only(10.0, vec![4.0, 4.0, 1.0]).unwrap(),
        Instance::new(6.0, vec![], vec![2.0, 1.0, 1.0]).unwrap(),
        Instance::new(10.0, vec![8.0, 6.0, 5.0, 2.0], vec![7.0, 3.0, 1.0]).unwrap(),
        Instance::new(3.0, vec![9.0, 1.0], vec![4.0, 4.0, 0.5, 0.5]).unwrap(),
        Instance::new(1.0, vec![0.5; 4], vec![3.0; 2]).unwrap(),
    ]
}

/// Solvers that report a coding word and spend dichotomic probes.
fn is_word_based(name: &str) -> bool {
    matches!(name, "acyclic-guarded" | "exhaustive" | "omega-word")
}

#[test]
fn every_solver_conforms_on_the_corpus() {
    let mut ctx = EvalCtx::new();
    for solver in registry() {
        let mut solved = 0usize;
        for instance in corpus() {
            let solution = match solver.solve(&instance, &mut ctx) {
                Ok(solution) => solution,
                // Class restrictions are legitimate (open-only algorithms on guarded
                // instances); anything else is a conformance failure.
                Err(CoreError::GuardedNodesNotSupported { .. })
                | Err(CoreError::Unsupported { .. }) => continue,
                Err(other) => panic!("{}: unexpected error {other}", solver.name()),
            };
            solved += 1;
            assert!(
                solution.scheme.validate().is_empty(),
                "{}: violations {:?}",
                solver.name(),
                solution.scheme.validate()
            );
            // The claimed throughput is certified by max-flow on the returned scheme.
            let achieved = solution.scheme.throughput();
            assert!(
                (achieved - solution.throughput).abs() <= 1e-5 * solution.throughput.max(1.0),
                "{}: claimed {} vs measured {achieved}",
                solver.name(),
                solution.throughput
            );
            // Telemetry counters are populated: every solve verifies by max-flow, and
            // word-based solvers spend dichotomic probes.
            assert!(
                solution.telemetry.flow_solves > 0,
                "{}: no flow solves recorded",
                solver.name()
            );
            if is_word_based(solution.algorithm) && solution.throughput > 0.0 {
                assert!(
                    solution.telemetry.bisection_iters > 0,
                    "{}: no bisection probes recorded",
                    solver.name()
                );
                assert!(solution.word.is_some(), "{}: missing word", solver.name());
            }
        }
        assert!(
            solved >= 2,
            "{} solved only {solved} corpus instances",
            solver.name()
        );
    }
}

#[test]
fn word_based_solvers_never_beat_the_ground_truth() {
    // The exhaustive oracle is the acyclic optimum; the heuristics must stay at or below
    // it, and acyclic-guarded must match it.
    let mut ctx = EvalCtx::new();
    let by_name = |name: &str| {
        registry()
            .into_iter()
            .find(|s| s.name() == name)
            .expect("registered")
    };
    for instance in corpus() {
        let exact = by_name("exhaustive").solve(&instance, &mut ctx).unwrap();
        let guarded = by_name("acyclic-guarded")
            .solve(&instance, &mut ctx)
            .unwrap();
        let omega = by_name("omega-word").solve(&instance, &mut ctx).unwrap();
        let tol = 1e-5 * exact.throughput.max(1.0);
        assert!(
            (guarded.throughput - exact.throughput).abs() <= tol,
            "dichotomic {} vs exhaustive {}",
            guarded.throughput,
            exact.throughput
        );
        assert!(omega.throughput <= exact.throughput + tol);
    }
}

#[test]
fn trait_impls_match_legacy_entry_points() {
    // The legacy free functions / builder remain the implementation; the trait adapters
    // must be exactly equivalent on their shared domain.
    let mut ctx = EvalCtx::new();
    let by_name = |name: &str| {
        registry()
            .into_iter()
            .find(|s| s.name() == name)
            .expect("registered")
    };
    for instance in corpus() {
        let legacy = AcyclicGuardedSolver::default().solve(&instance);
        let adapted = by_name("acyclic-guarded")
            .solve(&instance, &mut ctx)
            .unwrap();
        assert!((legacy.throughput - adapted.throughput).abs() < 1e-12);
        assert_eq!(Some(&legacy.word), adapted.word.as_ref());
        assert_eq!(legacy.scheme, adapted.scheme);

        let (exhaustive_t, _) = optimal_acyclic_exhaustive(&instance, EvalCtx::DEFAULT_TOLERANCE);
        let exhaustive = by_name("exhaustive").solve(&instance, &mut ctx).unwrap();
        assert!((exhaustive_t - exhaustive.throughput).abs() < 1e-9);

        let (omega_t, _) = best_omega_throughput(&instance, EvalCtx::DEFAULT_TOLERANCE);
        let omega = by_name("omega-word").solve(&instance, &mut ctx).unwrap();
        assert!((omega_t - omega.throughput).abs() < 1e-9);

        if !instance.has_guarded() {
            let (legacy_scheme, legacy_t) = acyclic_open_optimal_scheme(&instance).unwrap();
            let open = by_name("acyclic-open").solve(&instance, &mut ctx).unwrap();
            assert_eq!(legacy_t, open.throughput);
            assert_eq!(legacy_scheme, open.scheme);

            let (legacy_scheme, legacy_t) = cyclic_open_optimal_scheme(&instance).unwrap();
            let cyclic = by_name("cyclic-open").solve(&instance, &mut ctx).unwrap();
            assert_eq!(legacy_t, cyclic.throughput);
            assert_eq!(legacy_scheme, cyclic.scheme);
        }
    }
}

/// Every registry solver's solution, re-probed by the dichotomic degradation search:
/// the probes re-score near-identical schemes through the shared context, so the
/// retained arena must be rewritten in place (`arena_updates` grows) and the result
/// must agree exactly with a fresh context.
#[test]
fn every_solver_dichotomic_reprobe_reuses_the_arena() {
    let mut ctx = EvalCtx::new();
    for solver in registry() {
        let mut reprobed = 0usize;
        for instance in corpus() {
            let Ok(solution) = solver.solve(&instance, &mut ctx) else {
                continue;
            };
            if solution.throughput <= 0.0 {
                continue;
            }
            // Degrade the source's upload: always present and always load-bearing.
            let floor = 0.9 * solution.throughput;
            let recorder = SolveRecorder::start(&ctx);
            let updates_before = ctx.arena_updates();
            let tolerance = degradation_tolerance(&solution.scheme, 0, floor, &mut ctx);
            let telemetry = recorder.telemetry(&ctx);
            assert!(
                ctx.arena_updates() > updates_before,
                "{}: dichotomic re-probe never rewrote the retained arena",
                solver.name()
            );
            assert!(
                telemetry.bisection_iters > 0,
                "{}: no probes recorded",
                solver.name()
            );
            // The retained-arena probes must reproduce a fresh context exactly.
            let fresh = degradation_tolerance(&solution.scheme, 0, floor, &mut EvalCtx::new());
            assert_eq!(
                tolerance,
                fresh,
                "{}: retained and fresh probes disagree",
                solver.name()
            );
            reprobed += 1;
        }
        assert!(
            reprobed >= 2,
            "{} re-probed only {reprobed} corpus instances",
            solver.name()
        );
    }
}

/// Every registry solver must produce the *same* solution under a pooled evaluation
/// context as under a sequential one: same algorithm label, bit-identical claimed and
/// verified throughput, same word, same scheme, and bit-identical telemetry counters
/// (`wall_time` is the only field allowed to differ — the fan-out changes nothing but
/// elapsed time).
#[test]
fn every_solver_matches_under_a_pooled_ctx() {
    for solver in registry() {
        for instance in corpus() {
            let mut seq = EvalCtx::new();
            let mut pooled = EvalCtx::new();
            pooled.set_parallelism(4);
            let sequential = solver.solve(&instance, &mut seq);
            let parallel = solver.solve(&instance, &mut pooled);
            match (sequential, parallel) {
                (Ok(sequential), Ok(parallel)) => {
                    let name = solver.name();
                    assert_eq!(sequential.algorithm, parallel.algorithm, "{name}");
                    assert_eq!(
                        sequential.throughput.to_bits(),
                        parallel.throughput.to_bits(),
                        "{name}: claimed throughput diverged"
                    );
                    assert_eq!(
                        sequential.verified_throughput.to_bits(),
                        parallel.verified_throughput.to_bits(),
                        "{name}: verified throughput diverged"
                    );
                    assert_eq!(sequential.word, parallel.word, "{name}");
                    assert_eq!(sequential.scheme, parallel.scheme, "{name}");
                    let (s, p) = (&sequential.telemetry, &parallel.telemetry);
                    assert_eq!(s.flow_solves, p.flow_solves, "{name}");
                    assert_eq!(s.bisection_iters, p.bisection_iters, "{name}");
                }
                (Err(_), Err(_)) => {} // class restrictions hit identically
                (sequential, parallel) => panic!(
                    "{}: sequential {:?} vs pooled {:?} disagree on solvability",
                    solver.name(),
                    sequential.map(|s| s.throughput),
                    parallel.map(|s| s.throughput)
                ),
            }
        }
    }
}

/// Random open-only instance and rate matrix; entries below 0.5 are zeroed so that the
/// edge *set* survives the ±50% rate perturbations used by the retained-arena tests.
fn random_scheme() -> impl Strategy<Value = (bmp_core::BroadcastScheme, Vec<f64>)> {
    (2..=7usize).prop_flat_map(|n| {
        let rates = proptest::collection::vec(0.0_f64..10.0, n * n);
        let factors = proptest::collection::vec(0.5_f64..1.5, n * n);
        (rates, factors).prop_map(move |(rates, factors)| {
            let instance =
                Instance::open_only(5.0, vec![1.0; n - 1]).expect("valid open-only instance");
            let mut scheme = bmp_core::BroadcastScheme::new(instance);
            for i in 0..n {
                for j in 0..n {
                    let rate = rates[i * n + j];
                    if i != j && rate >= 0.5 {
                        scheme.set_rate(i, j, rate);
                    }
                }
            }
            (scheme, factors)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The retained arena, rewritten in place while the edge set is unchanged, must
    /// equal a from-scratch rebuild for every evaluation of a perturbed scheme.
    #[test]
    fn in_place_rewrites_equal_rebuild(case in random_scheme()) {
        let (mut scheme, factors) = case;
        let mut retained = EvalCtx::new();
        let first = retained.throughput(&scheme);
        prop_assert_eq!(first, EvalCtx::new().throughput(&scheme));
        // Perturb every edge's rate without changing the edge set, twice: both rounds
        // must rewrite the retained arena (no rebuild) and agree with a fresh context.
        for round in 0..2 {
            let n = scheme.instance().num_nodes();
            for (from, to, rate) in scheme.edges() {
                let factor = factors[(from * n + to) % factors.len()];
                scheme.set_rate(from, to, rate * factor);
            }
            let builds_before = retained.arena_builds();
            let updates_before = retained.arena_updates();
            let rewritten = retained.throughput(&scheme);
            let fresh = EvalCtx::new().throughput(&scheme);
            prop_assert_eq!(rewritten, fresh, "round {}", round);
            prop_assert_eq!(retained.arena_builds(), builds_before,
                "round {} rebuilt the arena", round);
            prop_assert_eq!(retained.arena_updates(), updates_before + 1,
                "round {} did not rewrite the arena in place", round);
        }
        // Pruning dust leaves the edge set alone: still no rebuild, still exact.
        scheme.prune_dust();
        let builds_before = retained.arena_builds();
        prop_assert_eq!(retained.throughput(&scheme), EvalCtx::new().throughput(&scheme));
        prop_assert_eq!(retained.arena_builds(), builds_before);
        // An edge-set-changing mutation (remove one edge, add another) must rebuild —
        // and stay exact.
        let edges = scheme.edges();
        if let Some(&(from, to, _)) = edges.first() {
            scheme.set_rate(from, to, 0.0);
        }
        let n = scheme.instance().num_nodes();
        if n >= 3 {
            let (a, b) = (n - 2, n - 1);
            let rate = scheme.rate(a, b);
            scheme.set_rate(a, b, rate + 1.0);
        }
        let builds_before = retained.arena_builds();
        prop_assert_eq!(retained.throughput(&scheme), EvalCtx::new().throughput(&scheme));
        if !edges.is_empty() {
            prop_assert_eq!(retained.arena_builds(), builds_before + 1,
                "an edge-set change must rebuild the arena");
        }
    }

    /// Pooled evaluation (`EvalCtx::set_parallelism`, the persistent-pool fan-out) must
    /// equal sequential evaluation **bit-identically** — values and counters — on random
    /// overlays at every fan-out in {1, 2, 4}. Runs the same probe sequence (nominal
    /// evaluation, then two rounds of perturbations) through one sequential and one
    /// pooled context per fan-out.
    #[test]
    fn parallel_throughput_is_bit_identical_to_sequential(case in random_scheme()) {
        let (mut scheme, factors) = case;
        let n = scheme.instance().num_nodes();
        for threads in [1usize, 2, 4] {
            let mut seq = EvalCtx::new();
            seq.set_parallelism(1);
            let mut par = EvalCtx::new();
            par.set_parallelism(threads);
            let rec_seq = SolveRecorder::start(&seq);
            let rec_par = SolveRecorder::start(&par);
            prop_assert_eq!(par.throughput(&scheme), seq.throughput(&scheme),
                "nominal (threads={})", threads);
            for round in 0..2 {
                for (from, to, rate) in scheme.edges() {
                    let factor = factors[(from * n + to) % factors.len()];
                    scheme.set_rate(from, to, rate * factor);
                }
                prop_assert_eq!(par.throughput(&scheme), seq.throughput(&scheme),
                    "round {} (threads={})", round, threads);
            }
            // Counters are bit-exact; wall_time is the only field the fan-out may
            // change.
            let t_seq = rec_seq.telemetry(&seq);
            let t_par = rec_par.telemetry(&par);
            prop_assert_eq!(t_par.flow_solves, t_seq.flow_solves);
            prop_assert_eq!(t_par.bisection_iters, t_seq.bisection_iters);
            prop_assert_eq!(par.arena_builds(), seq.arena_builds());
            prop_assert_eq!(par.arena_updates(), seq.arena_updates());
        }
    }
}
