//! Conformance suite for the unified solver registry: every registered solver, run over a
//! corpus of small open/guarded instances, must produce a feasible scheme whose claimed
//! throughput is certified by max-flow, with populated telemetry — and the trait
//! implementations must agree with the legacy free-function entry points they wrap.

use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::acyclic_open::acyclic_open_optimal_scheme;
use bmp_core::churn::{degradation_tolerance, residual_throughput};
use bmp_core::cyclic_open::cyclic_open_optimal_scheme;
use bmp_core::exhaustive::optimal_acyclic_exhaustive;
use bmp_core::omega::best_omega_throughput;
use bmp_core::solver::{find, registry, EvalCtx, SolveRecorder};
use bmp_core::CoreError;
use bmp_flow::{FlowArena, FlowSolver};
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use bmp_platform::paper::{figure1, figure11, figure14};
use bmp_platform::Instance;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
/// the probes re-score near-identical schemes through the shared context, rebuilding
/// its arena each time, and the result must agree exactly with a fresh context.
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
            let tolerance = degradation_tolerance(&solution.scheme, 0, floor, &mut ctx).unwrap();
            let telemetry = recorder.telemetry(&ctx);
            assert!(
                telemetry.bisection_iters > 0,
                "{}: no probes recorded",
                solver.name()
            );
            // The retained-arena probes must reproduce a fresh context exactly.
            let fresh =
                degradation_tolerance(&solution.scheme, 0, floor, &mut EvalCtx::new()).unwrap();
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

/// On a 600-receiver platform, above the auto fan-out threshold (512 nodes and 96
/// sinks), the default context splits every evaluation over up to `min(cores, 8)`
/// lanes. Its solutions must equal the sequential and the 8-lane ones (scheme, claimed
/// throughput and counters), and a masked churn residual its sequential value.
#[test]
fn auto_fan_out_at_scale_matches_sequential() {
    for (open_probability, algorithm) in [(0.6, "acyclic-guarded"), (1.0, "cyclic-open")] {
        let config = GeneratorConfig::new(600, open_probability).expect("valid config");
        let instance = InstanceGenerator::new(config, UniformBandwidth::unif100())
            .generate(&mut StdRng::seed_from_u64(11));
        assert_eq!(
            bmp_flow::suggested_flow_threads(instance.num_nodes(), 600),
            cores().min(8),
            "the platform must lie above the auto threshold"
        );
        let solver = find(algorithm).expect("registered solver");
        let solve = |ctx: &mut EvalCtx| solver.solve(&instance, ctx).expect("solvable platform");
        let auto = solve(&mut EvalCtx::new());
        for threads in [1, 8] {
            let mut ctx = EvalCtx::new();
            ctx.set_parallelism(threads);
            let other = solve(&mut ctx);
            assert_eq!(auto.scheme, other.scheme, "{algorithm} at {threads} lanes");
            assert_eq!(auto.throughput.to_bits(), other.throughput.to_bits());
            assert_eq!(auto.telemetry.flow_solves, other.telemetry.flow_solves);
            assert_eq!(
                auto.telemetry.bisection_iters,
                other.telemetry.bisection_iters
            );
        }
        let mut sequential = EvalCtx::new();
        sequential.set_parallelism(1);
        let departed = [300, 599];
        assert_eq!(
            residual_throughput(&auto.scheme, &departed, &mut EvalCtx::new()).to_bits(),
            residual_throughput(&auto.scheme, &departed, &mut sequential).to_bits(),
            "{algorithm}: masked residual"
        );
    }
}

/// The machine's available parallelism.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
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

/// A solved scheme with 10–60 receivers, acyclic (`acyclic-guarded` on a mixed platform)
/// or cyclic (`cyclic-open` on an open-only one), plus 1–3 distinct departing receivers.
fn churned_scheme() -> impl Strategy<Value = (bmp_core::BroadcastScheme, Vec<usize>)> {
    let picks = proptest::collection::vec(1..10_000usize, 1..=3);
    (10..=60usize, 0..1_000u64, 0..2usize, picks).prop_map(|(receivers, seed, kind, picks)| {
        let (open_probability, algorithm) = [(0.6, "acyclic-guarded"), (1.0, "cyclic-open")][kind];
        let config = GeneratorConfig::new(receivers, open_probability).expect("valid config");
        let instance = InstanceGenerator::new(config, UniformBandwidth::unif100())
            .generate(&mut StdRng::seed_from_u64(seed));
        let solution = find(algorithm)
            .expect("registered solver")
            .solve(&instance, &mut EvalCtx::new())
            .expect("solvable platform");
        let mut departed: Vec<usize> = picks.iter().map(|pick| 1 + pick % receivers).collect();
        departed.sort_unstable();
        departed.dedup();
        (solution.scheme, departed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A churn residual is the scheme's own evaluation with the departed nodes' edges at
    /// capacity 0: bit for bit the max-flow over the edge list without those edges, at
    /// every fan-out, on a context whose arena last held the nominal evaluation.
    #[test]
    fn masked_residual_equals_the_filtered_edge_list(case in churned_scheme()) {
        let (scheme, departed) = case;
        let n = scheme.instance().num_nodes();
        let survivors: Vec<usize> =
            scheme.instance().receivers().filter(|node| !departed.contains(node)).collect();
        let filtered: Vec<(usize, usize, f64)> = scheme
            .edges()
            .into_iter()
            .filter(|(from, to, _)| !departed.contains(from) && !departed.contains(to))
            .collect();
        let expected =
            FlowSolver::new().min_max_flow(&FlowArena::from_edges(n, &filtered), 0, &survivors);
        for threads in [1usize, 2] {
            let mut ctx = EvalCtx::new();
            ctx.set_parallelism(threads);
            let _ = ctx.throughput(&scheme);
            let residual = residual_throughput(&scheme, &departed, &mut ctx);
            prop_assert_eq!(residual.to_bits(), expected.to_bits(),
                "threads {}: masked {} vs filtered {}", threads, residual, expected);
        }
    }

    /// A reused context, whose every evaluation rebuilds its arena in the buffers of the
    /// last one, must equal a fresh context bit for bit: while rates move on a fixed
    /// edge set, after the edge set shrinks (stale arcs left in the buffers) and after it
    /// grows again.
    #[test]
    fn in_place_rewrites_equal_rebuild(case in random_scheme()) {
        let (mut scheme, factors) = case;
        let mut reused = EvalCtx::new();
        let mut same_as_fresh = |scheme: &bmp_core::BroadcastScheme, step: &str| {
            let value = reused.throughput(scheme);
            let fresh = EvalCtx::new().throughput(scheme);
            prop_assert_eq!(value.to_bits(), fresh.to_bits(), "{}: {} vs {}", step, value, fresh);
            Ok(())
        };
        same_as_fresh(&scheme, "nominal")?;
        let n = scheme.instance().num_nodes();
        for round in ["perturbed once", "perturbed twice"] {
            for (from, to, rate) in scheme.edges() {
                let factor = factors[(from * n + to) % factors.len()];
                scheme.set_rate(from, to, rate * factor);
            }
            same_as_fresh(&scheme, round)?;
        }
        // Shrink: drop every other edge.
        let edges = scheme.edges();
        for &(from, to, _) in edges.iter().step_by(2) {
            scheme.set_rate(from, to, 0.0);
        }
        same_as_fresh(&scheme, "shrunk")?;
        // Grow past the original: restore the dropped edges and add every missing one.
        for &(from, to, rate) in edges.iter().step_by(2) {
            scheme.set_rate(from, to, rate);
        }
        for from in 0..n {
            for to in (1..n).filter(|&to| to != from) {
                if scheme.rate(from, to) == 0.0 {
                    scheme.set_rate(from, to, factors[(from * n + to) % factors.len()]);
                }
            }
        }
        same_as_fresh(&scheme, "grown")?;
    }

    /// Fanned-out evaluation (`EvalCtx::set_parallelism`) must equal sequential
    /// evaluation **bit-identically** — values and counters — on random overlays at every
    /// fan-out in {1, 2, 4}. Runs the same probe sequence (nominal evaluation, then two
    /// rounds of perturbations) through one sequential and one fanned-out context per
    /// fan-out.
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
        }
    }
}
