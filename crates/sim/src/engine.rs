//! Whole-broadcast tests of the session engine: [`SimConfig`](crate::SimConfig)
//! validation, and what a frozen or churned overlay delivers when the one driver,
//! [`run_adaptive`](crate::run_adaptive), steps it under
//! [`StaticPolicy`](crate::StaticPolicy) from round 0 to completion.

mod tests {
    use crate::adapt::{run_adaptive, AdaptiveRun, StaticPolicy};
    use crate::events::{ChurnAction, ChurnEvent, ChurnSchedule};
    use crate::metrics::SimReport;
    use crate::overlay::Overlay;
    use crate::policy::ChunkPolicy;
    use crate::session::{Session, SimConfig, SourceMode};
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_core::cyclic_open::cyclic_open_optimal_scheme;
    use bmp_platform::paper::{figure1, figure14};
    use bmp_platform::Instance;

    fn line_overlay() -> Overlay {
        Overlay::new(3, vec![(0, 1, 2.0), (1, 2, 2.0)])
    }

    /// A whole broadcast through the one driver: [`run_adaptive`] under
    /// [`StaticPolicy`], with `churn` applied as rounds pass.
    fn broadcast(overlay: Overlay, config: SimConfig, churn: &ChurnSchedule) -> SimReport {
        run_adaptive(overlay, config, churn, &mut StaticPolicy, 0.0).report
    }

    /// A frozen-overlay broadcast: [`broadcast`] without churn.
    fn frozen(overlay: Overlay, config: SimConfig) -> SimReport {
        broadcast(overlay, config, &ChurnSchedule::empty())
    }

    #[test]
    fn line_overlay_delivers_at_nominal_rate() {
        let config = SimConfig {
            num_chunks: 100,
            chunk_size: 0.5,
            round_duration: 0.25,
            ..SimConfig::default()
        };
        let report = frozen(line_overlay(), config);
        assert!(report.all_completed());
        let rate = report.min_achieved_rate().unwrap();
        // Nominal throughput 2; pipelining costs one chunk of delay per hop.
        assert!(rate > 1.8, "achieved rate {rate}");
        assert!(rate <= 2.0 + 1e-9);
    }

    #[test]
    fn simulation_is_reproducible() {
        let config = SimConfig::default();
        let a = frozen(line_overlay(), config);
        let b = frozen(line_overlay(), config);
        assert_eq!(a, b);
    }

    #[test]
    fn figure1_acyclic_overlay_sustains_its_throughput() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let overlay = Overlay::from_scheme(&solution.scheme);
        let config = SimConfig {
            num_chunks: 300,
            chunk_size: 0.5,
            round_duration: 0.25,
            ..SimConfig::default()
        };
        let report = frozen(overlay, config);
        assert!(report.all_completed());
        let rate = report.min_achieved_rate().unwrap();
        assert!(
            rate > 0.85 * solution.throughput,
            "achieved {rate} vs nominal {}",
            solution.throughput
        );
    }

    #[test]
    fn cyclic_overlay_sustains_its_throughput() {
        let (scheme, t) = cyclic_open_optimal_scheme(&figure14()).unwrap();
        let overlay = Overlay::from_scheme(&scheme);
        let config = SimConfig {
            num_chunks: 300,
            chunk_size: 0.5,
            round_duration: 0.2,
            ..SimConfig::default()
        };
        let report = frozen(overlay, config);
        assert!(report.all_completed());
        let rate = report.min_achieved_rate().unwrap();
        // The cyclic overlay has longer relay paths, so the chunk-granularity overhead is
        // larger than in the acyclic case; 80% of the fluid rate is the expected ballpark.
        assert!(rate > 0.8 * t, "achieved {rate} vs nominal {t}");
    }

    #[test]
    fn live_streaming_mode() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let overlay = Overlay::from_scheme(&solution.scheme);
        let config = SimConfig {
            num_chunks: 200,
            chunk_size: 0.5,
            round_duration: 0.25,
            source_mode: SourceMode::Live {
                rate: solution.throughput,
            },
            ..SimConfig::default()
        };
        let report = frozen(overlay, config);
        assert!(report.all_completed());
        // The receivers finish shortly after the source itself finished producing.
        let source_done = report.completion_time[0].unwrap();
        let makespan = report.makespan().unwrap();
        assert!(makespan >= source_done);
        assert!(
            makespan < source_done * 1.3 + 5.0,
            "makespan {makespan} too far behind the live source ({source_done})"
        );
    }

    #[test]
    fn jitter_still_delivers() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let overlay = Overlay::from_scheme(&solution.scheme);
        let config = SimConfig {
            num_chunks: 200,
            chunk_size: 0.5,
            round_duration: 0.25,
            jitter: 0.2,
            ..SimConfig::default()
        };
        let report = frozen(overlay, config);
        assert!(report.all_completed());
        let rate = report.min_achieved_rate().unwrap();
        assert!(rate > 0.7 * solution.throughput, "achieved {rate}");
    }

    #[test]
    fn bottleneck_overlay_is_limited_by_its_weakest_incoming_rate() {
        // Node 2 only receives at rate 0.5: its achieved rate cannot exceed that.
        let overlay = Overlay::new(3, vec![(0, 1, 4.0), (1, 2, 0.5)]);
        let config = SimConfig {
            num_chunks: 100,
            chunk_size: 0.25,
            round_duration: 0.5,
            ..SimConfig::default()
        };
        let report = frozen(overlay, config);
        assert!(report.all_completed());
        let rate_2 = report.achieved_rate(2).unwrap();
        assert!(rate_2 <= 0.5 + 1e-9);
        assert!(rate_2 > 0.4);
    }

    #[test]
    fn unreachable_node_never_completes() {
        let overlay = Overlay::new(3, vec![(0, 1, 1.0)]);
        let config = SimConfig {
            num_chunks: 50,
            max_rounds: 500,
            ..SimConfig::default()
        };
        let report = frozen(overlay, config);
        assert!(!report.all_completed());
        assert_eq!(report.completion_time[2], None);
        assert_eq!(report.chunks_received[2], 0);
        assert_eq!(report.min_achieved_rate(), None);
        assert_eq!(report.worst_progress(), 0.0);
    }

    #[test]
    fn scaled_config_helper() {
        let config = SimConfig::default().scaled_to(4.0, 2.0);
        assert!((config.chunk_size - 0.5).abs() < 1e-12);
        let unchanged = SimConfig::default().scaled_to(0.0, 2.0);
        assert_eq!(unchanged.chunk_size, SimConfig::default().chunk_size);
    }

    #[test]
    fn validate_names_the_field_that_is_not_finite_and_positive() {
        let base = SimConfig::default();
        for (config, field) in [
            (
                SimConfig {
                    chunk_size: f64::INFINITY,
                    ..base
                },
                "chunk size",
            ),
            (
                SimConfig {
                    chunk_size: f64::NAN,
                    ..base
                },
                "chunk size",
            ),
            (
                SimConfig {
                    chunk_size: 0.0,
                    ..base
                },
                "chunk size",
            ),
            (
                SimConfig {
                    round_duration: f64::INFINITY,
                    ..base
                },
                "round duration",
            ),
            (
                SimConfig {
                    round_duration: f64::NAN,
                    ..base
                },
                "round duration",
            ),
            (
                SimConfig {
                    round_duration: -1.0,
                    ..base
                },
                "round duration",
            ),
            (
                SimConfig {
                    jitter: 1.0,
                    ..base
                },
                "jitter",
            ),
        ] {
            let message = config.validate().unwrap_err();
            assert!(message.contains(field), "{field}: {message}");
        }
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn rejects_zero_chunks() {
        let config = SimConfig {
            num_chunks: 0,
            ..SimConfig::default()
        };
        let _ = Session::new(line_overlay(), config);
    }

    #[test]
    fn homogeneous_chain_of_many_nodes() {
        // A longer relay chain built from an open-only instance.
        let inst = Instance::open_only(1.0, vec![1.0; 10]).unwrap();
        let (scheme, t) = bmp_core::acyclic_open::acyclic_open_optimal_scheme(&inst).unwrap();
        let overlay = Overlay::from_scheme(&scheme);
        let config = SimConfig {
            num_chunks: 200,
            chunk_size: 0.25,
            round_duration: 0.25,
            ..SimConfig::default()
        };
        let report = frozen(overlay, config);
        assert!(report.all_completed());
        assert!(report.min_achieved_rate().unwrap() > 0.8 * t);
    }

    #[test]
    fn every_policy_delivers_the_whole_message() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let overlay = Overlay::from_scheme(&solution.scheme);
        for policy in ChunkPolicy::all() {
            let config = SimConfig {
                num_chunks: 200,
                chunk_size: 0.5,
                round_duration: 0.25,
                policy,
                ..SimConfig::default()
            };
            let report = frozen(overlay.clone(), config);
            assert!(report.all_completed(), "policy {} failed", policy.label());
            let rate = report.min_achieved_rate().unwrap();
            assert!(
                rate > 0.75 * solution.throughput,
                "policy {} achieved only {rate}",
                policy.label()
            );
        }
    }

    #[test]
    fn sequential_policy_on_a_chain_delivers_in_order() {
        // On a single path with the sequential policy, a node can never hold chunk k+1 without
        // chunk k, so the slowest prefix equals the number of chunks held.
        let config = SimConfig {
            num_chunks: 60,
            chunk_size: 0.5,
            round_duration: 0.25,
            policy: ChunkPolicy::Sequential,
            ..SimConfig::default()
        };
        let report = frozen(line_overlay(), config);
        assert!(report.all_completed());
    }

    #[test]
    fn departure_of_the_only_relay_starves_downstream_nodes() {
        // 0 -> 1 -> 2: once node 1 departs, node 2 stops receiving.
        let config = SimConfig {
            num_chunks: 100,
            chunk_size: 0.5,
            round_duration: 0.25,
            max_rounds: 400,
            ..SimConfig::default()
        };
        let churn = ChurnSchedule::departures_at(5.0, &[1]);
        let report = broadcast(line_overlay(), config, &churn);
        assert!(!report.all_completed());
        assert!(report.chunks_received[2] < 100);
        // Node 2 only received while node 1 was alive (~5 time units at rate ≤ 2).
        assert!(report.chunks_received[2] as f64 * config.chunk_size <= 2.0 * 5.0 + 1.0);
    }

    #[test]
    fn rejoin_lets_the_broadcast_finish() {
        let config = SimConfig {
            num_chunks: 100,
            chunk_size: 0.5,
            round_duration: 0.25,
            max_rounds: 2_000,
            ..SimConfig::default()
        };
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 5.0,
                node: 1,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 15.0,
                node: 1,
                action: ChurnAction::Rejoin,
            },
        ]);
        let report = broadcast(line_overlay(), config, &churn);
        assert!(report.all_completed());
        // The outage delays completion by roughly its duration.
        assert!(report.makespan().unwrap() > 100.0 * 0.5 / 2.0 + 5.0);
    }

    #[test]
    fn departure_of_a_leaf_does_not_block_the_others() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let overlay = Overlay::from_scheme(&solution.scheme);
        let config = SimConfig {
            num_chunks: 150,
            chunk_size: 0.5,
            round_duration: 0.25,
            max_rounds: 2_000,
            ..SimConfig::default()
        };
        // Node 5 is the weakest guarded node; it departs almost immediately.
        let churn = ChurnSchedule::departures_at(0.5, &[5]);
        let report = broadcast(overlay, config, &churn);
        // The survivors still finish.
        for &node in &churn.surviving_receivers(6) {
            assert!(
                report.completion_time[node].is_some(),
                "node {node} did not finish"
            );
        }
    }

    #[test]
    #[should_panic(expected = "targets node")]
    fn churn_on_unknown_node_is_rejected() {
        let churn = ChurnSchedule::departures_at(1.0, &[9]);
        let _ = AdaptiveRun::new(line_overlay(), SimConfig::default(), churn, 0.0);
    }

    #[test]
    fn with_policy_builder() {
        let config = SimConfig::default().with_policy(ChunkPolicy::RarestFirst);
        assert_eq!(config.policy, ChunkPolicy::RarestFirst);
    }
}
