//! Round-based simulation engine implementing push-based chunk streaming.
//!
//! Every overlay edge accumulates "credit" at its allocated rate; whenever a full chunk worth
//! of credit is available and the sender holds a chunk missing at the receiver, one chunk is
//! pushed (which chunk is decided by the configured [`ChunkPolicy`]). The engine supports file
//! broadcast and live streaming sources, bandwidth jitter, scheduled churn events and optional
//! per-round progress tracing.
//!
//! [`Simulator`] is the one-shot frozen-overlay front end: it drives an
//! [`AdaptiveRun`] under [`StaticPolicy`] — the one churn loop of the crate — from round
//! 0 to completion, applying the attached churn schedule as it goes. Closed-loop runs
//! that *react* to churn (re-solve and hot-swap the overlay mid-broadcast) use
//! [`crate::adapt`] with another policy.

use crate::adapt::{AdaptiveRun, StaticPolicy};
use crate::events::ChurnSchedule;
use crate::metrics::SimReport;
use crate::overlay::Overlay;
use crate::policy::ChunkPolicy;
use crate::session::Session;
use crate::trace::{ProgressTrace, TraceSample};
use serde::{Deserialize, Serialize};

/// How the source obtains the data it broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SourceMode {
    /// The source holds the whole message from the start (file broadcast).
    File,
    /// The source produces chunks at the given rate (live streaming): a chunk can only be
    /// forwarded once the source has produced it.
    Live {
        /// Production rate of the stream (data units per time unit).
        rate: f64,
    },
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of chunks composing the message.
    pub num_chunks: usize,
    /// Size of one chunk, in bandwidth × time units.
    pub chunk_size: f64,
    /// Duration of one simulated round.
    pub round_duration: f64,
    /// Maximum number of rounds to simulate.
    pub max_rounds: usize,
    /// Seed of the pseudo-random generator (runs are reproducible).
    pub seed: u64,
    /// Relative bandwidth jitter: each round, each edge rate is multiplied by a value drawn
    /// uniformly from `[1 − jitter, 1 + jitter]`. Zero means deterministic rates.
    pub jitter: f64,
    /// Source behaviour (file broadcast or live stream).
    pub source_mode: SourceMode,
    /// Which useful chunk is pushed over an edge when several are missing at the receiver.
    pub policy: ChunkPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_chunks: 200,
            chunk_size: 1.0,
            round_duration: 0.25,
            max_rounds: 100_000,
            seed: 0x5EED,
            jitter: 0.0,
            source_mode: SourceMode::File,
            policy: ChunkPolicy::RandomUseful,
        }
    }
}

impl SimConfig {
    /// Adjusts `chunk_size` and `round_duration` so that an edge of rate `reference_rate`
    /// transfers roughly `chunks_per_round` chunks per round. Keeps the number of chunks.
    #[must_use]
    pub fn scaled_to(mut self, reference_rate: f64, chunks_per_round: f64) -> Self {
        if reference_rate > 0.0 && chunks_per_round > 0.0 {
            self.chunk_size = reference_rate * self.round_duration / chunks_per_round;
        }
        self
    }

    /// Checks that the configuration is usable: at least one chunk, a finite, positive
    /// chunk size and round duration, jitter in `[0, 1)`, and a finite, positive rate in
    /// live mode.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self) -> Result<(), &'static str> {
        [
            (self.num_chunks > 0, "need at least one chunk"),
            (
                self.chunk_size.is_finite() && self.chunk_size > 0.0,
                "chunk size must be finite and positive",
            ),
            (
                self.round_duration.is_finite() && self.round_duration > 0.0,
                "round duration must be finite and positive",
            ),
            (
                (0.0..1.0).contains(&self.jitter),
                "jitter must lie in [0, 1)",
            ),
            (
                match self.source_mode {
                    SourceMode::File => true,
                    SourceMode::Live { rate } => rate.is_finite() && rate > 0.0,
                },
                "live rate must be finite and positive",
            ),
        ]
        .into_iter()
        .find_map(|(ok, message)| (!ok).then_some(message))
        .map_or(Ok(()), Err)
    }

    /// Returns the configuration with a different chunk-selection policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ChunkPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// The simulation engine.
#[derive(Debug, Clone)]
pub struct Simulator {
    overlay: Overlay,
    config: SimConfig,
    churn: ChurnSchedule,
}

impl Simulator {
    /// Creates a simulator for `overlay` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no chunks, non-positive chunk size or round
    /// duration).
    #[must_use]
    pub fn new(overlay: Overlay, config: SimConfig) -> Self {
        if let Err(message) = config.validate() {
            panic!("{message}");
        }
        Simulator {
            overlay,
            config,
            churn: ChurnSchedule::empty(),
        }
    }

    /// Attaches a churn schedule: departed nodes stop sending and receiving from the event
    /// time onwards, rejoining nodes resume with the chunks they already held.
    ///
    /// # Panics
    ///
    /// Panics if an event targets a node outside the overlay.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        for event in churn.events() {
            assert!(
                event.node < self.overlay.num_nodes(),
                "churn event targets node {} but the overlay has {} nodes",
                event.node,
                self.overlay.num_nodes()
            );
        }
        self.churn = churn;
        self
    }

    /// The overlay being simulated.
    #[must_use]
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Runs the simulation and returns the per-node delivery report.
    #[must_use]
    pub fn run(&self) -> SimReport {
        self.drive(|_| {}).report()
    }

    /// Runs the simulation while sampling a progress trace every `sample_every` rounds
    /// (and once more after the last round when it is not on the sampling grid).
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    #[must_use]
    pub fn run_traced(&self, sample_every: usize) -> (SimReport, ProgressTrace) {
        assert!(sample_every > 0, "sample_every must be positive");
        let mut trace = ProgressTrace::new(
            self.config.num_chunks,
            self.overlay.num_nodes().saturating_sub(1),
        );
        let session = self.drive(|session| {
            if session.rounds_run().is_multiple_of(sample_every) {
                trace.samples.push(sample(session));
            }
        });
        if trace
            .samples
            .last()
            .is_none_or(|s| s.round + 1 != session.rounds_run())
        {
            trace.samples.push(sample(&session));
        }
        (session.report(), trace)
    }

    /// Steps an [`AdaptiveRun`] under [`StaticPolicy`] until the broadcast completes or
    /// the round budget runs out, calling `after_round` after every round, and returns
    /// the final session.
    fn drive(&self, mut after_round: impl FnMut(&Session)) -> Session {
        let mut run = AdaptiveRun::new(self.overlay.clone(), self.config, self.churn.clone(), 0.0);
        if run.session().is_complete() && self.config.max_rounds > 0 {
            // A session complete before round 0 (a source-only overlay) is finished for
            // `AdaptiveRun`, which never steps it; the one-shot simulator has always
            // reported one round for it.
            let mut session = run.session().clone();
            session.step();
            after_round(&session);
            return session;
        }
        while !run.is_finished() {
            run.step(&mut StaticPolicy);
            after_round(run.session());
        }
        run.session().clone()
    }
}

/// Progress sample of `session` after its latest round.
fn sample(session: &Session) -> TraceSample {
    let (count, completion) = (&session.counts()[1..], &session.completions()[1..]);
    TraceSample {
        round: session.rounds_run().saturating_sub(1),
        time: session.time(),
        min_chunks: count
            .iter()
            .copied()
            .min()
            .unwrap_or(session.config().num_chunks),
        mean_chunks: count.iter().sum::<usize>() as f64 / count.len().max(1) as f64,
        completed_receivers: completion.iter().filter(|c| c.is_some()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ChurnAction, ChurnEvent, ChurnSchedule};
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_core::cyclic_open::cyclic_open_optimal_scheme;
    use bmp_platform::paper::{figure1, figure14};
    use bmp_platform::Instance;

    fn line_overlay() -> Overlay {
        Overlay::new(3, vec![(0, 1, 2.0), (1, 2, 2.0)])
    }

    #[test]
    fn line_overlay_delivers_at_nominal_rate() {
        let config = SimConfig {
            num_chunks: 100,
            chunk_size: 0.5,
            round_duration: 0.25,
            ..SimConfig::default()
        };
        let report = Simulator::new(line_overlay(), config).run();
        assert!(report.all_completed());
        let rate = report.min_achieved_rate().unwrap();
        // Nominal throughput 2; pipelining costs one chunk of delay per hop.
        assert!(rate > 1.8, "achieved rate {rate}");
        assert!(rate <= 2.0 + 1e-9);
    }

    #[test]
    fn simulation_is_reproducible() {
        let config = SimConfig::default();
        let a = Simulator::new(line_overlay(), config).run();
        let b = Simulator::new(line_overlay(), config).run();
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
        let report = Simulator::new(overlay, config).run();
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
        let report = Simulator::new(overlay, config).run();
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
        let report = Simulator::new(overlay, config).run();
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
        let report = Simulator::new(overlay, config).run();
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
        let report = Simulator::new(overlay, config).run();
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
        let report = Simulator::new(overlay, config).run();
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
        let _ = Simulator::new(line_overlay(), config);
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
        let report = Simulator::new(overlay, config).run();
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
            let report = Simulator::new(overlay.clone(), config).run();
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
        let report = Simulator::new(line_overlay(), config).run();
        assert!(report.all_completed());
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let config = SimConfig {
            num_chunks: 100,
            chunk_size: 0.5,
            round_duration: 0.25,
            ..SimConfig::default()
        };
        let simulator = Simulator::new(line_overlay(), config);
        let plain = simulator.run();
        let (traced, trace) = simulator.run_traced(4);
        assert_eq!(plain, traced);
        assert!(!trace.is_empty());
        // Progress is monotone without churn.
        assert_eq!(trace.largest_regression(), 0);
        // The trace agrees with the report on the completion time (up to sampling rounding).
        let done = trace.time_to_all_completed().unwrap();
        assert!(done >= traced.makespan().unwrap() - 1e-9);
        assert!(done <= traced.makespan().unwrap() + 4.0 * config.round_duration);
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
        let report = Simulator::new(line_overlay(), config)
            .with_churn(churn)
            .run();
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
        let report = Simulator::new(line_overlay(), config)
            .with_churn(churn)
            .run();
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
        let report = Simulator::new(overlay, config)
            .with_churn(churn.clone())
            .run();
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
        let _ = Simulator::new(line_overlay(), SimConfig::default()).with_churn(churn);
    }

    #[test]
    #[should_panic(expected = "sample_every")]
    fn zero_sampling_interval_is_rejected() {
        let _ = Simulator::new(line_overlay(), SimConfig::default()).run_traced(0);
    }

    #[test]
    fn source_only_overlay_reports_one_round() {
        // The session is complete before round 0; the one-shot simulator still runs (and
        // reports) exactly one round, with and without tracing.
        let config = SimConfig {
            num_chunks: 10,
            ..SimConfig::default()
        };
        let simulator = Simulator::new(Overlay::new(1, Vec::new()), config);
        let report = simulator.run();
        assert_eq!(report.rounds_run, 1);
        assert_eq!(report.completion_time, vec![Some(0.0)]);
        assert_eq!(report.chunks_received, vec![10]);
        let (traced, trace) = simulator.run_traced(4);
        assert_eq!(traced, report);
        assert_eq!(trace.samples.len(), 1);
        assert_eq!(trace.samples[0].round, 0);
        assert!((trace.samples[0].time - config.round_duration).abs() < 1e-12);
    }

    #[test]
    fn with_policy_builder() {
        let config = SimConfig::default().with_policy(ChunkPolicy::RarestFirst);
        assert_eq!(config.policy, ChunkPolicy::RarestFirst);
    }
}
