//! The stepped session engine: data-plane state that survives overlay hot-swaps.
//!
//! A [`Session`] is the data plane of one simulated swarm — word-packed chunk possession
//! ([`crate::bitset::ChunkBitset`]), per-edge credit, per-node completion — exposed
//! round-by-round under a [`SimConfig`]. Every simulation steps it through one driver,
//! [`crate::adapt::AdaptiveRun`] (one-shot: [`crate::adapt::run_adaptive`]): a
//! frozen-overlay run is that driver under [`crate::adapt::StaticPolicy`], and a
//! *controller* in the same loop
//! can observe churn, re-solve the surviving platform, and [`Session::hot_swap`] the
//! freshly computed overlay into the running broadcast without losing a single
//! delivered chunk.
//!
//! Determinism contract: the session owns its RNG, seeded once from
//! [`SimConfig::seed`] at construction and never re-seeded — not even by a hot-swap —
//! so the same seed, churn schedule and controller decisions replay to a bit-identical
//! [`SimReport`]. Hot-swapping an overlay whose edge list is *identical* (same endpoint
//! sequence) keeps the per-edge credit and the shuffled edge order untouched, which makes
//! such a swap a strict no-op for every metric; a swap that changes the edge set carries
//! the credit of surviving `(from, to)` pairs over and starts new edges at zero credit.

use crate::bitset::ChunkBitset;
use crate::metrics::SimReport;
use crate::overlay::Overlay;
use crate::policy::ChunkPolicy;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Credit an edge may lack and still push a chunk, absorbing the rounding of repeated
/// `rate × round_duration` accruals.
const DELIVERY_SLACK: f64 = 1e-12;

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

/// Why a checkpoint could not be resumed: the first invariant a corrupted or hand-edited
/// [`SessionSnapshot`], [`crate::adapt::RunCheckpoint`] or
/// [`crate::adapt::ControllerSnapshot`] violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// Returns a [`CheckpointError`] built from the format arguments unless `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($message:tt)+) => {
        let ok: bool = $ok;
        if !ok {
            return Err($crate::session::CheckpointError(format!($($message)+)));
        }
    };
}
pub(crate) use ensure;

/// What one simulated round delivered (the controller's per-round observability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Number of chunk transfers completed this round.
    pub delivered: usize,
    /// Whether every *active* receiver (alive and incomplete at the start of the round)
    /// gained at least one chunk or completed. `true` when no receiver was active. The
    /// post-churn recovery metric is built on this: a repaired overlay has recovered once
    /// nobody is starved any more.
    pub all_active_progressed: bool,
}

/// Serializable image of a running [`Session`]: every field of the data plane including
/// the raw RNG state, so [`Session::resume`] continues the *exact* random stream. The
/// crash-recovery invariant rests on this: checkpoint, kill the process, resume, and the
/// finished broadcast's [`SimReport`] is bit-identical to the uninterrupted run.
///
/// Produced by [`Session::checkpoint`]; serialize with `serde_json` (all fields are
/// finite numbers, booleans or nested vectors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    num_nodes: usize,
    /// Overlay edges as `(from, to, rate)` triples.
    edges: Vec<(usize, usize, f64)>,
    config: SimConfig,
    /// The four xoshiro256** state words of the session RNG.
    rng_state: Vec<u64>,
    /// Word-packed possession set per node (see [`ChunkBitset::words`]).
    has: Vec<Vec<u64>>,
    count: Vec<usize>,
    completion: Vec<Option<f64>>,
    replication: Vec<usize>,
    alive: Vec<bool>,
    credit: Vec<f64>,
    edge_order: Vec<usize>,
    source_available: usize,
    source_progress: f64,
    rounds_run: usize,
    swaps: usize,
    prev_count: Vec<usize>,
}

/// A running broadcast session: the data plane of one simulated swarm.
#[derive(Debug, Clone)]
pub struct Session {
    overlay: Overlay,
    config: SimConfig,
    rng: StdRng,
    /// Word-packed possession set of every node.
    has: Vec<ChunkBitset>,
    count: Vec<usize>,
    completion: Vec<Option<f64>>,
    replication: Vec<usize>,
    alive: Vec<bool>,
    credit: Vec<f64>,
    edge_order: Vec<usize>,
    source_available: usize,
    source_progress: f64,
    rounds_run: usize,
    swaps: usize,
    /// Chunk counts at the start of the current round (recovery observability).
    prev_count: Vec<usize>,
}

impl Session {
    /// Creates a session over `overlay` with the given configuration. The RNG is seeded
    /// from [`SimConfig::seed`] here and nowhere else.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no chunks, non-positive chunk size or
    /// round duration, jitter outside `[0, 1)`).
    #[must_use]
    pub fn new(overlay: Overlay, config: SimConfig) -> Self {
        if let Err(message) = config.validate() {
            panic!("{message}");
        }
        let n = overlay.num_nodes();
        let num_chunks = config.num_chunks;
        let mut session = Session {
            rng: StdRng::seed_from_u64(config.seed),
            has: vec![ChunkBitset::new(num_chunks); n],
            count: vec![0; n],
            completion: vec![None; n],
            replication: vec![0; num_chunks],
            alive: vec![true; n],
            credit: vec![0.0; overlay.edges().len()],
            edge_order: (0..overlay.edges().len()).collect(),
            source_available: 0,
            source_progress: 0.0,
            rounds_run: 0,
            swaps: 0,
            prev_count: vec![0; n],
            overlay,
            config,
        };
        if session.config.source_mode == SourceMode::File {
            session.has[0].fill();
            session.count[0] = num_chunks;
            session.completion[0] = Some(0.0);
            session.replication.iter_mut().for_each(|r| *r = 1);
            session.source_available = num_chunks;
        }
        session
    }

    /// The overlay currently carrying the broadcast.
    #[must_use]
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The simulation configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of rounds stepped so far.
    #[must_use]
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Simulated time at the end of the last stepped round.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.rounds_run as f64 * self.config.round_duration
    }

    /// Number of overlay hot-swaps performed so far.
    #[must_use]
    pub fn swaps(&self) -> usize {
        self.swaps
    }

    /// Chunks held per node.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.count
    }

    /// Completion time per node (`None` while incomplete). Index 0 is the source.
    #[must_use]
    pub fn completions(&self) -> &[Option<f64>] {
        &self.completion
    }

    /// Whether `node` currently participates (churn flag).
    #[must_use]
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Applies a churn action: a departed node stops sending and receiving, a rejoining
    /// node resumes with the chunks it already held. Takes effect from the next
    /// [`Session::step`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the source (node 0) is asked to depart.
    pub fn set_alive(&mut self, node: usize, alive: bool) {
        assert!(node < self.alive.len(), "node {node} out of range");
        assert!(node != 0 || alive, "the source cannot depart");
        self.alive[node] = alive;
    }

    /// Whether every node that still matters (alive, plus the source) has completed.
    /// Departed nodes cannot make progress and are not waited for.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completion
            .iter()
            .zip(&self.alive)
            .all(|(c, &a)| c.is_some() || !a)
    }

    /// Replaces the overlay carrying the broadcast *without* touching possession state,
    /// completion times or the RNG stream. Credit banked on `(from, to)` pairs present in
    /// both overlays carries over; new edges start at zero credit. A swap to an overlay
    /// with the identical edge-endpoint sequence keeps the credit vector and shuffled
    /// edge order byte-for-byte (so swapping in an identical overlay is a metrics no-op).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ — a hot-swap rewires the same swarm, it does not
    /// resize it (departed nodes stay addressable in case they rejoin) — or if either
    /// overlay contains parallel `(from, to)` edges: credit is banked per node pair, so
    /// duplicates would drop or duplicate banked bandwidth (overlays extracted from a
    /// [`bmp_core::scheme::BroadcastScheme`] are duplicate-free by construction).
    pub fn hot_swap(&mut self, overlay: Overlay) {
        assert_eq!(
            overlay.num_nodes(),
            self.overlay.num_nodes(),
            "hot-swap must preserve the node id space"
        );
        let identical = overlay.edges().len() == self.overlay.edges().len()
            && overlay
                .edges()
                .iter()
                .zip(self.overlay.edges())
                .all(|(new, old)| new.from == old.from && new.to == old.to);
        if !identical {
            let mut banked: HashMap<(usize, usize), f64> =
                HashMap::with_capacity(self.overlay.edges().len());
            for (edge, &credit) in self.overlay.edges().iter().zip(&self.credit) {
                let previous = banked.insert((edge.from, edge.to), credit);
                assert!(
                    previous.is_none(),
                    "hot-swap requires unique (from, to) edges, found a parallel edge \
                     {} -> {} in the running overlay",
                    edge.from,
                    edge.to
                );
            }
            let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(overlay.edges().len());
            self.credit = overlay
                .edges()
                .iter()
                .map(|edge| {
                    assert!(
                        seen.insert((edge.from, edge.to)),
                        "hot-swap requires unique (from, to) edges, found a parallel edge \
                         {} -> {} in the replacement overlay",
                        edge.from,
                        edge.to
                    );
                    banked.get(&(edge.from, edge.to)).copied().unwrap_or(0.0)
                })
                .collect();
            self.edge_order = (0..overlay.edges().len()).collect();
        }
        self.overlay = overlay;
        self.swaps += 1;
    }

    /// Advances the simulation by one round: live-source production, credit accrual and
    /// chunk pushes over every edge (in a freshly shuffled order), completion tracking.
    pub fn step(&mut self) -> RoundStats {
        let cfg = self.config;
        let num_chunks = cfg.num_chunks;
        let time_end = (self.rounds_run + 1) as f64 * cfg.round_duration;
        self.prev_count.copy_from_slice(&self.count);

        // Live source: new chunks become available at the production rate.
        if let SourceMode::Live { rate } = cfg.source_mode {
            self.source_progress += rate * cfg.round_duration;
            let produced = ((self.source_progress / cfg.chunk_size) as usize).min(num_chunks);
            while self.source_available < produced {
                self.has[0].insert(self.source_available);
                self.replication[self.source_available] += 1;
                self.source_available += 1;
                self.count[0] += 1;
            }
            if self.completion[0].is_none() && self.count[0] == num_chunks {
                self.completion[0] = Some(time_end);
            }
        }

        let mut delivered = 0usize;
        self.edge_order.shuffle(&mut self.rng);
        for position in 0..self.edge_order.len() {
            let edge_index = self.edge_order[position];
            let edge = self.overlay.edges()[edge_index];
            if !self.alive[edge.from] || !self.alive[edge.to] {
                // A departed endpoint carries no traffic and banks no credit.
                self.credit[edge_index] = 0.0;
                continue;
            }
            let jitter_factor = if cfg.jitter > 0.0 {
                1.0 + cfg.jitter * (self.rng.gen::<f64>() * 2.0 - 1.0)
            } else {
                1.0
            };
            self.credit[edge_index] += edge.rate * cfg.round_duration * jitter_factor;
            while self.credit[edge_index] + DELIVERY_SLACK >= cfg.chunk_size {
                let Some(chunk) = cfg.policy.pick(
                    &self.has[edge.from],
                    &self.has[edge.to],
                    &self.replication,
                    &mut self.rng,
                ) else {
                    // No useful chunk: the capacity of this round is lost (it cannot be
                    // banked beyond one chunk worth of credit).
                    self.credit[edge_index] = self.credit[edge_index].min(cfg.chunk_size);
                    break;
                };
                self.has[edge.to].insert(chunk);
                self.count[edge.to] += 1;
                self.replication[chunk] += 1;
                self.credit[edge_index] -= cfg.chunk_size;
                delivered += 1;
                if self.count[edge.to] == num_chunks && self.completion[edge.to].is_none() {
                    self.completion[edge.to] = Some(time_end);
                }
            }
        }
        self.rounds_run += 1;

        let all_active_progressed = (1..self.count.len()).all(|node| {
            let was_active = self.alive[node] && self.prev_count[node] < num_chunks;
            !was_active || self.count[node] > self.prev_count[node]
        });
        RoundStats {
            delivered,
            all_active_progressed,
        }
    }

    /// Captures the complete data-plane state (including the raw RNG state) as a
    /// serializable snapshot. [`Session::resume`] rebuilds an indistinguishable session:
    /// stepping the original and the resumed copy produces bit-identical reports.
    #[must_use]
    pub fn checkpoint(&self) -> SessionSnapshot {
        SessionSnapshot {
            num_nodes: self.overlay.num_nodes(),
            edges: self
                .overlay
                .edges()
                .iter()
                .map(|e| (e.from, e.to, e.rate))
                .collect(),
            config: self.config,
            rng_state: self.rng.state().to_vec(),
            has: self.has.iter().map(|set| set.words().to_vec()).collect(),
            count: self.count.clone(),
            completion: self.completion.clone(),
            replication: self.replication.clone(),
            alive: self.alive.clone(),
            credit: self.credit.clone(),
            edge_order: self.edge_order.clone(),
            source_available: self.source_available,
            source_progress: self.source_progress,
            rounds_run: self.rounds_run,
            swaps: self.swaps,
            prev_count: self.prev_count.clone(),
        }
    }

    /// Rebuilds a session from a [`Session::checkpoint`] snapshot. The RNG continues the
    /// exact stream the checkpointed session would have produced.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the snapshot is internally inconsistent
    /// (mismatched vector lengths, a malformed edge order, a degenerate configuration,
    /// or invalid overlay edges) — the shapes a corrupted or hand-edited checkpoint file
    /// produces.
    pub fn resume(snapshot: SessionSnapshot) -> Result<Self, CheckpointError> {
        let SessionSnapshot {
            num_nodes,
            edges,
            config,
            rng_state,
            has,
            count,
            completion,
            replication,
            alive,
            credit,
            edge_order,
            source_available,
            source_progress,
            rounds_run,
            swaps,
            prev_count,
        } = snapshot;
        config
            .validate()
            .map_err(|message| CheckpointError(message.to_string()))?;
        let overlay = Overlay::try_new(num_nodes, edges).map_err(CheckpointError)?;
        let num_edges = overlay.edges().len();
        ensure!(num_nodes > 0, "snapshot has no source node");
        ensure!(rng_state.len() == 4, "snapshot RNG state must hold 4 words");
        for (label, len) in [
            ("has", has.len()),
            ("count", count.len()),
            ("completion", completion.len()),
            ("alive", alive.len()),
            ("prev_count", prev_count.len()),
        ] {
            ensure!(
                len == num_nodes,
                "snapshot field `{label}` does not cover every node"
            );
        }
        ensure!(
            replication.len() == config.num_chunks,
            "snapshot replication does not cover every chunk"
        );
        ensure!(
            credit.len() == num_edges,
            "snapshot credit does not cover every edge"
        );
        // A push may leave a credit up to the delivery slack, plus one rounding, below
        // zero; nothing else drives it negative.
        ensure!(
            credit
                .iter()
                .all(|&credit| credit.is_finite() && credit >= -2.0 * DELIVERY_SLACK),
            "snapshot field `credit` must be finite and non-negative"
        );
        ensure!(
            source_progress.is_finite() && source_progress >= 0.0,
            "snapshot field `source_progress` must be finite and non-negative"
        );
        let mut order_check: Vec<usize> = edge_order.clone();
        order_check.sort_unstable();
        ensure!(
            order_check.into_iter().eq(0..num_edges),
            "snapshot edge order is not a permutation of the edges"
        );
        ensure!(alive[0], "the source cannot be departed");
        let mut sets = Vec::with_capacity(num_nodes);
        for (node, words) in has.into_iter().enumerate() {
            ensure!(
                words.len() == config.num_chunks.div_ceil(64),
                "snapshot possession set of node {node} does not match the chunk count"
            );
            let set = ChunkBitset::from_words(config.num_chunks, words);
            ensure!(
                set.count() == count[node],
                "snapshot chunk count of node {node} disagrees with its possession set"
            );
            sets.push(set);
        }
        Ok(Session {
            rng: StdRng::from_state([rng_state[0], rng_state[1], rng_state[2], rng_state[3]]),
            has: sets,
            count,
            completion,
            replication,
            alive,
            credit,
            edge_order,
            source_available,
            source_progress,
            rounds_run,
            swaps,
            prev_count,
            overlay,
            config,
        })
    }

    /// The per-node delivery report of the session so far.
    #[must_use]
    pub fn report(&self) -> SimReport {
        SimReport {
            num_chunks: self.config.num_chunks,
            chunk_size: self.config.chunk_size,
            round_duration: self.config.round_duration,
            rounds_run: self.rounds_run,
            completion_time: self.completion.clone(),
            chunks_received: self.count.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{run_adaptive, StaticPolicy};
    use crate::events::ChurnSchedule;

    fn line_overlay() -> Overlay {
        Overlay::new(3, vec![(0, 1, 2.0), (1, 2, 2.0)])
    }

    fn config() -> SimConfig {
        SimConfig {
            num_chunks: 80,
            chunk_size: 0.5,
            round_duration: 0.25,
            ..SimConfig::default()
        }
    }

    #[test]
    fn stepping_to_completion_matches_the_one_shot_simulator() {
        let mut session = Session::new(line_overlay(), config());
        for _ in 0..config().max_rounds {
            session.step();
            if session.is_complete() {
                break;
            }
        }
        let stepped = session.report();
        let one_shot = run_adaptive(
            line_overlay(),
            config(),
            &ChurnSchedule::empty(),
            &mut StaticPolicy,
            0.0,
        )
        .report;
        assert_eq!(stepped, one_shot);
        assert_eq!(session.swaps(), 0);
        assert!((session.time() - stepped.rounds_run as f64 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn identical_hot_swap_changes_nothing() {
        let mut swapped = Session::new(line_overlay(), config());
        let mut plain = Session::new(line_overlay(), config());
        for round in 0..200 {
            if round == 40 {
                swapped.hot_swap(line_overlay());
            }
            swapped.step();
            plain.step();
            if swapped.is_complete() && plain.is_complete() {
                break;
            }
        }
        assert_eq!(swapped.report(), plain.report());
        assert_eq!(swapped.swaps(), 1);
    }

    #[test]
    fn hot_swap_keeps_delivered_chunks_and_completion() {
        let mut session = Session::new(line_overlay(), config());
        for _ in 0..30 {
            session.step();
        }
        let counts_before = session.counts().to_vec();
        // Rewire: node 2 now fed straight from the source.
        session.hot_swap(Overlay::new(3, vec![(0, 1, 2.0), (0, 2, 2.0)]));
        assert_eq!(session.counts(), counts_before.as_slice());
        for _ in 0..2_000 {
            session.step();
            if session.is_complete() {
                break;
            }
        }
        assert!(session.report().all_completed());
    }

    #[test]
    fn departed_nodes_receive_nothing_until_rejoin() {
        let mut session = Session::new(line_overlay(), config());
        session.set_alive(1, false);
        for _ in 0..40 {
            session.step();
        }
        assert_eq!(session.counts()[1], 0);
        assert_eq!(session.counts()[2], 0);
        assert!(!session.is_alive(1));
        session.set_alive(1, true);
        for _ in 0..2_000 {
            session.step();
            if session.is_complete() {
                break;
            }
        }
        assert!(session.report().all_completed());
    }

    #[test]
    fn round_stats_report_starvation_and_recovery() {
        let mut session = Session::new(line_overlay(), config());
        session.set_alive(1, false);
        // Node 2 is alive but starved: its only feeder departed.
        let stats = session.step();
        assert!(!stats.all_active_progressed);
        // Rewiring the source straight to node 2 un-starves it within a couple of
        // rounds (credit has to accrue to one chunk first).
        session.hot_swap(Overlay::new(3, vec![(0, 2, 2.0)]));
        let recovered = (0..5).any(|_| session.step().all_active_progressed);
        assert!(recovered);
    }

    #[test]
    fn hot_swap_banks_credit_for_overlapping_edges_only() {
        // Rates below one chunk per round, so credit builds up fractionally.
        let mut session = Session::new(Overlay::new(3, vec![(0, 1, 1.9), (1, 2, 1.7)]), config());
        session.step();
        let credit_01 = session.credit[0];
        let credit_12 = session.credit[1];
        assert!(credit_01 > 0.0 && credit_12 > 0.0);
        // Overlapping swap: (0, 1) survives (reordered, new rate), (1, 2) is dropped,
        // (0, 2) is new.
        session.hot_swap(Overlay::new(3, vec![(0, 2, 1.0), (0, 1, 2.5)]));
        assert_eq!(session.credit, vec![0.0, credit_01]);
        // Swapping back does not resurrect the dropped edge's credit.
        session.hot_swap(Overlay::new(3, vec![(0, 1, 1.9), (1, 2, 1.7)]));
        assert_eq!(session.credit, vec![credit_01, 0.0]);
        let _ = credit_12;
    }

    #[test]
    fn repeated_swaps_between_two_steps_compose() {
        let mut session = Session::new(Overlay::new(3, vec![(0, 1, 1.9), (1, 2, 1.7)]), config());
        session.step();
        let credit_01 = session.credit[0];
        let report_before = session.report();
        // Three swaps back-to-back without stepping: A -> B -> A. The (0, 1) credit
        // survives every hop; the (1, 2) credit dies at the first overlay that lacks
        // the edge and stays dead.
        session.hot_swap(Overlay::new(3, vec![(0, 1, 2.5)]));
        session.hot_swap(Overlay::new(3, vec![(0, 1, 0.1), (0, 2, 3.0)]));
        session.hot_swap(Overlay::new(3, vec![(0, 1, 1.9), (1, 2, 1.7)]));
        assert_eq!(session.swaps(), 3);
        assert_eq!(session.credit, vec![credit_01, 0.0]);
        // Swaps alone never touch possession state or completion.
        assert_eq!(session.report(), report_before);
    }

    #[test]
    fn swap_to_an_empty_overlay_parks_the_broadcast() {
        let mut session = Session::new(line_overlay(), config());
        for _ in 0..10 {
            session.step();
        }
        let counts_before = session.counts().to_vec();
        session.hot_swap(Overlay::new(3, Vec::new()));
        assert!(session.credit.is_empty());
        // Stepping an edgeless overlay delivers nothing but keeps time advancing.
        for _ in 0..5 {
            let stats = session.step();
            assert_eq!(stats.delivered, 0);
            assert!(!stats.all_active_progressed);
        }
        assert_eq!(session.counts(), counts_before.as_slice());
        // Swapping a real overlay back in revives the broadcast (fresh credit).
        session.hot_swap(Overlay::new(3, vec![(0, 1, 2.0), (0, 2, 2.0)]));
        assert_eq!(session.credit, vec![0.0, 0.0]);
        for _ in 0..2_000 {
            session.step();
            if session.is_complete() {
                break;
            }
        }
        assert!(session.report().all_completed());
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        // Jitter keeps the RNG stream hot so the raw-state restore is load-bearing.
        let config = SimConfig {
            jitter: 0.2,
            ..config()
        };
        let overlay = || Overlay::new(3, vec![(0, 1, 2.0), (1, 2, 2.0)]);
        let mut uninterrupted = Session::new(overlay(), config);
        let mut front = Session::new(overlay(), config);
        for _ in 0..37 {
            uninterrupted.step();
            front.step();
        }
        // Serialize through actual JSON text — the exact crash-recovery path.
        let json = serde_json::to_string(&front.checkpoint()).unwrap();
        drop(front);
        let snapshot: SessionSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = Session::resume(snapshot).unwrap();
        assert_eq!(resumed.rounds_run(), 37);
        loop {
            let a = uninterrupted.step();
            let b = resumed.step();
            assert_eq!(a, b);
            assert_eq!(uninterrupted.counts(), resumed.counts());
            if uninterrupted.is_complete() && resumed.is_complete() {
                break;
            }
            assert!(uninterrupted.rounds_run() < 10_000, "no completion");
        }
        assert_eq!(uninterrupted.report(), resumed.report());
    }

    #[test]
    fn checkpoint_survives_a_hot_swap_and_churn() {
        let mut session = Session::new(line_overlay(), config());
        session.set_alive(1, false);
        for _ in 0..10 {
            session.step();
        }
        session.hot_swap(Overlay::new(3, vec![(0, 2, 2.0)]));
        let snapshot = session.checkpoint();
        let mut resumed = Session::resume(snapshot.clone()).unwrap();
        assert_eq!(resumed.checkpoint(), snapshot);
        assert!(!resumed.is_alive(1));
        assert_eq!(resumed.swaps(), 1);
        for _ in 0..2_000 {
            session.step();
            resumed.step();
            if session.is_complete() {
                break;
            }
        }
        assert_eq!(session.report(), resumed.report());
    }

    #[test]
    #[should_panic(expected = "disagrees with its possession set")]
    fn resume_rejects_a_tampered_snapshot() {
        let mut session = Session::new(line_overlay(), config());
        for _ in 0..5 {
            session.step();
        }
        let mut snapshot = session.checkpoint();
        snapshot.count[2] += 1;
        // The typed error names the violated invariant.
        Session::resume(snapshot).unwrap();
    }

    #[test]
    fn resume_rejects_a_live_rate_that_is_not_finite_and_positive() {
        let snapshot = Session::new(line_overlay(), config()).checkpoint();
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut tampered = snapshot.clone();
            tampered.config.source_mode = SourceMode::Live { rate };
            let error = Session::resume(tampered).unwrap_err();
            assert_eq!(error.to_string(), "live rate must be finite and positive");
        }
    }

    #[test]
    fn resume_rejects_numeric_fields_that_are_not_finite_or_are_negative() {
        let snapshot = Session::new(line_overlay(), config()).checkpoint();
        let error = |tamper: fn(&mut SessionSnapshot)| {
            let mut tampered = snapshot.clone();
            tamper(&mut tampered);
            Session::resume(tampered).unwrap_err().to_string()
        };
        for (message, field) in [
            (error(|s| s.config.chunk_size = f64::INFINITY), "chunk size"),
            (error(|s| s.config.chunk_size = f64::NAN), "chunk size"),
            (
                error(|s| s.config.round_duration = f64::INFINITY),
                "round duration",
            ),
            (error(|s| s.credit[0] = f64::INFINITY), "`credit`"),
            (error(|s| s.credit[1] = f64::NAN), "`credit`"),
            (error(|s| s.credit[0] = -1.0), "`credit`"),
            (
                error(|s| s.source_progress = f64::INFINITY),
                "`source_progress`",
            ),
            (error(|s| s.source_progress = f64::NAN), "`source_progress`"),
            (error(|s| s.source_progress = -1.0), "`source_progress`"),
        ] {
            assert!(message.contains(field), "{field}: {message}");
        }
    }

    #[test]
    fn a_credit_a_rounding_below_zero_still_resumes() {
        // Ten accruals of 0.4 × 0.25 sum to 0.9999999999999999: within the delivery
        // slack of the 1.0 chunk, so the push leaves the credit just below zero.
        let config = SimConfig {
            chunk_size: 1.0,
            round_duration: 0.25,
            ..config()
        };
        let mut session = Session::new(Overlay::new(2, vec![(0, 1, 0.4)]), config);
        for _ in 0..10 {
            session.step();
        }
        assert!(session.credit[0] < 0.0, "credit {}", session.credit[0]);
        Session::resume(session.checkpoint()).unwrap();
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn resume_rejects_a_malformed_edge_order() {
        let session = Session::new(line_overlay(), config());
        let mut snapshot = session.checkpoint();
        snapshot.edge_order = vec![0, 0];
        Session::resume(snapshot).unwrap();
    }

    #[test]
    #[should_panic(expected = "parallel edge")]
    fn hot_swap_rejects_parallel_edges() {
        let mut session = Session::new(line_overlay(), config());
        session.hot_swap(Overlay::new(3, vec![(0, 1, 1.0), (0, 1, 2.0)]));
    }

    #[test]
    #[should_panic(expected = "node id space")]
    fn hot_swap_rejects_resizes() {
        let mut session = Session::new(line_overlay(), config());
        session.hot_swap(Overlay::new(4, vec![(0, 1, 1.0)]));
    }

    #[test]
    #[should_panic(expected = "source cannot depart")]
    fn source_departure_is_rejected() {
        let mut session = Session::new(line_overlay(), config());
        session.set_alive(0, false);
    }
}
