//! The fault-injection plane: seeded, replayable failure scripts for whole sessions.
//!
//! `bmp_core::faults` provides the low-level interception sites (solver errors, forced
//! verification failures, probe timeouts) scripted by occurrence index. This module
//! composes those into a session-level [`FaultPlan`]: one seeded object that describes
//! *everything* that goes wrong during a run — which solve attempts fail, which
//! verifications are forced to lie, which degradation probes time out, how many flow
//! helper threads are made to panic, and what churn storm rages while all of that
//! happens. The plan is deterministic: the same seed replays the same storm, which is
//! what lets the hardening tests assert exact retry, fallback and degradation
//! sequences, and lets the crash-recovery smoke reproduce a faulted run bit for bit.
//!
//! Production paths pay nothing: a plan is only consulted when explicitly installed on
//! an [`EvalCtx`] (a single-branch `Option` check per site) and explicitly armed on the
//! global flow pool. Nothing in this module reads process state: `serve --fault-plan`
//! passes its specification to [`FaultPlan::try_parse`].

use crate::events::{ChurnAction, ChurnEvent, ChurnSchedule};
use bmp_core::solver::EvalCtx;
use bmp_core::InjectedFaults;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Default storm seed of the `storm` specification ([`FaultPlan::try_parse`]).
pub const DEFAULT_STORM_SEED: u64 = 0xFA17;

/// A deterministic session-level fault script.
///
/// Occurrence indices count *reaches of the site after installation* (see
/// [`InjectedFaults`]), not wall-clock or simulated time, so the plan replays
/// identically regardless of machine speed or pool parallelism.
///
/// Serializable so a fleet checkpoint can embed the plan it was running under — a
/// resumed fleet rebuilds the exact same fault scripts from it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    solve_failures: Vec<u64>,
    verify_failures: Vec<u64>,
    probe_timeouts: Vec<u64>,
    worker_panics: u64,
    storm_seed: u64,
}

impl FaultPlan {
    /// The empty plan: nothing fails. [`FaultPlan::install`] of a disabled plan leaves
    /// the context's fault hook `None`, so the production fast path is untouched.
    #[must_use]
    pub fn disabled() -> Self {
        FaultPlan {
            solve_failures: Vec::new(),
            verify_failures: Vec::new(),
            probe_timeouts: Vec::new(),
            worker_panics: 0,
            storm_seed: 0,
        }
    }

    /// A seeded fault storm: three solve failures, one forced verification failure and
    /// one probe timeout at seed-chosen early occurrences, plus one flow-worker panic.
    /// Identical seeds produce identical plans.
    ///
    /// The worker panic lands only in an evaluation that fans out to the flow pool, i.e.
    /// the max-flow of a scheme with a cycle at a parallelism above 1. Acyclic overlays
    /// (every repair and residual of a session) are certified by their cut and never
    /// take the token, and `serve` sessions, at their default `flow_threads` of 1, never
    /// consumed it either.
    #[must_use]
    pub fn storm(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut solve_failures = Vec::with_capacity(3);
        while solve_failures.len() < 3 {
            let occurrence = rng.gen_range(0..6) as u64;
            if !solve_failures.contains(&occurrence) {
                solve_failures.push(occurrence);
            }
        }
        solve_failures.sort_unstable();
        FaultPlan {
            solve_failures,
            verify_failures: vec![rng.gen_range(0..4) as u64],
            probe_timeouts: vec![rng.gen_range(0..2) as u64],
            worker_panics: 1,
            storm_seed: seed,
        }
    }

    /// Parses a fault-plan specification: `off`, `0` or the empty string mean no plan;
    /// `storm` means [`FaultPlan::storm`] with [`DEFAULT_STORM_SEED`]; `storm:<seed>` or
    /// a bare unsigned 64-bit integer pick the storm seed.
    ///
    /// # Errors
    ///
    /// Returns a description naming the specification when it is none of these forms
    /// (a missing or non-numeric seed, or one that overflows `u64`).
    pub fn try_parse(spec: &str) -> Result<Option<Self>, String> {
        let spec = spec.trim();
        match spec {
            "" | "off" | "0" => Ok(None),
            "storm" => Ok(Some(FaultPlan::storm(DEFAULT_STORM_SEED))),
            _ => spec
                .strip_prefix("storm:")
                .unwrap_or(spec)
                .parse::<u64>()
                .map(|seed| Some(FaultPlan::storm(seed)))
                .map_err(|_| {
                    format!(
                        "unrecognized fault plan {spec:?} (expected off, storm, storm:SEED or SEED)"
                    )
                }),
        }
    }

    /// [`FaultPlan::try_parse`] for specifications known to be well formed.
    ///
    /// # Panics
    ///
    /// Panics on a malformed specification.
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        FaultPlan::try_parse(spec).unwrap_or_else(|message| panic!("{message}"))
    }

    /// Replaces the scheduled solve failures (builder style).
    #[must_use]
    pub fn with_solve_failures(mut self, occurrences: Vec<u64>) -> Self {
        self.solve_failures = occurrences;
        self
    }

    /// Replaces the scheduled forced verification failures (builder style).
    #[must_use]
    pub fn with_verify_failures(mut self, occurrences: Vec<u64>) -> Self {
        self.verify_failures = occurrences;
        self
    }

    /// Replaces the scheduled probe timeouts (builder style).
    #[must_use]
    pub fn with_probe_timeouts(mut self, occurrences: Vec<u64>) -> Self {
        self.probe_timeouts = occurrences;
        self
    }

    /// Replaces the number of flow-worker panics to arm (builder style).
    #[must_use]
    pub fn with_worker_panics(mut self, panics: u64) -> Self {
        self.worker_panics = panics;
        self
    }

    /// Whether the plan schedules nothing at all.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.solve_failures.is_empty()
            && self.verify_failures.is_empty()
            && self.probe_timeouts.is_empty()
            && self.worker_panics == 0
    }

    /// Scheduled solve-failure occurrences.
    #[must_use]
    pub fn solve_failures(&self) -> &[u64] {
        &self.solve_failures
    }

    /// Scheduled forced-verification-failure occurrences.
    #[must_use]
    pub fn verify_failures(&self) -> &[u64] {
        &self.verify_failures
    }

    /// Scheduled probe-timeout occurrences.
    #[must_use]
    pub fn probe_timeouts(&self) -> &[u64] {
        &self.probe_timeouts
    }

    /// Number of flow-worker panics the plan arms.
    #[must_use]
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics
    }

    /// The occurrence script for the core interception sites, or `None` when no site
    /// is scheduled (so an installed-but-empty plan keeps the fast path).
    #[must_use]
    pub fn injected_faults(&self) -> Option<InjectedFaults> {
        let faults = InjectedFaults::new(
            self.solve_failures.clone(),
            self.verify_failures.clone(),
            self.probe_timeouts.clone(),
        );
        if faults.is_empty() {
            None
        } else {
            Some(faults)
        }
    }

    /// Installs the plan: scripts the context's interception sites and arms the
    /// scheduled flow-worker panics on the process-global pool. Installing a disabled
    /// plan is a no-op that also *clears* any previously installed script on `ctx`.
    pub fn install(&self, ctx: &mut EvalCtx) {
        ctx.set_injected_faults(self.injected_faults());
        if self.worker_panics > 0 {
            bmp_flow::arm_worker_panics(self.worker_panics);
        }
    }

    /// This plan's churn storm: [`churn_storm`] under the plan's storm seed. Merge it
    /// into a run's schedule with [`merge_schedules`].
    ///
    /// # Panics
    ///
    /// Panics where [`churn_storm`] does.
    #[must_use]
    pub fn churn_storm(
        &self,
        num_nodes: usize,
        start: f64,
        spacing: f64,
        waves: usize,
    ) -> ChurnSchedule {
        churn_storm(self.storm_seed, num_nodes, start, spacing, waves)
    }
}

/// A seeded churn storm at named instants: `waves` depart/rejoin pairs over the
/// receivers of an `num_nodes`-node platform, the `i`-th wave departing a
/// `storm_seed`-chosen receiver at `start + i × spacing` and rejoining it two spacings
/// later. Depends on the seed alone, so callers that inject no other fault (the fleet's
/// churn feed) need no [`FaultPlan`].
///
/// # Panics
///
/// Panics if the platform has no receivers (`num_nodes < 2`) or `spacing` is not
/// positive.
#[must_use]
pub fn churn_storm(
    storm_seed: u64,
    num_nodes: usize,
    start: f64,
    spacing: f64,
    waves: usize,
) -> ChurnSchedule {
    assert!(num_nodes >= 2, "a churn storm needs at least one receiver");
    assert!(spacing > 0.0, "storm spacing must be positive");
    let mut rng = StdRng::seed_from_u64(storm_seed ^ 0x570_2217);
    let mut events = Vec::with_capacity(2 * waves);
    for wave in 0..waves {
        let node = rng.gen_range(1..num_nodes);
        let depart_at = start + wave as f64 * spacing;
        events.push(ChurnEvent {
            time: depart_at,
            node,
            action: ChurnAction::Depart,
        });
        events.push(ChurnEvent {
            time: depart_at + 2.0 * spacing,
            node,
            action: ChurnAction::Rejoin,
        });
    }
    ChurnSchedule::new(events)
}

/// Merges two churn schedules into one time-ordered schedule (events at equal times
/// keep `a`-before-`b` order, matching [`ChurnSchedule::new`]'s stable sort).
#[must_use]
pub fn merge_schedules(a: &ChurnSchedule, b: &ChurnSchedule) -> ChurnSchedule {
    let mut events = a.events().to_vec();
    events.extend_from_slice(b.events());
    ChurnSchedule::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_deterministic_and_fully_loaded() {
        let plan = FaultPlan::storm(7);
        assert_eq!(plan, FaultPlan::storm(7));
        assert_eq!(plan.solve_failures().len(), 3);
        assert_eq!(plan.verify_failures().len(), 1);
        assert_eq!(plan.probe_timeouts().len(), 1);
        assert_eq!(plan.worker_panics(), 1);
        assert!(!plan.is_disabled());
        // Distinct, sorted solve occurrences.
        let solves = plan.solve_failures();
        assert!(solves.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parse_covers_the_ci_matrix_forms() {
        assert_eq!(FaultPlan::parse(""), None);
        assert_eq!(FaultPlan::parse("off"), None);
        assert_eq!(FaultPlan::parse("0"), None);
        assert_eq!(
            FaultPlan::parse("storm"),
            Some(FaultPlan::storm(DEFAULT_STORM_SEED))
        );
        assert_eq!(FaultPlan::parse("storm:99"), Some(FaultPlan::storm(99)));
        assert_eq!(FaultPlan::parse("99"), Some(FaultPlan::storm(99)));
    }

    #[test]
    #[should_panic(expected = "unrecognized")]
    fn parse_rejects_garbage() {
        let _ = FaultPlan::parse("storm:not-a-seed");
    }

    #[test]
    fn try_parse_reports_malformed_specs_as_errors() {
        for spec in ["bogus", "storm:abc", "storm:", "18446744073709551616"] {
            let message = FaultPlan::try_parse(spec).unwrap_err();
            assert!(message.contains(&format!("{spec:?}")), "{message}");
        }
        assert_eq!(
            FaultPlan::try_parse(" storm:7 "),
            Ok(Some(FaultPlan::storm(7)))
        );
    }

    #[test]
    fn an_armed_worker_panic_lands_in_a_fanned_out_cyclic_evaluation() {
        // The only test of this crate that arms the global pool, so the contained panic
        // and the consumed token are this test's.
        let instance = bmp_platform::Instance::open_only(10.0, vec![4.0, 4.0, 1.0]).unwrap();
        let (scheme, _) = bmp_core::cyclic_open::cyclic_open_optimal_scheme(&instance).unwrap();
        assert!(
            !scheme.is_acyclic(),
            "only a cyclic scheme reaches the pool"
        );
        let mut sequential = EvalCtx::new();
        sequential.set_parallelism(1);
        let expected = sequential.throughput(&scheme);
        let mut ctx = EvalCtx::new();
        ctx.set_parallelism(2);
        let pool = bmp_flow::FlowPool::global();
        let contained_before = pool.panics_contained();
        FaultPlan::disabled()
            .with_worker_panics(1)
            .install(&mut ctx);
        // Two lanes over three receivers spawn one helper, which takes the token.
        let value = ctx.throughput(&scheme);
        assert_eq!(pool.panics_contained() - contained_before, 1);
        assert_eq!(
            bmp_flow::disarm_worker_panics(),
            0,
            "the landed panic consumed its token"
        );
        // Containment recomputed the poisoned evaluation exactly.
        assert_eq!(value.to_bits(), expected.to_bits());
        assert_eq!(ctx.flow_solves(), 3);
        assert_eq!(ctx.cut_certifications(), 0);
    }

    #[test]
    fn disabled_plan_clears_the_context_hook() {
        let mut ctx = EvalCtx::new();
        FaultPlan::storm(1).with_worker_panics(0).install(&mut ctx);
        assert!(ctx.injected_faults().is_some());
        FaultPlan::disabled().install(&mut ctx);
        assert!(ctx.injected_faults().is_none());
    }

    #[test]
    fn builders_override_the_storm_defaults() {
        let plan = FaultPlan::disabled()
            .with_solve_failures(vec![0, 1, 2])
            .with_verify_failures(vec![1])
            .with_probe_timeouts(vec![0])
            .with_worker_panics(2);
        assert!(!plan.is_disabled());
        let faults = plan.injected_faults().unwrap();
        assert_eq!(faults.pending(), 5);
        assert_eq!(plan.worker_panics(), 2);
    }

    #[test]
    fn churn_storm_is_deterministic_and_valid() {
        let plan = FaultPlan::storm(3);
        let storm = plan.churn_storm(6, 2.0, 1.0, 4);
        assert_eq!(storm, plan.churn_storm(6, 2.0, 1.0, 4));
        // The plan's storm is the seed-only generator's: no fault draw enters it.
        assert_eq!(storm, churn_storm(3, 6, 2.0, 1.0, 4));
        assert_eq!(storm.events().len(), 8);
        for event in storm.events() {
            assert!(event.node >= 1 && event.node < 6);
            assert!(event.time >= 2.0);
        }
        // Every departure has a matching rejoin two spacings later.
        let departs = storm
            .events()
            .iter()
            .filter(|e| e.action == ChurnAction::Depart)
            .count();
        assert_eq!(departs, 4);
    }

    #[test]
    fn merge_schedules_interleaves_by_time() {
        let a = ChurnSchedule::departures_at(5.0, &[1]);
        let b = ChurnSchedule::departures_at(2.0, &[2]);
        let merged = merge_schedules(&a, &b);
        assert_eq!(merged.events().len(), 2);
        assert_eq!(merged.events()[0].node, 2);
        assert_eq!(merged.events()[1].node, 1);
    }
}
