//! The adaptation layer: controllers that re-solve and hot-swap overlays on churn.
//!
//! This module closes the loop between the solver stack of `bmp-core` and the data plane
//! of this crate. A [`Session`] steps the broadcast round by round; [`AdaptiveRun`] (and
//! its one-shot wrapper [`run_adaptive`]) watches the churn schedule and, whenever the
//! departed set changes, asks an [`AdaptationPolicy`] what to do. The policy either
//! keeps the current overlay (the paper's static control plane — [`StaticPolicy`]) or
//! returns a freshly solved overlay for the surviving platform, which the driver
//! hot-swaps into the running session without losing already-delivered chunks.
//!
//! [`AdaptiveRun`] is the only driver of a broadcast: a frozen-overlay validation run is
//! [`run_adaptive`] with [`ChurnSchedule::empty`] under [`StaticPolicy`], and the
//! `simulate` command, the experiments and the fleet all step the same loop.
//!
//! ```text
//!      churn event                  AdaptationPolicy::adapt
//!   ┌──────────────┐   departed   ┌─────────────────────────┐   Some(overlay)
//!   │ ChurnSchedule ├────────────▶│ probe → residual → repair├───────────────┐
//!   └──────┬───────┘              └─────────────────────────┘               ▼
//!          │ set_alive                      ▲                        Session::hot_swap
//!          ▼                                │ EvalCtx (reused                 │
//!   ┌──────────────┐  step() / RoundStats   │ arena, fan-out)                 │
//!   │   Session    │◀───────────────────────┴─────────────────────────────────┘
//!   └──────────────┘   possession, credit and RNG survive the swap
//! ```
//!
//! # The hardened repair pipeline
//!
//! [`RepairController`] is the reference policy. On *every* membership change —
//! departures and rejoins alike, there is no separate restore path — it runs one state
//! machine:
//!
//! ```text
//!  probe: degradation_tolerance(victim)
//!     │            └─ injected timeout ⇒ recorded (probe_timed_out), pipeline continues
//!     ▼
//!  residual of the DEPLOYED overlay over the survivors
//!     │  ≥ floor ────────────────▶ keep the deployed overlay (no swap; degraded clears)
//!     │  < floor
//!     ▼
//!  re-solve the survivors: walk the solver registry() in order
//!     │  attempt fails transiently (injected fault, timeout, failed verification)
//!     │     └─ retry same solver, ≤ RETRIES_PER_SOLVER retries (modelled backoff:
//!     │        each retry consumes one unit of the cycle's attempt budget)
//!     │  solver rejects the instance (unsupported) ⇒ next registry solver
//!     │  REPAIR_ATTEMPT_BUDGET attempts exhausted
//!     │     └─ DEGRADED: keep stepping the last good overlay; its residual is floor-
//!     │        tracked in the controller and surfaced as SessionOutcome::degraded_floor
//!     ▼
//!  hot-swap the repaired overlay (degraded state clears; the solver that produced the
//!  plan — primary or fallback — is recorded in the decision log)
//! ```
//!
//! Step by step:
//!
//! 1. it probes how sensitive the *currently deployed* overlay is to the newest victim
//!    ([`bmp_core::churn::degradation_tolerance`] — one working copy whose rates
//!    move in place, each bisection step rebuilding the context's arena in the buffers
//!    of the last); an injected probe timeout is recorded and survived, the residual
//!    check below stays authoritative,
//! 2. evaluates the residual throughput of the *currently deployed* overlay (the
//!    nominal one before any swap, the latest repaired one after) restricted to the
//!    survivors ([`bmp_core::churn::residual_throughput`]): the deployed scheme's own
//!    evaluation with the departed nodes' edges at capacity 0, on the same context
//!    arena, and it can fan out over scoped flow helpers. A rejoin
//!    is judged exactly like a departure: the returning node is merged into the
//!    *deployed* overlay's survivor set, so an overlay that starves it fails this check
//!    and triggers a fresh re-solve (which, on a full rejoin, reproduces the nominal
//!    overlay) instead of blindly restoring a remembered one,
//! 3. and only when the residual misses the configured floor re-solves the surviving
//!    platform through the fallible, fallback-capable [`bmp_core::churn::repair_with`]
//!    entry point, walking [`bmp_core::solver::registry`] with the retry/backoff budget
//!    shown above; every attempt's overlay is certified by
//!    [`bmp_core::solver::EvalCtx::verify`] before it can be swapped in.
//!
//! The controller owns one long-lived [`EvalCtx`] for all of this, so arenas and flow
//! workspaces stay warm across churn events; its [`RepairController::set_parallelism`]
//! forwards to the context for fanned-out evaluation of large survivor overlays, and
//! [`RepairController::ctx_mut`] is the installation point for a
//! [`crate::faults::FaultPlan`] fault script.
//!
//! # Checkpoint & restore
//!
//! An adaptive run is crash-safe: [`AdaptiveRun::checkpoint`] captures the complete
//! driver state (the [`SessionSnapshot`] including the raw RNG state, the churn
//! schedule and event cursor, the swap/recovery timeline, and — when the run is
//! controller-driven — a [`ControllerSnapshot`] of the repair pipeline) into a
//! serde-backed [`RunCheckpoint`]. [`AdaptiveRun::resume`] validates and rehydrates the
//! run; stepping the resumed run produces a [`SimReport`] bit-identical to the
//! uninterrupted one under the same seed and trace, because every decision input
//! (overlay rates, instance bandwidths, RNG words) round-trips exactly through the
//! vendored JSON layer. Two deliberate non-goals: the controller's `EvalCtx` is rebuilt
//! fresh on resume (its caches are telemetry, never decision inputs), and an installed
//! fault script does *not* survive the checkpoint — fault plans live in the test
//! harness, not in the production snapshot.

use crate::events::{ChurnAction, ChurnSchedule};
use crate::metrics::SimReport;
use crate::overlay::Overlay;
use crate::session::{ensure, CheckpointError, Session, SessionSnapshot, SimConfig};
use bmp_core::churn::{degradation_tolerance, repair_with, residual_throughput, RepairPlan};
use bmp_core::scheme::BroadcastScheme;
use bmp_core::solver::{registry, EvalCtx};
use bmp_core::CoreError;
use bmp_platform::{Instance, NodeId};
use serde::{Deserialize, Serialize};

/// Solve attempts one membership change may consume — across retries *and* fallback
/// solvers — before the controller gives up and degrades.
pub const REPAIR_ATTEMPT_BUDGET: u32 = 8;

/// Transient-failure retries granted to each solver of the fallback chain before the
/// controller walks on to the next registry entry. Backoff is modelled, not slept:
/// simulated time does not advance during a repair, so each retry simply consumes one
/// unit of [`REPAIR_ATTEMPT_BUDGET`].
pub const RETRIES_PER_SOLVER: u32 = 2;

/// What a policy hands back when it wants the running overlay replaced.
#[derive(Debug, Clone)]
pub struct AdaptDecision {
    /// The replacement overlay, in the session's (original) node id space.
    pub overlay: Overlay,
    /// Nominal throughput the replacement was solved for (diagnostics).
    pub repaired_nominal: f64,
}

/// A controller consulted by [`run_adaptive`] whenever the departed set changes.
///
/// The contract: `adapt` receives the complete current set of departed receivers (not a
/// delta) and the simulated time, and returns `Some` replacement overlay — over the
/// *same* node id space as the running session — to trigger a hot-swap, or `None` to
/// keep the current overlay. The driver calls it once per membership change, before the
/// first round at which the change is effective; implementations are free to keep state
/// (solvers, evaluation contexts, decision logs) across calls.
pub trait AdaptationPolicy {
    /// Label used in reports and CSV output.
    fn label(&self) -> &'static str;

    /// Reacts to the current departed set; `Some` means hot-swap the returned overlay.
    fn adapt(&mut self, departed: &[NodeId], time: f64) -> Option<AdaptDecision>;

    /// When the policy is in the graceful-degradation terminal state (it wanted to
    /// repair but exhausted its budget), the floor-tracked residual throughput of the
    /// last good overlay it is keeping alive. `None` for policies that never degrade —
    /// the default.
    fn degraded_floor(&self) -> Option<f64> {
        None
    }
}

/// The paper's baseline: the overlay is computed once and never adapted.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPolicy;

impl AdaptationPolicy for StaticPolicy {
    fn label(&self) -> &'static str {
        "static"
    }

    fn adapt(&mut self, _departed: &[NodeId], _time: f64) -> Option<AdaptDecision> {
        None
    }
}

/// One `adapt` call of a [`RepairController`], for telemetry, CSV output and the
/// controller checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerDecision {
    /// Simulated time of the membership change.
    pub time: f64,
    /// The departed receivers at that time.
    pub departed: Vec<NodeId>,
    /// Degradation tolerance of the newest victim
    /// ([`bmp_core::churn::degradation_tolerance`]), probed on the overlay that was
    /// deployed at decision time (1.0 when the departed set was empty — a pure rejoin —
    /// or when the probe was timed out by an injected fault).
    pub victim_tolerance: f64,
    /// Whether the victim probe was cut short by an injected timeout
    /// ([`bmp_core::CoreError::Timeout`]). The pipeline records and survives it: the
    /// residual check is authoritative.
    pub probe_timed_out: bool,
    /// Residual throughput of the overlay that was *deployed* at decision time (the
    /// nominal one before any swap, the latest repaired one after), restricted to the
    /// survivors.
    pub residual: f64,
    /// Nominal throughput of the replacement overlay, when one was issued.
    pub repaired: Option<f64>,
    /// Solve attempts consumed by this decision's repair cycle (0 when the residual met
    /// the floor and no repair was tried).
    pub attempts: u32,
    /// Registry name of the solver that produced the issued plan (`"acyclic-guarded"`
    /// when the primary succeeded, a fallback's name otherwise).
    pub solver: Option<String>,
    /// Whether this decision left the controller in the graceful-degradation state
    /// (repair wanted, budget exhausted, last good overlay kept).
    pub degraded: bool,
}

/// What one budgeted walk of the fallback chain produced.
struct RepairAttempt {
    plan: Option<RepairPlan>,
    attempts: u32,
    solver: Option<&'static str>,
    exhausted: bool,
}

/// Whether a repair error is worth retrying on the same solver (injected faults, probe
/// timeouts and failed verifications are transient; instance-class rejections are not).
fn is_transient(error: &CoreError) -> bool {
    matches!(
        error,
        CoreError::InjectedFault { .. }
            | CoreError::Timeout { .. }
            | CoreError::VerificationFailed { .. }
    )
}

/// The reference adaptation policy: re-solve of the surviving platform (see
/// the module docs for the probe → residual → re-solve → retry/backoff → fallback chain
/// → degraded floor pipeline).
#[derive(Debug)]
pub struct RepairController {
    instance: Instance,
    nominal: f64,
    floor: f64,
    ctx: EvalCtx,
    decisions: Vec<ControllerDecision>,
    /// The overlay currently carrying the broadcast, as a scheme over the *original*
    /// instance (the nominal scheme until the first swap). Both controller probes judge
    /// this, not the long-replaced nominal overlay — a second departure that cripples a
    /// repaired overlay would otherwise be judged against the wrong graph.
    deployed: BroadcastScheme,
    /// The departed set of the previous `adapt` call, for identifying the nodes that
    /// changed in this one.
    previous_departed: Vec<NodeId>,
    /// Whether the deployed overlay is still the nominal one (no repair has replaced
    /// it, or a rejoin re-solve reproduced its throughput). Diagnostics only.
    nominal_deployed: bool,
    /// Whether the controller is in the graceful-degradation terminal state: a repair
    /// was wanted but the attempt budget ran dry, so the session keeps stepping on the
    /// last good overlay.
    degraded: bool,
    /// Floor-tracked residual throughput of the last good overlay while degraded (the
    /// minimum residual observed across degraded decisions). Cleared on recovery.
    degraded_floor: Option<f64>,
    /// Registry name of the solver to try *first* in the repair fallback chain
    /// (`simulate --repair-algorithm`). `None` keeps the registry order as-is; the
    /// remaining solvers still serve as fallbacks either way.
    preferred_solver: Option<String>,
}

impl RepairController {
    /// Creates a controller for a session broadcasting `scheme` (nominal throughput
    /// `nominal`) over `instance`. The controller repairs as soon as the deployed
    /// overlay's residual throughput drops below `floor_fraction × nominal`.
    ///
    /// # Panics
    ///
    /// Panics if `floor_fraction` fails [`RepairController::check_floor`] or `nominal`
    /// is not positive.
    #[must_use]
    pub fn new(
        instance: Instance,
        scheme: BroadcastScheme,
        nominal: f64,
        floor_fraction: f64,
    ) -> Self {
        if let Err(message) = RepairController::check_floor(floor_fraction) {
            panic!("{message}");
        }
        assert!(nominal > 0.0, "nominal throughput must be positive");
        RepairController {
            floor: floor_fraction * nominal,
            deployed: scheme,
            instance,
            nominal,
            ctx: EvalCtx::new(),
            decisions: Vec::new(),
            previous_departed: Vec::new(),
            nominal_deployed: true,
            degraded: false,
            degraded_floor: None,
            preferred_solver: None,
        }
    }

    /// Checks a repair floor fraction: the controller repairs below `floor_fraction ×`
    /// nominal, so it must lie in `(0, 1]`. Every input of a floor (`simulate --floor`,
    /// a fleet config, this constructor) is held to this one check.
    ///
    /// # Errors
    ///
    /// Returns the rule when `floor_fraction` is outside `(0, 1]` or NaN.
    pub fn check_floor(floor_fraction: f64) -> Result<(), &'static str> {
        if floor_fraction > 0.0 && floor_fraction <= 1.0 {
            Ok(())
        } else {
            Err("the repair floor must lie in (0, 1]")
        }
    }

    /// Moves the named solver to the front of the repair fallback chain (`None`
    /// restores the plain [`registry`] order). The name is not validated here — an
    /// unknown name simply matches nothing and leaves the chain unchanged; the CLI
    /// validates against [`bmp_core::solver::find`] before calling this.
    pub fn set_repair_algorithm(&mut self, name: Option<String>) {
        self.preferred_solver = name;
    }

    /// The currently preferred repair solver, if one was pinned.
    #[must_use]
    pub fn repair_algorithm(&self) -> Option<&str> {
        self.preferred_solver.as_deref()
    }

    /// One budgeted walk of the fallback chain: every [`registry`] solver in order
    /// (with the pinned [`RepairController::set_repair_algorithm`] solver, if any,
    /// moved to the front), up to [`RETRIES_PER_SOLVER`] transient-failure retries
    /// each, at most [`REPAIR_ATTEMPT_BUDGET`] solve attempts in total.
    ///
    /// `residual` is the verified residual throughput of the still-deployed overlay on
    /// the survivors: each solve is warm-started from it as the lower bisection bracket
    /// ([`EvalCtx::set_warm_start_lower`] — advisory and probed, never trusted, so a
    /// cyclic residual above the acyclic optimum only narrows the bracket from above).
    /// The hint is one-shot, so it is re-armed before every attempt, retries included.
    fn attempt_repair(&mut self, departed: &[NodeId], residual: f64) -> RepairAttempt {
        let warm_start = (residual > 0.0).then_some(residual);
        let mut solvers = registry();
        if let Some(name) = self.preferred_solver.as_deref() {
            if let Some(position) = solvers.iter().position(|solver| solver.name() == name) {
                let preferred = solvers.remove(position);
                solvers.insert(0, preferred);
            }
        }
        let mut attempts = 0u32;
        for solver in solvers {
            let mut tries = 0u32;
            loop {
                if attempts >= REPAIR_ATTEMPT_BUDGET {
                    return RepairAttempt {
                        plan: None,
                        attempts,
                        solver: None,
                        exhausted: true,
                    };
                }
                attempts += 1;
                tries += 1;
                self.ctx.set_warm_start_lower(warm_start);
                match repair_with(&self.instance, departed, solver.as_ref(), &mut self.ctx) {
                    Ok(plan) => {
                        return RepairAttempt {
                            plan,
                            attempts,
                            solver: Some(solver.name()),
                            exhausted: false,
                        };
                    }
                    Err(error) if is_transient(&error) && tries <= RETRIES_PER_SOLVER => {
                        // Modelled backoff: the retry consumed one budget unit; walk
                        // the loop again on the same solver.
                    }
                    Err(_) => break, // non-transient, or this solver's retries are spent
                }
            }
        }
        RepairAttempt {
            plan: None,
            attempts,
            solver: None,
            exhausted: true,
        }
    }

    /// Forwards to [`EvalCtx::set_parallelism`]: residual probes of large survivor
    /// overlays fan out over scoped helper threads, at most `min(threads - 1, 8)` per
    /// evaluation (`0` = auto heuristic).
    pub fn set_parallelism(&mut self, threads: usize) {
        self.ctx.set_parallelism(threads);
    }

    /// The controller's evaluation context (telemetry: flow solves and bisection
    /// probes).
    #[must_use]
    pub fn ctx(&self) -> &EvalCtx {
        &self.ctx
    }

    /// Mutable access to the evaluation context — the installation point for a
    /// [`crate::faults::FaultPlan`] fault script
    /// ([`FaultPlan::install`](crate::faults::FaultPlan::install)).
    pub fn ctx_mut(&mut self) -> &mut EvalCtx {
        &mut self.ctx
    }

    /// Every `adapt` call so far, oldest first.
    #[must_use]
    pub fn decisions(&self) -> &[ControllerDecision] {
        &self.decisions
    }

    /// Whether the controller is in the graceful-degradation terminal state (see
    /// [`AdaptationPolicy::degraded_floor`]).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Captures the complete control-plane state into a serializable snapshot. The
    /// evaluation context is deliberately *not* captured: its caches and counters are
    /// telemetry, never decision inputs, so a resumed controller with a fresh context
    /// makes bit-identical decisions. An installed fault script is not captured either
    /// (fault plans belong to the test harness, not the production snapshot).
    #[must_use]
    pub fn checkpoint(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            source_bandwidth: self.instance.source_bandwidth(),
            open_bandwidths: self
                .instance
                .open_indices()
                .map(|i| self.instance.bandwidth(i))
                .collect(),
            guarded_bandwidths: self
                .instance
                .guarded_indices()
                .map(|i| self.instance.bandwidth(i))
                .collect(),
            deployed_edges: self.deployed.edges(),
            nominal: self.nominal,
            floor: self.floor,
            previous_departed: self.previous_departed.clone(),
            nominal_deployed: self.nominal_deployed,
            degraded: self.degraded,
            degraded_floor: self.degraded_floor,
            preferred_solver: self.preferred_solver.clone(),
            decisions: self.decisions.clone(),
        }
    }

    /// Rehydrates a controller from a [`ControllerSnapshot`], validating it first.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the snapshot's bandwidths do not form a valid
    /// platform instance, its floor/nominal are inconsistent, its deployed edges or
    /// departed set reference nodes outside the instance, or its degradation flags
    /// disagree.
    pub fn resume(snapshot: &ControllerSnapshot) -> Result<Self, CheckpointError> {
        ensure!(
            snapshot.nominal.is_finite() && snapshot.nominal > 0.0,
            "controller snapshot: nominal throughput must be finite and positive"
        );
        Self::check_floor(snapshot.floor / snapshot.nominal)
            .map_err(|rule| CheckpointError(format!("controller snapshot: {rule}")))?;
        ensure!(
            snapshot.degraded == snapshot.degraded_floor.is_some(),
            "controller snapshot: degradation flag and floor disagree"
        );
        let instance = Instance::new_presorted(
            snapshot.source_bandwidth,
            snapshot.open_bandwidths.clone(),
            snapshot.guarded_bandwidths.clone(),
        )
        .map_err(|error| {
            CheckpointError(format!(
                "controller snapshot holds an invalid platform instance: {error}"
            ))
        })?;
        let n = instance.num_nodes();
        for &node in &snapshot.previous_departed {
            ensure!(
                node != 0 && node < n,
                "controller snapshot departs node {node} outside the {n}-node instance"
            );
        }
        let mut deployed = BroadcastScheme::new(instance.clone());
        for &(from, to, rate) in &snapshot.deployed_edges {
            ensure!(
                from < n && to < n && from != to,
                "controller snapshot deploys an edge {from} -> {to} outside the {n}-node instance"
            );
            ensure!(
                rate.is_finite() && rate >= 0.0,
                "controller snapshot deploys the edge {from} -> {to} at rate {rate}"
            );
            deployed.set_rate(from, to, rate);
        }
        Ok(RepairController {
            instance,
            nominal: snapshot.nominal,
            floor: snapshot.floor,
            ctx: EvalCtx::new(),
            decisions: snapshot.decisions.clone(),
            deployed,
            previous_departed: snapshot.previous_departed.clone(),
            nominal_deployed: snapshot.nominal_deployed,
            degraded: snapshot.degraded,
            degraded_floor: snapshot.degraded_floor,
            preferred_solver: snapshot.preferred_solver.clone(),
        })
    }
}

impl AdaptationPolicy for RepairController {
    fn label(&self) -> &'static str {
        "repair"
    }

    fn adapt(&mut self, departed: &[NodeId], time: f64) -> Option<AdaptDecision> {
        // 1. Sensitivity probe of the newest victim (the node that departed since the
        //    previous call; an arbitrary departed node when only rejoins happened): a
        //    dichotomic search over one working copy of the deployed overlay. A pure
        //    rejoin has no victim to probe, and an
        //    injected probe timeout is recorded and survived — the residual check
        //    below stays authoritative either way.
        let victim = departed
            .iter()
            .copied()
            .find(|node| !self.previous_departed.contains(node))
            .or_else(|| departed.last().copied());
        self.previous_departed = departed.to_vec();
        let (victim_tolerance, probe_timed_out) = match victim {
            None => (1.0, false),
            Some(victim) => {
                match degradation_tolerance(&self.deployed, victim, self.floor, &mut self.ctx) {
                    Ok(tolerance) => (tolerance, false),
                    Err(_) => (1.0, true),
                }
            }
        };
        // 2. Authoritative check: residual throughput of the overlay the session is
        //    *currently* running, restricted to the survivors. Rejoined nodes are part
        //    of the survivor set, so an overlay that starves a returning node fails
        //    this check and is re-solved — the rejoin merges into the deployed state
        //    instead of blindly restoring a remembered overlay.
        let residual = residual_throughput(&self.deployed, departed, &mut self.ctx);
        let (decision, attempts, solver, degraded_now) = if residual + 1e-12 >= self.floor {
            // The deployed overlay serves everyone present at the floor: no swap, and
            // any earlier degradation is over.
            self.degraded = false;
            self.degraded_floor = None;
            (None, 0, None, false)
        } else {
            // 3. Re-solve the surviving platform through the budgeted fallback chain,
            //    warm-starting each bisection from the verified residual.
            let attempt = self.attempt_repair(departed, residual);
            // A hint armed for a solver that ignores warm-starts must not leak into a
            // later, unrelated solve on this context.
            self.ctx.set_warm_start_lower(None);
            match attempt.plan {
                Some(plan) => {
                    let overlay = Overlay::new(self.instance.num_nodes(), plan.edges.clone());
                    // Rebuild the deployed scheme over the original instance so the
                    // next decision's probes judge what the session is actually
                    // running.
                    let mut deployed = BroadcastScheme::new(self.instance.clone());
                    for &(from, to, rate) in &plan.edges {
                        deployed.set_rate(from, to, rate);
                    }
                    self.deployed = deployed;
                    self.nominal_deployed = false;
                    self.degraded = false;
                    self.degraded_floor = None;
                    (
                        Some(AdaptDecision {
                            overlay,
                            repaired_nominal: plan.throughput,
                        }),
                        attempt.attempts,
                        attempt.solver.map(str::to_string),
                        false,
                    )
                }
                None => {
                    if attempt.exhausted {
                        // Graceful degradation: keep stepping the last good overlay
                        // and floor-track how much it still delivers.
                        self.degraded = true;
                        self.degraded_floor = Some(match self.degraded_floor {
                            Some(floor) => floor.min(residual),
                            None => residual,
                        });
                    }
                    (None, attempt.attempts, None, self.degraded)
                }
            }
        };
        self.decisions.push(ControllerDecision {
            time,
            departed: departed.to_vec(),
            victim_tolerance,
            probe_timed_out,
            residual,
            repaired: decision.as_ref().map(|d| d.repaired_nominal),
            attempts,
            solver,
            degraded: degraded_now,
        });
        decision
    }

    fn degraded_floor(&self) -> Option<f64> {
        self.degraded_floor
    }
}

/// Serializable control-plane state of a [`RepairController`]: the platform's
/// bandwidths (enough to rebuild the [`Instance`] exactly — f64 values round-trip
/// bit-exactly through the vendored JSON layer), the deployed overlay's edges, the
/// floor and degradation bookkeeping, and the full decision log. Produced by
/// [`RepairController::checkpoint`], consumed by [`RepairController::resume`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerSnapshot {
    source_bandwidth: f64,
    open_bandwidths: Vec<f64>,
    guarded_bandwidths: Vec<f64>,
    deployed_edges: Vec<(usize, usize, f64)>,
    nominal: f64,
    floor: f64,
    previous_departed: Vec<usize>,
    nominal_deployed: bool,
    degraded: bool,
    degraded_floor: Option<f64>,
    preferred_solver: Option<String>,
    decisions: Vec<ControllerDecision>,
}

/// One membership change as seen by the driver: whether a swap happened and when the
/// data plane recovered from it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapEvent {
    /// Simulated time at which the membership change took effect.
    pub time: f64,
    /// Whether the policy issued a replacement overlay.
    pub swapped: bool,
    /// Nominal throughput of the replacement, when one was issued.
    pub repaired_nominal: Option<f64>,
    /// First time after the change at which no active receiver starved (every alive,
    /// incomplete receiver gained at least one chunk in the round) — the post-churn
    /// recovery instant. `None` when the run ended still starved. The metric tracks
    /// whether anyone *present* is starving: a later membership change that removes the
    /// starved receivers themselves also counts as recovery, because the broadcast is
    /// healthy again for everyone who remains.
    pub recovered_at: Option<f64>,
}

/// Outcome of one adaptive run: the delivery report plus the swap/recovery timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The per-node delivery report.
    pub report: SimReport,
    /// One entry per membership change, in order.
    pub swaps: Vec<SwapEvent>,
    /// Receivers alive at the end of the run — the session's final churn state, which
    /// can differ from the schedule's final state when the broadcast completes before
    /// later events fire (those events were never simulated and must not skew the
    /// goodput denominator).
    pub survivors: Vec<NodeId>,
    /// Nominal throughput of the initial overlay (the comparison baseline).
    pub nominal: f64,
    /// When the policy ended the run in the graceful-degradation state, the
    /// floor-tracked residual throughput of the last good overlay it kept stepping
    /// ([`AdaptationPolicy::degraded_floor`]); `None` for a healthy run.
    pub degraded_floor: Option<f64>,
}

impl SessionOutcome {
    /// Average delivered data rate per surviving receiver ([`SimReport::delivered_goodput`]).
    #[must_use]
    pub fn goodput(&self) -> f64 {
        self.report.delivered_goodput(&self.survivors)
    }

    /// Delivered goodput as a fraction of the nominal throughput — the headline metric
    /// of the static-vs-repaired comparison.
    #[must_use]
    pub fn goodput_vs_nominal(&self) -> f64 {
        if self.nominal <= 0.0 {
            0.0
        } else {
            self.goodput() / self.nominal
        }
    }

    /// Time from the last hot-swap to its recovery instant (`None` without a swap, or
    /// when the run ended before recovering).
    #[must_use]
    pub fn recovery_time(&self) -> Option<f64> {
        self.swaps
            .iter()
            .rev()
            .find(|s| s.swapped)
            .and_then(|s| s.recovered_at.map(|at| at - s.time))
    }
}

/// A resumable adaptive run: the stepped closed loop of [`run_adaptive`], exposed one
/// round at a time so a caller can checkpoint between rounds
/// ([`AdaptiveRun::checkpoint`]), crash, and [`AdaptiveRun::resume`] later with a
/// bit-identical continuation. The policy is passed to every [`AdaptiveRun::step`]
/// call rather than owned, so one driver type serves both [`StaticPolicy`] and
/// [`RepairController`] runs.
#[derive(Debug)]
pub struct AdaptiveRun {
    session: Session,
    churn: ChurnSchedule,
    next_event: usize,
    swaps: Vec<SwapEvent>,
    awaiting_recovery: Vec<usize>,
    nominal: f64,
    /// Whether the most recent [`AdaptiveRun::step`] reported
    /// [`RoundStats::all_active_progressed`](crate::session::RoundStats). Transient
    /// watchdog input — deliberately *not* part of [`RunCheckpoint`] (it is never read
    /// before the next step, so a resumed run re-derives it identically).
    last_round_progressed: bool,
}

impl AdaptiveRun {
    /// Starts a run: the session broadcasts over `overlay` under `config`, `churn` is
    /// applied as rounds pass, and `nominal` is the initial overlay's solved
    /// throughput (the goodput baseline).
    ///
    /// # Panics
    ///
    /// Panics if a churn event targets a node outside the overlay
    /// ([`ChurnSchedule::check_nodes`]).
    #[must_use]
    pub fn new(overlay: Overlay, config: SimConfig, churn: ChurnSchedule, nominal: f64) -> Self {
        if let Err(message) = churn.check_nodes(overlay.num_nodes()) {
            panic!("{message}");
        }
        AdaptiveRun {
            session: Session::new(overlay, config),
            churn,
            next_event: 0,
            swaps: Vec::new(),
            awaiting_recovery: Vec::new(),
            nominal,
            last_round_progressed: false,
        }
    }

    /// The underlying stepped session.
    #[must_use]
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The swap/recovery timeline so far.
    #[must_use]
    pub fn swaps(&self) -> &[SwapEvent] {
        &self.swaps
    }

    /// Whether the run is over: the broadcast completed or the round budget ran out.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.session.is_complete() || self.session.rounds_run() >= self.session.config().max_rounds
    }

    /// Advances one round: applies due churn events, consults `policy` on a membership
    /// change (hot-swapping its replacement overlay), steps the data plane and updates
    /// the recovery timeline. Returns [`AdaptiveRun::is_finished`] afterwards; stepping
    /// a finished run is a no-op returning `true`.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns an overlay over a different node id space.
    pub fn step(&mut self, policy: &mut dyn AdaptationPolicy) -> bool {
        if self.is_finished() {
            return true;
        }
        let time_start = self.session.time();
        let mut membership_changed = false;
        while self.next_event < self.churn.events().len()
            && self.churn.events()[self.next_event].time <= time_start
        {
            let event = self.churn.events()[self.next_event];
            self.session
                .set_alive(event.node, matches!(event.action, ChurnAction::Rejoin));
            membership_changed = true;
            self.next_event += 1;
        }
        if membership_changed {
            self.consult(policy);
        }
        let stats = self.session.step();
        self.last_round_progressed = stats.all_active_progressed;
        if stats.all_active_progressed && !self.awaiting_recovery.is_empty() {
            for &index in &self.awaiting_recovery {
                self.swaps[index].recovered_at = Some(self.session.time());
            }
            self.awaiting_recovery.clear();
        }
        self.is_finished()
    }

    /// Whether the most recent [`AdaptiveRun::step`] delivered at least one chunk to
    /// every alive, incomplete receiver
    /// ([`RoundStats::all_active_progressed`](crate::session::RoundStats)). `false`
    /// before the first step after construction or resume. This is the no-progress
    /// signal a stuck-session watchdog accumulates.
    #[must_use]
    pub fn last_round_progressed(&self) -> bool {
        self.last_round_progressed
    }

    /// Forces one adaptation decision *outside* the churn path: computes the current
    /// departed set, consults `policy` at the current simulated time, and hot-swaps a
    /// returned replacement exactly as a churn-triggered decision would — the swap is
    /// recorded in the timeline and awaits recovery like any other. Returns whether a
    /// replacement overlay was actually swapped in.
    ///
    /// This is the watchdog's escalation hook: when a session stops progressing
    /// without a membership change (a wedged overlay, for instance), the supervisor
    /// grants one forced repair attempt before quarantining. A no-op on a finished
    /// run.
    pub fn force_repair(&mut self, policy: &mut dyn AdaptationPolicy) -> bool {
        !self.is_finished() && self.consult(policy)
    }

    /// Consults `policy` on the current departed set at the current simulated time,
    /// hot-swaps a returned replacement, and records the decision in the timeline
    /// (awaiting recovery). Returns whether a replacement was swapped in.
    fn consult(&mut self, policy: &mut dyn AdaptationPolicy) -> bool {
        let n = self.session.overlay().num_nodes();
        let time = self.session.time();
        let departed: Vec<NodeId> = (1..n).filter(|&v| !self.session.is_alive(v)).collect();
        let repaired_nominal = policy.adapt(&departed, time).map(|decision| {
            self.session.hot_swap(decision.overlay);
            decision.repaired_nominal
        });
        self.swaps.push(SwapEvent {
            time,
            swapped: repaired_nominal.is_some(),
            repaired_nominal,
            recovered_at: None,
        });
        self.awaiting_recovery.push(self.swaps.len() - 1);
        repaired_nominal.is_some()
    }

    /// Replaces the running overlay directly, bypassing every policy and recording
    /// nothing in the swap timeline. This is a *chaos hook* for supervision tests — it
    /// lets a harness wedge a session (e.g. with an edgeless overlay) without the
    /// control plane noticing, exactly the failure mode the stuck-session watchdog
    /// exists to catch. Production paths never call it.
    ///
    /// # Panics
    ///
    /// Panics if `overlay` spans a different node id space than the running session.
    pub fn replace_overlay(&mut self, overlay: Overlay) {
        assert_eq!(
            overlay.num_nodes(),
            self.session.overlay().num_nodes(),
            "replacement overlay must span the session's node id space"
        );
        self.session.hot_swap(overlay);
    }

    /// Assembles the [`SessionOutcome`] of the run so far (normally called once
    /// [`AdaptiveRun::is_finished`]); `policy` contributes its degradation state.
    #[must_use]
    pub fn outcome(&self, policy: &dyn AdaptationPolicy) -> SessionOutcome {
        let n = self.session.overlay().num_nodes();
        SessionOutcome {
            survivors: (1..n).filter(|&node| self.session.is_alive(node)).collect(),
            report: self.session.report(),
            swaps: self.swaps.clone(),
            nominal: self.nominal,
            degraded_floor: policy.degraded_floor(),
        }
    }

    /// Captures the complete run state — session snapshot (with raw RNG words), churn
    /// schedule and event cursor, swap/recovery timeline, and the controller's
    /// [`ControllerSnapshot`] for a [`RepairController`]-driven run (`None` for a
    /// static run) — into one self-contained, serializable checkpoint.
    #[must_use]
    pub fn checkpoint(&self, controller: Option<&RepairController>) -> RunCheckpoint {
        RunCheckpoint {
            session: self.session.checkpoint(),
            churn: self.churn.clone(),
            next_event: self.next_event,
            swaps: self.swaps.clone(),
            awaiting_recovery: self.awaiting_recovery.clone(),
            nominal: self.nominal,
            controller: controller.map(RepairController::checkpoint),
        }
    }

    /// Rehydrates a run (and its controller, when the checkpoint carries one) from a
    /// [`RunCheckpoint`], validating every layer. Stepping the resumed run under the
    /// same policy replays the uninterrupted run bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the checkpoint is internally inconsistent
    /// (churn events outside the overlay, cursor past the schedule, recovery indices
    /// outside the timeline, session/controller validation failures).
    pub fn resume(
        checkpoint: RunCheckpoint,
    ) -> Result<(Self, Option<RepairController>), CheckpointError> {
        let RunCheckpoint {
            session,
            churn,
            next_event,
            swaps,
            awaiting_recovery,
            nominal,
            controller,
        } = checkpoint;
        let session = Session::resume(session)?;
        ensure!(
            nominal.is_finite() && nominal >= 0.0,
            "checkpoint field `nominal` must be finite and non-negative"
        );
        churn
            .check_nodes(session.overlay().num_nodes())
            .map_err(CheckpointError)?;
        ensure!(
            next_event <= churn.events().len(),
            "checkpoint event cursor {next_event} is past the end of the schedule"
        );
        for &index in &awaiting_recovery {
            ensure!(
                index < swaps.len(),
                "checkpoint recovery index {index} is outside the swap timeline"
            );
        }
        let controller = controller
            .as_ref()
            .map(RepairController::resume)
            .transpose()?;
        Ok((
            AdaptiveRun {
                session,
                churn,
                next_event,
                swaps,
                awaiting_recovery,
                nominal,
                last_round_progressed: false,
            },
            controller,
        ))
    }
}

/// A crash-safe checkpoint of an [`AdaptiveRun`]: everything needed to resume the run
/// — no other flags or files required — serialized through the vendored JSON layer.
/// The invariant (exercised by the crash-recovery CI smoke): resuming from any
/// checkpoint of a run yields a final [`SimReport`] bit-identical to the uninterrupted
/// run under the same seed and trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunCheckpoint {
    session: SessionSnapshot,
    churn: ChurnSchedule,
    next_event: usize,
    swaps: Vec<SwapEvent>,
    awaiting_recovery: Vec<usize>,
    nominal: f64,
    controller: Option<ControllerSnapshot>,
}

impl RunCheckpoint {
    /// Whether the checkpoint carries a [`ControllerSnapshot`] (a repair-driven run)
    /// rather than describing a static run.
    #[must_use]
    pub fn has_controller(&self) -> bool {
        self.controller.is_some()
    }
}

/// Runs a closed-loop session: steps the data plane over `overlay`, applies `churn`, and
/// lets `policy` hot-swap replacement overlays on every membership change. `nominal` is
/// the initial overlay's solved throughput (the goodput baseline).
///
/// Determinism: the session RNG is seeded once from [`SimConfig::seed`]; with a
/// deterministic policy (both [`StaticPolicy`] and [`RepairController`] are), the same
/// seed, schedule and configuration replay to a bit-identical [`SessionOutcome`].
///
/// # Panics
///
/// Panics if a churn event targets a node outside the overlay, or the policy returns an
/// overlay over a different node id space.
#[must_use]
pub fn run_adaptive(
    overlay: Overlay,
    config: SimConfig,
    churn: &ChurnSchedule,
    policy: &mut dyn AdaptationPolicy,
    nominal: f64,
) -> SessionOutcome {
    let mut run = AdaptiveRun::new(overlay, config, churn.clone(), nominal);
    while !run.step(policy) {}
    run.outcome(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ChurnEvent;
    use crate::faults::FaultPlan;
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_platform::paper::figure1;

    fn solved_figure1() -> (Instance, BroadcastScheme, f64, Overlay) {
        let instance = figure1();
        let solution = AcyclicGuardedSolver::default().solve(&instance);
        let overlay = Overlay::from_scheme(&solution.scheme);
        (instance, solution.scheme, solution.throughput, overlay)
    }

    fn config() -> SimConfig {
        SimConfig {
            num_chunks: 200,
            chunk_size: 0.5,
            round_duration: 0.25,
            max_rounds: 4_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn static_policy_never_swaps_and_starves_on_a_relay_departure() {
        let (_, _, nominal, overlay) = solved_figure1();
        // C3 is the load-bearing guarded relay of the Figure 1 solution.
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let mut policy = StaticPolicy;
        let outcome = run_adaptive(overlay, config(), &churn, &mut policy, nominal);
        assert_eq!(outcome.swaps.len(), 1);
        assert!(!outcome.swaps[0].swapped);
        assert!(outcome.goodput_vs_nominal() < 1.0);
        assert_eq!(outcome.survivors, vec![1, 2, 4, 5]);
        assert_eq!(outcome.degraded_floor, None);
    }

    #[test]
    fn repair_controller_swaps_on_a_load_bearing_departure_and_beats_static() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        let repaired = run_adaptive(overlay.clone(), config(), &churn, &mut controller, nominal);
        let static_run = run_adaptive(overlay, config(), &churn, &mut StaticPolicy, nominal);
        assert_eq!(repaired.swaps.len(), 1);
        assert!(
            repaired.swaps[0].swapped,
            "relay departure must trigger repair"
        );
        let repaired_nominal = repaired.swaps[0].repaired_nominal.unwrap();
        assert!(repaired_nominal > 0.0);
        // Same seed, same trace: the repaired session delivers strictly more.
        assert!(
            repaired.goodput() > static_run.goodput(),
            "repaired {} vs static {}",
            repaired.goodput(),
            static_run.goodput()
        );
        assert!(repaired.recovery_time().is_some());
        // The controller's decision pipeline ran: degradation probes (bisection) and
        // residual evaluations through its one long-lived context.
        let decision = &controller.decisions()[0];
        assert_eq!(decision.departed, vec![3]);
        assert!(decision.residual < 0.9 * nominal);
        // The unfaulted primary succeeds on its first attempt.
        assert_eq!(decision.attempts, 1);
        assert_eq!(decision.solver.as_deref(), Some("acyclic-guarded"));
        assert!(!decision.degraded && !decision.probe_timed_out);
        assert!(controller.ctx().flow_solves() > 0);
        assert!(controller.ctx().bisection_iters() > 0);
    }

    #[test]
    fn second_departure_is_judged_against_the_deployed_repaired_overlay() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        // The load-bearing relay C3 departs first (repair #1); later the strongest open
        // node C1 departs too. The second decision must judge the *repaired* overlay —
        // which leans on C1 — not the long-replaced nominal one, and repair again.
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 4.0,
                node: 3,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 12.0,
                node: 1,
                action: ChurnAction::Depart,
            },
        ]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        assert_eq!(controller.decisions().len(), 2);
        let second = &controller.decisions()[1];
        assert_eq!(second.departed, vec![1, 3]);
        assert!(
            second.repaired.is_some(),
            "the second departure cripples the deployed repaired overlay: {second:?}"
        );
        assert!(outcome.swaps.iter().all(|s| s.swapped));
        // Every survivor of both departures still completes on the twice-repaired
        // overlay.
        assert_eq!(outcome.survivors, vec![2, 4, 5]);
        for &node in &outcome.survivors {
            assert!(
                outcome.report.completion_time[node].is_some(),
                "survivor {node} starved"
            );
        }
    }

    #[test]
    fn repair_controller_restores_the_nominal_overlay_on_full_rejoin() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 4.0,
                node: 3,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 12.0,
                node: 3,
                action: ChurnAction::Rejoin,
            },
        ]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        assert_eq!(outcome.swaps.len(), 2);
        // The rejoin decision re-solves the full survivor set, reproducing the nominal
        // throughput — and the residual it judged was the *deployed* (repaired)
        // overlay's, which starves the returning relay.
        let last = controller.decisions().last().unwrap();
        assert!(last.departed.is_empty());
        assert_eq!(last.repaired, Some(nominal));
        assert!(
            last.residual < 0.9 * nominal,
            "the rejoin must be judged against the deployed overlay, not assumed healthy"
        );
        assert!(outcome.report.all_completed());
    }

    #[test]
    fn harmless_departures_do_not_trigger_a_swap() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        // C5 relays almost nothing: the residual stays above a modest floor. Its later
        // rejoin must not trigger a swap either — the nominal overlay never left.
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 5.0,
                node: 5,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 10.0,
                node: 5,
                action: ChurnAction::Rejoin,
            },
        ]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.5);
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        assert_eq!(outcome.swaps.len(), 2);
        assert!(outcome.swaps.iter().all(|s| !s.swapped));
        let departure = &controller.decisions()[0];
        assert!(departure.residual >= 0.5 * nominal);
        assert_eq!(departure.repaired, None);
        assert_eq!(departure.attempts, 0);
        // The rejoin found the nominal overlay serving everyone: no phantom repair.
        let rejoin = &controller.decisions()[1];
        assert!(rejoin.departed.is_empty());
        assert_eq!(rejoin.repaired, None);
        assert!(outcome.report.all_completed());
    }

    #[test]
    fn depart_rejoin_depart_merges_the_returning_relay_into_the_deployed_overlay() {
        // The ROADMAP item-5 hazard: a rejoin must be handled by merging the returning
        // node into the *currently deployed* overlay (probe → residual → re-solve),
        // not by restoring a remembered nominal overlay. The depart→rejoin→depart
        // trace exercises the full cycle: repair, rejoin-triggered re-solve, and a
        // second repair judged against what the rejoin actually deployed.
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 4.0,
                node: 3,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 10.0,
                node: 3,
                action: ChurnAction::Rejoin,
            },
            ChurnEvent {
                time: 16.0,
                node: 3,
                action: ChurnAction::Depart,
            },
        ]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        let decisions = controller.decisions();
        assert_eq!(decisions.len(), 3);
        // Departure #1: repaired.
        assert!(decisions[0].repaired.is_some());
        // Rejoin: judged against the deployed (repaired) overlay, which starves the
        // returning relay — so the controller re-solved and reproduced nominal.
        assert!(decisions[1].departed.is_empty());
        assert!(decisions[1].residual < 0.9 * nominal);
        assert_eq!(decisions[1].repaired, Some(nominal));
        // Departure #2: judged against the overlay the rejoin deployed, repaired
        // again.
        assert_eq!(decisions[2].departed, vec![3]);
        assert!(decisions[2].repaired.is_some());
        assert!(outcome.swaps.iter().all(|s| s.swapped));
        assert_eq!(outcome.survivors, vec![1, 2, 4, 5]);
        for &node in &outcome.survivors {
            assert!(
                outcome.report.completion_time[node].is_some(),
                "survivor {node} starved"
            );
        }
    }

    #[test]
    fn retry_budget_absorbs_transient_solve_faults() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        // Two injected solve failures: the primary's first two attempts die, the third
        // (its last retry) succeeds. No fallback engaged.
        FaultPlan::disabled()
            .with_solve_failures(vec![0, 1])
            .install(controller.ctx_mut());
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        let decision = &controller.decisions()[0];
        assert!(decision.repaired.is_some());
        assert_eq!(decision.attempts, 3);
        assert_eq!(decision.solver.as_deref(), Some("acyclic-guarded"));
        assert!(!decision.degraded);
        assert!(!controller.is_degraded());
        assert_eq!(controller.ctx().injected_faults().unwrap().fired(), 2);
        assert!(outcome.swaps[0].swapped);
        for &node in &outcome.survivors {
            assert!(outcome.report.completion_time[node].is_some());
        }
    }

    #[test]
    fn fallback_chain_engages_when_the_primary_exhausts_its_retries() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        // Three injected solve failures kill every try of the primary; the chain walks
        // on and a fallback solver produces the plan.
        FaultPlan::disabled()
            .with_solve_failures(vec![0, 1, 2])
            .install(controller.ctx_mut());
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        let decision = &controller.decisions()[0];
        assert!(decision.repaired.is_some());
        assert!(decision.attempts > 3);
        let solver = decision.solver.as_deref().unwrap();
        assert_ne!(solver, "acyclic-guarded", "a fallback must have repaired");
        assert!(!decision.degraded);
        assert!(outcome.swaps[0].swapped);
        for &node in &outcome.survivors {
            assert!(outcome.report.completion_time[node].is_some());
        }
    }

    #[test]
    fn probe_timeouts_do_not_stall_the_pipeline() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        FaultPlan::disabled()
            .with_probe_timeouts(vec![0])
            .install(controller.ctx_mut());
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        let decision = &controller.decisions()[0];
        assert!(decision.probe_timed_out);
        assert_eq!(decision.victim_tolerance, 1.0);
        // The residual check stayed authoritative: the repair still happened.
        assert!(decision.repaired.is_some());
        assert!(outcome.swaps[0].swapped);
        assert!(outcome.report.completion_time[1].is_some());
    }

    #[test]
    fn exhausted_repair_budget_degrades_to_the_last_good_overlay() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        // Enough injected solve failures to exhaust the whole attempt budget across
        // the entire fallback chain: the controller must degrade, not panic or stall.
        FaultPlan::disabled()
            .with_solve_failures((0..2 * REPAIR_ATTEMPT_BUDGET as u64).collect())
            .install(controller.ctx_mut());
        let outcome = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        let decision = &controller.decisions()[0];
        assert_eq!(decision.repaired, None);
        assert_eq!(decision.attempts, REPAIR_ATTEMPT_BUDGET);
        assert!(decision.degraded);
        assert!(controller.is_degraded());
        // The session kept stepping on the last good (nominal) overlay: no swap, the
        // floor-tracked residual is surfaced, and delivery continued for the nodes the
        // overlay still reaches.
        assert!(!outcome.swaps[0].swapped);
        let floor = outcome.degraded_floor.expect("degraded floor surfaced");
        assert!((floor - decision.residual).abs() < 1e-12);
        assert!(outcome.goodput() > 0.0);
        assert_eq!(outcome.report.rounds_run, config().max_rounds);
    }

    #[test]
    fn checkpointed_adaptive_run_resumes_bit_identically() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 4.0,
                node: 3,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 12.0,
                node: 3,
                action: ChurnAction::Rejoin,
            },
        ]);
        let mut reference_ctl =
            RepairController::new(instance.clone(), scheme.clone(), nominal, 0.9);
        let mut reference = AdaptiveRun::new(overlay.clone(), config(), churn.clone(), nominal);
        while !reference.step(&mut reference_ctl) {}
        let reference_outcome = reference.outcome(&reference_ctl);

        // Interrupted run: checkpoint after 30 rounds (the first repair has happened,
        // the rejoin has not), serialize through actual JSON text, drop everything,
        // resume and finish.
        let mut front_ctl = RepairController::new(instance, scheme, nominal, 0.9);
        let mut front = AdaptiveRun::new(overlay, config(), churn, nominal);
        for _ in 0..30 {
            front.step(&mut front_ctl);
        }
        assert_eq!(front.swaps().len(), 1, "the repair predates the checkpoint");
        let json = serde_json::to_string(&front.checkpoint(Some(&front_ctl))).unwrap();
        drop(front);
        drop(front_ctl);
        let checkpoint: RunCheckpoint = serde_json::from_str(&json).unwrap();
        assert!(checkpoint.has_controller());
        let (mut resumed, resumed_ctl) = AdaptiveRun::resume(checkpoint).unwrap();
        let mut resumed_ctl = resumed_ctl.expect("controller-driven checkpoint");
        assert_eq!(resumed.session().rounds_run(), 30);
        while !resumed.step(&mut resumed_ctl) {}
        let resumed_outcome = resumed.outcome(&resumed_ctl);

        assert_eq!(resumed_outcome, reference_outcome);
        assert_eq!(resumed_ctl.decisions(), reference_ctl.decisions());
    }

    #[test]
    fn static_checkpoint_roundtrips_without_a_controller() {
        let (_, _, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let mut reference = AdaptiveRun::new(overlay.clone(), config(), churn.clone(), nominal);
        let mut policy = StaticPolicy;
        while !reference.step(&mut policy) {}
        let reference_outcome = reference.outcome(&policy);

        let mut front = AdaptiveRun::new(overlay, config(), churn, nominal);
        for _ in 0..50 {
            front.step(&mut policy);
        }
        let checkpoint = front.checkpoint(None);
        let json = serde_json::to_string(&checkpoint).unwrap();
        let roundtripped: RunCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(roundtripped, checkpoint);
        assert!(!roundtripped.has_controller());
        let (mut resumed, none_ctl) = AdaptiveRun::resume(roundtripped).unwrap();
        assert!(none_ctl.is_none());
        while !resumed.step(&mut policy) {}
        assert_eq!(resumed.outcome(&policy), reference_outcome);
    }

    #[test]
    fn resume_rejects_a_nominal_that_is_not_finite_or_is_negative() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let controller = RepairController::new(instance, scheme, nominal, 0.9);
        let churn = ChurnSchedule::departures_at(5.0, &[3]);
        let checkpoint =
            AdaptiveRun::new(overlay, config(), churn, nominal).checkpoint(Some(&controller));
        let error = |tamper: fn(&mut RunCheckpoint)| {
            let mut tampered = checkpoint.clone();
            tamper(&mut tampered);
            AdaptiveRun::resume(tampered)
                .map(|_| ())
                .unwrap_err()
                .to_string()
        };
        for (message, field) in [
            (error(|c| c.nominal = f64::INFINITY), "`nominal`"),
            (error(|c| c.nominal = f64::NAN), "`nominal`"),
            (error(|c| c.nominal = -1.0), "`nominal`"),
            (
                error(|c| c.controller.as_mut().unwrap().nominal = f64::INFINITY),
                "nominal throughput",
            ),
        ] {
            assert!(message.contains(field), "{field}: {message}");
        }
    }

    #[test]
    fn resume_rejects_a_floor_outside_the_nominal_with_the_floor_rule() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let controller = RepairController::new(instance, scheme, nominal, 0.9);
        let checkpoint = AdaptiveRun::new(overlay, config(), ChurnSchedule::empty(), nominal)
            .checkpoint(Some(&controller));
        for floor in [0.0, -1.0, nominal * 1.5, f64::NAN] {
            let mut tampered = checkpoint.clone();
            tampered.controller.as_mut().unwrap().floor = floor;
            let message = AdaptiveRun::resume(tampered)
                .map(|_| ())
                .unwrap_err()
                .to_string();
            assert!(
                message.contains("the repair floor must lie in (0, 1]"),
                "floor {floor}: {message}"
            );
        }
    }

    #[test]
    fn a_wedged_overlay_stops_progress_and_force_repair_recovers_it() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        let mut run = AdaptiveRun::new(overlay, config(), ChurnSchedule::empty(), nominal);
        assert!(
            !run.last_round_progressed(),
            "no step has run yet — the progress flag must start false"
        );
        // Early rounds can starve distant receivers while the first chunks propagate
        // down the overlay; within a few rounds every active receiver gains chunks
        // and the progress flag turns true.
        let mut progressed = false;
        for _ in 0..20 {
            run.step(&mut controller);
            if run.last_round_progressed() {
                progressed = true;
                break;
            }
        }
        assert!(
            progressed,
            "a healthy session must progress within a few rounds"
        );
        // Wedge the session: an edgeless overlay delivers nothing, and because no
        // membership changed the controller is never consulted.
        let n = run.session().overlay().num_nodes();
        run.replace_overlay(Overlay::new(n, Vec::new()));
        for _ in 0..5 {
            run.step(&mut controller);
            assert!(
                !run.last_round_progressed(),
                "an edgeless overlay cannot deliver"
            );
        }
        assert_eq!(run.swaps().len(), 0, "replace_overlay records no swap");
        // The watchdog escalation: a forced decision sees zero departed nodes, judges
        // the *deployed* (healthy) scheme, finds its residual at the floor and keeps
        // it — but the controller was never told about the wedge, so the forced
        // attempt cannot rescue the session. That terminal shape (forced repair does
        // not swap, progress stays absent) is exactly what Stuck quarantine catches.
        let swapped = run.force_repair(&mut controller);
        assert!(!swapped);
        assert_eq!(
            run.swaps().len(),
            1,
            "the forced decision is on the timeline"
        );
        run.step(&mut controller);
        assert!(!run.last_round_progressed());
    }

    #[test]
    fn force_repair_records_its_decision_and_noops_once_finished() {
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        let churn = ChurnSchedule::departures_at(2.0, &[3]);
        let mut run = AdaptiveRun::new(overlay, config(), churn, nominal);
        for _ in 0..30 {
            run.step(&mut controller);
        }
        let swaps_before = run.swaps().len();
        let decisions_before = controller.decisions().len();
        assert!(swaps_before >= 1, "the departure triggered a decision");
        // A forced decision goes through the same pipeline as a churn-triggered one:
        // it lands on the swap timeline and in the controller's decision log, even
        // when the controller keeps the deployed overlay.
        run.force_repair(&mut controller);
        assert_eq!(run.swaps().len(), swaps_before + 1);
        assert_eq!(controller.decisions().len(), decisions_before + 1);
        // Run to completion; forcing a finished run must change nothing.
        while !run.step(&mut controller) {}
        let swaps_done = run.swaps().len();
        assert!(!run.force_repair(&mut controller));
        assert_eq!(run.swaps().len(), swaps_done);
    }

    #[test]
    fn fault_storm_acceptance_repaired_session_survives_where_static_starves() {
        // The PR's acceptance storm: >= 3 injected solver failures, one injected probe
        // timeout and one armed flow-worker panic, against an early load-bearing
        // departure. The repaired session must complete without panicking and deliver
        // at least half the nominal goodput; the static session delivers under 5%.
        let (instance, scheme, nominal, overlay) = solved_figure1();
        let churn = ChurnSchedule::departures_at(2.0, &[3]);
        let static_run = run_adaptive(
            overlay.clone(),
            config(),
            &churn,
            &mut StaticPolicy,
            nominal,
        );
        // Reference: the same run with every fault except the worker panic.
        let faults = FaultPlan::disabled()
            .with_solve_failures(vec![0, 1, 2])
            .with_probe_timeouts(vec![0]);
        let mut reference = RepairController::new(instance.clone(), scheme.clone(), nominal, 0.9);
        reference.set_parallelism(2);
        faults.install(reference.ctx_mut());
        let expected = run_adaptive(overlay.clone(), config(), &churn, &mut reference, nominal);
        let mut controller = RepairController::new(instance, scheme, nominal, 0.9);
        // Fanned-out evaluation: the first evaluation after installation spawns a
        // helper, which takes the armed token and panics.
        controller.set_parallelism(2);
        let pool = bmp_flow::FlowPool::global();
        let contained_before = pool.panics_contained();
        faults.with_worker_panics(1).install(controller.ctx_mut());
        let repaired = run_adaptive(overlay, config(), &churn, &mut controller, nominal);
        // Every scheduled solver/probe fault actually fired.
        assert_eq!(controller.ctx().injected_faults().unwrap().fired(), 4);
        // No other test of this crate arms the global pool, so the one contained panic
        // is this test's token, whichever evaluation spawned the helper that took it.
        assert_eq!(pool.panics_contained() - contained_before, 1);
        assert_eq!(
            bmp_flow::disarm_worker_panics(),
            0,
            "the landed panic consumed its token"
        );
        // Containment recomputed the poisoned evaluation exactly: the run is
        // bit-identical to the one that never panicked.
        assert_eq!(repaired, expected);
        assert_eq!(controller.decisions(), reference.decisions());
        assert!(!controller.is_degraded());
        assert!(repaired.swaps[0].swapped);
        assert!(
            repaired.goodput_vs_nominal() >= 0.5,
            "repaired goodput {} of nominal",
            repaired.goodput_vs_nominal()
        );
        assert!(
            static_run.goodput_vs_nominal() < 0.05,
            "static goodput {} of nominal",
            static_run.goodput_vs_nominal()
        );
        for &node in &repaired.survivors {
            assert!(repaired.report.completion_time[node].is_some());
        }
    }
}
