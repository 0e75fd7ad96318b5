//! The fleet runner: coordinator, crash-isolated shard threads, supervised
//! round-robin session stepping, and fleet-level checkpoint/resume.
//!
//! See the crate docs for the architecture diagram, the determinism contract and the
//! supervision state machine. The short version: everything a session computes is a
//! pure function of `(FleetConfig, session_id, attempt)`, admission and metric
//! assembly happen on the coordinator in session-id order, and shard threads only
//! decide *where* a session is stepped — so [`run_fleet`] returns byte-identical
//! reports across shard counts, even when sessions panic, wedge, retry, or the whole
//! fleet is halted and resumed ([`run_fleet_with`]).
//!
//! Crash isolation: every session build and every session round runs inside
//! `catch_unwind` on its shard. A panicking session is quarantined (and retried from
//! its last per-session checkpoint when the retry budget allows); its shard then
//! restarts the co-resident in-flight sessions from *their* last checkpoints — the
//! restart is bit-exact, so co-residency (a shard-layout artifact) never leaks into
//! any result.

use crate::admission::{AdmissionDecision, AdmissionPolicy, AdmissionVerdict};
use crate::feed::{ChurnConfig, ChurnFeed, MAX_CHURN_WAVES};
use crate::metrics::{FleetMetrics, FleetReport, SessionStats};
use crate::mix_seed;
use crate::supervise::{
    Disposition, FaultProgress, FleetCheckpoint, PendingEntry, QuarantineReason, QuarantineRecord,
    SavedSessionState, SessionFaults, SupervisionConfig,
};
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_flow::WorkerPanicGuard;
use bmp_platform::distribution::UniformBandwidth;
use bmp_platform::generator::GeneratorConfig;
use bmp_platform::{Instance, InstanceGenerator};
use bmp_sim::{AdaptiveRun, FaultPlan, Overlay, RepairController, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Complete description of one fleet run — [`run_fleet`] is a pure function of this.
///
/// Serializable so a [`FleetCheckpoint`] can embed it: a resumed fleet revalidates
/// that it is running under the configuration the checkpoint was taken with (only the
/// shard count — pure scheduling — may differ).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Sessions submitted to admission control.
    pub sessions: usize,
    /// Shard worker threads stepping the admitted sessions. Must be at least 1.
    /// Changes scheduling only, never results.
    pub shards: usize,
    /// Receivers per session platform (generated with open probability 0.7 and
    /// uniform `[10, 100]` bandwidths, like the experiment sweeps).
    pub receivers: usize,
    /// Chunks per session broadcast.
    pub chunks: usize,
    /// The fleet seed; session `i` derives its stream as `mix_seed(seed, i)`.
    pub seed: u64,
    /// Repair floor fraction of nominal, in `(0, 1]`.
    pub floor: f64,
    /// Flow-evaluation fan-out per controller (`1` sequential, `T > 1` up to
    /// `min(T - 1, 8)` helper threads per evaluation through
    /// [`bmp_flow::FlowPool::global`], `0` auto).
    pub flow_threads: usize,
    /// Pins the named solver to the front of every controller's repair chain.
    pub repair_algorithm: Option<String>,
    /// Admission policy (session cap, load capacity, queue vs reject).
    pub admission: AdmissionPolicy,
    /// The shared churn feed parameters.
    pub churn: ChurnConfig,
    /// Optional fault-injection plan installed into every session's controller
    /// (worker panics are armed once per fleet run, process-wide, behind a
    /// [`WorkerPanicGuard`] so no exit path leaks tokens).
    pub fault_plan: Option<FaultPlan>,
    /// Watchdog, retry and checkpoint-cadence parameters.
    pub supervision: SupervisionConfig,
    /// Serve-level chaos: injected session panics and overlay wedges (deterministic,
    /// shard-agnostic; empty in production).
    pub session_faults: SessionFaults,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sessions: 8,
            shards: 1,
            receivers: 4,
            chunks: 60,
            seed: 0x5EED,
            floor: 0.9,
            flow_threads: 1,
            repair_algorithm: None,
            admission: AdmissionPolicy::default(),
            churn: ChurnConfig::default(),
            fault_plan: None,
            supervision: SupervisionConfig::default(),
            session_faults: SessionFaults::default(),
        }
    }
}

impl FleetConfig {
    /// Checks that the configuration can run: at least one session and one shard, at
    /// least two receivers and one chunk per session, a floor in `(0, 1]`, a finite,
    /// non-negative admission capacity, a churn feed with a finite, non-negative start,
    /// a finite, positive spacing and at most [`MAX_CHURN_WAVES`] waves, and a
    /// per-session checkpoint cadence of at least one round. Command-line flags and
    /// resumed checkpoints share this one check.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self) -> Result<(), &'static str> {
        let rule = |ok: bool, message| if ok { Ok(()) } else { Err(message) };
        rule(self.sessions >= 1, "a fleet needs at least one session")?;
        rule(self.shards >= 1, "a fleet needs at least one shard")?;
        rule(
            self.receivers >= 2,
            "a session platform needs at least two receivers",
        )?;
        rule(self.chunks >= 1, "a session needs at least one chunk")?;
        RepairController::check_floor(self.floor)?;
        rule(
            self.admission
                .capacity
                .is_none_or(|capacity| capacity.is_finite() && capacity >= 0.0),
            "the admission capacity must be finite and non-negative",
        )?;
        rule(
            self.churn.start.is_finite() && self.churn.start >= 0.0,
            "the churn start must be finite and non-negative",
        )?;
        rule(
            self.churn.spacing.is_finite() && self.churn.spacing > 0.0,
            "the churn spacing must be finite and positive",
        )?;
        rule(
            self.churn.waves <= MAX_CHURN_WAVES,
            "the churn feed allows at most 1000 waves per session",
        )?;
        rule(
            self.supervision.checkpoint_rounds >= 1,
            "the per-session checkpoint cadence must be at least one round",
        )
    }
}

/// The coordinator's plan of a fleet, a pure function of its config: every session's
/// seed and platform, and the admission log decided over the platforms' loads — all in
/// session-id order.
pub(crate) struct FleetPlan {
    seeds: Vec<u64>,
    instances: Vec<Instance>,
    pub(crate) admissions: Vec<AdmissionDecision>,
}

impl FleetPlan {
    /// Derives the seeds, generates the platforms and decides admission for `config`,
    /// which must pass [`FleetConfig::validate`].
    pub(crate) fn new(config: &FleetConfig) -> Self {
        let generator = InstanceGenerator::new(
            GeneratorConfig::new(config.receivers, 0.7).expect("valid generator config"),
            UniformBandwidth::unif100(),
        );
        let seeds: Vec<u64> = (0..config.sessions)
            .map(|session| mix_seed(config.seed, session as u64))
            .collect();
        let instances: Vec<Instance> = seeds
            .iter()
            .map(|&seed| generator.generate(&mut StdRng::seed_from_u64(seed)))
            .collect();
        let loads: Vec<f64> = instances.iter().map(session_load).collect();
        FleetPlan {
            admissions: config.admission.decide(&loads),
            seeds,
            instances,
        }
    }
}

/// Seed stream tag of the retry backoff (decorrelates it from every other per-session
/// stream derived from the fleet seed).
const RETRY_STREAM: u64 = 0xB0FF;

/// The wave a quarantined-but-retryable session is re-admitted into: at least the
/// next wave, plus a seeded backoff of up to two further waves. Pure in
/// `(config.seed, session, attempt, wave)` — shard layout never enters.
fn retry_wave(config: &FleetConfig, session: usize, attempt: u32, wave: usize) -> usize {
    let backoff = mix_seed(
        config.seed ^ RETRY_STREAM,
        ((session as u64) << 8) | u64::from(attempt),
    ) % 3;
    wave + 1 + backoff as usize
}

/// Aggregate platform load a session occupies while admitted: its source bandwidth
/// plus every receiver's.
fn session_load(instance: &Instance) -> f64 {
    instance.source_bandwidth()
        + instance
            .receivers()
            .map(|node| instance.bandwidth(node))
            .sum::<f64>()
}

/// Deterministic panic-site tag from a caught payload: the panic message when it was
/// a string (every panic this workspace raises is), a fixed fallback otherwise.
fn panic_tag(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&'static str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// An admitted (or re-admitted) session scheduled onto a shard for one wave.
struct SessionTask {
    session: usize,
    seed: u64,
    attempt: u32,
    instance: Instance,
    state: Option<SavedSessionState>,
}

/// A session in flight on its shard, with its supervision bookkeeping.
struct LiveSession {
    session: usize,
    seed: u64,
    attempt: u32,
    instance: Instance,
    run: AdaptiveRun,
    controller: RepairController,
    /// Consecutive non-progressing rounds (watchdog input).
    stall: usize,
    /// Whether the watchdog's one forced repair attempt is already spent.
    forced: bool,
    /// The last per-session checkpoint — what a crash-isolated restart or a
    /// transient retry resumes from.
    saved: SavedSessionState,
}

/// Captures a [`SavedSessionState`] of the session as it stands right now.
fn snapshot(
    run: &AdaptiveRun,
    controller: &RepairController,
    stall: usize,
    forced: bool,
) -> SavedSessionState {
    SavedSessionState {
        run: run.checkpoint(Some(controller)),
        rounds: run.session().rounds_run(),
        fault_progress: controller
            .ctx()
            .injected_faults()
            .map(FaultProgress::capture),
        stall,
        forced,
    }
}

/// Builds (or resumes) one session. Pure in `(config, task)`: the same task produces
/// the same live state no matter which thread builds it. May panic (a solver defect,
/// or an injected fault reaching an unhardened path) — the shard catches it.
fn build_live(config: &FleetConfig, task: &SessionTask, feed: &ChurnFeed) -> LiveSession {
    let (run, mut controller, stall, forced, saved) = match &task.state {
        None => {
            let solution = AcyclicGuardedSolver::default().solve(&task.instance);
            let overlay = Overlay::from_scheme(&solution.scheme);
            let sim = SimConfig {
                num_chunks: config.chunks,
                seed: task.seed,
                ..SimConfig::default()
            }
            .scaled_to(solution.throughput, 2.0);
            let churn = feed.schedule(task.session, task.instance.num_nodes());
            let mut controller = RepairController::new(
                task.instance.clone(),
                solution.scheme,
                solution.throughput,
                config.floor,
            );
            controller.set_repair_algorithm(config.repair_algorithm.clone());
            if let Some(plan) = &config.fault_plan {
                // Per-controller fault script only: worker panics are process-global
                // and are armed once by the coordinator, not once per session.
                controller
                    .ctx_mut()
                    .set_injected_faults(plan.injected_faults());
            }
            let run = AdaptiveRun::new(overlay, sim, churn, solution.throughput);
            let saved = snapshot(&run, &controller, 0, false);
            (run, controller, 0, false, saved)
        }
        Some(saved) => {
            let (run, controller) = AdaptiveRun::resume(saved.run.clone())
                .expect("saved session states are validated before they are resumed");
            let mut controller = controller.expect("fleet sessions are controller-driven");
            if let Some(plan) = &config.fault_plan {
                if let Some(mut script) = plan.injected_faults() {
                    // Rebuild the fault script from the plan and fast-forward its
                    // cursor, so the remaining scheduled faults replay exactly as
                    // they would have without the restart.
                    if let Some(progress) = &saved.fault_progress {
                        progress.restore(&mut script);
                    }
                    controller.ctx_mut().set_injected_faults(Some(script));
                }
            }
            (run, controller, saved.stall, saved.forced, saved.clone())
        }
    };
    controller.set_parallelism(config.flow_threads);
    LiveSession {
        session: task.session,
        seed: task.seed,
        attempt: task.attempt,
        instance: task.instance.clone(),
        run,
        controller,
        stall,
        forced,
        saved,
    }
}

/// What one supervised round of one session produced.
enum StepVerdict {
    /// Still going.
    Running,
    /// Completed; here is its report row.
    Done(SessionStats),
    /// Reached the halt point; park this state into the fleet checkpoint. (Boxed:
    /// a saved state is an order of magnitude larger than the other verdicts.)
    Parked(Box<SavedSessionState>),
    /// Deterministically wedged or over budget: permanently quarantined at the given
    /// session-local round.
    Quarantined(QuarantineReason, usize),
}

/// Steps one session one supervised round: halt check, injected chaos, the data-plane
/// round itself, the no-progress watchdog, the round budget, and the checkpoint
/// cadence. May panic (injected session panics fire here) — the shard catches it.
fn step_once(
    config: &FleetConfig,
    live: &mut LiveSession,
    halt_after: Option<usize>,
    budget: usize,
    deadline: usize,
) -> StepVerdict {
    let rounds = live.run.session().rounds_run();
    if let Some(halt) = halt_after {
        if rounds >= halt {
            return StepVerdict::Parked(Box::new(snapshot(
                &live.run,
                &live.controller,
                live.stall,
                live.forced,
            )));
        }
    }
    for spec in &config.session_faults.panics {
        if spec.session == live.session
            && spec.round == rounds
            && (!spec.transient || live.attempt == 0)
        {
            panic!(
                "injected session panic (session {}, round {rounds})",
                live.session
            );
        }
    }
    for wedge in &config.session_faults.wedges {
        if wedge.session == live.session && wedge.round == rounds {
            let nodes = live.run.session().overlay().num_nodes();
            live.run.replace_overlay(Overlay::new(nodes, Vec::new()));
        }
    }
    if live.run.step(&mut live.controller) {
        let outcome = live.run.outcome(&live.controller);
        return StepVerdict::Done(SessionStats::from_outcome(
            live.session,
            live.seed,
            &outcome,
            live.controller.decisions(),
        ));
    }
    if live.run.last_round_progressed() {
        live.stall = 0;
        live.forced = false;
    } else {
        live.stall += 1;
        if live.stall >= deadline {
            if live.forced {
                // The forced repair bought nothing: a second full deadline passed
                // without progress. Give up deterministically.
                return StepVerdict::Quarantined(
                    QuarantineReason::Stuck {
                        rounds_without_progress: live.stall,
                    },
                    live.run.session().rounds_run(),
                );
            }
            live.forced = true;
            live.stall = 0;
            live.run.force_repair(&mut live.controller);
        }
    }
    let rounds_now = live.run.session().rounds_run();
    if rounds_now >= budget {
        return StepVerdict::Quarantined(
            QuarantineReason::Budget { rounds: rounds_now },
            rounds_now,
        );
    }
    if rounds_now.is_multiple_of(config.supervision.checkpoint_rounds) {
        live.saved = snapshot(&live.run, &live.controller, live.stall, live.forced);
    }
    StepVerdict::Running
}

/// The identity and last saved state of a session whose step (or build) panicked —
/// everything [`ShardOutcome::quarantine_panic`] needs besides the panic payload.
struct PanickedSession {
    session: usize,
    attempt: u32,
    round: usize,
    state: Option<SavedSessionState>,
}

/// What one shard hands back to the coordinator after its wave.
struct ShardOutcome {
    rows: Vec<SessionStats>,
    quarantined: Vec<QuarantineRecord>,
    retries: Vec<PendingEntry>,
    parked: Vec<PendingEntry>,
}

impl ShardOutcome {
    /// Records a panic quarantine and, when the retry budget allows, schedules the
    /// re-admission (resuming from `state`) into a seeded later wave.
    fn quarantine_panic(
        &mut self,
        config: &FleetConfig,
        wave: usize,
        victim: PanickedSession,
        payload: &(dyn std::any::Any + Send),
    ) {
        let disposition = if victim.attempt < config.supervision.max_retries {
            let retry = retry_wave(config, victim.session, victim.attempt, wave);
            self.retries.push(PendingEntry {
                session: victim.session,
                wave: retry,
                attempt: victim.attempt + 1,
                state: victim.state,
            });
            Disposition::Retried { wave: retry }
        } else {
            Disposition::Permanent
        };
        self.quarantined.push(QuarantineRecord {
            session: victim.session,
            wave,
            attempt: victim.attempt,
            round: victim.round,
            reason: QuarantineReason::Panic {
                tag: panic_tag(payload),
            },
            disposition,
        });
    }
}

/// Runs one shard's share of one wave: builds every assigned session (inside
/// `catch_unwind`), then steps them round-robin, one supervised round per session per
/// pass (each inside `catch_unwind`). A panicking session is quarantined and its
/// co-resident survivors are restarted from their last checkpoints — bit-exact, so
/// shard layout never shows in any result.
fn run_shard(
    config: &FleetConfig,
    wave: usize,
    tasks: Vec<SessionTask>,
    feed: &ChurnFeed,
    halt_after: Option<usize>,
) -> ShardOutcome {
    let budget = config.supervision.round_budget(config.chunks);
    let deadline = config.supervision.no_progress_deadline(config.chunks);
    let mut out = ShardOutcome {
        rows: Vec::new(),
        quarantined: Vec::new(),
        retries: Vec::new(),
        parked: Vec::new(),
    };
    let mut live: Vec<Option<LiveSession>> = Vec::with_capacity(tasks.len());
    for task in tasks {
        match catch_unwind(AssertUnwindSafe(|| build_live(config, &task, feed))) {
            Ok(session) => live.push(Some(session)),
            Err(payload) => {
                let round = task.state.as_ref().map_or(0, |state| state.rounds);
                out.quarantine_panic(
                    config,
                    wave,
                    PanickedSession {
                        session: task.session,
                        attempt: task.attempt,
                        round,
                        state: task.state,
                    },
                    payload.as_ref(),
                );
                live.push(None);
            }
        }
    }
    loop {
        let mut any_running = false;
        for index in 0..live.len() {
            let Some(session) = live[index].as_mut() else {
                continue;
            };
            any_running = true;
            let verdict = catch_unwind(AssertUnwindSafe(|| {
                step_once(config, session, halt_after, budget, deadline)
            }));
            match verdict {
                Ok(StepVerdict::Running) => {}
                Ok(StepVerdict::Done(row)) => {
                    out.rows.push(row);
                    live[index] = None;
                }
                Ok(StepVerdict::Parked(state)) => {
                    let parked = live[index].take().expect("session was live");
                    out.parked.push(PendingEntry {
                        session: parked.session,
                        wave,
                        attempt: parked.attempt,
                        state: Some(*state),
                    });
                }
                Ok(StepVerdict::Quarantined(reason, round)) => {
                    let wedged = live[index].take().expect("session was live");
                    out.quarantined.push(QuarantineRecord {
                        session: wedged.session,
                        wave,
                        attempt: wedged.attempt,
                        round,
                        reason,
                        disposition: Disposition::Permanent,
                    });
                }
                Err(payload) => {
                    // Crash isolation. The poisoned session is quarantined (and
                    // retried from its last checkpoint when the budget allows)...
                    let poisoned = live[index].take().expect("session was live");
                    out.quarantine_panic(
                        config,
                        wave,
                        PanickedSession {
                            session: poisoned.session,
                            attempt: poisoned.attempt,
                            round: poisoned.run.session().rounds_run(),
                            state: Some(poisoned.saved),
                        },
                        payload.as_ref(),
                    );
                    // ...and every co-resident in-flight session is restarted from
                    // its own last checkpoint instead of the shard dying. The resume
                    // is bit-exact (PR 6) and replays any injected chaos at the same
                    // session-local rounds, so which sessions shared the shard never
                    // affects their rows. The resume path itself is deserialization
                    // only — a panic there is a process bug and propagates.
                    for slot in live.iter_mut() {
                        if let Some(survivor) = slot.take() {
                            let task = SessionTask {
                                session: survivor.session,
                                seed: survivor.seed,
                                attempt: survivor.attempt,
                                instance: survivor.instance,
                                state: Some(survivor.saved),
                            };
                            *slot = Some(build_live(config, &task, feed));
                        }
                    }
                }
            }
        }
        if !any_running {
            break;
        }
    }
    out
}

/// Options of [`run_fleet_with`]: resume source, halt point, and checkpoint sink.
/// None of these affect any session's results — they decide only when the fleet
/// stops and what it persists.
#[derive(Default)]
pub struct FleetOptions<'a> {
    /// Resume from this checkpoint instead of starting fresh. The embedded config
    /// must match the one passed to [`run_fleet_with`] in everything but `shards`.
    pub resume: Option<FleetCheckpoint>,
    /// Park every still-running session once it reaches this many session-local
    /// rounds; the fleet then halts at the end of the wave and returns
    /// [`FleetRun::Halted`]. `None` runs to completion.
    pub halt_after: Option<usize>,
    /// Emit a [`FleetCheckpoint`] to `on_checkpoint` every this many completed waves
    /// (`0` = only the halt checkpoint, if any).
    pub checkpoint_every: usize,
    /// Receives each cadence checkpoint.
    pub on_checkpoint: Option<&'a mut dyn FnMut(&FleetCheckpoint)>,
}

/// How a supervised fleet run ended.
#[derive(Debug)]
pub enum FleetRun {
    /// Every admitted session completed or was permanently quarantined.
    Completed(FleetReport),
    /// The halt point was reached; resume later from this checkpoint.
    Halted(FleetCheckpoint),
}

impl FleetRun {
    /// Unwraps the completed report.
    ///
    /// # Panics
    ///
    /// Panics if the fleet halted instead of completing.
    #[must_use]
    pub fn into_report(self) -> FleetReport {
        match self {
            FleetRun::Completed(report) => report,
            FleetRun::Halted(_) => panic!("fleet halted before completion"),
        }
    }
}

/// Runs the whole fleet described by `config` and returns its deterministic report.
/// Equivalent to [`run_fleet_with`] under default [`FleetOptions`].
///
/// # Panics
///
/// Panics if `config` fails [`FleetConfig::validate`].
#[must_use]
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    run_fleet_with(config, FleetOptions::default()).into_report()
}

/// Runs (or resumes) the fleet described by `config` under `options`.
///
/// The determinism contract, extended to supervision: the final [`FleetReport`] of a
/// run — uninterrupted, or halted and resumed any number of times, at any shard
/// count — is byte-identical, because every supervision decision (quarantine round,
/// panic tag, retry wave, watchdog stall, checkpoint content) is a pure function of
/// `(config, session, attempt)`.
///
/// # Panics
///
/// As [`run_fleet`]; additionally if a resume checkpoint fails
/// [`FleetCheckpoint::validate`] (which recomputes its admission log from the embedded
/// config) or disagrees with `config` in anything but the shard count.
#[must_use]
pub fn run_fleet_with(config: &FleetConfig, options: FleetOptions<'_>) -> FleetRun {
    if let Err(message) = config.validate() {
        panic!("invalid fleet configuration: {message}");
    }
    let FleetOptions {
        resume,
        halt_after,
        checkpoint_every,
        mut on_checkpoint,
    } = options;
    // Coordinator: derive seeds, generate platforms, decide admission — all in
    // session-id order, before any shard thread exists.
    let FleetPlan {
        seeds,
        instances,
        admissions,
    } = FleetPlan::new(config);

    let (mut wave, mut completed, mut quarantined, mut pending) = match resume {
        Some(checkpoint) => {
            if let Err(error) = checkpoint.validate() {
                panic!("resume: {error}");
            }
            let FleetCheckpoint {
                config: saved,
                next_wave,
                completed,
                quarantined,
                pending,
                ..
            } = checkpoint;
            let mut reconciled = saved;
            reconciled.shards = config.shards;
            assert_eq!(
                &reconciled, config,
                "resume: the checkpoint was taken under a different fleet \
                 configuration (only the shard count may change)"
            );
            (next_wave, completed, quarantined, pending)
        }
        None => {
            let pending = admissions
                .iter()
                .filter_map(|decision| match decision.verdict {
                    AdmissionVerdict::Admitted { wave } => Some(PendingEntry {
                        session: decision.session,
                        wave,
                        attempt: 0,
                        state: None,
                    }),
                    AdmissionVerdict::Rejected { .. } => None,
                })
                .collect();
            (0, Vec::new(), Vec::new(), pending)
        }
    };

    // Worker panics are process-global: arm the whole run's budget once, behind a
    // drop-guard so no exit path — completion, halt, or an unwinding panic — leaks
    // unconsumed tokens into whatever runs next in this process. (The fan-out
    // recomputes poisoned evaluations sequentially, so which evaluation a
    // panic lands on never changes any result.)
    let _panic_guard = config.fault_plan.as_ref().and_then(|plan| {
        (plan.worker_panics() > 0).then(|| WorkerPanicGuard::arm(plan.worker_panics()))
    });

    let feed = ChurnFeed::new(config.seed, config.churn);
    // Waves run to completion in order (a queued session starts only after the wave
    // occupying its capacity finished; retries land in strictly later waves); within
    // a wave, every shard steps its sessions round-robin on its own thread.
    let mut halted = false;
    let mut waves_since_checkpoint = 0usize;
    while !pending.is_empty() {
        let current = pending
            .iter()
            .map(|entry| entry.wave)
            .min()
            .expect("pending is non-empty");
        wave = wave.max(current);
        let (this_wave, later): (Vec<PendingEntry>, Vec<PendingEntry>) =
            pending.into_iter().partition(|entry| entry.wave <= wave);
        pending = later;
        let mut assignments: Vec<Vec<SessionTask>> =
            (0..config.shards).map(|_| Vec::new()).collect();
        for entry in this_wave {
            assignments[entry.session % config.shards].push(SessionTask {
                session: entry.session,
                seed: seeds[entry.session],
                attempt: entry.attempt,
                instance: instances[entry.session].clone(),
                state: entry.state,
            });
        }
        let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .into_iter()
                .map(|tasks| {
                    let feed = &feed;
                    scope.spawn(move || run_shard(config, wave, tasks, feed, halt_after))
                })
                .collect();
            handles
                .into_iter()
                // Session panics are contained inside the shard; a panic that still
                // reaches the join is a harness defect and is re-raised as-is.
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });
        for outcome in outcomes {
            completed.extend(outcome.rows);
            quarantined.extend(outcome.quarantined);
            pending.extend(outcome.retries);
            if !outcome.parked.is_empty() {
                halted = true;
                pending.extend(outcome.parked);
            }
        }
        // Ordered merges: shard layout determined only who computed what.
        completed.sort_by_key(|row| row.session);
        quarantined.sort_by_key(|record| (record.session, record.attempt));
        pending.sort_by_key(|entry| (entry.wave, entry.session, entry.attempt));
        if halted {
            break;
        }
        wave += 1;
        waves_since_checkpoint += 1;
        if checkpoint_every > 0 && waves_since_checkpoint >= checkpoint_every && !pending.is_empty()
        {
            waves_since_checkpoint = 0;
            if let Some(sink) = on_checkpoint.as_mut() {
                sink(&FleetCheckpoint {
                    config: config.clone(),
                    admissions: admissions.clone(),
                    next_wave: wave,
                    completed: completed.clone(),
                    quarantined: quarantined.clone(),
                    pending: pending.clone(),
                });
            }
        }
    }
    if halted {
        return FleetRun::Halted(FleetCheckpoint {
            config: config.clone(),
            admissions,
            next_wave: wave,
            completed,
            quarantined,
            pending,
        });
    }

    let rejected = admissions
        .iter()
        .filter(|decision| matches!(decision.verdict, AdmissionVerdict::Rejected { .. }))
        .count();
    let metrics = FleetMetrics::aggregate(&completed, rejected, &quarantined);
    FleetRun::Completed(FleetReport {
        sessions_submitted: config.sessions,
        seed: config.seed,
        receivers: config.receivers,
        chunks: config.chunks,
        floor: config.floor,
        admissions,
        sessions: completed,
        quarantined,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_names_the_first_unrunnable_field() {
        let base = FleetConfig::default();
        let churn = |start, spacing, waves| FleetConfig {
            churn: ChurnConfig {
                start,
                spacing,
                waves,
            },
            ..base.clone()
        };
        let capacity = |capacity| FleetConfig {
            admission: AdmissionPolicy {
                capacity: Some(capacity),
                ..AdmissionPolicy::default()
            },
            ..base.clone()
        };
        for (config, field) in [
            (capacity(f64::NAN), "admission capacity"),
            (capacity(-1.0), "admission capacity"),
            (capacity(f64::INFINITY), "admission capacity"),
            (churn(-1.0, 3.0, 2), "churn start"),
            (churn(f64::NAN, 3.0, 2), "churn start"),
            (churn(4.0, 0.0, 2), "churn spacing"),
            (churn(4.0, f64::INFINITY, 2), "churn spacing"),
            (churn(4.0, f64::NAN, 2), "churn spacing"),
            (
                FleetConfig {
                    floor: f64::NAN,
                    ..base.clone()
                },
                "repair floor",
            ),
        ] {
            let message = config.validate().unwrap_err();
            assert!(message.contains(field), "{field}: {message}");
        }
        let too_many = churn(4.0, 3.0, MAX_CHURN_WAVES + 1).validate().unwrap_err();
        assert!(too_many.contains(&format!("at most {MAX_CHURN_WAVES} waves")));
        for config in [
            base.clone(),
            capacity(0.0),
            churn(0.0, 1.0, MAX_CHURN_WAVES),
        ] {
            assert_eq!(config.validate(), Ok(()), "{config:?}");
        }
    }

    #[test]
    fn a_tiny_fleet_runs_and_reports_in_session_order() {
        let config = FleetConfig {
            sessions: 3,
            shards: 2,
            chunks: 24,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config);
        assert_eq!(report.sessions_submitted, 3);
        assert_eq!(report.sessions.len(), 3);
        for (i, stats) in report.sessions.iter().enumerate() {
            assert_eq!(stats.session, i);
            assert!(stats.nominal > 0.0);
            assert!(stats.goodput > 0.0, "session {i} delivered nothing");
        }
        assert_eq!(report.metrics.sessions_run, 3);
        assert_eq!(report.metrics.sessions_rejected, 0);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.metrics.sessions_quarantined, 0);
        assert_eq!(report.metrics.session_retries, 0);
    }

    #[test]
    fn rejected_sessions_are_logged_but_not_run() {
        let config = FleetConfig {
            sessions: 4,
            admission: AdmissionPolicy {
                max_sessions: Some(2),
                capacity: None,
                queue: false,
            },
            chunks: 24,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config);
        assert_eq!(report.admissions.len(), 4);
        assert_eq!(report.sessions.len(), 2);
        assert_eq!(report.metrics.sessions_rejected, 2);
    }

    #[test]
    fn queued_sessions_run_in_later_waves() {
        let config = FleetConfig {
            sessions: 4,
            admission: AdmissionPolicy {
                max_sessions: Some(2),
                capacity: None,
                queue: true,
            },
            chunks: 24,
            ..FleetConfig::default()
        };
        let report = run_fleet(&config);
        // Everyone runs: two in wave 0, two queued into wave 1.
        assert_eq!(report.sessions.len(), 4);
        assert_eq!(report.metrics.sessions_rejected, 0);
        let waves: Vec<usize> = report
            .admissions
            .iter()
            .map(|decision| match decision.verdict {
                AdmissionVerdict::Admitted { wave } => wave,
                AdmissionVerdict::Rejected { .. } => unreachable!("queue mode rejects nothing"),
            })
            .collect();
        assert_eq!(waves, vec![0, 0, 1, 1]);
    }

    #[test]
    fn retry_waves_are_seeded_and_strictly_later() {
        let config = FleetConfig::default();
        for session in 0..16 {
            for attempt in 0..3 {
                for wave in 0..4 {
                    let retry = retry_wave(&config, session, attempt, wave);
                    assert!(retry > wave, "a retry must land in a strictly later wave");
                    assert!(retry <= wave + 3, "backoff is bounded by three waves");
                    assert_eq!(retry, retry_wave(&config, session, attempt, wave));
                }
            }
        }
    }
}
