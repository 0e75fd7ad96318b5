//! The unified solver API: one trait, one solution type, one evaluation context.
//!
//! Every scheduling algorithm of the crate is exposed through the [`Solver`] trait and
//! enumerated by [`registry`], so the CLI, the experiment runners and the benchmarks all
//! dispatch uniformly instead of hand-rolling per-algorithm branches:
//!
//! * [`Solver`] — `name()` / `describe()` / `solve(&Instance, &mut EvalCtx)`,
//! * [`Solution`] — scheme + claimed throughput + optional coding word + algorithm label
//!   \+ [`Telemetry`] (flow solves, bisection probes, wall time),
//! * [`EvalCtx`] — an *explicit* flow-evaluation workspace owning the
//!   [`FlowArena`] and [`FlowSolver`]. It replaces the hidden thread-local in
//!   [`crate::scheme`] as the primary evaluation path and retains the arena across
//!   evaluations. Every scheme evaluation takes one path: scan the scheme's sparse rows
//!   ([`BroadcastScheme::edges_into`], O(n + m)); rewrite the retained arena's
//!   capacities in place when the edge set is unchanged
//!   ([`FlowArena::set_edge_capacities`]), rebuild it otherwise; then run cold Dinic
//!   over the receivers.
//!
//! # Parallel evaluation
//!
//! [`EvalCtx::set_parallelism`] switches `throughput` evaluations onto the process-wide
//! persistent worker pool ([`bmp_flow::FlowPool::global`]): the capacities are written
//! into the retained arena exactly as in the sequential path, then the per-receiver
//! max-flows fan out across long-lived workers, the submitting thread working a share on
//! the context's own solver. Values **and** the [`Telemetry`] counters are bit-for-bit
//! identical to sequential evaluation — the fan-out only changes wall time — which the
//! conformance suite asserts for every registry solver. `0` (the default) selects the
//! [`bmp_flow::suggested_flow_threads`] heuristic per evaluation; `1` stays sequential,
//! which is the right setting inside already-parallel sweeps (the pool is shared and
//! capped, but the outer fan-out owns the cores — see
//! `bmp_experiments::parallel::eval_parallelism`).
//!
//! Every solver verifies its own output before returning: the constructed scheme is
//! re-scored by max-flow through the context and a shortfall against the claimed
//! throughput surfaces as [`CoreError::VerificationFailed`] instead of a silently wrong
//! `Solution`.
//!
//! The registry contains the core algorithms (`acyclic-guarded`, `acyclic-open`,
//! `cyclic-open`, `exhaustive`, `omega-word`, `auto`). Downstream crates implement
//! [`Solver`] for their own algorithms and append them — `bmp-trees` ships a
//! tree-decomposition adapter, and the CLI assembles the full list (core + trees) for
//! `solve --algorithm` dispatch. (The adapter cannot live in this crate's registry
//! because `bmp-trees` depends on `bmp-core`, not the other way around.)

use crate::acyclic_guarded::AcyclicGuardedSolver;
use crate::acyclic_open::acyclic_open_optimal_scheme;
use crate::bounds::cyclic_upper_bound;
use crate::cyclic_open::cyclic_open_optimal_scheme;
use crate::error::CoreError;
use crate::exhaustive::optimal_acyclic_exhaustive_traced;
use crate::faults::{FaultSite, InjectedFaults};
use crate::omega::{omega1, omega2};
use crate::scheme::BroadcastScheme;
use crate::search::DichotomicSearch;
use crate::word::{is_valid_word, CodingWord, Symbol};
use bmp_flow::{suggested_flow_threads, FlowArena, FlowPool, FlowSolver};
use bmp_platform::{Instance, NodeId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative tolerance of the post-solve max-flow verification.
const VERIFY_TOL: f64 = 1e-6;

/// Cost counters and timing of one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Telemetry {
    /// Number of per-sink max-flow evaluations requested through the context (batched
    /// evaluations count one per sink, even when the early-exit cap truncates a solve).
    pub flow_solves: u64,
    /// Number of feasibility probes spent by dichotomic searches.
    pub bisection_iters: u64,
    /// Wall-clock time of the solve, including verification.
    pub wall_time: Duration,
}

/// Uniform result of every registered solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Registry name of the algorithm that actually ran (e.g. `"acyclic-guarded"`).
    pub algorithm: &'static str,
    /// Throughput the algorithm claims; verified against the scheme by max-flow before
    /// the solution is returned.
    pub throughput: f64,
    /// The scheme's throughput as measured by max-flow during verification (within the
    /// verification tolerance of `throughput`, and free for callers to display — the
    /// evaluation already happened).
    pub verified_throughput: f64,
    /// The coding word / increasing order realising the scheme, for the algorithms that
    /// have one.
    pub word: Option<CodingWord>,
    /// The explicit broadcast scheme.
    pub scheme: BroadcastScheme,
    /// Cost counters of this solve.
    pub telemetry: Telemetry,
}

/// Speculation depth of the dichotomic searches: always `0`, since every search
/// probes one midpoint at a time.
#[must_use]
pub fn default_speculation() -> usize {
    0
}

/// Whether contexts start with warm residual reuse: always `false`, since every
/// evaluation runs cold Dinic. Kept because the benchmark harness records it among the
/// program defaults.
#[must_use]
pub fn default_incremental() -> bool {
    false
}

/// A retained flow arena plus the edge endpoints it was built over.
#[derive(Debug, Clone, Default)]
struct RetainedArena {
    /// Behind an [`Arc`] so pooled evaluations can hand it to the persistent worker pool
    /// without copying; workers drop their clones before an evaluation returns, so
    /// [`Arc::make_mut`] rewrites it in place exactly like a plain field.
    arena: Option<Arc<FlowArena>>,
    nodes: usize,
    /// Endpoints of the arena's edges, in edge order.
    edges: Vec<(NodeId, NodeId)>,
}

impl RetainedArena {
    /// Points the arena at `edges`: an in-place capacity rewrite when the edge set
    /// (endpoints, in order) is unchanged, a CSR rebuild otherwise. Returns whether it
    /// rebuilt. `caps` is scratch space for the rewrite.
    fn prepare(
        &mut self,
        num_nodes: usize,
        edges: &[(NodeId, NodeId, f64)],
        caps: &mut Vec<f64>,
    ) -> bool {
        let same_edges = self.nodes == num_nodes
            && self.edges.len() == edges.len()
            && self
                .edges
                .iter()
                .zip(edges)
                .all(|(&(from, to), &(from2, to2, _))| from == from2 && to == to2);
        match self.arena.as_mut() {
            Some(arena) if same_edges => {
                caps.clear();
                caps.extend(edges.iter().map(|&(_, _, cap)| cap));
                Arc::make_mut(arena).set_edge_capacities(caps);
                false
            }
            _ => {
                self.arena = Some(Arc::new(FlowArena::from_edges(num_nodes, edges)));
                self.nodes = num_nodes;
                self.edges.clear();
                self.edges
                    .extend(edges.iter().map(|&(from, to, _)| (from, to)));
                true
            }
        }
    }

    /// The arena [`RetainedArena::prepare`] last pointed at its edges.
    fn prepared(&self) -> &Arc<FlowArena> {
        self.arena.as_ref().expect("arena prepared first")
    }
}

/// `min_k maxflow(source → sinks_k)` on `arena`: pooled when the fan-out `parallelism`
/// (`0` = [`suggested_flow_threads`]) asks for more than one lane, sequential on
/// `solver` otherwise. Bit-identical either way.
fn min_max_on(
    solver: &mut FlowSolver,
    arena: &Arc<FlowArena>,
    source: NodeId,
    sinks: &[NodeId],
    parallelism: usize,
) -> f64 {
    let threads = match parallelism {
        0 => suggested_flow_threads(arena.num_nodes(), sinks.len()),
        explicit => explicit,
    };
    if threads > 1 {
        FlowPool::global().min_max_flow_with(solver, arena, source, sinks, threads)
    } else {
        solver.min_max_flow(arena, source, sinks)
    }
}

/// Explicit flow-evaluation workspace: owns the arena and the solver buffers, retains
/// the arena across evaluations, and counts work for [`Telemetry`].
///
/// In steady state (re-probing schemes with an unchanged edge set — the access pattern
/// of every dichotomic search loop) an evaluation performs no CSR construction and no
/// allocation: one O(n + m) scan of the scheme's rows rewrites the retained arena's
/// capacities, and the reusable [`FlowSolver`] buffers are refilled.
#[derive(Debug, Clone)]
pub struct EvalCtx {
    solver: FlowSolver,
    /// Retained arena of scheme evaluations.
    scheme_arena: RetainedArena,
    /// Retained arena of *explicit-edge* evaluations ([`EvalCtx::min_max_flow`] — the
    /// churn residual path), kept separate from the scheme arena so interleaving the two
    /// kinds of evaluation costs neither its cache: a sweep alternating residual and
    /// scheme probes rewrites both arenas in place.
    explicit_arena: RetainedArena,
    /// Fan-out of `throughput` evaluations: `0` the per-evaluation size heuristic
    /// (default), `1` sequential, `> 1` dispatch onto the shared worker pool.
    parallelism: usize,
    scratch_edges: Vec<(NodeId, NodeId, f64)>,
    scratch_filtered: Vec<(NodeId, NodeId, f64)>,
    scratch_caps: Vec<f64>,
    scratch_sinks: Vec<NodeId>,
    tolerance: f64,
    /// Installed fault-injection script; `None` (production) makes every interception
    /// a single branch on a `None` discriminant.
    injected_faults: Option<InjectedFaults>,
    /// One-shot warm-start hint for the next dichotomic solve: a throughput the caller
    /// has already verified feasible on a closely related overlay (the repair path's
    /// residual probe). Consumed — never reused — by the first solver that takes it.
    warm_start_lower: Option<f64>,
    flow_solves: u64,
    bisection_iters: u64,
    arena_builds: u64,
    arena_updates: u64,
}

impl Default for EvalCtx {
    /// Same as [`EvalCtx::new`]: the derived zero-value would set `tolerance` to `0.0`
    /// and degenerate every dichotomic search into its full iteration cap.
    fn default() -> Self {
        EvalCtx::new()
    }
}

impl EvalCtx {
    /// Default dichotomic tolerance, matching [`AcyclicGuardedSolver::default`].
    pub const DEFAULT_TOLERANCE: f64 = 1e-10;

    /// Creates a context with the default search tolerance.
    #[must_use]
    pub fn new() -> Self {
        Self::with_tolerance(Self::DEFAULT_TOLERANCE)
    }

    /// Creates a context whose dichotomic searches use relative precision `tolerance`.
    #[must_use]
    pub fn with_tolerance(tolerance: f64) -> Self {
        EvalCtx {
            solver: FlowSolver::new(),
            scheme_arena: RetainedArena::default(),
            explicit_arena: RetainedArena::default(),
            parallelism: 0,
            scratch_edges: Vec::new(),
            scratch_filtered: Vec::new(),
            scratch_caps: Vec::new(),
            scratch_sinks: Vec::new(),
            tolerance,
            injected_faults: None,
            warm_start_lower: None,
            flow_solves: 0,
            bisection_iters: 0,
            arena_builds: 0,
            arena_updates: 0,
        }
    }

    /// Relative precision the registered solvers use for their dichotomic searches.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The shared bisection driver configured with this context's tolerance.
    #[must_use]
    pub fn search(&self) -> DichotomicSearch {
        DichotomicSearch::with_tolerance(self.tolerance)
    }

    /// Installs (or with `None`, removes) a fault-injection script. Interceptions are
    /// counted from this call; see [`InjectedFaults`].
    pub fn set_injected_faults(&mut self, faults: Option<InjectedFaults>) {
        self.injected_faults = faults;
    }

    /// Arms (or with `None`, clears) a one-shot warm-start hint for the next dichotomic
    /// solve: a throughput the caller has already verified on a closely related overlay,
    /// used as the initial lower bracket via [`DichotomicSearch::maximize_from`]. The
    /// hint is advisory — solvers probe it before trusting it — and is consumed by the
    /// first [`Solver::solve`] that honours it, so re-arm before every attempt.
    pub fn set_warm_start_lower(&mut self, hint: Option<f64>) {
        self.warm_start_lower = hint;
    }

    /// Takes (and clears) the armed warm-start hint, if any.
    #[must_use]
    pub fn take_warm_start_lower(&mut self) -> Option<f64> {
        self.warm_start_lower.take()
    }

    /// The installed fault-injection script, if any (its `fired`/`pending` counters
    /// reflect interceptions so far).
    #[must_use]
    pub fn injected_faults(&self) -> Option<&InjectedFaults> {
        self.injected_faults.as_ref()
    }

    /// Fault-plane interception: records that `site` was reached and returns the
    /// occurrence index when the installed script schedules this occurrence to fail.
    /// Always `None` (one branch, no counting) when no script is installed.
    #[inline]
    pub fn intercept_fault(&mut self, site: FaultSite) -> Option<u64> {
        match self.injected_faults.as_mut() {
            None => None,
            Some(faults) => faults.intercept(site),
        }
    }

    /// Records `probes` dichotomic feasibility probes (solvers call this; exposed so
    /// out-of-crate [`Solver`] implementations can account their searches too).
    pub fn add_bisection_iters(&mut self, probes: u64) {
        self.bisection_iters += probes;
    }

    /// Per-sink solves warm-started from retained residual state: always `0`, since every
    /// solve runs cold Dinic. Kept because the benchmark harness reports it as the repair
    /// controller's warm share.
    #[must_use]
    pub fn flows_warm_started(&self) -> u64 {
        0
    }

    /// Total per-sink max-flow evaluations requested so far.
    #[must_use]
    pub fn flow_solves(&self) -> u64 {
        self.flow_solves
    }

    /// Total dichotomic probes recorded so far.
    #[must_use]
    pub fn bisection_iters(&self) -> u64 {
        self.bisection_iters
    }

    /// Number of from-scratch CSR arena constructions performed.
    #[must_use]
    pub fn arena_builds(&self) -> u64 {
        self.arena_builds
    }

    /// Number of evaluations that reused the cached arena via in-place capacity updates.
    #[must_use]
    pub fn arena_updates(&self) -> u64 {
        self.arena_updates
    }

    /// Whether scheme evaluations consume a dirty-edge journal: always `false`, since
    /// every evaluation scans the scheme's rows. Kept because the benchmark harness
    /// records it among the program defaults.
    #[must_use]
    pub fn journal_enabled(&self) -> bool {
        false
    }

    /// Sets the fan-out of [`EvalCtx::throughput`] evaluations (see the module docs):
    /// `0` (the default) picks per evaluation via
    /// [`bmp_flow::suggested_flow_threads`] (sequential for small instances, pooled at
    /// fleet scale), `1` always evaluates sequentially on the calling thread, and
    /// `threads > 1` dispatches the per-receiver max-flows onto the shared persistent
    /// worker pool ([`FlowPool::global`]) with up to `threads` concurrent lanes.
    ///
    /// Auto is the default because below the size thresholds — every conformance
    /// instance, and any machine without available parallelism — it resolves to the
    /// same sequential path as `1`, and above them the pool wins, so it costs nothing
    /// where fan-out cannot win.
    ///
    /// Values and telemetry counters are bit-for-bit independent of this setting; only
    /// wall time changes. Contexts used *inside* an already-parallel sweep should be
    /// set to `1` — the outer fan-out owns the cores
    /// (`bmp_experiments::eval_parallelism` does exactly that).
    pub fn set_parallelism(&mut self, threads: usize) {
        self.parallelism = threads;
    }

    /// The configured evaluation fan-out (`0` auto — the default, `1` sequential).
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Throughput of `scheme` (`min_k maxflow(source → C_k)`), evaluated through the
    /// retained arena (see the type docs) at the configured parallelism
    /// ([`EvalCtx::set_parallelism`]).
    pub fn throughput(&mut self, scheme: &BroadcastScheme) -> f64 {
        self.prepare_scheme_arena(scheme);
        let mut sinks = std::mem::take(&mut self.scratch_sinks);
        sinks.clear();
        sinks.extend(scheme.instance().receivers());
        self.flow_solves += sinks.len() as u64;
        let arena = self.scheme_arena.prepared();
        let value = min_max_on(&mut self.solver, arena, 0, &sinks, self.parallelism);
        self.scratch_sinks = sinks;
        value
    }

    /// Maximum flow from the source to `receiver` in `scheme`'s weighted digraph
    /// (through the retained arena, like [`EvalCtx::throughput`]).
    pub fn max_flow_to(&mut self, scheme: &BroadcastScheme, receiver: NodeId) -> f64 {
        self.prepare_scheme_arena(scheme);
        self.flow_solves += 1;
        self.solver
            .max_flow(self.scheme_arena.prepared(), 0, receiver)
    }

    /// `min_k maxflow(source → sinks_k)` over an explicit edge list (the entry point for
    /// evaluations that are not a whole scheme, e.g. survivor overlays in the churn
    /// analysis). Returns `f64::INFINITY` when `sinks` is empty.
    ///
    /// The evaluation runs on a retained arena of its own (in-place capacity rewrite when
    /// the explicit edge set is unchanged, rebuild otherwise), so it leaves the scheme
    /// arena untouched, and it honours the configured parallelism
    /// ([`EvalCtx::set_parallelism`]): at a fan-out above 1 (or when the `0` auto
    /// heuristic triggers at fleet scale) the per-sink max-flows dispatch onto the shared
    /// persistent worker pool, the value staying bit-identical to the sequential pass.
    pub fn min_max_flow(
        &mut self,
        num_nodes: usize,
        edges: &[(NodeId, NodeId, f64)],
        source: NodeId,
        sinks: &[NodeId],
    ) -> f64 {
        let rebuilt = self
            .explicit_arena
            .prepare(num_nodes, edges, &mut self.scratch_caps);
        self.count_arena(rebuilt);
        self.flow_solves += sinks.len() as u64;
        let arena = self.explicit_arena.prepared();
        min_max_on(&mut self.solver, arena, source, sinks, self.parallelism)
    }

    /// Like [`EvalCtx::min_max_flow`], but the edge list is produced by `fill` into a
    /// context-owned buffer, so repeat callers (the churn sweep filtering a scheme down
    /// to its survivors for thousands of departure sets) reuse one allocation instead of
    /// building a fresh `Vec` per evaluation.
    pub fn min_max_flow_with(
        &mut self,
        num_nodes: usize,
        source: NodeId,
        sinks: &[NodeId],
        fill: impl FnOnce(&mut Vec<(NodeId, NodeId, f64)>),
    ) -> f64 {
        let mut edges = std::mem::take(&mut self.scratch_filtered);
        edges.clear();
        fill(&mut edges);
        let value = self.min_max_flow(num_nodes, &edges, source, sinks);
        self.scratch_filtered = edges;
        value
    }

    /// Points the retained scheme arena at `scheme`'s current rates.
    fn prepare_scheme_arena(&mut self, scheme: &BroadcastScheme) {
        let mut edges = std::mem::take(&mut self.scratch_edges);
        scheme.edges_into(&mut edges);
        let rebuilt = self.scheme_arena.prepare(
            scheme.instance().num_nodes(),
            &edges,
            &mut self.scratch_caps,
        );
        self.count_arena(rebuilt);
        self.scratch_edges = edges;
    }

    /// Counts one arena preparation as a rebuild or an in-place update.
    fn count_arena(&mut self, rebuilt: bool) {
        if rebuilt {
            self.arena_builds += 1;
        } else {
            self.arena_updates += 1;
        }
    }
}

/// Certifies that `scheme` delivers at least `claimed` by max-flow through `ctx` and
/// returns the measured throughput — the shared flow-certification stage of the
/// experiment sweeps (Figure 7 worst cells, Figure 19 spot checks, depth profiling).
///
/// # Panics
///
/// Panics when the scheme under-delivers beyond a `1e-6` relative tolerance: an
/// under-delivering scheme is a solver bug, not a data point.
pub fn certify_throughput(ctx: &mut EvalCtx, scheme: &BroadcastScheme, claimed: f64) -> f64 {
    let achieved = ctx.throughput(scheme);
    assert!(
        achieved + 1e-6 * claimed.max(1.0) >= claimed,
        "certification failed: scheme delivers {achieved} < claimed {claimed}"
    );
    achieved
}

/// A broadcast scheduling algorithm with a uniform entry point.
///
/// Implementations must be stateless (configuration lives in the struct, scratch state
/// in the [`EvalCtx`]), so one boxed instance can serve any number of solves.
pub trait Solver: Send + Sync {
    /// Registry name (`--algorithm` value), kebab-case.
    fn name(&self) -> &'static str;

    /// One-line human description (paper reference, supported instance classes).
    fn describe(&self) -> &'static str;

    /// Solves `instance`, evaluating flows through `ctx`.
    ///
    /// # Errors
    ///
    /// [`CoreError::GuardedNodesNotSupported`] or [`CoreError::Unsupported`] when the
    /// algorithm cannot handle the instance; [`CoreError::VerificationFailed`] when the
    /// constructed scheme fails its own max-flow verification.
    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError>;
}

/// Timing/verification scaffolding shared by every [`Solver`] implementation —
/// including out-of-crate adapters such as the `bmp-trees` tree-decomposition solver.
///
/// Snapshot the context's counters with [`SolveRecorder::start`], run the algorithm,
/// then let [`SolveRecorder::finish`] verify the claimed throughput by max-flow and
/// assemble the [`Solution`] with the counter deltas as [`Telemetry`].
#[derive(Debug, Clone, Copy)]
pub struct SolveRecorder {
    started: Instant,
    flow_solves: u64,
    bisection_iters: u64,
}

impl SolveRecorder {
    /// Snapshots `ctx`'s counters and the wall clock at the start of a solve.
    #[must_use]
    pub fn start(ctx: &EvalCtx) -> Self {
        SolveRecorder {
            started: Instant::now(),
            flow_solves: ctx.flow_solves,
            bisection_iters: ctx.bisection_iters,
        }
    }

    /// The [`Telemetry`] accumulated through `ctx` since [`SolveRecorder::start`]: the
    /// counter deltas plus the elapsed wall clock. Used by [`SolveRecorder::finish`] and
    /// available directly for instrumented evaluation runs that are not a full solve
    /// (e.g. the churn degradation probes and the conformance suite).
    #[must_use]
    pub fn telemetry(&self, ctx: &EvalCtx) -> Telemetry {
        Telemetry {
            flow_solves: ctx.flow_solves - self.flow_solves,
            bisection_iters: ctx.bisection_iters - self.bisection_iters,
            wall_time: self.started.elapsed(),
        }
    }

    /// Verifies the claimed throughput by max-flow through `ctx` and assembles the
    /// [`Solution`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VerificationFailed`] when the scheme's measured throughput
    /// falls short of `throughput` beyond the shared verification tolerance, or
    /// [`CoreError::InjectedFault`] when the context's fault script fails this solve.
    pub fn finish(
        self,
        algorithm: &'static str,
        ctx: &mut EvalCtx,
        throughput: f64,
        word: Option<CodingWord>,
        scheme: BroadcastScheme,
    ) -> Result<Solution, CoreError> {
        if let Some(occurrence) = ctx.intercept_fault(FaultSite::Solve) {
            return Err(CoreError::InjectedFault {
                site: FaultSite::Solve.label(),
                occurrence,
            });
        }
        let achieved = ctx.throughput(&scheme);
        let verify_fault = ctx.intercept_fault(FaultSite::Verify).is_some();
        if verify_fault || achieved + VERIFY_TOL * throughput.max(1.0) < throughput {
            return Err(CoreError::VerificationFailed {
                algorithm,
                claimed: throughput,
                achieved: if verify_fault { 0.0 } else { achieved },
            });
        }
        let telemetry = self.telemetry(ctx);
        Ok(Solution {
            algorithm,
            throughput,
            verified_throughput: achieved,
            word,
            scheme,
            telemetry,
        })
    }
}

/// Theorem 4.1: dichotomic search over Algorithm 2 plus the low-degree construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcyclicGuardedAlgorithm;

impl Solver for AcyclicGuardedAlgorithm {
    fn name(&self) -> &'static str {
        "acyclic-guarded"
    }

    fn describe(&self) -> &'static str {
        "optimal acyclic throughput by dichotomic search over GreedyTest, low-degree scheme of Lemma 4.6 (Theorem 4.1); any instance"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let legacy = AcyclicGuardedSolver::with_tolerance(ctx.tolerance());
        let hint = ctx.take_warm_start_lower().unwrap_or(0.0);
        let (throughput, word, probes) = legacy.optimal_throughput_traced_from(hint, instance);
        ctx.add_bisection_iters(probes);
        let scheme = if throughput <= 0.0 {
            BroadcastScheme::new(instance.clone())
        } else {
            legacy.scheme_for_word(instance, throughput, &word)?
        };
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// Algorithm 1: closed-form optimal acyclic broadcast for open-only instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcyclicOpenAlgorithm;

impl Solver for AcyclicOpenAlgorithm {
    fn name(&self) -> &'static str {
        "acyclic-open"
    }

    fn describe(&self) -> &'static str {
        "Algorithm 1: optimal acyclic broadcast at min(b0, S_{n-1}/n) (Section III-B); open-only instances"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let (scheme, throughput) = acyclic_open_optimal_scheme(instance)?;
        let word = CodingWord::from_symbols(vec![Symbol::Open; instance.n()]);
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// Theorem 5.2: cyclic construction for open-only instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct CyclicOpenAlgorithm;

impl Solver for CyclicOpenAlgorithm {
    fn name(&self) -> &'static str {
        "cyclic-open"
    }

    fn describe(&self) -> &'static str {
        "optimal cyclic broadcast at min(b0, (b0+O)/n) with local re-routings (Theorem 5.2); open-only instances"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let (scheme, throughput) = cyclic_open_optimal_scheme(instance)?;
        recorder.finish(self.name(), ctx, throughput, None, scheme)
    }
}

/// Ground-truth oracle: enumeration of every increasing order (coding word).
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveAlgorithm {
    /// Refuse instances with more receivers than this (the enumeration is `C(n+m, m)`
    /// words; 20 letters is ~184k words at worst).
    pub max_letters: usize,
}

impl Default for ExhaustiveAlgorithm {
    fn default() -> Self {
        ExhaustiveAlgorithm { max_letters: 20 }
    }
}

impl Solver for ExhaustiveAlgorithm {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn describe(&self) -> &'static str {
        "ground-truth optimal acyclic throughput by enumerating every increasing order (Lemma 4.2); small instances only"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let letters = instance.n() + instance.m();
        if letters > self.max_letters {
            return Err(CoreError::Unsupported {
                algorithm: self.name(),
                reason: format!(
                    "{letters} receivers exceed the enumeration cap of {} letters",
                    self.max_letters
                ),
            });
        }
        let recorder = SolveRecorder::start(ctx);
        let (throughput, word, probes) =
            optimal_acyclic_exhaustive_traced(instance, ctx.tolerance());
        ctx.add_bisection_iters(probes);
        let scheme = if throughput <= 0.0 {
            BroadcastScheme::new(instance.clone())
        } else {
            AcyclicGuardedSolver::with_tolerance(ctx.tolerance())
                .scheme_for_word(instance, throughput, &word)?
        };
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// The better of the two regular interleaving words `ω1`/`ω2` of Theorem 6.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct OmegaWordAlgorithm;

impl Solver for OmegaWordAlgorithm {
    fn name(&self) -> &'static str {
        "omega-word"
    }

    fn describe(&self) -> &'static str {
        "best regular interleaving word omega1/omega2 (Theorem 6.2 heuristic, >= 5/7 of the cyclic optimum); any instance"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        let recorder = SolveRecorder::start(ctx);
        let upper = cyclic_upper_bound(instance);
        let search = ctx.search();
        let mut best = (f64::NEG_INFINITY, CodingWord::empty());
        // Same selection rule as `omega::best_omega_throughput` (ω1 wins ties), with the
        // probes of both searches accounted.
        for word in [
            omega2(instance.n(), instance.m()),
            omega1(instance.n(), instance.m()),
        ] {
            let outcome = search.maximize(upper, |t| is_valid_word(instance, t, &word));
            ctx.add_bisection_iters(outcome.probes);
            if outcome.value >= best.0 {
                best = (outcome.value, word);
            }
        }
        let (throughput, word) = best;
        let scheme = if throughput <= 0.0 {
            BroadcastScheme::new(instance.clone())
        } else {
            AcyclicGuardedSolver::with_tolerance(ctx.tolerance())
                .scheme_for_word(instance, throughput, &word)?
        };
        recorder.finish(self.name(), ctx, throughput, Some(word), scheme)
    }
}

/// Instance-driven dispatch: the cyclic construction when it applies, Theorem 4.1
/// otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoAlgorithm;

impl Solver for AutoAlgorithm {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn describe(&self) -> &'static str {
        "cyclic-open on open-only instances (cyclic >= acyclic there), acyclic-guarded otherwise; the returned label names the algorithm that ran"
    }

    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError> {
        if instance.has_guarded() {
            AcyclicGuardedAlgorithm.solve(instance, ctx)
        } else {
            CyclicOpenAlgorithm.solve(instance, ctx)
        }
    }
}

/// Every solver implemented by this crate, in presentation order.
///
/// Downstream crates append their own [`Solver`] implementations (e.g. the
/// tree-decomposition adapter of `bmp-trees`) before dispatching by name.
#[must_use]
pub fn registry() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(AcyclicGuardedAlgorithm),
        Box::new(AcyclicOpenAlgorithm),
        Box::new(CyclicOpenAlgorithm),
        Box::new(ExhaustiveAlgorithm::default()),
        Box::new(OmegaWordAlgorithm),
        Box::new(AutoAlgorithm),
    ]
}

/// Looks a core solver up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<Box<dyn Solver>> {
    registry().into_iter().find(|solver| solver.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_platform::paper::figure1;

    #[test]
    fn registry_names_are_unique_and_described() {
        let solvers = registry();
        assert!(solvers.len() >= 5);
        let mut names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), solvers.len(), "duplicate registry names");
        for solver in &solvers {
            assert!(!solver.describe().is_empty());
        }
    }

    #[test]
    fn find_resolves_known_names_only() {
        assert!(find("acyclic-guarded").is_some());
        assert!(find("cyclic-open").is_some());
        assert!(find("no-such-solver").is_none());
    }

    #[test]
    fn acyclic_guarded_matches_legacy_entry_point() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let legacy = AcyclicGuardedSolver::default().solve(&instance);
        assert!((solution.throughput - legacy.throughput).abs() < 1e-9);
        assert_eq!(solution.word.as_ref().unwrap(), &legacy.word);
        assert_eq!(solution.scheme, legacy.scheme);
        assert!(solution.telemetry.bisection_iters > 0);
        assert!(solution.telemetry.flow_solves > 0);
    }

    #[test]
    fn auto_picks_the_instance_appropriate_algorithm() {
        let mut ctx = EvalCtx::new();
        let guarded = AutoAlgorithm.solve(&figure1(), &mut ctx).unwrap();
        assert_eq!(guarded.algorithm, "acyclic-guarded");
        let open = Instance::open_only(10.0, vec![4.0, 4.0, 1.0]).unwrap();
        let open_solution = AutoAlgorithm.solve(&open, &mut ctx).unwrap();
        assert_eq!(open_solution.algorithm, "cyclic-open");
        // On this instance the cyclic optimum strictly beats the acyclic one.
        assert!(open_solution.throughput > guarded.throughput);
    }

    #[test]
    fn exhaustive_refuses_oversized_instances() {
        let big = Instance::open_only(5.0, vec![1.0; 30]).unwrap();
        let err = ExhaustiveAlgorithm::default()
            .solve(&big, &mut EvalCtx::new())
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsupported { .. }));
    }

    #[test]
    fn eval_ctx_rewrites_rates_in_place_without_rebuilds() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        // The solve's own verification built the arena for this scheme; every following
        // evaluation with an unchanged edge set — including one with perturbed rates —
        // must rewrite the capacities in place instead of rebuilding.
        let builds_before = ctx.arena_builds();
        let updates_before = ctx.arena_updates();
        let t1 = ctx.throughput(&scheme);
        let (from, to, rate) = scheme.edges()[0];
        scheme.set_rate(from, to, rate * 0.5);
        let t2 = ctx.throughput(&scheme);
        assert_eq!(ctx.arena_builds(), builds_before);
        assert_eq!(ctx.arena_updates(), updates_before + 2);
        assert!(t2 <= t1 + 1e-12);
        // And the retained result matches a from-scratch evaluation.
        assert_eq!(t2, EvalCtx::new().throughput(&scheme));
    }

    #[test]
    fn retained_arena_is_exact_across_diverging_scheme_objects() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut a = solution.scheme;
        let _ = ctx.throughput(&a);
        let builds_before = ctx.arena_builds();
        // A diverged clone with the same edge set reuses the arena, and evaluating the
        // original afterwards must not see the clone's capacities.
        let mut b = a.clone();
        let (from, to, rate) = a.edges()[0];
        b.set_rate(from, to, rate * 0.25);
        assert_eq!(ctx.throughput(&b), EvalCtx::new().throughput(&b));
        a.set_rate(from, to, rate * 0.75);
        assert_eq!(ctx.throughput(&a), EvalCtx::new().throughput(&a));
        assert_eq!(ctx.arena_builds(), builds_before);
        // An edge-set change on A (edge removed) rebuilds, still exact.
        a.set_rate(from, to, 0.0);
        assert_eq!(ctx.throughput(&a), EvalCtx::new().throughput(&a));
        assert_eq!(ctx.arena_builds(), builds_before + 1);
    }

    #[test]
    fn interleaved_explicit_edge_evaluations_keep_the_scheme_association() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        let _ = ctx.throughput(&scheme);
        // Explicit-edge evaluations (the churn residual access pattern) run on their own
        // retained arena: interleaving them with scheme re-probes must rebuild neither.
        let survivors: Vec<usize> = instance.receivers().collect();
        let filtered = |edges: &mut Vec<(usize, usize, f64)>, scheme: &BroadcastScheme| {
            edges.extend(scheme.edges().into_iter().take(3));
        };
        let first = ctx.min_max_flow_with(instance.num_nodes(), 0, &survivors, |edges| {
            filtered(edges, &scheme)
        });
        let builds_after_first = ctx.arena_builds();
        for round in 1..=3 {
            let (from, to, rate) = scheme.edges()[0];
            scheme.set_rate(from, to, rate * (1.0 - 0.1 * round as f64));
            let rewritten = ctx.throughput(&scheme);
            assert_eq!(rewritten, EvalCtx::new().throughput(&scheme));
            let residual = ctx.min_max_flow_with(instance.num_nodes(), 0, &survivors, |edges| {
                filtered(edges, &scheme)
            });
            assert_eq!(residual, first);
        }
        assert_eq!(ctx.arena_builds(), builds_after_first);
    }

    #[test]
    fn explicit_edge_evaluation_is_pool_parallel_and_bit_identical() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let edges = solution.scheme.edges();
        let sinks: Vec<usize> = instance.receivers().collect();
        let mut seq = EvalCtx::new();
        let expected = seq.min_max_flow(instance.num_nodes(), &edges, 0, &sinks);
        for threads in [0usize, 2, 4, 64] {
            let mut par = EvalCtx::new();
            par.set_parallelism(threads);
            assert_eq!(
                par.min_max_flow(instance.num_nodes(), &edges, 0, &sinks),
                expected,
                "threads {threads}"
            );
            assert_eq!(par.flow_solves(), seq.flow_solves());
        }
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_including_counters() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let mut scheme = solution.scheme;
        // Two fresh contexts run the same evaluation sequence — nominal, then two
        // perturbations — one sequential, one through the worker pool.
        let mut seq = EvalCtx::new();
        seq.set_parallelism(1);
        let mut par = EvalCtx::new();
        par.set_parallelism(4);
        assert_eq!(par.parallelism(), 4);
        for round in 0..3 {
            if round > 0 {
                let (from, to, rate) = scheme.edges()[round % scheme.edges().len()];
                scheme.set_rate(from, to, rate * 0.75);
            }
            assert_eq!(par.throughput(&scheme), seq.throughput(&scheme));
        }
        // The fan-out changes wall time only: every counter matches bit-for-bit.
        assert_eq!(par.flow_solves(), seq.flow_solves());
        assert_eq!(par.arena_builds(), seq.arena_builds());
        assert_eq!(par.arena_updates(), seq.arena_updates());
        // Other fan-outs agree too, including the auto heuristic (sequential at this
        // size) and a fan-out wider than the receiver count.
        let expected = seq.throughput(&scheme);
        for threads in [0, 2, 3, 64] {
            par.set_parallelism(threads);
            assert_eq!(par.throughput(&scheme), expected, "threads {threads}");
        }
    }

    #[test]
    fn pooled_evaluation_keeps_the_retained_arena_patchable() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        ctx.set_parallelism(4);
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        let _ = ctx.throughput(&scheme);
        let builds_before = ctx.arena_builds();
        // After a pooled evaluation every worker has dropped its arena reference, so
        // the retained arena is rewritten in place: no rebuild even though the arena was
        // shared with the pool moments ago.
        for step in 1..=3 {
            let (from, to, rate) = scheme.edges()[0];
            scheme.set_rate(from, to, rate * (1.0 - 0.1 * f64::from(step)));
            let pooled = ctx.throughput(&scheme);
            assert_eq!(pooled, EvalCtx::new().throughput(&scheme));
        }
        assert_eq!(ctx.arena_builds(), builds_before);
    }

    #[test]
    fn eval_ctx_max_flow_matches_scheme_method() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let mut ctx = EvalCtx::new();
        for receiver in instance.receivers() {
            assert_eq!(
                ctx.max_flow_to(&solution.scheme, receiver),
                solution.scheme.max_flow_to(receiver)
            );
        }
    }
}
