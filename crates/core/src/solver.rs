//! The unified solver API: one trait, one solution type, one evaluation context.
//!
//! Every scheduling algorithm of the crate is exposed through the [`Solver`] trait and
//! enumerated by [`registry`], so the CLI, the experiment runners and the benchmarks all
//! dispatch uniformly instead of hand-rolling per-algorithm branches:
//!
//! * [`Solver`] — `name()` / `describe()` / `solve(&Instance, &mut EvalCtx)`,
//! * [`Solution`] — scheme + claimed throughput + optional coding word + algorithm label
//!   \+ [`Telemetry`] (cut certifications, flow solves, bisection probes, wall time),
//! * [`EvalCtx`] — the flow-evaluation workspace owning the [`FlowArena`] and
//!   [`FlowSolver`], and the only code that turns a scheme into a flow network
//!   ([`BroadcastScheme::throughput`] is a one-line convenience over a fresh context). It
//!   keeps one arena across evaluations. Every scheme evaluation scans the scheme's
//!   sparse rows ([`BroadcastScheme::edges_into`], O(n + m)) and runs a Kahn pass over
//!   them. An acyclic scheme is certified there, in O(n + m): its throughput is the
//!   smallest total in-rate over the receivers (the cut proof is on
//!   `EvalCtx::masked_throughput`). Only a scheme with a cycle rebuilds the arena in
//!   its own buffers ([`FlowArena::rebuild`]) and runs cold Dinic over the receivers. A
//!   churn residual ([`crate::churn::residual_throughput`]) is the same evaluation with
//!   the departed nodes' edges dropped and only the surviving receivers counted.
//!
//! # Parallel evaluation
//!
//! [`EvalCtx::set_parallelism`] fans the Dinic evaluations of cyclic schemes out through
//! [`bmp_flow::FlowPool::global`] (the cut certificate of an acyclic scheme always runs
//! on the calling thread): the arena is rebuilt exactly as in the sequential path, then
//! the per-receiver max-flows are split between the context's own solver and scoped
//! helper threads (at most 8) that live for that one evaluation. Values **and**
//! the [`Telemetry`] counters are bit-for-bit identical to sequential evaluation — the
//! fan-out only changes wall time — which the conformance suite asserts for every
//! registry solver. `0` (the default) selects the
//! [`bmp_flow::suggested_flow_threads`] heuristic per evaluation; `1` stays sequential,
//! which is the right setting inside already-parallel sweeps (the helper bound holds per
//! evaluation, so concurrent contexts multiply it, and the outer fan-out owns the cores
//! — see `bmp_experiments::parallel::eval_parallelism`).
//!
//! Every solver verifies its own output before returning: [`SolveRecorder::finish`]
//! re-scores the constructed scheme through [`EvalCtx::verify`] (by the cut certificate
//! or by max-flow, whichever the scheme's shape selects), and a shortfall against
//! the claimed throughput surfaces as [`CoreError::VerificationFailed`] instead of a
//! silently wrong `Solution`. `verify` is the crate's one claim check: the experiment
//! sweeps certify their spot-checked schemes through it too.
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
use std::time::{Duration, Instant};

/// Relative tolerance of [`EvalCtx::verify`].
const VERIFY_TOL: f64 = 1e-6;

/// Cost counters and timing of one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Telemetry {
    /// Number of scheme evaluations certified by the acyclic cut: one per evaluation
    /// whose live edges form no cycle (see [`EvalCtx::throughput`]).
    pub cut_certifications: u64,
    /// Number of per-sink max-flow evaluations requested through the context (batched
    /// evaluations count one per sink, even when the early-exit cap truncates a solve).
    /// Only schemes with a live cycle run them, so this reads 0 on acyclic work.
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
    /// Throughput the algorithm claims; verified against the scheme by
    /// [`EvalCtx::verify`] before the solution is returned.
    pub throughput: f64,
    /// The scheme's throughput as measured during verification — by the cut certificate
    /// when the scheme is acyclic, by max-flow otherwise (within the verification
    /// tolerance of `throughput`, and free for callers to display — the evaluation
    /// already happened).
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
/// max-flow evaluation runs cold Dinic. Kept because the benchmark harness records it
/// among the program defaults.
#[must_use]
pub fn default_incremental() -> bool {
    false
}

/// `min_k maxflow(source → sinks_k)` on `arena`: fanned out when `parallelism`
/// (`0` = [`suggested_flow_threads`]) asks for more than one lane, sequential on
/// `solver` otherwise. Bit-identical either way.
fn min_max_on(
    solver: &mut FlowSolver,
    arena: &FlowArena,
    source: NodeId,
    sinks: &[NodeId],
    parallelism: usize,
) -> f64 {
    let threads = match parallelism {
        0 => suggested_flow_threads(arena.num_nodes(), sinks.len()),
        explicit => explicit,
    };
    FlowPool::global().min_max_flow_with(solver, arena, source, sinks, threads)
}

/// Explicit flow-evaluation workspace: owns the arena, the solver and the cut
/// certificate's buffers, keeps them across evaluations, and counts work for
/// [`Telemetry`].
///
/// Every evaluation scans the scheme's rows and certifies an acyclic scheme by its
/// smallest in-rate; a cyclic one rebuilds the arena in place ([`FlowArena::rebuild`])
/// for Dinic. In steady state (re-probing schemes of the same size — the access pattern
/// of every dichotomic search loop) the edge, Kahn, arena and [`FlowSolver`] buffers are
/// already large enough, so an evaluation allocates nothing.
#[derive(Debug, Clone)]
pub struct EvalCtx {
    solver: FlowSolver,
    /// The arena every evaluation rebuilds.
    arena: FlowArena,
    /// Fan-out of `throughput` evaluations: `0` the per-evaluation size heuristic
    /// (default), `1` sequential, `> 1` that many lanes per evaluation.
    parallelism: usize,
    scratch_edges: Vec<(NodeId, NodeId, f64)>,
    scratch_sinks: Vec<NodeId>,
    cut: AcyclicCut,
    tolerance: f64,
    /// Installed fault-injection script; `None` (production) makes every interception
    /// a single branch on a `None` discriminant.
    injected_faults: Option<InjectedFaults>,
    /// One-shot warm-start hint for the next dichotomic solve: a throughput the caller
    /// has already verified feasible on a closely related overlay (the repair path's
    /// residual probe). Consumed — never reused — by the first solver that takes it.
    warm_start_lower: Option<f64>,
    cut_certifications: u64,
    flow_solves: u64,
    bisection_iters: u64,
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
            arena: FlowArena::from_edges(0, &[]),
            parallelism: 0,
            scratch_edges: Vec::new(),
            scratch_sinks: Vec::new(),
            cut: AcyclicCut::default(),
            tolerance,
            injected_faults: None,
            warm_start_lower: None,
            cut_certifications: 0,
            flow_solves: 0,
            bisection_iters: 0,
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

    /// Total scheme evaluations certified by the acyclic cut so far.
    #[must_use]
    pub fn cut_certifications(&self) -> u64 {
        self.cut_certifications
    }

    /// Total per-sink max-flow evaluations requested so far (only schemes with a live
    /// cycle, and [`EvalCtx::max_flow_to`], run them).
    #[must_use]
    pub fn flow_solves(&self) -> u64 {
        self.flow_solves
    }

    /// Total dichotomic probes recorded so far.
    #[must_use]
    pub fn bisection_iters(&self) -> u64 {
        self.bisection_iters
    }

    /// Whether scheme evaluations consume a dirty-edge journal: always `false`, since
    /// every evaluation scans the scheme's rows. Kept because the benchmark harness
    /// records it among the program defaults.
    #[must_use]
    pub fn journal_enabled(&self) -> bool {
        false
    }

    /// Sets the fan-out of the max-flow evaluations of cyclic schemes (see the module
    /// docs):
    /// `0` (the default) picks per evaluation via
    /// [`bmp_flow::suggested_flow_threads`] (sequential for small instances, fanned out
    /// at fleet scale), `1` always evaluates sequentially on the calling thread, and
    /// `threads > 1` splits the per-receiver max-flows over up to `threads` lanes: the
    /// calling thread plus at most `min(threads - 1, 8)` scoped helpers spawned for that
    /// evaluation and joined before it returns ([`FlowPool::min_max_flow_with`]).
    ///
    /// Auto is the default because below the size thresholds — every conformance
    /// instance, and any machine without available parallelism — it resolves to the
    /// same sequential path as `1`, so it costs nothing where fan-out cannot win.
    ///
    /// Values and telemetry counters are bit-for-bit independent of this setting; only
    /// wall time changes. The helper bound holds per evaluation, so contexts used
    /// *inside* an already-parallel sweep should be set to `1` — the outer fan-out owns
    /// the cores (`bmp_experiments::eval_parallelism` does exactly that).
    pub fn set_parallelism(&mut self, threads: usize) {
        self.parallelism = threads;
    }

    /// The configured evaluation fan-out (`0` auto — the default, `1` sequential).
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Throughput of `scheme` (`min_k maxflow(source → C_k)`): the smallest in-rate over
    /// the receivers when the scheme is acyclic (one [`EvalCtx::cut_certifications`]),
    /// max-flow on the context's arena at the configured parallelism
    /// ([`EvalCtx::set_parallelism`]) otherwise (one [`EvalCtx::flow_solves`] per
    /// receiver).
    pub fn throughput(&mut self, scheme: &BroadcastScheme) -> f64 {
        self.masked_throughput(scheme, None)
    }

    /// [`EvalCtx::throughput`] of `scheme` with the nodes where `alive` is `false` cut
    /// out: every edge touching one is dropped, and only the live receivers count
    /// (`f64::INFINITY` when none is).
    ///
    /// After the O(n + m) row scan, a FIFO Kahn pass orders the live edges. When every
    /// node gets ordered, the value is the smallest total live in-rate `in(w)` over the
    /// live receivers, with no max-flow at all:
    ///
    /// * `maxflow(C₀ → v) ≤ in(v)`, the cut around `v` alone;
    /// * conversely, take any cut `(S, T)` with `C₀ ∈ S` and a live receiver `v ∈ T`.
    ///   Departed nodes have only zero-capacity edges, so moving them to `S` leaves the
    ///   cut's capacity unchanged. The first node `w` of `T` in topological order is then
    ///   a live receiver whose live in-edges all start in `S`, so the cut has capacity at
    ///   least `in(w) ≥ min in`.
    ///
    /// Only a scheme with a live cycle rebuilds the arena, with the departed nodes'
    /// edges at capacity 0 and the live receivers as sinks, and runs Dinic. A
    /// zero-capacity arc never carries flow and adds `+0.0` to its head's in-capacity,
    /// so that value is bit-for-bit the evaluation of the edge list without those edges.
    pub(crate) fn masked_throughput(
        &mut self,
        scheme: &BroadcastScheme,
        alive: Option<&[bool]>,
    ) -> f64 {
        let instance = scheme.instance();
        scheme.edges_into(&mut self.scratch_edges);
        if let Some(alive) = alive {
            for (from, to, capacity) in &mut self.scratch_edges {
                if !(alive[*from] && alive[*to]) {
                    *capacity = 0.0;
                }
            }
        }
        let receivers = instance
            .receivers()
            .filter(|&node| alive.is_none_or(|alive| alive[node]));
        let n = instance.num_nodes();
        if self.cut.order(n, &self.scratch_edges) {
            self.cut_certifications += 1;
            return self.cut.min_in_rate(receivers);
        }
        self.arena.rebuild(n, &self.scratch_edges);
        let sinks = &mut self.scratch_sinks;
        sinks.clear();
        sinks.extend(receivers);
        self.flow_solves += sinks.len() as u64;
        min_max_on(&mut self.solver, &self.arena, 0, sinks, self.parallelism)
    }

    /// Checks that `scheme` delivers at least `claimed` and returns the measured
    /// throughput ([`EvalCtx::throughput`]): the one claim check of the crate, behind
    /// every [`SolveRecorder::finish`] and the experiment sweeps' certification stages.
    /// The claim holds when the measured value is within a relative `1e-6` of it.
    ///
    /// # Errors
    ///
    /// [`CoreError::VerificationFailed`] with the measured value when the scheme falls
    /// short of the claim beyond the tolerance, or with `achieved` 0 when the context's
    /// fault script fails this check ([`FaultSite::Verify`]).
    pub fn verify(&mut self, scheme: &BroadcastScheme, claimed: f64) -> Result<f64, CoreError> {
        let achieved = self.throughput(scheme);
        let injected = self.intercept_fault(FaultSite::Verify).is_some();
        if injected || achieved + VERIFY_TOL * claimed.max(1.0) < claimed {
            return Err(CoreError::VerificationFailed {
                claimed,
                achieved: if injected { 0.0 } else { achieved },
            });
        }
        Ok(achieved)
    }

    /// Maximum flow from the source to `receiver` in `scheme`'s weighted digraph
    /// (on the context's arena, like [`EvalCtx::throughput`]).
    pub fn max_flow_to(&mut self, scheme: &BroadcastScheme, receiver: NodeId) -> f64 {
        scheme.edges_into(&mut self.scratch_edges);
        self.arena
            .rebuild(scheme.instance().num_nodes(), &self.scratch_edges);
        self.flow_solves += 1;
        self.solver.max_flow(&self.arena, 0, receiver)
    }
}

/// Buffers of the acyclic cut certificate of [`EvalCtx::masked_throughput`], kept on
/// the context so a steady-state evaluation allocates nothing.
#[derive(Debug, Clone, Default)]
struct AcyclicCut {
    /// CSR offsets of the edge list per sender (`edges_into` groups it by sender).
    row_start: Vec<usize>,
    /// Live in-edges not yet ordered, per node.
    indegree: Vec<u32>,
    /// Total live in-rate per node, summed in edge-list order.
    in_rate: Vec<f64>,
    /// FIFO of the Kahn pass: every node ever ready, in the order it became ready.
    queue: Vec<NodeId>,
}

impl AcyclicCut {
    /// Runs a FIFO Kahn pass over the live (nonzero-capacity) edges of `edges`, which
    /// must be grouped by sender, and sums every node's live in-rate. Returns whether
    /// every one of the `n` nodes got ordered, i.e. whether the live edges are acyclic.
    fn order(&mut self, n: usize, edges: &[(NodeId, NodeId, f64)]) -> bool {
        self.row_start.clear();
        self.row_start.resize(n + 1, 0);
        self.indegree.clear();
        self.indegree.resize(n, 0);
        self.in_rate.clear();
        self.in_rate.resize(n, 0.0);
        for &(from, to, rate) in edges {
            self.row_start[from + 1] += 1;
            if rate != 0.0 {
                self.indegree[to] += 1;
                self.in_rate[to] += rate;
            }
        }
        for node in 0..n {
            self.row_start[node + 1] += self.row_start[node];
        }
        self.queue.clear();
        self.queue
            .extend((0..n).filter(|&node| self.indegree[node] == 0));
        let mut head = 0;
        while let Some(&node) = self.queue.get(head) {
            head += 1;
            for &(_, to, rate) in &edges[self.row_start[node]..self.row_start[node + 1]] {
                if rate != 0.0 {
                    self.indegree[to] -= 1;
                    if self.indegree[to] == 0 {
                        self.queue.push(to);
                    }
                }
            }
        }
        self.queue.len() == n
    }

    /// The smallest live in-rate over `receivers` (`f64::INFINITY` when there is none),
    /// as summed by the last [`AcyclicCut::order`].
    fn min_in_rate(&self, receivers: impl Iterator<Item = NodeId>) -> f64 {
        receivers.fold(f64::INFINITY, |min, v| min.min(self.in_rate[v]))
    }
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
    /// constructed scheme fails its own verification ([`EvalCtx::verify`]).
    fn solve(&self, instance: &Instance, ctx: &mut EvalCtx) -> Result<Solution, CoreError>;
}

/// Timing/verification scaffolding shared by every [`Solver`] implementation —
/// including out-of-crate adapters such as the `bmp-trees` tree-decomposition solver.
///
/// Snapshot the context's counters with [`SolveRecorder::start`], run the algorithm,
/// then let [`SolveRecorder::finish`] verify the claimed throughput ([`EvalCtx::verify`]) and
/// assemble the [`Solution`] with the counter deltas as [`Telemetry`].
#[derive(Debug, Clone, Copy)]
pub struct SolveRecorder {
    started: Instant,
    cut_certifications: u64,
    flow_solves: u64,
    bisection_iters: u64,
}

impl SolveRecorder {
    /// Snapshots `ctx`'s counters and the wall clock at the start of a solve.
    #[must_use]
    pub fn start(ctx: &EvalCtx) -> Self {
        SolveRecorder {
            started: Instant::now(),
            cut_certifications: ctx.cut_certifications,
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
            cut_certifications: ctx.cut_certifications - self.cut_certifications,
            flow_solves: ctx.flow_solves - self.flow_solves,
            bisection_iters: ctx.bisection_iters - self.bisection_iters,
            wall_time: self.started.elapsed(),
        }
    }

    /// Verifies the claimed throughput through [`EvalCtx::verify`] and assembles the
    /// [`Solution`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VerificationFailed`] when [`EvalCtx::verify`] rejects the
    /// claim, or [`CoreError::InjectedFault`] when the context's fault script fails this
    /// solve.
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
        let achieved = ctx.verify(&scheme, throughput)?;
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
        // The acyclic scheme is certified by its cut, without a max-flow, and the
        // certified value is the Dinic oracle's.
        assert!(solution.scheme.is_acyclic());
        assert!(solution.telemetry.cut_certifications > 0);
        assert_eq!(solution.telemetry.flow_solves, 0);
        let oracle = FlowSolver::new().min_max_flow(
            &FlowArena::from_edges(instance.num_nodes(), &solution.scheme.edges()),
            0,
            &instance.receivers().collect::<Vec<_>>(),
        );
        let certified = solution.verified_throughput;
        assert!((certified - oracle).abs() <= 1e-12 * certified.max(1.0));
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
    fn reused_eval_ctx_tracks_rate_changes_exactly() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        // The solve's own verification used the context's arena; every following
        // evaluation — including one with a perturbed rate — rebuilds it in place and
        // must match a from-scratch evaluation.
        let t1 = ctx.throughput(&scheme);
        assert_eq!(t1, EvalCtx::new().throughput(&scheme));
        let (from, to, rate) = scheme.edges()[0];
        scheme.set_rate(from, to, rate * 0.5);
        let t2 = ctx.throughput(&scheme);
        assert!(t2 <= t1 + 1e-12);
        assert_eq!(t2, EvalCtx::new().throughput(&scheme));
    }

    #[test]
    fn retained_arena_is_exact_across_diverging_scheme_objects() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut a = solution.scheme;
        let _ = ctx.throughput(&a);
        // Evaluating a diverged clone, then the original, must not leave either one's
        // capacities behind for the other.
        let mut b = a.clone();
        let (from, to, rate) = a.edges()[0];
        b.set_rate(from, to, rate * 0.25);
        assert_eq!(ctx.throughput(&b), EvalCtx::new().throughput(&b));
        a.set_rate(from, to, rate * 0.75);
        assert_eq!(ctx.throughput(&a), EvalCtx::new().throughput(&a));
        // An edge-set change on A (edge removed) is exact too.
        a.set_rate(from, to, 0.0);
        assert_eq!(ctx.throughput(&a), EvalCtx::new().throughput(&a));
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_including_counters() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let mut scheme = solution.scheme;
        // Two fresh contexts run the same evaluation sequence — nominal, then two
        // perturbations — one sequential, one fanned out over four lanes.
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
        // The fan-out changes wall time only: the solve counter matches too.
        assert_eq!(par.flow_solves(), seq.flow_solves());
        // Other fan-outs agree too, including the auto heuristic (sequential at this
        // size) and a fan-out wider than the receiver count.
        let expected = seq.throughput(&scheme);
        for threads in [0, 2, 3, 64] {
            par.set_parallelism(threads);
            assert_eq!(par.throughput(&scheme), expected, "threads {threads}");
        }
    }

    #[test]
    fn pooled_evaluation_keeps_the_retained_arena_exact() {
        let instance = figure1();
        let mut ctx = EvalCtx::new();
        ctx.set_parallelism(4);
        let solution = AcyclicGuardedAlgorithm.solve(&instance, &mut ctx).unwrap();
        let mut scheme = solution.scheme;
        let _ = ctx.throughput(&scheme);
        // A fanned-out evaluation only borrows the context's arena, so the next one
        // rebuilds it from the new rates like a sequential evaluation would.
        for step in 1..=3 {
            let (from, to, rate) = scheme.edges()[0];
            scheme.set_rate(from, to, rate * (1.0 - 0.1 * f64::from(step)));
            let pooled = ctx.throughput(&scheme);
            assert_eq!(pooled, EvalCtx::new().throughput(&scheme));
        }
    }

    #[test]
    fn eval_ctx_max_flow_matches_a_fresh_arena_solve() {
        let instance = figure1();
        let solution = AcyclicGuardedAlgorithm
            .solve(&instance, &mut EvalCtx::new())
            .unwrap();
        let arena = FlowArena::from_edges(instance.num_nodes(), &solution.scheme.edges());
        let mut ctx = EvalCtx::new();
        for receiver in instance.receivers() {
            assert_eq!(
                ctx.max_flow_to(&solution.scheme, receiver),
                FlowSolver::new().max_flow(&arena, 0, receiver)
            );
        }
    }

    #[test]
    fn verify_rejects_a_shortfall_beyond_the_tolerance_with_the_measured_value() {
        // Every registry solver handles this open-only instance. Scaling every rate
        // scales the throughput by the same factor.
        let instance = Instance::open_only(10.0, vec![4.0, 4.0, 1.0]).unwrap();
        let mut ctx = EvalCtx::new();
        for solver in registry() {
            let solution = solver.solve(&instance, &mut ctx).unwrap();
            let claimed = solution.throughput;
            for (shortfall, accepted) in [(0.1 * VERIFY_TOL, true), (10.0 * VERIFY_TOL, false)] {
                let mut scaled = solution.scheme.clone();
                for (from, to, rate) in solution.scheme.edges() {
                    scaled.set_rate(from, to, rate * (1.0 - shortfall));
                }
                let measured = ctx.throughput(&scaled);
                let result = ctx.verify(&scaled, claimed);
                if accepted {
                    assert_eq!(result.unwrap(), measured, "{}", solver.name());
                } else {
                    assert!(
                        matches!(result, Err(CoreError::VerificationFailed { claimed: c, achieved })
                            if c == claimed && achieved == measured),
                        "{}: {result:?}",
                        solver.name()
                    );
                }
            }
        }
    }
}
