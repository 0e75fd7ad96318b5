//! Acyclic broadcast with guarded nodes: dichotomic search for the optimal throughput
//! (Theorem 4.1) and the low-degree scheme construction of Lemma 4.6.
//!
//! There is no closed form for the optimal acyclic throughput in the presence of guarded
//! nodes; the paper combines the linear-time feasibility test of Algorithm 2 with a
//! dichotomic search on `T`. Once a valid coding word is known, an explicit scheme is built
//! by feeding every node from the *earliest* previously-placed nodes that still have unused
//! upload bandwidth, guarded bandwidth first for open receivers (conservative solutions).
//! The resulting outdegrees satisfy
//!
//! * `o_j ≤ ⌈b_j/T⌉ + 1` for every guarded node,
//! * `o_i ≤ ⌈b_i/T⌉ + 2` for every open node except at most one,
//! * `o_i ≤ ⌈b_i/T⌉ + 3` for that remaining open node.

use crate::bounds::cyclic_upper_bound;
use crate::error::CoreError;
use crate::greedy::{greedy_test, GreedyOutcome};
use crate::scheme::BroadcastScheme;
use crate::search::DichotomicSearch;
use crate::word::{CodingWord, Symbol};
use bmp_platform::{Instance, NodeId};

/// A solved acyclic instance: throughput, encoding word and explicit low-degree scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct AcyclicSolution {
    /// Achieved (near-optimal) acyclic throughput.
    pub throughput: f64,
    /// The coding word / increasing order realising it.
    pub word: CodingWord,
    /// The explicit low-degree broadcast scheme.
    pub scheme: BroadcastScheme,
}

/// Solver for the acyclic problem with guarded nodes (dichotomic search over Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct AcyclicGuardedSolver {
    /// Relative precision of the dichotomic search.
    pub tolerance: f64,
    /// Maximum number of bisection iterations (defensive cap).
    pub max_iterations: usize,
}

impl Default for AcyclicGuardedSolver {
    fn default() -> Self {
        AcyclicGuardedSolver {
            tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

impl AcyclicGuardedSolver {
    /// Creates a solver with a custom relative tolerance.
    #[must_use]
    pub fn with_tolerance(tolerance: f64) -> Self {
        AcyclicGuardedSolver {
            tolerance,
            ..Self::default()
        }
    }

    /// Whether throughput `t` is acyclically feasible (Algorithm 2).
    #[must_use]
    pub fn is_feasible(&self, instance: &Instance, t: f64) -> bool {
        greedy_test(instance, t).is_feasible()
    }

    /// The shared bisection driver configured with this solver's tolerance and cap.
    #[must_use]
    pub fn search(&self) -> DichotomicSearch {
        DichotomicSearch {
            tolerance: self.tolerance,
            max_iterations: self.max_iterations,
        }
    }

    /// Optimal acyclic throughput `T*_ac` (up to the solver tolerance) together with a valid
    /// coding word attaining it.
    #[must_use]
    pub fn optimal_throughput(&self, instance: &Instance) -> (f64, CodingWord) {
        let (throughput, word, _) = self.optimal_throughput_traced(instance);
        (throughput, word)
    }

    /// Like [`AcyclicGuardedSolver::optimal_throughput`], additionally reporting the number
    /// of bisection probes spent (surfaced as telemetry by the solver registry).
    #[must_use]
    pub fn optimal_throughput_traced(&self, instance: &Instance) -> (f64, CodingWord, u64) {
        self.optimal_throughput_traced_from(0.0, instance)
    }

    /// [`AcyclicGuardedSolver::optimal_throughput_traced`] warm-started from a
    /// caller-known throughput hint ([`DichotomicSearch::maximize_from`]): the incremental
    /// repair path seeds the bisection with the residual throughput its probe already
    /// verified, so the search starts from a bracket `[residual, upper]` instead of
    /// `[0, upper]`. The hint is probed, not trusted — a residual above the acyclic
    /// optimum (a cyclic deployed overlay) is refuted and merely narrows the bracket
    /// from above. A non-positive hint reproduces the cold search probe for probe.
    #[must_use]
    pub fn optimal_throughput_traced_from(
        &self,
        lower_hint: f64,
        instance: &Instance,
    ) -> (f64, CodingWord, u64) {
        let upper = cyclic_upper_bound(instance);
        let outcome = self
            .search()
            .maximize_from(lower_hint, upper, |t| self.is_feasible(instance, t));
        let word = greedy_test(instance, outcome.value)
            .word()
            .cloned()
            .unwrap_or_default();
        (outcome.value, word, outcome.probes)
    }

    /// Builds the low-degree scheme of Lemma 4.6 for a valid word at throughput `t`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWord`] when the word does not match the instance or is not
    /// valid for `t`.
    pub fn scheme_for_word(
        &self,
        instance: &Instance,
        t: f64,
        word: &CodingWord,
    ) -> Result<BroadcastScheme, CoreError> {
        if !word.is_complete_for(instance) {
            return Err(CoreError::InvalidWord(format!(
                "word {word} does not match instance (n={}, m={})",
                instance.n(),
                instance.m()
            )));
        }
        if !crate::word::is_valid_word(instance, t, word) {
            return Err(CoreError::InvalidWord(format!(
                "word {word} is not valid for throughput {t}"
            )));
        }
        Ok(build_scheme(instance, t, word))
    }

    /// Builds a low-degree scheme achieving throughput `t`, if `t` is acyclically feasible.
    #[must_use]
    pub fn scheme_for_throughput(&self, instance: &Instance, t: f64) -> Option<BroadcastScheme> {
        match greedy_test(instance, t) {
            GreedyOutcome::Feasible { word, .. } => Some(build_scheme(instance, t, &word)),
            GreedyOutcome::Infeasible { .. } => None,
        }
    }

    /// Solves the instance: optimal throughput, word and explicit scheme.
    #[must_use]
    pub fn solve(&self, instance: &Instance) -> AcyclicSolution {
        let (throughput, word) = self.optimal_throughput(instance);
        let scheme = build_scheme(instance, throughput, &word);
        AcyclicSolution {
            throughput,
            word,
            scheme,
        }
    }
}

/// Earliest-feeder conservative construction: each node of the order receives exactly `t`,
/// drawn from guarded bandwidth first (for open receivers) and from the earliest placed
/// nodes with unused upload.
fn build_scheme(instance: &Instance, t: f64, word: &CodingWord) -> BroadcastScheme {
    let mut scheme = BroadcastScheme::new(instance.clone());
    if t <= 0.0 {
        return scheme;
    }
    let tol = 1e-12 * t.max(1.0);
    // Remaining upload of every node.
    let mut remaining: Vec<f64> = (0..instance.num_nodes())
        .map(|i| instance.bandwidth(i))
        .collect();
    // Placed feeders by class, in placement order, with a cursor to the earliest one that may
    // still have unused upload.
    let mut open_feeders: Vec<NodeId> = vec![0];
    let mut guarded_feeders: Vec<NodeId> = Vec::new();
    let mut open_cursor = 0usize;
    let mut guarded_cursor = 0usize;
    let mut next_open = 1usize;
    let mut next_guarded = 1usize;

    for &symbol in word.symbols() {
        let (receiver, use_guarded_pool) = match symbol {
            Symbol::Open => {
                let id = instance.open_id(next_open);
                next_open += 1;
                (id, true)
            }
            Symbol::Guarded => {
                let id = instance.guarded_id(next_guarded);
                next_guarded += 1;
                (id, false)
            }
        };
        let mut need = t;
        if use_guarded_pool {
            drain(
                &mut scheme,
                &mut remaining,
                &guarded_feeders,
                &mut guarded_cursor,
                receiver,
                &mut need,
                tol,
            );
        }
        drain(
            &mut scheme,
            &mut remaining,
            &open_feeders,
            &mut open_cursor,
            receiver,
            &mut need,
            tol,
        );
        debug_assert!(
            need <= 1e-6 * t.max(1.0),
            "receiver {receiver} is missing {need} of its demand (word not valid?)"
        );
        // The newly placed node becomes a potential feeder for the following ones.
        match symbol {
            Symbol::Open => open_feeders.push(receiver),
            Symbol::Guarded => guarded_feeders.push(receiver),
        }
    }
    scheme.prune_dust();
    scheme
}

/// Pours bandwidth from the feeders (starting at the cursor) into `receiver` until its demand
/// is met or the pool is exhausted.
fn drain(
    scheme: &mut BroadcastScheme,
    remaining: &mut [f64],
    feeders: &[NodeId],
    cursor: &mut usize,
    receiver: NodeId,
    need: &mut f64,
    tol: f64,
) {
    while *need > tol && *cursor < feeders.len() {
        let feeder = feeders[*cursor];
        let available = remaining[feeder];
        if available <= tol {
            *cursor += 1;
            continue;
        }
        let transfer = available.min(*need);
        scheme.add_rate(feeder, receiver, transfer);
        remaining[feeder] -= transfer;
        *need -= transfer;
        if remaining[feeder] <= tol {
            *cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{acyclic_open_optimum, cyclic_upper_bound, five_sevenths};
    use bmp_platform::paper::{figure1, figure18, figure18_tight_epsilon};
    use bmp_platform::{Instance, NodeClass};

    fn solver() -> AcyclicGuardedSolver {
        AcyclicGuardedSolver::default()
    }

    /// Checks the degree bounds of Theorem 4.1 on a scheme built from a greedy word.
    fn assert_degree_bounds(instance: &Instance, scheme: &BroadcastScheme, t: f64) {
        let mut open_excess_3 = 0usize;
        for node in 0..instance.num_nodes() {
            let excess = scheme.degree_excess(node, t);
            match instance.class(node) {
                NodeClass::Guarded => assert!(
                    excess <= 1,
                    "guarded node {node} has degree excess {excess}"
                ),
                NodeClass::Source | NodeClass::Open => {
                    assert!(excess <= 3, "open node {node} has degree excess {excess}");
                    if excess == 3 {
                        open_excess_3 += 1;
                    }
                }
            }
        }
        assert!(
            open_excess_3 <= 1,
            "{open_excess_3} open nodes have degree excess 3 (at most one allowed)"
        );
    }

    #[test]
    fn figure1_optimal_acyclic_is_4() {
        let solution = solver().solve(&figure1());
        assert!(
            (solution.throughput - 4.0).abs() < 1e-6,
            "throughput = {}",
            solution.throughput
        );
        assert!(solution.scheme.is_feasible());
        assert!(solution.scheme.is_acyclic());
        let achieved = solution.scheme.throughput();
        assert!(achieved + 1e-6 >= solution.throughput);
    }

    #[test]
    fn figure5_scheme_structure() {
        // At T = 4 the greedy word is ■©■©■ (order 0 3 1 4 2 5). The scheme built from it
        // must deliver 4 to every node and keep the paper's degree bounds.
        let inst = figure1();
        let scheme = solver().scheme_for_throughput(&inst, 4.0).unwrap();
        assert!(scheme.is_feasible(), "violations: {:?}", scheme.validate());
        for receiver in inst.receivers() {
            assert!(
                (scheme.received(receiver) - 4.0).abs() < 1e-9,
                "receiver {receiver} got {}",
                scheme.received(receiver)
            );
        }
        assert!((scheme.throughput() - 4.0).abs() < 1e-9);
        assert_degree_bounds(&inst, &scheme, 4.0);
        // Source feeds the first guarded node with its whole demand (conservative, earliest
        // feeder): c_{0,3} > 0.
        assert!(scheme.rate(0, 3) > 0.0);
    }

    #[test]
    fn figure18_solution_is_five_sevenths() {
        let inst = figure18(figure18_tight_epsilon()).unwrap();
        let solution = solver().solve(&inst);
        assert!(
            (solution.throughput - five_sevenths()).abs() < 1e-6,
            "throughput = {}",
            solution.throughput
        );
        assert!(solution.scheme.is_feasible());
        assert!((solution.scheme.throughput() - five_sevenths()).abs() < 1e-6);
    }

    #[test]
    fn open_only_matches_algorithm_1_optimum() {
        let inst = Instance::open_only(6.0, vec![5.0, 4.0, 3.0]).unwrap();
        let (t, word) = solver().optimal_throughput(&inst);
        assert!((t - acyclic_open_optimum(&inst).unwrap()).abs() < 1e-6);
        assert_eq!(word.to_string(), "ooo");
    }

    #[test]
    fn solution_never_exceeds_cyclic_bound() {
        let inst = figure1();
        let (t, _) = solver().optimal_throughput(&inst);
        assert!(t <= cyclic_upper_bound(&inst) + 1e-9);
    }

    #[test]
    fn guarded_only_instance() {
        let inst = Instance::new(6.0, vec![], vec![2.0, 1.0, 1.0]).unwrap();
        let solution = solver().solve(&inst);
        // Every guarded node must be fed directly by the source: T* = b0 / m = 2.
        assert!((solution.throughput - 2.0).abs() < 1e-6);
        assert!(solution.scheme.is_feasible());
        assert_eq!(solution.scheme.outdegree(0), 3);
        for g in inst.guarded_indices() {
            assert_eq!(solution.scheme.outdegree(g), 0);
        }
    }

    #[test]
    fn infeasible_throughput_returns_none() {
        let inst = figure1();
        assert!(solver().scheme_for_throughput(&inst, 4.2).is_none());
        assert!(solver().scheme_for_throughput(&inst, 100.0).is_none());
    }

    #[test]
    fn scheme_for_word_rejects_invalid_words() {
        let inst = figure1();
        let bad_counts = CodingWord::parse("oo").unwrap();
        assert!(solver().scheme_for_word(&inst, 1.0, &bad_counts).is_err());
        let invalid_at_4 = CodingWord::parse("ggoog").unwrap();
        assert!(solver().scheme_for_word(&inst, 4.0, &invalid_at_4).is_err());
    }

    #[test]
    fn scheme_for_word_accepts_figure2_word() {
        let inst = figure1();
        let word = CodingWord::parse("googg").unwrap();
        let scheme = solver().scheme_for_word(&inst, 4.0, &word).unwrap();
        assert!(scheme.is_feasible());
        assert!((scheme.throughput() - 4.0).abs() < 1e-9);
        assert!(scheme.is_acyclic());
    }

    #[test]
    fn degree_bounds_hold_on_varied_instances() {
        let instances = vec![
            figure1(),
            Instance::new(10.0, vec![8.0, 6.0, 5.0, 2.0], vec![7.0, 3.0, 1.0]).unwrap(),
            Instance::new(3.0, vec![9.0, 1.0], vec![4.0, 4.0, 0.5, 0.5]).unwrap(),
            Instance::new(5.0, vec![2.0; 10], vec![1.0; 10]).unwrap(),
            Instance::new(1.0, vec![0.5; 4], vec![3.0; 2]).unwrap(),
        ];
        let solver = solver();
        for inst in instances {
            let solution = solver.solve(&inst);
            assert!(solution.scheme.is_feasible());
            let achieved = solution.scheme.throughput();
            assert!(
                achieved + 1e-6 >= solution.throughput,
                "achieved {achieved} < claimed {}",
                solution.throughput
            );
            if solution.throughput > 1e-9 {
                assert_degree_bounds(&inst, &solution.scheme, solution.throughput);
            }
        }
    }

    #[test]
    fn acyclicity_of_constructed_schemes() {
        let inst = Instance::new(10.0, vec![8.0, 6.0, 5.0, 2.0], vec![7.0, 3.0, 1.0]).unwrap();
        let solution = solver().solve(&inst);
        let order = solution.scheme.topological_order().expect("acyclic");
        assert_eq!(order[0], 0);
    }

    #[test]
    fn dichotomic_search_brackets_the_optimum() {
        let inst = figure1();
        let s = solver();
        let (t, _) = s.optimal_throughput(&inst);
        assert!(s.is_feasible(&inst, t));
        assert!(!s.is_feasible(&inst, t + 1e-5));
    }
}
