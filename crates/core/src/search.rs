//! The dichotomic driver behind every bisection in the crate.
//!
//! The Theorem 4.1 solver ([`crate::acyclic_guarded`]), the per-word optimum
//! ([`crate::word::optimal_throughput_for_word`], which also serves the per-order search
//! of [`crate::conservative`]) and the exhaustive oracle ([`crate::exhaustive`]) all
//! drive [`DichotomicSearch::maximize`], which fixes the bracketing convention (`lo`
//! feasible, `hi` infeasible), the relative stopping rule, and the defensive iteration
//! cap in one place, and reports how many probes were spent so callers can surface it
//! as telemetry ([`crate::solver::Telemetry::bisection_iters`]).
//!
//! The search is plain bisection: one probe per step, each probe a call of the caller's
//! monotone predicate.

/// Dichotomic search over a monotone feasibility predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DichotomicSearch {
    /// Relative precision of the search: the loop stops once the bracket width drops
    /// below `tolerance * hi.max(1.0)`.
    pub tolerance: f64,
    /// Maximum number of bisection iterations (defensive cap; 200 halvings exhaust an
    /// `f64` bracket long before this triggers).
    pub max_iterations: usize,
}

impl Default for DichotomicSearch {
    fn default() -> Self {
        DichotomicSearch {
            tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

/// Result of a [`DichotomicSearch::maximize`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOutcome {
    /// Largest value found feasible (a lower bound on the true supremum, within the
    /// search tolerance).
    pub value: f64,
    /// Number of predicate probes spent, including the initial probe of `upper`.
    pub probes: u64,
}

impl DichotomicSearch {
    /// Creates a driver with a custom relative tolerance and the default iteration cap.
    #[must_use]
    pub fn with_tolerance(tolerance: f64) -> Self {
        DichotomicSearch {
            tolerance,
            ..Self::default()
        }
    }

    /// Largest `t ∈ [0, upper]` with `feasible(t)`, assuming `feasible` is monotone
    /// (feasible on an interval starting at 0) and `feasible(0)` holds.
    ///
    /// When `upper <= 0` the search returns 0 without probing. When `upper` itself is
    /// feasible it is returned after a single probe. Otherwise the invariant `lo`
    /// feasible / `hi` infeasible is maintained until the bracket is narrower than
    /// `tolerance * hi.max(1.0)` and the feasible end is returned.
    pub fn maximize(&self, upper: f64, feasible: impl FnMut(f64) -> bool) -> SearchOutcome {
        self.maximize_from(0.0, upper, feasible)
    }

    /// [`DichotomicSearch::maximize`] warm-started from a caller-supplied bracket hint:
    /// a value the caller believes to be feasible (e.g. the verified residual throughput
    /// of an already-deployed overlay, in the repair path).
    ///
    /// The hint is advisory, never trusted: when `0 < lower_hint < upper` it is probed
    /// once after the initial `upper` probe, and the bracket starts at `[hint, upper]`
    /// when the probe confirms it or `[0, hint]` when it refutes it — the feasible-lo /
    /// infeasible-hi invariant holds either way, so a hint that overshoots the true
    /// optimum (a cyclic residual above the acyclic optimum, say) only narrows the
    /// bracket from the other side. A hint outside `(0, upper)` is ignored and the
    /// search is exactly [`DichotomicSearch::maximize`], probe for probe.
    pub fn maximize_from(
        &self,
        lower_hint: f64,
        upper: f64,
        mut feasible: impl FnMut(f64) -> bool,
    ) -> SearchOutcome {
        if upper <= 0.0 {
            return SearchOutcome {
                value: 0.0,
                probes: 0,
            };
        }
        let mut probes = 1;
        if feasible(upper) {
            return SearchOutcome {
                value: upper,
                probes,
            };
        }
        let mut lo = 0.0_f64;
        let mut hi = upper;
        if lower_hint > 0.0 && lower_hint < upper {
            probes += 1;
            if feasible(lower_hint) {
                lo = lower_hint;
            } else {
                hi = lower_hint;
            }
        }
        for _ in 0..self.max_iterations {
            if hi - lo <= self.tolerance * hi.max(1.0) {
                break;
            }
            let mid = 0.5 * (lo + hi);
            probes += 1;
            if feasible(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        SearchOutcome { value: lo, probes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_threshold_of_a_step_predicate() {
        let search = DichotomicSearch::default();
        let outcome = search.maximize(10.0, |t| t <= std::f64::consts::PI);
        assert!((outcome.value - std::f64::consts::PI).abs() < 1e-9);
        assert!(outcome.probes > 10);
    }

    #[test]
    fn feasible_upper_returns_immediately() {
        let search = DichotomicSearch::default();
        let outcome = search.maximize(4.0, |_| true);
        assert_eq!(outcome.value, 4.0);
        assert_eq!(outcome.probes, 1);
    }

    #[test]
    fn non_positive_upper_skips_probing() {
        let search = DichotomicSearch::default();
        let outcome = search.maximize(0.0, |_| panic!("must not probe"));
        assert_eq!(outcome.value, 0.0);
        assert_eq!(outcome.probes, 0);
        assert_eq!(search.maximize(-3.0, |_| panic!()).value, 0.0);
    }

    #[test]
    fn tolerance_controls_probe_count() {
        let coarse = DichotomicSearch::with_tolerance(1e-3);
        let fine = DichotomicSearch::with_tolerance(1e-12);
        let coarse_probes = coarse.maximize(8.0, |t| t <= 5.5).probes;
        let fine_probes = fine.maximize(8.0, |t| t <= 5.5).probes;
        assert!(coarse_probes < fine_probes);
        // Both brackets still contain the threshold from below.
        assert!(coarse.maximize(8.0, |t| t <= 5.5).value <= 5.5);
    }

    #[test]
    fn feasible_hint_narrows_the_bracket_without_changing_the_answer() {
        // The repair scenario: the residual hint sits close to the upper bound, so the
        // initial bracket [hint, upper] is much narrower than [0, upper] and the probe
        // spent confirming the hint pays for itself several times over.
        let search = DichotomicSearch::default();
        let threshold = 9.0;
        let cold = search.maximize(10.0, |t| t <= threshold);
        let warm = search.maximize_from(8.9, 10.0, |t| t <= threshold);
        assert!((warm.value - threshold).abs() < 1e-8);
        assert!(
            warm.value >= 8.9,
            "the confirmed hint is a floor on the answer"
        );
        assert!(
            warm.probes < cold.probes,
            "warm {} vs cold {}",
            warm.probes,
            cold.probes
        );
    }

    #[test]
    fn infeasible_hint_is_refuted_and_still_brackets_the_threshold() {
        // The hint overshoots the true optimum (the cyclic-residual case): the probe
        // refutes it and the bracket collapses to [0, hint] — correct answer anyway.
        let search = DichotomicSearch::default();
        let outcome = search.maximize_from(7.0, 10.0, |t| t <= 2.5);
        assert!((outcome.value - 2.5).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_hints_degenerate_to_the_cold_search() {
        let search = DichotomicSearch::default();
        let cold = search.maximize(8.0, |t| t <= 5.5);
        for hint in [0.0, -1.0, 8.0, 9.5] {
            let warm = search.maximize_from(hint, 8.0, |t| t <= 5.5);
            assert_eq!(warm, cold, "hint {hint} must be ignored");
        }
        // A feasible upper short-circuits before the hint is ever probed.
        let outcome = search.maximize_from(2.0, 4.0, |_| true);
        assert_eq!(outcome.probes, 1);
        assert_eq!(outcome.value, 4.0);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let search = DichotomicSearch {
            tolerance: 0.0,
            max_iterations: 7,
        };
        let outcome = search.maximize(1.0, |t| t <= 0.3);
        // One probe of the upper bound plus at most seven bisection probes.
        assert!(outcome.probes <= 8);
        assert!(outcome.value <= 0.3);
    }
}
