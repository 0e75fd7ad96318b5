//! Tight homogeneous instances (Section VI-A) and the Figure 7 exploration.
//!
//! An instance is *homogeneous* when all open nodes share a bandwidth `o` and all guarded
//! nodes share a bandwidth `g`, and *tight* when `b_0 = (b_0+O+G)/(n+m) = T*` (no bandwidth
//! can be wasted by an optimal cyclic solution). Lemma 11.1 shows the worst acyclic/cyclic
//! ratio is always attained on tight homogeneous instances, which is why Figure 7 of the
//! paper explores exactly this family: for `b_0 = 1` the family is parameterised by
//! `Δ ∈ [0, n]` with `o = (m−1+Δ)/n` and `g = (n−Δ)/m`.

use crate::acyclic_guarded::AcyclicGuardedSolver;
use crate::bounds::cyclic_upper_bound;
use crate::solver::EvalCtx;
use bmp_platform::Instance;

/// Builds the tight homogeneous instance with parameters `(n, m, Δ)` and `b_0 = T* = 1`.
///
/// Conventions for the degenerate cases:
///
/// * `m = 0`: the tight open-only instance has `o = (n−1)/n` (requires `n ≥ 1`),
/// * `n = 0`: a tight instance only exists for `m = 1` (a single guarded node of bandwidth 0).
///
/// Returns `None` when no tight homogeneous instance exists for these parameters (e.g.
/// `n = 0, m ≥ 2`, or `Δ ∉ [0, n]`).
#[must_use]
pub fn tight_homogeneous(n: usize, m: usize, delta: f64) -> Option<Instance> {
    if n + m == 0 || delta < 0.0 || delta > n as f64 {
        return None;
    }
    if n == 0 {
        // Guarded nodes can only be fed by the source: tightness (T* = b0 = 1) forces m = 1.
        if m == 1 {
            return Instance::new(1.0, vec![], vec![0.0]).ok();
        }
        return None;
    }
    if m == 0 {
        let o = (n as f64 - 1.0) / n as f64;
        return Instance::new(1.0, vec![o; n], vec![]).ok();
    }
    let o = (m as f64 - 1.0 + delta) / n as f64;
    let g = (n as f64 - delta) / m as f64;
    if o < 0.0 || g < 0.0 {
        return None;
    }
    Instance::new(1.0, vec![o; n], vec![g; m]).ok()
}

/// The admissible range of `Δ` for `(n, m)`, i.e. `[0, n]` (present for symmetry with the
/// experiment harness; returns `None` when no tight instance exists at all).
#[must_use]
pub fn delta_range(n: usize, m: usize) -> Option<(f64, f64)> {
    if n == 0 && m != 1 {
        return None;
    }
    if n + m == 0 {
        return None;
    }
    Some((0.0, n as f64))
}

/// Result of the Figure 7 worst-`Δ` exploration for one `(n, m)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomogeneousRatio {
    /// Number of open nodes.
    pub n: usize,
    /// Number of guarded nodes.
    pub m: usize,
    /// The `Δ` value achieving the worst ratio on the explored grid.
    pub worst_delta: f64,
    /// The worst ratio `T*_ac / T*` over the explored `Δ` grid.
    pub worst_ratio: f64,
}

/// Explores `Δ` on a regular grid of `delta_steps + 1` points and returns the worst
/// acyclic/cyclic ratio for the `(n, m)` cell of Figure 7.
///
/// Returns `None` when no tight homogeneous instance exists for `(n, m)`.
#[must_use]
pub fn worst_ratio_over_delta(
    n: usize,
    m: usize,
    delta_steps: usize,
    solver: &AcyclicGuardedSolver,
) -> Option<HomogeneousRatio> {
    delta_range(n, m)?;
    let steps = delta_steps.max(1);
    let mut worst_ratio = f64::INFINITY;
    let mut worst_delta = 0.0;
    for k in 0..=steps {
        let delta = n as f64 * k as f64 / steps as f64;
        let Some(instance) = tight_homogeneous(n, m, delta) else {
            continue;
        };
        let t_star = cyclic_upper_bound(&instance);
        if t_star <= 0.0 {
            continue;
        }
        let (acyclic, _) = solver.optimal_throughput(&instance);
        let ratio = acyclic / t_star;
        if ratio < worst_ratio {
            worst_ratio = ratio;
            worst_delta = delta;
        }
        if n == 0 || m == 0 {
            break; // Δ is irrelevant in the degenerate cases.
        }
    }
    if worst_ratio.is_finite() {
        Some(HomogeneousRatio {
            n,
            m,
            worst_delta,
            worst_ratio,
        })
    } else {
        None
    }
}

/// [`worst_ratio_over_delta`], additionally *certifying* the worst cell through an
/// explicit evaluation context: the scheme realising the worst ratio is rebuilt from its
/// coding word and re-scored by max-flow through `ctx`, so the dichotomic value the
/// figure reports is backed by an explicit overlay. This is the entry point the Figure 7
/// sweep threads its per-worker [`EvalCtx`] through.
///
/// # Panics
///
/// Panics when the certification fails — a constructed scheme under-delivering its
/// dichotomic throughput is a solver bug, not a data point.
#[must_use]
pub fn worst_ratio_over_delta_with(
    n: usize,
    m: usize,
    delta_steps: usize,
    solver: &AcyclicGuardedSolver,
    ctx: &mut EvalCtx,
) -> Option<HomogeneousRatio> {
    let cell = worst_ratio_over_delta(n, m, delta_steps, solver)?;
    if let Some(instance) = tight_homogeneous(cell.n, cell.m, cell.worst_delta) {
        let (throughput, word) = solver.optimal_throughput(&instance);
        if throughput > 0.0 {
            let scheme = solver
                .scheme_for_word(&instance, throughput, &word)
                .expect("the dichotomic word is valid at its own throughput");
            ctx.verify(&scheme, throughput)
                .expect("the worst cell's scheme delivers its dichotomic throughput");
        }
    }
    Some(cell)
}

/// The six extreme homogeneous cases used in the proof of Theorem 6.2 (cases A1/A2, B1/B2,
/// C1/C2), all with `b_0 = 1`.
#[must_use]
pub fn theorem62_case_instance(case: Theorem62Case, n: usize, m: usize) -> Option<Instance> {
    if n == 0 || m == 0 {
        return None;
    }
    let (o, g) = match case {
        Theorem62Case::A1 | Theorem62Case::C1 => ((m as f64 - 1.0) / n as f64, n as f64 / m as f64),
        Theorem62Case::A2 | Theorem62Case::B2 => ((n as f64 + m as f64 - 1.0) / n as f64, 0.0),
        Theorem62Case::B1 | Theorem62Case::C2 => (1.0, (m as f64 - 1.0) / m as f64),
    };
    Instance::new(1.0, vec![o; n], vec![g; m]).ok()
}

/// Labels for the six extreme cases of the Theorem 6.2 proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Theorem62Case {
    /// `m ≥ n+1`, `o = (m−1)/n`, `g = n/m`.
    A1,
    /// `m ≥ n+1`, `o = (n+m−1)/n`, `g = 0`.
    A2,
    /// `m ≤ n`, `o = 1`, `g = (m−1)/m`.
    B1,
    /// `m ≤ n`, `o = (n+m−1)/n`, `g = 0`.
    B2,
    /// `m ≤ n`, `o = (m−1)/n`, `g = n/m`.
    C1,
    /// `m ≤ n`, `o = 1`, `g = (m−1)/m`.
    C2,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::five_sevenths;
    use crate::omega::best_omega_throughput;

    #[test]
    fn tight_instances_are_tight() {
        for (n, m) in [(1usize, 2usize), (3, 3), (5, 2), (2, 5), (10, 4)] {
            for k in 0..=4 {
                let delta = n as f64 * k as f64 / 4.0;
                let inst = tight_homogeneous(n, m, delta).unwrap();
                let t_star = cyclic_upper_bound(&inst);
                assert!(
                    (t_star - 1.0).abs() < 1e-9,
                    "({n},{m},Δ={delta}): T* = {t_star}"
                );
                // Total bandwidth equals (n+m)·T*: nothing can be wasted.
                assert!((inst.total_bandwidth() - (n + m) as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn degenerate_cases() {
        assert!(tight_homogeneous(0, 0, 0.0).is_none());
        assert!(tight_homogeneous(0, 2, 0.0).is_none());
        assert!(tight_homogeneous(0, 1, 0.0).is_some());
        assert!(tight_homogeneous(2, 3, -0.5).is_none());
        assert!(tight_homogeneous(2, 3, 2.5).is_none());
        let open_only = tight_homogeneous(4, 0, 0.0).unwrap();
        assert!((cyclic_upper_bound(&open_only) - 1.0).abs() < 1e-12);
        assert_eq!(delta_range(0, 3), None);
        assert_eq!(delta_range(3, 2), Some((0.0, 3.0)));
    }

    #[test]
    fn ratio_never_below_five_sevenths() {
        let solver = AcyclicGuardedSolver::default();
        for n in 1..=6 {
            for m in 0..=6 {
                if let Some(result) = worst_ratio_over_delta(n, m, 4, &solver) {
                    assert!(
                        result.worst_ratio >= five_sevenths() - 1e-6,
                        "({n},{m}): ratio {} below 5/7",
                        result.worst_ratio
                    );
                    assert!(result.worst_ratio <= 1.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn five_sevenths_attained_near_figure18_shape() {
        // n = 1, m = 2: the Figure 18 instance is tight homogeneous with Δ = n·(2ε·…);
        // the worst Δ must bring the ratio down to exactly 5/7.
        let solver = AcyclicGuardedSolver::default();
        let result = worst_ratio_over_delta(1, 2, 64, &solver).unwrap();
        assert!(
            (result.worst_ratio - five_sevenths()).abs() < 5e-3,
            "worst ratio = {}",
            result.worst_ratio
        );
    }

    #[test]
    fn open_only_cells_approach_one() {
        // Without guarded nodes the ratio is 1 − o·…/… ≥ 1 − 1/n and tends to 1.
        let solver = AcyclicGuardedSolver::default();
        let r5 = worst_ratio_over_delta(5, 0, 1, &solver).unwrap();
        let r50 = worst_ratio_over_delta(50, 0, 1, &solver).unwrap();
        assert!(r50.worst_ratio > r5.worst_ratio);
        assert!(r50.worst_ratio > 0.97);
    }

    #[test]
    fn theorem63_diagonal_stays_below_093() {
        // Along m ≈ ((√41−3)/8)·n the ratio stays bounded away from 1 (Theorem 6.3).
        let solver = AcyclicGuardedSolver::default();
        let alpha = bmp_platform::paper::theorem63_alpha();
        for n in [40usize, 80] {
            let m = (alpha * n as f64).round() as usize;
            // Integer Δ grid, as in the exhaustive exploration of Figure 7.
            let result = worst_ratio_over_delta(n, m, n, &solver).unwrap();
            assert!(
                result.worst_ratio < 0.95,
                "(n={n}, m={m}): ratio {} not bounded away from 1",
                result.worst_ratio
            );
            assert!(result.worst_ratio >= five_sevenths() - 1e-9);
        }
    }

    #[test]
    fn omega_words_honour_five_sevenths_on_tight_homogeneous() {
        // The constructive statement behind Theorem 6.2: on tight homogeneous instances the
        // better of ω1/ω2 reaches at least 5/7 of the cyclic optimum.
        for n in 1..=6 {
            for m in 1..=6 {
                for k in 0..=3 {
                    let delta = n as f64 * k as f64 / 3.0;
                    let inst = tight_homogeneous(n, m, delta).unwrap();
                    let (best, _) = best_omega_throughput(&inst, 1e-10);
                    assert!(
                        best >= five_sevenths() - 1e-6,
                        "(n={n}, m={m}, Δ={delta}): best omega word reaches only {best}"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem62_case_instances_have_unit_cyclic_optimum() {
        for case in [
            Theorem62Case::A1,
            Theorem62Case::A2,
            Theorem62Case::B1,
            Theorem62Case::B2,
            Theorem62Case::C1,
            Theorem62Case::C2,
        ] {
            let inst = theorem62_case_instance(case, 4, 3).unwrap();
            let t = cyclic_upper_bound(&inst);
            assert!(t <= 1.0 + 1e-9, "{case:?}: T* = {t}");
        }
        assert!(theorem62_case_instance(Theorem62Case::A1, 0, 3).is_none());
    }
}
