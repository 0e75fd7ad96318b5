//! Worst-case experiments: the 5/7 instance of Figure 18, the `I(α, k)` family of
//! Theorem 6.3, the unbounded-degree family of Figure 6, and the `1 − 1/n` bound of
//! Theorem 6.1.

use crate::csvout::CsvTable;
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::bounds::{
    acyclic_open_optimum, cyclic_open_optimum, cyclic_upper_bound, theorem61_ratio_bound,
};
use bmp_core::worst_case::{
    theorem63_acyclic_upper_bound, theorem63_instance, unbounded_degree_instance,
    unbounded_degree_optimal_scheme,
};
use bmp_platform::paper::{figure18, theorem63_rational_alpha};
use bmp_platform::Instance;

/// One row of the ε-sweep on the Figure 18 family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure18Row {
    /// ε parameter of the instance.
    pub epsilon: f64,
    /// Optimal acyclic throughput.
    pub acyclic: f64,
    /// Optimal cyclic throughput (always 1 on this family).
    pub cyclic: f64,
    /// Their ratio.
    pub ratio: f64,
}

/// Sweeps ε over the Figure 18 family and reports the acyclic/cyclic ratio. The minimum is
/// reached at ε = 1/14 with ratio exactly 5/7.
#[must_use]
pub fn figure18_sweep(steps: usize) -> Vec<Figure18Row> {
    let steps = steps.max(2);
    let solver = AcyclicGuardedSolver::default();
    // ε ranges over [0, 0.25]; the interesting region is around 1/14 ≈ 0.0714.
    (0..steps)
        .map(|k| {
            let epsilon = 0.25 * k as f64 / (steps - 1) as f64;
            let instance = figure18(epsilon).expect("epsilon in range");
            let (acyclic, _) = solver.optimal_throughput(&instance);
            let cyclic = cyclic_upper_bound(&instance);
            Figure18Row {
                epsilon,
                acyclic,
                cyclic,
                ratio: acyclic / cyclic,
            }
        })
        .collect()
}

/// One row of the `I(α, k)` sweep of Theorem 6.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem63Row {
    /// Scale factor `k` (the instance has `k·q` open and `k·p` guarded nodes).
    pub k: u32,
    /// Number of open nodes.
    pub n: usize,
    /// Number of guarded nodes.
    pub m: usize,
    /// Optimal acyclic throughput (the cyclic optimum is 1).
    pub acyclic: f64,
    /// The analytic upper bound `max(f_α(⌊1/α⌋), g_α(⌈1/α⌉))`.
    pub analytic_bound: f64,
}

/// Sweeps `k` over the `I(α, k)` family with the rational `α = 17/40`.
#[must_use]
pub fn theorem63_sweep(max_k: u32) -> Vec<Theorem63Row> {
    let solver = AcyclicGuardedSolver::default();
    let (p, q) = theorem63_rational_alpha();
    let alpha = f64::from(p) / f64::from(q);
    let bound = theorem63_acyclic_upper_bound(alpha);
    (1..=max_k.max(1))
        .map(|k| {
            let instance = theorem63_instance(p, q, k).expect("valid parameters");
            let (acyclic, _) = solver.optimal_throughput(&instance);
            Theorem63Row {
                k,
                n: instance.n(),
                m: instance.m(),
                acyclic,
                analytic_bound: bound,
            }
        })
        .collect()
}

/// One row of the Figure 6 sweep: degree needed by the optimal cyclic scheme versus the
/// degree lower bound, and the throughput price paid by low-degree acyclic schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure6Row {
    /// Number of guarded nodes.
    pub m: usize,
    /// Source outdegree in the optimal cyclic scheme.
    pub cyclic_source_degree: usize,
    /// Degree lower bound `⌈b_0/T*⌉` (always 1 here).
    pub degree_lower_bound: usize,
    /// Optimal acyclic throughput (the cyclic optimum is 1).
    pub acyclic_throughput: f64,
}

/// Sweeps the Figure 6 family over `m`.
#[must_use]
pub fn figure6_sweep(ms: &[usize]) -> Vec<Figure6Row> {
    let solver = AcyclicGuardedSolver::default();
    ms.iter()
        .filter(|&&m| m >= 2)
        .map(|&m| {
            let scheme = unbounded_degree_optimal_scheme(m).expect("m >= 2");
            let instance = unbounded_degree_instance(m).expect("m >= 2");
            let (acyclic, _) = solver.optimal_throughput(&instance);
            Figure6Row {
                m,
                cyclic_source_degree: scheme.outdegree(0),
                degree_lower_bound: bmp_platform::node::degree_lower_bound(
                    instance.source_bandwidth(),
                    1.0,
                ),
                acyclic_throughput: acyclic,
            }
        })
        .collect()
}

/// One row of the Theorem 6.1 validation: random open-only instances and the `1 − 1/n` bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Theorem61Row {
    /// Number of open nodes.
    pub n: usize,
    /// Measured ratio `T*_ac / T*`.
    pub ratio: f64,
    /// The bound `1 − 1/n`.
    pub bound: f64,
}

/// Validates Theorem 6.1 on geometric bandwidth profiles of increasing size.
#[must_use]
pub fn theorem61_sweep(sizes: &[usize]) -> Vec<Theorem61Row> {
    sizes
        .iter()
        .filter(|&&n| n >= 1)
        .map(|&n| {
            let open: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) / n as f64).collect();
            let instance = Instance::open_only(10.0, open).expect("valid instance");
            let acyclic = acyclic_open_optimum(&instance).expect("open only");
            let cyclic = cyclic_open_optimum(&instance).expect("open only");
            Theorem61Row {
                n,
                ratio: acyclic / cyclic,
                bound: theorem61_ratio_bound(n),
            }
        })
        .collect()
}

/// Bundled worst-case report (all four sweeps), used by the `worst_case` binary and bench.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCaseReport {
    /// ε sweep of the 5/7 family.
    pub figure18: Vec<Figure18Row>,
    /// `k` sweep of the Theorem 6.3 family.
    pub theorem63: Vec<Theorem63Row>,
    /// `m` sweep of the Figure 6 family.
    pub figure6: Vec<Figure6Row>,
    /// `n` sweep of the Theorem 6.1 bound.
    pub theorem61: Vec<Theorem61Row>,
}

/// Runs all four worst-case sweeps with default parameters (`quick` shrinks them).
#[must_use]
pub fn run(quick: bool) -> WorstCaseReport {
    if quick {
        WorstCaseReport {
            figure18: figure18_sweep(15),
            theorem63: theorem63_sweep(2),
            figure6: figure6_sweep(&[2, 4, 8, 16]),
            theorem61: theorem61_sweep(&[2, 5, 10, 20]),
        }
    } else {
        WorstCaseReport {
            figure18: figure18_sweep(101),
            theorem63: theorem63_sweep(8),
            figure6: figure6_sweep(&[2, 4, 8, 16, 32, 64, 128, 256]),
            theorem61: theorem61_sweep(&[2, 5, 10, 20, 50, 100, 200, 500]),
        }
    }
}

impl WorstCaseReport {
    /// Renders all sweeps as a single CSV table with a `family` discriminating column.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new(&["family", "parameter", "value1", "value2", "value3"]);
        for row in &self.figure18 {
            table.push_row(vec![
                "figure18".into(),
                format!("{:.6}", row.epsilon),
                format!("{:.6}", row.acyclic),
                format!("{:.6}", row.cyclic),
                format!("{:.6}", row.ratio),
            ]);
        }
        for row in &self.theorem63 {
            table.push_row(vec![
                "theorem63".into(),
                format!("{}", row.k),
                format!("{:.6}", row.acyclic),
                format!("{:.6}", row.analytic_bound),
                format!("{}", row.n + row.m),
            ]);
        }
        for row in &self.figure6 {
            table.push_row(vec![
                "figure6".into(),
                format!("{}", row.m),
                format!("{}", row.cyclic_source_degree),
                format!("{}", row.degree_lower_bound),
                format!("{:.6}", row.acyclic_throughput),
            ]);
        }
        for row in &self.theorem61 {
            table.push_row(vec![
                "theorem61".into(),
                format!("{}", row.n),
                format!("{:.6}", row.ratio),
                format!("{:.6}", row.bound),
                String::new(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::bounds::{five_sevenths, theorem63_limit_ratio};

    #[test]
    fn figure18_minimum_is_five_sevenths_at_one_fourteenth() {
        let rows = figure18_sweep(57); // includes ε very close to 1/14
        let min = rows
            .iter()
            .min_by(|a, b| a.ratio.partial_cmp(&b.ratio).unwrap())
            .unwrap();
        assert!(
            (min.ratio - five_sevenths()).abs() < 5e-3,
            "min = {}",
            min.ratio
        );
        assert!((min.epsilon - 1.0 / 14.0).abs() < 0.02);
        // Everywhere the ratio stays within [5/7, 1].
        for row in &rows {
            assert!(row.ratio >= five_sevenths() - 1e-6);
            assert!(row.ratio <= 1.0 + 1e-6);
            assert!((row.cyclic - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn theorem63_rows_stay_below_the_analytic_bound() {
        let rows = theorem63_sweep(2);
        for row in &rows {
            assert!(row.acyclic <= row.analytic_bound + 1e-6);
            assert!(row.acyclic >= five_sevenths() - 1e-6);
            assert!((row.analytic_bound - theorem63_limit_ratio()).abs() < 0.01);
        }
    }

    #[test]
    fn figure6_degrees_grow_linearly() {
        let rows = figure6_sweep(&[2, 4, 8]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.cyclic_source_degree, row.m);
            assert_eq!(row.degree_lower_bound, 1);
            assert!(row.acyclic_throughput < 1.0);
        }
        // m = 1 entries are skipped.
        assert_eq!(figure6_sweep(&[1, 2]).len(), 1);
    }

    #[test]
    fn theorem61_bound_holds_and_tends_to_one() {
        let rows = theorem61_sweep(&[2, 10, 100]);
        for row in &rows {
            assert!(row.ratio + 1e-9 >= row.bound);
            assert!(row.ratio <= 1.0 + 1e-9);
        }
        assert!(rows[2].ratio > rows[0].ratio);
        assert!(rows[2].ratio > 0.99);
    }

    #[test]
    fn bundled_report_and_csv() {
        let report = run(true);
        let csv = report.to_csv();
        assert_eq!(
            csv.len(),
            report.figure18.len()
                + report.theorem63.len()
                + report.figure6.len()
                + report.theorem61.len()
        );
        assert!(csv.to_csv_string().contains("figure18"));
        assert!(csv.to_csv_string().contains("theorem61"));
    }
}
