//! Figure 7: worst-case acyclic/cyclic ratio over all tight homogeneous instances for
//! `n, m ∈ [0, 100]`.

use crate::csvout::CsvTable;
use crate::parallel::parallel_map_with;
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::homogeneous::{worst_ratio_over_delta_with, HomogeneousRatio};
use bmp_core::solver::EvalCtx;
use serde::{Deserialize, Serialize};

/// Configuration of the Figure 7 grid exploration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig7Config {
    /// Largest `n` and `m` explored (the paper uses 100).
    pub max_nodes: usize,
    /// Step between explored grid values of `n` and `m` (1 reproduces the full figure; larger
    /// steps give a quick preview).
    pub grid_step: usize,
    /// Number of `Δ` values explored per cell (the paper explores all tight homogeneous
    /// instances; an integer-Δ grid, i.e. `delta_steps = n`, matches it. `0` means "use n").
    pub delta_steps: usize,
    /// Number of worker threads.
    pub threads: usize,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            max_nodes: 100,
            grid_step: 4,
            delta_steps: 0,
            threads: crate::parallel::default_threads(),
        }
    }
}

impl Fig7Config {
    /// A small configuration for smoke tests and quick previews.
    #[must_use]
    pub fn quick() -> Self {
        Fig7Config {
            max_nodes: 24,
            grid_step: 8,
            delta_steps: 8,
            threads: crate::parallel::default_threads(),
        }
    }
}

/// The Figure 7 data: one ratio per explored `(n, m)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Configuration that produced the data.
    pub config: Fig7Config,
    /// Worst ratios per cell.
    pub cells: Vec<HomogeneousRatio>,
}

impl Fig7Result {
    /// The minimum ratio over the whole grid (the paper's floor is 5/7 ≈ 0.714).
    #[must_use]
    pub fn global_minimum(&self) -> Option<&HomogeneousRatio> {
        self.cells.iter().min_by(|a, b| {
            a.worst_ratio
                .partial_cmp(&b.worst_ratio)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Fraction of cells whose worst ratio exceeds `threshold` (the paper observes that
    /// "except for a few small instances, the ratio is larger than 0.8").
    #[must_use]
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells
            .iter()
            .filter(|c| c.worst_ratio > threshold)
            .count() as f64
            / self.cells.len() as f64
    }

    /// Renders the grid as a CSV table `n, m, worst_delta, ratio`.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new(&["n", "m", "worst_delta", "ratio"]);
        for cell in &self.cells {
            table.push_numeric_row(&[
                cell.n as f64,
                cell.m as f64,
                cell.worst_delta,
                cell.worst_ratio,
            ]);
        }
        table
    }
}

/// Runs the Figure 7 exploration.
#[must_use]
pub fn run(config: Fig7Config) -> Fig7Result {
    let solver = AcyclicGuardedSolver::with_tolerance(1e-9);
    let step = config.grid_step.max(1);
    let mut cells_to_run = Vec::new();
    let mut n = 0usize;
    while n <= config.max_nodes {
        let mut m = 0usize;
        while m <= config.max_nodes {
            cells_to_run.push((n, m));
            m += step;
        }
        n += step;
    }
    // The worst ratios (down to 5/7) live at very small instances; always sample that corner
    // at full resolution so the coarse grid does not miss the paper's floor.
    let fine_limit = 12.min(config.max_nodes);
    for n in 0..=fine_limit {
        for m in 0..=fine_limit {
            if n % step != 0 || m % step != 0 {
                cells_to_run.push((n, m));
            }
        }
    }
    // One EvalCtx per worker (the churn_exp convention): each cell's worst scheme is
    // certified by max-flow through the worker's workspace, never stacking the flow
    // fan-out on the sweep's own.
    let worker_ctx = || {
        let mut ctx = EvalCtx::new();
        ctx.set_parallelism(crate::parallel::eval_parallelism(config.threads));
        ctx
    };
    let results = parallel_map_with(&cells_to_run, config.threads, worker_ctx, |ctx, &(n, m)| {
        // Δ = n·k/steps: use at least 14 steps so that the small-instance corner can
        // hit the 5/7-tight instances (they need Δ = n/7, e.g. Δ = 1/7 for n = 1).
        let delta_steps = if config.delta_steps == 0 {
            n.max(14)
        } else {
            config.delta_steps
        };
        worst_ratio_over_delta_with(n, m, delta_steps, &solver, ctx)
    });
    Fig7Result {
        config,
        cells: results.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::bounds::five_sevenths;

    #[test]
    fn quick_grid_reproduces_the_figure_shape() {
        let result = run(Fig7Config::quick());
        assert!(!result.cells.is_empty());
        // Every ratio lies in [5/7, 1].
        for cell in &result.cells {
            assert!(
                cell.worst_ratio >= five_sevenths() - 1e-6,
                "({}, {}): {}",
                cell.n,
                cell.m,
                cell.worst_ratio
            );
            assert!(cell.worst_ratio <= 1.0 + 1e-9);
        }
        // Most of the grid sits above 0.8 (paper: "except for few small instances").
        assert!(result.fraction_above(0.8) > 0.7);
        // Pure open rows have ratio close to 1 for large n.
        assert!(result
            .cells
            .iter()
            .filter(|c| c.m == 0 && c.n >= 16)
            .all(|c| c.worst_ratio > 0.9));
    }

    #[test]
    fn csv_rendering() {
        let result = run(Fig7Config {
            max_nodes: 8,
            grid_step: 4,
            delta_steps: 4,
            threads: 1,
        });
        let csv = result.to_csv();
        assert_eq!(csv.len(), result.cells.len());
        assert!(csv.to_csv_string().starts_with("n,m,worst_delta,ratio"));
        assert!(result.global_minimum().is_some());
    }
}
