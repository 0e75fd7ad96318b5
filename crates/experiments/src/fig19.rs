//! Figure 19: average acyclic/cyclic throughput ratio on randomly generated instances.
//!
//! For every combination of bandwidth distribution, open-node probability `p` and instance
//! size, the paper generates 1000 random instances (source bandwidth pinned to the cyclic
//! optimum) and reports, normalised by the optimal cyclic throughput:
//!
//! * the optimal acyclic throughput (boxplots),
//! * the best of the two regular words `ω1`/`ω2` (blue curve),
//! * the single word selected by the Theorem 6.2 case analysis (red curve).

use crate::csvout::CsvTable;
use crate::parallel::parallel_map_with;
use crate::stats::Summary;
use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
use bmp_core::bounds::cyclic_upper_bound;
use bmp_core::omega::{best_omega_throughput, theorem_word_throughput};
use bmp_core::solver::EvalCtx;
use bmp_platform::distribution::NamedDistribution;
use bmp_platform::generator::{GeneratorConfig, InstanceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the Figure 19 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig19Config {
    /// Bandwidth distributions to explore (the paper uses all six).
    pub distributions: Vec<NamedDistribution>,
    /// Open-node probabilities (the paper uses 0.1, 0.5, 0.7, 0.9).
    pub open_probabilities: Vec<f64>,
    /// Instance sizes, i.e. numbers of receivers (the paper uses 10, 100, 1000).
    pub sizes: Vec<usize>,
    /// Number of random instances per cell (the paper uses 1000).
    pub instances_per_cell: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of worker threads.
    pub threads: usize,
}

impl Default for Fig19Config {
    fn default() -> Self {
        Fig19Config {
            distributions: NamedDistribution::all().to_vec(),
            open_probabilities: vec![0.1, 0.5, 0.7, 0.9],
            sizes: vec![10, 100, 1000],
            instances_per_cell: 1000,
            seed: 0xF19,
            threads: crate::parallel::default_threads(),
        }
    }
}

impl Fig19Config {
    /// A reduced configuration for smoke tests and quick previews.
    #[must_use]
    pub fn quick() -> Self {
        Fig19Config {
            distributions: vec![NamedDistribution::Unif100, NamedDistribution::PLab],
            open_probabilities: vec![0.5, 0.9],
            sizes: vec![10, 50],
            instances_per_cell: 40,
            ..Fig19Config::default()
        }
    }
}

/// Ratios of one random instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceRatios {
    /// Optimal acyclic throughput over cyclic optimum.
    pub optimal_acyclic: f64,
    /// Best-of-`ω1`/`ω2` throughput over cyclic optimum.
    pub best_omega: f64,
    /// Theorem-word throughput over cyclic optimum.
    pub theorem_word: f64,
}

/// Aggregated results of one `(distribution, p, size)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig19Cell {
    /// Distribution label.
    pub distribution: &'static str,
    /// Open-node probability.
    pub open_probability: f64,
    /// Number of receivers per instance.
    pub size: usize,
    /// Boxplot summary of the optimal acyclic ratio.
    pub optimal_acyclic: Summary,
    /// Boxplot summary of the best-omega ratio.
    pub best_omega: Summary,
    /// Boxplot summary of the theorem-word ratio.
    pub theorem_word: Summary,
}

/// Full result of the Figure 19 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig19Result {
    /// One aggregated entry per `(distribution, p, size)` cell.
    pub cells: Vec<Fig19Cell>,
}

impl Fig19Result {
    /// Renders the aggregate as a CSV table.
    #[must_use]
    pub fn to_csv(&self) -> CsvTable {
        let mut table = CsvTable::new(&[
            "distribution",
            "p",
            "size",
            "acyclic_mean",
            "acyclic_median",
            "acyclic_q1",
            "acyclic_q3",
            "acyclic_p05",
            "acyclic_p95",
            "best_omega_mean",
            "theorem_word_mean",
        ]);
        for cell in &self.cells {
            table.push_row(vec![
                cell.distribution.to_string(),
                format!("{}", cell.open_probability),
                format!("{}", cell.size),
                format!("{:.6}", cell.optimal_acyclic.mean),
                format!("{:.6}", cell.optimal_acyclic.median),
                format!("{:.6}", cell.optimal_acyclic.q1),
                format!("{:.6}", cell.optimal_acyclic.q3),
                format!("{:.6}", cell.optimal_acyclic.p05),
                format!("{:.6}", cell.optimal_acyclic.p95),
                format!("{:.6}", cell.best_omega.mean),
                format!("{:.6}", cell.theorem_word.mean),
            ]);
        }
        table
    }

    /// The smallest mean optimal-acyclic ratio over all cells (the paper reports "at most 5%
    /// decrease", i.e. this value stays above 0.95).
    #[must_use]
    pub fn worst_mean_acyclic_ratio(&self) -> Option<f64> {
        self.cells
            .iter()
            .map(|c| c.optimal_acyclic.mean)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// Largest instance (in nodes) whose acyclic optimum is spot-certified by an explicit
/// scheme during the sweep: small enough to keep the certification cost negligible next
/// to the dichotomic searches, large enough to cover the paper's 10- and 100-receiver
/// cells in full.
pub const CERTIFY_MAX_NODES: usize = 128;

/// Computes the three ratios for one instance (one-shot convenience over
/// [`ratios_for_instance_with`]).
#[must_use]
pub fn ratios_for_instance(
    instance: &bmp_platform::Instance,
    solver: &AcyclicGuardedSolver,
) -> InstanceRatios {
    ratios_for_instance_with(instance, solver, &mut EvalCtx::new())
}

/// Computes the three ratios for one instance through an explicit per-worker context.
///
/// On instances up to [`CERTIFY_MAX_NODES`] nodes the dichotomic acyclic optimum is
/// additionally certified: the word's scheme is built and re-scored by max-flow through
/// `ctx`.
///
/// # Panics
///
/// Panics when the certification fails — an under-delivering scheme is a solver bug.
#[must_use]
pub fn ratios_for_instance_with(
    instance: &bmp_platform::Instance,
    solver: &AcyclicGuardedSolver,
    ctx: &mut EvalCtx,
) -> InstanceRatios {
    let cyclic = cyclic_upper_bound(instance);
    if cyclic <= 0.0 {
        return InstanceRatios {
            optimal_acyclic: 1.0,
            best_omega: 1.0,
            theorem_word: 1.0,
        };
    }
    let (acyclic, word) = solver.optimal_throughput(instance);
    if acyclic > 0.0 && instance.num_nodes() <= CERTIFY_MAX_NODES {
        let scheme = solver
            .scheme_for_word(instance, acyclic, &word)
            .expect("the dichotomic word is valid at its own throughput");
        ctx.verify(&scheme, acyclic)
            .expect("the optimal acyclic scheme delivers its dichotomic throughput");
    }
    let (omega, _) = best_omega_throughput(instance, solver.tolerance);
    let theorem = theorem_word_throughput(instance, solver.tolerance);
    InstanceRatios {
        optimal_acyclic: acyclic / cyclic,
        best_omega: omega / cyclic,
        theorem_word: theorem / cyclic,
    }
}

/// Runs the Figure 19 experiment.
#[must_use]
pub fn run(config: &Fig19Config) -> Fig19Result {
    let solver = AcyclicGuardedSolver::with_tolerance(1e-8);
    let mut cells = Vec::new();
    for &distribution in &config.distributions {
        for &p in &config.open_probabilities {
            for &size in &config.sizes {
                let cell_seed = config.seed
                    ^ (size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (p.to_bits().rotate_left(17))
                    ^ (distribution.label().len() as u64) << 32
                    ^ u64::from(distribution.label().as_bytes()[0]) << 40
                    ^ u64::from(*distribution.label().as_bytes().last().unwrap()) << 48;
                let seeds: Vec<u64> = (0..config.instances_per_cell as u64)
                    .map(|i| cell_seed.wrapping_add(i.wrapping_mul(0x517C_C1B7_2722_0A95)))
                    .collect();
                // One EvalCtx per worker (the churn_exp convention): certification flows
                // reuse the worker's workspace and never stack the flow fan-out on the
                // sweep's own.
                let worker_ctx = || {
                    let mut ctx = EvalCtx::new();
                    ctx.set_parallelism(crate::parallel::eval_parallelism(config.threads));
                    ctx
                };
                let ratios = parallel_map_with(&seeds, config.threads, worker_ctx, |ctx, &seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let generator_config =
                        GeneratorConfig::new(size, p).expect("valid generator configuration");
                    let sampler = distribution.build();
                    let generator = InstanceGenerator::new(generator_config, sampler);
                    let instance = generator.generate(&mut rng);
                    ratios_for_instance_with(&instance, &solver, ctx)
                });
                let acyclic: Vec<f64> = ratios.iter().map(|r| r.optimal_acyclic).collect();
                let omega: Vec<f64> = ratios.iter().map(|r| r.best_omega).collect();
                let theorem: Vec<f64> = ratios.iter().map(|r| r.theorem_word).collect();
                cells.push(Fig19Cell {
                    distribution: distribution.label(),
                    open_probability: p,
                    size,
                    optimal_acyclic: Summary::of(&acyclic).expect("non-empty cell"),
                    best_omega: Summary::of(&omega).expect("non-empty cell"),
                    theorem_word: Summary::of(&theorem).expect("non-empty cell"),
                });
            }
        }
    }
    Fig19Result { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::bounds::five_sevenths;

    #[test]
    fn quick_run_matches_paper_shape() {
        let result = run(&Fig19Config {
            distributions: vec![NamedDistribution::Unif100, NamedDistribution::Power1],
            open_probabilities: vec![0.5, 0.9],
            sizes: vec![10, 40],
            instances_per_cell: 25,
            seed: 7,
            threads: 2,
        });
        assert_eq!(result.cells.len(), 2 * 2 * 2);
        for cell in &result.cells {
            // Ratios live in [5/7, 1].
            assert!(cell.optimal_acyclic.min >= five_sevenths() - 1e-6);
            assert!(cell.optimal_acyclic.max <= 1.0 + 1e-6);
            // Ordering of the three curves: theorem word ≤ best omega ≤ optimal acyclic.
            assert!(cell.theorem_word.mean <= cell.best_omega.mean + 1e-9);
            assert!(cell.best_omega.mean <= cell.optimal_acyclic.mean + 1e-9);
            // Paper: the average acyclic throughput loses at most ~5%.
            assert!(
                cell.optimal_acyclic.mean > 0.93,
                "{} p={} size={}: mean {}",
                cell.distribution,
                cell.open_probability,
                cell.size,
                cell.optimal_acyclic.mean
            );
        }
        // Larger instances are easier (ratios closer to 1) for a fixed distribution and p.
        let small = result
            .cells
            .iter()
            .find(|c| c.size == 10 && c.distribution == "Unif100" && c.open_probability == 0.9)
            .unwrap();
        let large = result
            .cells
            .iter()
            .find(|c| c.size == 40 && c.distribution == "Unif100" && c.open_probability == 0.9)
            .unwrap();
        assert!(large.optimal_acyclic.mean + 1e-6 >= small.optimal_acyclic.mean);
        assert!(result.worst_mean_acyclic_ratio().unwrap() > 0.9);
    }

    #[test]
    fn csv_rendering_has_one_row_per_cell() {
        let result = run(&Fig19Config {
            distributions: vec![NamedDistribution::PLab],
            open_probabilities: vec![0.5],
            sizes: vec![12],
            instances_per_cell: 10,
            seed: 3,
            threads: 1,
        });
        let csv = result.to_csv();
        assert_eq!(csv.len(), 1);
        assert!(csv.to_csv_string().contains("PLab"));
    }

    #[test]
    fn ratios_are_deterministic_for_a_seed() {
        let config = Fig19Config {
            distributions: vec![NamedDistribution::Ln1],
            open_probabilities: vec![0.7],
            sizes: vec![15],
            instances_per_cell: 8,
            seed: 99,
            threads: 1,
        };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a, b);
    }
}
