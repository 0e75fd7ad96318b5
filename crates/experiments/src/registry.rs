//! The experiment registry: every table, figure and extension study, by name, paper
//! artefacts first. An entry returns the text it prints and the one file it writes;
//! [`Experiment::execute`] prints and writes one, [`run_all`] all of them in order.

use crate::parallel::default_threads;
use crate::runner::{write_output, RunOptions};
use crate::{
    churn_exp, depth_exp, fault_storm_exp, fig19, fig7, paper_figures, policy_exp, sim_churn_exp,
    table1, worst_case,
};

/// One named experiment of the registry.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the command line (`bmp-experiments <name>`).
    pub name: &'static str,
    /// One-line description, listed when a name is missing or unknown.
    pub describe: &'static str,
    /// Runs the experiment; prints and writes nothing itself.
    pub run: fn(&RunOptions) -> Report,
}

/// What one experiment produced: the text it prints and the one file it writes.
#[derive(Debug)]
pub struct Report {
    /// Human-readable summary printed to stdout.
    pub text: String,
    /// Name of the output file inside the output directory.
    pub file: &'static str,
    /// Contents of that file.
    pub contents: String,
}

impl Report {
    fn new(text: String, file: &'static str, contents: String) -> Self {
        Report {
            text,
            file,
            contents,
        }
    }
}

type Run = fn(&RunOptions) -> Report;

const fn entry(name: &'static str, describe: &'static str, run: Run) -> Experiment {
    Experiment {
        name,
        describe,
        run,
    }
}

/// Every experiment, paper artefacts first; `all` runs them in this order.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 10] = [
    entry("table1", "Table I: trace of Algorithm 2 (GreedyTest, T = 4) on Figure 1", table1),
    entry("paper_figures", "Figures 1, 2 and 5: the running example, end to end", paper_figures),
    entry("worst_case", "Figures 6, 18 and Theorems 6.1, 6.3: worst-case families", worst_case),
    entry("fig7", "Figure 7: worst-case acyclic/cyclic ratio over an (n, m) grid", fig7),
    entry("fig19", "Figure 19: average-case acyclic/cyclic ratios on random instances", fig19),
    entry("churn", "churn: residual throughput after a departure, repair quality", churn),
    entry("sim_churn", "churn: repair-vs-static delivered goodput (session engine)", sim_churn),
    entry("fault_storm", "fault storms: survival of the hardened repair pipeline", fault_storm),
    entry("depth", "depth/delay of the optimal acyclic and omega-word overlays", depth),
    entry("policies", "chunk-policy ablation of the data plane", policies),
];

/// The registry entry called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// One line per registry entry (`  name  describe`), then the `all` line.
#[must_use]
pub fn listing() -> String {
    let entries = EXPERIMENTS.iter().map(|e| (e.name, e.describe));
    let all = ("all", "every experiment above, in this order");
    entries
        .chain([all])
        .map(|(name, describe)| format!("  {name:<14} {describe}"))
        .collect::<Vec<_>>()
        .join("\n")
}

impl Experiment {
    /// Runs the experiment, prints its text and writes its file into the output
    /// directory (logging the destination).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of writing the file.
    pub fn execute(&self, options: &RunOptions) -> std::io::Result<Report> {
        let report = (self.run)(options);
        print!("{}", report.text);
        write_output(&options.output_path(report.file), &report.contents)?;
        Ok(report)
    }
}

/// Runs every registry entry in order, each under a `== name ==` header, and returns
/// their reports.
///
/// # Errors
///
/// Stops at the first file that cannot be written.
pub fn run_all(options: &RunOptions) -> std::io::Result<Vec<Report>> {
    let mut reports = Vec::with_capacity(EXPERIMENTS.len());
    for experiment in &EXPERIMENTS {
        println!("== {} ==", experiment.name);
        reports.push(experiment.execute(options)?);
    }
    println!(
        "all experiments written to {}",
        options.output_dir.display()
    );
    Ok(reports)
}

fn table1(_: &RunOptions) -> Report {
    let rendered = table1::paper_table1().render();
    let text = format!("Table I — GreedyTest(T = 4) on the Figure 1 instance\n\n{rendered}\n");
    Report::new(text, "table1.txt", rendered)
}

fn paper_figures(_: &RunOptions) -> Report {
    let rendered = paper_figures::run().render();
    Report::new(format!("{rendered}\n"), "paper_figures.txt", rendered)
}

fn worst_case(options: &RunOptions) -> Report {
    let report = worst_case::run(options.quick);
    let mut text = String::from("Figure 18 sweep (epsilon, acyclic/cyclic ratio):\n");
    for row in &report.figure18 {
        text += &format!("  eps = {:.4}  ratio = {:.4}\n", row.epsilon, row.ratio);
    }
    text += "\nTheorem 6.3 family I(alpha, k) (cyclic optimum = 1):\n";
    for row in &report.theorem63 {
        text += &format!(
            "  k = {:<3} n+m = {:<5} acyclic = {:.4}  analytic bound = {:.4}\n",
            row.k,
            row.n + row.m,
            row.acyclic,
            row.analytic_bound
        );
    }
    text += "\nFigure 6 family (optimal cyclic schemes need source degree m):\n";
    for row in &report.figure6 {
        text += &format!(
            "  m = {:<4} cyclic source degree = {:<4} lower bound = {}  acyclic throughput = {:.4}\n",
            row.m, row.cyclic_source_degree, row.degree_lower_bound, row.acyclic_throughput
        );
    }
    text += "\nTheorem 6.1 (open-only ratio versus 1 - 1/n):\n";
    for row in &report.theorem61 {
        text += &format!(
            "  n = {:<4} ratio = {:.4} >= bound {:.4}\n",
            row.n, row.ratio, row.bound
        );
    }
    Report::new(text, "worst_case.csv", report.to_csv().to_csv_string())
}

fn fig7(options: &RunOptions) -> Report {
    let config = if options.quick {
        fig7::Fig7Config::quick()
    } else {
        fig7::Fig7Config::default()
    };
    let mut text = format!(
        "Figure 7: grid up to n, m = {} (step {}), {} threads\n",
        config.max_nodes, config.grid_step, config.threads
    );
    let result = fig7::run(config);
    if let Some(minimum) = result.global_minimum() {
        text += &format!(
            "global minimum ratio {:.4} at (n = {}, m = {}, delta = {})  [paper floor: 5/7 = {:.4}]\n",
            minimum.worst_ratio,
            minimum.n,
            minimum.m,
            minimum.worst_delta,
            5.0 / 7.0
        );
    }
    text += &format!(
        "fraction of cells above 0.8: {:.3} (paper: all but a few small instances)\n",
        result.fraction_above(0.8)
    );
    Report::new(text, "fig7.csv", result.to_csv().to_csv_string())
}

fn fig19(options: &RunOptions) -> Report {
    let config = if options.quick {
        fig19::Fig19Config::quick()
    } else {
        fig19::Fig19Config::default()
    };
    let mut text = format!(
        "Figure 19: {} distributions x {} probabilities x {} sizes, {} instances per cell\n",
        config.distributions.len(),
        config.open_probabilities.len(),
        config.sizes.len(),
        config.instances_per_cell
    );
    let result = fig19::run(&config);
    text += "distribution  p     size   acyclic(mean/median)  omega(mean)  theorem(mean)\n";
    for cell in &result.cells {
        text += &format!(
            "{:<12} {:<5} {:<6} {:.4} / {:.4}        {:.4}       {:.4}\n",
            cell.distribution,
            cell.open_probability,
            cell.size,
            cell.optimal_acyclic.mean,
            cell.optimal_acyclic.median,
            cell.best_omega.mean,
            cell.theorem_word.mean
        );
    }
    if let Some(worst) = result.worst_mean_acyclic_ratio() {
        text +=
            &format!("worst mean acyclic/cyclic ratio: {worst:.4} (paper: at most ~5% below 1)\n");
    }
    Report::new(text, "fig19.csv", result.to_csv().to_csv_string())
}

fn churn(options: &RunOptions) -> Report {
    let threads = default_threads();
    let report = churn_exp::run(options.quick, threads);
    let mut text = format!(
        "Churn experiment ({threads} threads):\n\
         receivers  departure        residual (mean/median/p05)   repaired (mean/min)\n"
    );
    for cell in &report.cells {
        text += &format!(
            "{:>9}  {:<15}  {:.3} / {:.3} / {:.3}            {:.3} / {:.3}\n",
            cell.receivers,
            cell.kind.label(),
            cell.residual.mean,
            cell.residual.median,
            cell.residual.p05,
            cell.repaired.mean,
            cell.repaired.min,
        );
    }
    text += "\nreading: a frozen overlay keeps only the `residual` fraction of its rate after the \
             departure; re-running the solver recovers the `repaired` fraction of the reduced \
             platform's cyclic optimum (Theorem 4.1 guarantees at least 5/7 ≈ 0.714).\n";
    Report::new(text, "churn.csv", report.to_csv().to_csv_string())
}

fn sim_churn(options: &RunOptions) -> Report {
    let threads = default_threads();
    let report = sim_churn_exp::run(options.quick, threads);
    let mut text = format!(
        "Repair-vs-static churn simulation ({threads} threads):\n\
         receivers  trials  static goodput  repaired goodput  gain (mean)  recovery (mean)\n"
    );
    for cell in &report.cells {
        let recovery = cell
            .recovery
            .as_ref()
            .map_or("n/a".to_string(), |r| format!("{:.2}", r.mean));
        text += &format!(
            "{:>9}  {:>6}  {:>14.3}  {:>16.3}  {:>11.3}  {recovery:>15}\n",
            cell.receivers,
            cell.trials,
            cell.static_ratio.mean,
            cell.repaired_ratio.mean,
            cell.gain.mean,
        );
    }
    text += "\nreading: goodput is delivered data per surviving receiver per time unit, as a \
             fraction of the nominal throughput; both runs replay the identical seed and churn \
             trace, so the gain column is exactly what the mid-broadcast re-solve + hot-swap buys.\n";
    Report::new(text, "sim_churn.csv", report.to_csv().to_csv_string())
}

fn fault_storm(options: &RunOptions) -> Report {
    let threads = default_threads();
    let report = fault_storm_exp::run(options.quick, threads);
    let mut text = format!(
        "Fault-storm survival sweep ({threads} threads):\n\
         receivers  trials  survived  degraded  static goodput  repaired goodput  faults fired  attempts\n"
    );
    for cell in &report.cells {
        text += &format!(
            "{:>9}  {:>6}  {:>8}  {:>8}  {:>14.3}  {:>16.3}  {:>12}  {:>8}\n",
            cell.receivers,
            cell.trials,
            cell.survived,
            cell.degraded,
            cell.static_ratio.mean,
            cell.repaired_ratio.mean,
            cell.faults_fired,
            cell.repair_attempts,
        );
    }
    text += "\nreading: every trial installs a seeded fault storm (injected solver failures, a \
             forced verification failure, a probe timeout, an armed flow-worker panic) on the \
             repair controller and merges seeded depart/rejoin waves into the churn trace; \
             `survived` counts repaired sessions that still delivered the full message to every \
             survivor; a trial's storm is seeded by its trial seed, so a sweep replays exactly.\n";
    Report::new(text, "fault_storm.csv", report.to_csv().to_csv_string())
}

fn depth(options: &RunOptions) -> Report {
    let threads = default_threads();
    let report = depth_exp::run(options.quick, threads);
    let mut text = format!(
        "Depth experiment ({threads} threads):\n\
         receivers  trials  max hops (optimal / omega / omega@95%)  omega/optimal throughput\n"
    );
    for cell in &report.cells {
        text += &format!(
            "{:>9}  {:>6}  {:>7.2} / {:>5.2} / {:>5.2}                  {:.4}\n",
            cell.receivers,
            cell.trials,
            cell.optimal_max_hops,
            cell.omega_max_hops,
            cell.throttled_max_hops,
            cell.omega_throughput_ratio,
        );
    }
    text += "\nreading: deeper overlays mean larger start-up delay for live streams; giving up 5% \
             of the ω-word throughput (last column ratios are relative to the optimal acyclic \
             throughput) buys visibly shallower trees.\n";
    Report::new(text, "depth.csv", report.to_csv().to_csv_string())
}

fn policies(options: &RunOptions) -> Report {
    let threads = default_threads();
    let report = policy_exp::run(options.quick, threads);
    let mut text = format!(
        "Chunk-policy experiment ({threads} threads):\n\
         policy          receivers  rate fraction (mean/median/p05)  completed\n"
    );
    for cell in &report.cells {
        text += &format!(
            "{:<15} {:>9}  {:.3} / {:.3} / {:.3}              {:.0}%\n",
            cell.policy.label(),
            cell.receivers,
            cell.rate_fraction.mean,
            cell.rate_fraction.median,
            cell.rate_fraction.p05,
            100.0 * cell.completion_fraction,
        );
    }
    text += "\nreading: every policy delivers a large constant fraction of the fluid rate; \
             random-useful and rarest-first keep chunk diversity highest and finish fastest, \
             in line with the Massoulié analysis the paper builds on.\n";
    Report::new(text, "policies.csv", report.to_csv().to_csv_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn names_are_unique_and_resolve_to_their_entry() {
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(!names.contains("all"), "`all` is not an experiment name");
        for experiment in &EXPERIMENTS {
            assert_eq!(find(experiment.name).unwrap().describe, experiment.describe);
            assert!(!experiment.describe.is_empty());
        }
        assert!(find("fig8").is_none());
    }

    #[test]
    fn all_runs_every_entry_and_each_writes_exactly_its_file() {
        let dir = std::env::temp_dir().join(format!("bmp_registry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = RunOptions {
            quick: true,
            output_dir: dir.clone(),
        };
        let reports = run_all(&options).unwrap();
        let declared: BTreeSet<String> = reports.iter().map(|r| r.file.to_string()).collect();
        assert_eq!(
            declared.len(),
            EXPERIMENTS.len(),
            "two entries share a file"
        );
        let written: BTreeSet<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(written, declared, "one file per entry and nothing else");
        for (experiment, report) in EXPERIMENTS.iter().zip(&reports) {
            assert!(
                !report.text.is_empty(),
                "{} printed nothing",
                experiment.name
            );
            assert!(
                !report.contents.is_empty(),
                "{} wrote nothing",
                experiment.name
            );
            assert_eq!(
                std::fs::read_to_string(dir.join(report.file)).unwrap(),
                report.contents,
                "{}",
                experiment.name
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
