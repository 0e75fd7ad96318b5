//! Runs the fault-storm survival sweep: scripted solver failures, probe timeouts,
//! worker panics and churn storms against the hardened repair pipeline.

use bmp_experiments::fault_storm_exp::run;
use bmp_experiments::parallel::default_threads;
use bmp_experiments::runner::{write_output, RunOptions};

fn main() -> std::io::Result<()> {
    let options = RunOptions::from_env();
    let threads = default_threads();
    let report = run(options.quick, threads);
    println!("Fault-storm survival sweep ({threads} threads):");
    println!(
        "receivers  trials  survived  degraded  static goodput  repaired goodput  faults fired  attempts"
    );
    for cell in &report.cells {
        println!(
            "{:>9}  {:>6}  {:>8}  {:>8}  {:>14.3}  {:>16.3}  {:>12}  {:>8}",
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
    println!(
        "\nreading: every trial installs a seeded fault storm (injected solver failures, a \
         forced verification failure, a probe timeout, an armed flow-worker panic) on the \
         repair controller and merges seeded depart/rejoin waves into the churn trace; \
         `survived` counts repaired sessions that still delivered the full message to every \
         survivor; a trial's storm is seeded by its trial seed, so a sweep replays exactly."
    );
    write_output(
        &options.output_path("fault_storm.csv"),
        &report.to_csv().to_csv_string(),
    )
}
