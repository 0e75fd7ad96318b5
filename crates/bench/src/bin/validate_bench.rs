//! Validates the machine-readable benchmark reports at the repo root:
//! `BENCH_dichotomic.json`, `BENCH_throughput.json`, `BENCH_sim.json` and
//! `BENCH_serve.json` must parse and contain the benchmark ids the perf acceptance
//! criteria pin. CI runs this right after
//! the bench smoke runs, so a bench refactor that silently drops a tracked id fails the
//! build.
//!
//! With `--baseline DIR` it additionally acts as the CI perf-regression gate: the
//! freshly emitted documents are compared against the committed copies saved in `DIR`,
//! and any pinned id slower than [`bmp_bench::REGRESSION_TOLERANCE`]× its baseline
//! median fails the run with a message naming the id, both medians and the ratio. The
//! comparison only applies to *measured* documents — a `--test` smoke run carries no
//! timings, so the gate abstains (and says so) rather than comparing zeros. The
//! committed baselines themselves are validated against the pinned ids too: a baseline
//! file missing a required id used to make the gate silently skip that id forever.

use bmp_bench::{
    perf_gate, repo_root, validate_bench_json, DICHOTOMIC_REQUIRED_IDS, REGRESSION_TOLERANCE,
    SERVE_REQUIRED_IDS, SIM_REQUIRED_IDS, THROUGHPUT_REQUIRED_IDS,
};
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a directory argument");
                    std::process::exit(2);
                });
                baseline = Some(PathBuf::from(dir));
            }
            other => {
                eprintln!("unknown argument {other:?}; usage: validate_bench [--baseline DIR]");
                std::process::exit(2);
            }
        }
    }

    let root = repo_root();
    let checks = [
        ("dichotomic", &DICHOTOMIC_REQUIRED_IDS[..]),
        ("throughput", &THROUGHPUT_REQUIRED_IDS[..]),
        ("sim", &SIM_REQUIRED_IDS[..]),
        ("serve", &SERVE_REQUIRED_IDS[..]),
    ];
    let mut failed = false;
    for (benchmark, expected) in checks {
        let path = root.join(format!("BENCH_{benchmark}.json"));
        match validate_bench_json(&path, benchmark, expected) {
            Ok(()) => println!("ok: {} ({} pinned ids)", path.display(), expected.len()),
            Err(error) => {
                eprintln!("invalid: {error}");
                failed = true;
            }
        }
        let Some(dir) = &baseline else {
            continue;
        };
        let committed = dir.join(format!("BENCH_{benchmark}.json"));
        // A baseline missing a pinned id would make the gate skip that id on every
        // run — the "new benchmark, no history" escape hatch must not become
        // permanent. Fail loudly so the regenerated baseline gets committed.
        if let Err(error) = validate_bench_json(&committed, benchmark, expected) {
            eprintln!("stale baseline: {error}");
            eprintln!(
                "the committed BENCH_{benchmark}.json does not pin every required id; \
                 re-run the {benchmark} benches and commit the regenerated document"
            );
            failed = true;
        }
        match perf_gate(&path, &committed, benchmark, expected, REGRESSION_TOLERANCE) {
            Ok(report) if !report.compared => println!(
                "gate: {benchmark}: skipped (smoke-mode document has no timings to compare)"
            ),
            Ok(report) if report.regressions.is_empty() => println!(
                "gate: {benchmark}: all pinned ids within {REGRESSION_TOLERANCE}x of the baseline"
            ),
            Ok(report) => {
                for regression in &report.regressions {
                    eprintln!("perf regression: {benchmark}: {regression}");
                }
                eprintln!(
                    "perf regression gate failed: {} pinned id(s) of {benchmark} are more than \
                     {REGRESSION_TOLERANCE}x slower than the committed BENCH_{benchmark}.json; \
                     if the slowdown is intended, re-run the benches and commit the new baseline",
                    report.regressions.len()
                );
                failed = true;
            }
            Err(error) => {
                eprintln!("gate error: {error}");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
