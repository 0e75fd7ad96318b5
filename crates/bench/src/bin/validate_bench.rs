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
//!
//! With `--require-improvement ID:RATIO` (repeatable) it asserts a *relative win*
//! rather than the absence of a regression: `ID`'s median must be at least `RATIO`×
//! faster than its reference sibling (`ID` with the last path segment replaced by
//! `cold` — e.g. `dichotomic/incremental/warm:1.5` requires the warm re-probe loop to
//! beat `dichotomic/incremental/cold` by 1.5×). The assertion abstains, and says so,
//! on smoke documents.

use bmp_bench::{
    perf_gate, read_bench_document, repo_root, require_improvement, resolve_reference_id,
    validate_bench_json, DICHOTOMIC_REQUIRED_IDS, REGRESSION_TOLERANCE, SERVE_REQUIRED_IDS,
    SIM_REQUIRED_IDS, THROUGHPUT_REQUIRED_IDS,
};
use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline: Option<PathBuf> = None;
    let mut improvements: Vec<(String, f64)> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--baseline requires a directory argument");
                    std::process::exit(2);
                });
                baseline = Some(PathBuf::from(dir));
            }
            "--require-improvement" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("--require-improvement requires an ID:RATIO argument");
                    std::process::exit(2);
                });
                let Some((id, ratio)) = spec.rsplit_once(':') else {
                    eprintln!("--require-improvement {spec:?} must be ID:RATIO");
                    std::process::exit(2);
                };
                let ratio: f64 = match ratio.parse() {
                    Ok(ratio) if ratio > 0.0 => ratio,
                    _ => {
                        eprintln!("--require-improvement {spec:?}: invalid ratio {ratio:?}");
                        std::process::exit(2);
                    }
                };
                improvements.push((id.to_string(), ratio));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: validate_bench [--baseline DIR] \
                     [--require-improvement ID:RATIO]..."
                );
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

    for (id, ratio) in &improvements {
        match check_improvement(id, *ratio) {
            Ok(Improvement::Achieved {
                benchmark,
                reference,
                achieved,
            }) => println!(
                "improvement: {id}: {achieved:.2}x faster than {reference} \
                 in BENCH_{benchmark}.json (required {ratio}x)"
            ),
            Ok(Improvement::Smoke) => {
                println!("improvement: {id}: skipped (smoke-mode document has no timings)")
            }
            Err(error) => {
                eprintln!("improvement assertion failed: {error}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Outcome of one `--require-improvement` assertion.
enum Improvement {
    /// The assertion held, by `achieved`× against `reference`.
    Achieved {
        benchmark: String,
        reference: String,
        achieved: f64,
    },
    /// Abstained: the document is a smoke run with no timings.
    Smoke,
}

/// Finds the document containing `id` among the four reports and asserts the
/// improvement there.
fn check_improvement(id: &str, ratio: f64) -> Result<Improvement, String> {
    let root = repo_root();
    for benchmark in ["dichotomic", "throughput", "sim", "serve"] {
        let path = root.join(format!("BENCH_{benchmark}.json"));
        let Ok(doc) = read_bench_document(&path, benchmark) else {
            continue; // unreadable documents are reported by the id validation above
        };
        if doc.median_ns(id).is_none() {
            continue;
        }
        if doc.is_measured() {
            let reference = resolve_reference_id(&doc, id)?;
            return require_improvement(&doc, id, ratio).map(|achieved| Improvement::Achieved {
                benchmark: benchmark.to_string(),
                reference,
                achieved: achieved.expect("measured documents always compare"),
            });
        }
        return Ok(Improvement::Smoke);
    }
    Err(format!(
        "required id {id:?} not found in any BENCH_*.json document"
    ))
}
