//! Benchmark crate (see `benches/`), plus the machine-readable benchmark report
//! pipeline: the headline benches (`dichotomic`, `throughput`, `sim`) drain the results
//! collected by the vendored criterion harness ([`criterion::take_reports`]) and write
//! them as `BENCH_<name>.json` at the repository root, so the perf trajectory of the
//! hot paths is tracked across PRs instead of living in scrollback. CI smoke-runs the
//! benches (`--test`) and then validates the emitted files with
//! [`validate_bench_json`] via the `validate_bench` binary; a separate CI job re-runs
//! the headline benches *measured* and gates them against the committed baselines with
//! [`perf_gate`] (`validate_bench --baseline DIR`, [`REGRESSION_TOLERANCE`]× slowdown
//! tolerance on the pinned ids — a format check alone would happily commit a 100×
//! slower hot path).

use criterion::BenchReport;
use std::path::{Path, PathBuf};

/// Repository root (the benches run from `crates/bench`, the reports belong at the
/// workspace root next to `ROADMAP.md`).
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Renders `reports` as the `BENCH_*.json` document: benchmark name, `measured` or
/// `smoke` mode, and one `{id, median_ns, best_ns}` entry per benchmark id.
#[must_use]
pub fn bench_report_json(benchmark: &str, reports: &[BenchReport]) -> String {
    let mode = if reports.iter().any(|r| r.smoke) {
        "smoke"
    } else {
        "measured"
    };
    let results = serde::Value::Array(
        reports
            .iter()
            .map(|r| {
                serde::Value::Object(vec![
                    ("id".to_string(), serde::Value::Str(r.id.clone())),
                    ("median_ns".to_string(), serde::Value::F64(r.median_ns)),
                    ("best_ns".to_string(), serde::Value::F64(r.best_ns)),
                ])
            })
            .collect(),
    );
    let document = serde::Value::Object(vec![
        (
            "benchmark".to_string(),
            serde::Value::Str(benchmark.to_string()),
        ),
        ("mode".to_string(), serde::Value::Str(mode.to_string())),
        ("results".to_string(), results),
    ]);
    serde_json::to_string_pretty(&document).expect("report document serializes")
}

/// Writes the drained criterion reports as `BENCH_<benchmark>.json` at the repo root.
/// Returns the path written. Skips (returning `None`) when `reports` is empty — a
/// filtered bench run measured nothing and must not clobber the committed report.
pub fn write_bench_json(benchmark: &str, reports: &[BenchReport]) -> Option<PathBuf> {
    if reports.is_empty() {
        return None;
    }
    let path = repo_root().join(format!("BENCH_{benchmark}.json"));
    std::fs::write(&path, bench_report_json(benchmark, reports))
        .unwrap_or_else(|error| panic!("cannot write {}: {error}", path.display()));
    Some(path)
}

/// A parsed `BENCH_*.json` document: its `mode` and one `(id, median_ns)` per result.
#[derive(Debug, Clone)]
pub struct BenchDocument {
    /// `"measured"` or `"smoke"`.
    pub mode: String,
    /// `(id, median_ns)` in document order.
    pub medians: Vec<(String, f64)>,
}

impl BenchDocument {
    /// Whether the document carries real timings (a `--test` smoke run does not).
    #[must_use]
    pub fn is_measured(&self) -> bool {
        self.mode == "measured"
    }

    /// The median of `id`, if present.
    #[must_use]
    pub fn median_ns(&self, id: &str) -> Option<f64> {
        self.medians
            .iter()
            .find(|(candidate, _)| candidate == id)
            .map(|&(_, median)| median)
    }
}

/// Generous slowdown tolerance of the CI perf-regression gate: a pinned benchmark id
/// fails the gate only when its freshly measured median exceeds this multiple of the
/// committed baseline median. 3× absorbs runner-to-runner noise, thermal variance and
/// the vendored harness's coarse sampling while still catching a hot path falling off a
/// cliff.
pub const REGRESSION_TOLERANCE: f64 = 3.0;

/// Outcome of gating one fresh benchmark document against its committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// `false` when either document was a smoke run — there are no timings to compare,
    /// so the gate abstains (CI still validates ids through [`validate_bench_json`]).
    pub compared: bool,
    /// One human-readable message per pinned id slower than the tolerance allows.
    /// Empty means the gate passed.
    pub regressions: Vec<String>,
}

/// Compares the freshly emitted report at `fresh` against the committed `baseline`:
/// every id in `pinned` that is slower than `tolerance ×` its baseline median is
/// reported as a regression. Ids missing from the baseline (newly added benchmarks)
/// are skipped — they have no history to regress against; ids missing from the fresh
/// document are a structural error (the separate id validation pins them).
///
/// # Errors
///
/// Returns a description of the first structural problem (unreadable or malformed
/// document, pinned id absent from the fresh report).
pub fn perf_gate(
    fresh: &Path,
    baseline: &Path,
    benchmark: &str,
    pinned: &[&str],
    tolerance: f64,
) -> Result<GateReport, String> {
    let fresh_doc = read_bench_document(fresh, benchmark)?;
    let baseline_doc = read_bench_document(baseline, benchmark)?;
    if !fresh_doc.is_measured() || !baseline_doc.is_measured() {
        return Ok(GateReport {
            compared: false,
            regressions: Vec::new(),
        });
    }
    let mut regressions = Vec::new();
    for &id in pinned {
        let measured = fresh_doc
            .median_ns(id)
            .ok_or_else(|| format!("{}: pinned id {id:?} missing", fresh.display()))?;
        let Some(reference) = baseline_doc.median_ns(id) else {
            continue; // new benchmark: no baseline yet
        };
        if reference > 0.0 && measured > tolerance * reference {
            regressions.push(format!(
                "{id}: {:.3} ms vs baseline {:.3} ms ({:.2}x, tolerance {tolerance}x)",
                measured / 1e6,
                reference / 1e6,
                measured / reference
            ));
        }
    }
    Ok(GateReport {
        compared: true,
        regressions,
    })
}

/// Validates an emitted `BENCH_*.json`: it parses, names `benchmark`, carries a known
/// `mode`, and every id in `expected_ids` appears verbatim among the results (exact
/// match — a substring match would let `.../500` be satisfied by `.../5000`, silently
/// unpinning the n = 500 acceptance benchmarks).
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_bench_json(
    path: &Path,
    benchmark: &str,
    expected_ids: &[&str],
) -> Result<(), String> {
    let document = read_bench_document(path, benchmark)?;
    for expected in expected_ids {
        if document.median_ns(expected).is_none() {
            let ids: Vec<&str> = document.medians.iter().map(|(id, _)| id.as_str()).collect();
            return Err(format!(
                "{}: no result id equals {expected:?} (got {ids:?})",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Parses and structurally checks one `BENCH_*.json` document (shared by
/// [`validate_bench_json`] and [`perf_gate`]).
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn read_bench_document(path: &Path, benchmark: &str) -> Result<BenchDocument, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    let value: serde::Value = serde_json::from_str(&text)
        .map_err(|error| format!("{} is not JSON: {error}", path.display()))?;
    let fields = value
        .as_object()
        .ok_or_else(|| format!("{}: top level is not an object", path.display()))?;
    let field = |name: &str| {
        fields
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value)
            .ok_or_else(|| format!("{}: missing field `{name}`", path.display()))
    };
    let named = field("benchmark")?
        .as_str()
        .ok_or_else(|| format!("{}: `benchmark` is not a string", path.display()))?;
    if named != benchmark {
        return Err(format!(
            "{}: benchmark is {named:?}, expected {benchmark:?}",
            path.display()
        ));
    }
    let mode = field("mode")?
        .as_str()
        .ok_or_else(|| format!("{}: `mode` is not a string", path.display()))?;
    if !matches!(mode, "measured" | "smoke") {
        return Err(format!("{}: unknown mode {mode:?}", path.display()));
    }
    let results = field("results")?
        .as_array()
        .ok_or_else(|| format!("{}: `results` is not an array", path.display()))?;
    if results.is_empty() {
        return Err(format!("{}: empty results", path.display()));
    }
    let mut medians = Vec::with_capacity(results.len());
    for result in results {
        let entry = result
            .as_object()
            .ok_or_else(|| format!("{}: result entry is not an object", path.display()))?;
        let lookup = |name: &str| {
            entry
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value)
                .ok_or_else(|| format!("{}: result entry missing `{name}`", path.display()))
        };
        let id = lookup("id")?
            .as_str()
            .ok_or_else(|| format!("{}: result id is not a string", path.display()))?;
        let mut median = 0.0;
        for metric in ["median_ns", "best_ns"] {
            let value = lookup(metric)?
                .as_f64()
                .ok_or_else(|| format!("{}: {id}: `{metric}` is not a number", path.display()))?;
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "{}: {id}: `{metric}` is {value}, expected a non-negative finite number",
                    path.display()
                ));
            }
            if metric == "median_ns" {
                median = value;
            }
        }
        medians.push((id.to_string(), median));
    }
    Ok(BenchDocument {
        mode: mode.to_string(),
        medians,
    })
}

/// The benchmark ids the `dichotomic` report must contain (per-probe arena rebuilds
/// versus the retained arena rewritten in place, multi-sink and single-sink, at
/// n = 500, so a regenerated report can never silently drop the comparison).
pub const DICHOTOMIC_REQUIRED_IDS: [&str; 4] = [
    "dichotomic_reevaluation/rebuild/500",
    "dichotomic_reevaluation/incremental/500",
    "dichotomic_reevaluation/rebuild-single-sink/500",
    "dichotomic_reevaluation/incremental-single-sink/500",
];

/// The benchmark ids the `throughput` report must contain (sequential batched pass vs
/// the parallel fan-out at fleet scale).
pub const THROUGHPUT_REQUIRED_IDS: [&str; 4] = [
    "throughput/batched_reuse/2000",
    "throughput/parallel-auto/2000",
    "throughput/batched_reuse/5000",
    "throughput/parallel-auto/5000",
];

/// The benchmark ids the `sim` report must contain (the session engine's per-round hot
/// path over the word-packed possession bitsets, the widest policy scan, the hardened
/// repair pipeline's faulted repair cycle, and the warm-vs-cold repair solve pair that
/// keeps the residual warm-start from regressing silently).
pub const SIM_REQUIRED_IDS: [&str; 5] = [
    "sim_round/session/50x1000",
    "sim_round/pick/rarest-first/4096",
    "fault_storm/repair-cycle/50",
    "repair/warm-vs-cold/warm",
    "repair/warm-vs-cold/cold",
];

/// The benchmark ids the `serve` report must contain (the sharded fleet runner end to
/// end, and the pure admission-control decision path).
pub const SERVE_REQUIRED_IDS: [&str; 2] = ["serve/fleet-step/256", "serve/admission/1k"];

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports() -> Vec<BenchReport> {
        vec![
            BenchReport {
                id: "group/alpha/500".to_string(),
                median_ns: 120.5,
                best_ns: 100.0,
                smoke: false,
            },
            BenchReport {
                id: "group/beta/2000".to_string(),
                median_ns: 340.0,
                best_ns: 300.0,
                smoke: false,
            },
        ]
    }

    #[test]
    fn report_json_roundtrips_through_the_validator() {
        let dir = std::env::temp_dir().join(format!("bmp_bench_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sample.json");
        std::fs::write(&path, bench_report_json("sample", &sample_reports())).unwrap();
        validate_bench_json(&path, "sample", &["group/alpha/500", "group/beta/2000"]).unwrap();
        // Wrong name and missing ids are reported.
        assert!(validate_bench_json(&path, "other", &[]).is_err());
        let err = validate_bench_json(&path, "sample", &["gamma"]).unwrap_err();
        assert!(err.contains("gamma"), "{err}");
        // Exact matching: a substring or prefix of a present id does not count (the
        // `/500`-vs-`/5000` trap).
        assert!(validate_bench_json(&path, "sample", &["group/alpha/50"]).is_err());
        assert!(validate_bench_json(&path, "sample", &["alpha/500"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smoke_runs_are_marked_and_still_validate() {
        let reports = vec![BenchReport {
            id: "group/alpha/500".to_string(),
            median_ns: 0.0,
            best_ns: 0.0,
            smoke: true,
        }];
        let json = bench_report_json("sample", &reports);
        assert!(json.contains("\"smoke\""));
        let dir = std::env::temp_dir().join(format!("bmp_bench_smoke_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sample.json");
        std::fs::write(&path, json).unwrap();
        validate_bench_json(&path, "sample", &["group/alpha/500"]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let dir = std::env::temp_dir().join(format!("bmp_bench_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_bad.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(validate_bench_json(&path, "bad", &[]).is_err());
        std::fs::write(
            &path,
            "{\"benchmark\": \"bad\", \"mode\": \"measured\", \"results\": []}",
        )
        .unwrap();
        assert!(validate_bench_json(&path, "bad", &[]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_report_sets_are_not_written() {
        assert!(write_bench_json("never-written", &[]).is_none());
        assert!(!repo_root().join("BENCH_never-written.json").exists());
    }

    /// Writes a measured two-result document and returns its path.
    fn write_doc(dir: &Path, name: &str, alpha_median: f64, beta_median: f64) -> PathBuf {
        let reports = vec![
            BenchReport {
                id: "group/alpha/500".to_string(),
                median_ns: alpha_median,
                best_ns: alpha_median * 0.9,
                smoke: false,
            },
            BenchReport {
                id: "group/beta/2000".to_string(),
                median_ns: beta_median,
                best_ns: beta_median * 0.9,
                smoke: false,
            },
        ];
        let path = dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, bench_report_json("sample", &reports)).unwrap();
        path
    }

    #[test]
    fn perf_gate_passes_within_tolerance_and_fails_beyond_it() {
        let dir = std::env::temp_dir().join(format!("bmp_bench_gate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = write_doc(&dir, "baseline", 100.0, 1000.0);
        // 2.9x on one id, 0.5x on the other: generous tolerance absorbs both.
        let noisy = write_doc(&dir, "noisy", 290.0, 500.0);
        let report = perf_gate(
            &noisy,
            &baseline,
            "sample",
            &["group/alpha/500", "group/beta/2000"],
            REGRESSION_TOLERANCE,
        )
        .unwrap();
        assert!(report.compared);
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
        // 3.5x on alpha: the gate names the id, both medians and the ratio.
        let slow = write_doc(&dir, "slow", 350.0, 1000.0);
        let report = perf_gate(
            &slow,
            &baseline,
            "sample",
            &["group/alpha/500", "group/beta/2000"],
            REGRESSION_TOLERANCE,
        )
        .unwrap();
        assert_eq!(report.regressions.len(), 1);
        let message = &report.regressions[0];
        assert!(message.contains("group/alpha/500"), "{message}");
        assert!(message.contains("3.50x"), "{message}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_gate_abstains_on_smoke_documents_and_skips_unknown_baseline_ids() {
        let dir = std::env::temp_dir().join(format!("bmp_bench_gate2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = write_doc(&dir, "baseline", 100.0, 1000.0);
        // A smoke-mode fresh document has no timings: the gate abstains instead of
        // comparing zeros.
        let smoke = dir.join("BENCH_smoke.json");
        let smoke_reports = vec![BenchReport {
            id: "group/alpha/500".to_string(),
            median_ns: 0.0,
            best_ns: 0.0,
            smoke: true,
        }];
        std::fs::write(&smoke, bench_report_json("sample", &smoke_reports)).unwrap();
        let report = perf_gate(&smoke, &baseline, "sample", &["group/alpha/500"], 3.0).unwrap();
        assert!(!report.compared);
        assert!(report.regressions.is_empty());
        // A pinned id absent from the *baseline* is a new benchmark, not a regression…
        let fresh = write_doc(&dir, "fresh", 100.0, 1000.0);
        let narrow = dir.join("BENCH_narrow.json");
        let narrow_reports = vec![BenchReport {
            id: "group/alpha/500".to_string(),
            median_ns: 100.0,
            best_ns: 90.0,
            smoke: false,
        }];
        std::fs::write(&narrow, bench_report_json("sample", &narrow_reports)).unwrap();
        let report = perf_gate(
            &fresh,
            &narrow,
            "sample",
            &["group/alpha/500", "group/beta/2000"],
            3.0,
        )
        .unwrap();
        assert!(report.compared);
        assert!(report.regressions.is_empty());
        // …but a pinned id absent from the *fresh* document is a structural error.
        let err = perf_gate(&narrow, &fresh, "sample", &["group/beta/2000"], 3.0).unwrap_err();
        assert!(err.contains("group/beta/2000"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
