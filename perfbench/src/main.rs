//! The repository benchmark: one process runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-publish --seed 7 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1` is the
//! separate traced run that reports the per-layer metrics and writes every span to
//! `.bench_work/trace-<workload>-seed<seed>.json`. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it name each metric with its unit and describe the run. The process exits non-zero
//! when any output check failed. See `perfbench/README.md` for the metric catalogue.

mod fleet;
mod solve_publish;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::Duration;
use trace::Trace;
use util::{fnv1a, json_number, json_string};

/// End-to-end metrics every workload reports with `--trace 0`: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("platforms_per_s", "1/s"),
    ("quality_ratio", "ratio"),
    ("output_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`: name and unit. A layer a
/// workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("platform.generate_ms", "ms"),
    ("flow.max_flow_us", "us"),
    ("flow.certify_ms", "ms"),
    ("flow.solves", "count"),
    ("core.solve_ms", "ms"),
    ("search.probes", "count"),
    ("core.validate_ms", "ms"),
    ("io.scheme_encode_ms", "ms"),
    ("io.scheme_decode_ms", "ms"),
    ("io.scheme_edges", "count"),
    ("cli.solve_ms", "ms"),
    ("cli.verify_ms", "ms"),
    ("session.round_us_p50", "us"),
    ("session.round_us_p99", "us"),
    ("session.rounds", "count"),
    ("session.snapshot_us", "us"),
    ("adapt.repair_ms_p50", "ms"),
    ("adapt.repair_ms_p99", "ms"),
    ("adapt.decisions", "count"),
    ("adapt.attempts_per_repair", "ratio"),
    ("adapt.repair_yield", "ratio"),
    ("adapt.flow_solves", "count"),
    ("adapt.probes", "count"),
    ("adapt.warm_share", "ratio"),
    ("adapt.recovery_p99", "sim_time"),
    ("serve.session_build_ms", "ms"),
    ("serve.shard_speedup", "ratio"),
    ("serve.self_share", "ratio"),
    ("serve.ckpt_kb_max", "KB"),
    ("serve.ckpt_encode_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

const USAGE: &str = "usage: bmp-perfbench --workload <solve-publish|fleet-steady|fleet-churn> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// `"name": {"value": v, "unit": "u"}`, as the result line and trace document carry it.
    pub fn to_json(&self) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(self.name),
            json_number(self.value),
            json_string(self.unit)
        )
    }
}

/// What a workload run hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (instances, or fleet sessions submitted).
    pub attempted: u64,
    /// Operations that failed a check, were refused, quarantined or degraded.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Records a failed check: it counts `ops` failed operations and does not stop the run.
    pub fn fail(&mut self, ops: u64, message: String) {
        self.failed += ops;
        self.failures.push(message);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [flag, value]
                if ["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) =>
            {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Removes every `BMP_*` variable (`BMP_SPECULATE`, `BMP_INCREMENTAL`,
/// `BMP_DISABLE_JOURNAL`, `BMP_FAULT_PLAN`, ...) before any layer reads one, so the
/// benchmark always measures the program's defaults. Runs first in `main`, while the
/// process has a single thread.
fn pin_environment() -> Vec<String> {
    let pinned: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("BMP_"))
        .collect();
    for key in &pinned {
        std::env::remove_var(key);
    }
    pinned
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|id| id.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// FNV-1a digest of the program's sources (every file under `crates/` plus the root
/// manifest and lock file, in path order): identifies the code measured even where
/// the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", fnv1a(&bytes))
}

/// The host, code version and program defaults the result was measured under.
fn environment(pinned: &[String]) -> Vec<(&'static str, String)> {
    let ctx = bmp_core::EvalCtx::new();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    vec![
        ("nproc", nproc.to_string()),
        ("commit", json_string(&commit())),
        ("source_digest", json_string(&source_digest())),
        (
            "default_speculation",
            bmp_core::solver::default_speculation().to_string(),
        ),
        (
            "default_incremental",
            bmp_core::solver::default_incremental().to_string(),
        ),
        ("default_journal", ctx.journal_enabled().to_string()),
        ("default_eval_parallelism", ctx.parallelism().to_string()),
        (
            "pinned_env",
            format!(
                "[{}]",
                pinned
                    .iter()
                    .map(|key| json_string(key))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ]
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "solve-publish" => solve_publish::run(args),
        "fleet-steady" => fleet::run(args, &fleet::STEADY),
        "fleet-churn" => fleet::run(args, &fleet::CHURN),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let pinned = pin_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env = environment(&pinned);
    let env_json = format!(
        "{{{}}}",
        env.iter()
            .map(|(key, value)| format!("{}: {value}", json_string(key)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("# environment: {env_json}");
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("benchmark aborted: {message}");
            std::process::exit(1);
        }
    };

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match outcome.values.get(name) {
            Some(&value) => value,
            None if args.trace => 0.0,
            None => {
                outcome
                    .failures
                    .push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() || (!args.trace && value <= 0.0) {
            outcome
                .failures
                .push(format!("metric {name} = {value} is not a valid reading"));
        }
        metrics.push(Metric { name, value, unit });
    }

    if let Some(trace) = &outcome.trace {
        let path = format!(".bench_work/trace-{}-seed{}.json", args.workload, args.seed);
        let header = [
            ("workload", json_string(&args.workload)),
            ("seed", args.seed.to_string()),
            ("environment", env_json),
        ];
        match std::fs::write(&path, trace.document(&header, &metrics)) {
            Ok(()) => outcome
                .notes
                .push(format!("spans and per-layer metrics written to {path}")),
            Err(e) => outcome.failures.push(format!("cannot write {path}: {e}")),
        }
    }

    for line in &outcome.notes {
        println!("# {line}");
    }
    for failure in &outcome.failures {
        println!("# CHECK FAILED: {failure}");
    }
    for metric in &metrics {
        println!(
            "{:<28} {:>16} {}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    let correct = outcome.failures.is_empty();
    let body: Vec<String> = metrics.iter().map(Metric::to_json).collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
