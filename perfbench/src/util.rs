//! Helpers shared by the workloads: order statistics, output digests, seed mixing,
//! peak memory, the scratch directory and the in-process CLI call.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values` for `fraction` in `[0, 1]` (0 when empty).
pub fn percentile(values: &[f64], fraction: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((fraction * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A tail latency: the highest percentile that still has at least ten samples beyond
/// it, never below the median.
pub struct Tail {
    pub value: f64,
    /// The percentile the value sits at (nearest rank).
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile of `values` with at least ten samples beyond it. With fewer
/// than 21 samples no such percentile lies above the median, so the median is used.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let index = n.saturating_sub(11).max(n / 2);
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

/// 64-bit FNV-1a digest of `bytes`: stable across platforms and releases, so equal
/// digests across runs mean byte-identical outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The splitmix64 finalizer: derives independent input seeds from the run seed. Kept
/// in the benchmark so the inputs do not change when the program's own seed mixing
/// does.
pub fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MB (10^6 bytes), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The run's scratch directory under `.bench_work/` in the current directory,
/// removed with everything in it when dropped.
pub struct WorkDir {
    dir: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>/`.
    pub fn create(tag: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create scratch directory {dir:?}: {e}"))?;
        Ok(WorkDir { dir })
    }

    /// A path inside the scratch directory, as the string the CLI takes.
    pub fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs one CLI command in-process through `bmp_cli::run` and returns its output.
pub fn cli(args: &[String]) -> Result<String, String> {
    let mut out = Vec::new();
    bmp_cli::run(args, &mut out).map_err(|e| format!("`{}` failed: {e}", args.join(" ")))?;
    String::from_utf8(out).map_err(|e| format!("`{}` printed invalid UTF-8: {e}", args[0]))
}

/// Reads a file the program wrote.
pub fn read_output(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read output {path}: {e}"))
}

/// The value after `label` on the first line of `output` starting with it, up to the
/// next whitespace, parsed as a number.
pub fn field(output: &str, label: &str) -> Option<f64> {
    output
        .lines()
        .find_map(|line| line.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
}

/// Whether some line of `output` is exactly `line` (ignoring trailing blanks).
pub fn has_line(output: &str, line: &str) -> bool {
    output.lines().any(|candidate| candidate.trim_end() == line)
}

/// Quotes `text` as a JSON string.
pub fn json_string(text: &str) -> String {
    let mut quoted = String::with_capacity(text.len() + 2);
    quoted.push('"');
    for ch in text.chars() {
        match ch {
            '"' => quoted.push_str("\\\""),
            '\\' => quoted.push_str("\\\\"),
            c if (c as u32) < 0x20 => quoted.push_str(&format!("\\u{:04x}", c as u32)),
            c => quoted.push(c),
        }
    }
    quoted.push('"');
    quoted
}

/// Formats `value` as a JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0 and are caught by the result's validity check).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let tail = tail(&values);
        assert_eq!(tail.value, 30.0);
        assert_eq!(values.iter().filter(|&&v| v > tail.value).count(), 10);
        assert_eq!(tail.percentile, 75.0);
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(super::tail(&few).value, 5.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fields_parse_from_cli_output() {
        let output = "throughput : 4.500000\nverified   : 4.500000 (max-flow)\n";
        assert_eq!(field(output, "verified   :"), Some(4.5));
        assert!(has_line(output, "throughput : 4.500000"));
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
