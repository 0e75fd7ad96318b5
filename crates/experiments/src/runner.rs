//! Shared plumbing for the experiment binaries: output directory handling and a tiny
//! command-line convention (`--quick`, `--out <dir>`).

use std::path::{Path, PathBuf};

/// Options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Run a reduced version of the experiment (smoke-test scale).
    pub quick: bool,
    /// Directory where CSV outputs are written.
    pub output_dir: PathBuf,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            quick: false,
            output_dir: PathBuf::from("experiment-results"),
        }
    }
}

impl RunOptions {
    /// Parses the binaries' common flags from an argument iterator.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown argument or an `--out` without a directory,
    /// so a typo (`--quik`) never silently runs the full experiment.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut options = RunOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" | "-q" => options.quick = true,
                "--full" => options.quick = false,
                "--out" | "-o" => {
                    let dir = iter
                        .next()
                        .ok_or_else(|| format!("{arg} expects a directory"))?;
                    options.output_dir = PathBuf::from(dir);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(options)
    }

    /// Parses the options from the process arguments; on a bad argument, prints the
    /// reason and the accepted flags to stderr and exits with status 2.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("error: {message} (accepted: --quick | -q, --full, --out | -o DIR)");
            std::process::exit(2)
        })
    }

    /// Path of an output file inside the output directory.
    #[must_use]
    pub fn output_path(&self, name: &str) -> PathBuf {
        self.output_dir.join(name)
    }
}

/// Writes `content` to `path`, creating parent directories, and logs the destination.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_output(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, content)?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let args = |args: &[&str]| RunOptions::parse(args.iter().map(ToString::to_string));
        let options = args(&["--quick", "--out", "/tmp/results"]).unwrap();
        assert!(options.quick);
        assert_eq!(options.output_dir, PathBuf::from("/tmp/results"));
        assert_eq!(
            options.output_path("fig7.csv"),
            PathBuf::from("/tmp/results/fig7.csv")
        );
        // A typo or a value-less `--out` is refused, never ignored.
        for bad in [
            &["--quik"][..],
            &["--quick", "--unknown"],
            &["--out"],
            &["-o"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn defaults() {
        let options = RunOptions::parse(std::iter::empty::<String>()).unwrap();
        assert!(!options.quick);
        assert_eq!(options.output_dir, PathBuf::from("experiment-results"));
    }

    #[test]
    fn full_flag_overrides_quick() {
        let options =
            RunOptions::parse(["--quick", "--full"].iter().map(ToString::to_string)).unwrap();
        assert!(!options.quick);
    }

    #[test]
    fn write_output_creates_directories() {
        let dir = std::env::temp_dir().join("bmp_runner_test");
        let path = dir.join("sub").join("file.txt");
        write_output(&path, "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
