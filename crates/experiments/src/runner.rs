//! The command line of `bmp-experiments <name|all> [--quick | -q] [--out | -o DIR]`: which
//! registry entry to run ([`crate::registry`]), at which scale, and where its output file
//! goes.

use crate::registry::{self, Experiment};
use std::path::{Path, PathBuf};

/// Options shared by all experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Run a reduced version of the experiment (smoke-test scale).
    pub quick: bool,
    /// Directory where the output files are written.
    pub output_dir: PathBuf,
}

/// What the command line names: one registry entry, or `all` of them.
#[derive(Debug)]
pub enum Selection {
    /// The entry called by its name.
    One(&'static Experiment),
    /// Every entry, in registry order.
    All,
}

impl RunOptions {
    /// Parses the experiment name (`all` or a registry name, anywhere on the line) and
    /// the common flags from an argument iterator.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown argument or an `--out` without a directory,
    /// so a typo (`--quik`) never silently runs the full experiment; a missing or
    /// unknown name lists the registry.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(Selection, Self), String> {
        let mut options = RunOptions {
            quick: false,
            output_dir: PathBuf::from("experiment-results"),
        };
        let mut name = None;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" | "-q" => options.quick = true,
                "--out" | "-o" => {
                    let dir = iter
                        .next()
                        .ok_or_else(|| format!("{arg} expects a directory"))?;
                    options.output_dir = PathBuf::from(dir);
                }
                other if name.is_none() && !other.starts_with('-') => name = Some(arg),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let selection = match name.as_deref() {
            Some("all") => Selection::All,
            name => Selection::One(name.and_then(registry::find).ok_or_else(|| {
                let problem = name.map_or("missing experiment name".into(), |name| {
                    format!("unknown experiment {name:?}")
                });
                format!(
                    "{problem}; registered experiments:\n{}",
                    registry::listing()
                )
            })?),
        };
        Ok((selection, options))
    }

    /// Parses the process arguments; on a bad argument or name, prints the reason and
    /// the usage to stderr and exits with status 2.
    #[must_use]
    pub fn from_env() -> (Selection, Self) {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            eprintln!("usage: bmp-experiments <name|all> [--quick | -q] [--out | -o DIR]");
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

    fn parse(args: &[&str]) -> Result<(Selection, RunOptions), String> {
        RunOptions::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parse_flags() {
        let (selection, options) = parse(&["fig7", "--quick", "--out", "/tmp/results"]).unwrap();
        assert!(matches!(selection, Selection::One(e) if e.name == "fig7"));
        assert!(options.quick);
        assert_eq!(options.output_dir, PathBuf::from("/tmp/results"));
        assert_eq!(
            options.output_path("fig7.csv"),
            PathBuf::from("/tmp/results/fig7.csv")
        );
        // The name may follow the flags.
        let (selection, _) = parse(&["-q", "all"]).unwrap();
        assert!(matches!(selection, Selection::All));
        // A typo, a value-less `--out` or a second name is refused, never ignored.
        for bad in [
            &["fault_storm", "--quik"][..],
            &["fault_storm", "--quick", "--unknown"],
            &["fault_storm", "--out"],
            &["fault_storm", "-o"],
            &["fault_storm", "depth"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn defaults() {
        let (_, options) = parse(&["table1"]).unwrap();
        assert!(!options.quick);
        assert_eq!(options.output_dir, PathBuf::from("experiment-results"));
    }

    #[test]
    fn missing_or_unknown_name_lists_the_registry() {
        for bad in [&[][..], &["--quick"], &["fig8"]] {
            let message = parse(bad).unwrap_err();
            for experiment in &registry::EXPERIMENTS {
                assert!(
                    message.contains(experiment.name),
                    "{bad:?}: {message} omits {}",
                    experiment.name
                );
            }
        }
        assert!(parse(&["fig8"])
            .unwrap_err()
            .starts_with("unknown experiment \"fig8\""));
        assert!(parse(&[])
            .unwrap_err()
            .starts_with("missing experiment name"));
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
