//! Minimal command-line argument parsing (no external dependency).
//!
//! The CLI grammar is deliberately simple: one positional subcommand followed by
//! `--flag value` pairs and boolean `--flag` switches. [`ArgList`] splits the raw arguments
//! accordingly and offers typed accessors with uniform error reporting.

use crate::error::CliError;
use std::collections::BTreeMap;

/// Parsed command line: the subcommand name plus its flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArgList {
    /// The subcommand (first positional argument), empty when none was given.
    pub command: String,
    flags: BTreeMap<String, Option<String>>,
}

/// Flags that take no value (presence/absence switches).
pub(crate) const BOOLEAN_FLAGS: &[&str] = &["--trace", "--repair", "--queue"];

/// The accepted flags of one subcommand.
///
/// Each `cmd_*` module declares its spec and calls [`ArgList::reject_unknown_flags`]
/// before reading any flag, so a typo (`--instnace`) fails with a usage error that
/// enumerates the accepted flags instead of being silently ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagSpec {
    /// Subcommand the spec belongs to (used in error messages).
    pub command: &'static str,
    /// Every flag the subcommand accepts, boolean or value-taking.
    pub flags: &'static [&'static str],
}

impl ArgList {
    /// Parses raw arguments (excluding the binary name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when a flag is malformed (does not start with `--`) or a
    /// value-taking flag has no value.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut parsed = ArgList::default();
        let mut iter = args.iter().peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") {
                parsed.command = iter.next().expect("peeked").clone();
            }
        }
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument {arg:?} (flags start with --)"
                )));
            };
            if name.is_empty() {
                return Err(CliError::Usage("empty flag name".into()));
            }
            let key = format!("--{name}");
            if BOOLEAN_FLAGS.contains(&key.as_str()) {
                parsed.flags.insert(key, None);
            } else {
                // Refuse to consume a following flag as the value: a typo'd boolean
                // switch (`--repiar --scheme x.json`) must fail on the typo itself
                // instead of swallowing the next flag and failing somewhere else.
                let value = iter
                    .next_if(|value| !value.starts_with("--"))
                    .ok_or_else(|| CliError::Usage(format!("flag {key} expects a value")))?;
                parsed.flags.insert(key, Some(value.clone()));
            }
        }
        Ok(parsed)
    }

    /// Names of every flag present on the command line, in sorted order.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// Rejects any flag not listed in `spec` with a usage error enumerating the
    /// subcommand's accepted flags.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] naming the first unknown flag.
    pub fn reject_unknown_flags(&self, spec: &FlagSpec) -> Result<(), CliError> {
        for name in self.flag_names() {
            if !spec.flags.contains(&name) {
                let accepted = if spec.flags.is_empty() {
                    "it takes no flags".to_string()
                } else {
                    format!("accepted flags: {}", spec.flags.join(", "))
                };
                return Err(CliError::Usage(format!(
                    "unknown flag {name} for `{}`; {accepted}",
                    spec.command
                )));
            }
        }
        Ok(())
    }

    /// Refuses every flag present besides `--resume` and `allowed`: a resumed run is
    /// fixed by its checkpoint, so each command lists what may accompany `--resume`, and
    /// a flag added to the command later conflicts with it by default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] naming the first conflicting flag.
    pub fn reject_resume_conflicts(&self, allowed: &[&str]) -> Result<(), CliError> {
        match self
            .flag_names()
            .find(|name| *name != "--resume" && !allowed.contains(name))
        {
            Some(name) => Err(CliError::Usage(format!(
                "{name} conflicts with --resume: the checkpoint fixes the run (only {} may \
                 accompany it)",
                allowed.join(", ")
            ))),
            None => Ok(()),
        }
    }

    /// Whether the boolean switch `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The raw value of `flag`, if present.
    #[must_use]
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).and_then(|v| v.as_deref())
    }

    /// The value of a mandatory flag.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the flag is missing.
    pub fn require(&self, flag: &str) -> Result<&str, CliError> {
        self.get(flag)
            .ok_or_else(|| CliError::Usage(format!("missing required flag {flag}")))
    }

    /// Parses the value of `flag` as type `T`, `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn get_optional<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.get(flag).map(|raw| parse_value(flag, raw)).transpose()
    }

    /// Parses the value of `flag` as type `T`, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.get_optional(flag)?.unwrap_or(default))
    }

    /// Parses the value of a mandatory flag as type `T`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the flag is missing or does not parse.
    pub fn require_parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<T, CliError> {
        parse_value(flag, self.require(flag)?)
    }

    /// Parses `flag` as a finite, positive number, falling back to `default` (unchecked)
    /// when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse or is zero, negative,
    /// infinite or NaN.
    pub fn get_positive(&self, flag: &str, default: f64) -> Result<f64, CliError> {
        let value = self.get_parsed(flag, default)?;
        if self.get(flag).is_some() && !(value.is_finite() && value > 0.0) {
            return Err(CliError::Usage(format!(
                "flag {flag} must be a finite positive number, got {value}"
            )));
        }
        Ok(value)
    }
}

/// Parses the raw value of `flag`: the one invalid-value message of every accessor.
fn parse_value<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError::Usage(format!("flag {flag} has an invalid value {raw:?}")))
}

/// `--checkpoint-every N` of `simulate` and `serve`: at least 1, and only together with
/// `--checkpoint FILE`; `default` when absent.
pub(crate) fn checkpoint_every(args: &ArgList, default: usize) -> Result<usize, CliError> {
    if args.has("--checkpoint-every") && !args.has("--checkpoint") {
        return Err(CliError::Usage(
            "--checkpoint-every requires --checkpoint FILE (where to write)".into(),
        ));
    }
    match args.get_parsed("--checkpoint-every", default)? {
        0 => Err(CliError::Usage(
            "--checkpoint-every must be at least 1".into(),
        )),
        every => Ok(every),
    }
}

/// `--repair-algorithm NAME` of `simulate` and `serve`: `NAME` must be a registry solver.
pub(crate) fn repair_algorithm(args: &ArgList) -> Result<Option<&str>, CliError> {
    let Some(name) = args.get("--repair-algorithm") else {
        return Ok(None);
    };
    if bmp_core::solver::find(name).is_none() {
        let names: Vec<&str> = bmp_core::solver::registry()
            .iter()
            .map(|solver| solver.name())
            .collect();
        return Err(CliError::Usage(format!(
            "unknown repair algorithm {name:?} (expected one of {})",
            names.join(", ")
        )));
    }
    Ok(Some(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let args = ArgList::parse(&strings(&[
            "simulate",
            "--scheme",
            "scheme.json",
            "--repair",
            "--floor",
            "0.8",
        ]))
        .unwrap();
        assert_eq!(args.command, "simulate");
        assert_eq!(args.get("--scheme"), Some("scheme.json"));
        assert!(args.has("--repair"));
        assert_eq!(args.get_parsed("--floor", 0.0).unwrap(), 0.8);
    }

    #[test]
    fn empty_arguments_are_valid() {
        let args = ArgList::parse(&[]).unwrap();
        assert_eq!(args.command, "");
        assert!(!args.has("--repair"));
        assert_eq!(args.get("--instance"), None);
    }

    #[test]
    fn missing_value_is_reported() {
        let err = ArgList::parse(&strings(&["solve", "--instance"])).unwrap_err();
        assert!(err.to_string().contains("expects a value"));
    }

    #[test]
    fn value_flags_do_not_swallow_following_flags() {
        // A typo'd boolean switch must fail on the typo itself, not consume the next
        // flag as its value and fail with a misleading message further on.
        let err =
            ArgList::parse(&strings(&["simulate", "--repiar", "--scheme", "x.json"])).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("--repiar"));
        assert!(message.contains("expects a value"));
    }

    #[test]
    fn unexpected_positional_is_reported() {
        let err = ArgList::parse(&strings(&["solve", "oops"])).unwrap_err();
        assert!(err.to_string().contains("unexpected positional"));
    }

    #[test]
    fn require_reports_missing_flags() {
        let args = ArgList::parse(&strings(&["bounds"])).unwrap();
        let err = args.require("--instance").unwrap_err();
        assert!(err.to_string().contains("--instance"));
        let err = args.require_parsed::<f64>("--throughput").unwrap_err();
        assert!(err.to_string().contains("--throughput"));
    }

    #[test]
    fn defaults_and_bad_values() {
        let args = ArgList::parse(&strings(&["generate", "--receivers", "ten"])).unwrap();
        assert_eq!(args.get_parsed("--seed", 7u64).unwrap(), 7);
        assert_eq!(args.get_optional::<u64>("--seed").unwrap(), None);
        // Every accessor reports a bad value in the same words.
        let expected = r#"usage error: flag --receivers has an invalid value "ten""#;
        for err in [
            args.get_parsed("--receivers", 0usize).unwrap_err(),
            args.get_optional::<usize>("--receivers").unwrap_err(),
            args.require_parsed::<usize>("--receivers").unwrap_err(),
        ] {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn resume_accepts_only_the_allowed_flags() {
        let allowed = ["--report"];
        let ok = ArgList::parse(&strings(&[
            "simulate", "--resume", "c.json", "--report", "r",
        ]));
        assert!(ok.unwrap().reject_resume_conflicts(&allowed).is_ok());
        let switch = ArgList::parse(&strings(&["simulate", "--resume", "c.json", "--repair"]));
        let message = switch
            .unwrap()
            .reject_resume_conflicts(&allowed)
            .unwrap_err()
            .to_string();
        assert!(
            message.contains("--repair conflicts with --resume"),
            "{message}"
        );
        assert!(
            message.contains("only --report may accompany it"),
            "{message}"
        );
    }

    #[test]
    fn empty_flag_name_is_rejected() {
        let err = ArgList::parse(&strings(&["solve", "--"])).unwrap_err();
        assert!(err.to_string().contains("empty flag"));
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_accepted_list() {
        let spec = FlagSpec {
            command: "solve",
            flags: &["--instance", "--algorithm"],
        };
        let ok = ArgList::parse(&strings(&["solve", "--instance", "x.json"])).unwrap();
        assert!(ok.reject_unknown_flags(&spec).is_ok());
        let typo = ArgList::parse(&strings(&["solve", "--instnace", "x.json"])).unwrap();
        let err = typo.reject_unknown_flags(&spec).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("--instnace"));
        assert!(message.contains("`solve`"));
        assert!(message.contains("--instance, --algorithm"));
    }

    #[test]
    fn flagless_commands_say_so() {
        let spec = FlagSpec {
            command: "help",
            flags: &[],
        };
        let args = ArgList::parse(&strings(&["help", "--trace"])).unwrap();
        let err = args.reject_unknown_flags(&spec).unwrap_err();
        assert!(err.to_string().contains("takes no flags"));
    }
}
