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
const BOOLEAN_FLAGS: &[&str] = &["--cyclic", "--trace", "--repair", "--queue"];

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
                // switch (`--cylic --instance x.json`) must fail on the typo itself
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

    /// Parses the value of `flag` as type `T`, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("flag {flag} has an invalid value {raw:?}"))),
        }
    }

    /// Parses the value of a mandatory flag as type `T`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the flag is missing or does not parse.
    pub fn require_parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<T, CliError> {
        let raw = self.require(flag)?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("flag {flag} has an invalid value {raw:?}")))
    }
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
            "solve",
            "--instance",
            "inst.json",
            "--cyclic",
            "--tolerance",
            "1e-8",
        ]))
        .unwrap();
        assert_eq!(args.command, "solve");
        assert_eq!(args.get("--instance"), Some("inst.json"));
        assert!(args.has("--cyclic"));
        assert_eq!(args.get_parsed("--tolerance", 0.0).unwrap(), 1e-8);
    }

    #[test]
    fn empty_arguments_are_valid() {
        let args = ArgList::parse(&[]).unwrap();
        assert_eq!(args.command, "");
        assert!(!args.has("--cyclic"));
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
            ArgList::parse(&strings(&["solve", "--cylic", "--instance", "x.json"])).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("--cylic"));
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
        assert!(args.get_parsed("--receivers", 0usize).is_err());
        assert!(args.require_parsed::<usize>("--receivers").is_err());
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
