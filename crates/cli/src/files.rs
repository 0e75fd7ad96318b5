//! Reading and writing the CLI's JSON artefacts (instances, broadcast schemes, and
//! closed-loop run checkpoints).

use crate::error::CliError;
use bmp_core::scheme::BroadcastScheme;
use bmp_platform::Instance;
use bmp_serve::FleetCheckpoint;
use bmp_sim::RunCheckpoint;
use std::fs;
use std::path::Path;

/// Reads a platform instance from a JSON file produced by [`write_instance`] (or by any code
/// serialising [`Instance`] with serde).
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be read and [`CliError::Json`] when it does
/// not contain a valid instance.
pub fn read_instance(path: &str) -> Result<Instance, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read instance file {path}: {e}")))?;
    Ok(serde_json::from_str(&text)?)
}

/// Writes a platform instance as pretty-printed JSON.
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be written.
pub fn write_instance(path: &str, instance: &Instance) -> Result<(), CliError> {
    write_text(path, &serde_json::to_string_pretty(instance)?)
}

/// Reads a broadcast scheme (which embeds its instance) from a JSON file.
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be read and [`CliError::Json`] when it does
/// not contain a valid scheme.
pub fn read_scheme(path: &str) -> Result<BroadcastScheme, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read scheme file {path}: {e}")))?;
    Ok(serde_json::from_str(&text)?)
}

/// Writes a broadcast scheme as pretty-printed JSON.
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be written.
pub fn write_scheme(path: &str, scheme: &BroadcastScheme) -> Result<(), CliError> {
    write_text(path, &serde_json::to_string_pretty(scheme)?)
}

/// Reads a closed-loop run checkpoint written by [`write_checkpoint`].
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be read and [`CliError::Json`] when it
/// does not contain a valid checkpoint (validation is structural here; the semantic
/// invariants are enforced when the run is resumed).
pub fn read_checkpoint(path: &str) -> Result<RunCheckpoint, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read checkpoint file {path}: {e}")))?;
    Ok(serde_json::from_str(&text)?)
}

/// Writes a closed-loop run checkpoint as compact JSON. The encoding is deterministic
/// (f64 values use shortest-round-trip formatting), so identical run states produce
/// byte-identical checkpoint files.
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be written.
pub fn write_checkpoint(path: &str, checkpoint: &RunCheckpoint) -> Result<(), CliError> {
    write_text(path, &serde_json::to_string(checkpoint)?)
}

/// Reads a fleet checkpoint written by [`write_fleet_checkpoint`] (or streamed out by
/// `serve --checkpoint`).
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be read, [`CliError::Json`] when it
/// does not contain a fleet checkpoint document, and [`CliError::InvalidCheckpoint`]
/// when a pending session's saved state cannot be resumed
/// ([`FleetCheckpoint::validate`]). Config/admission consistency is enforced when the
/// fleet is resumed.
pub fn read_fleet_checkpoint(path: &str) -> Result<FleetCheckpoint, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read fleet checkpoint file {path}: {e}")))?;
    let checkpoint = FleetCheckpoint::from_json(&text).map_err(CliError::Json)?;
    checkpoint.validate()?;
    Ok(checkpoint)
}

/// Writes a fleet checkpoint as pretty-printed JSON (deterministic encoding, like all
/// fleet artefacts).
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be written.
pub fn write_fleet_checkpoint(path: &str, checkpoint: &FleetCheckpoint) -> Result<(), CliError> {
    write_text(path, &checkpoint.to_json())
}

/// Writes raw text to `path`, creating parent directories when needed.
///
/// # Errors
///
/// Returns [`CliError::Io`] when the file cannot be written.
pub fn write_text(path: &str, text: &str) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)
                .map_err(|e| CliError::Io(format!("cannot create directory {parent:?}: {e}")))?;
        }
    }
    fs::write(path, text).map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers for the CLI unit tests: unique temporary paths and in-place JSON edits.

    use serde::Value;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A unique path in the system temporary directory (not created).
    pub fn temp_path(tag: &str) -> PathBuf {
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bmp-cli-test-{}-{id}-{tag}", std::process::id()))
    }

    /// The value at `path` inside `value`: object keys, or array indices written as
    /// numbers.
    pub fn at<'a>(value: &'a mut Value, path: &[&str]) -> &'a mut Value {
        path.iter().fold(value, |value, key| match value {
            Value::Object(fields) => {
                &mut fields
                    .iter_mut()
                    .find(|(name, _)| name == key)
                    .unwrap_or_else(|| panic!("no field {key}"))
                    .1
            }
            Value::Array(items) => &mut items[key.parse::<usize>().expect("array index")],
            other => panic!("cannot index {other:?} with {key}"),
        })
    }

    /// Rewrites the JSON document at `path` through `change`.
    pub fn edit_json(path: &str, change: impl FnOnce(&mut Value)) {
        let text = std::fs::read_to_string(path).unwrap();
        let mut value: Value = serde_json::from_str(&text).unwrap();
        change(&mut value);
        std::fs::write(path, serde_json::to_string(&value).unwrap()).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::acyclic_guarded::AcyclicGuardedSolver;
    use bmp_platform::paper::figure1;
    use testutil::temp_path;

    #[test]
    fn instance_roundtrip() {
        let path = temp_path("instance.json");
        let path = path.to_str().unwrap();
        write_instance(path, &figure1()).unwrap();
        let back = read_instance(path).unwrap();
        assert_eq!(back.n(), 2);
        assert_eq!(back.m(), 3);
        assert_eq!(back.source_bandwidth(), 6.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scheme_roundtrip() {
        let solution = AcyclicGuardedSolver::default().solve(&figure1());
        let path = temp_path("scheme.json");
        let path = path.to_str().unwrap();
        write_scheme(path, &solution.scheme).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains(r#""format": 2"#) && text.contains(r#""edges": ["#));
        let back = read_scheme(path).unwrap();
        assert_eq!(back, solution.scheme);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_instance("/nonexistent/bmp/file.json").unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        let err = read_scheme("/nonexistent/bmp/file.json").unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn invalid_json_is_a_json_error() {
        let path = temp_path("garbage.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "{not json").unwrap();
        assert!(matches!(
            read_instance(path).unwrap_err(),
            CliError::Json(_)
        ));
        assert!(matches!(read_scheme(path).unwrap_err(), CliError::Json(_)));
        std::fs::remove_file(path).ok();
    }

    /// Every strict prefix of a document the readers accept — a file cut short by a
    /// crash or a full disk — is refused with a JSON error, never a panic or a partial
    /// read.
    #[test]
    fn truncated_documents_are_json_errors() {
        let dir = temp_path("truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let scheme = AcyclicGuardedSolver::default().solve(&figure1()).scheme;
        write_instance(&path("instance.json"), &figure1()).unwrap();
        write_scheme(&path("scheme.json"), &scheme).unwrap();
        // Paths go in as whole arguments: the temporary directory may contain spaces.
        let cli = |flags: &str, files: &[(&str, &str)]| {
            let mut args: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
            for (flag, file) in files {
                args.extend([flag.to_string(), path(file)]);
            }
            crate::run(&args, &mut Vec::new()).unwrap();
        };
        cli(
            "simulate --chunks 60 --churn 5:3;12:+3 --repair --halt-after 10",
            &[("--scheme", "scheme.json"), ("--checkpoint", "run.ckpt")],
        );
        cli(
            "serve --sessions 1 --receivers 2 --chunks 24 --halt-after 5",
            &[("--checkpoint", "fleet.ckpt")],
        );
        type Reader = fn(&str) -> Result<(), CliError>;
        let readers: [(&str, Reader); 4] = [
            ("instance.json", |path| read_instance(path).map(drop)),
            ("scheme.json", |path| read_scheme(path).map(drop)),
            ("run.ckpt", |path| read_checkpoint(path).map(drop)),
            ("fleet.ckpt", |path| read_fleet_checkpoint(path).map(drop)),
        ];
        let cut = path("cut.json");
        for (name, read) in readers {
            read(&path(name)).unwrap();
            let text = std::fs::read_to_string(path(name)).unwrap();
            let text = text.trim_end();
            for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
                std::fs::write(&cut, &text[..end]).unwrap();
                match read(&cut) {
                    Err(CliError::Json(_)) => {}
                    other => panic!("{name} cut to {end} of {} bytes: {other:?}", text.len()),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads `text` as a scheme file.
    fn read_scheme_text(tag: &str, text: &str) -> Result<BroadcastScheme, CliError> {
        let path = temp_path(tag);
        let path = path.to_str().unwrap();
        std::fs::write(path, text).unwrap();
        let result = read_scheme(path);
        std::fs::remove_file(path).ok();
        result
    }

    #[test]
    fn malformed_scheme_documents_are_json_errors() {
        let instance = serde_json::to_string(&figure1()).unwrap(); // 6 nodes
        let dense_35 = vec!["0"; 35].join(",");
        let cases = [
            (
                "dense-length",
                format!(r#"{{"instance":{instance},"rates":[{dense_35}]}}"#),
            ),
            (
                "endpoint",
                format!(r#"{{"format":2,"instance":{instance},"edges":[[0,6,1.0]]}}"#),
            ),
            (
                "duplicate",
                format!(
                    r#"{{"format":2,"instance":{instance},"edges":[[0,1,1.0],[2,1,1.0],[0,1,0.5]]}}"#
                ),
            ),
            (
                "pair",
                format!(r#"{{"format":2,"instance":{instance},"edges":[[0,1]]}}"#),
            ),
            (
                "quad",
                format!(r#"{{"format":2,"instance":{instance},"edges":[[0,1,1.0,2.0]]}}"#),
            ),
            (
                "object",
                format!(r#"{{"format":2,"instance":{instance},"edges":[{{"from":0}}]}}"#),
            ),
            (
                "rate",
                format!(r#"{{"format":2,"instance":{instance},"edges":[[0,1,"fast"]]}}"#),
            ),
            (
                "infinite-rate",
                format!(r#"{{"format":2,"instance":{instance},"edges":[[0,1,1e400]]}}"#),
            ),
            (
                "negative-infinite-rate",
                format!(r#"{{"format":2,"instance":{instance},"edges":[[0,1,-1e400]]}}"#),
            ),
            (
                "dense-infinite-rate",
                format!(
                    r#"{{"instance":{instance},"rates":[0,1e400,{}]}}"#,
                    vec!["0"; 34].join(",")
                ),
            ),
            (
                "format",
                format!(r#"{{"format":3,"instance":{instance},"edges":[]}}"#),
            ),
            (
                "format-type",
                format!(r#"{{"format":"2","instance":{instance},"edges":[]}}"#),
            ),
        ];
        for (tag, text) in cases {
            match read_scheme_text(tag, &text) {
                Err(CliError::Json(message)) => assert!(!message.is_empty()),
                other => panic!("{tag}: expected a JSON error, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_instance_documents_are_json_errors() {
        // The instance reader validates like `Instance::new_presorted`, whether the
        // instance stands alone or is embedded in a scheme document.
        let cases = [
            (
                "count",
                r#"{"bandwidths":[10,5,3],"n":5,"m":1}"#,
                "expected n + m + 1",
            ),
            (
                "negative",
                r#"{"bandwidths":[10,4,3,-5],"n":2,"m":1}"#,
                "invalid bandwidth -5",
            ),
            (
                "overflow",
                r#"{"bandwidths":[10,1e400,3,4],"n":2,"m":1}"#,
                "invalid bandwidth inf",
            ),
        ];
        for (tag, instance, expected) in cases {
            let path = temp_path(tag);
            let path = path.to_str().unwrap();
            std::fs::write(path, instance).unwrap();
            match read_instance(path) {
                Err(CliError::Json(message)) => assert!(message.contains(expected), "{message}"),
                other => panic!("{tag}: expected a JSON error, got {other:?}"),
            }
            std::fs::remove_file(path).ok();
            let scheme = format!(r#"{{"format":2,"instance":{instance},"edges":[]}}"#);
            match read_scheme_text(tag, &scheme) {
                Err(CliError::Json(message)) => assert!(message.contains(expected), "{message}"),
                other => panic!("{tag} scheme: expected a JSON error, got {other:?}"),
            }
        }
    }

    #[test]
    fn write_text_creates_parent_directories() {
        let dir = temp_path("nested");
        let path = dir.join("deep/file.txt");
        write_text(path.to_str().unwrap(), "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        std::fs::remove_dir_all(&dir).ok();
    }
}
