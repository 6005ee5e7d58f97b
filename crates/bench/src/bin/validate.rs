//! validate — schema checks for the repo's JSON artifacts.
//!
//! ```text
//! cargo run -p nvwa-bench --bin validate -- <file> [<file> ...]
//! ```
//!
//! Each file is parsed and validated against the schema its shape
//! announces: metrics snapshots (`"kind": "nvwa-metrics"`, with the
//! stricter serve-family schema when the snapshot came from `nvwa serve`),
//! loadgen reports (`"kind": "nvwa-loadgen"`, conservation identities
//! included), flight-recorder dumps (`"kind": "nvwa-flight"`), span logs
//! (`"kind": "nvwa-spanlog"`) and Chrome traces (`"traceEvents"`). Exits
//! non-zero on the first failure, so CI can gate on it (see
//! `scripts/check.sh`).
//!
//! ```text
//! cargo run -p nvwa-bench --bin validate -- --golden <golden> <candidate>
//! ```
//!
//! Golden mode compares a candidate artifact byte-for-byte against a
//! blessed golden file and exits non-zero on drift, printing the same
//! line-level diff summary the golden tests use (first divergent line,
//! both sides excerpted). Unblessed drift is rejected here exactly as it
//! is in `cargo test`; regenerate goldens with `NVWA_BLESS=1`, never by
//! hand-editing.

use std::process::ExitCode;

use nvwa_telemetry::snapshot::{
    is_serve_snapshot, validate_chrome_trace, validate_flight_dump, validate_loadgen_report,
    validate_metrics_snapshot, validate_serve_snapshot, validate_span_log,
};
use nvwa_telemetry::JsonValue;

type Validator = fn(&JsonValue) -> Result<(), String>;
/// One accepted document shape: the label printed on success, the test
/// that recognises the shape, its validator.
type Kind = (&'static str, fn(&JsonValue) -> bool, Validator);

fn has_kind(doc: &JsonValue, kind: &str) -> bool {
    doc.get("kind").and_then(|k| k.as_str()) == Some(kind)
}

/// Every document shape `validate` accepts; the first match wins.
#[rustfmt::skip] // one row per shape
const KINDS: &[Kind] = &[
    ("serve metrics snapshot", |d| has_kind(d, "nvwa-metrics") && is_serve_snapshot(d),
        validate_serve_snapshot),
    ("metrics snapshot", |d| has_kind(d, "nvwa-metrics"), validate_metrics_snapshot),
    ("loadgen report", |d| has_kind(d, "nvwa-loadgen"), validate_loadgen_report),
    ("flight dump", |d| has_kind(d, "nvwa-flight"), validate_flight_dump),
    ("span log", |d| has_kind(d, "nvwa-spanlog"), validate_span_log),
    ("chrome trace", |d| d.get("traceEvents").is_some(), validate_chrome_trace),
];

fn kind_of(doc: &JsonValue) -> Result<&'static Kind, String> {
    KINDS.iter().find(|kind| (kind.1)(doc)).ok_or_else(|| {
        let labels: Vec<&str> = KINDS.iter().map(|kind| kind.0).collect();
        format!(
            "unrecognized document shape (expected one of: {})",
            labels.join(", ")
        )
    })
}

fn validate_file(path: &str) -> Result<&'static str, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let &(label, _, validate) = kind_of(&doc)?;
    validate(&doc)?;
    Ok(label)
}

/// `--golden <golden> <candidate>`: byte-exact comparison with the
/// testkit's diff summary on drift.
fn golden_mode(golden: &str, candidate: &str) -> ExitCode {
    let read = |path: &str| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("{path}: cannot read: {e}");
            ExitCode::FAILURE
        })
    };
    let (expected, actual) = match (read(golden), read(candidate)) {
        (Ok(e), Ok(a)) => (e, a),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    match nvwa_testkit::golden::diff_summary(&expected, &actual) {
        None => {
            println!("{candidate}: matches golden {golden}");
            ExitCode::SUCCESS
        }
        Some(diff) => {
            eprintln!(
                "{candidate}: drifted from golden {golden} \
                 (regenerate with NVWA_BLESS=1 if intentional)\n{diff}"
            );
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--golden") {
        if args.len() != 3 {
            eprintln!("usage: validate --golden <golden.json> <candidate.json>");
            return ExitCode::FAILURE;
        }
        return golden_mode(&args[1], &args[2]);
    }
    if args.is_empty() {
        eprintln!("usage: validate <file.json> [<file.json> ...]");
        eprintln!("       validate --golden <golden.json> <candidate.json>");
        return ExitCode::FAILURE;
    }
    for path in &args {
        match validate_file(path) {
            Ok(kind) => println!("{path}: valid {kind}"),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_kind_resolves_and_the_bench_report_shape_no_longer_does() {
        let label_of = |text: &str| kind_of(&JsonValue::parse(text).unwrap()).map(|kind| kind.0);
        for (text, label) in [
            (r#"{"kind": "nvwa-metrics"}"#, "metrics snapshot"),
            (
                r#"{"kind": "nvwa-metrics", "counters": {"serve.requests_admitted": 1}}"#,
                "serve metrics snapshot",
            ),
            (r#"{"kind": "nvwa-loadgen"}"#, "loadgen report"),
            (r#"{"kind": "nvwa-flight"}"#, "flight dump"),
            (r#"{"kind": "nvwa-spanlog"}"#, "span log"),
            (r#"{"traceEvents": []}"#, "chrome trace"),
        ] {
            assert_eq!(label_of(text), Ok(label), "{text}");
        }
        let err = label_of(r#"{"scenarios": [], "speedups": {}}"#).unwrap_err();
        assert!(KINDS.iter().all(|kind| err.contains(kind.0)), "{err}");
    }
}
