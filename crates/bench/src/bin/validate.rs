//! validate — schema checks for the repo's JSON artifacts.
//!
//! ```text
//! cargo run -p nvwa-bench --bin validate -- <file> [<file> ...]
//! ```
//!
//! Each file is parsed and validated against the schema its shape
//! announces (`nvwa_telemetry::snapshot::Kind`): metrics snapshots (with
//! the stricter serve-family schema when the snapshot came from
//! `nvwa serve`), loadgen reports (conservation identities included),
//! flight-recorder dumps, span logs and Chrome traces. Exits non-zero on
//! the first failure, so CI can gate on it (see `scripts/check.sh`).
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

use nvwa_telemetry::snapshot::validate_any;
use nvwa_telemetry::JsonValue;

fn validate_file(path: &str) -> Result<&'static str, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    validate_any(&JsonValue::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?)
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
