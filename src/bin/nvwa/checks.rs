//! `nvwa conformance`, `nvwa repro` and `nvwa validate`: the cross-layer
//! correctness sweep, the paper's tables and figures as text, and the
//! schema checks of the JSON artifacts.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use nvwa::core::experiments::{Scale, EXPERIMENTS};
use nvwa::telemetry::snapshot::validate_any;
use nvwa::telemetry::{JsonValue, MetricsRegistry, SnapshotMeta};
use nvwa::testkit::conformance::{run, ConformanceConfig, Family};

use crate::args::Args;
use crate::{usage_error, write_artifact};

/// Runs the selected conformance families (differential oracles,
/// simulator conservation laws, serve fault injection — DESIGN.md §11)
/// over the seed list and prints the report, whose bytes are identical
/// for a fixed seed at any `--threads` value; non-zero exit on any
/// divergence. Divergences are minimized and written as reproducer files
/// under `--repro-dir` (default `tests/golden/repro/`, `none` for none).
/// `--seed-from-ci` selects the CI matrix: seeds 1,2,3 × a short and a
/// long profile. `--family NAME` (repeatable) selects the families to
/// run; without it every family runs.
pub fn conformance(args: &Args) -> Result<(), ExitCode> {
    // `--seed` is repeatable; no occurrence means the default matrix.
    let seeds = match args.all("--seed") {
        seeds if seeds.is_empty() => vec![1, 2, 3],
        seeds => seeds,
    };
    // No `--family` means the full matrix. An unknown name is a usage
    // error.
    let mut families = Vec::new();
    for item in args.all::<String>("--family") {
        let Some(family) = Family::parse(&item) else {
            let names = Family::ALL.map(Family::name).join(", ");
            return Err(usage_error(format!(
                "unknown family {item:?} (want one of: {names})"
            )));
        };
        families.push(family);
    }
    if families.is_empty() {
        families = Family::ALL.to_vec();
    }
    let repro_dir = match args.text("--repro-dir") {
        Some("none") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => Some(PathBuf::from("tests/golden/repro")),
    };

    // Profiles: the CI matrix runs every seed at a short and a long read
    // budget; a direct invocation runs one profile from the flags.
    let profiles: Vec<(&str, usize, usize)> = if args.has("--seed-from-ci") {
        vec![("short", 16, 32), ("long", 48, 120)]
    } else {
        vec![(
            "default",
            args.get("--cases").unwrap_or(24),
            args.get("--serve-reads").unwrap_or(48),
        )]
    };

    let mut all_passed = true;
    for (name, cases, serve_reads) in profiles {
        let report = run(&ConformanceConfig {
            seeds: seeds.clone(),
            cases,
            serve_reads,
            families: families.clone(),
            repro_dir: repro_dir.clone(),
        });
        println!("profile: {name} (cases {cases}, serve reads {serve_reads})");
        print!("{}", report.text());
        all_passed &= report.passed();
    }
    if all_passed {
        Ok(())
    } else {
        Err(ExitCode::FAILURE)
    }
}

/// `--full` selects the full evaluation, else the quick one.
fn scale(args: &Args) -> Scale {
    if args.has("--full") {
        Scale::Full
    } else {
        Scale::Quick
    }
}

/// Regenerates the named experiments (every one when none is named) as
/// text. Every name is resolved before anything runs: a typo is a usage
/// error, not an experiment that "ran". `--metrics-out` writes a metrics
/// snapshot with a `repro.<experiment>.wall_ms` gauge per experiment.
pub fn repro(args: &Args) -> Result<(), ExitCode> {
    let scale = scale(args);
    let mut to_run = Vec::new();
    for name in &args.positional {
        let Some(experiment) = EXPERIMENTS.iter().find(|(known, _)| known == name) else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            return Err(usage_error(format!(
                "unknown experiment {name:?}; known: {known:?}"
            )));
        };
        to_run.push(*experiment);
    }
    if to_run.is_empty() {
        to_run = EXPERIMENTS.to_vec();
    }
    println!("NvWa reproduction — experiment suite ({scale:?} scale)");
    let mut metrics = MetricsRegistry::new();
    let ran = metrics.counter("repro.experiments_run");
    for (name, run) in to_run {
        let start = Instant::now();
        println!("================================================================");
        print!("{}", run(scale));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        metrics.inc(ran, 1);
        let id = metrics.gauge(&format!("repro.{name}.wall_ms"));
        metrics.set_gauge(id, wall_ms);
    }
    if let Some(path) = args.text("--metrics-out") {
        let meta = SnapshotMeta::collect(nvwa::sim::par::current_threads());
        write_artifact(path, &metrics.snapshot_json(&meta))?;
    }
    Ok(())
}

/// Schema-checks each file against the schema its shape announces
/// (`nvwa_telemetry::snapshot::Kind`): metrics snapshots (the stricter
/// serve-family schema when the snapshot came from `nvwa serve`), loadgen
/// reports (conservation identities included), flight-recorder dumps,
/// span logs and Chrome traces; exits non-zero on the first failure.
///
/// `--golden <golden> <candidate>` instead compares the one candidate
/// byte-for-byte against a blessed golden file and exits non-zero on
/// drift, printing the line-level diff summary the golden tests use.
/// Regenerate goldens with `NVWA_BLESS=1`, never by hand-editing.
pub fn validate(args: &Args) -> Result<(), ExitCode> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("{path}: cannot read: {e}");
            ExitCode::FAILURE
        })
    };
    if let Some(golden) = args.text("--golden") {
        let [candidate] = &args.positional[..] else {
            return Err(usage_error("--golden compares one candidate file".into()));
        };
        let (expected, actual) = (read(golden), read(candidate));
        let Some(diff) = nvwa::testkit::golden::diff_summary(&expected?, &actual?) else {
            println!("{candidate}: matches golden {golden}");
            return Ok(());
        };
        eprintln!(
            "{candidate}: drifted from golden {golden} \
             (regenerate with NVWA_BLESS=1 if intentional)\n{diff}"
        );
        return Err(ExitCode::FAILURE);
    }
    for path in &args.positional {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| JsonValue::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
            .and_then(|doc| validate_any(&doc));
        let kind = checked.map_err(|e| {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        })?;
        println!("{path}: valid {kind}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let row = crate::SUBCOMMANDS.iter().find(|c| c.0 == "repro").unwrap();
        let scale_of = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            scale(&Args::parse(&argv, row).unwrap())
        };
        assert_eq!(scale_of(&[]), Scale::Quick);
        assert_eq!(scale_of(&["--full"]), Scale::Full);
        assert_eq!(scale_of(&["fig11", "--full"]), Scale::Full);
    }
}
