//! The conformance driver's own acceptance criteria (ISSUE 5):
//!
//! * `nvwa conformance` is **bit-deterministic for a fixed seed** — the
//!   full report text is byte-identical under 1, 2 and 8 threads. The
//!   report carries only seeds, case counts and check names (never
//!   timings or machine state), and every server the driver starts pins
//!   an explicit worker count, so thread configuration cannot leak in.
//! * On a healthy tree every family passes for the CI seed list.
//! * A failing check never panics the driver: it becomes a `FAIL` line
//!   and a non-passing report.
//!
//! The runs here use small case counts (each determinism run spins up
//! real servers for the serve and fault families); the full-size sweep is
//! `nvwa conformance --seed-from-ci` in CI.

use nvwa::sim::par;
use nvwa::testkit::conformance::{run, ConformanceConfig, Family};

fn small_config() -> ConformanceConfig {
    ConformanceConfig {
        seeds: vec![5],
        cases: 8,
        serve_reads: 16,
        families: Family::ALL.to_vec(),
        repro_dir: None, // a determinism probe must not write artifacts
    }
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let config = small_config();
    let texts: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| par::with_threads(threads, || run(&config).text()))
        .collect();
    assert_eq!(
        texts[0], texts[1],
        "conformance report differs between 1 and 2 threads"
    );
    assert_eq!(
        texts[0], texts[2],
        "conformance report differs between 1 and 8 threads"
    );
}

#[test]
fn healthy_tree_passes_every_family() {
    let report = run(&small_config());
    assert!(
        report.passed(),
        "conformance failed on a healthy tree:\n{}",
        report.text()
    );
    // Every family contributed: 4 diff checks + extension + invariants
    // + faults + registry + long_read.
    assert_eq!(report.checks, 9, "{}", report.text());
    let text = report.text();
    for needle in [
        "sw:",
        "smem:",
        "pipeline:",
        "serve:",
        "extension:",
        "invariants:",
        "faults:",
        "registry:",
        "long_read:",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn family_selection_limits_the_run() {
    let config = ConformanceConfig {
        families: vec![Family::Invariants],
        serve_reads: 0,
        cases: 0,
        seeds: vec![2, 3],
        repro_dir: None,
    };
    let report = run(&config);
    assert!(report.passed(), "{}", report.text());
    assert_eq!(report.checks, 2, "one invariant check per seed");
    assert!(!report.text().contains("sw:"), "diff family must not run");
}
