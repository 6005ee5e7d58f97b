//! End-to-end checks of the telemetry subsystem's acceptance criteria.
//!
//! * Chrome-trace busy spans integrate to the reported SU/EU utilization
//!   (within 1% — in fact exactly, since spans and the stall tracker share
//!   event-boundary endpoints).
//! * Per-cause stall cycles sum exactly to each pool's idle cycles, and
//!   busy + idle covers the whole pool-time rectangle.
//! * Metrics snapshots pass their schema validator.
//! * The trace for a tiny 2-SU/2-EU run is byte-stable against a golden
//!   file (regenerate with `NVWA_BLESS=1 cargo test -q --test
//!   telemetry_integration`).
//! * Every simulated statistic of the four Fig. 11 variants on two
//!   configurations is byte-stable against `tests/golden/sim_stats.json`
//!   (same `NVWA_BLESS=1` contract): a simulator change that moves a
//!   scheduling decision, an event order or a tie-break fails here.

use nvwa::core::config::{EuClass, NvwaConfig};
use nvwa::core::experiments::fig11;
use nvwa::core::system::{simulate_instrumented, SimOptions, SimRun};
use nvwa::core::units::workload::SyntheticWorkloadParams;
use nvwa::telemetry::snapshot::{validate, Kind};
use nvwa::telemetry::{cycles_to_us, JsonValue, SnapshotMeta, StallCause, PID_ACCELERATOR};

fn instrumented_run() -> SimRun {
    let works = SyntheticWorkloadParams {
        reads: 400,
        ..SyntheticWorkloadParams::default()
    }
    .generate(7);
    simulate_instrumented(
        &NvwaConfig::small_test(),
        &works,
        &SimOptions { trace: true },
    )
}

#[test]
fn trace_busy_spans_integrate_to_reported_utilization() {
    let config = NvwaConfig::small_test();
    let run = instrumented_run();
    let trace = run.trace.as_ref().expect("trace requested");
    let total_us = cycles_to_us(run.report.total_cycles);

    let su_count = config.su_count;
    let su_busy_us: f64 = (0..su_count)
        .map(|i| trace.track_busy_us(PID_ACCELERATOR, i, "read"))
        .sum();
    let su_expected = run.report.su_utilization * su_count as f64 * total_us;
    assert!(
        (su_busy_us - su_expected).abs() <= 0.01 * su_expected,
        "SU busy spans {su_busy_us} µs vs utilization integral {su_expected} µs"
    );

    let eu_count = config.total_eus();
    let eu_busy_us: f64 = (0..eu_count)
        .map(|j| trace.track_busy_us(PID_ACCELERATOR, su_count + j, "hit"))
        .sum();
    let eu_expected = run.report.eu_utilization * eu_count as f64 * total_us;
    assert!(
        (eu_busy_us - eu_expected).abs() <= 0.01 * eu_expected,
        "EU busy spans {eu_busy_us} µs vs utilization integral {eu_expected} µs"
    );
}

#[test]
fn stall_cycles_sum_to_idle_cycles_in_snapshot() {
    let config = NvwaConfig::small_test();
    let run = instrumented_run();
    let pool_time = run.report.total_cycles as f64;
    for (prefix, units) in [("su", config.su_count), ("eu", config.total_eus())] {
        let gauge = |name: &str| {
            run.metrics
                .gauge_value(name)
                .unwrap_or_else(|| panic!("gauge {name} missing"))
        };
        let by_cause: f64 = StallCause::IDLE_CAUSES
            .iter()
            .map(|c| gauge(&format!("{prefix}.stall.{}.cycles", c.label())))
            .sum();
        let idle = gauge(&format!("{prefix}.idle_cycles"));
        let busy = gauge(&format!("{prefix}.busy_cycles"));
        assert_eq!(by_cause, idle, "{prefix}: per-cause sum != idle cycles");
        assert_eq!(
            busy + idle,
            units as f64 * pool_time,
            "{prefix}: busy + idle != pool-time rectangle"
        );
    }
}

#[test]
fn metrics_snapshot_passes_schema_validation() {
    let run = instrumented_run();
    let meta = SnapshotMeta::collect(1);
    let text = run.metrics.snapshot_json(&meta);
    let doc = JsonValue::parse(&text).expect("snapshot parses");
    validate(Kind::MetricsSnapshot, &doc).expect("snapshot validates");
}

/// A 2-SU/2-EU system small enough for a human-readable golden trace.
fn tiny_config() -> NvwaConfig {
    NvwaConfig {
        su_count: 2,
        eu_classes: vec![EuClass::new(16, 1), EuClass::new(32, 1)],
        hits_buffer_depth: 16,
        alloc_batch_size: 4,
        su_cache_blocks: 64,
        stats_bucket: 256,
        ..NvwaConfig::paper()
    }
}

#[test]
fn tiny_trace_round_trips_and_matches_golden_file() {
    let works = SyntheticWorkloadParams {
        reads: 8,
        ..SyntheticWorkloadParams::default()
    }
    .generate(0xA11CE);
    let run = simulate_instrumented(&tiny_config(), &works, &SimOptions { trace: true });
    let trace = run.trace.as_ref().expect("trace requested");
    let text = trace.to_json();

    // Parses, validates as a Chrome trace, and serialization is stable.
    let doc = JsonValue::parse(&text).expect("trace parses");
    validate(Kind::ChromeTrace, &doc).expect("trace validates");
    assert_eq!(doc.to_string_pretty(), text, "round trip is byte-stable");

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_tiny.json");
    match nvwa::testkit::golden::compare_or_bless(std::path::Path::new(golden), &text) {
        nvwa::testkit::golden::Outcome::Matched | nvwa::testkit::golden::Outcome::Blessed => {}
        nvwa::testkit::golden::Outcome::Drifted(summary) => panic!("{summary}"),
    }
}

/// Both `HitPath`s, strict and first-idle FIFO dispatch, the Read-in-Batch
/// barrier and stall / resume on each path: the four ablation variants at
/// paper scale and on a stall-heavy small system (Store Buffer of 8).
#[test]
fn simulated_statistics_match_golden_file() {
    let shapes = [
        ("paper", NvwaConfig::paper(), 600),
        (
            "stall_heavy",
            NvwaConfig {
                hits_buffer_depth: 8,
                alloc_batch_size: 4,
                ..NvwaConfig::small_test()
            },
            300,
        ),
    ];
    let mut runs = Vec::new();
    for (shape, base, reads) in shapes {
        let works = SyntheticWorkloadParams {
            reads,
            ..SyntheticWorkloadParams::default()
        }
        .generate(0x5EED);
        for (label, scheduling) in fig11::ablation_variants() {
            let config = NvwaConfig {
                scheduling,
                ..base.clone()
            };
            let run = simulate_instrumented(&config, &works, &SimOptions::default());
            let snapshot = run.metrics.snapshot(&SnapshotMeta::default());
            // `series` is left out: it would take the file from 21 KB to 258 KB,
            // and the busy/idle gauges are its exact integrals.
            let mut stats: Vec<(String, JsonValue)> = ["counters", "gauges", "histograms"]
                .iter()
                .map(|&k| (k.to_string(), snapshot.get(k).expect(k).clone()))
                .collect();
            let matrix = run
                .report
                .assignment_matrix
                .iter()
                .map(|row| JsonValue::Arr(row.iter().map(|&n| JsonValue::Num(n as f64)).collect()))
                .collect();
            stats.push(("assignment_matrix".to_string(), JsonValue::Arr(matrix)));
            runs.push((format!("{shape}/{label}"), JsonValue::Obj(stats)));
        }
    }
    let text = JsonValue::Obj(runs).to_string_pretty();

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_stats.json");
    match nvwa::testkit::golden::compare_or_bless(std::path::Path::new(golden), &text) {
        nvwa::testkit::golden::Outcome::Matched | nvwa::testkit::golden::Outcome::Blessed => {}
        nvwa::testkit::golden::Outcome::Drifted(summary) => panic!("{summary}"),
    }
}
