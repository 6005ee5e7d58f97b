//! Post-run invariant checking over [`SimRun`]: the conservation laws the
//! telemetry layer promises (DESIGN.md §8), asserted on *any* simulation,
//! not just the telemetry suite.
//!
//! The laws:
//!
//! 1. **Stall conservation** — per pool (`su`, `eu`), the per-cause stall
//!    integrals sum exactly to the pool's idle cycles, and
//!    `busy + idle == units × total_cycles` (the pool-time rectangle).
//! 2. **Trace integration** — when a Chrome trace was recorded, the busy
//!    spans of each pool integrate to the reported utilization (≤1%
//!    tolerance; span endpoints and the stall tracker share event
//!    boundaries, so in practice they agree exactly).
//! 3. **HBM conservation** — `bytes == requests × transaction_bytes` and
//!    `energy_j == bytes × 8 × pJ/bit × 1e-12` (the 7 pJ/bit HBM model).
//! 4. **Monotonic, bounded time** — every trace span starts at or after
//!    cycle 0 and ends at or before the run's total time; utilizations
//!    are in `(0, 1]`.
//! 5. **Report/registry agreement** — the [`nvwa_core::SimReport`] view
//!    matches the registry counters and gauges it claims to summarize, and
//!    the latency histograms saw every read and every dispatched hit.

use nvwa_core::config::NvwaConfig;
use nvwa_core::system::{simulate_instrumented, SimOptions, SimRun};
use nvwa_core::units::workload::ReadWork;
use nvwa_sim::hbm::HbmConfig;
use nvwa_telemetry::{cycles_to_us, JsonValue, StallCause, PID_ACCELERATOR};

/// Runs every invariant over a finished run. Returns the list of
/// violations (empty when all hold).
pub fn check_sim_run(run: &SimRun, config: &NvwaConfig) -> Vec<String> {
    let mut violations = Vec::new();
    let m = &run.metrics;
    let r = &run.report;
    let total = r.total_cycles as f64;
    // The pool the run simulated: the uniform one when HUS is off.
    let eus: u32 = config.effective_eu_classes().iter().map(|c| c.count).sum();
    let hbm = HbmConfig::default();
    let gauge = |name: &str, violations: &mut Vec<String>| -> f64 {
        m.gauge_value(name).unwrap_or_else(|| {
            violations.push(format!("gauge {name} missing from the registry"));
            0.0
        })
    };

    // (1) Stall conservation per pool.
    for (prefix, units) in [("su", config.su_count), ("eu", eus)] {
        let busy = gauge(&format!("{prefix}.busy_cycles"), &mut violations);
        let idle = gauge(&format!("{prefix}.idle_cycles"), &mut violations);
        let by_cause: f64 = StallCause::IDLE_CAUSES
            .iter()
            .map(|c| {
                gauge(
                    &format!("{prefix}.stall.{}.cycles", c.label()),
                    &mut violations,
                )
            })
            .sum();
        if by_cause != idle {
            violations.push(format!(
                "{prefix}: per-cause stall sum {by_cause} != idle cycles {idle}"
            ));
        }
        let rectangle = units as f64 * total;
        if busy + idle != rectangle {
            violations.push(format!(
                "{prefix}: busy {busy} + idle {idle} != pool-time rectangle {rectangle}"
            ));
        }
    }

    // (3) HBM conservation.
    let requests = m.counter_value("hbm.requests").unwrap_or(0);
    let bytes = m.counter_value("hbm.bytes").unwrap_or(0);
    if bytes != requests * hbm.transaction_bytes {
        violations.push(format!(
            "hbm: bytes {bytes} != requests {requests} × transaction_bytes {}",
            hbm.transaction_bytes
        ));
    }
    let energy = gauge("hbm.energy_j", &mut violations);
    let expected_energy = bytes as f64 * 8.0 * hbm.energy_pj_per_bit * 1e-12;
    if (energy - expected_energy).abs() > expected_energy.abs() * 1e-12 + 1e-18 {
        violations.push(format!(
            "hbm: energy {energy} J != bytes×8×pJ/bit = {expected_energy} J"
        ));
    }
    if (r.hbm_energy_j - energy).abs() > energy.abs() * 1e-12 + 1e-18 {
        violations.push(format!(
            "report.hbm_energy_j {} disagrees with gauge {energy}",
            r.hbm_energy_j
        ));
    }

    // (4) Utilization bounds.
    for (name, v) in [("su", r.su_utilization), ("eu", r.eu_utilization)] {
        if !(v > 0.0 && v <= 1.0) {
            violations.push(format!("{name} utilization {v} outside (0, 1]"));
        }
    }

    // (5) Report/registry agreement.
    let counter_checks = [
        ("coordinator.hits_dispatched", r.hits_dispatched),
        ("coordinator.alloc_rounds", r.alloc_rounds),
        ("coordinator.buffer_switches", r.buffer_switches),
        ("sim.reads_issued", r.reads),
    ];
    for (name, want) in counter_checks {
        match m.counter_value(name) {
            Some(got) if got == want => {}
            Some(got) => {
                violations.push(format!("counter {name}: registry {got} != report {want}"))
            }
            None => violations.push(format!("counter {name} missing from the registry")),
        }
    }
    if m.gauge_value("sim.total_cycles") != Some(total) {
        violations.push("gauge sim.total_cycles disagrees with the report".to_string());
    }
    match m.histogram_value("su.read_cycles") {
        Some(h) if h.count() == r.reads => {}
        Some(h) => violations.push(format!(
            "su.read_cycles histogram saw {} reads, report says {}",
            h.count(),
            r.reads
        )),
        None => violations.push("histogram su.read_cycles missing".to_string()),
    }
    match m.histogram_value("eu.hit_cycles") {
        Some(h) if h.count() == r.hits_dispatched => {}
        Some(h) => violations.push(format!(
            "eu.hit_cycles histogram saw {} hits, report says {}",
            h.count(),
            r.hits_dispatched
        )),
        None => violations.push("histogram eu.hit_cycles missing".to_string()),
    }

    // (2) + (4) Trace checks, when a trace was recorded.
    if let Some(trace) = &run.trace {
        let total_us = cycles_to_us(r.total_cycles);
        let su_busy_us: f64 = (0..config.su_count)
            .map(|su| trace.track_busy_us(PID_ACCELERATOR, su, "read"))
            .sum();
        let su_expected = r.su_utilization * config.su_count as f64 * total_us;
        if (su_busy_us - su_expected).abs() > su_expected * 0.01 {
            violations.push(format!(
                "trace: SU busy spans {su_busy_us}µs vs utilization integral {su_expected}µs"
            ));
        }
        let eu_busy_us: f64 = (0..eus)
            .map(|eu| trace.track_busy_us(PID_ACCELERATOR, config.su_count + eu, "hit"))
            .sum();
        let eu_expected = r.eu_utilization * eus as f64 * total_us;
        if (eu_busy_us - eu_expected).abs() > eu_expected * 0.01 {
            violations.push(format!(
                "trace: EU busy spans {eu_busy_us}µs vs utilization integral {eu_expected}µs"
            ));
        }
        violations.extend(check_span_bounds(&trace.to_json_value(), total_us));
    }
    violations
}

/// Walks a Chrome-trace document and checks every complete span for
/// non-negative, bounded, monotonically consistent timestamps. Public so
/// serve traces (a different time base) can reuse the walk with their own
/// bound.
pub fn check_span_bounds(doc: &JsonValue, total_us: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(events) = doc.get("traceEvents").and_then(JsonValue::as_arr) else {
        violations.push("trace document has no traceEvents array".to_string());
        return violations;
    };
    // Span endpoints sit on event boundaries; allow one cycle of rounding.
    let slack = cycles_to_us(1);
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(JsonValue::as_num).unwrap_or(0.0);
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        if ts < 0.0 {
            violations.push(format!("span {name:?}: negative timestamp {ts}"));
        }
        if ph == "X" {
            let dur = ev.get("dur").and_then(JsonValue::as_num).unwrap_or(0.0);
            if dur < 0.0 {
                violations.push(format!("span {name:?}: negative duration {dur}"));
            }
            if ts + dur > total_us + slack {
                violations.push(format!(
                    "span {name:?}: ends at {}µs, after the run end {total_us}µs",
                    ts + dur
                ));
            }
        }
    }
    violations
}

/// [`simulate_instrumented`] + [`check_sim_run`]: every simulation run
/// through this wrapper is invariant-checked for free.
///
/// # Panics
///
/// Panics listing every violated invariant.
pub fn simulate_checked(config: &NvwaConfig, works: &[ReadWork], opts: &SimOptions) -> SimRun {
    let run = simulate_instrumented(config, works, opts);
    assert_sim_run(&run, config);
    run
}

/// Panics with the full violation list if any invariant fails.
pub fn assert_sim_run(run: &SimRun, config: &NvwaConfig) {
    let violations = check_sim_run(run, config);
    assert!(
        violations.is_empty(),
        "simulator invariants violated:\n  {}",
        violations.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_core::units::workload::SyntheticWorkloadParams;

    fn works(reads: usize) -> Vec<ReadWork> {
        SyntheticWorkloadParams {
            reads,
            ..SyntheticWorkloadParams::default()
        }
        .generate(11)
    }

    #[test]
    fn healthy_runs_pass_with_and_without_trace() {
        let config = NvwaConfig::small_test();
        let w = works(120);
        simulate_checked(&config, &w, &SimOptions::default());
        simulate_checked(&config, &w, &SimOptions { trace: true });
    }

    #[test]
    fn every_ablation_variant_passes_with_and_without_trace() {
        // Without HUS the run simulates the uniform 64-PE pool, not the
        // hybrid classes: the pool-time rectangle and the EU trace tracks
        // must count the units that ran.
        let w = works(120);
        for (_, scheduling) in nvwa_core::experiments::fig11::ablation_variants() {
            let config = NvwaConfig {
                scheduling,
                ..NvwaConfig::small_test()
            };
            for trace in [false, true] {
                simulate_checked(&config, &w, &SimOptions { trace });
            }
        }
    }

    #[test]
    fn stalled_configuration_still_conserves() {
        // A tiny buffer provokes Store-Buffer stalls; conservation must
        // hold with several causes live at once.
        let config = NvwaConfig {
            hits_buffer_depth: 8,
            alloc_batch_size: 4,
            ..NvwaConfig::small_test()
        };
        simulate_checked(&config, &works(150), &SimOptions { trace: true });
    }

    #[test]
    fn tampered_run_is_caught() {
        let config = NvwaConfig::small_test();
        let mut run = simulate_instrumented(&config, &works(60), &SimOptions::default());
        // Corrupt one stall gauge: the conservation sum must break.
        let id = run.metrics.gauge("su.stall.drain.cycles");
        run.metrics.set_gauge(id, 1e12);
        let violations = check_sim_run(&run, &config);
        assert!(
            violations.iter().any(|v| v.contains("per-cause stall sum")),
            "tampering not detected: {violations:?}"
        );
    }

    #[test]
    fn span_bound_walk_flags_out_of_window_spans() {
        let doc = JsonValue::obj(vec![(
            "traceEvents",
            JsonValue::Arr(vec![JsonValue::obj(vec![
                ("ph", JsonValue::Str("X".to_string())),
                ("name", JsonValue::Str("late".to_string())),
                ("ts", JsonValue::Num(90.0)),
                ("dur", JsonValue::Num(50.0)),
            ])]),
        )]);
        let violations = check_span_bounds(&doc, 100.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("after the run end"));
    }
}
