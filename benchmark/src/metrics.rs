//! The metric tables (mirrored by `/BENCHMARK.json`; `--smoke` checks the
//! two agree) and the per-run result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;

/// Workload names, in the order the full command runs them.
pub const WORKLOADS: [&str; 5] = [
    "offline_short",
    "offline_long",
    "serve_closed",
    "serve_open",
    "sim_ablation",
];

/// `(name, unit)` of every end-to-end metric. Each is measured, with tracing
/// off, on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("reads_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("cpu_us_per_request", "us"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metric that is a rate; the others are times and a size,
/// for which lower is better.
const HIGHER_IS_BETTER: &str = "reads_per_s";

/// `(name, unit)` of every per-layer metric. A layer a workload never calls
/// reports 0 calls and 0 time on it.
pub const PER_LAYER: [(&str, &str); 100] = [
    // Set-up layers.
    ("genome.synth_s", "s"),
    ("genome.reads_s", "s"),
    ("index.build_s", "s"),
    ("index.long_build_s", "s"),
    ("index.heap_mb", "MB"),
    // nvwa-index: seeding.
    ("index.smem.ns_per_read", "ns"),
    ("index.smem.smems_per_read", "count"),
    ("index.seed_cache.hit_share", "share"),
    ("index.smem_traced.ns_per_read", "ns"),
    ("index.smem_traced.accesses_per_read", "count"),
    ("index.locate.ns_per_read", "ns"),
    ("index.locate.hits_per_read", "count"),
    ("index.minimizer.ns_per_read", "ns"),
    ("index.minimizer.seeds_per_read", "count"),
    // nvwa-align: short-read pipeline.
    ("align.chain.ns_per_read", "ns"),
    ("align.chain.chains_per_read", "count"),
    ("align.extend.ns_per_read", "ns"),
    ("align.extend.tasks_per_read", "count"),
    ("align.extend.cells_per_read", "count"),
    ("align.pipeline.ns_per_read", "ns"),
    ("align.pipeline.self_ns_per_read", "ns"),
    // nvwa-align: long-read pipeline.
    ("align.gact.ns_per_read", "ns"),
    ("align.gact.tiles_per_read", "count"),
    ("align.gact.cells_per_read", "count"),
    ("align.long.ns_per_read", "ns"),
    ("align.long.self_ns_per_read", "ns"),
    // Accuracy against the simulated origin (exact for a seed).
    ("align.accuracy.misplaced_share", "share"),
    // nvwa-serve and nvwa-telemetry: staged replay.
    ("serve.protocol.decode_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.protocol.request_bytes", "B"),
    ("serve.protocol.response_bytes", "B"),
    ("telemetry.json.parse_ns", "ns"),
    ("telemetry.json.write_ns", "ns"),
    ("serve.queue.push_pop_ns", "ns"),
    ("serve.batcher.offer_ns", "ns"),
    ("serve.backend.execute_ns_per_read", "ns"),
    // nvwa-serve: the live server.
    ("serve.batcher.batch_size_mean", "count"),
    ("serve.batcher.full_share", "share"),
    ("serve.queue.wait_p50_us", "us"),
    ("serve.backend.batch_exec_p50_us", "us"),
    ("serve.server.sys_share", "share"),
    ("serve.server.ctx_switches_per_request", "count"),
    ("serve.server.threads", "count"),
    ("serve.cpu_us_per_request", "us"),
    ("serve.unattributed_us_per_request", "us"),
    ("serve.obs.trace_on_ratio", "ratio"),
    ("serve.latency.p99_ms", "ms"),
    ("serve.latency.long_p50_ms", "ms"),
    ("serve.latency.long_p99_ms", "ms"),
    ("serve.latency.samples", "count"),
    ("serve.sweep.r1000.p50_ms", "ms"),
    ("serve.sweep.r1000.p99_ms", "ms"),
    ("serve.sweep.r1000.failed_share", "share"),
    ("serve.sweep.r2000.p50_ms", "ms"),
    ("serve.sweep.r2000.p99_ms", "ms"),
    ("serve.sweep.r2000.failed_share", "share"),
    ("serve.sweep.r4000.p50_ms", "ms"),
    ("serve.sweep.r4000.p99_ms", "ms"),
    ("serve.sweep.r4000.failed_share", "share"),
    ("serve.sweep.r8000.p50_ms", "ms"),
    ("serve.sweep.r8000.p99_ms", "ms"),
    ("serve.sweep.r8000.failed_share", "share"),
    ("serve.sweep.max_rate_ok", "1/s"),
    // The load generator itself.
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.cpu_share", "share"),
    ("loadgen.invalid_trials", "count"),
    // nvwa-core and nvwa-sim: host time.
    ("core.workload.ns_per_read", "ns"),
    ("core.workload.accesses_per_read", "count"),
    ("core.workload.hits_per_read", "count"),
    ("core.simulate.sus_eus.host_ns_per_read", "ns"),
    ("core.simulate.ocra.host_ns_per_read", "ns"),
    ("core.simulate.ocra_hus.host_ns_per_read", "ns"),
    ("core.simulate.nvwa.host_ns_per_read", "ns"),
    ("core.simulate.sus_eus.host_ns_per_kcycle", "ns"),
    ("core.simulate.ocra.host_ns_per_kcycle", "ns"),
    ("core.simulate.ocra_hus.host_ns_per_kcycle", "ns"),
    ("core.simulate.nvwa.host_ns_per_kcycle", "ns"),
    ("core.simulate.exec_us_per_read", "us"),
    ("core.simulate.exec_cliff_us_per_read", "us"),
    ("core.simulate.exec_cliff_timed_out", "count"),
    ("sim.event.push_pop_ns", "ns"),
    // nvwa-core: simulated statistics, exact for a seed.
    ("core.sim.sus_eus.kreads_per_s", "kreads/s"),
    ("core.sim.ocra.kreads_per_s", "kreads/s"),
    ("core.sim.ocra_hus.kreads_per_s", "kreads/s"),
    ("core.sim.nvwa.kreads_per_s", "kreads/s"),
    ("core.sim.speedup", "ratio"),
    ("core.sim.su_utilization", "share"),
    ("core.sim.eu_utilization", "share"),
    ("core.sim.su_stall_events", "count"),
    ("core.sim.fragmented_hits", "count"),
    ("core.sim.buffer_switches", "count"),
    ("core.sim.alloc_rounds", "count"),
    ("core.sim.hbm_requests", "count"),
    ("core.sim.su_cache_hit_rate", "share"),
    ("core.sim.correct_allocation", "share"),
    ("core.sim.invariant_violations", "count"),
    // The harness's own instrumentation.
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("trace.untraced_reads_per_s", "1/s"),
    ("trace.failed_share", "share"),
];

/// Whether two runs of one commit on one seed must report the metric
/// bit-identically: simulated statistics, work counts per read and the
/// accuracy share are computed, not timed. (Response frames carry the batch
/// size the live server happened to form, so frame sizes are not exact.)
pub fn is_exact(name: &str) -> bool {
    let timed = ["ns_per_read", "us_per_read", "ns_per_kcycle"]
        .iter()
        .any(|t| name.ends_with(t));
    name.starts_with("core.sim.")
        || (name.ends_with("_per_read") && !timed)
        || name == "align.accuracy.misplaced_share"
}

/// Starts the line of a traced run's report that names the per-layer metrics
/// the workload never touches (the full command reads it back).
pub const NOT_EXERCISED: &str = "  not exercised:";

/// The metric-name key of each Fig. 11 variant, in presentation order.
pub const VARIANT_KEYS: [&str; 4] = ["sus_eus", "ocra", "ocra_hus", "nvwa"];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations handed to the program and operations it got wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness conditions that did not hold (empty on a correct run).
    pub violations: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    summaries: BTreeMap<&'static str, Summary>,
}

impl RunResult {
    /// The table's own copy of a metric name.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither table: a harness bug, and
    /// `--smoke` exists to find it.
    fn declared(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
    }

    /// Records a metric. Each may be recorded once.
    ///
    /// # Panics
    ///
    /// Panics on a name that was already recorded (a harness bug).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.values.insert(Self::declared(name), value).is_none(),
            "metric {name} recorded twice"
        );
    }

    /// Records a metric as its best trial sample — the highest rate, the
    /// lowest time — keeping the median, quartiles, extremes and count for
    /// the report.
    ///
    /// Every trial of a run does the same work on the same inputs, and what
    /// disturbs a trial on a shared host (other guests' load on the core and
    /// its caches) only ever slows it down, for seconds to minutes at a time.
    /// On the recording host the best trial repeats between runs better than
    /// the median over trials does; the README has the numbers.
    pub fn set_trials(&mut self, name: &str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.set(
            name,
            if name == HIGHER_IS_BETTER {
                summary.max
            } else {
                summary.min
            },
        );
        self.summaries.insert(Self::declared(name), summary);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The table this run reports: end-to-end metrics untraced, per-layer
    /// metrics traced.
    fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Names of the run's table that were never recorded.
    pub fn unset(&self, trace: bool) -> Vec<&'static str> {
        Self::table(trace)
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    /// Recorded values that are not finite numbers.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.values
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| *n)
            .collect()
    }

    /// The result line of the driver's contract: one JSON object with
    /// `correct`, `attempted`, `failed` and every metric of the run's table.
    /// A per-layer metric the workload does not exercise reads 0.
    pub fn result_line(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in Self::table(trace).iter().enumerate() {
            let value = self
                .values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, one per line; a best-of-trials
    /// value carries the trials' median, quartiles, extremes, count and spread.
    pub fn report(&self, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "== {workload} ({}) ==\n",
            if trace {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            }
        );
        for (name, unit) in Self::table(trace) {
            match (self.values.get(name), self.summaries.get(name)) {
                (Some(v), Some(s)) => {
                    let _ = writeln!(
                        out,
                        "  {name:<44} {v:>16.4} {unit:<9} median {:.4} q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {} spread {:.3}",
                        s.median,
                        s.q1,
                        s.q3,
                        s.min,
                        s.max,
                        s.n,
                        s.spread()
                    );
                }
                (Some(v), None) => {
                    let _ = writeln!(out, "  {name:<44} {v:>16.4} {unit}");
                }
                // A layer this workload never calls: listed below.
                (None, _) => {}
            }
        }
        if trace {
            let _ = writeln!(out, "{NOT_EXERCISED} {}", self.unset(true).join(" "));
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_carries_exactly_the_runs_table() {
        let mut run = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        run.set_trials("reads_per_s", &[90.0, 100.0, 110.0]);
        run.set_trials("setup_s", &[1.5, 1.25, 2.0]);
        let line = run.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"reads_per_s\": {\"value\": 110, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains("index.smem"));
        assert_eq!(
            run.unset(false),
            vec!["p50_ms", "cpu_us_per_request", "peak_rss_mb"]
        );
        assert_eq!(
            run.result_line(true).matches("\"unit\"").count(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn exact_metrics_are_the_computed_ones() {
        for name in [
            "core.sim.nvwa.kreads_per_s",
            "index.smem.smems_per_read",
            "align.gact.cells_per_read",
        ] {
            assert!(is_exact(name), "{name}");
        }
        for name in [
            "index.smem.ns_per_read",
            "core.simulate.exec_us_per_read",
            "core.simulate.nvwa.host_ns_per_kcycle",
            "reads_per_s",
            "serve.protocol.response_bytes",
            "serve.server.threads",
        ] {
            assert!(!is_exact(name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_metric_is_recorded_once() {
        let mut run = RunResult::default();
        run.set("setup_s", 1.0);
        run.set("setup_s", 2.0);
    }
}
