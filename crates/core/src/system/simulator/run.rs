//! The end of a run: the closing gauges and counters, and the report.

use nvwa_telemetry::{MetricsRegistry, StallCause};

use crate::config::EuClass;

use super::{SimReport, SimRun, SimState, HIT_INTERVALS};

impl SimState<'_> {
    pub(super) fn into_run(mut self, eu_classes: &[EuClass]) -> SimRun {
        let end = self.now.max(1);
        let su_utilization = self.su_stall.utilization(end);
        let eu_utilization = self.eu_stall.utilization(end);
        let su_series = self.su_stall.busy_series(end);
        let eu_series = self.eu_stall.busy_series(end);
        self.su_stall.export_into(&mut self.metrics, "su", end);
        self.eu_stall.export_into(&mut self.metrics, "eu", end);

        let m = &mut self.metrics;
        let g = |m: &mut MetricsRegistry, name: &str, v: f64| {
            let id = m.gauge(name);
            m.set_gauge(id, v);
        };
        g(m, "sim.total_cycles", end as f64);
        g(m, "su.utilization", su_utilization);
        g(m, "eu.utilization", eu_utilization);
        g(m, "su.cache_hit_rate", self.su_model.cache_hit_rate());
        g(m, "hbm.energy_j", self.hbm.energy_joules());
        g(m, "hbm.mean_queue_delay", self.hbm.mean_queue_delay());
        let c = |m: &mut MetricsRegistry, name: &str, v: u64| {
            let id = m.counter(name);
            m.inc(id, v);
        };
        c(m, "hbm.requests", self.hbm.requests());
        c(m, "hbm.bytes", self.hbm.bytes_transferred());
        // SUs blocked on an HBM round trip are *busy* in this model (the
        // seeding chain owns the unit), so the wait is a blocked-cycles
        // counter, not an idle cause — see the StallCause taxonomy.
        c(
            m,
            &format!("su.stall.{}.cycles", StallCause::HbmWait.label()),
            self.hbm.total_queue_delay(),
        );

        let report = SimReport {
            total_cycles: end,
            reads: self.works.len() as u64,
            hits_dispatched: self.metrics.counter_get(self.ids.hits_dispatched),
            su_utilization,
            eu_utilization,
            su_series,
            eu_series,
            stats_bucket: self.config.stats_bucket,
            assignment_matrix: self.matrix,
            hit_class_bounds: HIT_INTERVALS.to_vec(),
            eu_class_pes: eu_classes.iter().map(|c| c.pes).collect(),
            buffer_switches: self.metrics.counter_get(self.ids.switches),
            alloc_rounds: self.metrics.counter_get(self.ids.alloc_rounds),
            fragmented_hits: self.metrics.counter_get(self.ids.fragmented),
            su_stall_events: self.metrics.counter_get(self.ids.stall_events),
            hbm_requests: self.hbm.requests(),
            hbm_energy_j: self.hbm.energy_joules(),
            su_cache_hit_rate: self.su_model.cache_hit_rate(),
        };
        SimRun {
            report,
            metrics: self.metrics,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{simulate, simulate_instrumented, SimOptions};
    use super::*;
    use crate::config::{NvwaConfig, SchedulingConfig};
    use crate::units::workload::ReadWork;
    use crate::units::workload::SyntheticWorkloadParams;
    use nvwa_telemetry::PID_ACCELERATOR;

    pub(super) fn small_workload(reads: usize) -> Vec<ReadWork> {
        SyntheticWorkloadParams {
            reads,
            mean_accesses: 60.0,
            ..SyntheticWorkloadParams::default()
        }
        .generate(42)
    }

    pub(super) fn config() -> NvwaConfig {
        NvwaConfig::small_test()
    }

    #[test]
    pub(super) fn simulation_terminates_and_processes_all_hits() {
        let works = small_workload(200);
        let total_hits: u64 = works.iter().map(|w| w.hits.len() as u64).sum();
        let report = simulate(&config(), &works);
        assert_eq!(report.reads, 200);
        assert_eq!(report.hits_dispatched, total_hits);
        assert!(report.total_cycles > 0);
    }

    #[test]
    pub(super) fn deterministic() {
        let works = small_workload(100);
        let a = simulate(&config(), &works);
        let b = simulate(&config(), &works);
        assert_eq!(a, b);
    }

    #[test]
    pub(super) fn instrumented_metrics_match_the_report() {
        let works = small_workload(150);
        let run = simulate_instrumented(&config(), &works, &SimOptions::default());
        let m = &run.metrics;
        let r = &run.report;
        assert_eq!(
            m.counter_value("coordinator.hits_dispatched"),
            Some(r.hits_dispatched)
        );
        assert_eq!(
            m.counter_value("coordinator.alloc_rounds"),
            Some(r.alloc_rounds)
        );
        assert_eq!(
            m.counter_value("coordinator.buffer_switches"),
            Some(r.buffer_switches)
        );
        assert_eq!(m.counter_value("sim.reads_issued"), Some(r.reads));
        assert_eq!(
            m.gauge_value("sim.total_cycles"),
            Some(r.total_cycles as f64)
        );
        assert_eq!(m.gauge_value("su.utilization"), Some(r.su_utilization));
        assert_eq!(m.gauge_value("eu.utilization"), Some(r.eu_utilization));
        // Latency histograms saw every read and every hit.
        let reads_h = m.histogram_value("su.read_cycles").unwrap();
        assert_eq!(reads_h.count(), r.reads);
        assert!(reads_h.p99() >= reads_h.p50());
        assert_eq!(
            m.histogram_value("eu.hit_cycles").unwrap().count(),
            r.hits_dispatched
        );
    }

    #[test]
    pub(super) fn stall_cycles_sum_to_idle_cycles_per_pool() {
        let works = small_workload(200);
        // A tiny buffer forces Store-Buffer stalls so several causes are
        // non-zero at once.
        let cfg = NvwaConfig {
            hits_buffer_depth: 8,
            alloc_batch_size: 4,
            ..config()
        };
        let run = simulate_instrumented(&cfg, &works, &SimOptions::default());
        let m = &run.metrics;
        let total = run.report.total_cycles as f64;
        for (prefix, units) in [("su", cfg.su_count), ("eu", 7)] {
            let busy = m.gauge_value(&format!("{prefix}.busy_cycles")).unwrap();
            let idle = m.gauge_value(&format!("{prefix}.idle_cycles")).unwrap();
            let by_cause: f64 = StallCause::IDLE_CAUSES
                .iter()
                .map(|c| {
                    m.gauge_value(&format!("{prefix}.stall.{}.cycles", c.label()))
                        .unwrap()
                })
                .sum();
            assert_eq!(by_cause, idle, "{prefix}: causes must sum to idle");
            assert_eq!(
                busy + idle,
                units as f64 * total,
                "{prefix}: busy + idle must cover the pool-time rectangle"
            );
        }
        assert!(
            m.gauge_value("su.stall.store_buffer_full.cycles").unwrap() > 0.0,
            "tiny buffer must produce attributed Store-Buffer stalls"
        );
    }

    #[test]
    pub(super) fn trace_spans_integrate_to_utilization() {
        let works = small_workload(150);
        let cfg = config();
        let run = simulate_instrumented(&cfg, &works, &SimOptions { trace: true });
        let trace = run.trace.expect("trace requested");
        let total_us = nvwa_telemetry::cycles_to_us(run.report.total_cycles);
        let su_span_us: f64 = (0..cfg.su_count)
            .map(|su| trace.track_busy_us(PID_ACCELERATOR, su, "read"))
            .sum();
        let expected = run.report.su_utilization * cfg.su_count as f64 * total_us;
        assert!(
            (su_span_us - expected).abs() <= expected * 0.01,
            "SU spans {su_span_us} vs utilization integral {expected}"
        );
        let eu_span_us: f64 = (0..7)
            .map(|eu| trace.track_busy_us(PID_ACCELERATOR, cfg.su_count + eu, "hit"))
            .sum();
        let expected = run.report.eu_utilization * 7.0 * total_us;
        assert!(
            (eu_span_us - expected).abs() <= expected * 0.01,
            "EU spans {eu_span_us} vs utilization integral {expected}"
        );
    }

    #[test]
    pub(super) fn untraced_run_records_no_spans() {
        let works = small_workload(20);
        let run = simulate_instrumented(&config(), &works, &SimOptions::default());
        assert!(run.trace.is_none());
    }

    #[test]
    pub(super) fn nvwa_beats_unscheduled_baseline() {
        let works = small_workload(400);
        let nvwa = simulate(&config(), &works);
        let baseline_cfg = NvwaConfig {
            scheduling: SchedulingConfig::baseline(),
            ..config()
        };
        let base = simulate(&baseline_cfg, &works);
        assert_eq!(base.hits_dispatched, nvwa.hits_dispatched);
        assert!(
            nvwa.total_cycles < base.total_cycles,
            "nvwa {} vs baseline {}",
            nvwa.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    pub(super) fn ocra_improves_su_utilization() {
        let works = small_workload(400);
        let with = simulate(&config(), &works);
        let without = simulate(
            &NvwaConfig {
                scheduling: SchedulingConfig {
                    ocra: false,
                    ..SchedulingConfig::nvwa()
                },
                ..config()
            },
            &works,
        );
        assert!(
            with.su_utilization > without.su_utilization,
            "with {} vs without {}",
            with.su_utilization,
            without.su_utilization
        );
    }

    #[test]
    pub(super) fn batch_barrier_idle_is_attributed_under_read_in_batch() {
        // Without OCRA, SUs wait at the batch barrier while reads remain;
        // that idle time must land on the BatchBarrier cause. Under OCRA
        // it must be zero.
        let works = small_workload(300);
        let batch = simulate_instrumented(
            &NvwaConfig {
                scheduling: SchedulingConfig {
                    ocra: false,
                    ..SchedulingConfig::nvwa()
                },
                ..config()
            },
            &works,
            &SimOptions::default(),
        );
        let ocra = simulate_instrumented(&config(), &works, &SimOptions::default());
        let barrier = |run: &SimRun| {
            run.metrics
                .gauge_value("su.stall.batch_barrier.cycles")
                .unwrap()
        };
        assert!(
            barrier(&batch) > 0.0,
            "batch barrier idle must be attributed"
        );
        assert_eq!(barrier(&ocra), 0.0, "OCRA refills every idle SU");
    }

    #[test]
    pub(super) fn allocator_beats_strict_blocking_fifo() {
        // With hybrid units, the Hits Allocator (buffered, sorted, grouped
        // with sub-optimal fallback) must outperform the minimal strict
        // class-matched blocking FIFO it replaces. Run at paper scale so
        // the EU pool has multiple units per class.
        let works = SyntheticWorkloadParams {
            reads: 800,
            ..SyntheticWorkloadParams::default()
        }
        .generate(42);
        let cfg = NvwaConfig {
            stats_bucket: 4096,
            ..NvwaConfig::paper()
        };
        let with = simulate(&cfg, &works);
        let without = simulate(
            &NvwaConfig {
                scheduling: SchedulingConfig {
                    hits_allocator: false,
                    hybrid_units: true,
                    ocra: true,
                },
                ..cfg
            },
            &works,
        );
        assert!(
            with.total_cycles < without.total_cycles,
            "with HA {} vs strict FIFO {}",
            with.total_cycles,
            without.total_cycles
        );
    }

    #[test]
    pub(super) fn nvwa_allocation_correctness_beats_uniform_baseline() {
        // Fig. 12(e/f): NvWa places most hits on their optimal class; the
        // uniform SUs+EUs baseline cannot (it has only 64-PE units).
        let works = small_workload(400);
        let nvwa = simulate(&config(), &works);
        let base = simulate(
            &NvwaConfig {
                scheduling: SchedulingConfig::baseline(),
                ..config()
            },
            &works,
        );
        assert!(nvwa.overall_correct_allocation() > 0.5);
        assert!(nvwa.overall_correct_allocation() > base.overall_correct_allocation());
    }

    #[test]
    pub(super) fn small_buffer_causes_stalls() {
        let works = small_workload(300);
        let tiny = simulate(
            &NvwaConfig {
                hits_buffer_depth: 8,
                alloc_batch_size: 4,
                ..config()
            },
            &works,
        );
        assert!(tiny.su_stall_events > 0);
        let big = simulate(
            &NvwaConfig {
                hits_buffer_depth: 4096,
                ..config()
            },
            &works,
        );
        assert_eq!(big.su_stall_events, 0);
    }

    #[test]
    pub(super) fn utilization_is_bounded() {
        let works = small_workload(150);
        let r = simulate(&config(), &works);
        assert!(r.su_utilization > 0.0 && r.su_utilization <= 1.0);
        assert!(r.eu_utilization > 0.0 && r.eu_utilization <= 1.0);
    }

    #[test]
    pub(super) fn single_read_workload_works() {
        let works = small_workload(1);
        let r = simulate(&config(), &works);
        assert_eq!(r.reads, 1);
        assert_eq!(r.buffer_switches, 1); // forced drain switch
    }
}
