//! Serve-path telemetry: one shared [`MetricsRegistry`] plus the live
//! observability plane — windowed SLO aggregation, the per-request span
//! log, the flight recorder and an optional Chrome-trace recorder.
//!
//! Every metric the `validate` bin's serve schema requires is registered
//! at construction (see `nvwa_telemetry::snapshot::SERVE_REQUIRED_*`), so
//! a snapshot taken before the first request is already schema-complete.
//! The registry, SLO window and span log sit behind one mutex — serving
//! events are coarse (per request / per batch), so contention is
//! negligible next to an alignment. The flight recorder keeps its ring
//! behind a mutex of its own (see `flight.rs`); both are taken through
//! `crate::lock`, so a panic under either cannot stop the reactor thread.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use crate::batcher::FlushReason;
use crate::flight::{FlightEventKind, FlightRecorder};
use crate::lock;
use crate::protocol::Mode;
use nvwa_telemetry::snapshot::{
    SERVE_REQUIRED_COUNTERS, SERVE_REQUIRED_GAUGES, SERVE_REQUIRED_HISTOGRAMS,
};
use nvwa_telemetry::{
    CounterId, GaugeId, HistogramId, JsonValue, MetricsRegistry, Outcome, RequestSpans, SloWindow,
    SnapshotMeta, SpanLog, Stage, TraceRecorder, WindowConfig,
};

/// Trace process id for the serving layer (the simulator uses 0 and 1).
pub const PID_SERVE: u32 = 2;

/// First Chrome-trace track id used for per-request span chains (worker
/// batch spans use tracks `0..workers`).
pub const REQUEST_TRACK_BASE: u32 = 64;

/// Number of request tracks; chains hash onto them by trace id.
pub const REQUEST_TRACKS: u32 = 8;

/// Span tracks dedicated to long-read request chains (directly after the
/// short-read tracks).
pub const LONG_REQUEST_TRACKS: u32 = 4;

/// Span tracks dedicated to classify request chains.
pub const CLASSIFY_REQUEST_TRACKS: u32 = 2;

/// Knobs for the live observability plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservabilityConfig {
    /// SLO aggregation window in milliseconds.
    pub slo_window_ms: u64,
    /// SLO window step (ring-bucket width) in milliseconds; must divide
    /// the window.
    pub slo_step_ms: u64,
    /// Per-request span log capacity (chains beyond this are counted as
    /// dropped, not stored).
    pub span_log_cap: usize,
    /// Flight-recorder ring capacity.
    pub flight_cap: usize,
    /// Where to write flight-recorder dumps on a trigger (worker panic or
    /// shed storm). `None` disables automatic dumps to disk; the `flight`
    /// wire request still works.
    pub flight_dump: Option<PathBuf>,
    /// Dump the flight recorder when this many requests are shed within
    /// one SLO window (at most once per server run).
    pub shed_storm_threshold: Option<u64>,
}

impl Default for ObservabilityConfig {
    fn default() -> ObservabilityConfig {
        ObservabilityConfig {
            slo_window_ms: 1_000,
            slo_step_ms: 100,
            span_log_cap: 1 << 16,
            flight_cap: 512,
            flight_dump: None,
            shed_storm_threshold: None,
        }
    }
}

impl ObservabilityConfig {
    /// The SLO window geometry in microsecond ticks.
    fn window_config(&self) -> WindowConfig {
        WindowConfig::new(
            self.slo_window_ms.max(1) * 1_000,
            self.slo_step_ms.max(1) * 1_000,
        )
    }
}

/// Per-shard outcome counters of one tenant.
#[derive(Debug, Clone, Copy, Default)]
struct ShardStats {
    admitted: u64,
    ok: u64,
    unmapped: u64,
    shed: u64,
    deadline: u64,
    errors: u64,
    dead: bool,
}

/// One tenant's rollup: per-shard counters plus a rolling SLO window of
/// its own (window geometry shared with the global one, single bin).
struct TenantStats {
    name: String,
    shards: Vec<ShardStats>,
    quota_shed: u64,
    /// Sheds before a shard was resolved (draining, no live shard).
    shed_unrouted: u64,
    slo: SloWindow,
}

impl TenantStats {
    /// One request finished on `shard` with `outcome`; `done_us`/`e2e_us`
    /// feed the tenant's rolling SLO window.
    fn done(&mut self, shard: usize, outcome: Outcome, done_us: u64, e2e_us: u64) {
        if let Some(s) = self.shards.get_mut(shard) {
            match outcome {
                Outcome::Ok => s.ok += 1,
                Outcome::Unmapped => s.unmapped += 1,
                Outcome::Deadline => s.deadline += 1,
                Outcome::Error => s.errors += 1,
            }
        }
        match outcome {
            // Unmapped ran to completion and found nothing — served work,
            // so it still counts as a completion in the SLO window.
            Outcome::Ok | Outcome::Unmapped => self.slo.record_completed(done_us, 0, e2e_us),
            Outcome::Deadline => self.slo.record_deadline_missed(done_us, 1),
            Outcome::Error => {}
        }
    }
}

struct Inner {
    registry: MetricsRegistry,
    trace: Option<TraceRecorder>,
    slo: SloWindow,
    span_log: SpanLog,
    shed_storm_threshold: Option<u64>,
    storm_fired: bool,
    window: WindowConfig,
    tenants: Vec<TenantStats>,
    /// Per-bin request mode (set by the server once the batcher geometry
    /// is known); routes span chains onto per-mode trace tracks. Empty
    /// means "all short" (pre-mode deployments).
    bin_modes: Vec<Mode>,
    admitted: CounterId,
    shed: CounterId,
    quota: CounterId,
    shards_killed: CounterId,
    deadline_expired: CounterId,
    responses_ok: CounterId,
    responses_unmapped: CounterId,
    requests_long: CounterId,
    requests_classify: CounterId,
    protocol_errors: CounterId,
    batches_formed: CounterId,
    connections: CounterId,
    batch_fill: CounterId,
    batch_idle: CounterId,
    batch_drain: CounterId,
    write_errors: CounterId,
    worker_panics: CounterId,
    sim_cycles: CounterId,
    seed_cache_hits: CounterId,
    seed_cache_lookups: CounterId,
    queue_depth: GaugeId,
    queue_depth_max: GaugeId,
    batch_size: HistogramId,
    e2e_latency_us: HistogramId,
    queue_wait_us: HistogramId,
    batch_exec_us: HistogramId,
}

impl Inner {
    /// The per-tenant/per-shard rollup (the `tenants` section of a
    /// `stats` reply), in the server's tenant order.
    fn tenants_json(&mut self, now: u64) -> JsonValue {
        let docs = self
            .tenants
            .iter_mut()
            .map(|slot| {
                let shards: Vec<JsonValue> = slot
                    .shards
                    .iter()
                    .map(|s| {
                        JsonValue::obj(vec![
                            ("admitted", JsonValue::Num(s.admitted as f64)),
                            ("ok", JsonValue::Num(s.ok as f64)),
                            ("unmapped", JsonValue::Num(s.unmapped as f64)),
                            ("shed", JsonValue::Num(s.shed as f64)),
                            ("deadline", JsonValue::Num(s.deadline as f64)),
                            ("errors", JsonValue::Num(s.errors as f64)),
                            ("dead", JsonValue::Bool(s.dead)),
                        ])
                    })
                    .collect();
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(slot.name.clone())),
                    ("quota_shed", JsonValue::Num(slot.quota_shed as f64)),
                    ("shed_unrouted", JsonValue::Num(slot.shed_unrouted as f64)),
                    ("shards", JsonValue::Arr(shards)),
                    ("slo", slot.slo.view(now).to_json()),
                ])
            })
            .collect();
        JsonValue::Arr(docs)
    }
}

/// Thread-safe serve metrics hub.
pub struct ServeMetrics {
    inner: Mutex<Inner>,
    flight: FlightRecorder,
    /// Server start; all trace/span timestamps are relative to it.
    epoch: Instant,
}

impl ServeMetrics {
    /// Creates the hub with the full serve metric family pre-registered.
    /// `bins` is the batcher's length-bin count (per-bin SLO histograms);
    /// `trace` enables the per-batch/per-request Chrome-trace recorder.
    pub fn new(
        queue_capacity: usize,
        workers: usize,
        bins: usize,
        trace: bool,
        obs: &ObservabilityConfig,
    ) -> ServeMetrics {
        let mut registry = MetricsRegistry::new();
        // Pre-register the schema-required names (plus extras) so even an
        // idle server emits a schema-complete serve snapshot.
        for name in SERVE_REQUIRED_COUNTERS {
            registry.counter(name);
        }
        for name in SERVE_REQUIRED_GAUGES {
            registry.gauge(name);
        }
        for name in SERVE_REQUIRED_HISTOGRAMS {
            registry.histogram(name);
        }
        let admitted = registry.counter("serve.requests_admitted");
        let shed = registry.counter("serve.requests_shed");
        let deadline_expired = registry.counter("serve.deadline_expired");
        let responses_ok = registry.counter("serve.responses_ok");
        // Long-read / metagenomic serving modes (zero on short-only
        // deployments; schema-required so snapshots are uniform).
        let responses_unmapped = registry.counter("serve.responses_unmapped");
        let requests_long = registry.counter("serve.requests_long");
        let requests_classify = registry.counter("serve.requests_classify");
        let protocol_errors = registry.counter("serve.protocol_errors");
        let batches_formed = registry.counter("serve.batches_formed");
        let connections = registry.counter("serve.connections_accepted");
        let batch_fill = registry.counter("serve.batch_flush_fill");
        // `FlushReason::Idle`: left partially full because a worker was
        // free. No timer exists; the wire name is what the repository
        // benchmark reads and is renamed with it (ROADMAP item 6).
        let batch_idle = registry.counter("serve.batch_flush_timeout");
        let batch_drain = registry.counter("serve.batch_flush_drain");
        let write_errors = registry.counter("serve.write_errors");
        let worker_panics = registry.counter("serve.worker_panics");
        // Tenant extras (zero while no tenant has a quota or loses a shard).
        let quota = registry.counter("serve.requests_quota");
        let shards_killed = registry.counter("serve.shards_killed");
        let sim_cycles = registry.counter("serve.sim_cycles_total");
        // Seeding occ-block cache effectiveness (extra counters, not part
        // of the required serve schema).
        let seed_cache_hits = registry.counter("serve.seed_cache_hits");
        let seed_cache_lookups = registry.counter("serve.seed_cache_lookups");
        let queue_depth = registry.gauge("serve.queue_depth");
        let queue_depth_max = registry.gauge("serve.queue_depth_max");
        let capacity_g = registry.gauge("serve.queue_capacity");
        registry.set_gauge(capacity_g, queue_capacity as f64);
        let workers_g = registry.gauge("serve.workers");
        registry.set_gauge(workers_g, workers as f64);
        let batch_size = registry.histogram("serve.batch_size");
        let e2e_latency_us = registry.histogram("serve.e2e_latency_us");
        let queue_wait_us = registry.histogram("serve.queue_wait_us");
        let batch_exec_us = registry.histogram("serve.batch_exec_us");
        let trace = trace.then(|| {
            let mut t = TraceRecorder::new();
            t.name_process(PID_SERVE, "nvwa-serve");
            for i in 0..REQUEST_TRACKS {
                t.name_thread(PID_SERVE, REQUEST_TRACK_BASE + i, &format!("requests {i}"));
            }
            t
        });
        ServeMetrics {
            inner: Mutex::new(Inner {
                registry,
                trace,
                slo: SloWindow::new(obs.window_config(), bins),
                span_log: SpanLog::new(obs.span_log_cap),
                shed_storm_threshold: obs.shed_storm_threshold,
                storm_fired: false,
                window: obs.window_config(),
                tenants: Vec::new(),
                bin_modes: Vec::new(),
                admitted,
                shed,
                quota,
                shards_killed,
                deadline_expired,
                responses_ok,
                responses_unmapped,
                requests_long,
                requests_classify,
                protocol_errors,
                batches_formed,
                connections,
                batch_fill,
                batch_idle,
                batch_drain,
                write_errors,
                worker_panics,
                sim_cycles,
                seed_cache_hits,
                seed_cache_lookups,
                queue_depth,
                queue_depth_max,
                batch_size,
                e2e_latency_us,
                queue_wait_us,
                batch_exec_us,
            }),
            flight: FlightRecorder::new(obs.flight_cap),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since server start (the trace time base).
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Nanoseconds since server start (the span-chain time base).
    pub fn now_ns(&self) -> u64 {
        let d = self.epoch.elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }

    /// The flight recorder (record from any thread).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Records one flight-recorder event stamped with the current time.
    pub fn flight_event(&self, kind: FlightEventKind, a: u64, b: u64, c: u64) {
        self.flight.record(self.now_us(), kind, a, b, c);
    }

    fn with(&self, f: impl FnOnce(&mut Inner)) {
        f(&mut lock(&self.inner));
    }

    /// Publishes the batcher's per-bin request modes so span chains land
    /// on per-mode trace tracks; also names the extra tracks when any
    /// long/classify bins exist. Call once at server start.
    pub fn set_bin_modes(&self, modes: Vec<Mode>) {
        self.with(|m| {
            if let Some(trace) = m.trace.as_mut() {
                if modes.contains(&Mode::Long) {
                    for i in 0..LONG_REQUEST_TRACKS {
                        let tid = REQUEST_TRACK_BASE + REQUEST_TRACKS + i;
                        trace.name_thread(PID_SERVE, tid, &format!("long-read requests {i}"));
                    }
                }
                if modes.contains(&Mode::Classify) {
                    for i in 0..CLASSIFY_REQUEST_TRACKS {
                        let tid = REQUEST_TRACK_BASE + REQUEST_TRACKS + LONG_REQUEST_TRACKS + i;
                        trace.name_thread(PID_SERVE, tid, &format!("classify requests {i}"));
                    }
                }
            }
            m.bin_modes = modes;
        });
    }

    /// One request admitted for `(tenant, shard)`; `depth` is the queue
    /// depth just after, `mode` feeds the per-mode request counters.
    pub fn admitted(&self, depth: usize, mode: Mode, tenant: usize, shard: usize) {
        let t = self.now_us() as u64;
        self.with(|m| {
            m.registry.inc(m.admitted, 1);
            if let Some(slot) = m.tenants.get_mut(tenant) {
                if let Some(s) = slot.shards.get_mut(shard) {
                    s.admitted += 1;
                }
                slot.slo.record_admitted(t, 0);
            }
            match mode {
                Mode::Short => {}
                Mode::Long => m.registry.inc(m.requests_long, 1),
                Mode::Classify => m.registry.inc(m.requests_classify, 1),
            }
            m.slo.record_admitted(t, depth);
            let (q, qm) = (m.queue_depth, m.queue_depth_max);
            m.registry.set_gauge(q, depth as f64);
            m.registry.set_gauge_max(qm, depth as f64);
        });
    }

    /// One request shed by backpressure: `tenant` once one was resolved
    /// (with its shard once routing had picked one; `None` for
    /// no-live-shard sheds), `None` for sheds while draining. Returns
    /// `true` exactly once per server run, when the shed count within
    /// one SLO window first reaches the configured storm threshold — the
    /// caller dumps the flight recorder.
    pub fn shed(&self, tenant: Option<(usize, Option<usize>)>) -> bool {
        let t = self.now_us() as u64;
        let mut storm = false;
        self.with(|m| {
            m.registry.inc(m.shed, 1);
            m.slo.record_shed(t);
            if let Some((tenant, shard)) = tenant {
                if let Some(slot) = m.tenants.get_mut(tenant) {
                    match shard.and_then(|s| slot.shards.get_mut(s)) {
                        Some(s) => s.shed += 1,
                        None => slot.shed_unrouted += 1,
                    }
                    slot.slo.record_shed(t);
                }
            }
            if let Some(threshold) = m.shed_storm_threshold {
                if !m.storm_fired && m.slo.shed_in_window(t) >= threshold {
                    m.storm_fired = true;
                    storm = true;
                }
            }
        });
        storm
    }

    /// `n` requests expired before execution.
    pub fn deadline_expired(&self, n: u64) {
        let t = self.now_us() as u64;
        self.with(|m| {
            m.registry.inc(m.deadline_expired, n);
            m.slo.record_deadline_missed(t, n);
        });
    }

    /// One connection accepted.
    pub fn connection_accepted(&self) {
        self.with(|m| m.registry.inc(m.connections, 1));
    }

    /// One malformed frame/request.
    pub fn protocol_error(&self) {
        self.with(|m| m.registry.inc(m.protocol_errors, 1));
    }

    /// One failed response write (client went away).
    pub fn write_error(&self) {
        self.with(|m| m.registry.inc(m.write_errors, 1));
    }

    /// One batch execution panicked (caught; every item answered `error`).
    pub fn worker_panic(&self) {
        self.with(|m| m.registry.inc(m.worker_panics, 1));
    }

    /// Registers the next tenant rollup slot; slot indices are the
    /// server's tenant indices. Every server registers its tenants at
    /// launch (a single-index server is one tenant named `default`).
    pub fn register_tenant(&self, name: &str, shards: usize) {
        let mut inner = lock(&self.inner);
        let window = inner.window;
        inner.tenants.push(TenantStats {
            name: name.to_string(),
            shards: vec![ShardStats::default(); shards.max(1)],
            quota_shed: 0,
            shed_unrouted: 0,
            slo: SloWindow::new(window, 1),
        });
    }

    /// One request refused by the tenant's admission quota (also bumps
    /// the global `serve.requests_quota` counter).
    pub fn quota_shed(&self, tenant: usize) {
        self.with(|m| {
            m.registry.inc(m.quota, 1);
            if let Some(slot) = m.tenants.get_mut(tenant) {
                slot.quota_shed += 1;
            }
        });
    }

    /// Marks a tenant's shard dead (fault injection) and bumps the
    /// `serve.shards_killed` counter.
    pub fn shard_dead(&self, tenant: usize, shard: usize) {
        self.with(|m| {
            m.registry.inc(m.shards_killed, 1);
            if let Some(s) = m
                .tenants
                .get_mut(tenant)
                .and_then(|slot| slot.shards.get_mut(shard))
            {
                s.dead = true;
            }
        });
    }

    /// A worker took a batch; `depth` is the dispatcher occupancy it left
    /// behind.
    pub fn batch_formed(&self, reason: FlushReason, size: usize, depth: usize) {
        self.with(|m| {
            m.registry.inc(m.batches_formed, 1);
            let reason_id = match reason {
                FlushReason::Fill => m.batch_fill,
                FlushReason::Idle => m.batch_idle,
                FlushReason::Drain => m.batch_drain,
            };
            m.registry.inc(reason_id, 1);
            let (h, q) = (m.batch_size, m.queue_depth);
            m.registry.observe(h, size as u64);
            m.registry.set_gauge(q, depth as f64);
            m.slo.set_queue_depth(depth);
        });
    }

    /// One request finished on `(tenant, shard)` (any outcome): records
    /// the span chain into the span log and Chrome trace, the tenant's
    /// outcome counters and SLO window, and — for `ok` responses — the
    /// latency histograms and windowed SLO sample. The chain's stage
    /// durations sum exactly to the end-to-end latency by construction
    /// (see `nvwa_telemetry::spans`).
    pub fn request_done(&self, chain: RequestSpans, tenant: usize, shard: usize) {
        let e2e_us = chain.e2e_ns() / 1_000;
        let done_us = (chain.t0_ns + chain.e2e_ns()) / 1_000;
        self.with(|m| {
            if let Some(slot) = m.tenants.get_mut(tenant) {
                slot.done(shard, chain.outcome, done_us, e2e_us);
            }
            if chain.outcome == Outcome::Ok || chain.outcome == Outcome::Unmapped {
                // Unmapped responses did the full alignment work and
                // answered the client; they count in the latency
                // histograms and the SLO window like `ok`, under their
                // own response counter.
                let counter = if chain.outcome == Outcome::Ok {
                    m.responses_ok
                } else {
                    m.responses_unmapped
                };
                m.registry.inc(counter, 1);
                let queue = chain.spans.iter().find(|s| s.stage == Stage::Queue);
                let wait_ns = queue.map_or(0, |s| s.dur_ns);
                let (e, w) = (m.e2e_latency_us, m.queue_wait_us);
                m.registry.observe(e, e2e_us);
                m.registry.observe(w, wait_ns / 1_000);
                m.slo.record_completed(done_us, chain.bin, e2e_us);
            }
            if let Some(trace) = m.trace.as_mut() {
                let (base, tracks) = match m.bin_modes.get(chain.bin) {
                    Some(Mode::Long) => (REQUEST_TRACK_BASE + REQUEST_TRACKS, LONG_REQUEST_TRACKS),
                    Some(Mode::Classify) => (
                        REQUEST_TRACK_BASE + REQUEST_TRACKS + LONG_REQUEST_TRACKS,
                        CLASSIFY_REQUEST_TRACKS,
                    ),
                    _ => (REQUEST_TRACK_BASE, REQUEST_TRACKS),
                };
                let tid = base + (chain.trace_id % u64::from(tracks)) as u32;
                for span in &chain.spans {
                    trace.complete_with_args(
                        PID_SERVE,
                        tid,
                        span.stage.name(),
                        span.start_ns as f64 / 1e3,
                        span.dur_ns as f64 / 1e3,
                        &[
                            ("trace_id", chain.trace_id as f64),
                            ("read_id", chain.read_id as f64),
                        ],
                    );
                }
            }
            m.span_log.push(chain);
        });
    }

    /// Batch execution finished on a worker: records the exec-time
    /// histogram, simulated cycles (hardware-in-the-loop) and, when
    /// tracing, a span on the worker's track.
    pub fn batch_executed(
        &self,
        worker: usize,
        label: &str,
        start_us: f64,
        dur_us: f64,
        sim_cycles: Option<u64>,
    ) {
        self.with(|m| {
            let h = m.batch_exec_us;
            m.registry.observe(h, dur_us.max(0.0) as u64);
            if let Some(c) = sim_cycles {
                m.registry.inc(m.sim_cycles, c);
            }
            if let Some(trace) = m.trace.as_mut() {
                trace.complete(PID_SERVE, worker as u32, label, start_us, dur_us);
            }
        });
    }

    /// Publishes a worker's seeding occ-block cache delta (`hits`,
    /// `lookups` since that worker last published).
    pub fn seed_cache(&self, hits: u64, lookups: u64) {
        self.with(|m| {
            m.registry.inc(m.seed_cache_hits, hits);
            m.registry.inc(m.seed_cache_lookups, lookups);
        });
    }

    /// Names a worker's trace track (no-op when tracing is off).
    pub fn name_worker(&self, worker: usize) {
        self.with(|m| {
            if let Some(trace) = m.trace.as_mut() {
                trace.name_thread(PID_SERVE, worker as u32, &format!("worker {worker}"));
            }
        });
    }

    /// The registry snapshot document (always serve-schema-complete).
    pub fn snapshot(&self, meta: &SnapshotMeta) -> JsonValue {
        lock(&self.inner).registry.snapshot(meta)
    }

    /// The `stats` response: the registry snapshot with the live `slo`
    /// view, `flight` summary and per-tenant rollup appended
    /// (`Kind::StatsResponse` checks it). Counters and tenant rows
    /// are read under one lock acquisition, so the identities between
    /// them are exact in every scrape.
    pub fn stats_response(&self, meta: &SnapshotMeta) -> JsonValue {
        let now = self.now_us() as u64;
        let mut inner = lock(&self.inner);
        let mut doc = inner.registry.snapshot(meta);
        let slo = inner.slo.view(now).to_json();
        let tenants = inner.tenants_json(now);
        drop(inner);
        if let JsonValue::Obj(pairs) = &mut doc {
            pairs.push(("slo".to_string(), slo));
            pairs.push(("flight".to_string(), self.flight.summary_json()));
            pairs.push(("tenants".to_string(), tenants));
        }
        doc
    }

    /// The span-log document (`"kind": "nvwa-spanlog"`).
    pub fn span_log_doc(&self) -> JsonValue {
        lock(&self.inner).span_log.to_json()
    }

    /// Number of span chains retained plus chains dropped at capacity —
    /// together the exactly-once accounting total.
    pub fn span_chain_counts(&self) -> (usize, u64) {
        let inner = lock(&self.inner);
        (inner.span_log.chains().len(), inner.span_log.dropped())
    }

    /// The Chrome trace JSON, when tracing was enabled.
    pub fn trace_json(&self) -> Option<String> {
        lock(&self.inner).trace.as_ref().map(TraceRecorder::to_json)
    }

    /// Value of a counter by name (tests and the CLI summary).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.inner).registry.counter_value(name).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_telemetry::snapshot::{validate, Kind};

    /// A hub as a single-index server launches it: one `default` tenant.
    fn hub(trace: bool, obs: &ObservabilityConfig) -> ServeMetrics {
        let metrics = ServeMetrics::new(8, 1, 4, trace, obs);
        metrics.register_tenant("default", 1);
        metrics
    }

    #[test]
    fn idle_hub_emits_schema_complete_snapshot_and_stats() {
        let metrics = ServeMetrics::new(128, 4, 4, false, &ObservabilityConfig::default());
        let meta = SnapshotMeta {
            host_threads: 4,
            git_rev: None,
        };
        validate(Kind::ServeSnapshot, &metrics.snapshot(&meta)).unwrap();
        validate(Kind::StatsResponse, &metrics.stats_response(&meta)).unwrap();
        validate(Kind::SpanLog, &metrics.span_log_doc()).unwrap();
        assert!(metrics.trace_json().is_none());
    }

    #[test]
    fn a_panic_under_the_metrics_lock_does_not_stop_the_hub() {
        // `respond_and_trace` runs outside `execute_batch`'s
        // `catch_unwind`, so a worker can die inside `with`; the reactor
        // thread takes the same mutex on every admission.
        let metrics = hub(false, &ObservabilityConfig::default());
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| metrics.with(|_| panic!("injected: worker died under the metrics lock")))
                .join()
        });
        assert!(died.is_err());
        assert!(metrics.inner.is_poisoned());
        metrics.protocol_error();
        assert_eq!(metrics.counter("serve.protocol_errors"), 1);
        let meta = SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        };
        validate(Kind::StatsResponse, &metrics.stats_response(&meta)).unwrap();
    }

    #[test]
    fn events_land_in_the_registry_and_trace() {
        let metrics = hub(true, &ObservabilityConfig::default());
        metrics.admitted(3, Mode::Short, 0, 0);
        metrics.admitted(5, Mode::Short, 0, 0);
        metrics.shed(None);
        metrics.batch_formed(FlushReason::Fill, 4, 1);
        let chain = RequestSpans::chain(
            0,
            0,
            7,
            1,
            Outcome::Ok,
            metrics.now_ns(),
            &[
                (Stage::Queue, 300_000),
                (Stage::Align, 1_150_000),
                (Stage::Write, 50_000),
            ],
        );
        metrics.request_done(chain, 0, 0);
        metrics.batch_executed(0, "batch b0 n4", 10.0, 250.0, Some(777));
        let meta = SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        };
        let doc = metrics.stats_response(&meta);
        validate(Kind::StatsResponse, &doc).unwrap();
        assert_eq!(metrics.counter("serve.requests_admitted"), 2);
        assert_eq!(metrics.counter("serve.requests_shed"), 1);
        assert_eq!(metrics.counter("serve.responses_ok"), 1);
        assert_eq!(metrics.counter("serve.sim_cycles_total"), 777);
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(
            gauges.get("serve.queue_depth_max").unwrap().as_num(),
            Some(5.0)
        );
        // The e2e histogram saw the chain's exact duration sum (1.5 ms).
        let hist = doc.get("histograms").unwrap();
        assert_eq!(
            hist.get("serve.e2e_latency_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
        let trace = metrics.trace_json().unwrap();
        assert!(trace.contains("batch b0 n4"));
        // The request chain's three stage spans are in the trace too.
        for stage in ["queue", "align", "write"] {
            assert!(trace.contains(&format!("\"{stage}\"")), "{stage}");
        }
        validate(Kind::ChromeTrace, &JsonValue::parse(&trace).unwrap()).unwrap();
    }

    #[test]
    fn mode_counters_and_unmapped_land_in_the_registry() {
        let metrics = hub(true, &ObservabilityConfig::default());
        // Bins: [short, short, long, classify] — as the server would set
        // them on a mode-binned batcher.
        metrics.set_bin_modes(vec![Mode::Short, Mode::Short, Mode::Long, Mode::Classify]);
        metrics.admitted(1, Mode::Short, 0, 0);
        metrics.admitted(2, Mode::Long, 0, 0);
        metrics.admitted(3, Mode::Classify, 0, 0);
        assert_eq!(metrics.counter("serve.requests_admitted"), 3);
        assert_eq!(metrics.counter("serve.requests_long"), 1);
        assert_eq!(metrics.counter("serve.requests_classify"), 1);

        // An unmapped long read: counted, latency-sampled, own counter.
        let chain = RequestSpans::chain(
            0,
            2,
            1,
            2,
            Outcome::Unmapped,
            metrics.now_ns(),
            &[
                (Stage::Queue, 10_000),
                (Stage::Align, 90_000),
                (Stage::Write, 1_000),
            ],
        );
        metrics.request_done(chain, 0, 0);
        assert_eq!(metrics.counter("serve.responses_unmapped"), 1);
        assert_eq!(metrics.counter("serve.responses_ok"), 0);
        let meta = SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        };
        let doc = metrics.stats_response(&meta);
        validate(Kind::StatsResponse, &doc).unwrap();
        let hist = doc.get("histograms").unwrap();
        assert_eq!(
            hist.get("serve.e2e_latency_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_num(),
            Some(1.0),
            "unmapped responses feed the latency histogram"
        );
        // The chain landed on a long-read span track.
        let trace = metrics.trace_json().unwrap();
        assert!(trace.contains("long-read requests"), "long tracks named");
        assert!(trace.contains("classify requests"), "classify tracks named");
    }

    #[test]
    fn shed_storm_fires_exactly_once() {
        let obs = ObservabilityConfig {
            shed_storm_threshold: Some(3),
            ..ObservabilityConfig::default()
        };
        let metrics = hub(false, &obs);
        assert!(!metrics.shed(None));
        assert!(!metrics.shed(None));
        assert!(metrics.shed(None), "third shed crosses the threshold");
        assert!(!metrics.shed(None), "storm fires at most once");
    }

    #[test]
    fn span_log_keeps_exactly_once_accounting() {
        let obs = ObservabilityConfig {
            span_log_cap: 2,
            ..ObservabilityConfig::default()
        };
        let metrics = hub(false, &obs);
        for id in 0..5u64 {
            let chain = RequestSpans::chain(
                id,
                0,
                id,
                0,
                Outcome::Ok,
                1_000 * id,
                &[(Stage::Queue, 10), (Stage::Align, 20), (Stage::Write, 5)],
            );
            metrics.request_done(chain, 0, 0);
        }
        let (retained, dropped) = metrics.span_chain_counts();
        assert_eq!(retained, 2);
        assert_eq!(dropped, 3);
        validate(Kind::SpanLog, &metrics.span_log_doc()).unwrap();
        assert_eq!(metrics.counter("serve.responses_ok"), 5);
    }
}
