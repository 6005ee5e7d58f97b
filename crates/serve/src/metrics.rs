//! Serve-path telemetry: one hub that every serving event goes through.
//!
//! The server reports what happened as an [`Event`] to
//! [`ServeMetrics::record`]; one `match` there moves everything the event
//! touches — registry counters, gauges and histograms, the windowed SLO
//! views, the per-tenant/per-shard rollup, the flight ring, the span log
//! and the Chrome trace — under one mutex, taken through `crate::lock`
//! so a panic under it cannot stop the reactor thread. Serving events are
//! coarse (per request / per batch), so contention is negligible next to
//! an alignment, and every scrape reads all of it under one acquisition:
//! the identities between counters, tenant rows and the flight ring hold
//! in every `stats` reply.
//!
//! Every metric is registered at construction from the name tables
//! below (a superset of `nvwa_telemetry::snapshot::SERVE_REQUIRED_*`), so
//! a snapshot taken before the first request is already schema-complete.
//! A worker panic dumps the flight ring from inside the hub.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use crate::batcher::{class_of_bin, FlushReason, BINS};
use crate::flight::{FlightEventKind, FlightRecorder};
use crate::lock;
use crate::protocol::Mode;
use nvwa_telemetry::{
    CounterId, GaugeId, HistogramId, JsonValue, MetricsRegistry, Outcome, RequestSpans, SloWindow,
    SnapshotMeta, SpanLog, Stage, TraceRecorder, WindowConfig,
};

/// Trace process id for the serving layer (the simulator uses 0 and 1).
const PID_SERVE: u32 = 2;

/// The SLO window, in microseconds (the windows' tick): a trailing second.
const SLO_WINDOW_US: u64 = 1_000_000;

/// The SLO window's step (ring-bucket width) in microseconds; divides
/// [`SLO_WINDOW_US`].
const SLO_STEP_US: u64 = 100_000;

/// Span chains the span log keeps; later ones are counted as dropped.
const SPAN_LOG_CAP: usize = 1 << 16;

/// Events the flight ring keeps.
const FLIGHT_CAP: usize = 512;

/// First Chrome-trace track id used for per-request span chains (worker
/// batch spans use tracks `0..workers`).
const REQUEST_TRACK_BASE: u32 = 64;

/// How `mode` shows in the Chrome trace: the first track id and the
/// track count its span chains hash onto by trace id, the track name,
/// and the label prefix of its batch spans. Each mode has request tracks
/// of its own, directly after the previous mode's.
fn mode_trace(mode: Mode) -> (u32, u32, &'static str, &'static str) {
    match mode {
        Mode::Short => (REQUEST_TRACK_BASE, 8, "requests", ""),
        Mode::Long => (REQUEST_TRACK_BASE + 8, 4, "long-read requests", "long "),
        Mode::Classify => (REQUEST_TRACK_BASE + 12, 2, "classify requests", "classify "),
    }
}

/// Declares one kind of serve metric once: an enum whose variants index
/// the name table that construction registers in a loop.
macro_rules! names {
    ($(#[$doc:meta])* $kind:ident, $table:ident { $($variant:ident = $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        enum $kind {
            $($variant,)*
        }
        const $table: &[&str] = &[$($name,)*];
    };
}

names!(
    /// The serve counters.
    C, COUNTERS {
        Admitted = "serve.requests_admitted",
        Shed = "serve.requests_shed",
        DeadlineExpired = "serve.deadline_expired",
        ResponsesOk = "serve.responses_ok",
        ResponsesUnmapped = "serve.responses_unmapped",
        RequestsLong = "serve.requests_long",
        RequestsClassify = "serve.requests_classify",
        ProtocolErrors = "serve.protocol_errors",
        BatchesFormed = "serve.batches_formed",
        Connections = "serve.connections_accepted",
        FlushFill = "serve.batch_flush_fill",
        // `FlushReason::Idle`: left partially full because a worker was
        // free. No timer exists; the wire name is what the repository
        // benchmark reads, and is renamed with it.
        FlushIdle = "serve.batch_flush_timeout",
        FlushDrain = "serve.batch_flush_drain",
        WriteErrors = "serve.write_errors",
        WorkerPanics = "serve.worker_panics",
        Quota = "serve.requests_quota",
        ShardsKilled = "serve.shards_killed",
        SimCycles = "serve.sim_cycles_total",
    }
);

names!(
    /// The serve gauges.
    G, GAUGES {
        QueueDepth = "serve.queue_depth",
        QueueDepthMax = "serve.queue_depth_max",
        QueueCapacity = "serve.queue_capacity",
        Workers = "serve.workers",
    }
);

names!(
    /// The serve histograms.
    H, HISTOGRAMS {
        BatchSize = "serve.batch_size",
        E2eLatency = "serve.e2e_latency_us",
        QueueWait = "serve.queue_wait_us",
        BatchExec = "serve.batch_exec_us",
    }
);

/// One serving event, reported through [`ServeMetrics::record`].
pub(crate) enum Event {
    /// A connection was accepted.
    Connection,
    /// A malformed frame or request (an unknown tenant name included).
    ProtocolError,
    /// A response could not be written: the client went away.
    WriteError,
    /// Request `trace_id` on connection `conn` entered `(tenant,
    /// shard)`'s dispatcher, leaving it `depth` deep.
    Admitted {
        trace_id: u64,
        conn: u64,
        depth: usize,
        mode: Mode,
        tenant: usize,
        shard: usize,
    },
    /// Request `id` refused by `tenant`'s admission quota `limit`.
    Quota {
        id: u64,
        conn: u64,
        tenant: usize,
        limit: u64,
    },
    /// Request `id` shed by backpressure: `tenant` once one was resolved
    /// (with its shard once routing had picked one), `None` while
    /// draining.
    Shed {
        id: u64,
        conn: u64,
        tenant: Option<(usize, Option<usize>)>,
    },
    /// A tenant's shard was killed (fault injection).
    ShardDead { tenant: usize, shard: usize },
    /// `n` requests of `bin` expired before a worker took them.
    Expired { n: u64, bin: usize },
    /// A worker took batch `seq` and starts executing it; `depth` is the
    /// dispatcher occupancy it left behind.
    BatchStart {
        seq: u64,
        reason: FlushReason,
        bin: usize,
        size: usize,
        depth: usize,
    },
    /// Batch `seq` panicked on `worker` (caught; every item is answered
    /// `error`). Dumps the flight ring as `worker_panic`.
    Panic { seq: u64, worker: usize },
    /// Batch `seq`, taken at `taken`, finished executing on `worker` at
    /// `done`; recorded before its responses go out. Carries the
    /// simulated cycles (hardware-in-the-loop).
    BatchDone {
        seq: u64,
        worker: usize,
        bin: usize,
        size: usize,
        taken: Instant,
        done: Instant,
        sim_cycles: Option<u64>,
    },
    /// One request answered on `(tenant, shard)`, any outcome; the
    /// chain's stage durations sum exactly to its end-to-end latency (see
    /// `nvwa_telemetry::spans`).
    RequestDone {
        chain: RequestSpans,
        tenant: usize,
        shard: usize,
    },
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

struct Inner {
    registry: MetricsRegistry,
    counters: Vec<CounterId>,
    gauges: Vec<GaugeId>,
    histograms: Vec<HistogramId>,
    trace: Option<TraceRecorder>,
    slo: SloWindow,
    span_log: SpanLog,
    flight: FlightRecorder,
    tenants: Vec<TenantStats>,
}

impl Inner {
    fn inc(&mut self, c: C, by: u64) {
        self.registry.inc(self.counters[c as usize], by);
    }

    fn observe(&mut self, h: H, value: u64) {
        self.registry.observe(self.histograms[h as usize], value);
    }

    /// Sets the queue-depth gauge (raising its high-water mark) and the
    /// SLO view's depth.
    fn queue_depth(&mut self, depth: usize) {
        let (g, max) = (
            self.gauges[G::QueueDepth as usize],
            self.gauges[G::QueueDepthMax as usize],
        );
        self.registry.set_gauge(g, depth as f64);
        self.registry.set_gauge_max(max, depth as f64);
        self.slo.set_queue_depth(depth);
    }

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
    /// Where worker-panic dumps are written (`ServerConfig::flight_dump`).
    dump_dir: Option<PathBuf>,
    /// Server start; all trace/span timestamps are relative to it.
    epoch: Instant,
}

impl ServeMetrics {
    /// The hub of a server with `workers` worker threads in all and
    /// `tenants` as `(name, shards)` rows in the server's tenant order.
    /// `trace` enables the per-batch/per-request Chrome-trace recorder;
    /// `flight_dump` is where worker-panic dumps go.
    pub(crate) fn new(
        queue_capacity: usize,
        workers: usize,
        tenants: &[(&str, usize)],
        trace: bool,
        flight_dump: Option<PathBuf>,
    ) -> ServeMetrics {
        let mut registry = MetricsRegistry::new();
        let counters = COUNTERS.iter().map(|name| registry.counter(name)).collect();
        let gauges: Vec<_> = GAUGES.iter().map(|name| registry.gauge(name)).collect();
        let histograms = HISTOGRAMS
            .iter()
            .map(|name| registry.histogram(name))
            .collect();
        registry.set_gauge(gauges[G::QueueCapacity as usize], queue_capacity as f64);
        registry.set_gauge(gauges[G::Workers as usize], workers as f64);
        let trace = trace.then(|| {
            let mut t = TraceRecorder::new();
            t.name_process(PID_SERVE, "nvwa-serve");
            for mode in [Mode::Short, Mode::Long, Mode::Classify] {
                let (base, tracks, name, _) = mode_trace(mode);
                for i in 0..tracks {
                    t.name_thread(PID_SERVE, base + i, &format!("{name} {i}"));
                }
            }
            for worker in 0..workers {
                t.name_thread(PID_SERVE, worker as u32, &format!("worker {worker}"));
            }
            t
        });
        let window = WindowConfig::new(SLO_WINDOW_US, SLO_STEP_US);
        let tenants = tenants
            .iter()
            .map(|&(name, shards)| TenantStats {
                name: name.to_string(),
                shards: vec![ShardStats::default(); shards.max(1)],
                quota_shed: 0,
                shed_unrouted: 0,
                slo: SloWindow::new(window, 1),
            })
            .collect();
        ServeMetrics {
            inner: Mutex::new(Inner {
                registry,
                counters,
                gauges,
                histograms,
                trace,
                slo: SloWindow::new(window, BINS),
                span_log: SpanLog::new(SPAN_LOG_CAP),
                flight: FlightRecorder::new(FLIGHT_CAP),
                tenants,
            }),
            dump_dir: flight_dump,
            epoch: Instant::now(),
        }
    }

    /// Microseconds since server start (the trace time base).
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// `at` as nanoseconds since server start (the span-chain time base).
    pub(crate) fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one serving event in every sink it touches, under one
    /// lock acquisition; then fires the flight dump the event triggered,
    /// if any.
    pub(crate) fn record(&self, event: Event) {
        use FlightEventKind as K;
        let t_us = self.now_us();
        let t = t_us as u64;
        let mut guard = lock(&self.inner);
        let m = &mut *guard;
        let mut panicked = false;
        match event {
            Event::Connection => m.inc(C::Connections, 1),
            Event::ProtocolError => m.inc(C::ProtocolErrors, 1),
            Event::WriteError => m.inc(C::WriteErrors, 1),
            Event::Admitted {
                trace_id,
                conn,
                depth,
                mode,
                tenant,
                shard,
            } => {
                m.flight
                    .record(t_us, K::Admit, trace_id, conn, depth as u64);
                m.inc(C::Admitted, 1);
                match mode {
                    Mode::Short => {}
                    Mode::Long => m.inc(C::RequestsLong, 1),
                    Mode::Classify => m.inc(C::RequestsClassify, 1),
                }
                if let Some(slot) = m.tenants.get_mut(tenant) {
                    if let Some(s) = slot.shards.get_mut(shard) {
                        s.admitted += 1;
                    }
                    slot.slo.record_admitted(t, 0);
                }
                m.slo.record_admitted(t, depth);
                m.queue_depth(depth);
            }
            Event::Quota {
                id,
                conn,
                tenant,
                limit,
            } => {
                m.flight.record(t_us, K::Quota, id, conn, limit);
                m.inc(C::Quota, 1);
                if let Some(slot) = m.tenants.get_mut(tenant) {
                    slot.quota_shed += 1;
                }
            }
            Event::Shed { id, conn, tenant } => {
                m.flight.record(t_us, K::Shed, id, conn, 0);
                m.inc(C::Shed, 1);
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
            }
            Event::ShardDead { tenant, shard } => {
                m.inc(C::ShardsKilled, 1);
                if let Some(s) = m
                    .tenants
                    .get_mut(tenant)
                    .and_then(|slot| slot.shards.get_mut(shard))
                {
                    s.dead = true;
                }
            }
            Event::Expired { n, bin } => {
                m.flight.record(t_us, K::Deadline, n, bin as u64, 0);
                m.inc(C::DeadlineExpired, n);
                m.slo.record_deadline_missed(t, n);
            }
            Event::BatchStart {
                seq,
                reason,
                bin,
                size,
                depth,
            } => {
                m.flight
                    .record(t_us, K::BatchStart, seq, bin as u64, size as u64);
                m.inc(C::BatchesFormed, 1);
                m.inc(
                    match reason {
                        FlushReason::Fill => C::FlushFill,
                        FlushReason::Idle => C::FlushIdle,
                        FlushReason::Drain => C::FlushDrain,
                    },
                    1,
                );
                m.observe(H::BatchSize, size as u64);
                m.queue_depth(depth);
            }
            Event::Panic { seq, worker } => {
                m.flight.record(t_us, K::Panic, seq, worker as u64, 0);
                m.inc(C::WorkerPanics, 1);
                panicked = true;
            }
            Event::BatchDone {
                seq,
                worker,
                bin,
                size,
                taken,
                done,
                sim_cycles,
            } => {
                m.flight
                    .record(t_us, K::BatchDone, seq, bin as u64, size as u64);
                let exec = done.saturating_duration_since(taken);
                m.observe(H::BatchExec, exec.as_micros() as u64);
                m.inc(C::SimCycles, sim_cycles.unwrap_or(0));
                if let Some(trace) = m.trace.as_mut() {
                    let (.., label) = mode_trace(class_of_bin(bin));
                    let name = format!("batch {label}bin{bin} n{size}");
                    let start_us = taken.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
                    let dur_us = exec.as_secs_f64() * 1e6;
                    trace.complete(PID_SERVE, worker as u32, &name, start_us, dur_us);
                }
            }
            Event::RequestDone {
                chain,
                tenant,
                shard,
            } => {
                let e2e_us = chain.e2e_ns() / 1_000;
                let done_us = (chain.t0_ns + chain.e2e_ns()) / 1_000;
                let served = match chain.outcome {
                    Outcome::Ok => Some(C::ResponsesOk),
                    Outcome::Unmapped => Some(C::ResponsesUnmapped),
                    Outcome::Deadline | Outcome::Error => None,
                };
                if let Some(slot) = m.tenants.get_mut(tenant) {
                    if let Some(s) = slot.shards.get_mut(shard) {
                        match chain.outcome {
                            Outcome::Ok => s.ok += 1,
                            Outcome::Unmapped => s.unmapped += 1,
                            Outcome::Deadline => s.deadline += 1,
                            Outcome::Error => s.errors += 1,
                        }
                    }
                    match chain.outcome {
                        Outcome::Deadline => slot.slo.record_deadline_missed(done_us, 1),
                        Outcome::Error => {}
                        _ => slot.slo.record_completed(done_us, 0, e2e_us),
                    }
                }
                // Unmapped responses did the full alignment work and
                // answered the client; they count in the latency
                // histograms and the SLO window like `ok`, under their
                // own response counter.
                if let Some(counter) = served {
                    m.inc(counter, 1);
                    let queue = chain.spans.iter().find(|s| s.stage == Stage::Queue);
                    m.observe(H::E2eLatency, e2e_us);
                    m.observe(H::QueueWait, queue.map_or(0, |s| s.dur_ns) / 1_000);
                    m.slo.record_completed(done_us, chain.bin, e2e_us);
                }
                if let Some(trace) = m.trace.as_mut() {
                    let (base, tracks, ..) = mode_trace(class_of_bin(chain.bin));
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
            }
        }
        drop(guard);
        if panicked {
            self.dump_flight("worker_panic");
        }
    }

    /// Dumps the flight ring as `reason` and returns the document. With a
    /// dump directory configured it also freezes `flight_<reason>.json`
    /// there; a write that fails is kept, naming the file, as the flight
    /// summary's `last_dump_error`.
    pub(crate) fn dump_flight(&self, reason: &str) -> JsonValue {
        let dump = lock(&self.inner).flight.dump_json(reason);
        if let Some(dir) = &self.dump_dir {
            let path = dir.join(format!("flight_{reason}.json"));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, dump.to_string_pretty()));
            if let Err(e) = written {
                lock(&self.inner).flight.last_dump_error = Some(format!("{}: {e}", path.display()));
            }
        }
        dump
    }

    /// The registry snapshot document (always serve-schema-complete).
    pub fn snapshot(&self, meta: &SnapshotMeta) -> JsonValue {
        lock(&self.inner).registry.snapshot(meta)
    }

    /// The `stats` response: the registry snapshot with the live `slo`
    /// view, `flight` summary and per-tenant rollup appended
    /// (`Kind::StatsResponse` checks it). All of it is read under one
    /// lock acquisition, so the identities between counters, tenant rows
    /// and the flight ring are exact in every scrape.
    pub fn stats_response(&self, meta: &SnapshotMeta) -> JsonValue {
        let now = self.now_us() as u64;
        let mut inner = lock(&self.inner);
        let mut doc = inner.registry.snapshot(meta);
        let sections = [
            ("slo", inner.slo.view(now).to_json()),
            ("flight", inner.flight.summary_json()),
            ("tenants", inner.tenants_json(now)),
        ];
        drop(inner);
        if let JsonValue::Obj(pairs) = &mut doc {
            pairs.extend(sections.map(|(key, value)| (key.to_string(), value)));
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
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Two tenants, `alpha` with two shards and `beta` with one.
    fn hub(trace: bool, flight_dump: Option<PathBuf>) -> ServeMetrics {
        ServeMetrics::new(8, 2, &[("alpha", 2), ("beta", 1)], trace, flight_dump)
    }

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        }
    }

    fn stats(hub: &ServeMetrics) -> JsonValue {
        let doc = hub.stats_response(&meta());
        validate(Kind::StatsResponse, &doc).unwrap();
        doc
    }

    fn flight(hub: &ServeMetrics, key: &str) -> JsonValue {
        stats(hub).get("flight").unwrap().get(key).unwrap().clone()
    }

    /// A chain of `outcome` admitted just now: queue 300 µs, then (unless
    /// it expired) align 1.15 ms, then write 50 µs.
    fn chain(trace_id: u64, bin: usize, outcome: Outcome, hub: &ServeMetrics) -> RequestSpans {
        let stages: &[(Stage, u64)] = match outcome {
            Outcome::Deadline => &[(Stage::Queue, 300_000), (Stage::Write, 50_000)],
            _ => &[
                (Stage::Queue, 300_000),
                (Stage::Align, 1_150_000),
                (Stage::Write, 50_000),
            ],
        };
        let t0_ns = hub.ns_at(Instant::now());
        RequestSpans::chain(trace_id, 0, trace_id, bin, outcome, t0_ns, stages)
    }

    /// Every cell of a `stats` reply an event may move, by name: each
    /// counter and gauge, each histogram's count, the global and
    /// per-tenant SLO counts, each tenant and shard cell, and the flight
    /// ring's per-kind counts, `recorded` and `dumps`.
    fn cells(doc: &JsonValue) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let num = |v: &JsonValue| match v {
            JsonValue::Bool(b) => f64::from(u8::from(*b)),
            v => v.as_num().unwrap(),
        };
        let members = |v: &JsonValue| v.as_obj().unwrap().to_vec();
        for section in ["counters", "gauges"] {
            for (name, v) in members(doc.get(section).unwrap()) {
                out.insert(name, num(&v));
            }
        }
        for (name, h) in members(doc.get("histograms").unwrap()) {
            out.insert(format!("{name}.count"), num(h.get("count").unwrap()));
        }
        let slo = |out: &mut BTreeMap<String, f64>, prefix: &str, view: &JsonValue| {
            for key in [
                "admitted",
                "shed",
                "deadline_missed",
                "completed",
                "queue_depth",
            ] {
                out.insert(format!("{prefix}.{key}"), num(view.get(key).unwrap()));
            }
        };
        slo(&mut out, "slo", doc.get("slo").unwrap());
        for tenant in doc.get("tenants").unwrap().as_arr().unwrap() {
            let name = tenant.get("name").unwrap().as_str().unwrap();
            slo(&mut out, &format!("{name}.slo"), tenant.get("slo").unwrap());
            for key in ["quota_shed", "shed_unrouted"] {
                out.insert(format!("{name}.{key}"), num(tenant.get(key).unwrap()));
            }
            for (i, shard) in tenant
                .get("shards")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .enumerate()
            {
                for (key, v) in members(shard) {
                    out.insert(format!("{name}.{i}.{key}"), num(&v));
                }
            }
        }
        let flight = doc.get("flight").unwrap();
        for (kind, n) in members(flight.get("by_kind").unwrap()) {
            out.insert(format!("flight.{kind}"), num(&n));
        }
        for key in ["recorded", "dumps"] {
            out.insert(format!("flight.{key}"), num(flight.get(key).unwrap()));
        }
        out
    }

    #[test]
    fn idle_hub_emits_schema_complete_snapshot_and_stats() {
        let metrics = hub(false, None);
        validate(Kind::ServeSnapshot, &metrics.snapshot(&meta())).unwrap();
        stats(&metrics);
        validate(Kind::SpanLog, &metrics.span_log_doc()).unwrap();
        assert!(metrics.trace_json().is_none());
    }

    #[test]
    fn a_panic_under_the_metrics_lock_does_not_stop_the_hub() {
        // A worker can die while it holds the hub's mutex; the reactor
        // thread takes the same mutex on every admission.
        let metrics = hub(false, None);
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = lock(&metrics.inner);
                    panic!("injected: worker died under the metrics lock")
                })
                .join()
        });
        assert!(died.is_err());
        assert!(metrics.inner.is_poisoned());
        metrics.record(Event::ProtocolError);
        assert_eq!(metrics.counter("serve.protocol_errors"), 1);
        stats(&metrics);
    }

    #[test]
    fn each_event_moves_exactly_its_cells() {
        let metrics = hub(true, None);
        {
            // Windows long enough that nothing expires mid-test.
            let window = WindowConfig::new(600_000_000, 1_000_000);
            let mut inner = lock(&metrics.inner);
            inner.slo = SloWindow::new(window, BINS);
            for slot in &mut inner.tenants {
                slot.slo = SloWindow::new(window, 1);
            }
        }
        let admitted = |trace_id, depth, mode, tenant, shard| Event::Admitted {
            trace_id,
            conn: 1,
            depth,
            mode,
            tenant,
            shard,
        };
        let admit = [("serve.requests_admitted", 1.0), ("slo.admitted", 1.0)];
        let ring = |kind| [(kind, 1.0), ("flight.recorded", 1.0)];
        let shed = [("serve.requests_shed", 1.0), ("slo.shed", 1.0)];
        let done = |served| {
            [
                (served, 1.0),
                ("serve.e2e_latency_us.count", 1.0),
                ("serve.queue_wait_us.count", 1.0),
                ("slo.completed", 1.0),
            ]
        };
        let steps: Vec<(Event, Vec<(&str, f64)>)> = vec![
            (Event::Connection, vec![("serve.connections_accepted", 1.0)]),
            (Event::ProtocolError, vec![("serve.protocol_errors", 1.0)]),
            (Event::WriteError, vec![("serve.write_errors", 1.0)]),
            (
                admitted(7, 3, Mode::Long, 0, 1),
                [
                    &admit[..],
                    &ring("flight.admit"),
                    &[
                        ("serve.requests_long", 1.0),
                        ("serve.queue_depth", 3.0),
                        ("serve.queue_depth_max", 3.0),
                        ("slo.queue_depth", 3.0),
                        ("alpha.1.admitted", 1.0),
                        ("alpha.slo.admitted", 1.0),
                    ],
                ]
                .concat(),
            ),
            (
                admitted(8, 1, Mode::Classify, 1, 0),
                [
                    &admit[..],
                    &ring("flight.admit"),
                    &[
                        ("serve.requests_classify", 1.0),
                        ("serve.queue_depth", -2.0),
                        ("slo.queue_depth", -2.0),
                        ("beta.0.admitted", 1.0),
                        ("beta.slo.admitted", 1.0),
                    ],
                ]
                .concat(),
            ),
            (
                admitted(9, 2, Mode::Short, 0, 0),
                [
                    &admit[..],
                    &ring("flight.admit"),
                    &[
                        ("serve.queue_depth", 1.0),
                        ("slo.queue_depth", 1.0),
                        ("alpha.0.admitted", 1.0),
                        ("alpha.slo.admitted", 1.0),
                    ],
                ]
                .concat(),
            ),
            (
                admitted(10, 2, Mode::Short, 0, 0),
                [
                    &admit[..],
                    &ring("flight.admit"),
                    &[("alpha.0.admitted", 1.0), ("alpha.slo.admitted", 1.0)],
                ]
                .concat(),
            ),
            (
                Event::Quota {
                    id: 11,
                    conn: 2,
                    tenant: 1,
                    limit: 4,
                },
                [
                    &ring("flight.quota")[..],
                    &[("serve.requests_quota", 1.0), ("beta.quota_shed", 1.0)],
                ]
                .concat(),
            ),
            (
                Event::Shed {
                    id: 12,
                    conn: 2,
                    tenant: Some((0, Some(0))),
                },
                [
                    &shed[..],
                    &ring("flight.shed"),
                    &[("alpha.0.shed", 1.0), ("alpha.slo.shed", 1.0)],
                ]
                .concat(),
            ),
            (
                Event::Shed {
                    id: 13,
                    conn: 2,
                    tenant: Some((1, None)),
                },
                [
                    &shed[..],
                    &ring("flight.shed"),
                    &[("beta.shed_unrouted", 1.0), ("beta.slo.shed", 1.0)],
                ]
                .concat(),
            ),
            (
                Event::Shed {
                    id: 14,
                    conn: 2,
                    tenant: None,
                },
                [&shed[..], &ring("flight.shed")].concat(),
            ),
            (
                Event::ShardDead {
                    tenant: 0,
                    shard: 0,
                },
                vec![("serve.shards_killed", 1.0), ("alpha.0.dead", 1.0)],
            ),
            (
                Event::Expired { n: 2, bin: 0 },
                [
                    &ring("flight.deadline")[..],
                    &[
                        ("serve.deadline_expired", 2.0),
                        ("slo.deadline_missed", 2.0),
                    ],
                ]
                .concat(),
            ),
            (
                Event::BatchStart {
                    seq: 0,
                    reason: FlushReason::Fill,
                    bin: 4,
                    size: 4,
                    depth: 0,
                },
                [
                    &ring("flight.batch_start")[..],
                    &[
                        ("serve.batches_formed", 1.0),
                        ("serve.batch_flush_fill", 1.0),
                        ("serve.batch_size.count", 1.0),
                        ("serve.queue_depth", -2.0),
                        ("slo.queue_depth", -2.0),
                    ],
                ]
                .concat(),
            ),
            (
                Event::BatchDone {
                    seq: 0,
                    worker: 1,
                    bin: 4,
                    size: 4,
                    taken: Instant::now(),
                    done: Instant::now() + std::time::Duration::from_micros(250),
                    sim_cycles: Some(777),
                },
                [
                    &ring("flight.batch_done")[..],
                    &[
                        ("serve.batch_exec_us.count", 1.0),
                        ("serve.sim_cycles_total", 777.0),
                    ],
                ]
                .concat(),
            ),
            (
                Event::RequestDone {
                    chain: chain(7, 4, Outcome::Unmapped, &metrics),
                    tenant: 0,
                    shard: 1,
                },
                [
                    &done("serve.responses_unmapped")[..],
                    &[("alpha.1.unmapped", 1.0), ("alpha.slo.completed", 1.0)],
                ]
                .concat(),
            ),
            (
                Event::RequestDone {
                    chain: chain(8, 6, Outcome::Ok, &metrics),
                    tenant: 1,
                    shard: 0,
                },
                [
                    &done("serve.responses_ok")[..],
                    &[("beta.0.ok", 1.0), ("beta.slo.completed", 1.0)],
                ]
                .concat(),
            ),
            (
                Event::RequestDone {
                    chain: chain(9, 0, Outcome::Deadline, &metrics),
                    tenant: 0,
                    shard: 0,
                },
                vec![
                    ("alpha.0.deadline", 1.0),
                    ("alpha.slo.deadline_missed", 1.0),
                ],
            ),
            (
                Event::RequestDone {
                    chain: chain(10, 0, Outcome::Error, &metrics),
                    tenant: 0,
                    shard: 0,
                },
                vec![("alpha.0.errors", 1.0)],
            ),
            (
                Event::Panic { seq: 1, worker: 0 },
                [
                    &ring("flight.panic")[..],
                    &[("serve.worker_panics", 1.0), ("flight.dumps", 1.0)],
                ]
                .concat(),
            ),
        ];
        let mut before = cells(&stats(&metrics));
        for (step, (event, want)) in steps.into_iter().enumerate() {
            metrics.record(event);
            let after = cells(&stats(&metrics));
            let moved: BTreeMap<String, f64> = after
                .iter()
                .filter(|&(key, v)| before[key] != *v)
                .map(|(key, v)| (key.clone(), v - before[key]))
                .collect();
            let want: BTreeMap<String, f64> = want
                .into_iter()
                .map(|(key, d)| (key.to_string(), d))
                .collect();
            assert_eq!(moved, want, "step {step}");
            before = after;
        }
        assert_eq!(
            flight(&metrics, "last_dump_reason").as_str(),
            Some("worker_panic")
        );
        assert_eq!(flight(&metrics, "last_dump_error"), JsonValue::Null);
        let trace = metrics.trace_json().unwrap();
        for name in [
            "\"batch long bin4 n4\"",
            "\"requests 7\"",
            "\"long-read requests 3\"",
            "\"classify requests 1\"",
            "\"worker 1\"",
            "\"queue\"",
            "\"align\"",
            "\"write\"",
        ] {
            assert!(trace.contains(name), "{name} missing from the trace");
        }
        validate(Kind::ChromeTrace, &JsonValue::parse(&trace).unwrap()).unwrap();
    }

    #[test]
    fn a_failed_flight_dump_is_reported_not_counted_as_a_write_error() {
        // A regular file where the dump directory should be: neither
        // `create_dir_all` nor the write can succeed.
        let file = std::env::temp_dir().join(format!("nvwa-flight-file-{}", std::process::id()));
        std::fs::write(&file, b"").unwrap();
        let metrics = hub(false, Some(file.clone()));
        metrics.record(Event::Panic { seq: 0, worker: 0 });
        let error = flight(&metrics, "last_dump_error");
        std::fs::remove_file(&file).unwrap();
        let error = error.as_str().expect("the failed dump is reported");
        let path = file.join("flight_worker_panic.json");
        assert!(error.contains(&path.display().to_string()), "{error}");
        assert_eq!(metrics.counter("serve.write_errors"), 0);
        assert_eq!(flight(&metrics, "dumps").as_num(), Some(1.0));
    }

    #[test]
    fn live_summaries_validate_while_four_threads_record() {
        // Writers and scrapes share the hub's one lock, so the flight
        // ring's `retained == min(recorded, cap)` (the `occupancy`
        // identity) and the tenant identities hold in every scrape taken
        // *while* four threads record, and so does a dump's
        // `events.len() == min(recorded, cap)`. The large ring never
        // fills (4 × 384 < 2048); the small one wraps continuously.
        for cap in [2048usize, 64].repeat(8) {
            let metrics = hub(false, None);
            lock(&metrics.inner).flight = FlightRecorder::new(cap);
            let writers_done = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let (metrics, writers_done) = (&metrics, &writers_done);
                    scope.spawn(move || {
                        for i in 0..384u64 {
                            let (id, conn, tenant) = (t * 1000 + i, t, (t % 2) as usize);
                            metrics.record(if i % 7 == 0 {
                                Event::Shed {
                                    id,
                                    conn,
                                    tenant: Some((tenant, Some(0))),
                                }
                            } else {
                                Event::Admitted {
                                    trace_id: id,
                                    conn,
                                    depth: 1,
                                    mode: Mode::Short,
                                    tenant,
                                    shard: 0,
                                }
                            });
                        }
                        writers_done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                loop {
                    stats(&metrics);
                    validate(Kind::FlightDump, &metrics.dump_flight("explicit")).unwrap();
                    if writers_done.load(Ordering::SeqCst) == 4 {
                        break;
                    }
                }
            });
            assert_eq!(flight(&metrics, "recorded").as_num(), Some(4.0 * 384.0));
        }
    }

    #[test]
    fn span_log_keeps_exactly_once_accounting() {
        let metrics = hub(false, None);
        lock(&metrics.inner).span_log = SpanLog::new(2);
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
            metrics.record(Event::RequestDone {
                chain,
                tenant: 0,
                shard: 0,
            });
        }
        let (retained, dropped) = metrics.span_chain_counts();
        assert_eq!(retained, 2);
        assert_eq!(dropped, 3);
        validate(Kind::SpanLog, &metrics.span_log_doc()).unwrap();
        assert_eq!(metrics.counter("serve.responses_ok"), 5);
    }
}
