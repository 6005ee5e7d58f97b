//! The batched alignment server.
//!
//! Thread topology (all std, one `Arc<Shared>` of queues + metrics):
//!
//! ```text
//! frontend ──▶ route (tenant, shard) ──▶ admission queue ──▶ batcher ──▶ batch
//!     ▲          try_admit / try_push        (bounded)     fill-or-timeout queue
//!     │                                                       (per engine)  │
//!     └──────────────── responses (per-conn buffer) ◀───── workers (pool) ◀─┘
//! ```
//!
//! * **One door**: the poll-based reactor (`reactor.rs`, one thread for
//!   every socket) is the only connection frontend. It reassembles frames
//!   and calls `dispatch_request` inline; workers answer by enqueueing on
//!   the connection's `ReactorConn` output buffer, which the reactor
//!   thread flushes — no other thread touches a client socket.
//! * **One tenant table**: [`Server::start`] takes the server's
//!   [`Tenant`]s (a single-index server is one tenant named `default`)
//!   and every request, `stats` reply and `kill_shard` resolves against
//!   the table built from them. Each (tenant, shard) pair owns an
//!   *engine* — its own admission queue, batcher and worker pool over a
//!   cheap clone of the tenant's `Arc<ReferenceIndex>`. Requests route
//!   deterministically by tenant name and region hash; a tenant's quota
//!   sheds with a distinct `quota` status before any queue is touched,
//!   and a killed shard degrades only its own traffic (routing probes
//!   past dead shards).
//! * **Backpressure is explicit and bounded**: every admission queue has
//!   a hard capacity; when full, the frontend answers immediately with a
//!   `shed` response instead of buffering — memory use is bounded by
//!   `engines × (queue_capacity + workers × max_batch)` requests no
//!   matter how fast clients push.
//! * **Deadlines** cover the queueing phase: a request that is still
//!   waiting when its deadline passes is answered `deadline` at batch
//!   formation and never executed. Once batched, it runs to completion.
//! * **Graceful drain**: shutdown stops admission (new requests shed with
//!   `draining`), flushes every batcher bin, lets the workers finish all
//!   formed batches, answers everything, then joins all threads — an
//!   admitted request is never dropped.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvwa_align::long_read::{LongReadAligner, LongReadConfig, LongReadIndex};
use nvwa_align::pipeline::{AlignScratch, AlignerConfig, ReferenceIndex};
use nvwa_index::minimizer::{minimizers, MinimizerParams};
use nvwa_index::trace::NullTrace;
use nvwa_telemetry::{JsonValue, Outcome, RequestSpans, SnapshotMeta, Stage};

use crate::backend::{execute_batch_with, BackendKind};
use crate::batcher::{Batch, BatchItem, Batcher, BatcherConfig};
use crate::flight::FlightEventKind;
use crate::metrics::{ObservabilityConfig, ServeMetrics};
use crate::protocol::{
    AlignResponse, ClassifyResult, Mode, Request, Status, TenantScore, WireAlignment,
};
use crate::queue::{BoundedQueue, Popped, PushError};
#[cfg(unix)]
use crate::reactor::ReactorConn;
use crate::registry::{region_hash, route_shard, try_admit_counted, AdmitGuard, Tenant};

/// How often blocked loops re-check the shutdown flags.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Off unix there is no `poll(2)`: [`Server::start`] refuses to launch, so
/// no connection — and no value of this type — ever exists.
#[cfg(not(unix))]
pub(crate) enum ReactorConn {}

#[cfg(not(unix))]
impl ReactorConn {
    fn send(&self, _doc: &JsonValue) -> std::io::Result<()> {
        match *self {}
    }

    fn conn_id(&self) -> u64 {
        match *self {}
    }
}

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Admission-queue capacity per engine — the backpressure bound.
    pub queue_capacity: usize,
    /// Worker threads per engine executing batches.
    pub workers: usize,
    /// Batching policy, fixed at launch.
    pub batch: BatcherConfig,
    /// Batch execution backend.
    pub backend: BackendKind,
    /// Software-aligner parameters (shared with the offline pipeline).
    pub aligner: AlignerConfig,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Default deadline for `mode: "long"` requests without their own
    /// (GACT fills run ~100× a short extension, so long reads get a
    /// dedicated budget); `None` falls back to `default_deadline`.
    pub long_deadline: Option<Duration>,
    /// Default deadline for `mode: "classify"` requests without their
    /// own; `None` falls back to `default_deadline`.
    pub classify_deadline: Option<Duration>,
    /// Bound in bytes on the tenants' summed
    /// [`ReferenceIndex::heap_bytes`]; [`Server::start`] refuses a tenant
    /// set over it. `None` = unbounded.
    pub registry_budget: Option<usize>,
    /// Record a Chrome trace of batch execution and per-request stage
    /// spans.
    pub trace: bool,
    /// Live-observability knobs: SLO window geometry, span-log and
    /// flight-recorder capacities, dump triggers.
    pub obs: ObservabilityConfig,
    /// Test hook: artificial delay per batch execution, to provoke
    /// backpressure and deadline expiry deterministically in tests.
    pub worker_delay: Option<Duration>,
    /// Test hook: panic inside batch execution when the global batch
    /// sequence number reaches this value — exactly once per server, on
    /// whichever worker draws that batch. The panic is caught; every item
    /// of the batch is answered `error`, the worker's scratch is replaced
    /// and serving continues (fault-injection conformance, DESIGN.md §11).
    pub worker_panic_at_batch: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 1024,
            workers: nvwa_sim::par::current_threads(),
            batch: BatcherConfig::default(),
            backend: BackendKind::Software,
            aligner: AlignerConfig::default(),
            default_deadline: None,
            long_deadline: None,
            classify_deadline: None,
            registry_budget: None,
            trace: false,
            obs: ObservabilityConfig::default(),
            worker_delay: None,
            worker_panic_at_batch: None,
        }
    }
}

/// A request travelling through the queues: the decoded read plus the
/// connection to answer on and its tracing identity.
struct PendingRead {
    conn: Arc<ReactorConn>,
    id: u64,
    codes: Vec<u8>,
    /// Trace id minted at admission (unique per admitted request).
    trace_id: u64,
    /// Admission time as nanoseconds since the metrics epoch — the span
    /// chain's `t0_ns`.
    t0_ns: u64,
    /// When the batcher popped this item off the admission queue (the
    /// queue→fill stage boundary). Always set before a worker sees it.
    picked_at: Option<Instant>,
    /// Quota slot held until the response is written (RAII, panic-safe).
    _guard: Option<AdmitGuard>,
}

/// One (tenant, shard) execution pipeline: admission queue → batcher →
/// batch queue → workers, all over one shared reference index.
pub(crate) struct Engine {
    /// Owning tenant (index into `Shared::tenants`).
    tenant: usize,
    /// Shard within the tenant.
    shard: usize,
    admission: BoundedQueue<BatchItem<PendingRead>>,
    batches: BoundedQueue<Batch<PendingRead>>,
    index: Arc<ReferenceIndex>,
    /// Minimizer index over the same reference — the long-read and
    /// classify execution paths (shared per tenant across its shards).
    long: Arc<LongReadIndex>,
    /// Killed: routing skips it, queued work still completes.
    dead: AtomicBool,
}

/// One row of the tenant table: what routing, admission and the `stats`
/// reply know about a tenant.
struct TenantRoute {
    name: String,
    /// Engine indices, one per shard.
    engines: Vec<usize>,
    quota: Option<u64>,
    /// Concurrently admitted requests (shared with [`AdmitGuard`]s).
    in_flight: Arc<AtomicU64>,
}

pub(crate) struct Shared {
    engines: Vec<Engine>,
    /// The tenant table; index 0 is the default route.
    tenants: Vec<TenantRoute>,
    pub(crate) metrics: Arc<ServeMetrics>,
    config: ServerConfig,
    /// Global batch sequence number, drawn by workers as they start a
    /// batch (the trigger coordinate of `worker_panic_at_batch`).
    batch_seq: AtomicU64,
    /// Trace-id mint: drawn per align request at admission. Ids taken by
    /// requests that are then shed are burned, so span accounting counts
    /// chains against `serve.requests_admitted`, not id density.
    trace_seq: AtomicU64,
    /// Accept-order connection id mint.
    pub(crate) conn_seq: AtomicU64,
    /// Stop admitting: the reactor sheds and stops accepting.
    pub(crate) draining: AtomicBool,
    /// Everything drained: the reactor flushes and exits.
    pub(crate) closed: AtomicBool,
    /// A client sent `shutdown`; the owner should call [`Server::shutdown`].
    shutdown_requested: AtomicBool,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaves threads running; always shut down explicitly.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// The reactor thread.
    frontend: Option<std::thread::JoinHandle<()>>,
    batchers: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts a server over `tenants`, each getting `shards`
    /// engines. The first tenant is the default route: requests without
    /// a `tenant` field go there, so a [`Tenant::single`] server behaves
    /// exactly as a pre-tenant one.
    ///
    /// # Errors
    ///
    /// Returns the bind error; `InvalidInput` for an empty tenant list, a
    /// duplicate tenant name, indexes that together exceed
    /// [`ServerConfig::registry_budget`], a zero
    /// [`ServerConfig::queue_capacity`] or a [`ServerConfig::batch`] that
    /// [`Batcher::new`](crate::batcher::Batcher::new) would panic on;
    /// `Unsupported` off unix (the reactor needs `poll(2)`).
    pub fn start(tenants: Vec<Tenant>, config: ServerConfig) -> std::io::Result<Server> {
        let refuse = |why: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        // Values the constructors in `launch` panic on — the queue after
        // the bind, the batcher on its own thread, which leaves a listener
        // that accepts connections and answers nothing.
        if config.queue_capacity == 0 {
            return refuse("queue capacity must be positive".to_string());
        }
        if let Err(why) = config.batch.validate() {
            return refuse(format!("batch config: {why}"));
        }
        if tenants.is_empty() {
            return refuse("server needs at least one tenant".to_string());
        }
        for (i, tenant) in tenants.iter().enumerate() {
            if tenants[..i].iter().any(|t| t.name == tenant.name) {
                return refuse(format!("tenant {:?} already registered", tenant.name));
            }
        }
        // Engines pin their index for the life of the server, so the
        // budget can only mean something here, before anything is bound.
        let need: usize = tenants.iter().map(|t| t.index.heap_bytes()).sum();
        if let Some(budget) = config.registry_budget.filter(|&budget| need > budget) {
            return refuse(format!(
                "{} tenant(s) need {need} index bytes but the registry budget is {budget} bytes",
                tenants.len()
            ));
        }
        Server::launch(config, tenants)
    }

    #[cfg(not(unix))]
    fn launch(_config: ServerConfig, _tenants: Vec<Tenant>) -> std::io::Result<Server> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the reactor frontend needs poll(2)",
        ))
    }

    #[cfg(unix)]
    fn launch(mut config: ServerConfig, tenants: Vec<Tenant>) -> std::io::Result<Server> {
        // Every serving deployment accepts all three request modes: give
        // long-read and classify traffic their dedicated bins (and class
        // knobs) before anything derives the bin geometry.
        config.batch.ensure_mode_bins();
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers_per_engine = config.workers.max(1);
        let engine_count: usize = tenants.iter().map(|t| t.shards.max(1)).sum();
        let metrics = Arc::new(ServeMetrics::new(
            config.queue_capacity,
            workers_per_engine * engine_count,
            config.batch.bins(),
            config.trace,
            &config.obs,
        ));
        metrics.set_bin_modes(
            (0..config.batch.bins())
                .map(|b| config.batch.class_of_bin(b))
                .collect(),
        );
        let mut engines = Vec::with_capacity(engine_count);
        let mut routes = Vec::with_capacity(tenants.len());
        for (t, init) in tenants.into_iter().enumerate() {
            let shards = init.shards.max(1);
            metrics.register_tenant(&init.name, shards);
            // One minimizer index per tenant, shared by its shards: the
            // long-read fill and classify screening run over the same
            // reference the short path uses.
            let long = Arc::new(LongReadIndex::build(
                init.index.flat().to_vec(),
                MinimizerParams::default(),
            ));
            let mut engine_ids = Vec::with_capacity(shards);
            for shard in 0..shards {
                engine_ids.push(engines.len());
                engines.push(Engine {
                    tenant: t,
                    shard,
                    admission: BoundedQueue::new(config.queue_capacity),
                    // Room for one in-flight batch per worker plus a small
                    // backlog; when workers fall behind, the batcher blocks
                    // here, the admission queue fills, and the edge sheds —
                    // bounded end to end.
                    batches: BoundedQueue::new(workers_per_engine * 2),
                    index: Arc::clone(&init.index),
                    long: Arc::clone(&long),
                    dead: AtomicBool::new(false),
                });
            }
            routes.push(TenantRoute {
                name: init.name,
                engines: engine_ids,
                quota: init.quota,
                in_flight: Arc::new(AtomicU64::new(0)),
            });
        }
        let shared = Arc::new(Shared {
            engines,
            tenants: routes,
            metrics,
            config,
            batch_seq: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
        });
        let frontend = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || crate::reactor::reactor_loop(listener, shared))
        };
        let batchers = (0..shared.engines.len())
            .map(|e| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || batcher_loop(shared, e))
            })
            .collect();
        let mut worker_handles = Vec::with_capacity(shared.engines.len() * workers_per_engine);
        let mut worker_id = 0usize;
        for e in 0..shared.engines.len() {
            for _ in 0..workers_per_engine {
                let shared = Arc::clone(&shared);
                shared.metrics.name_worker(worker_id);
                let id = worker_id;
                worker_handles.push(std::thread::spawn(move || worker_loop(shared, e, id)));
                worker_id += 1;
            }
        }
        Ok(Server {
            shared,
            local_addr,
            frontend: Some(frontend),
            batchers,
            workers: worker_handles,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The metrics hub (live; snapshot any time).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Whether a client requested shutdown via the protocol.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Kills one shard of a tenant (fault injection): its admission queue
    /// closes — queued requests still batch, execute and answer — and
    /// routing immediately steers new requests to the tenant's surviving
    /// shards (or sheds when none remain). Other tenants are untouched.
    /// Returns `false` for unknown tenants/shards or a shard already dead.
    pub fn kill_shard(&self, tenant: &str, shard: usize) -> bool {
        let Some((t, route)) = self
            .shared
            .tenants
            .iter()
            .enumerate()
            .find(|(_, r)| r.name == tenant)
        else {
            return false;
        };
        let Some(&engine_id) = route.engines.get(shard) else {
            return false;
        };
        let engine = &self.shared.engines[engine_id];
        if engine.dead.swap(true, Ordering::SeqCst) {
            return false;
        }
        engine.admission.close();
        self.shared.metrics.shard_dead(t, shard);
        true
    }

    /// Graceful drain: stop admission, flush every bin, execute and answer
    /// every formed batch, join all threads. Returns the metrics hub.
    pub fn shutdown(mut self) -> Arc<ServeMetrics> {
        self.shared.draining.store(true, Ordering::SeqCst);
        for engine in &self.shared.engines {
            engine.admission.close();
        }
        for h in self.batchers.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.closed.store(true, Ordering::SeqCst);
        if let Some(h) = self.frontend.take() {
            let _ = h.join();
        }
        // The hub outlives the server so callers can snapshot post-drain.
        Arc::clone(&self.shared.metrics)
    }
}

/// Enqueues one response; a connection that already died is a counted write error.
fn answer(shared: &Shared, sink: &ReactorConn, doc: &JsonValue) {
    if sink.send(doc).is_err() {
        shared.metrics.write_error();
    }
}

/// Decodes and executes one request document (called by the reactor
/// thread for every complete frame).
pub(crate) fn dispatch_request(shared: &Arc<Shared>, sink: &Arc<ReactorConn>, doc: &JsonValue) {
    let request = match Request::decode(doc) {
        Ok(r) => r,
        Err(msg) => {
            shared.metrics.protocol_error();
            let id = doc.get("id").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
            let resp = AlignResponse::failure(id, Status::Error, &msg);
            answer(shared, sink, &resp.encode());
            return;
        }
    };
    match request {
        Request::Align {
            id,
            codes,
            mode,
            deadline_ms,
            tenant,
            region,
        } => handle_align(
            shared,
            sink,
            id,
            codes,
            mode,
            deadline_ms,
            tenant.as_deref(),
            region,
        ),
        Request::Stats => {
            let meta = SnapshotMeta::collect(nvwa_sim::par::current_threads());
            let mut stats = shared.metrics.stats_response(&meta);
            if let JsonValue::Obj(pairs) = &mut stats {
                pairs.push(("registry".to_string(), registry_json(shared)));
            }
            answer(shared, sink, &stats);
        }
        Request::Flight => {
            let dump = dump_flight(shared, "explicit");
            answer(shared, sink, &dump);
        }
        Request::Shutdown => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            let ack = JsonValue::obj(vec![
                ("kind", JsonValue::Str("shutdown".to_string())),
                ("ok", JsonValue::Bool(true)),
            ]);
            answer(shared, sink, &ack);
        }
    }
}

/// The `registry` section of a `stats` reply, read from the tenant table
/// routing uses: per tenant its shards, quota, live in-flight count and
/// the heap bytes of the index its engines hold.
fn registry_json(shared: &Shared) -> JsonValue {
    let num = |n: u64| JsonValue::Num(n as f64);
    let mut used = 0u64;
    let tenants = shared
        .tenants
        .iter()
        .map(|route| {
            let mem = shared.engines[route.engines[0]].index.heap_bytes() as u64;
            used += mem;
            JsonValue::obj(vec![
                ("name", JsonValue::Str(route.name.clone())),
                ("shards", num(route.engines.len() as u64)),
                ("mem_bytes", num(mem)),
                ("in_flight", num(route.in_flight.load(Ordering::Acquire))),
                ("quota", route.quota.map_or(JsonValue::Null, num)),
            ])
        })
        .collect();
    let budget = shared.config.registry_budget;
    JsonValue::obj(vec![
        ("mem_used_bytes", num(used)),
        (
            "mem_budget_bytes",
            budget.map_or(JsonValue::Null, |b| num(b as u64)),
        ),
        ("tenants", JsonValue::Arr(tenants)),
    ])
}

#[allow(clippy::too_many_arguments)]
fn handle_align(
    shared: &Arc<Shared>,
    sink: &Arc<ReactorConn>,
    id: u64,
    codes: Vec<u8>,
    mode: Mode,
    deadline_ms: Option<u64>,
    tenant: Option<&str>,
    region: Option<u64>,
) {
    if shared.draining.load(Ordering::Relaxed) {
        shed(shared, sink, id, "server draining", None);
        return;
    }
    // Tenant resolution: absent → the default (first) tenant, so
    // pre-tenant clients keep working; unknown names are a client error.
    let tenant_idx = match tenant {
        None => 0,
        Some(name) => match shared.tenants.iter().position(|t| t.name == name) {
            Some(i) => i,
            None => {
                shared.metrics.protocol_error();
                let resp =
                    AlignResponse::failure(id, Status::Error, &format!("unknown tenant {name:?}"));
                answer(shared, sink, &resp.encode());
                return;
            }
        },
    };
    let route = &shared.tenants[tenant_idx];
    // Quota first: a tenant over its admission cap is refused before any
    // queue is touched, with a status its clients can tell from global
    // overload. The guard rides in the PendingRead; Drop releases the slot
    // exactly once on every path (response, deadline, even worker panic).
    let Some(guard) = try_admit_counted(&route.in_flight, route.quota) else {
        shared.metrics.quota_shed(tenant_idx);
        shared.metrics.flight_event(
            FlightEventKind::Quota,
            id,
            sink.conn_id(),
            route.quota.unwrap_or(0),
        );
        let resp = AlignResponse::failure(
            id,
            Status::Quota,
            &format!(
                "tenant {:?} admission quota ({}) exhausted",
                route.name,
                route.quota.unwrap_or(0)
            ),
        );
        answer(shared, sink, &resp.encode());
        return;
    };
    // Deterministic shard routing: the client's region hint (or the read
    // itself) hashes to a start shard; dead shards are probed past.
    let hash = region_hash(region, &codes);
    let live = |s: usize| {
        !shared.engines[route.engines[s]]
            .dead
            .load(Ordering::Relaxed)
    };
    let Some(shard) = route_shard(hash, route.engines.len(), live) else {
        shed(
            shared,
            sink,
            id,
            &format!("tenant {:?}: no live shard", route.name),
            Some((tenant_idx, None)),
        );
        return;
    };
    let engine = &shared.engines[route.engines[shard]];
    let now = Instant::now();
    let t0_ns = shared.metrics.now_ns();
    let trace_id = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
    // Per-mode default deadlines: a long-read GACT fill or an all-tenant
    // classify screen gets its own budget when configured.
    let mode_default = match mode {
        Mode::Short => None,
        Mode::Long => shared.config.long_deadline,
        Mode::Classify => shared.config.classify_deadline,
    }
    .or(shared.config.default_deadline);
    // `Instant + Duration` panics on overflow and `deadline_ms` is the
    // client's number: a deadline too far off to represent never expires.
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(mode_default)
        .and_then(|d| now.checked_add(d));
    let len = codes.len();
    let item = BatchItem {
        payload: PendingRead {
            conn: Arc::clone(sink),
            id,
            codes,
            trace_id,
            t0_ns,
            picked_at: None,
            _guard: Some(guard),
        },
        len,
        mode,
        admitted_at: now,
        deadline,
    };
    match engine.admission.try_push(item) {
        Ok(()) => {
            let depth = engine.admission.depth();
            // The reactor thread both admits and answers `stats`, so no
            // in-band scrape lands between the push and this count.
            shared.metrics.admitted(depth, mode, tenant_idx, shard);
            shared.metrics.flight_event(
                FlightEventKind::Admit,
                trace_id,
                sink.conn_id(),
                depth as u64,
            );
        }
        Err(PushError::Full(_)) => shed(
            shared,
            sink,
            id,
            "admission queue full",
            Some((tenant_idx, Some(shard))),
        ),
        Err(PushError::Closed(_)) => {
            // The engine was killed between routing and push (or the
            // server started draining) — same answer either way.
            let why = if engine.dead.load(Ordering::Relaxed) {
                format!("tenant {:?}: shard {shard} down", route.name)
            } else {
                "server draining".to_string()
            };
            shed(shared, sink, id, &why, Some((tenant_idx, Some(shard))));
        }
    }
}

fn shed(
    shared: &Shared,
    sink: &ReactorConn,
    id: u64,
    why: &str,
    tenant_shard: Option<(usize, Option<usize>)>,
) {
    shared
        .metrics
        .flight_event(FlightEventKind::Shed, id, sink.conn_id(), 0);
    if shared.metrics.shed(tenant_shard) {
        // The windowed shed count crossed the storm threshold: freeze the
        // lead-up by dumping the flight recorder (once per server run).
        dump_flight(shared, "shed_storm");
    }
    let resp = AlignResponse::failure(id, Status::Shed, why);
    answer(shared, sink, &resp.encode());
}

/// Dumps the flight recorder, writing `flight_<reason>.json` when the
/// config names a dump directory, and returns the dump document.
fn dump_flight(shared: &Shared, reason: &str) -> JsonValue {
    let dump = shared.metrics.flight().dump_json(reason);
    if let Some(dir) = &shared.config.obs.flight_dump {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("flight_{reason}.json"));
        if std::fs::write(&path, dump.to_string_pretty()).is_err() {
            shared.metrics.write_error();
        }
    }
    dump
}

/// Integer nanoseconds from `a` to `b` (0 if the clock stepped back).
fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

fn batcher_loop(shared: Arc<Shared>, engine_id: usize) {
    let engine = &shared.engines[engine_id];
    let mut batcher: Batcher<PendingRead> = Batcher::new(shared.config.batch.clone());
    loop {
        let now = Instant::now();
        let wait = batcher
            .next_flush_at()
            .map(|at| at.saturating_duration_since(now))
            .unwrap_or(POLL_INTERVAL)
            .min(POLL_INTERVAL);
        match engine.admission.pop_wait(Some(wait)) {
            Popped::Item(mut item) => {
                // The queue→fill stage boundary: the item leaves the
                // admission queue and starts waiting for its bin to fill.
                item.payload.picked_at = Some(Instant::now());
                if let Some(batch) = batcher.offer(item, Instant::now()) {
                    ship(&shared, engine, batch);
                }
            }
            Popped::TimedOut => {}
            Popped::Closed => {
                for batch in batcher.drain(Instant::now()) {
                    ship(&shared, engine, batch);
                }
                engine.batches.close();
                return;
            }
        }
        for batch in batcher.poll(Instant::now()) {
            ship(&shared, engine, batch);
        }
    }
}

fn ship(shared: &Shared, engine: &Engine, batch: Batch<PendingRead>) {
    // Expired requests are answered here and never executed: their span
    // chain is queue → fill → write, with no align stage.
    if !batch.expired.is_empty() {
        shared.metrics.deadline_expired(batch.expired.len() as u64);
        shared.metrics.flight_event(
            FlightEventKind::Deadline,
            batch.expired.len() as u64,
            batch.bin as u64,
            0,
        );
        for item in &batch.expired {
            let resp = AlignResponse::failure(
                item.payload.id,
                Status::Deadline,
                "deadline expired while queued",
            );
            respond_and_trace(
                shared,
                engine,
                item,
                batch.bin,
                Outcome::Deadline,
                None,
                &resp,
            );
        }
    }
    if batch.items.is_empty() {
        return;
    }
    shared
        .metrics
        .batch_formed(batch.reason, batch.items.len(), engine.admission.depth());
    // push_wait blocks when all workers are busy — backpressure propagates
    // backwards to the admission queue, whose edge sheds. The queue is
    // closed only by this thread (after this loop), so the push succeeds.
    if engine.batches.push_wait(batch).is_err() {
        unreachable!("batch queue closed while the batcher is live");
    }
}

fn worker_loop(shared: Arc<Shared>, engine_id: usize, worker: usize) {
    let engine = &shared.engines[engine_id];
    // Per-worker alignment scratch: buffers (and the seeding occ-block
    // cache) live for the worker's whole lifetime, so the steady-state
    // batch path allocates nothing per read.
    let mut scratch = AlignScratch::new();
    loop {
        let batch = match engine.batches.pop_wait(None) {
            Popped::Item(b) => b,
            Popped::Closed => return,
            Popped::TimedOut => continue,
        };
        execute_batch(&shared, engine, worker, batch, &mut scratch);
        let (hits, lookups) = scratch.seed_cache_stats();
        shared.metrics.seed_cache(hits, lookups);
        scratch.reset_seed_cache_stats();
    }
}

/// Answers one item and records its complete span chain. Stage durations
/// are integer nanoseconds between consecutive timestamps of one
/// monotonic sequence (admitted → picked → exec start → exec done →
/// written), so the chain is contiguous and sums exactly to the
/// end-to-end latency by construction. `exec` is the batch's execution
/// interval; `None` (deadline expiry: answered at batch formation, never
/// executed) leaves the align stage out of the chain.
fn respond_and_trace(
    shared: &Shared,
    engine: &Engine,
    item: &BatchItem<PendingRead>,
    bin: usize,
    outcome: Outcome,
    exec: Option<(Instant, Instant)>,
    resp: &AlignResponse,
) {
    let write_start = exec.map_or_else(Instant::now, |(_, done)| done);
    answer(shared, &item.payload.conn, &resp.encode());
    let written = Instant::now();
    let picked = item.payload.picked_at.unwrap_or(item.admitted_at);
    let queue = (Stage::Queue, ns_between(item.admitted_at, picked));
    let write = (Stage::Write, ns_between(write_start, written));
    let chain = |stages: &[(Stage, u64)]| {
        RequestSpans::chain(
            item.payload.trace_id,
            item.payload.conn.conn_id(),
            item.payload.id,
            bin,
            outcome,
            item.payload.t0_ns,
            stages,
        )
    };
    let chain = match exec {
        Some((start, done)) => chain(&[
            queue,
            (Stage::Fill, ns_between(picked, start)),
            (Stage::Align, ns_between(start, done)),
            write,
        ]),
        None => chain(&[queue, (Stage::Fill, ns_between(picked, write_start)), write]),
    };
    shared
        .metrics
        .request_done(chain, engine.tenant, engine.shard);
}

/// Executes one batch and answers every item: the one skeleton all three
/// request modes share. Batches are mode-homogeneous by construction
/// (`bin_for` separates modes before lengths), so the per-mode work is a
/// plain per-batch `match`; everything observable around it — timing,
/// flight events, panic containment, span chains, the Chrome-trace span —
/// lives here once.
fn execute_batch(
    shared: &Shared,
    engine: &Engine,
    worker: usize,
    batch: Batch<PendingRead>,
    scratch: &mut AlignScratch,
) {
    let start = Instant::now();
    let start_us = shared.metrics.now_us();
    if let Some(delay) = shared.config.worker_delay {
        std::thread::sleep(delay);
    }
    let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    let batch_size = batch.items.len() as u64;
    shared.metrics.flight_event(
        FlightEventKind::BatchStart,
        seq,
        batch.bin as u64,
        batch_size,
    );
    // A panicking batch must never take a worker (or an admitted request)
    // with it: catch it, answer every item `error` and keep serving.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if shared.config.worker_panic_at_batch == Some(seq) {
            panic!("injected fault: worker panic at batch {seq}");
        }
        match batch.mode {
            Mode::Short => run_short(shared, engine, &batch.items, scratch),
            Mode::Long => (run_long(engine, &batch.items), None),
            Mode::Classify => (run_classify(shared, engine, &batch.items), None),
        }
    }));
    let exec_done = Instant::now();
    let panicked = result.is_err();
    let (answers, sim_cycles) = result.unwrap_or_else(|_| {
        // The scratch's buffers may be mid-update — replace it before
        // answering (the panic is exactly the incident the flight
        // recorder exists for).
        *scratch = AlignScratch::new();
        shared.metrics.worker_panic();
        shared
            .metrics
            .flight_event(FlightEventKind::Panic, seq, worker as u64, 0);
        let why = "internal error: batch execution panicked";
        let error = |item: &BatchItem<PendingRead>| {
            let resp = AlignResponse::failure(item.payload.id, Status::Error, why);
            (resp, Outcome::Error)
        };
        (batch.items.iter().map(error).collect(), None)
    });
    if !panicked {
        // Recorded before the responses go out: a client that has seen
        // every response (quiescence) is then guaranteed a ring with no
        // dangling batch_start except a panicked batch's.
        shared.metrics.flight_event(
            FlightEventKind::BatchDone,
            seq,
            batch.bin as u64,
            batch_size,
        );
    }
    let exec = Some((start, exec_done));
    for (item, (resp, outcome)) in batch.items.iter().zip(&answers) {
        debug_assert_eq!(item.payload.id, resp.id);
        respond_and_trace(shared, engine, item, batch.bin, *outcome, exec, resp);
    }
    if panicked {
        dump_flight(shared, "worker_panic");
        return;
    }
    let label = match batch.mode {
        Mode::Short => "",
        Mode::Long => "long ",
        Mode::Classify => "classify ",
    };
    let dur_us = exec_done.duration_since(start).as_secs_f64() * 1e6;
    shared.metrics.batch_executed(
        worker,
        &format!("batch {label}bin{} n{}", batch.bin, batch_size),
        start_us,
        dur_us,
        sim_cycles,
    );
}

/// The short-read path: the offline seed-and-extend aligner over the
/// engine's FM-index (plus the accelerator replay under
/// hardware-in-the-loop, whose cycle count every response carries).
fn run_short(
    shared: &Shared,
    engine: &Engine,
    items: &[BatchItem<PendingRead>],
    scratch: &mut AlignScratch,
) -> (Vec<(AlignResponse, Outcome)>, Option<u64>) {
    let pairs: Vec<(u64, Vec<u8>)> = items
        .iter()
        .map(|item| (item.payload.id, item.payload.codes.clone()))
        .collect();
    let outcome = execute_batch_with(
        &engine.index,
        &shared.config.aligner,
        &shared.config.backend,
        &pairs,
        scratch,
    );
    let answers = outcome
        .results
        .iter()
        .map(|(id, alignment)| {
            let mut resp = AlignResponse::ok(*id, alignment.as_ref(), items.len() as u64);
            resp.sim_cycles = outcome.sim_cycles;
            (resp, Outcome::Ok)
        })
        .collect();
    (answers, outcome.sim_cycles)
}

/// The long-read path: minimizer seeding → chaining → GACT tile fill over
/// the tenant's minimizer index. A read whose chains all die is answered
/// with the explicit `unmapped` status — completed work, not a rejection.
fn run_long(engine: &Engine, items: &[BatchItem<PendingRead>]) -> Vec<(AlignResponse, Outcome)> {
    let aligner = LongReadAligner::new(&engine.long, LongReadConfig::default());
    let batch_size = items.len() as u64;
    items
        .iter()
        .map(|item| match aligner.align(&item.payload.codes) {
            Some(a) => (
                AlignResponse::ok_wire(
                    item.payload.id,
                    WireAlignment {
                        pos: a.ref_pos,
                        is_rc: a.is_rc,
                        score: a.score,
                        cigar: a.cigar.to_string(),
                        // Evidence proxy: one point per chained anchor,
                        // saturating at the conventional cap.
                        mapq: a.anchors.min(60) as u8,
                    },
                    batch_size,
                ),
                Outcome::Ok,
            ),
            None => (
                AlignResponse::unmapped(item.payload.id, batch_size),
                Outcome::Unmapped,
            ),
        })
        .collect()
}

/// The metagenomic classify path: per-tenant minimizer hit scores across
/// the whole tenant table, answered as an `ok` response with a `classify`
/// section.
fn run_classify(
    shared: &Shared,
    engine: &Engine,
    items: &[BatchItem<PendingRead>],
) -> Vec<(AlignResponse, Outcome)> {
    items
        .iter()
        .map(|item| {
            let result = classify_read(shared, engine, &item.payload.codes);
            let resp = AlignResponse::classified(item.payload.id, result, items.len() as u64);
            (resp, Outcome::Ok)
        })
        .collect()
}

/// Screens one read's minimizers across every tenant's index. Tenants
/// with no live shard are reported in `missing` (with `partial` set) —
/// a killed shard degrades the answer *visibly*, never by silently
/// truncating the score map.
fn classify_read(shared: &Shared, engine: &Engine, codes: &[u8]) -> ClassifyResult {
    let params = *engine.long.minimizers().params();
    // The minimizer hash is orientation-sensitive, so screen both strands
    // — the same reason the long-read seeder seeds both. A
    // reverse-complement read must score its origin tenant, not zero.
    let rc: Vec<u8> = codes.iter().rev().map(|&c| 3 - c).collect();
    let mut mins = minimizers(codes, &params);
    mins.extend(minimizers(&rc, &params));
    let mut tenants = Vec::new();
    let mut missing = Vec::new();
    for route in &shared.tenants {
        let live = route
            .engines
            .iter()
            .any(|&e| !shared.engines[e].dead.load(Ordering::Relaxed));
        if !live {
            missing.push(route.name.clone());
            continue;
        }
        let long = &shared.engines[route.engines[0]].long;
        let hits = mins
            .iter()
            .filter(|m| !long.minimizers().lookup(m.hash, &mut NullTrace).is_empty())
            .count() as u64;
        tenants.push(TenantScore {
            tenant: route.name.clone(),
            hits,
            minimizers: mins.len() as u64,
        });
    }
    let partial = !missing.is_empty();
    ClassifyResult {
        tenants,
        missing,
        partial,
    }
}
