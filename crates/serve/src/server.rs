//! The batched alignment server.
//!
//! Thread topology (all std, one `Arc<Shared>` of dispatchers + metrics):
//!
//! ```text
//! reactor ──▶ route (tenant, shard) ──▶ dispatcher ◀── pull ── workers (pool)
//!    ▲         admission.rs               (bounded; bins      respond.rs │
//!    │                                     + full batches)               │
//!    └──────────────── responses (per-conn buffer) ◀─────────────────────┘
//! ```
//!
//! * **One door**: the poll-based reactor (`reactor.rs`, one thread for
//!   every socket) is the only connection frontend. It reassembles frames
//!   and calls `handle_request` inline; workers answer by enqueueing on
//!   the connection's `ReactorConn` output buffer, which the reactor
//!   thread flushes — no other thread touches a client socket.
//! * **One tenant table**: [`Server::start`] takes the server's
//!   [`Tenant`]s (a single-index server is one tenant named `default`)
//!   and every request, `stats` reply and `kill_shard` resolves against
//!   the table built from them. Each (tenant, shard) pair owns an
//!   *engine* — its own dispatcher and worker pool over a cheap clone of
//!   the tenant's `Arc<ReferenceIndex>`. Requests route
//!   deterministically by tenant name and region hash; a tenant's quota
//!   sheds with a distinct `quota` status before any queue is touched,
//!   and a killed shard degrades only its own traffic (routing probes
//!   past dead shards).
//! * **Dispatch is work-conserving and bounded** (`dispatch.rs`): a
//!   worker takes work the moment it is free, so no request waits while
//!   one is idle. A dispatcher holds at most `queue_capacity` requests no
//!   worker has taken; past that the frontend answers `shed` at once —
//!   memory is bounded by `engines × (queue_capacity + workers ×
//!   max_batch)` requests no matter how fast clients push.
//! * **Deadlines** cover the queueing phase: a request that is still
//!   waiting when its deadline passes is answered `deadline` when a
//!   worker takes its batch and never executed. Once taken, it runs to
//!   completion.
//! * **Graceful drain**: shutdown stops admission (new requests shed with
//!   `draining`), flushes every bin, lets the workers finish everything
//!   that was waiting, answers it all, then joins all threads — an
//!   admitted request is never dropped.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvwa_align::long_read::LongReadIndex;
use nvwa_align::pipeline::ReferenceIndex;
use nvwa_index::minimizer::MinimizerParams;
#[cfg(not(unix))]
use nvwa_telemetry::JsonValue;

use crate::backend::BackendKind;
use crate::batcher::BatcherConfig;
use crate::dispatch::Dispatcher;
use crate::metrics::{Event, ServeMetrics};
#[cfg(unix)]
pub(crate) use crate::reactor::ReactorConn;
use crate::registry::{AdmitGuard, Tenant};

/// Off unix there is no `poll(2)`: [`Server::start`] refuses to launch, so
/// no connection — and no value of this type — ever exists.
#[cfg(not(unix))]
pub(crate) enum ReactorConn {}

#[cfg(not(unix))]
impl ReactorConn {
    pub(crate) fn send(&self, _doc: &JsonValue) -> std::io::Result<()> {
        match *self {}
    }

    pub(crate) fn conn_id(&self) -> u64 {
        match *self {}
    }
}

/// Server parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Admitted requests an engine holds that no worker has taken yet —
    /// the backpressure bound.
    pub queue_capacity: usize,
    /// Worker threads per engine executing batches.
    pub workers: usize,
    /// Batching policy, fixed at launch.
    pub batch: BatcherConfig,
    /// Batch execution backend.
    pub backend: BackendKind,
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
    /// Directory a worker panic freezes the flight recorder into
    /// (`flight_worker_panic.json`). `None` writes no file; the `flight`
    /// wire request still works.
    pub flight_dump: Option<PathBuf>,
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
            default_deadline: None,
            long_deadline: None,
            classify_deadline: None,
            registry_budget: None,
            trace: false,
            flight_dump: None,
            worker_delay: None,
            worker_panic_at_batch: None,
        }
    }
}

/// A request waiting in a dispatcher or riding in a batch: the decoded
/// read plus the connection to answer on and its tracing identity.
pub(crate) struct PendingRead {
    pub(crate) conn: Arc<ReactorConn>,
    pub(crate) id: u64,
    pub(crate) codes: Vec<u8>,
    /// Trace id minted at admission (unique per admitted request).
    pub(crate) trace_id: u64,
    /// Quota slot held until the response is written (RAII, panic-safe).
    pub(crate) _guard: Option<AdmitGuard>,
}

/// One (tenant, shard) execution pipeline: a dispatcher and the workers
/// pulling from it, all over one shared reference index.
pub(crate) struct Engine {
    /// Owning tenant (index into `Shared::tenants`).
    pub(crate) tenant: usize,
    /// Shard within the tenant.
    pub(crate) shard: usize,
    pub(crate) dispatcher: Dispatcher<PendingRead>,
    pub(crate) index: Arc<ReferenceIndex>,
    /// Minimizer index over the same reference — the long-read and
    /// classify execution paths (shared per tenant across its shards).
    pub(crate) long: Arc<LongReadIndex>,
    /// Killed: routing skips it, queued work still completes.
    pub(crate) dead: AtomicBool,
}

/// One row of the tenant table: what routing, admission and the `stats`
/// reply know about a tenant.
pub(crate) struct TenantRoute {
    pub(crate) name: String,
    /// Engine indices, one per shard.
    pub(crate) engines: Vec<usize>,
    pub(crate) quota: Option<u64>,
    /// Concurrently admitted requests (shared with [`AdmitGuard`]s).
    pub(crate) in_flight: Arc<AtomicU64>,
}

pub(crate) struct Shared {
    pub(crate) engines: Vec<Engine>,
    /// The tenant table; index 0 is the default route.
    pub(crate) tenants: Vec<TenantRoute>,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) config: ServerConfig,
    /// Global batch sequence number, drawn by workers as they start a
    /// batch (the trigger coordinate of `worker_panic_at_batch`).
    pub(crate) batch_seq: AtomicU64,
    /// Trace-id mint: drawn per align request at admission. Ids taken by
    /// requests that are then shed are burned, so span accounting counts
    /// chains against `serve.requests_admitted`, not id density.
    pub(crate) trace_seq: AtomicU64,
    /// Accept-order connection id mint.
    pub(crate) conn_seq: AtomicU64,
    /// Stop admitting: the reactor sheds and stops accepting.
    pub(crate) draining: AtomicBool,
    /// Everything drained: the reactor flushes and exits.
    pub(crate) closed: AtomicBool,
    /// A client sent `shutdown`; the owner should call [`Server::shutdown`].
    pub(crate) shutdown_requested: AtomicBool,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaves threads running; always shut down explicitly.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// The reactor thread.
    frontend: Option<std::thread::JoinHandle<()>>,
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
        // Values `launch` would panic on after it has bound, or that
        // would make a server that sheds everything.
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
    fn launch(config: ServerConfig, tenants: Vec<Tenant>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers_per_engine = config.workers.max(1);
        let engine_count: usize = tenants.iter().map(|t| t.shards.max(1)).sum();
        let rows: Vec<(&str, usize)> = tenants
            .iter()
            .map(|t| (t.name.as_str(), t.shards.max(1)))
            .collect();
        let metrics = Arc::new(ServeMetrics::new(
            config.queue_capacity,
            workers_per_engine * engine_count,
            &rows,
            config.trace,
            config.flight_dump.clone(),
        ));
        let mut engines = Vec::with_capacity(engine_count);
        let mut routes = Vec::with_capacity(tenants.len());
        for (t, init) in tenants.into_iter().enumerate() {
            let shards = init.shards.max(1);
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
                    dispatcher: Dispatcher::new(config.batch.clone(), config.queue_capacity),
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
        let workers = (0..shared.engines.len() * workers_per_engine)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    crate::respond::worker_loop(shared, id / workers_per_engine, id)
                })
            })
            .collect();
        Ok(Server {
            shared,
            local_addr,
            frontend: Some(frontend),
            workers,
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

    /// Kills one shard of a tenant (fault injection): its dispatcher
    /// closes — waiting requests still execute and answer — and
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
        engine.dispatcher.close(Instant::now());
        self.shared
            .metrics
            .record(Event::ShardDead { tenant: t, shard });
        true
    }

    /// Graceful drain: stop admission, flush every bin, execute and answer
    /// everything that was waiting, join all threads. Returns the metrics
    /// hub.
    pub fn shutdown(mut self) -> Arc<ServeMetrics> {
        self.shared.draining.store(true, Ordering::SeqCst);
        for engine in &self.shared.engines {
            engine.dispatcher.close(Instant::now());
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
