//! `nvwa-serve` — a batched alignment serving subsystem.
//!
//! The offline pipeline (`nvwa align`) answers "how fast can we align a
//! corpus"; this crate answers the system question the NvWa paper's
//! hardware scheduler poses one level up: **how do you keep an alignment
//! engine busy when requests arrive one at a time, with deadlines, from
//! many clients?** The design mirrors the paper's Coordinator:
//!
//! * one TCP front door speaking length-prefixed JSON ([`protocol`]): a
//!   single `poll(2)` reactor thread owns every socket, so 10k+ idle
//!   connections cost no threads ([`reactor`]),
//! * bounded admission with explicit load-shedding — backpressure is a
//!   protocol answer (`shed`), never unbounded memory — into a
//!   length-binned batcher ([`batcher`]) that workers pull from the
//!   moment they are free, so short reads never convoy behind long ones
//!   and nothing waits on a timer,
//! * three request modes sharing that wire protocol: seed-and-extend
//!   short reads, minimizer-chain-GACT long reads in dedicated bins with
//!   their own deadlines and batching knobs, and metagenomic
//!   classification screening a read across every tenant
//!   ([`protocol::Mode`]),
//! * a worker pool executing batches bit-identically to the offline
//!   aligner, optionally replaying each batch through the cycle-accurate
//!   accelerator model ([`backend`]),
//! * graceful drain on shutdown — every admitted request is answered
//!   ([`server`]),
//! * one tenant table — named reference indexes served side by side
//!   (a single-index server is one tenant named `default`), a launch-time
//!   memory budget, deterministic shard routing and per-tenant admission
//!   quotas ([`registry`]),
//! * full telemetry: queue-depth gauges, batch/latency histograms,
//!   shed/deadline counters, Chrome-trace spans per batch plus a
//!   per-request span chain for every admitted request ([`metrics`]),
//! * a fixed-capacity flight recorder of recent request and batch
//!   events, dumped on worker panic, shed storms, or demand ([`flight`]),
//! * and a calibrated open/closed-loop load generator that can scrape
//!   live `stats` snapshots mid-run and grade them against SLO targets
//!   ([`loadgen`]).
//!
//! Everything is std-only (DESIGN.md §7): no async runtime, no
//! serialization crates — threads, mutexes, condvars and sockets.

mod admission;
pub mod backend;
pub mod batcher;
mod dispatch;
pub mod flight;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod queue;
#[cfg(unix)]
pub mod reactor;
pub mod registry;
mod respond;
pub mod server;
pub mod signal;

pub use backend::BackendKind;
pub use batcher::BatcherConfig;
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder};
pub use loadgen::{ArrivalMode, LoadReport, LoadgenConfig, TenantRead, TenantReport};
pub use metrics::{ObservabilityConfig, ServeMetrics};
pub use protocol::{AlignResponse, ClassifyResult, Mode, Request, Status, TenantScore};
#[cfg(unix)]
pub use reactor::raise_nofile_limit;
pub use registry::Tenant;
pub use server::{Server, ServerConfig};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The guard out of a `Mutex::lock` / `Condvar::wait*` result, poisoned
/// or not. Every server-side mutex guards counters, queues or byte
/// buffers, and the reactor thread every connection shares takes them on
/// each admission: serving on after one torn update beats not serving.
pub(crate) fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Locks `m`, recovering the guard if a thread panicked while holding it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(m.lock())
}
