//! Cycle-level telemetry for the NvWa reproduction.
//!
//! The paper's evaluation (Figs. 11–14) is entirely about *where cycles
//! go*: SU/EU idle time, Coordinator scheduling latency, Store-Buffer
//! stalls. This crate provides the always-on, low-overhead observability
//! substrate behind those answers, std-only like the rest of the
//! workspace (DESIGN.md §7):
//!
//! * [`registry`] — a metrics registry with counters, gauges and
//!   log-bucketed histograms (p50/p90/p99). Metrics are pre-registered
//!   into integer handles, so the hot path is a `Vec` index plus an add —
//!   cheap enough to stay enabled in release builds.
//! * [`series`] — bucketed time series accumulating a value's time
//!   integral (the Fig. 12 utilization traces).
//! * [`stall`] — per-unit-pool *stall attribution*: every idle
//!   unit-cycle is tagged with a [`stall::StallCause`], integrated into
//!   per-cause totals and per-cause time series. By construction the
//!   per-cause totals sum exactly to the pool's idle cycles.
//! * [`trace`] — a span recorder emitting Chrome `trace_event` JSON
//!   (loadable in Perfetto / `chrome://tracing`), one track per
//!   SU/EU/Coordinator plus host-side phase tracks.
//! * [`json`] — a minimal JSON value with deterministic serialization and
//!   a parser, used for snapshots, golden tests and schema validation.
//! * [`snapshot`] — the versioned metrics-snapshot file format
//!   (`schema_version` 1) and validators for the repo's JSON artifacts
//!   (metrics snapshots, loadgen reports, Chrome traces).
//! * [`window`] — windowed aggregation: ring-buffered rolling histograms
//!   and rate counters over explicit timestamps, packaged as the
//!   [`window::SloWindow`] the serve path exposes live.
//! * [`spans`] — per-request span chains (queue → align → write)
//!   whose stage durations sum exactly to the end-to-end latency by
//!   construction, plus the bounded [`spans::SpanLog`].

pub mod histogram;
pub mod json;
pub mod registry;
pub mod series;
pub mod snapshot;
pub mod spans;
pub mod stall;
pub mod trace;
pub mod window;

/// Simulation time in clock cycles (mirrors `nvwa_sim::Cycle`; both are
/// `u64`, the alias is repeated here so this crate stays dependency-free).
pub type Cycle = u64;

pub use histogram::Histogram;
pub use json::JsonValue;
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use series::TimeSeries;
pub use snapshot::SnapshotMeta;
pub use spans::{Outcome, RequestSpans, SpanLog, Stage, StageSpan};
pub use stall::{PoolState, StallCause, StallTracker, IDLE_CAUSE_COUNT};
pub use trace::{cycles_to_us, TraceRecorder, PID_ACCELERATOR, PID_HOST};
pub use window::{BinSlo, SloView, SloWindow, WindowConfig};
