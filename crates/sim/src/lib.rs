//! Cycle-accurate simulation kernel for the NvWa reproduction.
//!
//! The paper evaluates NvWa with "a cycle-accurate and execution-driven
//! simulator ... integrated with Ramulator". This crate is the equivalent
//! foundation, built from scratch:
//!
//! * [`event`] — a deterministic event queue with cycle resolution. Units
//!   are busy until a completion event; scheduling decisions happen on the
//!   cycle a unit transitions, which preserves the paper's per-cycle
//!   scheduling semantics without stepping every cycle.
//! * [`hbm`] — the HBM 1.0 model standing in for Ramulator: per-channel
//!   queues with fixed access latency and per-channel service rate, which
//!   yields the contention-dependent, input-sensitive memory timing behind
//!   the paper's Challenge-①.
//! * [`par`] — a deterministic parallel `map` over scoped `std::thread`s,
//!   used by the evaluation harness (workload construction, sweep
//!   fan-out) around the single-threaded simulator core.
//! * [`spm`] — a scratchpad (SPM) model with FIFO residency, used for the
//!   Read SPM prefetcher.
//! * [`power`] — the analytic logic area-power primitive (the CACTI/
//!   Design-Compiler substitute; constants are calibrated in `nvwa-core`).

pub mod event;
pub mod hbm;
pub mod par;
pub mod power;
pub mod spm;

/// Simulation time in clock cycles (the accelerator runs at 1 GHz, so one
/// cycle is 1 ns).
pub type Cycle = u64;

pub use event::EventQueue;
pub use hbm::{Hbm, HbmConfig};
pub use spm::Scratchpad;
