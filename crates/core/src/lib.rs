//! NvWa — the hardware-scheduling sequence-alignment accelerator (HPCA'23).
//!
//! This crate is the paper's primary contribution, reproduced in full:
//!
//! * [`config`] — Table I system configurations (128 SUs, 70 hybrid EUs of
//!   2880 PEs, HBM 1.0) plus test-scale variants and ablation switches.
//! * [`interface`] — the loosely coupled unified interface of Table III
//!   (data + control signals shared by all SU/EU algorithms).
//! * [`seeding`] — the Seeding Scheduler: the One-Cycle Read Allocator with
//!   its PopCount-tree microarchitecture model (Figs. 5–6), the
//!   Read-in-Batch baseline, and the Read SPM prefetcher.
//! * [`extension`] — the Extension Scheduler: the systolic-array latency
//!   model (Formula 3, Figs. 7–8), the Hybrid Units Strategy solver
//!   (Formulas 4–5, Fig. 9) and the Allocate Trigger.
//! * [`coordinator`] — the Coordinator: double-buffered Hits Buffer with
//!   fragmentation handling and the nine-step greedy Hits Allocator
//!   (Fig. 10).
//! * [`units`] — execution-driven SU/EU hardware models fed by real
//!   workload profiles from the software aligner (plus a calibrated
//!   synthetic workload generator for large sweeps).
//! * [`system`] — the full-system cycle-accurate simulator with per-phase
//!   scheduling ablations (HUS / OCRA / HA, Fig. 11).
//! * [`power`] — the analytic area/power model calibrated against Table II.
//! * [`baselines`] — the CPU cost model and the reported comparison points
//!   (GASAL2, ERT+SeedEx, GenAx, GenCache), following the paper's own
//!   reported-data methodology.
//! * [`experiments`] — one driver per table/figure, used by `nvwa repro`
//!   and the repository benchmark.

pub mod baselines;
pub mod config;
pub mod coordinator;
pub mod experiments;
pub mod extension;
pub mod interface;
pub mod power;
pub mod seeding;
pub mod system;
pub mod units;

pub use config::{EuAlgorithm, EuClass, NvwaConfig, SchedulingConfig};
pub use interface::{Hit, UnitStatus};
pub use system::{NvwaSystem, SimOptions, SimReport, SimRun};
