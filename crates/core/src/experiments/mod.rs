//! Experiment drivers: one per table and figure of the paper.
//!
//! Each driver reruns the corresponding experiment on this reproduction's
//! substrates and returns a printable result whose rows/series mirror what
//! the paper plots. The `nvwa-bench` crate's `repro` binary prints every
//! driver's result; `EXPERIMENTS.md` records the measured-vs-paper
//! comparison.
//!
//! | Driver | Paper artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — per-read phase breakdown |
//! | [`fig5`] | Fig. 5/6 — Read-in-Batch vs One-Cycle schedules, PopCount tree |
//! | [`fig7`] | Fig. 7/8 — systolic example and latency-vs-PEs curves |
//! | [`fig9`] | Fig. 9/10 — hybrid-vs-uniform toy and Coordinator walkthrough |
//! | [`fig11`] | Fig. 11 — end-to-end throughput + ablations + headline |
//! | [`fig12`] | Fig. 12 — utilization traces and allocation correctness |
//! | [`fig13`] | Fig. 13 — buffer-depth and interval-count design space |
//! | [`fig14`] | Fig. 14 — multi-species sensitivity (short + long reads) |
//! | [`tables`] | Tables I–III — configuration, area/power, interface |

pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig5;
pub mod fig7;
pub mod fig9;
pub mod tables;

/// How much work an experiment driver should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale runs for tests and CI.
    Quick,
    /// The full evaluation used by the `repro` binary (`--full`).
    Full,
}

impl Scale {
    /// Picks between a quick and a full value.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
