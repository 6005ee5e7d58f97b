//! Experiment drivers: one per table and figure of the paper.
//!
//! Each driver reruns the corresponding experiment on this reproduction's
//! substrates and returns a printable result whose rows/series mirror what
//! the paper plots. [`EXPERIMENTS`] names every driver, and `nvwa repro`
//! prints their results; `EXPERIMENTS.md` records the measured-vs-paper
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
    /// The full evaluation (`nvwa repro --full`).
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

/// One experiment: its name and the driver rendering it as text.
pub type Experiment = (&'static str, fn(Scale) -> String);

/// Every experiment `nvwa repro` understands, in print order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig2", |scale| fig2::run(scale).to_string()),
    ("fig5", |_| fig5::run().to_string()),
    ("fig7", |_| fig7::run().to_string()),
    ("fig9", |_| fig9::run().to_string()),
    ("fig11", |scale| fig11::run(scale).to_string()),
    ("fig12", |scale| fig12::run(scale).to_string()),
    ("fig13", |scale| fig13::run(scale).to_string()),
    ("fig14", |scale| fig14::run(scale).to_string()),
    ("table1", |_| tables::table1().to_string()),
    ("table2", |_| tables::table2().to_string()),
    ("table3", |_| tables::table3()),
    ("headline", |_| tables::headline()),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_list_covers_all_figures() {
        for name in ["fig2", "fig11", "fig14", "table2", "headline"] {
            assert!(EXPERIMENTS.iter().any(|(known, _)| *known == name));
        }
    }
}
