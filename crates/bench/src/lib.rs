//! Paper-reproduction and artifact-checking binaries.
//!
//! * the [`repro`](../repro/index.html) binary (`cargo run --release -p
//!   nvwa-bench --bin repro [-- <experiment> [--full]]`) prints every table
//!   and figure of the paper as text;
//! * the `validate` binary schema-checks the repo's JSON artifacts.
//!
//! Nothing here times anything: measurement lives in `benchmark/` (see
//! `BENCHMARK.json`). This library crate only hosts what `repro` shares
//! with its tests.

use nvwa_core::experiments::{fig11, fig12, fig13, fig14, fig2, fig5, fig7, fig9, tables, Scale};

/// Parses `--full` from a CLI argument list into a [`Scale`].
pub fn scale_from_args(args: &[String]) -> Scale {
    if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    }
}

/// One `repro` experiment: its name and the driver rendering it as text.
pub type Experiment = (&'static str, fn(Scale) -> String);

/// The experiments the `repro` binary understands, in print order.
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
    fn scale_parsing() {
        assert_eq!(scale_from_args(&[]), Scale::Quick);
        assert_eq!(scale_from_args(&["--full".into()]), Scale::Full);
    }

    #[test]
    fn experiment_list_covers_all_figures() {
        for name in ["fig2", "fig11", "fig14", "table2", "headline"] {
            assert!(EXPERIMENTS.iter().any(|(known, _)| *known == name));
        }
    }
}
