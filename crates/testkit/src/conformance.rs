//! The one-command conformance driver behind `nvwa conformance`: runs the
//! differential oracles ([`crate::diff`], including the bit-parallel
//! extension-kernel family), the simulator invariant checker
//! ([`crate::invariants`]) and the fault-injection matrix
//! ([`crate::faults`]) over a seed list and renders one report.
//!
//! The report text is **bit-deterministic for a fixed configuration**: it
//! contains seeds, case counts and check names, never timings, thread
//! counts or machine state — running under `par::with_threads(1)`, `(2)`
//! or `(8)` must produce identical bytes (pinned by
//! `tests/conformance.rs`).

use std::path::PathBuf;

use nvwa_core::config::NvwaConfig;
use nvwa_core::system::SimOptions;
use nvwa_core::units::workload::SyntheticWorkloadParams;

use crate::{diff, faults, invariants, long_read, tenancy};

/// Which check family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Differential oracles: sw, smem, pipeline, serve-vs-offline.
    Diff,
    /// Bit-parallel banded edit kernel vs DP oracles (its own family so
    /// `--families extension` can run and minimize it in isolation).
    Extension,
    /// Simulator conservation laws over instrumented runs.
    Invariants,
    /// Serve fault-injection plans.
    Faults,
    /// Multi-tenant serving: deterministic shard routing,
    /// per-tenant bit-identity vs the offline aligners, unknown-tenant
    /// rejection ([`crate::tenancy`]).
    Registry,
    /// Seed-chain-fill long-read pipeline vs a wide-banded SW oracle on
    /// the committed window, inside the tile-overlap bound
    /// ([`crate::long_read`]).
    LongRead,
}

impl Family {
    /// All families, in report order.
    pub const ALL: [Family; 6] = [
        Family::Diff,
        Family::Extension,
        Family::Invariants,
        Family::Faults,
        Family::Registry,
        Family::LongRead,
    ];

    /// Stable name (CLI `--families` values, report headers).
    pub fn name(self) -> &'static str {
        match self {
            Family::Diff => "diff",
            Family::Extension => "extension",
            Family::Invariants => "invariants",
            Family::Faults => "faults",
            Family::Registry => "registry",
            Family::LongRead => "long_read",
        }
    }

    /// Parses a `--families` item.
    pub fn parse(s: &str) -> Option<Family> {
        match s.trim() {
            "diff" => Some(Family::Diff),
            "extension" => Some(Family::Extension),
            "invariants" => Some(Family::Invariants),
            "faults" => Some(Family::Faults),
            "registry" => Some(Family::Registry),
            "long_read" => Some(Family::LongRead),
            _ => None,
        }
    }
}

/// Conformance run parameters.
#[derive(Debug, Clone)]
pub struct ConformanceConfig {
    /// Seeds; every family runs once per seed.
    pub seeds: Vec<u64>,
    /// Cases per differential sub-family (sw pairs, smem queries,
    /// pipeline reads).
    pub cases: usize,
    /// Reads through the serve differential (round trips are the
    /// expensive part; CI short profile uses fewer).
    pub serve_reads: usize,
    /// Families to run.
    pub families: Vec<Family>,
    /// Where divergence reproducers are written (`None`: report only).
    pub repro_dir: Option<PathBuf>,
}

impl Default for ConformanceConfig {
    fn default() -> ConformanceConfig {
        ConformanceConfig {
            seeds: vec![1, 2, 3],
            cases: 24,
            serve_reads: 48,
            families: Family::ALL.to_vec(),
            repro_dir: Some(PathBuf::from("tests/golden/repro")),
        }
    }
}

/// The rendered outcome of a conformance run.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// One line per executed check, in deterministic order.
    pub lines: Vec<String>,
    /// Failed checks (`lines` entries starting with `FAIL`).
    pub failures: usize,
    /// Executed checks.
    pub checks: usize,
}

impl ConformanceReport {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    /// The full report text (the bytes pinned by the determinism test).
    pub fn text(&self) -> String {
        let mut out = String::from("nvwa conformance report\n");
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!(
            "result: {} ({} checks, {} failed)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.checks,
            self.failures
        ));
        out
    }
}

/// The simulator configurations the invariant family validates: the small
/// test config, a stall-heavy variant (tiny Store Buffer, small
/// allocation rounds) and the paper-shaped default.
fn invariant_configs() -> Vec<(&'static str, NvwaConfig)> {
    vec![
        ("small_test", NvwaConfig::small_test()),
        (
            "stall_heavy",
            NvwaConfig {
                hits_buffer_depth: 8,
                alloc_batch_size: 4,
                ..NvwaConfig::small_test()
            },
        ),
    ]
}

fn run_invariant_family(seed: u64) -> Result<String, String> {
    let works = SyntheticWorkloadParams {
        reads: 200,
        ..SyntheticWorkloadParams::default()
    }
    .generate(seed);
    let configs = invariant_configs();
    for (name, config) in &configs {
        for trace in [false, true] {
            let run =
                nvwa_core::system::simulate_instrumented(config, &works, &SimOptions { trace });
            let violations = invariants::check_sim_run(&run, config);
            if !violations.is_empty() {
                return Err(format!(
                    "config {name} (trace {trace}): {}",
                    violations.join("; ")
                ));
            }
        }
    }
    Ok(format!(
        "invariants: 200 reads × {} configs × trace on/off, all conservation laws hold",
        configs.len()
    ))
}

/// Runs the configured families over every seed. Never panics on a
/// failing check — failures become `FAIL` report lines so one run
/// surfaces every divergence (and writes every reproducer).
pub fn run(config: &ConformanceConfig) -> ConformanceReport {
    let mut lines = vec![format!(
        "seeds: {}",
        config
            .seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )];
    let mut checks = 0usize;
    let mut failures = 0usize;
    let repro = config.repro_dir.as_deref();
    let record = |seed: u64, result: Result<String, String>| -> (String, bool) {
        match result {
            Ok(summary) => (format!("[seed {seed}] {summary}"), false),
            Err(detail) => (format!("[seed {seed}] FAIL {detail}"), true),
        }
    };
    for &seed in &config.seeds {
        for family in &config.families {
            let results: Vec<Result<String, String>> = match family {
                Family::Diff => vec![
                    diff::run_sw_family(seed, config.cases, repro).map_err(|d| d.to_string()),
                    diff::run_smem_family(seed, config.cases, repro).map_err(|d| d.to_string()),
                    diff::run_pipeline_family(seed, config.cases, repro).map_err(|d| d.to_string()),
                    diff::run_serve_family(seed, config.serve_reads, repro)
                        .map_err(|d| d.to_string()),
                ],
                Family::Extension => vec![diff::run_extension_family(seed, config.cases, repro)
                    .map_err(|d| d.to_string())],
                Family::Invariants => vec![run_invariant_family(seed)],
                Family::Faults => vec![faults::run_fault_family(seed)],
                Family::Registry => {
                    vec![tenancy::run_registry_family(seed, config.serve_reads / 2)]
                }
                Family::LongRead => {
                    vec![long_read::run_long_read_family(seed, config.cases, repro)
                        .map_err(|d| d.to_string())]
                }
            };
            for result in results {
                let (line, failed) = record(seed, result);
                checks += 1;
                failures += usize::from(failed);
                lines.push(line);
            }
        }
    }
    ConformanceReport {
        lines,
        failures,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("bogus"), None);
    }

    #[test]
    fn invariant_family_passes_and_reports_deterministically() {
        let a = run_invariant_family(9).expect("laws hold");
        let b = run_invariant_family(9).expect("laws hold");
        assert_eq!(a, b);
        assert!(a.contains("conservation laws hold"), "{a}");
    }

    #[test]
    fn report_text_marks_failures() {
        let report = ConformanceReport {
            lines: vec!["[seed 1] FAIL sw.banded_vs_full: boom".to_string()],
            failures: 1,
            checks: 1,
        };
        assert!(!report.passed());
        assert!(report.text().contains("result: FAIL (1 checks, 1 failed)"));
    }
}
