//! Fig. 11 — end-to-end throughput comparison and the headline numbers.
//!
//! Bars: the reported software/hardware baselines (the paper's own
//! methodology: reported numbers on NA12878), the unscheduled SUs+EUs
//! design, the cumulative scheduling ablations (+OCRA, +OCRA+HUS) and full
//! NvWa — the accelerator bars measured on this reproduction's simulator,
//! the platform bars taken from the reported data.

use std::fmt;

use crate::baselines::{cpu_kreads_per_sec, reported_baselines};
use crate::config::{NvwaConfig, SchedulingConfig};
use crate::system::{simulate, SimReport};
use crate::units::workload::{ReadWork, SyntheticWorkloadParams};

use super::Scale;

/// One bar of the chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Label as in the figure.
    pub name: String,
    /// Throughput in K reads/s.
    pub kreads_per_sec: f64,
    /// Whether the value was measured on our simulator (vs reported).
    pub measured: bool,
}

/// The Fig. 11 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// All bars, baseline → NvWa.
    pub bars: Vec<Bar>,
    /// The full simulation reports per accelerator variant, in bar order.
    pub reports: Vec<(String, SimReport)>,
}

impl Fig11 {
    /// Throughput of a named bar.
    pub fn bar(&self, name: &str) -> Option<f64> {
        self.bars
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.kreads_per_sec)
    }

    /// Measured speedup of full NvWa over the unscheduled SUs+EUs design
    /// (the paper's 13.6× composite). `None` when either bar is missing —
    /// a missing bar must surface as such, not fake a 0× speedup.
    pub fn nvwa_over_sus_eus(&self) -> Option<f64> {
        Some(self.bar("NvWa")? / self.bar("SUs+EUs")?)
    }

    /// Measured incremental factors (OCRA, HUS, HA), mirroring the paper's
    /// "3.32×, 1.73×, and 2.38×" decomposition (our chain applies OCRA
    /// first: with Read-in-Batch in place, the seeding stalls mask any
    /// extension-side improvement). `None` when any bar is missing.
    pub fn ablation_factors(&self) -> Option<(f64, f64, f64)> {
        let base = self.bar("SUs+EUs")?;
        let ocra = self.bar("+OCRA")?;
        let hus = self.bar("+OCRA+HUS")?;
        let nvwa = self.bar("NvWa")?;
        Some((ocra / base, hus / ocra, nvwa / hus))
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 11 — throughput comparison (K reads/s)")?;
        for b in &self.bars {
            writeln!(
                f,
                "  {:18} {:>12.1}  [{}]",
                b.name,
                b.kreads_per_sec,
                if b.measured { "measured" } else { "reported" }
            )?;
        }
        match self.ablation_factors() {
            Some((ocra, hus, ha)) => writeln!(
                f,
                "  measured factors: OCRA {:.2}x, HUS {:.2}x, HA {:.2}x (paper: 1.73/3.32/2.38)",
                ocra, hus, ha
            )?,
            None => writeln!(f, "  measured factors: unavailable (missing bars)")?,
        }
        match self.nvwa_over_sus_eus() {
            Some(x) => writeln!(
                f,
                "  measured NvWa / SUs+EUs: {:.2}x (paper composite: 13.6x)",
                x
            ),
            None => writeln!(f, "  measured NvWa / SUs+EUs: unavailable (missing bars)"),
        }
    }
}

/// The accelerator variants of the ablation, in presentation order.
pub fn ablation_variants() -> Vec<(&'static str, SchedulingConfig)> {
    vec![
        ("SUs+EUs", SchedulingConfig::baseline()),
        (
            "+OCRA",
            SchedulingConfig {
                hybrid_units: false,
                ocra: true,
                hits_allocator: false,
            },
        ),
        (
            "+OCRA+HUS",
            SchedulingConfig {
                hybrid_units: true,
                ocra: true,
                hits_allocator: false,
            },
        ),
        ("NvWa", SchedulingConfig::nvwa()),
    ]
}

/// Runs the Fig. 11 experiment on a given workload.
pub fn run_on_workload(works: &[ReadWork]) -> Fig11 {
    let mut bars: Vec<Bar> = Vec::new();

    // Reported platform baselines (the paper's methodology).
    let mean_acc = works
        .iter()
        .map(|w| w.seeding_accesses.len() as f64)
        .sum::<f64>()
        / works.len() as f64;
    let mean_cells = works
        .iter()
        .flat_map(|w| w.hits.iter())
        .map(|h| h.query_len as f64 * h.ref_len as f64)
        .sum::<f64>()
        / works.len() as f64;
    bars.push(Bar {
        name: "CPU-BWA-MEM(model)".into(),
        kreads_per_sec: cpu_kreads_per_sec(mean_acc, mean_cells),
        measured: true,
    });
    for p in reported_baselines() {
        bars.push(Bar {
            name: p.name.into(),
            kreads_per_sec: p.kreads_per_sec,
            measured: false,
        });
    }

    // Measured accelerator variants: each simulation is an independent
    // single-threaded run, so the ablation fans out across threads while
    // the reports stay in presentation order.
    let variants = ablation_variants();
    let reports: Vec<(String, SimReport)> = nvwa_sim::par::par_map(&variants, |(name, sched)| {
        let config = NvwaConfig {
            scheduling: *sched,
            ..NvwaConfig::paper()
        };
        (name.to_string(), simulate(&config, works))
    });
    for (name, report) in &reports {
        bars.push(Bar {
            name: name.clone(),
            kreads_per_sec: report.kreads_per_sec().expect("non-empty simulation"),
            measured: true,
        });
    }
    Fig11 { bars, reports }
}

/// Runs Fig. 11 on the calibrated synthetic NA12878-like workload.
pub fn run(scale: Scale) -> Fig11 {
    let works = SyntheticWorkloadParams {
        reads: scale.pick(1_000, 20_000),
        ..SyntheticWorkloadParams::default()
    }
    .generate(0xf1611);
    run_on_workload(&works)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvwa_wins_every_measured_ablation() {
        let fig = run(Scale::Quick);
        let base = fig.bar("SUs+EUs").unwrap();
        let ocra = fig.bar("+OCRA").unwrap();
        let hus = fig.bar("+OCRA+HUS").unwrap();
        let nvwa = fig.bar("NvWa").unwrap();
        assert!(ocra > base, "OCRA {ocra} vs base {base}");
        assert!(hus > ocra, "HUS {hus} vs OCRA {ocra}");
        assert!(nvwa > hus, "NvWa {nvwa} vs HUS {hus}");
    }

    #[test]
    fn nvwa_beats_modeled_cpu_by_orders_of_magnitude() {
        let fig = run(Scale::Quick);
        let cpu = fig.bar("CPU-BWA-MEM(model)").unwrap();
        let nvwa = fig.bar("NvWa").unwrap();
        assert!(nvwa / cpu > 50.0, "speedup only {}", nvwa / cpu);
    }

    #[test]
    fn utilization_shapes_match_fig12_direction() {
        let fig = run(Scale::Quick);
        let base = &fig.reports.first().unwrap().1;
        let nvwa = &fig.reports.last().unwrap().1;
        assert!(nvwa.su_utilization > base.su_utilization);
        assert!(nvwa.overall_correct_allocation() > base.overall_correct_allocation());
    }

    #[test]
    fn display_renders() {
        let text = run(Scale::Quick).to_string();
        assert!(text.contains("NvWa"));
        assert!(text.contains("measured factors"));
    }
}
