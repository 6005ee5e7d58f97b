//! Tables I–III — system configuration, area/power breakdown and the
//! unified interface definition.

use std::fmt;

use nvwa_sim::hbm::HbmConfig;

use crate::baselines::{nvwa_reported, reported_baselines, CPU_FREQ_GHZ, CPU_THREADS};
use crate::config::NvwaConfig;
use crate::power::PowerBreakdown;

/// Table I — system configurations of the compared platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The NvWa configuration rendered.
    pub config: NvwaConfig,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        let hbm = HbmConfig::default();
        writeln!(f, "Table I — system configurations")?;
        writeln!(
            f,
            "  BWA-MEM : {CPU_THREADS} cores @ {CPU_FREQ_GHZ:.2} GHz, 20 MB LLC, 136.5 GB/s DDR4"
        )?;
        writeln!(
            f,
            "  GASAL2  : 6912 cores @ 1.41 GHz, 40 MB, 1555 GB/s HBM2"
        )?;
        writeln!(
            f,
            "  NvWa    : {} SUs and {} EUs @ 1 GHz ({} PEs: {})",
            c.su_count,
            c.total_eus(),
            c.total_pes(),
            c.eu_classes
                .iter()
                .map(|e| format!("{}x{}", e.count, e.pes))
                .collect::<Vec<_>>()
                .join(" "),
        )?;
        writeln!(
            f,
            "            on-chip: 512 KB (SUs), 20 MB (EUs), 150 KB (Coordinator)"
        )?;
        writeln!(
            f,
            "            off-chip: {:.0} GB/s HBM 1.0 ({} channels)",
            hbm.bandwidth_bytes_per_cycle(),
            hbm.channels
        )
    }
}

/// Renders Table I for the paper configuration.
pub fn table1() -> Table1 {
    Table1 {
        config: NvwaConfig::paper(),
    }
}

/// Table II — area and power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// The breakdown.
    pub breakdown: PowerBreakdown,
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table II — area and power breakdown (14 nm model)")?;
        writeln!(
            f,
            "  {:20} {:12} {:>10} {:>9}",
            "Module", "Category", "Area(mm²)", "Power(W)"
        )?;
        for r in &self.breakdown.rows {
            writeln!(
                f,
                "  {:20} {:12} {:>10.3} {:>9.3}",
                r.module, r.category, r.area_mm2, r.power_w
            )?;
        }
        writeln!(
            f,
            "  {:20} {:12} {:>10.3} {:>9.3}  (paper: 27.009 / 5.754)",
            "Total",
            "",
            self.breakdown.total_area_mm2(),
            self.breakdown.total_power_w()
        )?;
        writeln!(
            f,
            "  scheduling machinery: {:.3} W ({:.1}% — paper: 0.77 W / 13.38%)",
            self.breakdown.scheduler_power_w(),
            self.breakdown.scheduler_power_w() / self.breakdown.total_power_w() * 100.0
        )
    }
}

/// Renders Table II for the paper configuration.
pub fn table2() -> Table2 {
    Table2 {
        breakdown: PowerBreakdown::for_config(&NvwaConfig::paper()),
    }
}

/// Table III — the unified interface as fixed text, each row naming the
/// `interface` type that implements it (nothing checks the two agree).
pub fn table3() -> String {
    let mut out = String::new();
    out.push_str("Table III — unified interface definitions\n");
    out.push_str(
        "  Data / SUs  / input : [read_idx, read_metadata]            (interface::SuInput)\n",
    );
    out.push_str("  Data / SUs  / output: [read_idx, hit_idx, direction,\n");
    out.push_str("                         read_pos, ref_pos]                  (interface::Hit)\n");
    out.push_str("  Data / EUs  / input : [sus_output]                         (interface::Hit)\n");
    out.push_str(
        "  Data / EUs  / output: [sus_output, alignment_result]       (interface::EuOutput)\n",
    );
    out.push_str(
        "  Ctrl / SUs  : [idle, busy, stop]                           (interface::UnitStatus)\n",
    );
    out.push_str(
        "  Ctrl / EUs  : [idle, busy, stop, pe_number]                (interface::EuControl)\n",
    );
    out
}

/// The headline summary: paper-reported speedups/energy plus the pointers
/// to our measured equivalents.
pub fn headline() -> String {
    let nvwa = nvwa_reported();
    let mut out = String::new();
    out.push_str("Headline (paper-reported points, NA12878):\n");
    for b in reported_baselines() {
        out.push_str(&format!(
            "  vs {:16}: {:7.2}x speedup, {:6.2}x power ratio\n",
            b.name,
            nvwa.kreads_per_sec / b.kreads_per_sec,
            b.power_w / 7.685,
        ));
    }
    out.push_str("Our measured accelerator ratios come from the Fig. 11 driver.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shows_paper_numbers() {
        let text = table1().to_string();
        assert!(text.contains("128 SUs and 70 EUs"));
        assert!(text.contains("2880 PEs"));
        assert!(text.contains("256 GB/s"));
    }

    #[test]
    fn table2_totals_near_paper() {
        let t = table2();
        assert!((t.breakdown.total_area_mm2() - 27.009).abs() < 0.6);
        assert!((t.breakdown.total_power_w() - 5.754).abs() < 0.12);
        let text = t.to_string();
        assert!(text.contains("Coordinator"));
    }

    #[test]
    fn table3_mentions_all_signals() {
        let text = table3();
        for signal in [
            "read_idx",
            "hit_idx",
            "direction",
            "read_pos",
            "ref_pos",
            "pe_number",
        ] {
            assert!(text.contains(signal), "missing {signal}");
        }
    }

    #[test]
    fn headline_contains_the_four_headline_ratios() {
        let text = headline();
        assert!(text.contains("493.00x"));
        assert!(text.contains("200.00x"));
        assert!(text.contains("12.11x"));
        assert!(text.contains("2.30x"));
    }
}
