//! Analytic area/power model (Table II).
//!
//! The paper synthesizes every module with Design Compiler (SIMC 14 nm) and
//! evaluates SRAMs with CACTI 7.0 scaled to 14 nm; neither tool exists
//! here, so each module is modeled as logic blocks + SRAM macros whose
//! per-unit constants are *calibrated once* against the paper's published
//! Table II breakdown (documented per constant below). The model then
//! scales structurally — more EU classes grow the allocator logic, deeper
//! buffers grow the Coordinator SRAM — which is what the Fig. 13(b) power
//! curve needs.

use nvwa_sim::power::LogicBlock;

use crate::config::NvwaConfig;

/// Calibration constants, derived by dividing Table II's entries by the
/// paper configuration's structural counts (128 SUs, 2880 PEs, 70 EUs,
/// 512 KB SU SRAM, 20 MB EU SRAM, 1024-deep buffers, 4 classes).
mod cal {
    /// SU logic: 0.5 mm² / 0.36 W over 128 SUs.
    pub const SU_LOGIC_MM2: f64 = 0.5 / 128.0;
    pub const SU_LOGIC_W: f64 = 0.36 / 128.0;
    /// SU table SRAM: 2.16 mm² / 0.71 W over 0.5 MiB.
    pub const SU_SRAM_MM2_PER_MIB: f64 = 2.16 / 0.5;
    pub const SU_SRAM_W_PER_MIB: f64 = 0.71 / 0.5;
    /// EU logic: 1.62 mm² / 0.30 W over 2880 PEs.
    pub const EU_LOGIC_MM2: f64 = 1.62 / 2880.0;
    pub const EU_LOGIC_W: f64 = 0.30 / 2880.0;
    /// EU table SRAM: 21.15 mm² / 3.614 W over 20 MiB.
    pub const EU_SRAM_MM2_PER_MIB: f64 = 21.15 / 20.0;
    pub const EU_SRAM_W_PER_MIB: f64 = 3.614 / 20.0;
    /// EU SRAM provisioning: 20 MiB / 2880 PEs.
    pub const EU_SRAM_MIB_PER_PE: f64 = 20.0 / 2880.0;
    /// Seeding Scheduler SPM: 0.13 mm² / 0.04 W for the 128-SU prefetcher.
    pub const SEED_SPM_MM2: f64 = 0.13 / 128.0;
    pub const SEED_SPM_W: f64 = 0.04 / 128.0;
    /// Seeding Scheduler logic (mask tables + PopCount tree): 0.1 mm² /
    /// 0.072 W at 128 SUs.
    pub const SEED_LOGIC_MM2: f64 = 0.1 / 128.0;
    pub const SEED_LOGIC_W: f64 = 0.072 / 128.0;
    /// Extension Scheduler status SRAM: 0.065 mm² / 0.021 W over 70 EUs.
    pub const EXT_SRAM_MM2: f64 = 0.065 / 70.0;
    pub const EXT_SRAM_W: f64 = 0.021 / 70.0;
    /// Extension Scheduler logic: 0.23 mm² / 0.165 W over 70 EUs.
    pub const EXT_LOGIC_MM2: f64 = 0.23 / 70.0;
    pub const EXT_LOGIC_W: f64 = 0.165 / 70.0;
    /// Coordinator buffers: 0.782 mm² / 0.257 W for 2 × 1024 entries of
    /// 64 B plus processing metadata (the paper's 150 KB).
    pub const COORD_SRAM_MM2_PER_MIB: f64 = 0.782 / (150.0 / 1024.0);
    pub const COORD_SRAM_W_PER_MIB: f64 = 0.257 / (150.0 / 1024.0);
    /// Bytes per Hits Buffer entry (hit record + metadata).
    pub const HIT_ENTRY_BYTES: u64 = 75;
    /// Coordinator allocator logic: 0.273 mm² / 0.215 W at 4 classes with
    /// a 32-entry sort/mux network; scales as `n·log2(n)` in the class
    /// count (comparator tree width).
    pub const COORD_LOGIC_MM2: f64 = 0.273;
    pub const COORD_LOGIC_W: f64 = 0.215;
}

/// One row of the Table II breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerRow {
    /// Module name ("SUs", "EUs", …).
    pub module: &'static str,
    /// Category within the module ("Logic", "Table SRAM", …).
    pub category: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in watts.
    pub power_w: f64,
}

/// The full area/power breakdown of a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    /// Rows in Table II order.
    pub rows: Vec<PowerRow>,
}

impl PowerBreakdown {
    /// Computes the breakdown for `config`.
    pub fn for_config(config: &NvwaConfig) -> PowerBreakdown {
        let su = config.su_count as u64;
        let classes = config.effective_eu_classes();
        let eus: u64 = classes.iter().map(|c| c.count as u64).sum();
        let pes: u64 = classes.iter().map(|c| c.total_pes() as u64).sum();
        let n_classes = classes.len() as f64;

        // SU table SRAM scales with the pool (512 KB at 128 SUs).
        let su_sram_mib = su as f64 * (0.5 / 128.0);
        // Coordinator buffer: two buffers of `depth` entries.
        let coord_bytes = 2 * config.hits_buffer_depth as u64 * cal::HIT_ENTRY_BYTES;
        // Allocator comparator network: n·log2(n) scaling normalized to the
        // calibrated 4-class point.
        let logic_scale = (n_classes * n_classes.log2().max(0.5)) / (4.0 * 2.0);

        let rows = vec![
            PowerRow {
                module: "SUs",
                category: "Logic",
                area_mm2: LogicBlock::new(su, cal::SU_LOGIC_MM2, cal::SU_LOGIC_W).area_mm2(),
                power_w: LogicBlock::new(su, cal::SU_LOGIC_MM2, cal::SU_LOGIC_W).power_w(),
            },
            PowerRow {
                module: "SUs",
                category: "Table SRAM",
                area_mm2: su_sram_mib * cal::SU_SRAM_MM2_PER_MIB,
                power_w: su_sram_mib * cal::SU_SRAM_W_PER_MIB,
            },
            PowerRow {
                module: "EUs",
                category: "Logic",
                area_mm2: LogicBlock::new(pes, cal::EU_LOGIC_MM2, cal::EU_LOGIC_W).area_mm2(),
                power_w: LogicBlock::new(pes, cal::EU_LOGIC_MM2, cal::EU_LOGIC_W).power_w(),
            },
            PowerRow {
                module: "EUs",
                category: "Table SRAM",
                area_mm2: pes as f64 * cal::EU_SRAM_MIB_PER_PE * cal::EU_SRAM_MM2_PER_MIB,
                power_w: pes as f64 * cal::EU_SRAM_MIB_PER_PE * cal::EU_SRAM_W_PER_MIB,
            },
            PowerRow {
                module: "Seeding Scheduler",
                category: "SPM",
                area_mm2: su as f64 * cal::SEED_SPM_MM2,
                power_w: su as f64 * cal::SEED_SPM_W,
            },
            PowerRow {
                module: "Seeding Scheduler",
                category: "Logic",
                area_mm2: su as f64 * cal::SEED_LOGIC_MM2,
                power_w: su as f64 * cal::SEED_LOGIC_W,
            },
            PowerRow {
                module: "Extension Scheduler",
                category: "Table SRAM",
                area_mm2: eus as f64 * cal::EXT_SRAM_MM2,
                power_w: eus as f64 * cal::EXT_SRAM_W,
            },
            PowerRow {
                module: "Extension Scheduler",
                category: "Logic",
                area_mm2: eus as f64 * cal::EXT_LOGIC_MM2,
                power_w: eus as f64 * cal::EXT_LOGIC_W,
            },
            PowerRow {
                module: "Coordinator",
                category: "SRAM Buffer",
                area_mm2: mib(coord_bytes) * cal::COORD_SRAM_MM2_PER_MIB,
                power_w: mib(coord_bytes) * cal::COORD_SRAM_W_PER_MIB,
            },
            PowerRow {
                module: "Coordinator",
                category: "Logic",
                area_mm2: cal::COORD_LOGIC_MM2 * logic_scale,
                power_w: cal::COORD_LOGIC_W * logic_scale,
            },
        ];
        PowerBreakdown { rows }
    }

    /// Total area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.rows.iter().map(|r| r.area_mm2).sum()
    }

    /// Total power in watts (excluding HBM, like the paper's 5.754 W).
    pub fn total_power_w(&self) -> f64 {
        self.rows.iter().map(|r| r.power_w).sum()
    }

    /// Power of the scheduling machinery only (Seeding/Extension Scheduler
    /// + Coordinator): the paper's "only 0.77 W (13.38 %)".
    pub fn scheduler_power_w(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.module != "SUs" && r.module != "EUs")
            .map(|r| r.power_w)
            .sum()
    }

    /// Power of the Coordinator alone (the Fig. 13(b) y-axis).
    pub fn coordinator_power_w(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.module == "Coordinator")
            .map(|r| r.power_w)
            .sum()
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_reproduces_table_two_totals() {
        let b = PowerBreakdown::for_config(&NvwaConfig::paper());
        // Table II: 27.009 mm², 5.754 W (±2% for the buffer-entry model).
        assert!(
            (b.total_area_mm2() - 27.009).abs() / 27.009 < 0.02,
            "area {}",
            b.total_area_mm2()
        );
        assert!(
            (b.total_power_w() - 5.754).abs() / 5.754 < 0.02,
            "power {}",
            b.total_power_w()
        );
    }

    #[test]
    fn compute_units_dominate() {
        // "The computing units dominate ... 94.15% of the area and 86.61%
        // of the power"; schedulers are ~1.58 mm² and ~0.77 W.
        let b = PowerBreakdown::for_config(&NvwaConfig::paper());
        let sched_w = b.scheduler_power_w();
        assert!((sched_w - 0.77).abs() < 0.03, "scheduler power {sched_w}");
        let compute_area: f64 = b
            .rows
            .iter()
            .filter(|r| r.module == "SUs" || r.module == "EUs")
            .map(|r| r.area_mm2)
            .sum();
        let frac = compute_area / b.total_area_mm2();
        assert!((frac - 0.9415).abs() < 0.01, "compute area fraction {frac}");
    }

    #[test]
    fn coordinator_power_grows_with_buffer_depth() {
        let small = PowerBreakdown::for_config(&NvwaConfig {
            hits_buffer_depth: 128,
            ..NvwaConfig::paper()
        });
        let big = PowerBreakdown::for_config(&NvwaConfig {
            hits_buffer_depth: 8192,
            ..NvwaConfig::paper()
        });
        assert!(big.coordinator_power_w() > small.coordinator_power_w());
    }

    #[test]
    fn allocator_logic_grows_with_class_count() {
        use crate::config::EuClass;
        let two = PowerBreakdown::for_config(&NvwaConfig {
            eu_classes: vec![EuClass::new(32, 45), EuClass::new(128, 11)],
            ..NvwaConfig::paper()
        });
        let sixteen = PowerBreakdown::for_config(&NvwaConfig {
            eu_classes: (0..16).map(|i| EuClass::new(8 << (i / 4), 10)).collect(),
            ..NvwaConfig::paper()
        });
        let logic = |b: &PowerBreakdown| {
            b.rows
                .iter()
                .find(|r| r.module == "Coordinator" && r.category == "Logic")
                .unwrap()
                .power_w
        };
        assert!(logic(&sixteen) > logic(&two));
    }

    #[test]
    fn rows_match_table_two_structure() {
        let b = PowerBreakdown::for_config(&NvwaConfig::paper());
        assert_eq!(b.rows.len(), 10);
        let su_sram = &b.rows[1];
        assert!((su_sram.area_mm2 - 2.16).abs() < 1e-9);
        assert!((su_sram.power_w - 0.71).abs() < 1e-9);
        let eu_sram = &b.rows[3];
        assert!((eu_sram.area_mm2 - 21.15).abs() < 1e-9);
    }

    #[test]
    fn hbm_total_matches_paper() {
        // "When the HBM 1.0 is considered, the total power consumption is
        // 7.685 W" → HBM contributes ~1.93 W at full tilt.
        let b = PowerBreakdown::for_config(&NvwaConfig::paper());
        let total = b.total_power_w() + (7.685 - 5.754);
        assert!((total - 7.685).abs() < 0.15, "total {total}");
    }
}
