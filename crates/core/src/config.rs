//! System configurations (Table I).
//!
//! The paper's NvWa instance: 128 SUs and 70 EUs at 1 GHz, 2880 extension
//! PEs split over four hybrid classes solved from the NA12878 hit
//! distribution by Formula 5 (16 PEs × 28, 32 × 20, 64 × 16, 128 × 6),
//! 512 KB of SU scratchpad, 20 MB of EU SRAM, 150 KB in the Coordinator and
//! 256 GB/s HBM 1.0.
//!
//! Only what a figure, a test configuration or the benchmark varies is a
//! field here; the Table I numbers no caller varies are constants next to
//! the code that reads them (DESIGN.md §2 lists where each lives).

use nvwa_sim::Cycle;

/// One class of extension units: `count` units of `pes` PEs each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EuClass {
    /// PEs per unit in this class.
    pub pes: u32,
    /// Number of units in this class.
    pub count: u32,
}

impl EuClass {
    /// Creates a class.
    pub fn new(pes: u32, count: u32) -> EuClass {
        EuClass { pes, count }
    }

    /// Total PEs contributed by this class.
    pub fn total_pes(&self) -> u32 {
        self.pes * self.count
    }
}

/// Which of NvWa's three scheduling mechanisms are enabled.
///
/// All off is the paper's "SUs+EUs" baseline; all on is NvWa. The three
/// flags correspond to the Fig. 11 ablations (OCRA, HUS, HA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedulingConfig {
    /// One-Cycle Read Allocator (vs Read-in-Batch).
    pub ocra: bool,
    /// Hybrid Units Strategy (vs uniform EUs).
    pub hybrid_units: bool,
    /// Coordinator greedy Hits Allocator (vs blocking FIFO dispatch).
    pub hits_allocator: bool,
}

impl SchedulingConfig {
    /// Full NvWa: everything on.
    pub fn nvwa() -> SchedulingConfig {
        SchedulingConfig {
            ocra: true,
            hybrid_units: true,
            hits_allocator: true,
        }
    }

    /// The unscheduled SUs+EUs baseline: everything off.
    pub fn baseline() -> SchedulingConfig {
        SchedulingConfig {
            ocra: false,
            hybrid_units: false,
            hits_allocator: false,
        }
    }
}

/// A complete NvWa system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NvwaConfig {
    /// Number of seeding units.
    pub su_count: u32,
    /// Extension-unit classes (hybrid) — replaced by a uniform pool when
    /// `scheduling.hybrid_units` is off.
    pub eu_classes: Vec<EuClass>,
    /// Hits Buffer depth (entries per buffer; Store and Processing buffers
    /// are each this deep). The paper's sweep (Fig. 13a) picks 1024.
    pub hits_buffer_depth: usize,
    /// Hits read per allocation round (`batch_size` in Fig. 10).
    pub alloc_batch_size: usize,
    /// Capacity of the shared SU index cache, in occ blocks (models the
    /// SUs' 512 KB table SRAM holding hot FM-index blocks).
    pub su_cache_blocks: usize,
    /// Staging-FIFO capacity of the *baseline* (no Hits Allocator) path —
    /// prior designs only had a small, coarse producer-consumer buffer
    /// between the phases (Sec. I discusses SeedEx's buffer).
    pub baseline_fifo_capacity: usize,
    /// Scheduling ablation switches.
    pub scheduling: SchedulingConfig,
    /// Bucket width for utilization time series, in cycles.
    pub stats_bucket: Cycle,
}

impl NvwaConfig {
    /// The paper's Table I configuration.
    pub fn paper() -> NvwaConfig {
        NvwaConfig {
            su_count: 128,
            eu_classes: vec![
                EuClass::new(16, 28),
                EuClass::new(32, 20),
                EuClass::new(64, 16),
                EuClass::new(128, 6),
            ],
            hits_buffer_depth: 1024,
            alloc_batch_size: 32,
            su_cache_blocks: 8192, // 512 KB / 64 B blocks
            baseline_fifo_capacity: 64,
            scheduling: SchedulingConfig::nvwa(),
            stats_bucket: 4096,
        }
    }

    /// A small configuration for unit/integration tests (16 SUs, 7 EUs).
    pub fn small_test() -> NvwaConfig {
        NvwaConfig {
            su_count: 16,
            eu_classes: vec![
                EuClass::new(16, 3),
                EuClass::new(32, 2),
                EuClass::new(64, 1),
                EuClass::new(128, 1),
            ],
            hits_buffer_depth: 64,
            alloc_batch_size: 8,
            stats_bucket: 512,
            su_cache_blocks: 512,
            ..NvwaConfig::paper()
        }
    }

    /// Total number of extension units under the hybrid strategy.
    pub fn total_eus(&self) -> u32 {
        self.eu_classes.iter().map(|c| c.count).sum()
    }

    /// Total extension PEs.
    pub fn total_pes(&self) -> u32 {
        self.eu_classes.iter().map(|c| c.total_pes()).sum()
    }

    /// The uniform EU pool with the same PE budget (the paper's comparison
    /// point: "four units, each with 64 PEs" scaled to the budget). Uses
    /// 64-PE units, the "moderately sized" choice of Fig. 9(b).
    pub fn uniform_eu_classes(&self) -> Vec<EuClass> {
        let total = self.total_pes();
        vec![EuClass::new(64, total / 64)]
    }

    /// The EU classes actually instantiated, honouring the HUS ablation.
    pub fn effective_eu_classes(&self) -> Vec<EuClass> {
        if self.scheduling.hybrid_units {
            self.eu_classes.clone()
        } else {
            self.uniform_eu_classes()
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (no SUs/EUs, a zero-depth
    /// buffer or FIFO, an empty allocation batch).
    pub fn validate(&self) {
        assert!(self.su_count > 0, "need at least one SU");
        assert!(!self.eu_classes.is_empty(), "need at least one EU class");
        assert!(
            self.eu_classes.iter().all(|c| c.pes > 0 && c.count > 0),
            "EU classes must be non-empty"
        );
        assert!(self.hits_buffer_depth > 0, "hits buffer must have depth");
        assert!(
            self.alloc_batch_size > 0,
            "allocation batch must be positive"
        );
        assert!(
            self.baseline_fifo_capacity > 0,
            "baseline FIFO must have capacity"
        );
    }
}

impl Default for NvwaConfig {
    fn default() -> NvwaConfig {
        NvwaConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_one() {
        let c = NvwaConfig::paper();
        assert_eq!(c.su_count, 128);
        assert_eq!(c.total_eus(), 70);
        assert_eq!(c.total_pes(), 2880);
        assert_eq!(c.hits_buffer_depth, 1024);
        c.validate();
    }

    #[test]
    fn eu_class_counts_match_paper() {
        let c = NvwaConfig::paper();
        let counts: Vec<(u32, u32)> = c.eu_classes.iter().map(|e| (e.pes, e.count)).collect();
        assert_eq!(counts, vec![(16, 28), (32, 20), (64, 16), (128, 6)]);
    }

    #[test]
    fn uniform_pool_preserves_pe_budget() {
        let c = NvwaConfig::paper();
        let uniform = c.uniform_eu_classes();
        let total: u32 = uniform.iter().map(|e| e.total_pes()).sum();
        assert_eq!(total, 2880);
        assert_eq!(uniform[0].count, 45);
    }

    #[test]
    fn ablation_switches_select_classes() {
        let mut c = NvwaConfig::paper();
        assert_eq!(c.effective_eu_classes().len(), 4);
        c.scheduling.hybrid_units = false;
        assert_eq!(c.effective_eu_classes().len(), 1);
        assert_eq!(c.effective_eu_classes()[0].pes, 64);
    }

    #[test]
    fn small_test_config_is_valid() {
        NvwaConfig::small_test().validate();
    }

    #[test]
    #[should_panic(expected = "need at least one SU")]
    fn zero_sus_rejected() {
        let c = NvwaConfig {
            su_count: 0,
            ..NvwaConfig::paper()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "baseline FIFO must have capacity")]
    fn zero_capacity_fifo_rejected() {
        // With no capacity the FIFO path suspends every SU and the run
        // ends with no hit dispatched instead of failing.
        let c = NvwaConfig {
            baseline_fifo_capacity: 0,
            scheduling: SchedulingConfig::baseline(),
            ..NvwaConfig::small_test()
        };
        c.validate();
    }
}
