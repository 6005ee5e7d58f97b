//! Simulation results.

use nvwa_sim::Cycle;

/// Everything a simulation run measures. Produced by
/// [`crate::system::simulate`]; consumed by the experiment drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end execution time in cycles.
    pub total_cycles: Cycle,
    /// Reads processed.
    pub reads: u64,
    /// Hits dispatched to EUs.
    pub hits_dispatched: u64,
    /// Average SU utilization (0.0–1.0).
    pub su_utilization: f64,
    /// Average EU utilization (0.0–1.0).
    pub eu_utilization: f64,
    /// SU utilization time series (bucket means, Fig. 12a/b).
    pub su_series: Vec<f64>,
    /// EU utilization time series (Fig. 12c/d).
    pub eu_series: Vec<f64>,
    /// Bucket width of the series, in cycles.
    pub stats_bucket: Cycle,
    /// Assignment matrix: `[hit_interval][eu_class] → hits` (Fig. 12e/f).
    pub assignment_matrix: Vec<Vec<u64>>,
    /// Upper bounds of the hit intervals used for the matrix rows.
    pub hit_class_bounds: Vec<usize>,
    /// PE counts of the EU classes used for the matrix columns.
    pub eu_class_pes: Vec<u32>,
    /// Buffer switches performed by the Coordinator.
    pub buffer_switches: u64,
    /// Allocation rounds executed.
    pub alloc_rounds: u64,
    /// Hit-round outcomes left unallocated (fragmentation retries).
    pub fragmented_hits: u64,
    /// Times a SU suspended on a full Store Buffer.
    pub su_stall_events: u64,
    /// HBM transactions issued.
    pub hbm_requests: u64,
    /// HBM access energy in joules.
    pub hbm_energy_j: f64,
    /// SU index-cache hit rate.
    pub su_cache_hit_rate: f64,
}

impl SimReport {
    /// Throughput in kilo-reads per second at the paper's 1 GHz clock, or
    /// `None` when the run covered zero cycles (throughput is undefined,
    /// not zero).
    pub fn kreads_per_sec(&self) -> Option<f64> {
        if self.total_cycles == 0 {
            return None;
        }
        Some(self.reads as f64 / (self.total_cycles as f64 / 1e9) / 1e3)
    }

    /// Fraction of hits in interval `hit_class` that landed on the
    /// same-indexed (optimal) EU class. Returns `None` when no hits of that
    /// class were dispatched or the classes do not align one-to-one.
    pub fn correct_allocation_fraction(&self, hit_class: usize) -> Option<f64> {
        let row = self.assignment_matrix.get(hit_class)?;
        let total: u64 = row.iter().sum();
        if total == 0 || hit_class >= row.len() {
            return None;
        }
        Some(row[hit_class] as f64 / total as f64)
    }

    /// Overall fraction of hits on their optimal class.
    pub fn overall_correct_allocation(&self) -> f64 {
        let mut correct = 0u64;
        let mut total = 0u64;
        for (i, row) in self.assignment_matrix.iter().enumerate() {
            total += row.iter().sum::<u64>();
            if i < row.len() {
                correct += row[i];
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            total_cycles: 1_000_000,
            reads: 4000,
            hits_dispatched: 16000,
            su_utilization: 0.9,
            eu_utilization: 0.8,
            su_series: vec![0.9],
            eu_series: vec![0.8],
            stats_bucket: 4096,
            assignment_matrix: vec![
                vec![90, 10, 0, 0],
                vec![5, 80, 15, 0],
                vec![0, 10, 60, 30],
                vec![0, 0, 10, 90],
            ],
            hit_class_bounds: vec![16, 32, 64, 128],
            eu_class_pes: vec![16, 32, 64, 128],
            buffer_switches: 10,
            alloc_rounds: 100,
            fragmented_hits: 5,
            su_stall_events: 0,
            hbm_requests: 100_000,
            hbm_energy_j: 1e-6,
            su_cache_hit_rate: 0.7,
        }
    }

    #[test]
    fn throughput_math() {
        let r = report();
        // 4000 reads in 1 ms at 1 GHz → 4 M reads/s.
        assert!((r.kreads_per_sec().unwrap() - 4000.0).abs() < 0.01);
    }

    #[test]
    fn allocation_fractions() {
        let r = report();
        assert_eq!(r.correct_allocation_fraction(0), Some(0.9));
        assert_eq!(r.correct_allocation_fraction(1), Some(0.8));
        assert_eq!(r.correct_allocation_fraction(9), None);
        let overall = r.overall_correct_allocation();
        assert!((overall - 320.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_has_no_throughput() {
        let mut r = report();
        r.total_cycles = 0;
        assert_eq!(r.kreads_per_sec(), None);
    }
}
