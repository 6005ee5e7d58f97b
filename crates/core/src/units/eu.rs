//! The extension unit (EU) timing model.
//!
//! An EU is a systolic array of `pes` PEs: a dispatched hit occupies it for
//! the Formula-3 matrix-fill latency plus the constant trace-back time
//! (footnote 4 of the paper: trace-back latency is independent of the PE
//! count, so it is a fixed adder).

use nvwa_sim::Cycle;

use crate::extension::systolic::matrix_fill_latency;
use crate::interface::Hit;

/// The EU timing model for one unit size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EuModel {
    pes: u32,
    traceback: Cycle,
}

impl EuModel {
    /// Creates a systolic-array model for a unit of `pes` PEs with the
    /// given constant trace-back latency.
    ///
    /// # Panics
    ///
    /// Panics if `pes == 0`.
    pub fn new(pes: u32, traceback: Cycle) -> EuModel {
        assert!(pes > 0, "need at least one PE");
        EuModel { pes, traceback }
    }

    /// PE count.
    pub fn pes(&self) -> u32 {
        self.pes
    }

    /// Total occupancy of one hit: load (1 cycle) + matrix fill + trace
    /// back.
    pub fn task_latency(&self, hit: &Hit) -> Cycle {
        let r = hit.ref_len.max(1) as u64;
        let q = hit.query_len.max(1) as u64;
        1 + matrix_fill_latency(r, q, self.pes) + self.traceback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(q: u32, r: u32) -> Hit {
        Hit {
            read_idx: 0,
            hit_idx: 0,
            direction: false,
            read_pos: (0, q),
            ref_pos: 0,
            query_len: q,
            ref_len: r,
        }
    }

    #[test]
    fn latency_includes_fill_and_traceback() {
        let eu = EuModel::new(16, 32);
        // (20 + 15) × ceil(10/16 = 1) = 35, +1 load +32 traceback.
        assert_eq!(eu.task_latency(&hit(10, 20)), 1 + 35 + 32);
    }

    #[test]
    fn matched_unit_is_fastest_for_its_class() {
        let h = hit(20, 24);
        let lat: Vec<Cycle> = [16u32, 32, 64, 128]
            .iter()
            .map(|&p| EuModel::new(p, 32).task_latency(&h))
            .collect();
        // 32-PE is optimal for a 20-long hit (one pass, minimal bubble).
        let best = lat.iter().min().unwrap();
        assert_eq!(lat[1], *best);
    }

    #[test]
    fn long_hit_on_small_unit_iterates() {
        let h = hit(127, 130);
        let small = EuModel::new(16, 0).task_latency(&h);
        let big = EuModel::new(128, 0).task_latency(&h);
        assert!(small > big * 3, "small {small} vs big {big}");
    }

    #[test]
    fn degenerate_hit_still_has_cost() {
        let eu = EuModel::new(16, 8);
        assert!(eu.task_latency(&hit(0, 0)) >= 9);
    }
}
