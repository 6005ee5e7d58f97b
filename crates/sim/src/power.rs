//! Analytic area/power primitives (CACTI + Design Compiler substitute).
//!
//! The paper synthesizes each module in Chisel (14 nm library) and evaluates
//! SRAMs with CACTI 7.0 scaled to 14 nm. Offline we cannot synthesize, so
//! every module is modeled as a linear composition whose per-unit
//! constants are *calibrated in `nvwa-core::power`* against the paper's
//! Table II. SRAMs are scaled per MiB there; the primitive here is the
//! per-instance logic block.

/// A logic block characterized by a per-instance cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicBlock {
    /// Number of instances (PEs, SUs, comparators, …).
    pub instances: u64,
    /// Area per instance in mm².
    pub mm2_per_instance: f64,
    /// Power per instance in watts.
    pub w_per_instance: f64,
}

impl LogicBlock {
    /// Creates a block.
    pub fn new(instances: u64, mm2_per_instance: f64, w_per_instance: f64) -> LogicBlock {
        LogicBlock {
            instances,
            mm2_per_instance,
            w_per_instance,
        }
    }

    /// Area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.instances as f64 * self.mm2_per_instance
    }

    /// Power in watts.
    pub fn power_w(&self) -> f64 {
        self.instances as f64 * self.w_per_instance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logic_scales_with_instances() {
        let l = LogicBlock::new(128, 0.01, 0.002);
        assert!((l.area_mm2() - 1.28).abs() < 1e-12);
        assert!((l.power_w() - 0.256).abs() < 1e-12);
    }
}
