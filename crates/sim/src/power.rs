//! Analytic area/power primitives (CACTI + Design Compiler substitute).
//!
//! The paper synthesizes each module in Chisel (14 nm library) and evaluates
//! SRAMs with CACTI 7.0 scaled to 14 nm. Offline we cannot synthesize, so
//! every module is modeled as a composition of two primitives whose
//! per-unit constants are *calibrated in `nvwa-core::power`* against the
//! paper's Table II. The primitives themselves only implement the linear
//! area/power composition and bookkeeping.

/// An SRAM macro characterized by density and power density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Area density in mm² per MiB.
    pub mm2_per_mib: f64,
    /// Power density in watts per MiB (leakage + average dynamic at the
    /// module's nominal activity).
    pub w_per_mib: f64,
}

impl SramMacro {
    /// Creates a macro.
    pub fn new(bytes: u64, mm2_per_mib: f64, w_per_mib: f64) -> SramMacro {
        SramMacro {
            bytes,
            mm2_per_mib,
            w_per_mib,
        }
    }

    /// Capacity in MiB.
    pub fn mib(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }

    /// Area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.mib() * self.mm2_per_mib
    }

    /// Power in watts.
    pub fn power_w(&self) -> f64 {
        self.mib() * self.w_per_mib
    }
}

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
    fn sram_scales_linearly() {
        let a = SramMacro::new(1024 * 1024, 2.0, 0.5);
        let b = SramMacro::new(2 * 1024 * 1024, 2.0, 0.5);
        assert!((a.area_mm2() - 2.0).abs() < 1e-12);
        assert!((b.area_mm2() - 4.0).abs() < 1e-12);
        assert!((b.power_w() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn logic_scales_with_instances() {
        let l = LogicBlock::new(128, 0.01, 0.002);
        assert!((l.area_mm2() - 1.28).abs() < 1e-12);
        assert!((l.power_w() - 0.256).abs() < 1e-12);
    }
}
