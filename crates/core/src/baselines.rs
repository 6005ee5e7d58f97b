//! Comparison baselines (Fig. 11 / Table II companions).
//!
//! The paper compares NvWa against software (BWA-MEM on a 16-core Xeon,
//! GASAL2 on an A100) and hardware (ERT+SeedEx FPGA, GenAx ASIC, GenCache
//! PIM). For the hardware points the paper itself uses *numbers reported by
//! the original work* on the same NA12878 dataset; we encode those reported
//! points. For the CPU baseline we additionally provide an analytic cost
//! model so the software/hardware gap emerges from modeled work rather than
//! a single constant.

/// A published comparison point: throughput and (effective) power.
///
/// Power values are derived from the paper's reported energy-reduction
/// ratios (footnote 6 explains GenAx/GenCache exclude memory; CPU and GPU
/// include it against NvWa's 7.685 W total).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformPoint {
    /// Platform label as in Fig. 11.
    pub name: &'static str,
    /// Reads per second (thousands), as reported/derived by the paper.
    pub kreads_per_sec: f64,
    /// Effective power in watts.
    pub power_w: f64,
    /// Where the number comes from.
    pub source: &'static str,
}

impl PlatformPoint {
    /// Throughput per watt (K reads/s/W).
    pub fn kreads_per_sec_per_watt(&self) -> f64 {
        self.kreads_per_sec / self.power_w
    }
}

/// NvWa's own published point (used for calibration checks; the simulator
/// produces our measured equivalent).
pub fn nvwa_reported() -> PlatformPoint {
    PlatformPoint {
        name: "NvWa",
        kreads_per_sec: 49_150.0,
        power_w: 5.693,
        source: "paper Sec. V-C (power excl. HBM, per footnote 6)",
    }
}

/// The reported baselines of Fig. 11, in presentation order.
///
/// Throughputs are back-derived from NvWa's 49 150 K reads/s and the
/// published speedup ratios (493×, 200×, 151×, 12.11×, 2.30×); powers from
/// the published energy-reduction ratios (14.21×, 5.60×, 4.34×, 5.85×).
pub fn reported_baselines() -> Vec<PlatformPoint> {
    let nvwa = nvwa_reported();
    vec![
        PlatformPoint {
            name: "CPU-BWA-MEM",
            kreads_per_sec: nvwa.kreads_per_sec / 493.0,
            power_w: 7.685 * 14.21,
            source: "measured by the paper on 2×E5-2620v4, 16 threads",
        },
        PlatformPoint {
            name: "GPU-GASAL2",
            kreads_per_sec: nvwa.kreads_per_sec / 200.0,
            power_w: 7.685 * 5.60,
            source: "measured by the paper on an NVIDIA A100",
        },
        PlatformPoint {
            name: "FPGA-ERT+SeedEx",
            kreads_per_sec: nvwa.kreads_per_sec / 151.0,
            power_w: 75.0,
            source: "reported by [24], [57] (power: typical FPGA board)",
        },
        PlatformPoint {
            name: "ASIC-GenAx",
            kreads_per_sec: nvwa.kreads_per_sec / 12.11,
            power_w: 5.693 * 4.34,
            source: "reported by [23]; power from the 4.34× energy ratio",
        },
        PlatformPoint {
            name: "PIM-GenCache",
            kreads_per_sec: nvwa.kreads_per_sec / 2.30,
            power_w: 5.693 * 5.85,
            source: "reported by [49]; power from the 5.85× energy ratio",
        },
    ]
}

// The analytic CPU cost model for BWA-MEM on Table I's Xeon (16 cores @
// 2.10 GHz). Cycle costs per operation are first-principles estimates for
// a 2.1 GHz Broadwell core running the BWA-MEM inner loops.

/// Cycles per FM-index occ lookup: an LLC-missing pointer chase, amortized.
pub(crate) const CPU_CYCLES_PER_OCC_ACCESS: f64 = 140.0;
/// Cycles per banded DP cell: SSE-amortized arithmetic plus traceback and
/// band bookkeeping.
pub(crate) const CPU_CYCLES_PER_DP_CELL: f64 = 8.0;
/// Fixed per-read overhead cycles (I/O, chaining, SAM formatting).
const CPU_OVERHEAD_PER_READ: f64 = 60_000.0;
/// Core clock in GHz (Table I: 2.10 GHz).
pub(crate) const CPU_FREQ_GHZ: f64 = 2.1;
/// Threads (Table I: 16 cores, run at 16 threads).
pub(crate) const CPU_THREADS: u32 = 16;
/// Parallel efficiency (memory-bandwidth and locking losses).
const CPU_EFFICIENCY: f64 = 0.80;

/// The CPU model's multi-threaded BWA-MEM throughput from average per-read
/// operation counts (FM-index block accesses, DP cells), in K reads/s.
pub fn cpu_kreads_per_sec(mean_accesses: f64, mean_dp_cells: f64) -> f64 {
    let per_read = mean_accesses * CPU_CYCLES_PER_OCC_ACCESS
        + mean_dp_cells * CPU_CYCLES_PER_DP_CELL
        + CPU_OVERHEAD_PER_READ;
    CPU_FREQ_GHZ * 1e9 * CPU_THREADS as f64 * CPU_EFFICIENCY / per_read / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_ratios_round_trip() {
        let nvwa = nvwa_reported();
        let baselines = reported_baselines();
        let ratio = |name: &str| {
            nvwa.kreads_per_sec
                / baselines
                    .iter()
                    .find(|b| b.name == name)
                    .unwrap()
                    .kreads_per_sec
        };
        assert!((ratio("CPU-BWA-MEM") - 493.0).abs() < 1e-9);
        assert!((ratio("GPU-GASAL2") - 200.0).abs() < 1e-9);
        assert!((ratio("ASIC-GenAx") - 12.11).abs() < 1e-9);
        assert!((ratio("PIM-GenCache") - 2.30).abs() < 1e-9);
    }

    #[test]
    fn throughput_per_watt_ratios_match_paper() {
        // "the throughput per Watt of NvWa is 52.62× of GenAx, and 13.50×
        // of GenCache".
        let nvwa = nvwa_reported();
        let baselines = reported_baselines();
        let genax = baselines.iter().find(|b| b.name == "ASIC-GenAx").unwrap();
        let gencache = baselines.iter().find(|b| b.name == "PIM-GenCache").unwrap();
        let r1 = nvwa.kreads_per_sec_per_watt() / genax.kreads_per_sec_per_watt();
        let r2 = nvwa.kreads_per_sec_per_watt() / gencache.kreads_per_sec_per_watt();
        assert!((r1 - 52.62).abs() / 52.62 < 0.01, "GenAx T/W ratio {r1}");
        assert!((r2 - 13.50).abs() / 13.50 < 0.01, "GenCache T/W ratio {r2}");
    }

    #[test]
    fn cpu_model_lands_near_reported_throughput() {
        // The paper's 16-thread BWA-MEM does ~99.7 K reads/s on 101 bp
        // reads. With typical per-read operation counts (≈ 300 occ
        // accesses, ≈ 15 K DP cells) the model should land within 2×.
        let modeled = cpu_kreads_per_sec(300.0, 15_000.0);
        let reported = 49_150.0 / 493.0; // 99.7 K reads/s
        assert!(
            modeled / reported < 4.0 && reported / modeled < 4.0,
            "modeled {modeled} vs reported {reported}"
        );
    }

    #[test]
    fn cpu_model_scales_with_work() {
        let light = cpu_kreads_per_sec(100.0, 1_000.0);
        let heavy = cpu_kreads_per_sec(1_000.0, 100_000.0);
        assert!(light > heavy);
    }
}
