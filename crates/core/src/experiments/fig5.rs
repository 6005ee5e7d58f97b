//! Fig. 5/6 — Read-in-Batch vs One-Cycle scheduling, and the PopCount-tree
//! microarchitecture sizing.
//!
//! Reproduces the paper's toy schedule (four SUs with diverse per-read
//! times) under both strategies and the Fig. 6 tree-depth table for 64–512
//! units.

use std::fmt;

use nvwa_sim::Cycle;

use crate::seeding::batch::BatchScheduler;
use crate::seeding::ocra::{OneCycleReadAllocator, PopcountTree, ScheduleEntry};

/// The two strategies compared in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fig. 5(a).
    ReadInBatch,
    /// Fig. 5(b).
    OneCycle,
}

/// The Fig. 5 result: both schedules on the same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Per-read execution times used (cycles).
    pub read_times: Vec<Cycle>,
    /// The Read-in-Batch schedule.
    pub batch_schedule: Vec<ScheduleEntry>,
    /// The One-Cycle schedule.
    pub ocra_schedule: Vec<ScheduleEntry>,
    /// Makespan under Read-in-Batch.
    pub batch_makespan: Cycle,
    /// Makespan under One-Cycle.
    pub ocra_makespan: Cycle,
    /// The Fig. 6 PopCount-tree table: (units, depth, fits 1 GHz).
    pub tree_table: Vec<(usize, u32, bool)>,
}

impl Fig5 {
    /// Speedup of One-Cycle over Read-in-Batch on this workload.
    pub fn speedup(&self) -> f64 {
        self.batch_makespan as f64 / self.ocra_makespan as f64
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 5 — Read-in-Batch vs One-Cycle scheduling")?;
        writeln!(
            f,
            "  {} reads over 4 SUs; batch makespan {} vs one-cycle {} ({:.2}x)",
            self.read_times.len(),
            self.batch_makespan,
            self.ocra_makespan,
            self.speedup()
        )?;
        for (label, schedule) in [
            ("Read-in-Batch", &self.batch_schedule),
            ("One-Cycle", &self.ocra_schedule),
        ] {
            writeln!(f, "  {label}:")?;
            for e in schedule {
                writeln!(
                    f,
                    "    SU{} read {:2}: [{:4}, {:4})",
                    e.unit, e.read, e.start, e.end
                )?;
            }
        }
        writeln!(f, "Fig. 6 — PopCount tree sizing")?;
        writeln!(f, "  units  depth  1 GHz")?;
        for &(units, depth, fits) in &self.tree_table {
            writeln!(
                f,
                "  {units:5}  {depth:5}  {}",
                if fits { "yes" } else { "no" }
            )?;
        }
        Ok(())
    }
}

/// Simulates a pool of `units` SUs over per-read durations under a
/// strategy; returns the schedule and makespan.
pub fn simulate_schedule(
    units: usize,
    read_times: &[Cycle],
    strategy: Strategy,
) -> (Vec<ScheduleEntry>, Cycle) {
    let ocra = OneCycleReadAllocator::new(units);
    let batch = BatchScheduler::new(units);
    let mut free_at: Vec<Cycle> = vec![0; units];
    let mut schedule = Vec::new();
    let mut now: Cycle = 0;
    while schedule.len() < read_times.len() {
        let next_read = schedule.len() as u64;
        let mut idle = vec![0u64; units.div_ceil(64)];
        for (unit, _) in free_at.iter().enumerate().filter(|(_, &t)| t <= now) {
            idle[unit / 64] |= 1 << (unit % 64);
        }
        let remaining = read_times.len() as u64 - next_read;
        let grants: Vec<(usize, u64)> = match strategy {
            Strategy::ReadInBatch => batch.allocate(&idle, next_read, remaining).collect(),
            Strategy::OneCycle => ocra.allocate(&idle, next_read, remaining).collect(),
        };
        for (unit, read) in grants {
            let start = now + 1; // the allocation cycle
            let end = start + read_times[read as usize];
            free_at[unit] = end;
            schedule.push(ScheduleEntry {
                unit,
                read,
                start,
                end,
            });
        }
        // Advance to the next completion.
        now = free_at
            .iter()
            .copied()
            .filter(|&t| t > now)
            .min()
            .unwrap_or(now + 1);
    }
    let makespan = schedule.iter().map(|e| e.end).max().unwrap_or(0);
    (schedule, makespan)
}

/// Runs the Fig. 5/6 experiment on the paper-style toy workload.
pub fn run() -> Fig5 {
    // Diverse per-read times echoing Fig. 5's sketch: within each batch of
    // four, one straggler dominates.
    let read_times: Vec<Cycle> = vec![90, 40, 60, 35, 55, 30, 80, 25, 45, 70, 20, 50];
    let (batch_schedule, batch_makespan) = simulate_schedule(4, &read_times, Strategy::ReadInBatch);
    let (ocra_schedule, ocra_makespan) = simulate_schedule(4, &read_times, Strategy::OneCycle);
    let tree_table = [64usize, 128, 256, 512]
        .iter()
        .map(|&units| {
            let tree = PopcountTree::new(units);
            (units, tree.depth(), tree.fits_one_cycle(1.0, 100.0))
        })
        .collect();
    Fig5 {
        read_times,
        batch_schedule,
        batch_makespan,
        ocra_schedule,
        ocra_makespan,
        tree_table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_beats_batch_on_diverse_reads() {
        let fig = run();
        assert!(
            fig.ocra_makespan < fig.batch_makespan,
            "ocra {} vs batch {}",
            fig.ocra_makespan,
            fig.batch_makespan
        );
        assert!(fig.speedup() > 1.1);
    }

    #[test]
    fn both_schedules_cover_all_reads_exactly_once() {
        let fig = run();
        for schedule in [&fig.batch_schedule, &fig.ocra_schedule] {
            let mut reads: Vec<u64> = schedule.iter().map(|e| e.read).collect();
            reads.sort_unstable();
            let expected: Vec<u64> = (0..fig.read_times.len() as u64).collect();
            assert_eq!(reads, expected);
        }
    }

    #[test]
    fn batch_never_overlaps_batches() {
        // Under Read-in-Batch, every read of batch k starts only after all
        // of batch k-1 finished.
        let fig = run();
        let mut by_batch: Vec<(Cycle, Cycle)> = Vec::new();
        for chunk in fig.batch_schedule.chunks(4) {
            let start = chunk.iter().map(|e| e.start).min().unwrap();
            let end = chunk.iter().map(|e| e.end).max().unwrap();
            by_batch.push((start, end));
        }
        for w in by_batch.windows(2) {
            assert!(w[1].0 >= w[0].1, "batches overlap: {w:?}");
        }
    }

    #[test]
    fn identical_read_times_make_strategies_equal() {
        let times = vec![50u64; 8];
        let (_, batch) = simulate_schedule(4, &times, Strategy::ReadInBatch);
        let (_, ocra) = simulate_schedule(4, &times, Strategy::OneCycle);
        assert_eq!(batch, ocra);
    }

    #[test]
    fn tree_table_matches_paper_depths() {
        let fig = run();
        assert_eq!(fig.tree_table[0], (64, 6, true));
        assert_eq!(fig.tree_table[3], (512, 9, true));
    }
}
