//! Fig. 9/10 — the hybrid-vs-uniform units toy and the Coordinator
//! dataflow walkthrough.
//!
//! Fig. 9(d): hits (20, 40, 10, 65, 127) on four uniform 64-PE units take
//! 455 cycles; on the hybrid set (16, 16, 32, 64, 128) they take 257.
//! Fig. 10: the batch (7, 29, 40, 103) is allocated with one idle unit per
//! class; hit 40 fragments when its group is busy and is retried at the
//! adjusted offset.

use std::fmt;

use nvwa_sim::Cycle;

use crate::config::EuClass;
use crate::coordinator::allocator::{AllocPolicy, HitsAllocator, IdleEu};
use crate::coordinator::hits_buffer::HitsBuffer;
use crate::extension::hybrid::{queue_makespan, QueuePolicy};
use crate::interface::Hit;

/// The Fig. 9/10 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// The toy hit lengths.
    pub hits: Vec<u32>,
    /// Makespan on four uniform 64-PE units.
    pub uniform_makespan: Cycle,
    /// Makespan on the hybrid (16, 16, 32, 64, 128) units.
    pub hybrid_makespan: Cycle,
    /// Makespan on five 51-PE units (the paper's footnote alternative).
    pub split51_makespan: Cycle,
    /// Fig. 10 walkthrough log lines.
    pub walkthrough: Vec<String>,
}

impl Fig9 {
    /// Hybrid speedup over uniform.
    pub fn speedup(&self) -> f64 {
        self.uniform_makespan as f64 / self.hybrid_makespan as f64
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 9 — hybrid vs uniform units on hits {:?}",
            self.hits
        )?;
        writeln!(
            f,
            "  uniform 4x64 PE : {} cycles (paper: 455)",
            self.uniform_makespan
        )?;
        writeln!(
            f,
            "  hybrid 16/16/32/64/128: {} cycles (paper: 257) → {:.2}x",
            self.hybrid_makespan,
            self.speedup()
        )?;
        writeln!(
            f,
            "  equal-split 5x51 PE   : {} cycles (footnote comparison)",
            self.split51_makespan
        )?;
        writeln!(f, "Fig. 10 — Coordinator walkthrough")?;
        for line in &self.walkthrough {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

fn toy_hit(len: u32) -> Hit {
    Hit {
        read_idx: 0,
        hit_idx: 0,
        direction: false,
        read_pos: (0, len),
        ref_pos: 0,
        query_len: len,
        ref_len: len,
    }
}

/// Replays the Fig. 10 dataflow and returns the narrative log.
pub fn coordinator_walkthrough() -> Vec<String> {
    let mut log = Vec::new();
    let classes = vec![
        EuClass::new(16, 1),
        EuClass::new(32, 1),
        EuClass::new(64, 1),
        EuClass::new(128, 1),
    ];
    let mut allocator = HitsAllocator::new(&classes, AllocPolicy::GroupedGreedy);
    let mut buffer: HitsBuffer<Hit> = HitsBuffer::new(8, 0.5);
    for len in [7u32, 29, 40, 103] {
        buffer.push(toy_hit(len)).expect("buffer has room");
    }
    assert!(buffer.switch());
    log.push("① loaded batch (7, 29, 40, 103) from the PB at offset 0".into());
    log.push("②③ hit lengths computed and sorted (longest first)".into());

    // Round 1: the 64-PE unit is busy (as in the figure), so hit 40 must
    // fragment.
    let mut idle = vec![
        IdleEu {
            unit_idx: 0,
            pes: 16,
        },
        IdleEu {
            unit_idx: 1,
            pes: 32,
        },
        IdleEu {
            unit_idx: 3,
            pes: 128,
        },
    ];
    let batch = buffer.peek_batch(4).to_vec();
    let (flags, assignments) = allocator.allocate(&batch, &mut idle);
    log.push("④⑤ split at the group threshold; units grouped {16,32} / {64,128}".into());
    for a in assignments {
        log.push(format!(
            "⑥ hit len {} → {}-PE unit",
            batch[a.batch_slot].hit_len(),
            a.unit.pes
        ));
    }
    let stats = buffer.complete_round(flags);
    log.push(format!(
        "⑦⑧⑨ merged and compacted: {} allocated, {} kept; offset advanced to {}",
        stats.allocated, stats.unallocated, stats.allocated
    ));

    // Round 2: the 64-PE unit freed; the fragmented hit 40 is retried.
    let survivors = buffer.peek_batch(4).to_vec();
    log.push(format!(
        "next round re-reads the survivor(s): {:?}",
        survivors.iter().map(Hit::hit_len).collect::<Vec<_>>()
    ));
    let mut idle = vec![IdleEu {
        unit_idx: 2,
        pes: 64,
    }];
    let (flags, assignments) = allocator.allocate(&survivors, &mut idle);
    for a in assignments {
        log.push(format!(
            "⑥ retry: hit len {} → {}-PE unit",
            survivors[a.batch_slot].hit_len(),
            a.unit.pes
        ));
    }
    let stats = buffer.complete_round(flags);
    log.push(format!(
        "PB drained: {} allocated, {} remaining",
        stats.allocated,
        buffer.processing_remaining()
    ));
    log
}

/// Runs the Fig. 9/10 experiment.
pub fn run() -> Fig9 {
    let hits = vec![20u32, 40, 10, 65, 127];
    Fig9 {
        uniform_makespan: queue_makespan(&hits, &[64; 4], QueuePolicy::InOrder),
        hybrid_makespan: queue_makespan(
            &hits,
            &[16, 16, 32, 64, 128],
            QueuePolicy::BestFitLongestFirst,
        ),
        split51_makespan: queue_makespan(&hits, &[51; 5], QueuePolicy::InOrder),
        walkthrough: coordinator_walkthrough(),
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_cycle_counts() {
        let fig = run();
        assert_eq!(fig.uniform_makespan, 455);
        assert_eq!(fig.hybrid_makespan, 257);
        assert!(fig.split51_makespan > fig.hybrid_makespan);
        assert!((fig.speedup() - 455.0 / 257.0).abs() < 1e-12);
    }

    #[test]
    fn walkthrough_shows_fragmentation_and_retry() {
        let fig = run();
        let text = fig.walkthrough.join("\n");
        assert!(text.contains("3 allocated, 1 kept"), "{text}");
        assert!(text.contains("offset advanced to 3"), "{text}");
        assert!(text.contains("retry: hit len 40 → 64-PE unit"), "{text}");
        assert!(text.contains("0 remaining"), "{text}");
    }

    #[test]
    fn display_renders() {
        let text = run().to_string();
        assert!(text.contains("455"));
        assert!(text.contains("257"));
    }
}
