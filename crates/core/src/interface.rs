//! The unified interface (Table III).
//!
//! NvWa is "loosely coupled": the scheduling components never inspect the
//! internals of the SUs/EUs, only the data records and control states
//! defined here. Any seeding or extension algorithm that speaks this
//! interface (FM-index, ERT, hash, D-SOFT on the seeding side; systolic SW,
//! GenASM, Silla on the extension side) can sit behind the schedulers —
//! that is the paper's answer to algorithmic obsolescence (Sec. VI).

/// Control state of a computing unit (Table III control interface; EUs
/// additionally expose `pe_number`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitStatus {
    /// Ready to accept work.
    Idle,
    /// Executing.
    Busy,
    /// Suspended on a full hits buffer (Fig. 13a): holds work it cannot hand on.
    Stop,
}

/// Data interface, SU input: `[read_idx, read_metadata]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SuInput {
    /// Global read index.
    pub read_idx: u64,
    /// Read metadata (length in bases).
    pub read_len: u32,
}

/// Data interface, SU output and EU input: one *hit*
/// (`[read_idx, hit_idx, direction, read_pos, ref_pos]`).
///
/// `read_pos` is the span of the read the hit extends; its length is the
/// `hit_len` the Coordinator sorts and groups on (Fig. 10 step ②). The DP
/// dimensions carried alongside are the execution-driven workload for the
/// EU timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hit {
    /// Read index.
    pub read_idx: u64,
    /// Hit index within the read.
    pub hit_idx: u32,
    /// Direction: `true` for the reverse-complement strand.
    pub direction: bool,
    /// Read span `[start, end)` this hit extends.
    pub read_pos: (u32, u32),
    /// Reference position (flat coordinates).
    pub ref_pos: u64,
    /// DP query dimension for the extension.
    pub query_len: u32,
    /// DP reference dimension for the extension.
    pub ref_len: u32,
}

impl Hit {
    /// The hit length: `read_pos.1 - read_pos.0` (Fig. 10 step ②).
    pub fn hit_len(&self) -> u32 {
        self.read_pos.1 - self.read_pos.0
    }
}

/// Data interface, EU output: the hit plus its alignment result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EuOutput {
    /// The extended hit.
    pub hit: Hit,
    /// Alignment score produced by the extension.
    pub score: i32,
}

/// Control interface of an extension unit: status plus its PE count (the
/// extra `pe_number` signal of Table III that the Coordinator's grouping
/// reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EuControl {
    /// Current status.
    pub status: UnitStatus,
    /// Number of PEs in this unit.
    pub pe_number: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_len_is_read_span() {
        let h = Hit {
            read_idx: 1,
            hit_idx: 0,
            direction: false,
            read_pos: (10, 47),
            ref_pos: 1000,
            query_len: 37,
            ref_len: 49,
        };
        assert_eq!(h.hit_len(), 37);
    }

    #[test]
    fn statuses_are_distinct() {
        assert_ne!(UnitStatus::Idle, UnitStatus::Busy);
        assert_ne!(UnitStatus::Busy, UnitStatus::Stop);
    }

    #[test]
    fn eu_control_carries_pe_number() {
        let c = EuControl {
            status: UnitStatus::Idle,
            pe_number: 64,
        };
        assert_eq!(c.pe_number, 64);
    }
}
