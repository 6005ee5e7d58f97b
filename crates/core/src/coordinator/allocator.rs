//! The greedy Hits Allocator and the Allocate Judger (Fig. 10).
//!
//! The allocator implements steps ②–⑥ of the Coordinator dataflow: compute
//! each hit's length, sort the batch, split it by the group thresholds,
//! group the EU classes pairwise, and assign every hit to the optimal or a
//! near-optimal idle unit inside its group. Steps ⑦–⑨ (merge, compaction,
//! write-back) belong to [`super::hits_buffer::HitsBuffer::complete_round`].
//!
//! The two "basic resource allocation methods" the paper analyses and
//! rejects (Sec. IV-D) are available as [`AllocPolicy::StrictPerClass`] and
//! [`AllocPolicy::FullyShared`] for the ablation property tests.

use nvwa_sim::Cycle;

use crate::config::EuClass;
use crate::extension::systolic::matrix_fill_latency;
use crate::interface::Hit;

/// Resource-allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// NvWa's policy: classes are merged into groups (adjacent pairs); a
    /// hit may take the optimal class or a neighbour inside its group.
    GroupedGreedy,
    /// Basic method (1): a hit may only take a unit of its exact class.
    StrictPerClass,
    /// Basic method (2): a hit may take any idle unit.
    FullyShared,
}

/// An idle extension unit offered to the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleEu {
    /// Global unit index.
    pub unit_idx: usize,
    /// PE count.
    pub pes: u32,
}

/// One hit→unit assignment produced by a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index of the hit within the presented batch.
    pub batch_slot: usize,
    /// The unit receiving the hit.
    pub unit: IdleEu,
}

/// The Hits Allocator.
#[derive(Debug, Clone)]
pub struct HitsAllocator {
    policy: AllocPolicy,
    /// Class PE sizes, ascending.
    class_pes: Vec<u32>,
    /// Group id per class (adjacent pairs under `GroupedGreedy`).
    group_of_class: Vec<usize>,
    /// A round's working set, kept so that a round allocates nothing.
    round: Round,
}

#[derive(Debug, Clone, Default)]
struct Round {
    /// `(u32::MAX − hit length) << 32 | batch slot`: longest hit first, ties
    /// in batch order, as `(Reverse(len), slot)` sorted.
    order: Vec<u64>,
    /// Class of each unit of the caller's idle list, position for position.
    idle_class: Vec<usize>,
    /// Per class: idle units left, the current hit's Formula-3 latency there
    /// (`Cycle::MAX` where it may not run or no unit is idle), and whether
    /// its hits have a permitted class with an idle unit.
    classes: Vec<(u32, Cycle, bool)>,
    allocated: Vec<bool>,
    assignments: Vec<Assignment>,
}

impl HitsAllocator {
    /// Creates an allocator for the given EU classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or PE sizes are not strictly
    /// increasing.
    pub fn new(classes: &[EuClass], policy: AllocPolicy) -> HitsAllocator {
        assert!(!classes.is_empty(), "need at least one EU class");
        let class_pes: Vec<u32> = classes.iter().map(|c| c.pes).collect();
        assert!(
            class_pes.windows(2).all(|w| w[0] < w[1]),
            "class PE sizes must be strictly increasing"
        );
        // Step ⑤: group classes pairwise ({16,32} and {64,128} in the
        // paper's four-class configuration).
        let group_of_class = (0..class_pes.len()).map(|i| i / 2).collect();
        HitsAllocator {
            policy,
            class_pes,
            group_of_class,
            round: Round::default(),
        }
    }

    /// The optimal class for a hit of length `len`: the smallest class
    /// whose PE count covers it (longer hits map to the largest class).
    pub fn class_of_len(&self, len: u32) -> usize {
        self.class_pes
            .iter()
            .position(|&p| len <= p)
            .unwrap_or(self.class_pes.len() - 1)
    }

    /// The class index of a unit with `pes` PEs.
    ///
    /// # Panics
    ///
    /// Panics if no class has that PE count.
    pub fn class_of_pes(&self, pes: u32) -> usize {
        self.class_pes
            .iter()
            .position(|&p| p == pes)
            .expect("unit PE count must match a class")
    }

    /// Runs one allocation round: assigns each batch hit to an idle unit
    /// under the policy. Consumed units are removed from `idle`.
    ///
    /// Returns `(per-slot allocated flags, assignments)`, valid until the
    /// next round; the flags feed
    /// [`super::hits_buffer::HitsBuffer::complete_round`].
    ///
    /// Per-class idle counts stand in for the hardware's PopCount tree, and a
    /// per-class flag says whether a hit of the class can be placed. Counts
    /// only fall during a round, so an unflagged hit is dropped before the
    /// sort and passed over after it, the flags change only when a class runs
    /// out, and the round ends when none is left. Formula 3 is evaluated once
    /// per (hit, class); the unit taken is the first of least latency in `idle`.
    pub fn allocate(&mut self, batch: &[Hit], idle: &mut Vec<IdleEu>) -> (&[bool], &[Assignment]) {
        assert!(batch.len() < 1 << 32, "a batch slot must fit a sort key");
        let mut round = std::mem::take(&mut self.round);
        round.idle_class.clear();
        round
            .idle_class
            .extend(idle.iter().map(|u| self.class_of_pes(u.pes)));
        round.classes.clear();
        round.classes.resize(self.class_pes.len(), (0, 0, false));
        for &c in &round.idle_class {
            round.classes[c].0 += 1;
        }
        self.flag_placeable(&mut round.classes);
        // Steps ②–③: compute lengths and sort (longest first, so large
        // units are claimed by the hits that need them; ties in batch order).
        round.order.clear();
        round.order.extend(
            (batch.iter().enumerate())
                .filter(|(_, hit)| round.classes[self.class_of_len(hit.hit_len())].2)
                .map(|(slot, hit)| u64::from(u32::MAX - hit.hit_len()) << 32 | slot as u64),
        );
        round.order.sort_unstable();
        round.allocated.clear();
        round.allocated.resize(batch.len(), false);
        round.assignments.clear();
        for &key in &round.order {
            let cls = self.class_of_len(u32::MAX - (key >> 32) as u32);
            if !round.classes[cls].2 {
                continue;
            }
            let slot = key as u32 as usize;
            let hit = &batch[slot];
            let (r, q) = (hit.ref_len.max(1) as u64, hit.query_len.max(1) as u64);
            // Steps ④–⑥: the best idle unit permitted by the policy.
            let mut best = Cycle::MAX;
            for (c, (left, latency, _)) in round.classes.iter_mut().enumerate() {
                let open = *left > 0 && self.permits(cls, c);
                *latency = if open {
                    matrix_fill_latency(r, q, self.class_pes[c])
                } else {
                    Cycle::MAX
                };
                best = best.min(*latency);
            }
            let i = (round.idle_class.iter())
                .position(|&c| round.classes[c].1 == best)
                .expect("a flagged class has a permitted class with an idle unit");
            let taken = round.idle_class.swap_remove(i);
            round.classes[taken].0 -= 1;
            round.allocated[slot] = true;
            round.assignments.push(Assignment {
                batch_slot: slot,
                unit: idle.swap_remove(i),
            });
            if round.classes[taken].0 == 0 && !self.flag_placeable(&mut round.classes) {
                break;
            }
        }
        self.round = round;
        (&self.round.allocated, &self.round.assignments)
    }

    /// Flags the classes whose hits can be placed; returns whether any can.
    fn flag_placeable(&self, classes: &mut [(u32, Cycle, bool)]) -> bool {
        for cls in 0..classes.len() {
            classes[cls].2 = (0..classes.len()).any(|c| classes[c].0 > 0 && self.permits(cls, c));
        }
        classes.iter().any(|&(.., placeable)| placeable)
    }

    /// Whether a hit of class `cls` may run on a unit of class `unit_cls`.
    fn permits(&self, cls: usize, unit_cls: usize) -> bool {
        match self.policy {
            AllocPolicy::GroupedGreedy => self.group_of_class[cls] == self.group_of_class[unit_cls],
            AllocPolicy::StrictPerClass => cls == unit_cls,
            AllocPolicy::FullyShared => true,
        }
    }
}

/// The Allocate Judger: debounces scheduling requests so only one
/// allocation round is in flight at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocateJudger {
    in_flight: bool,
}

impl AllocateJudger {
    /// Creates an idle judger.
    pub fn new() -> AllocateJudger {
        AllocateJudger::default()
    }

    /// Receives a request from the Allocate Trigger; returns `true` when a
    /// new round should start.
    pub fn request(&mut self) -> bool {
        if self.in_flight {
            false
        } else {
            self.in_flight = true;
            true
        }
    }

    /// Marks the in-flight round complete.
    pub fn complete(&mut self) {
        self.in_flight = false;
    }

    /// Whether a round is currently in flight.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(len: u32) -> Hit {
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

    fn paper_classes() -> Vec<EuClass> {
        vec![
            EuClass::new(16, 28),
            EuClass::new(32, 20),
            EuClass::new(64, 16),
            EuClass::new(128, 6),
        ]
    }

    fn idle_one_per_class() -> Vec<IdleEu> {
        vec![
            IdleEu {
                unit_idx: 0,
                pes: 16,
            },
            IdleEu {
                unit_idx: 1,
                pes: 32,
            },
            IdleEu {
                unit_idx: 2,
                pes: 64,
            },
            IdleEu {
                unit_idx: 3,
                pes: 128,
            },
        ]
    }

    #[test]
    fn class_mapping_follows_intervals() {
        let a = HitsAllocator::new(&paper_classes(), AllocPolicy::GroupedGreedy);
        assert_eq!(a.class_of_len(7), 0);
        assert_eq!(a.class_of_len(16), 0);
        assert_eq!(a.class_of_len(17), 1);
        assert_eq!(a.class_of_len(64), 2);
        assert_eq!(a.class_of_len(103), 3);
        assert_eq!(a.class_of_len(500), 3); // beyond the largest class
    }

    #[test]
    fn fig10_example_assignments() {
        // Batch (7, 29, 40, 103) with one idle unit per class: 7 → 16-PE,
        // 29 → 32-PE, 103 → 128-PE; 40 wants the {64,128} group? No — 40
        // maps to class 64, group {64,128}: with 103 taking 128 and the
        // 64-PE unit free, 40 lands on 64. With the 64-PE unit busy, 40 is
        // the fragmentation survivor.
        let mut a = HitsAllocator::new(&paper_classes(), AllocPolicy::GroupedGreedy);
        let batch = vec![hit(7), hit(29), hit(40), hit(103)];
        let mut idle = idle_one_per_class();
        let (allocated, assignments) = a.allocate(&batch, &mut idle);
        assert_eq!(allocated, vec![true, true, true, true]);
        assert!(idle.is_empty());
        let unit_for = |slot: usize| {
            assignments
                .iter()
                .find(|x| x.batch_slot == slot)
                .unwrap()
                .unit
                .pes
        };
        assert_eq!(unit_for(0), 16);
        assert_eq!(unit_for(1), 32);
        assert_eq!(unit_for(2), 64);
        assert_eq!(unit_for(3), 128);
    }

    #[test]
    fn fragmentation_when_group_is_busy() {
        // Only the 16-PE unit is idle: hit 40 (class 64, group {64,128})
        // cannot be placed and survives the round.
        let mut a = HitsAllocator::new(&paper_classes(), AllocPolicy::GroupedGreedy);
        let batch = vec![hit(40)];
        let mut idle = vec![IdleEu {
            unit_idx: 0,
            pes: 16,
        }];
        let (allocated, _) = a.allocate(&batch, &mut idle);
        assert_eq!(allocated, vec![false]);
        assert_eq!(idle.len(), 1);
    }

    #[test]
    fn grouped_greedy_uses_suboptimal_neighbour() {
        // The 16-PE unit is busy; a short hit may take the 32-PE neighbour
        // (same group) — the "sub-optimal" allocation of the paper.
        let mut a = HitsAllocator::new(&paper_classes(), AllocPolicy::GroupedGreedy);
        let batch = vec![hit(10)];
        let mut idle = vec![
            IdleEu {
                unit_idx: 1,
                pes: 32,
            },
            IdleEu {
                unit_idx: 2,
                pes: 64,
            },
        ];
        let (allocated, assignments) = a.allocate(&batch, &mut idle);
        assert_eq!(allocated, vec![true]);
        assert_eq!(assignments[0].unit.pes, 32);
    }

    #[test]
    fn strict_policy_never_crosses_classes() {
        let mut a = HitsAllocator::new(&paper_classes(), AllocPolicy::StrictPerClass);
        let batch = vec![hit(10)];
        let mut idle = vec![IdleEu {
            unit_idx: 1,
            pes: 32,
        }];
        let (allocated, _) = a.allocate(&batch, &mut idle);
        assert_eq!(allocated, vec![false]);
    }

    #[test]
    fn shared_policy_takes_anything() {
        let mut a = HitsAllocator::new(&paper_classes(), AllocPolicy::FullyShared);
        let batch = vec![hit(10)];
        let mut idle = vec![IdleEu {
            unit_idx: 3,
            pes: 128,
        }];
        let (allocated, assignments) = a.allocate(&batch, &mut idle);
        assert_eq!(allocated, vec![true]);
        assert_eq!(assignments[0].unit.pes, 128);
    }

    #[test]
    fn longest_hits_claim_large_units_first() {
        // Without longest-first ordering, hit 70 would take the 128-PE unit
        // and hit 120 would fragment.
        let mut a = HitsAllocator::new(&paper_classes(), AllocPolicy::GroupedGreedy);
        let batch = vec![hit(70), hit(120)];
        let mut idle = vec![
            IdleEu {
                unit_idx: 2,
                pes: 64,
            },
            IdleEu {
                unit_idx: 3,
                pes: 128,
            },
        ];
        let (allocated, assignments) = a.allocate(&batch, &mut idle);
        assert_eq!(allocated, vec![true, true]);
        let unit_for = |slot: usize| {
            assignments
                .iter()
                .find(|x| x.batch_slot == slot)
                .unwrap()
                .unit
                .pes
        };
        assert_eq!(unit_for(1), 128);
        assert_eq!(unit_for(0), 64);
    }

    #[test]
    fn judger_debounces() {
        let mut j = AllocateJudger::new();
        assert!(j.request());
        assert!(!j.request());
        assert!(j.in_flight());
        j.complete();
        assert!(j.request());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_classes_rejected() {
        let classes = vec![EuClass::new(64, 1), EuClass::new(16, 1)];
        let _ = HitsAllocator::new(&classes, AllocPolicy::GroupedGreedy);
    }
}
