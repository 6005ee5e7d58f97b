//! Property-based tests over the core substrates: the index structures and
//! aligners must agree with brute-force oracles on arbitrary inputs, and
//! the scheduler components must preserve their invariants under arbitrary
//! status patterns. The simulator's three hot substrates — the HBM channel
//! calendar, the scratchpad's residency table and the Hits Allocator's
//! round — are compared with the plain bodies they replaced, which live on
//! here as reference models.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nvwa::align::scoring::Scoring;
use nvwa::align::sw::{extend_align, global_align, local_align};
use nvwa::core::coordinator::allocator::{AllocPolicy, Assignment, HitsAllocator, IdleEu};
use nvwa::core::extension::systolic::{matrix_fill_latency, SystolicArray};
use nvwa::core::seeding::OneCycleReadAllocator;
use nvwa::core::{EuClass, Hit};
use nvwa::genome::DnaSeq;
use nvwa::index::trace::NullTrace;
use nvwa::index::{FmIndex, FmdIndex};
use nvwa::sim::{Hbm, HbmConfig, Scratchpad};

fn codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 1..=max_len)
}

/// The channel calendar `Hbm` had before its bitset: a hash set of booked
/// slots per channel, walked one `contains` at a time (never pruned here).
struct SetCalendarHbm {
    config: HbmConfig,
    occupied: Vec<HashSet<u64>>,
    requests: u64,
    queue_delay_total: u64,
}

impl SetCalendarHbm {
    fn new(config: HbmConfig) -> SetCalendarHbm {
        SetCalendarHbm {
            occupied: vec![HashSet::new(); config.channels],
            config,
            requests: 0,
            queue_delay_total: 0,
        }
    }

    fn request(&mut self, now: u64, addr: u64) -> u64 {
        let ch = (addr as usize) % self.config.channels;
        let service = self.config.service_interval;
        let mut slot = now.div_ceil(service);
        while self.occupied[ch].contains(&slot) {
            slot += 1;
        }
        self.occupied[ch].insert(slot);
        self.requests += 1;
        self.queue_delay_total += slot * service - now;
        slot * service + self.config.latency
    }
}

/// The residency set `Scratchpad` had before its open-addressed table.
struct SetScratchpad {
    capacity: usize,
    resident: HashSet<u64>,
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
}

impl SetScratchpad {
    fn fill(&mut self, block: u64) {
        if self.resident.contains(&block) {
            return;
        }
        if self.resident.len() == self.capacity {
            let old = self.order.pop_front().expect("full means non-empty");
            self.resident.remove(&old);
        }
        self.resident.insert(block);
        self.order.push_back(block);
    }

    fn access(&mut self, block: u64) -> bool {
        let hit = self.resident.contains(&block);
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }
}

/// `HitsAllocator::allocate` before the per-class idle counts: every hit
/// scans the whole idle list and evaluates Formula 3 per candidate unit.
fn scan_allocate(
    policy: AllocPolicy,
    class_pes: &[u32],
    batch: &[Hit],
    idle: &mut Vec<IdleEu>,
) -> (Vec<bool>, Vec<Assignment>) {
    let class_of_len =
        |len: u32| (class_pes.iter().position(|&p| len <= p)).unwrap_or(class_pes.len() - 1);
    let class_of_pes = |pes: u32| class_pes.iter().position(|&p| p == pes).unwrap();
    let permits = |cls: usize, pes: u32| match policy {
        AllocPolicy::GroupedGreedy => cls / 2 == class_of_pes(pes) / 2,
        AllocPolicy::StrictPerClass => cls == class_of_pes(pes),
        AllocPolicy::FullyShared => true,
    };
    let mut order: Vec<usize> = (0..batch.len()).collect();
    order.sort_by(|&a, &b| batch[b].hit_len().cmp(&batch[a].hit_len()));
    let mut allocated = vec![false; batch.len()];
    let mut assignments = Vec::new();
    for slot in order {
        let hit = &batch[slot];
        let cls = class_of_len(hit.hit_len());
        let candidate = idle
            .iter()
            .enumerate()
            .filter(|(_, u)| permits(cls, u.pes))
            .min_by_key(|(_, u)| {
                matrix_fill_latency(
                    hit.ref_len.max(1) as u64,
                    hit.query_len.max(1) as u64,
                    u.pes,
                )
            })
            .map(|(i, _)| i);
        if let Some(i) = candidate {
            allocated[slot] = true;
            assignments.push(Assignment {
                batch_slot: slot,
                unit: idle.swap_remove(i),
            });
        }
    }
    (allocated, assignments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fm_index_counts_match_naive(text in codes(300), pattern in codes(6)) {
        let fm = FmIndex::from_text(&text);
        let naive = if pattern.len() > text.len() { 0 } else {
            text.windows(pattern.len()).filter(|w| *w == pattern.as_slice()).count() as u64
        };
        let got = fm.search(&pattern, &mut NullTrace).map(|i| i.len()).unwrap_or(0);
        prop_assert_eq!(got, naive);
    }

    #[test]
    fn fmd_bi_interval_symmetry(text in codes(200), pattern in codes(8)) {
        let fmd = FmdIndex::from_forward(&text);
        if let Some(bi) = fmd.search(&pattern, &mut NullTrace) {
            let rc: Vec<u8> = pattern.iter().rev().map(|&c| 3 - c).collect();
            let rc_bi = fmd.search(&rc, &mut NullTrace);
            prop_assert_eq!(rc_bi, Some(bi.swapped()));
        }
    }

    #[test]
    fn revcomp_is_involutive(text in codes(500)) {
        let seq = DnaSeq::from_codes(text);
        prop_assert_eq!(seq.revcomp().revcomp(), seq);
    }

    #[test]
    fn local_alignment_score_is_cigar_score(q in codes(40), t in codes(40)) {
        let scoring = Scoring::bwa_mem();
        let a = local_align(&q, &t, &scoring);
        prop_assert_eq!(a.cigar.score(&scoring), a.score);
        prop_assert!(a.score >= 0);
        // Local alignment never scores above the shorter sequence's
        // perfect-match score.
        prop_assert!(a.score <= q.len().min(t.len()) as i32);
    }

    #[test]
    fn extension_never_beats_local(q in codes(30), t in codes(30)) {
        let scoring = Scoring::bwa_mem();
        let local = local_align(&q, &t, &scoring);
        let ext = extend_align(&q, &t, &scoring);
        // The anchored extension is a constrained version of local
        // alignment: it can never score higher.
        prop_assert!(ext.score <= local.score);
        prop_assert_eq!(ext.cigar.score(&scoring), ext.score);
    }

    #[test]
    fn global_alignment_consumes_everything(q in codes(25), t in codes(25)) {
        let scoring = Scoring::bwa_mem();
        let g = global_align(&q, &t, &scoring);
        prop_assert_eq!(g.cigar.query_len(), q.len());
        prop_assert_eq!(g.cigar.target_len(), t.len());
        prop_assert_eq!(g.cigar.score(&scoring), g.score);
        // Global is at most the extension optimum (extension may clip).
        let ext = extend_align(&q, &t, &scoring);
        prop_assert!(g.score <= ext.score);
    }

    #[test]
    fn systolic_matches_software_and_formula(
        q in codes(40),
        t in codes(40),
        pes in 1u32..40,
    ) {
        let scoring = Scoring::bwa_mem();
        let run = SystolicArray::new(pes).run(&q, &t, &scoring);
        prop_assert_eq!(run.score, local_align(&q, &t, &scoring).score);
        prop_assert_eq!(
            run.cycles,
            matrix_fill_latency(t.len() as u64, q.len() as u64, pes)
        );
    }

    #[test]
    fn ocra_assignments_are_unique_and_prioritized(
        busy in proptest::collection::vec(any::<bool>(), 1..=96),
        offset in 0u64..1000,
    ) {
        let ocra = OneCycleReadAllocator::new(busy.len());
        let (assigned, next) = ocra.allocate(&busy, offset, u64::MAX);
        // Busy units receive nothing; idle units receive consecutive reads
        // from the offset, in index order.
        let mut expected = offset;
        for (unit, a) in assigned.iter().enumerate() {
            if busy[unit] {
                prop_assert_eq!(*a, None);
            } else {
                prop_assert_eq!(*a, Some(expected));
                expected += 1;
            }
        }
        prop_assert_eq!(next, expected);
        // Bit-parallel microarchitecture agrees.
        prop_assert_eq!(
            ocra.allocate_bit_parallel(&busy, offset, u64::MAX),
            (assigned, next)
        );
    }

    #[test]
    fn hbm_calendar_matches_the_slot_set_it_replaced(
        channels in 1usize..=8,
        service_interval in 1u64..=4,
        seed in any::<u64>(),
    ) {
        let config = HbmConfig { channels, service_interval, ..HbmConfig::default() };
        let (mut hbm, mut oracle) = (Hbm::new(config), SetCalendarHbm::new(config));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut check = |now: u64, addr: u64| {
            prop_assert_eq!(hbm.request(now, addr), oracle.request(now, addr), "now {now} addr {addr}");
        };
        for _ in 0..100 {
            // `now` is not monotone: the simulator books a read's whole
            // chain ahead, and later reads book earlier slots.
            let now = rng.gen_range(0u64..30_000);
            match rng.gen_range(0u32..20) {
                // A burst on one channel filling three or more 64-slot words.
                0 => {
                    let addr = rng.gen_range(0u64..1 << 22);
                    for _ in 0..rng.gen_range(192u32..300) {
                        check(now, addr);
                    }
                }
                // A request whose first slot is the first bit of a word.
                1 => check(rng.gen_range(0u64..200) * 64 * service_interval, rng.gen_range(0u64..64)),
                _ => check(now, rng.gen_range(0u64..1 << 22)),
            }
        }
        prop_assert_eq!(hbm.requests(), oracle.requests);
        prop_assert_eq!(hbm.total_queue_delay(), oracle.queue_delay_total);
    }

    #[test]
    fn scratchpad_matches_the_hash_set_it_replaced(
        capacity_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let capacity = [1usize, 2, 7, 8192][capacity_pick];
        let mut spm = Scratchpad::new(capacity, 3);
        let mut oracle = SetScratchpad {
            capacity,
            resident: HashSet::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        // A pool three times the capacity, so blocks recur while resident,
        // after eviction, and never; ids span 40 bits.
        let pool: Vec<u64> = (0..3 * capacity).map(|_| rng.gen_range(0u64..1 << 40)).collect();
        for _ in 0..(6 * capacity).max(200) {
            let block = if rng.gen_bool(0.9) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(0u64..1 << 40)
            };
            match rng.gen_range(0u32..4) {
                0 => prop_assert_eq!(spm.contains(block), oracle.resident.contains(&block)),
                1 => {
                    spm.fill(block);
                    oracle.fill(block);
                }
                // The SU model's use: access, and fill on a miss.
                _ => {
                    let hit = oracle.access(block);
                    prop_assert_eq!(spm.access(block), hit.then_some(3));
                    if !hit {
                        spm.fill(block);
                        oracle.fill(block);
                    }
                }
            }
        }
        prop_assert_eq!((spm.hits(), spm.misses()), (oracle.hits, oracle.misses));
        for &block in &oracle.order {
            prop_assert!(spm.contains(block), "resident block {} lost", block);
        }
    }

    #[test]
    fn allocator_round_matches_the_full_scan_it_replaced(
        class_pick in 0usize..4,
        seed in any::<u64>(),
    ) {
        let class_pes: &[u32] = [&[16, 32, 64, 128][..], &[8, 24, 100], &[16], &[4, 8, 16, 32, 64]][class_pick];
        let classes: Vec<EuClass> = class_pes.iter().map(|&p| EuClass::new(p, 8)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for policy in [AllocPolicy::GroupedGreedy, AllocPolicy::StrictPerClass, AllocPolicy::FullyShared] {
            // One allocator for several rounds: its scratch must carry
            // nothing from one round into the next.
            let mut allocator = HitsAllocator::new(&classes, policy);
            for _ in 0..4 {
                let batch: Vec<Hit> = (0..rng.gen_range(0u32..=32))
                    .map(|hit_idx| {
                        let len = rng.gen_range(1u32..=300);
                        Hit {
                            read_idx: 0,
                            hit_idx,
                            direction: false,
                            read_pos: (0, len),
                            ref_pos: 0,
                            query_len: rng.gen_range(1u32..=300),
                            ref_len: rng.gen_range(1u32..=500),
                        }
                    })
                    .collect();
                // Idle units in shuffled index order, classes repeating.
                let mut idle: Vec<IdleEu> = (0..rng.gen_range(0usize..=24))
                    .map(|unit_idx| IdleEu { unit_idx, pes: class_pes[rng.gen_range(0..class_pes.len())] })
                    .collect();
                for i in (1..idle.len()).rev() {
                    idle.swap(i, rng.gen_range(0..=i));
                }
                let mut oracle_idle = idle.clone();
                let (want_flags, want) = scan_allocate(policy, class_pes, &batch, &mut oracle_idle);
                let (flags, assignments) = allocator.allocate(&batch, &mut idle);
                prop_assert_eq!(flags, &want_flags[..]);
                prop_assert_eq!(assignments, &want[..]);
                prop_assert_eq!(&idle, &oracle_idle);
            }
        }
    }
}
