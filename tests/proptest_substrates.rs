//! Property-based tests over the core substrates: the index structures and
//! aligners must agree with brute-force oracles on arbitrary inputs, and
//! the scheduler components must preserve their invariants under arbitrary
//! status patterns. The simulator's hot substrates — the event queue, the
//! HBM channel calendar, the scratchpad's residency table and the Hits
//! Allocator's round — are compared with the plain bodies they replaced,
//! which live on here as reference models.

use std::collections::{BTreeMap, HashSet, VecDeque};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nvwa::align::scoring::Scoring;
use nvwa::align::sw::{extend_align, global_align, local_align};
use nvwa::core::coordinator::allocator::{AllocPolicy, Assignment, HitsAllocator, IdleEu};
use nvwa::core::extension::systolic::{matrix_fill_latency, SystolicArray};
use nvwa::core::seeding::{BatchScheduler, OneCycleReadAllocator};
use nvwa::core::{EuClass, Hit};
use nvwa::genome::DnaSeq;
use nvwa::index::trace::NullTrace;
use nvwa::index::{FmIndex, FmdIndex};
use nvwa::sim::{EventQueue, Hbm, HbmConfig, Scratchpad};

fn codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 1..=max_len)
}

/// The event queue `EventQueue` had before its heap: a FIFO bucket per
/// distinct cycle in an ordered map.
#[derive(Default)]
struct BucketQueue {
    buckets: BTreeMap<u64, VecDeque<u32>>,
}

impl BucketQueue {
    fn push(&mut self, cycle: u64, payload: u32) {
        self.buckets.entry(cycle).or_default().push_back(payload);
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let mut entry = self.buckets.first_entry()?;
        let cycle = *entry.key();
        let payload = entry
            .get_mut()
            .pop_front()
            .expect("bucket never left empty");
        if entry.get().is_empty() {
            entry.remove();
        }
        Some((cycle, payload))
    }

    fn len(&self) -> usize {
        self.buckets.values().map(VecDeque::len).sum()
    }
}

/// Packs `idle` into the idle word the read schedulers take; the bits past
/// the pool are set, as in Fig. 6's inverted status, and must be ignored.
fn idle_word(idle: &[bool]) -> Vec<u64> {
    let mut words = vec![u64::MAX; idle.len().div_ceil(64)];
    for (i, _) in idle.iter().enumerate().filter(|(_, &on)| !on) {
        words[i / 64] &= !(1 << (i % 64));
    }
    words
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

/// The residency set `Scratchpad` had before its hashed tables.
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
        let idle: Vec<bool> = busy.iter().map(|b| !b).collect();
        let grants: Vec<(usize, u64)> = ocra.allocate(&idle_word(&idle), offset, u64::MAX).collect();
        // Busy units receive nothing; idle units receive consecutive reads
        // from the offset, in index order.
        let idle_units: Vec<usize> = (0..busy.len()).filter(|&u| !busy[u]).collect();
        prop_assert_eq!(grants.iter().map(|g| g.0).collect::<Vec<_>>(), idle_units);
        for (k, &(_, read)) in grants.iter().enumerate() {
            prop_assert_eq!(read, offset + k as u64);
        }
    }

    #[test]
    fn read_schedulers_on_the_idle_word_match_the_datapath_and_formulas(
        width in 1usize..=130,
        seed in any::<u64>(),
        next_read in 0u64..1000,
        remaining_pick in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Sparse, even, dense and full status patterns; a full pool may keep
        // its last unit busy (a straggler at the Read-in-Batch barrier, in
        // the last word).
        let density = [0.05, 0.5, 0.95, 1.0][rng.gen_range(0usize..4)];
        let mut idle: Vec<bool> = (0..width).map(|_| rng.gen_bool(density)).collect();
        if density == 1.0 && rng.gen_bool(0.5) {
            idle[width - 1] = false;
        }
        let idle_count = idle.iter().filter(|&&on| on).count() as u64;
        let remaining = [0, 1, idle_count / 2, idle_count, u64::MAX][remaining_pick];
        let words = idle_word(&idle);

        // OCRA: unit i, if idle, receives g + Σ_{k<i} idle_k while that
        // stays under `remaining` (Formula 1); g advances by the number of
        // grants (Formula 2).
        let ocra = OneCycleReadAllocator::new(width);
        let grants: Vec<(usize, u64)> = ocra.allocate(&words, next_read, remaining).collect();
        let mut formula = Vec::new();
        let mut idle_before = 0u64;
        for (unit, &on) in idle.iter().enumerate() {
            if on {
                if idle_before < remaining {
                    formula.push((unit, next_read + idle_before));
                }
                idle_before += 1;
            }
        }
        prop_assert_eq!(&grants, &formula);
        prop_assert_eq!(next_read + grants.len() as u64, next_read + idle_count.min(remaining));
        let status: Vec<u64> = words.iter().map(|w| !w).collect();
        let (assigned, next) = ocra.allocate_bit_parallel(&status, next_read, remaining);
        let datapath: Vec<(usize, u64)> =
            (assigned.iter().enumerate()).filter_map(|(u, a)| a.map(|r| (u, r))).collect();
        prop_assert_eq!(&grants, &datapath);
        prop_assert_eq!(next, next_read + grants.len() as u64);

        // Read-in-Batch: the whole pool, capped, when every unit is idle;
        // otherwise nothing.
        let batch: Vec<(usize, u64)> =
            BatchScheduler::new(width).allocate(&words, next_read, remaining).collect();
        let expected: Vec<(usize, u64)> = if idle_count == width as u64 {
            (0..width).take(remaining.min(width as u64) as usize).map(|u| (u, next_read + u as u64)).collect()
        } else {
            Vec::new()
        };
        prop_assert_eq!(batch, expected);
    }

    #[test]
    fn event_queue_matches_the_cycle_buckets_it_replaced(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut queue, mut oracle) = (EventQueue::new(), BucketQueue::default());
        let mut now = 0u64;
        let mut payload = 0u32;
        let mut push = |queue: &mut EventQueue<u32>, oracle: &mut BucketQueue, cycle: u64| {
            queue.push(cycle, payload);
            oracle.push(cycle, payload);
            payload += 1;
        };
        for _ in 0..300 {
            match rng.gen_range(0u32..10) {
                // A long run of pushes on one cycle.
                0 => {
                    let cycle = now + rng.gen_range(0u64..8);
                    for _ in 0..rng.gen_range(20u32..200) {
                        push(&mut queue, &mut oracle, cycle);
                    }
                }
                1..=4 => push(&mut queue, &mut oracle, now + rng.gen_range(0u64..50)),
                5 | 6 => {
                    let got = queue.pop();
                    prop_assert_eq!(got, oracle.pop());
                    if let Some((cycle, _)) = got {
                        now = cycle;
                    }
                }
                // The simulator's drain: pop one event at a time,
                // scheduling some events at the drained cycle mid-drain;
                // each pops after every event already queued there and
                // before any later cycle. The first event of a later
                // cycle ends the drain.
                _ => {
                    let mut drained = None;
                    loop {
                        let got = queue.pop();
                        prop_assert_eq!(got, oracle.pop());
                        let Some((cycle, _)) = got else { break };
                        now = cycle;
                        if *drained.get_or_insert(cycle) != cycle {
                            break;
                        }
                        if rng.gen_bool(0.3) {
                            push(&mut queue, &mut oracle, now);
                        }
                        if rng.gen_bool(0.2) {
                            push(&mut queue, &mut oracle, now + rng.gen_range(1u64..5));
                        }
                    }
                }
            }
            prop_assert_eq!(queue.len(), oracle.len());
            prop_assert_eq!(queue.is_empty(), oracle.len() == 0);
            prop_assert_eq!(queue.peek_cycle(), oracle.buckets.keys().next().copied());
        }
        while let Some(got) = queue.pop() {
            prop_assert_eq!(Some(got), oracle.pop());
        }
        prop_assert_eq!(oracle.pop(), None);
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
                // The SU model's use: access, which fills on a miss.
                _ => {
                    let hit = oracle.access(block);
                    prop_assert_eq!(spm.access(block), hit.then_some(3));
                    if !hit {
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
