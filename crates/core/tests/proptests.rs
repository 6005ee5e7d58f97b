//! Property-based tests on the scheduling components' invariants.

use proptest::prelude::*;

use nvwa_core::config::EuClass;
use nvwa_core::coordinator::allocator::{AllocPolicy, HitsAllocator, IdleEu};
use nvwa_core::coordinator::hits_buffer::HitsBuffer;
use nvwa_core::extension::hybrid::solve_classes;
use nvwa_core::extension::systolic::matrix_fill_latency;
use nvwa_core::interface::Hit;

fn hit(len: u32) -> Hit {
    Hit {
        read_idx: 0,
        hit_idx: 0,
        direction: false,
        read_pos: (0, len.max(1)),
        ref_pos: 0,
        query_len: len.max(1),
        ref_len: len.max(1) + 10,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The double buffer never loses or duplicates a hit, whatever the
    /// interleaving of pushes, switches and (randomly successful)
    /// allocation rounds.
    #[test]
    fn hits_buffer_conserves_items(
        values in proptest::collection::vec(1u32..200, 1..120),
        round_pattern in proptest::collection::vec(any::<bool>(), 1..400),
        depth in 2usize..40,
        batch in 1usize..12,
    ) {
        let mut buffer: HitsBuffer<u32> = HitsBuffer::new(depth, 0.5);
        let mut to_push = values.clone();
        to_push.reverse();
        let mut drained: Vec<u32> = Vec::new();
        let mut pattern = round_pattern.iter().cycle();
        // Drive until everything pushed and drained (bounded iterations).
        for _ in 0..10_000 {
            if let Some(&v) = to_push.last() {
                if buffer.push(v).is_ok() {
                    to_push.pop();
                }
            }
            if buffer.should_switch(to_push.is_empty()) {
                buffer.switch();
            }
            let batch_now = buffer.peek_batch(batch).to_vec();
            if !batch_now.is_empty() {
                // Allocate a random subset this round (fragmentation).
                let flags: Vec<bool> = batch_now
                    .iter()
                    .map(|_| *pattern.next().expect("cycled"))
                    .collect();
                for (slot, &f) in flags.iter().enumerate() {
                    if f {
                        drained.push(batch_now[slot]);
                    }
                }
                // Guarantee progress eventually: force-allocate when the
                // random pattern starves the round (otherwise an all-false
                // pattern deadlocks the drive loop: blocked pushes ↔ never-
                // draining PB).
                if flags.iter().all(|&f| !f) {
                    let mut forced = flags;
                    forced[0] = true;
                    drained.push(batch_now[0]);
                    buffer.complete_round(&forced);
                    continue;
                }
                buffer.complete_round(&flags);
            }
            if to_push.is_empty() && buffer.processing_drained() && buffer.store_len() == 0 {
                break;
            }
        }
        let mut expected = values;
        expected.sort_unstable();
        drained.sort_unstable();
        prop_assert_eq!(drained, expected);
    }

    /// Every allocation round: allocated hits get distinct units, consumed
    /// units leave the idle pool, and unallocated hits leave it untouched.
    #[test]
    fn allocator_invariants(
        lens in proptest::collection::vec(1u32..200, 1..40),
        idle_pattern in proptest::collection::vec(0usize..4, 0..30),
    ) {
        let classes = vec![
            EuClass::new(16, 28),
            EuClass::new(32, 20),
            EuClass::new(64, 16),
            EuClass::new(128, 6),
        ];
        for policy in [
            AllocPolicy::GroupedGreedy,
            AllocPolicy::StrictPerClass,
            AllocPolicy::FullyShared,
        ] {
            let mut allocator = HitsAllocator::new(&classes, policy);
            let batch: Vec<Hit> = lens.iter().map(|&l| hit(l)).collect();
            let mut idle: Vec<IdleEu> = idle_pattern
                .iter()
                .enumerate()
                .map(|(i, &c)| IdleEu {
                    unit_idx: i,
                    pes: [16u32, 32, 64, 128][c],
                })
                .collect();
            let before = idle.len();
            let (flags, assignments) = allocator.allocate(&batch, &mut idle);
            let (flags, assignments) = (flags.to_vec(), assignments.to_vec());
            prop_assert_eq!(flags.len(), batch.len());
            let allocated = flags.iter().filter(|&&f| f).count();
            prop_assert_eq!(assignments.len(), allocated);
            prop_assert_eq!(idle.len(), before - allocated);
            // Distinct units and distinct slots.
            let mut units: Vec<usize> = assignments.iter().map(|a| a.unit.unit_idx).collect();
            units.sort_unstable();
            units.dedup();
            prop_assert_eq!(units.len(), allocated);
            let mut slots: Vec<usize> = assignments.iter().map(|a| a.batch_slot).collect();
            slots.sort_unstable();
            slots.dedup();
            prop_assert_eq!(slots.len(), allocated);
            // Strict policy always places on the optimal class.
            if policy == AllocPolicy::StrictPerClass {
                for a in &assignments {
                    let len = batch[a.batch_slot].hit_len();
                    prop_assert_eq!(
                        allocator.class_of_len(len),
                        allocator.class_of_pes(a.unit.pes)
                    );
                }
            }
        }
    }

    /// Formula 5 never exceeds the PE budget and spends most of it, for
    /// arbitrary distributions.
    #[test]
    fn formula5_budget_safety(
        masses in proptest::collection::vec(0.01f64..1.0, 4),
        budget in 64u32..8192,
    ) {
        let classes = solve_classes(&masses, &[16, 32, 64, 128], budget);
        let used: u32 = classes.iter().map(|c| c.total_pes()).sum();
        prop_assert!(used <= budget);
        // At least one full unit of the smallest class always fits.
        prop_assert!(used + 16 > budget || used > 0);
    }

    /// Formula 3 sanity: latency is monotone in both sequence lengths and
    /// minimized near PEs == query length.
    #[test]
    fn formula3_monotonicity(r in 1u64..300, q in 1u64..255, p in 1u32..256) {
        let l = matrix_fill_latency(r, q, p);
        prop_assert!(matrix_fill_latency(r + 1, q, p) >= l);
        prop_assert!(matrix_fill_latency(r, q + 1, p) >= l);
        // A PE count equal to the query length completes in one pass and
        // is within one reference-length bubble of any other size.
        let matched = matrix_fill_latency(r, q, q as u32);
        prop_assert_eq!(matched, r + q - 1);
        prop_assert!(matched <= l + r);
    }
}
