//! Property-based tests pinning the seeding fast path to its oracles.
//!
//! Two families:
//!
//! * **occ substrate** — the single-pass [`FmIndex::occ4`] and the cached
//!   [`FmIndex::occ4_cached`] must agree with four scalar
//!   [`FmIndex::occ`] scans at every rank, on every random text.
//! * **SMEM search** — the hot path ([`collect_smems`]) must be
//!   bit-identical to the frozen pre-optimization
//!   [`oracle::collect_smems`] in every configuration the pipeline uses:
//!   LUT on (no-trace sinks), LUT off (address-recording sinks), any LUT
//!   depth, scratch reused across queries or fresh.

use proptest::prelude::*;

use nvwa_index::fm_index::{FmIndex, OccCache};
use nvwa_index::fmd_index::FmdIndex;
use nvwa_index::smem::{collect_smems, collect_smems_into, oracle, SmemConfig, SmemScratch};
use nvwa_index::trace::{NullTrace, VecTrace};

fn codes(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, min_len..=max_len)
}

/// A config loose enough that tiny random texts still produce SMEMs.
fn loose_config() -> SmemConfig {
    SmemConfig {
        min_seed_len: 4,
        min_intv: 1,
        split_len: 8,
        split_width: 10,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `occ4` returns exactly what four scalar `occ` scans return, at
    /// every rank boundary of the text (including 0 and seq_len).
    #[test]
    fn occ4_matches_four_scalar_occ(text in codes(1, 300)) {
        let fm = FmIndex::from_text(&text);
        for i in 0..=fm.seq_len() {
            let quad = fm.occ4(i, &mut NullTrace);
            let scalar = [
                fm.occ(0, i, &mut NullTrace),
                fm.occ(1, i, &mut NullTrace),
                fm.occ(2, i, &mut NullTrace),
                fm.occ(3, i, &mut NullTrace),
            ];
            prop_assert_eq!(quad, scalar, "rank {}", i);
        }
    }

    /// `occ4_cached` agrees with `occ4` under an adversarial probe order
    /// (forward, backward, then pseudo-random), reusing one cache across
    /// all probes.
    #[test]
    fn occ4_cached_matches_occ4_any_probe_order(text in codes(1, 300), seed in 0u64..1024) {
        let fm = FmIndex::from_text(&text);
        let n = fm.seq_len();
        let mut cache = OccCache::new();
        let mut probes: Vec<u64> = (0..=n).collect();
        probes.extend((0..=n).rev());
        let mut state = seed.wrapping_mul(2) + 1;
        for _ in 0..=n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            probes.push(state % (n + 1));
        }
        for &i in &probes {
            prop_assert_eq!(
                fm.occ4_cached(i, &mut cache, &mut NullTrace),
                fm.occ4(i, &mut NullTrace),
                "rank {}", i
            );
        }
        prop_assert_eq!(cache.lookups, probes.len() as u64);
    }

    /// The SMEM hot path with the LUT enabled (no-trace sink) is
    /// bit-identical to the frozen oracle, for every LUT depth.
    #[test]
    fn smems_with_lut_match_oracle(forward in codes(8, 200), query in codes(4, 64), k in 0usize..6) {
        let mut fmd = FmdIndex::from_forward(&forward);
        fmd.build_prefix_lut(k);
        let config = loose_config();
        let fast = collect_smems(&fmd, &query, &config, &mut NullTrace);
        prop_assert_eq!(fast, oracle::collect_smems(&fmd, &query, &config));
    }

    /// With an address-recording sink the LUT is bypassed (the trace must
    /// keep every extension step) but the occ-block cache stays engaged —
    /// the SMEMs are still bit-identical to the oracle.
    #[test]
    fn smems_with_trace_match_oracle(forward in codes(8, 200), query in codes(4, 64)) {
        let mut fmd = FmdIndex::from_forward(&forward);
        fmd.build_prefix_lut(4);
        let config = loose_config();
        let mut trace = VecTrace::default();
        let mut scratch = SmemScratch::new();
        let mut traced = Vec::new();
        collect_smems_into(&fmd, &query, &config, &mut scratch, &mut traced, &mut trace);
        prop_assert_eq!(&traced, &oracle::collect_smems(&fmd, &query, &config));
        // The trace-visible path must record addresses (unless the pivot
        // bases are absent from the reference entirely).
        if !traced.is_empty() {
            prop_assert!(!trace.0.is_empty());
        }
    }

    /// The recorded address sequence depends on neither the LUT (bypassed
    /// by a recording sink) nor the state a reused scratch carries, on the
    /// rank kernel this host dispatches to (the two kernels are compared
    /// with each other in the crate's unit tests, which can name them).
    #[test]
    fn traced_addresses_ignore_lut_and_scratch_state(forward in codes(8, 200),
                                                     queries in proptest::collection::vec(codes(4, 48), 1..4),
                                                     k in 0usize..6) {
        let plain = FmdIndex::from_forward(&forward);
        let mut lut = plain.clone();
        lut.build_prefix_lut(k);
        let config = loose_config();
        let mut scratch = SmemScratch::new();
        let mut out = Vec::new();
        for query in &queries {
            let mut want = VecTrace::default();
            let fresh = collect_smems(&plain, query, &config, &mut want);
            let mut got = VecTrace::default();
            collect_smems_into(&lut, query, &config, &mut scratch, &mut out, &mut got);
            prop_assert_eq!(&out, &fresh);
            prop_assert_eq!(&got.0, &want.0);
        }
    }

    /// Scratch reuse across queries (the pipeline's steady state) never
    /// changes the result: cache state left by one query must not leak
    /// into the next.
    #[test]
    fn smems_with_reused_scratch_match_fresh(forward in codes(8, 200),
                                             queries in proptest::collection::vec(codes(4, 48), 1..4)) {
        let mut fmd = FmdIndex::from_forward(&forward);
        fmd.build_prefix_lut(3);
        let config = loose_config();
        let mut scratch = SmemScratch::new();
        let mut reused = Vec::new();
        for query in &queries {
            collect_smems_into(&fmd, query, &config, &mut scratch, &mut reused, &mut NullTrace);
            let fresh = collect_smems(&fmd, query, &config, &mut NullTrace);
            prop_assert_eq!(&reused, &fresh);
        }
    }
}
