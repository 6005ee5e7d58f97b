//! Adversarial-reference SMEM conformance (ISSUE 5 satellite): the seeding
//! fast path — occ-block cache, prefix LUT, scratch reuse — pinned against
//! `smem::oracle` on references built to break it:
//!
//! * an all-A genome (every occ block saturated by one symbol, maximal
//!   interval sizes, the occ-cache hit rate near 1),
//! * a period-2 repeat (`ACAC…`, two alternating symbols, SMEMs spanning
//!   the whole reference),
//! * a reference shorter than the prefix-LUT depth `k` (the LUT clamp
//!   path), and
//! * scratch reuse across *different* indexes (the documented
//!   `reset_for_index` contract).
//!
//! Each case runs the full mode matrix of `testkit::diff::smem_divergence`:
//! plain index, LUT index with the LUT engaged (`NullTrace`) and LUT index
//! with the LUT bypassed (traced), all against the oracle; then compares the
//! traced address sequences of the two indexes.

use nvwa::index::fmd_index::PrefixLut;
use nvwa::index::smem::{collect_smems_into, oracle};
use nvwa::index::{FmdIndex, NullTrace, SmemConfig, SmemScratch, VecTrace};
use nvwa::testkit::diff::smem_divergence;
use nvwa::testkit::Prng;

/// A config lenient enough that adversarial short queries still produce
/// SMEMs (the default `min_seed_len` of 19 would filter most of them,
/// making agreement vacuous).
fn lenient() -> SmemConfig {
    SmemConfig {
        min_seed_len: 8,
        min_intv: 1,
        split_len: 12,
        split_width: 10,
    }
}

fn lut_pair(reference: &[u8]) -> (FmdIndex, FmdIndex) {
    let plain = FmdIndex::from_forward(reference);
    let mut lut = FmdIndex::from_forward(reference);
    lut.build_prefix_lut(PrefixLut::DEFAULT_K);
    (plain, lut)
}

/// Runs every query through the full mode matrix, panicking with the
/// testkit's divergence detail on the first disagreement. Scratches are
/// reused across queries (per index), so the occ-block cache carries
/// state from query to query exactly as the pipeline does.
fn assert_agree(reference: &[u8], queries: &[Vec<u8>], configs: &[SmemConfig]) {
    let (plain, lut) = lut_pair(reference);
    let mut s_plain = SmemScratch::new();
    let mut s_lut = SmemScratch::new();
    for config in configs {
        for (i, q) in queries.iter().enumerate() {
            if let Some((check, detail)) =
                smem_divergence(&plain, &lut, config, q, &mut s_plain, &mut s_lut)
            {
                panic!(
                    "query {i} (len {}, min_seed_len {}): {check}: {detail}",
                    q.len(),
                    config.min_seed_len
                );
            }
            // Hardware-trace mode: the address sequence does not depend on
            // the LUT being built or on what the scratch served before (on
            // whichever rank kernel this host dispatches to; the two are
            // compared directly in `nvwa-index`'s unit tests).
            let (mut t_plain, mut t_lut) = (VecTrace::default(), VecTrace::default());
            let mut out = Vec::new();
            collect_smems_into(&plain, q, config, &mut s_plain, &mut out, &mut t_plain);
            collect_smems_into(&lut, q, config, &mut s_lut, &mut out, &mut t_lut);
            assert_eq!(t_plain, t_lut, "query {i}: traced addresses differ");
        }
    }
}

#[test]
fn all_a_genome_agrees_with_oracle() {
    // Code 0 = A everywhere: one saturated symbol class, intervals as
    // large as the reference itself.
    let reference = vec![0u8; 500];
    let queries = vec![
        vec![0u8; 101], // matches everywhere
        vec![0u8; 500], // the whole reference
        vec![1u8; 30],  // absent symbol, no SMEM survives
        {
            let mut q = vec![0u8; 101];
            q[50] = 1; // one foreign base splits the run
            q
        },
        {
            let mut q = vec![0u8; 40];
            q[0] = 2;
            q[39] = 3; // foreign bases at both ends
            q
        },
    ];
    assert_agree(&reference, &queries, &[SmemConfig::default(), lenient()]);
}

#[test]
fn period_two_repeat_agrees_with_oracle() {
    // ACACAC…: every even-length window occurs ~300 times; re-seeding
    // splits are exercised heavily under the lenient config.
    let reference: Vec<u8> = (0..600).map(|i| (i % 2) as u8).collect();
    let mut p = Prng(0xADA2);
    let mut queries: Vec<Vec<u8>> = vec![
        reference[10..111].to_vec(),                     // exact window
        (0..101).map(|i| ((i + 1) % 2) as u8).collect(), // phase-shifted
        {
            let mut q = reference[200..301].to_vec();
            q[50] = 2; // break the period with a G
            q
        },
    ];
    for _ in 0..5 {
        let start = p.below(499) as usize;
        queries.push(p.mutate(&reference[start..start + 101]));
    }
    assert_agree(&reference, &queries, &[SmemConfig::default(), lenient()]);
}

#[test]
fn reference_shorter_than_lut_k_agrees_with_oracle() {
    // 6 codes < PrefixLut::DEFAULT_K (8): the LUT must clamp its depth,
    // not index past the reference.
    let reference = vec![0u8, 1, 2, 3, 0, 1];
    assert!(reference.len() < PrefixLut::DEFAULT_K);
    let tiny = SmemConfig {
        min_seed_len: 3,
        min_intv: 1,
        split_len: 5,
        split_width: 10,
    };
    let queries = vec![
        reference.clone(),
        reference[1..5].to_vec(),
        vec![3u8, 3, 3, 3],                         // absent run
        vec![0u8, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3], // longer than the reference
    ];
    assert_agree(&reference, &queries, &[tiny]);
}

#[test]
fn scratch_reuse_across_indexes_requires_only_reset() {
    // The documented contract: one scratch may serve different indexes as
    // long as `reset_for_index` is called between them. The occ-block
    // cache is keyed by block index only, so two same-length references
    // with different content are the adversarial pairing — stale blocks
    // would silently corrupt intervals.
    let mut p = Prng(0x5C2A);
    let ref_a = p.codes(800);
    let ref_b: Vec<u8> = ref_a.iter().map(|c| c ^ 0b11).collect(); // complement
    let fmd_a = FmdIndex::from_forward(&ref_a);
    let fmd_b = FmdIndex::from_forward(&ref_b);
    let config = lenient();
    let mut scratch = SmemScratch::new();
    for round in 0..3 {
        for (fmd, reference) in [(&fmd_a, &ref_a), (&fmd_b, &ref_b)] {
            scratch.reset_for_index();
            let start = p.below((reference.len() - 101) as u64) as usize;
            let query = p.mutate(&reference[start..start + 101]);
            let mut got = Vec::new();
            collect_smems_into(fmd, &query, &config, &mut scratch, &mut got, &mut NullTrace);
            let want = oracle::collect_smems(fmd, &query, &config);
            assert_eq!(got, want, "round {round}: reused scratch diverged");
        }
    }
    // The cache saw real traffic — the reuse test is not vacuous.
    let (_hits, lookups) = scratch.cache_stats();
    assert!(lookups > 0, "occ cache was never consulted");
}
