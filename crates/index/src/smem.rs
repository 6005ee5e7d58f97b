//! Supermaximal exact match (SMEM) collection.
//!
//! Faithful port of BWA-MEM's greedy SMEM algorithm (`bwt_smem1`): starting
//! from a pivot `x`, extend forward collecting every interval-size change,
//! then sweep backward keeping the surviving intervals; matches that can be
//! extended in neither direction and are not contained in a longer match are
//! SMEMs. Includes BWA's re-seeding pass that splits long, low-occurrence
//! SMEMs to recover sensitivity.
//!
//! Every FM extension step reports its checkpoint-block reads to the
//! [`TraceSink`], so running this algorithm *is* the seeding-unit workload of
//! the accelerator model.

use crate::fmd_index::{BiInterval, FmdIndex};
use crate::trace::TraceSink;
use crate::Isa;

/// A supermaximal exact match of a query against the (two-strand) reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Smem {
    /// Query start (inclusive).
    pub query_start: usize,
    /// Query end (exclusive).
    pub query_end: usize,
    /// The match bi-interval (size = number of reference occurrences across
    /// both strands).
    pub interval: BiInterval,
}

impl Smem {
    /// Match length on the query.
    pub fn len(&self) -> usize {
        self.query_end - self.query_start
    }

    /// Whether the match is empty (never produced by the search).
    pub fn is_empty(&self) -> bool {
        self.query_end <= self.query_start
    }

    /// Number of reference occurrences.
    pub fn occ(&self) -> u64 {
        self.interval.s
    }
}

/// Configuration of the SMEM search, mirroring BWA-MEM's `mem_opt_t`
/// defaults (scaled where noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmemConfig {
    /// Minimum seed length to keep (BWA default 19).
    pub min_seed_len: usize,
    /// Minimum interval size to continue extension (BWA default 1).
    pub min_intv: u64,
    /// Re-seeding: split SMEMs longer than this (BWA: `split_len` = 28,
    /// i.e. `1.5 × min_seed_len`).
    pub split_len: usize,
    /// Re-seeding: only split SMEMs with at most this many occurrences
    /// (BWA: `split_width` = 10).
    pub split_width: u64,
}

impl Default for SmemConfig {
    fn default() -> SmemConfig {
        SmemConfig {
            min_seed_len: 19,
            min_intv: 1,
            split_len: 28,
            split_width: 10,
        }
    }
}

/// Reusable per-search scratch for the SMEM hot path: the survivor lists of
/// the forward/backward sweeps and the re-seeding staging vectors. One
/// instance per worker eliminates every per-read allocation of the seeding
/// stage; results are bit-identical to the allocating API. It holds no
/// per-index state, so one scratch may serve any number of indexes.
#[derive(Debug, Clone, Default)]
pub struct SmemScratch {
    curr: Vec<(BiInterval, usize)>,
    prev: Vec<(BiInterval, usize)>,
    first_pass: Vec<Smem>,
    split: Vec<Smem>,
}

impl SmemScratch {
    /// An empty scratch.
    pub fn new() -> SmemScratch {
        SmemScratch::default()
    }
}

/// One pass of the greedy SMEM search from pivot `x`.
///
/// Appends the SMEMs through `x` to `out` (sorted by query start) and
/// returns the next pivot (the furthest query end reached), guaranteeing
/// forward progress.
///
/// Convenience wrapper over [`smem_next_with`] that allocates a fresh
/// [`SmemScratch`]; hot loops should hold their own scratch instead.
///
/// # Panics
///
/// Panics if `x >= query.len()`.
pub fn smem_next<T: TraceSink>(
    fmd: &FmdIndex,
    query: &[u8],
    x: usize,
    min_intv: u64,
    out: &mut Vec<Smem>,
    trace: &mut T,
) -> usize {
    let mut scratch = SmemScratch::new();
    smem_next_with(fmd, query, x, min_intv, out, &mut scratch, trace)
}

/// [`smem_next`] with caller-provided scratch (zero allocations at steady
/// state). Only when `trace` discards addresses are the first `k` forward
/// steps served from the index's prefix LUT (see DESIGN.md §10). Output
/// and, for recording sinks, the trace are bit-identical to [`smem_next`].
///
/// # Panics
///
/// Panics if `x >= query.len()`.
#[inline(always)]
pub fn smem_next_with<T: TraceSink>(
    fmd: &FmdIndex,
    query: &[u8],
    x: usize,
    min_intv: u64,
    out: &mut Vec<Smem>,
    scratch: &mut SmemScratch,
    trace: &mut T,
) -> usize {
    assert!(x < query.len(), "pivot out of range");
    let len = query.len();
    let min_intv = min_intv.max(1);
    let SmemScratch { curr, prev, .. } = scratch;
    // The LUT is a fast-path-only structure: never consult it when the sink
    // observes addresses, or the SU memory trace would lose its first k
    // extension steps.
    let lut = if trace.records_addresses() {
        None
    } else {
        fmd.prefix_lut()
    };

    let mut ik = fmd.base_interval(query[x]);
    if ik.s < min_intv {
        // Pivot base absent from the reference (possible on tiny test texts).
        return x + 1;
    }
    let mut ik_end = x + 1;

    // Forward sweep: record the interval at every size change. `ik` is
    // always the interval of `query[x..ik_end]`, so while the extension
    // depth fits the LUT the step is a table lookup at the incrementally
    // packed base-4 index.
    curr.clear();
    prev.clear();
    let mut idx = query[x] as usize;
    let mut i = x + 1;
    while i < len {
        let depth = i - x + 1;
        let ok = match lut {
            Some(l) if depth <= l.k() => {
                idx = idx * 4 + query[i] as usize;
                l.get(depth, idx)
            }
            // Forward-extending `W` is backward-extending `revcomp(W)` by
            // the complement base.
            _ => fmd.backward_ext_all(ik.swapped(), trace)[(3 - query[i]) as usize].swapped(),
        };
        if ok.s != ik.s {
            curr.push((ik, ik_end));
            if ok.s < min_intv {
                break;
            }
        }
        ik = ok;
        ik_end = i + 1;
        i += 1;
    }
    if i == len {
        curr.push((ik, ik_end));
    }
    // Longer matches (smaller intervals) first.
    curr.reverse();
    let next_x = curr[0].1;

    // Backward sweep.
    std::mem::swap(prev, curr);
    let first_out = out.len();
    let mut i: isize = x as isize - 1;
    loop {
        let c: Option<u8> = if i < 0 { None } else { Some(query[i as usize]) };
        curr.clear();
        for &(p, end) in prev.iter() {
            // Not a closure: one would be compiled outside the `popcnt` arm.
            let o = match c {
                Some(cc) => fmd.backward_ext_all(p, trace)[cc as usize],
                None => BiInterval { k: 0, l: 0, s: 0 },
            };
            if o.s < min_intv {
                // `p` is left-maximal here. Keep it if no longer match
                // survives this round and it is not contained in the last
                // SMEM we emitted.
                let start = (i + 1) as usize;
                let contained = out
                    .len()
                    .checked_sub(1)
                    .filter(|&last| last >= first_out)
                    .map(|last| start >= out[last].query_start)
                    .unwrap_or(false);
                if curr.is_empty() && !contained {
                    out.push(Smem {
                        query_start: start,
                        query_end: end,
                        interval: p,
                    });
                }
            } else if curr.last().map(|l| l.0.s != o.s).unwrap_or(true) {
                curr.push((o, end));
            }
        }
        if curr.is_empty() {
            break;
        }
        std::mem::swap(prev, curr);
        i -= 1;
    }
    // Emitted in decreasing start order; restore increasing.
    out[first_out..].reverse();
    next_x
}

/// Collects all SMEMs of `query`, including BWA's re-seeding pass, filtered
/// by `config.min_seed_len`.
///
/// The result is sorted by query start. Convenience wrapper over
/// [`collect_smems_into`] with a fresh scratch and output vector.
pub fn collect_smems<T: TraceSink>(
    fmd: &FmdIndex,
    query: &[u8],
    config: &SmemConfig,
    trace: &mut T,
) -> Vec<Smem> {
    let mut out = Vec::new();
    let mut scratch = SmemScratch::new();
    collect_smems_into(fmd, query, config, &mut scratch, &mut out, trace);
    out
}

/// [`collect_smems`] into caller-provided scratch and output (cleared
/// first): the zero-allocation form used by the alignment pipeline and the
/// serve worker pool. Bit-identical results at every [`Isa`] level.
pub fn collect_smems_into<T: TraceSink>(
    fmd: &FmdIndex,
    query: &[u8],
    config: &SmemConfig,
    scratch: &mut SmemScratch,
    out: &mut Vec<Smem>,
    trace: &mut T,
) {
    // One dispatch per read, both arms the same body: every helper down to
    // `OccBlock::rank4` is `#[inline(always)]`, so its `count_ones()` compiles
    // inside the feature-enabled function. One left out silently keeps SWAR.
    #[cfg(target_arch = "x86_64")]
    if Isa::host() >= Isa::Popcnt {
        // SAFETY: the CPU reports `popcnt`, checked on the line above.
        return unsafe { collect_smems_popcnt(fmd, query, config, scratch, out, trace) };
    }
    collect_smems_portable(fmd, query, config, scratch, out, trace)
}

/// [`collect_smems_portable`] compiled with the `popcnt` instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn collect_smems_popcnt<T: TraceSink>(
    fmd: &FmdIndex,
    query: &[u8],
    config: &SmemConfig,
    scratch: &mut SmemScratch,
    out: &mut Vec<Smem>,
    trace: &mut T,
) {
    collect_smems_portable(fmd, query, config, scratch, out, trace)
}

/// [`collect_smems_into`] on the build's baseline instructions.
#[inline(always)]
fn collect_smems_portable<T: TraceSink>(
    fmd: &FmdIndex,
    query: &[u8],
    config: &SmemConfig,
    scratch: &mut SmemScratch,
    out: &mut Vec<Smem>,
    trace: &mut T,
) {
    out.clear();

    // First pass: standard SMEMs. The staging vectors are taken out of the
    // scratch so it can be re-borrowed by the sweep itself.
    let mut first_pass = std::mem::take(&mut scratch.first_pass);
    first_pass.clear();
    let mut x = 0usize;
    while x < query.len() {
        x = smem_next_with(
            fmd,
            query,
            x,
            config.min_intv,
            &mut first_pass,
            scratch,
            trace,
        );
    }

    // Re-seeding: split long, unique-ish SMEMs from their middle with a
    // stricter interval floor, recovering seeds hidden under a long match.
    let mut split = std::mem::take(&mut scratch.split);
    for smem in &first_pass {
        if smem.len() >= config.min_seed_len {
            out.push(*smem);
        }
        if smem.len() >= config.split_len && smem.occ() <= config.split_width {
            let mid = (smem.query_start + smem.query_end) / 2;
            split.clear();
            let _ = smem_next_with(fmd, query, mid, smem.occ() + 1, &mut split, scratch, trace);
            for s in &split {
                if s.len() >= config.min_seed_len
                    && (s.query_start, s.query_end) != (smem.query_start, smem.query_end)
                {
                    out.push(*s);
                }
            }
        }
    }
    scratch.split = split;
    scratch.first_pass = first_pass;

    out.sort_by_key(|s| (s.query_start, s.query_end));
    out.dedup();
}

/// The pre-optimization seeding path, retained verbatim as the test
/// oracle (the `sw::naive` pattern): scalar occ (four block scans
/// per position through [`FmdIndex::backward_ext_all_scalar`]), fresh
/// allocations per call, no LUT. Bit-identical output to the hot
/// path — that equality is what the property tests pin down.
pub mod oracle {
    use super::*;
    use crate::trace::NullTrace;

    fn forward_ext_scalar(fmd: &FmdIndex, ik: BiInterval, c: u8) -> BiInterval {
        fmd.backward_ext_all_scalar(ik.swapped(), &mut NullTrace)[(3 - c) as usize].swapped()
    }

    fn backward_ext_scalar(fmd: &FmdIndex, ik: BiInterval, c: u8) -> BiInterval {
        fmd.backward_ext_all_scalar(ik, &mut NullTrace)[c as usize]
    }

    /// [`super::smem_next`] on the scalar-occ oracle path (untraced).
    pub fn smem_next(
        fmd: &FmdIndex,
        query: &[u8],
        x: usize,
        min_intv: u64,
        out: &mut Vec<Smem>,
    ) -> usize {
        assert!(x < query.len(), "pivot out of range");
        let len = query.len();
        let min_intv = min_intv.max(1);

        let mut ik = fmd.base_interval(query[x]);
        if ik.s < min_intv {
            return x + 1;
        }
        let mut ik_end = x + 1;

        let mut curr: Vec<(BiInterval, usize)> = Vec::new();
        let mut i = x + 1;
        while i < len {
            let ok = forward_ext_scalar(fmd, ik, query[i]);
            if ok.s != ik.s {
                curr.push((ik, ik_end));
                if ok.s < min_intv {
                    break;
                }
            }
            ik = ok;
            ik_end = i + 1;
            i += 1;
        }
        if i == len {
            curr.push((ik, ik_end));
        }
        curr.reverse();
        let next_x = curr[0].1;

        let mut prev = curr;
        let mut curr: Vec<(BiInterval, usize)> = Vec::new();
        let first_out = out.len();
        let mut i: isize = x as isize - 1;
        loop {
            let c: Option<u8> = if i < 0 { None } else { Some(query[i as usize]) };
            curr.clear();
            for &(p, end) in prev.iter() {
                let ok = c.map(|cc| backward_ext_scalar(fmd, p, cc));
                let extendable = ok.map(|o| o.s >= min_intv).unwrap_or(false);
                if !extendable {
                    let start = (i + 1) as usize;
                    let contained = out
                        .len()
                        .checked_sub(1)
                        .filter(|&last| last >= first_out)
                        .map(|last| start >= out[last].query_start)
                        .unwrap_or(false);
                    if curr.is_empty() && !contained {
                        out.push(Smem {
                            query_start: start,
                            query_end: end,
                            interval: p,
                        });
                    }
                } else {
                    let o = ok.expect("extendable implies Some");
                    if curr.last().map(|l| l.0.s != o.s).unwrap_or(true) {
                        curr.push((o, end));
                    }
                }
            }
            if curr.is_empty() {
                break;
            }
            std::mem::swap(&mut prev, &mut curr);
            i -= 1;
        }
        out[first_out..].reverse();
        next_x
    }

    /// [`super::collect_smems`] on the scalar-occ oracle path (untraced).
    pub fn collect_smems(fmd: &FmdIndex, query: &[u8], config: &SmemConfig) -> Vec<Smem> {
        let mut all: Vec<Smem> = Vec::new();
        let mut first_pass: Vec<Smem> = Vec::new();
        let mut x = 0usize;
        while x < query.len() {
            x = smem_next(fmd, query, x, config.min_intv, &mut first_pass);
        }
        for smem in &first_pass {
            if smem.len() >= config.min_seed_len {
                all.push(*smem);
            }
            if smem.len() >= config.split_len && smem.occ() <= config.split_width {
                let mid = (smem.query_start + smem.query_end) / 2;
                let mut split: Vec<Smem> = Vec::new();
                let _ = smem_next(fmd, query, mid, smem.occ() + 1, &mut split);
                for s in split {
                    if s.len() >= config.min_seed_len
                        && (s.query_start, s.query_end) != (smem.query_start, smem.query_end)
                    {
                        all.push(s);
                    }
                }
            }
        }
        all.sort_by_key(|s| (s.query_start, s.query_end));
        all.dedup();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountTrace, NullTrace, VecTrace};

    fn rand_codes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) & 0b11) as u8
            })
            .collect()
    }

    /// Counts occurrences of `pattern` in the doubled text `S·revcomp(S)` by
    /// brute force — the quantity the FMD interval size reports.
    fn occurs(forward: &[u8], pattern: &[u8]) -> u64 {
        let mut doubled = forward.to_vec();
        doubled.extend(forward.iter().rev().map(|&c| 3 - c));
        if pattern.is_empty() || pattern.len() > doubled.len() {
            return 0;
        }
        doubled
            .windows(pattern.len())
            .filter(|w| *w == pattern)
            .count() as u64
    }

    /// Brute-force SMEMs: all query substrings that occur, are maximal in
    /// both directions, and are not contained in another maximal match.
    fn naive_smems(forward: &[u8], query: &[u8]) -> Vec<(usize, usize)> {
        let n = query.len();
        let mut mems: Vec<(usize, usize)> = Vec::new();
        for s in 0..n {
            for e in (s + 1)..=n {
                if occurs(forward, &query[s..e]) == 0 {
                    continue;
                }
                let left_max = s == 0 || occurs(forward, &query[s - 1..e]) == 0;
                let right_max = e == n || occurs(forward, &query[s..e + 1]) == 0;
                if left_max && right_max {
                    mems.push((s, e));
                }
            }
        }
        // Drop matches contained in another.
        let smems: Vec<(usize, usize)> = mems
            .iter()
            .copied()
            .filter(|&(s, e)| {
                !mems
                    .iter()
                    .any(|&(s2, e2)| (s2, e2) != (s, e) && s2 <= s && e <= e2)
            })
            .collect();
        smems
    }

    #[test]
    fn smems_match_naive_on_random_texts() {
        for seed in [1u64, 2, 3, 4, 5] {
            let forward = rand_codes(200, seed);
            let query = rand_codes(24, seed.wrapping_mul(31));
            let fmd = FmdIndex::from_forward(&forward);
            let mut got: Vec<Smem> = Vec::new();
            let mut x = 0usize;
            while x < query.len() {
                x = smem_next(&fmd, &query, x, 1, &mut got, &mut NullTrace);
            }
            got.sort_by_key(|s| (s.query_start, s.query_end));
            got.dedup();
            let got_spans: Vec<(usize, usize)> =
                got.iter().map(|s| (s.query_start, s.query_end)).collect();
            let want = naive_smems(&forward, &query);
            assert_eq!(got_spans, want, "seed {seed}");
        }
    }

    #[test]
    fn smem_intervals_report_correct_occurrence_counts() {
        let forward = rand_codes(300, 9);
        let query = rand_codes(30, 77);
        let fmd = FmdIndex::from_forward(&forward);
        let mut smems = Vec::new();
        let mut x = 0usize;
        while x < query.len() {
            x = smem_next(&fmd, &query, x, 1, &mut smems, &mut NullTrace);
        }
        for s in &smems {
            assert_eq!(
                s.occ(),
                occurs(&forward, &query[s.query_start..s.query_end]),
                "span {}..{}",
                s.query_start,
                s.query_end
            );
        }
    }

    #[test]
    fn exact_read_from_reference_yields_full_length_smem() {
        let forward = rand_codes(500, 4);
        let query = forward[100..180].to_vec();
        let fmd = FmdIndex::from_forward(&forward);
        let smems = collect_smems(&fmd, &query, &SmemConfig::default(), &mut NullTrace);
        assert!(
            smems
                .iter()
                .any(|s| s.query_start == 0 && s.query_end == query.len()),
            "expected a full-length SMEM, got {smems:?}"
        );
    }

    #[test]
    fn min_seed_len_filters_short_matches() {
        let forward = rand_codes(400, 6);
        let query = rand_codes(40, 123); // random query: only short chance matches
        let fmd = FmdIndex::from_forward(&forward);
        let config = SmemConfig {
            min_seed_len: 25,
            ..SmemConfig::default()
        };
        let smems = collect_smems(&fmd, &query, &config, &mut NullTrace);
        assert!(smems.iter().all(|s| s.len() >= 25));
    }

    #[test]
    fn progress_is_guaranteed() {
        let forward = rand_codes(100, 2);
        let query = rand_codes(50, 3);
        let fmd = FmdIndex::from_forward(&forward);
        let mut out = Vec::new();
        let mut x = 0usize;
        let mut iterations = 0;
        while x < query.len() {
            let next = smem_next(&fmd, &query, x, 1, &mut out, &mut NullTrace);
            assert!(next > x, "pivot must advance");
            x = next;
            iterations += 1;
            assert!(iterations <= query.len());
        }
    }

    #[test]
    fn search_produces_memory_trace() {
        let forward = rand_codes(300, 13);
        let query = forward[50..120].to_vec();
        let fmd = FmdIndex::from_forward(&forward);
        let mut trace = CountTrace::default();
        let _ = collect_smems(&fmd, &query, &SmemConfig::default(), &mut trace);
        // At least one extension per query base; each extension = 2 reads.
        assert!(trace.0 >= query.len() as u64, "trace {} too small", trace.0);
    }

    #[test]
    fn scratch_path_matches_allocating_path_and_oracle() {
        for seed in [11u64, 22, 33] {
            let forward = rand_codes(400, seed);
            let mut fmd = FmdIndex::from_forward(&forward);
            let queries: Vec<Vec<u8>> = (0..8)
                .map(|q| {
                    if q % 2 == 0 {
                        forward[(q * 37)..(q * 37 + 60)].to_vec()
                    } else {
                        rand_codes(60, seed.wrapping_mul(q as u64 + 7))
                    }
                })
                .collect();
            let config = SmemConfig::default();
            // Without LUT first, then with: both must equal the oracle.
            for build_lut in [false, true] {
                if build_lut {
                    fmd.build_prefix_lut(crate::fmd_index::PrefixLut::DEFAULT_K);
                }
                let mut scratch = SmemScratch::new();
                let mut out = Vec::new();
                for query in &queries {
                    let expected = oracle::collect_smems(&fmd, query, &config);
                    let allocating = collect_smems(&fmd, query, &config, &mut NullTrace);
                    collect_smems_into(
                        &fmd,
                        query,
                        &config,
                        &mut scratch,
                        &mut out,
                        &mut NullTrace,
                    );
                    assert_eq!(allocating, expected, "seed {seed} lut {build_lut}");
                    assert_eq!(out, expected, "seed {seed} lut {build_lut} (scratch)");
                }
            }
        }
    }

    #[test]
    fn scratch_path_trace_is_identical_in_recording_mode() {
        let forward = rand_codes(500, 8);
        let mut fmd = FmdIndex::from_forward(&forward);
        fmd.build_prefix_lut(crate::fmd_index::PrefixLut::DEFAULT_K);
        let query = forward[120..221].to_vec();
        let config = SmemConfig::default();
        // Reference trace: a LUT-free index on the plain path.
        let plain = FmdIndex::from_forward(&forward);
        let mut want = VecTrace::default();
        let _ = collect_smems(&plain, &query, &config, &mut want);
        // Scratch + built LUT, but a recording sink: the LUT must be
        // bypassed, so addresses match exactly.
        let mut got = VecTrace::default();
        let mut scratch = SmemScratch::new();
        let mut out = Vec::new();
        collect_smems_into(&fmd, &query, &config, &mut scratch, &mut out, &mut got);
        assert_eq!(got.0, want.0);
        // And the fast path (discarding sink) produces the same SMEMs.
        let fast = collect_smems(&fmd, &query, &config, &mut NullTrace);
        assert_eq!(out, fast);
    }

    /// [`collect_smems_into`]'s arm at `isa`, which must not be above the
    /// host's: the baseline body, or the `popcnt` one from `Popcnt` up.
    fn collect_at<T: TraceSink>(
        isa: Isa,
        (fmd, query, config): (&FmdIndex, &[u8], &SmemConfig),
        scratch: &mut SmemScratch,
        out: &mut Vec<Smem>,
        trace: &mut T,
    ) {
        assert!(isa <= Isa::host(), "{isa:?} is above this host");
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Popcnt {
            // SAFETY: the CPU reports `popcnt`: `isa` is at most its level.
            return unsafe { collect_smems_popcnt(fmd, query, config, scratch, out, trace) };
        }
        collect_smems_portable(fmd, query, config, scratch, out, trace)
    }

    /// Each arm the host can run, against the oracle: the same SMEMs with
    /// the LUT off and on, and the same recorded address sequence as the
    /// baseline arm, each arm reusing its own scratch across the queries.
    fn assert_twins_agree(forward: &[u8], queries: &[Vec<u8>], config: &SmemConfig) {
        let mut fmd = FmdIndex::from_forward(forward);
        let levels: Vec<Isa> = [Isa::Baseline, Isa::Popcnt]
            .into_iter()
            .filter(|&isa| isa <= Isa::host())
            .collect();
        for build_lut in [false, true] {
            if build_lut {
                fmd.build_prefix_lut(crate::fmd_index::PrefixLut::DEFAULT_K);
            }
            let mut scratches = vec![SmemScratch::new(); levels.len()];
            let mut out = Vec::new();
            for query in queries {
                let want = oracle::collect_smems(&fmd, query, config);
                let mut baseline = None;
                for (&isa, s) in levels.iter().zip(&mut scratches) {
                    let (tag, call) = (
                        format!("{isa:?}, lut {build_lut}"),
                        (&fmd, &query[..], config),
                    );
                    collect_at(isa, call, s, &mut out, &mut NullTrace);
                    assert_eq!(out, want, "{tag}");
                    let mut addrs = VecTrace::default();
                    collect_at(isa, call, s, &mut out, &mut addrs);
                    assert_eq!(out, want, "{tag}, traced");
                    let baseline = baseline.get_or_insert(addrs.0.clone());
                    assert_eq!(&addrs.0, baseline, "{tag}, address sequence");
                }
            }
        }
    }

    #[test]
    fn dispatch_twins_agree_on_adversarial_genomes() {
        if Isa::host() < Isa::Popcnt {
            eprintln!("note: no popcnt on this host, the popcnt arm is skipped");
        }
        let lenient = SmemConfig {
            min_seed_len: 8,
            min_intv: 1,
            split_len: 12,
            split_width: 10,
        };
        let tiny = SmemConfig {
            min_seed_len: 3,
            min_intv: 1,
            split_len: 5,
            split_width: 10,
        };
        // All-A: one saturated symbol, intervals as large as the reference.
        let all_a = vec![0u8; 500];
        let mut split_run = vec![0u8; 101];
        split_run[50] = 1;
        let queries = [vec![0u8; 101], vec![0u8; 500], vec![1u8; 30], split_run];
        assert_twins_agree(&all_a, &queries, &SmemConfig::default());
        assert_twins_agree(&all_a, &queries, &lenient);
        // Period 2: SMEMs span the reference, re-seeding splits run hot.
        let period_two: Vec<u8> = (0..600).map(|i| (i % 2) as u8).collect();
        let mut broken = period_two[200..301].to_vec();
        broken[50] = 2;
        let shifted: Vec<u8> = (0..101).map(|i| ((i + 1) % 2) as u8).collect();
        let queries = [period_two[10..111].to_vec(), shifted, broken];
        assert_twins_agree(&period_two, &queries, &SmemConfig::default());
        assert_twins_agree(&period_two, &queries, &lenient);
        // Shorter than the LUT depth: the clamp path.
        let short = vec![0u8, 1, 2, 3, 0, 1];
        assert!(short.len() < crate::fmd_index::PrefixLut::DEFAULT_K);
        let queries = [
            short.clone(),
            short[1..5].to_vec(),
            vec![3u8; 4],
            [&short[..], &short[..]].concat(),
        ];
        assert_twins_agree(&short, &queries, &tiny);
        // A random reference with planted and random reads.
        let forward = rand_codes(3000, 71);
        let queries: Vec<Vec<u8>> = (0..12)
            .map(|q| match q % 3 {
                0 => rand_codes(101, 900 + q),
                _ => forward[q as usize * 200..q as usize * 200 + 101].to_vec(),
            })
            .collect();
        assert_twins_agree(&forward, &queries, &SmemConfig::default());
        assert_twins_agree(&forward, &queries, &lenient);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn dispatch_twins_agree_on_random_texts(
            forward in proptest::collection::vec(0u8..4, 8..=300),
            queries in proptest::collection::vec(proptest::collection::vec(0u8..4, 4..=64), 1..4),
        ) {
            let loose = SmemConfig {
                min_seed_len: 4,
                min_intv: 1,
                split_len: 8,
                split_width: 10,
            };
            assert_twins_agree(&forward, &queries, &loose);
        }
    }

    #[test]
    fn reseeding_splits_long_unique_smems() {
        // A read straddling two repeat copies: the long SMEM hides shorter
        // high-occurrence seeds that re-seeding should recover.
        let mut forward = rand_codes(300, 21);
        let repeat = rand_codes(60, 99);
        forward.extend_from_slice(&repeat);
        forward.extend(rand_codes(50, 5));
        forward.extend_from_slice(&repeat);
        forward.extend(rand_codes(50, 55));
        let query = forward[280..360].to_vec(); // covers unique + repeat region
        let fmd = FmdIndex::from_forward(&forward);
        let base = SmemConfig {
            split_len: usize::MAX, // re-seeding off
            ..SmemConfig::default()
        };
        let with_reseed = SmemConfig::default();
        let a = collect_smems(&fmd, &query, &base, &mut NullTrace);
        let b = collect_smems(&fmd, &query, &with_reseed, &mut NullTrace);
        assert!(b.len() >= a.len());
    }
}
