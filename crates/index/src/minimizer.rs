//! Minimizer sampling (minimap2-style).
//!
//! The paper's long-read discussion (Sec. VI) points at the
//! *seed-and-chain-then-fill* aligners (minimap/minimap2), which seed with
//! window minimizers instead of exact SMEMs. A `(w, k)` minimizer scheme
//! keeps, for every window of `w` consecutive k-mers, the one with the
//! smallest hash — a ~`2/(w+1)` sample of all k-mers that any two sequences
//! sharing a long enough exact match are guaranteed to pick in common.

use crate::trace::{MemAddr, TraceSink};

/// One sampled minimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Minimizer {
    /// Position of the k-mer in the sequence.
    pub pos: u32,
    /// Invertible hash of the packed k-mer.
    pub hash: u64,
}

/// Parameters of the sampling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizerParams {
    /// k-mer length.
    pub k: usize,
    /// Window size in k-mers.
    pub w: usize,
}

impl Default for MinimizerParams {
    fn default() -> MinimizerParams {
        MinimizerParams { k: 15, w: 10 }
    }
}

/// 64-bit invertible finalizer (splitmix64-style) used to order k-mers.
pub fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Extracts the minimizers of `seq` (2-bit codes): the rightmost minimum of
/// each window of `w` consecutive k-mers, in position order, a window that
/// picks the same k-mer as the one before it adding nothing. A sequence of
/// fewer than `w` k-mers yields its leftmost global minimum; one shorter
/// than `k`, nothing.
///
/// # Panics
///
/// Panics if `k == 0`, `k > 31`, or `w == 0`.
pub fn minimizers(seq: &[u8], params: &MinimizerParams) -> Vec<Minimizer> {
    let (k, w) = (params.k, params.w);
    assert!(k > 0 && k <= 31, "k must be in 1..=31");
    assert!(w > 0, "window must be positive");
    if seq.len() < k {
        return Vec::new();
    }
    let mask = (1u64 << (2 * k)) - 1;
    let mut key = seq[..k - 1].iter().fold(0, |key, &c| (key << 2) | c as u64);
    // Window minima by blocks of `w` k-mers (van Herk; Gil and Werman): a
    // window is a suffix of one block and a prefix of the next, so its
    // minimum is the smaller of the previous block's suffix minimum and the
    // running prefix minimum, each kept rightmost on ties; `suffix[w]` is a
    // sentinel that loses every tie. Each block's windows are all written
    // out, and the count advances past a window only if its minimum is not
    // the one the window before it emitted: no data-dependent branch.
    let (mut hashes, mut suffix) = (vec![0; w], vec![(u64::MAX, 0); w + 1]);
    let mut out = Vec::with_capacity((seq.len() - k) * 2 / w + w);
    let mut last = usize::MAX;
    for (b, codes) in seq[k - 1..].chunks(w).enumerate() {
        for (h, &c) in hashes.iter_mut().zip(codes) {
            debug_assert!(c < 4);
            key = ((key << 2) | c as u64) & mask;
            *h = hash64(key);
        }
        let (start, block) = (b * w, &hashes[..codes.len()]);
        let mut len = out.len();
        out.resize(len + w, Minimizer { pos: 0, hash: 0 });
        let mut prefix = (u64::MAX, 0);
        for (t, &h) in block.iter().enumerate() {
            let i = start + t;
            prefix = select(h <= prefix.0, (h, i), prefix);
            let (hash, pos) = select(prefix.0 <= suffix[t + 1].0, prefix, suffix[t + 1]);
            out[len] = Minimizer {
                pos: pos as u32,
                hash,
            };
            let full = i + 1 >= w;
            len += (full && pos != last) as usize;
            last = if full { pos } else { last };
        }
        out.truncate(len);
        let mut min = (u64::MAX, 0);
        for (t, &h) in block.iter().enumerate().rev() {
            min = select(h < min.0, (h, start + t), min);
            suffix[t] = min;
        }
    }
    // Short sequences (< w k-mers, all in the first block) still contribute
    // their global minimum.
    if out.is_empty() {
        let kmers = hashes[..seq.len() - k + 1].iter().zip(0..);
        let (&hash, pos) = kmers.min_by_key(|&(h, _)| h).expect("a k-mer");
        out.push(Minimizer { pos, hash });
    }
    out
}

/// `a` if `take`, else `b`, a field at a time: the form LLVM reliably
/// turns into conditional moves (a select of the whole pair measured
/// slower in the window loop).
#[inline(always)]
fn select(take: bool, a: (u64, usize), b: (u64, usize)) -> (u64, usize) {
    (if take { a.0 } else { b.0 }, if take { a.1 } else { b.1 })
}

/// An index of a reference's minimizers: hash → ascending positions.
///
/// One open-addressed table of `4 · keys + 1` slots (a power of two would
/// double its memory at a boundary), probed linearly from where the low 32
/// bits of the hash scale to (a window minimum's high bits lean to zero).
/// A hash seen once keeps its position inline in its slot; a repeated
/// hash's positions are one ascending run of `positions`.
#[derive(Debug, Clone)]
pub struct MinimizerIndex {
    params: MinimizerParams,
    slots: Vec<Slot>,
    positions: Vec<u32>,
    total: usize,
}

/// One table slot, 16 bytes: empty while `len == 0`; for `len == 1`
/// `start` is the position itself, else where the run starts.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    start: u32,
    len: u32,
}

impl MinimizerIndex {
    /// Builds the index of `reference` (2-bit codes).
    pub fn build(reference: &[u8], params: MinimizerParams) -> MinimizerIndex {
        let mut mins = minimizers(reference, &params);
        let total = mins.len();
        mins.sort_unstable_by_key(|m| (m.hash, m.pos));
        let runs = || mins.chunk_by(|a, b| a.hash == b.hash);
        let n = 4 * runs().count() + 1;
        let mut slots = vec![Slot::default(); n];
        let repeated = runs().filter(|run| run.len() > 1).map(<[_]>::len).sum();
        let mut positions = Vec::with_capacity(repeated);
        for run in runs() {
            let (start, len) = match run {
                [m] => (m.pos, 1),
                _ => {
                    positions.extend(run.iter().map(|m| m.pos));
                    ((positions.len() - run.len()) as u32, run.len() as u32)
                }
            };
            let key = run[0].hash;
            let mut i = home(key, n);
            while slots[i].len != 0 {
                i = if i + 1 == n { 0 } else { i + 1 };
            }
            slots[i] = Slot { key, start, len };
        }
        MinimizerIndex {
            params,
            slots,
            positions,
            total,
        }
    }

    /// The sampling parameters.
    pub fn params(&self) -> &MinimizerParams {
        &self.params
    }

    /// Total minimizers indexed.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Reference positions sharing `hash`, ascending; records one table
    /// access per lookup plus one per returned position on `trace`.
    pub fn lookup<T: TraceSink>(&self, hash: u64, trace: &mut T) -> &[u32] {
        let entry = hash & 0xffff_ffff;
        trace.record(MemAddr::kmer_entry(entry));
        let n = self.slots.len();
        let mut i = home(hash, n);
        let hits = loop {
            let slot = &self.slots[i];
            match slot.len {
                0 => break &[][..],
                _ if slot.key != hash => i = if i + 1 == n { 0 } else { i + 1 },
                1 => break std::slice::from_ref(&slot.start),
                len => break &self.positions[slot.start as usize..][..len as usize],
            }
        };
        for i in 0..hits.len() as u64 {
            trace.record(MemAddr::kmer_entry(entry + 1 + i));
        }
        hits
    }
}

/// Where a probe for `hash` starts in a table of `n` slots: the low 32
/// bits scaled to `0..n` (Lemire's fast range).
fn home(hash: u64, n: usize) -> usize {
    (((hash & 0xffff_ffff) * n as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use nvwa_genome::{ReferenceGenome, ReferenceParams};

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

    #[test]
    fn density_is_roughly_two_over_w_plus_one() {
        let seq = rand_codes(100_000, 1);
        let params = MinimizerParams { k: 15, w: 10 };
        let mins = minimizers(&seq, &params);
        let density = mins.len() as f64 / seq.len() as f64;
        let expected = 2.0 / (params.w as f64 + 1.0);
        assert!(
            (density - expected).abs() / expected < 0.15,
            "density {density} vs expected {expected}"
        );
    }

    #[test]
    fn shared_substrings_share_minimizers() {
        // Any window-length exact match must yield at least one common
        // minimizer — the property seeding relies on.
        let reference = rand_codes(5_000, 3);
        let params = MinimizerParams { k: 15, w: 10 };
        let index = MinimizerIndex::build(&reference, params);
        let query = reference[1000..1400].to_vec();
        let q_mins = minimizers(&query, &params);
        let anchored = q_mins
            .iter()
            .filter(|m| {
                index
                    .lookup(m.hash, &mut NullTrace)
                    .contains(&(1000 + m.pos))
            })
            .count();
        assert!(
            anchored * 10 >= q_mins.len() * 9,
            "{anchored}/{} minimizers anchored",
            q_mins.len()
        );
    }

    #[test]
    fn positions_are_deduplicated_and_ordered() {
        let seq = rand_codes(2_000, 9);
        let mins = minimizers(&seq, &MinimizerParams::default());
        for w in mins.windows(2) {
            assert!(w[0].pos < w[1].pos || w[0].hash != w[1].hash);
        }
    }

    #[test]
    fn short_sequence_yields_global_minimum() {
        let seq = rand_codes(20, 4); // fewer than w k-mers
        let mins = minimizers(&seq, &MinimizerParams { k: 15, w: 10 });
        assert_eq!(mins.len(), 1);
    }

    #[test]
    fn too_short_sequence_yields_nothing() {
        assert!(minimizers(&[0, 1, 2], &MinimizerParams::default()).is_empty());
    }

    #[test]
    fn lookup_traces_accesses() {
        let seq = rand_codes(3_000, 5);
        let index = MinimizerIndex::build(&seq, MinimizerParams::default());
        let m = minimizers(&seq, &MinimizerParams::default())[0];
        let mut trace = CountTrace::default();
        let hits = index.lookup(m.hash, &mut trace);
        assert_eq!(trace.0 as usize, 1 + hits.len());
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash64(42), hash64(42));
        assert_ne!(hash64(1), hash64(2));
    }

    /// The `HashMap` index `MinimizerIndex` was before the flat table, kept
    /// as the reference model: hash → positions in sampling order, and the
    /// same trace per lookup.
    struct MapIndex(HashMap<u64, Vec<u32>>);

    impl MapIndex {
        fn build(reference: &[u8], params: MinimizerParams) -> MapIndex {
            let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
            for m in minimizers(reference, &params) {
                map.entry(m.hash).or_default().push(m.pos);
            }
            MapIndex(map)
        }

        fn lookup(&self, hash: u64, trace: &mut VecTrace) -> &[u32] {
            trace.record(MemAddr::kmer_entry(hash & 0xffff_ffff));
            let hits = self.0.get(&hash).map(Vec::as_slice).unwrap_or(&[]);
            for (i, _) in hits.iter().enumerate() {
                trace.record(MemAddr::kmer_entry((hash & 0xffff_ffff) + 1 + i as u64));
            }
            hits
        }
    }

    /// Builds both indexes of `reference` and looks up every indexed hash,
    /// each with its low 32 bits kept and a high bit flipped (the same home
    /// slot, so a probe past it), and random hashes: the hits, their order
    /// and the recorded trace must be equal. Returns the flat index.
    fn assert_index_matches_model(reference: &[u8], params: MinimizerParams) -> MinimizerIndex {
        let (index, model) = (
            MinimizerIndex::build(reference, params),
            MapIndex::build(reference, params),
        );
        let total: usize = model.0.values().map(Vec::len).sum();
        assert_eq!(index.len(), total);
        // Sized by its keys: a power of two would double it at a boundary.
        assert_eq!(index.slots.len(), 4 * model.0.len() + 1);
        let mut state = reference.len() as u64;
        let random = (0..64).map(|_| {
            state = hash64(state);
            state
        });
        let stored = model.0.keys().copied();
        let aliased = model.0.keys().map(|&h| h ^ 1 << 40);
        for hash in stored.chain(aliased).chain(random) {
            let (mut got, mut want) = (VecTrace::default(), VecTrace::default());
            assert_eq!(
                index.lookup(hash, &mut got),
                model.lookup(hash, &mut want),
                "hash {hash:#x} of a {}-base reference",
                reference.len()
            );
            assert_eq!(got.0, want.0, "trace of hash {hash:#x}");
        }
        index
    }

    #[test]
    fn flat_table_equals_the_map_index_on_random_references() {
        for (len, seed) in [(0, 1), (14, 2), (15, 3), (500, 4), (20_000, 5)] {
            assert_index_matches_model(&rand_codes(len, seed), MinimizerParams::default());
        }
        // k = 31 (62-bit keys) and a window of one (every k-mer sampled).
        for (k, w) in [(31, 10), (31, 1), (9, 1)] {
            assert_index_matches_model(&rand_codes(5_000, 6), MinimizerParams { k, w });
        }
    }

    #[test]
    fn flat_table_equals_the_map_index_on_degenerate_references() {
        let params = MinimizerParams::default();
        // All-A: one k-mer at every position, one run of positions.
        let index = assert_index_matches_model(&[0; 2_000], params);
        assert_eq!(index.positions.len(), index.len());
        // Period 2: two k-mers alternating.
        let period: Vec<u8> = (0..2_000).map(|p| (p % 2) as u8 * 3).collect();
        assert_index_matches_model(&period, params);
        // Fewer than `w` k-mers: the global minimum alone, inline.
        let index = assert_index_matches_model(&rand_codes(20, 7), params);
        assert_eq!((index.len(), index.positions.len()), (1, 0));
    }

    #[test]
    fn flat_table_equals_the_map_index_on_repeat_families() {
        // The 300 bp repeat families, exact copies and 4 % diverged: keys
        // with up to hundreds of positions beside singletons.
        for (divergence, seed) in [(0.0, 8), (0.04, 9)] {
            let genome = ReferenceGenome::synthesize(
                &ReferenceParams {
                    total_len: 80_000,
                    chromosomes: 2,
                    repeat_fraction: 0.6,
                    repeat_families: 3,
                    repeat_divergence: divergence,
                    ..ReferenceParams::default()
                },
                seed,
            );
            let index =
                assert_index_matches_model(genome.flat().codes(), MinimizerParams::default());
            assert!(index.slots.iter().any(|s| s.len > 64), "no repeat-rich key");
        }
    }

    #[test]
    fn flat_table_equals_the_map_index_when_probes_wrap() {
        // Tiny tables (tens of slots) in which a stored key sits below its
        // home slot: its probe ran off the end and wrapped to the start.
        let mut wrapped = 0;
        for seed in 0..10_000 {
            let index = assert_index_matches_model(
                &rand_codes(30 + seed as usize % 60, seed),
                MinimizerParams { k: 5, w: 4 },
            );
            let n = index.slots.len();
            wrapped += index
                .slots
                .iter()
                .enumerate()
                .any(|(i, s)| s.len != 0 && home(s.key, n) > i) as usize;
        }
        // A quarter full, about one table in 270 wraps (37 here).
        assert!(wrapped >= 10, "only {wrapped} tables wrapped a probe");
    }
}
