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
    // Hash every k-mer.
    let mut hashes = Vec::with_capacity(seq.len() - k + 1);
    let mut key = 0u64;
    for (i, &c) in seq.iter().enumerate() {
        debug_assert!(c < 4);
        key = ((key << 2) | c as u64) & mask;
        if i + 1 >= k {
            hashes.push(hash64(key));
        }
    }
    // Sliding window minima: the current minimum stands until a k-mer at
    // most as small arrives (`<=` keeps the rightmost) or it leaves the
    // window, and only then is the window rescanned.
    let mut out: Vec<Minimizer> = Vec::new();
    let mut min_idx = 0;
    for i in 0..hashes.len() {
        let window_start = (i + 1).saturating_sub(w);
        if hashes[i] <= hashes[min_idx] {
            min_idx = i;
        } else if min_idx < window_start {
            min_idx = window_start;
            for j in window_start + 1..=i {
                if hashes[j] <= hashes[min_idx] {
                    min_idx = j;
                }
            }
        }
        if i + 1 >= w {
            let candidate = Minimizer {
                pos: min_idx as u32,
                hash: hashes[min_idx],
            };
            if out.last() != Some(&candidate) {
                out.push(candidate);
            }
        }
    }
    // Short sequences (< w k-mers) still contribute their global minimum.
    if out.is_empty() && !hashes.is_empty() {
        let (min_idx, &h) = hashes
            .iter()
            .enumerate()
            .min_by_key(|&(_, h)| h)
            .expect("non-empty");
        out.push(Minimizer {
            pos: min_idx as u32,
            hash: h,
        });
    }
    out
}

/// An index of a reference's minimizers: hash → sorted positions.
#[derive(Debug, Clone)]
pub struct MinimizerIndex {
    params: MinimizerParams,
    map: std::collections::HashMap<u64, Vec<u32>>,
    total: usize,
}

impl MinimizerIndex {
    /// Builds the index of `reference` (2-bit codes).
    pub fn build(reference: &[u8], params: MinimizerParams) -> MinimizerIndex {
        let mut map: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
        let mins = minimizers(reference, &params);
        let total = mins.len();
        for m in mins {
            map.entry(m.hash).or_default().push(m.pos);
        }
        MinimizerIndex { params, map, total }
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

    /// Reference positions sharing `hash`; records one table access per
    /// lookup plus one per returned position on `trace`.
    pub fn lookup<T: TraceSink>(&self, hash: u64, trace: &mut T) -> &[u32] {
        trace.record(MemAddr::kmer_entry(hash & 0xffff_ffff));
        let hits = self.map.get(&hash).map(Vec::as_slice).unwrap_or(&[]);
        for (i, _) in hits.iter().enumerate() {
            trace.record(MemAddr::kmer_entry((hash & 0xffff_ffff) + 1 + i as u64));
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountTrace, NullTrace};

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
}
