//! Randomized property tests for minimizer sampling.
//!
//! Two invariants make `(w, k)` minimizers usable as seeds:
//!
//! 1. **Window coverage** — every window of `w` consecutive k-mers
//!    contributes at least one selected minimizer, so any exact match of
//!    `w + k - 1` bases is guaranteed a shared seed.
//! 2. **Density** — random sequences sample about `2/(w+1)` of positions;
//!    much denser wastes lookups, much sparser breaks sensitivity.
//!
//! And one identity: the block window minima equal the rescanning window
//! minimum they replaced, kept here as `rescan_minimizers`.

use nvwa_genome::{ReferenceGenome, ReferenceParams};
use nvwa_index::minimizer::{hash64, minimizers, Minimizer, MinimizerParams};

/// splitmix64 — deterministic, dependency-free test randomness.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn codes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() & 0b11) as u8).collect()
    }
}

/// Reference k-mer hash at `pos`, computed independently of the sampler.
fn kmer_hash(seq: &[u8], pos: usize, k: usize) -> u64 {
    let mut key = 0u64;
    for &c in &seq[pos..pos + k] {
        key = (key << 2) | c as u64;
    }
    hash64(key & ((1u64 << (2 * k)) - 1))
}

#[test]
fn every_window_contributes_a_minimizer() {
    let mut rng = Prng(0x77aa);
    for case in 0..40 {
        let k = 3 + (rng.next() % 12) as usize;
        let w = 2 + (rng.next() % 9) as usize;
        let len = k + w + (rng.next() % 200) as usize;
        let seq = rng.codes(len);
        let params = MinimizerParams { k, w };
        let mins = minimizers(&seq, &params);
        let kmers = seq.len() - k + 1;
        if kmers < w {
            continue; // short-sequence fallback covered below
        }
        for start in 0..=(kmers - w) {
            let covered = mins
                .iter()
                .any(|m| (m.pos as usize) >= start && (m.pos as usize) < start + w);
            assert!(
                covered,
                "case {case}: window [{start}, {}) of k={k} w={w} len={len} \
                 has no minimizer",
                start + w
            );
        }
    }
}

#[test]
fn reported_hashes_match_their_positions() {
    let mut rng = Prng(0x1234);
    for _ in 0..20 {
        let seq = rng.codes(500);
        let params = MinimizerParams { k: 9, w: 6 };
        for m in minimizers(&seq, &params) {
            assert_eq!(
                m.hash,
                kmer_hash(&seq, m.pos as usize, params.k),
                "minimizer at {} reports a foreign hash",
                m.pos
            );
        }
    }
}

#[test]
fn density_tracks_two_over_w_plus_one() {
    let mut rng = Prng(0xd157);
    for &(k, w) in &[(9usize, 5usize), (15, 10), (11, 16)] {
        let seq = rng.codes(60_000);
        let mins = minimizers(&seq, &MinimizerParams { k, w });
        let density = mins.len() as f64 / seq.len() as f64;
        let expected = 2.0 / (w as f64 + 1.0);
        assert!(
            (density - expected).abs() / expected < 0.2,
            "k={k} w={w}: density {density:.4} vs expected {expected:.4}"
        );
    }
}

#[test]
fn sampling_is_deterministic_and_position_sorted() {
    let mut rng = Prng(0xabcd);
    let seq = rng.codes(5_000);
    let params = MinimizerParams::default();
    let a = minimizers(&seq, &params);
    let b = minimizers(&seq, &params);
    assert_eq!(a, b);
    for pair in a.windows(2) {
        assert!(pair[0].pos <= pair[1].pos, "positions regressed");
        assert!(pair[0] != pair[1], "duplicate minimizer emitted");
    }
}

#[test]
fn short_sequences_fall_back_to_the_global_minimum() {
    let mut rng = Prng(0x900d);
    for _ in 0..50 {
        let k = 5;
        let w = 10;
        // Between k and k + w - 2 bases: fewer than w k-mers.
        let len = k + (rng.next() % (w as u64 - 1)) as usize;
        let seq = rng.codes(len);
        let mins = minimizers(&seq, &MinimizerParams { k, w });
        assert_eq!(mins.len(), 1, "len {len}");
        let kmers = seq.len() - k + 1;
        let global_min = (0..kmers)
            .map(|p| kmer_hash(&seq, p, k))
            .min()
            .expect("at least one k-mer");
        assert_eq!(mins[0].hash, global_min);
    }
}

/// The rescanning sampler `minimizers` ran before the block window minima
/// replaced it, kept as the reference model: the same output, including the
/// rightmost-minimum tie rule, the dedup and the short sequence's leftmost
/// global minimum.
fn rescan_minimizers(seq: &[u8], params: &MinimizerParams) -> Vec<Minimizer> {
    let (k, w) = (params.k, params.w);
    if seq.len() < k {
        return Vec::new();
    }
    let hashes: Vec<u64> = (0..=seq.len() - k).map(|p| kmer_hash(seq, p, k)).collect();
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

#[test]
fn block_window_minima_equal_the_rescanning_sampler() {
    let mut rng = Prng(0xde9e);
    for k in 1..=31 {
        for w in 1..=16 {
            // Lengths around `k` (no k-mer, one) and `k + w - 1` (one window
            // short, exactly one, one more), then a long random run.
            let lens = [k - 1, k, k + 1, k + w - 2, k + w - 1, k + w, 300];
            for len in lens {
                let params = MinimizerParams { k, w };
                // A random sequence; a homopolymer (every k-mer, so every
                // hash, tied); and period-2 and period-3 repeats (ties at a
                // distance).
                let random = rng.codes(len);
                let tied = vec![(rng.next() & 0b11) as u8; len];
                let period2: Vec<u8> = (0..len).map(|p| random[p % 2.min(len)]).collect();
                let period3: Vec<u8> = (0..len).map(|p| random[p % 3.min(len)]).collect();
                for seq in [random, tied, period2, period3] {
                    assert_eq!(
                        minimizers(&seq, &params),
                        rescan_minimizers(&seq, &params),
                        "k={k} w={w} len={len} seq={seq:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn block_window_minima_equal_the_rescanning_sampler_on_repeat_families() {
    // References built from the 300 bp repeat families, exact and diverged
    // copies: long runs of equal windows, each repeated k-mer many times.
    for (divergence, seed) in [(0.0, 3), (0.04, 4)] {
        let genome = ReferenceGenome::synthesize(
            &ReferenceParams {
                total_len: 60_000,
                chromosomes: 2,
                repeat_fraction: 0.6,
                repeat_families: 3,
                repeat_divergence: divergence,
                ..ReferenceParams::default()
            },
            seed,
        );
        for (k, w) in [(15, 10), (31, 10), (5, 16), (11, 1)] {
            let params = MinimizerParams { k, w };
            let codes = genome.flat().codes();
            assert_eq!(
                minimizers(codes, &params),
                rescan_minimizers(codes, &params),
                "divergence {divergence} k={k} w={w}"
            );
        }
    }
}
