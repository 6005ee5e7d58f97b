//! Sampled suffix array for locating matches.
//!
//! Storing the full suffix array of a genome is too large for accelerator
//! memory; both BWA and the hardware designs the paper builds on keep a
//! sampled SA and recover positions by LF-walking to the nearest sample.
//! Every LF step costs one occ-block read and the final sample read costs one
//! more — this is the source of the variable `2 + P` DRAM accesses per locate
//! that the paper's footnote 3 describes.

use crate::fm_index::FmIndex;
use crate::suffix_array::build_suffix_array;
use crate::trace::{MemAddr, TraceSink};

/// A text-position-sampled suffix array (samples where `SA[i] % rate == 0`).
#[derive(Debug, Clone)]
pub struct SampledSa {
    rate: u32,
    /// Bit vector over ranks: 1 if the rank's SA value is sampled.
    marks: Vec<u64>,
    /// Cumulative popcount of `marks` before each word.
    rank_acc: Vec<u32>,
    /// Sampled SA values, in rank order.
    samples: Vec<u32>,
}

impl SampledSa {
    /// Default sampling rate used by the evaluation (one sample per 32 text
    /// positions, BWA's default).
    pub const DEFAULT_RATE: u32 = 32;

    /// Builds a sampled SA for `text`, recomputing the suffix array.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn from_text(text: &[u8], rate: u32) -> SampledSa {
        let sa = build_suffix_array(text);
        SampledSa::from_sa(&sa, rate)
    }

    /// Builds a sampled SA from a precomputed suffix array.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn from_sa(sa: &[u32], rate: u32) -> SampledSa {
        assert!(rate > 0, "sampling rate must be positive");
        let n = sa.len();
        let mut marks = vec![0u64; n.div_ceil(64)];
        let mut samples = Vec::with_capacity(n / rate as usize + 1);
        for (rank, &value) in sa.iter().enumerate() {
            if value % rate == 0 {
                marks[rank / 64] |= 1u64 << (rank % 64);
                samples.push(value);
            }
        }
        let mut rank_acc = Vec::with_capacity(marks.len() + 1);
        let mut acc = 0u32;
        for &w in &marks {
            rank_acc.push(acc);
            acc += w.count_ones();
        }
        rank_acc.push(acc);
        SampledSa {
            rate,
            marks,
            rank_acc,
            samples,
        }
    }

    /// The sampling rate.
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// Number of stored samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Approximate footprint in bytes (samples + mark bits).
    pub fn footprint_bytes(&self) -> usize {
        self.samples.len() * 4 + self.marks.len() * 8
    }

    /// Whether rank `i` is sampled.
    #[inline(always)]
    fn is_marked(&self, i: u64) -> bool {
        let i = i as usize;
        (self.marks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Index of rank `i`'s sample among all samples (valid when marked).
    #[inline(always)]
    fn sample_slot(&self, i: u64) -> usize {
        let i = i as usize;
        let before =
            self.rank_acc[i / 64] + (self.marks[i / 64] & ((1u64 << (i % 64)) - 1)).count_ones();
        before as usize
    }

    /// Recovers `SA[rank]` by LF-walking on `fm` until a sampled rank.
    ///
    /// Records one occ-block access per LF step plus one sample access on
    /// `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range for `fm`.
    #[inline(always)]
    pub fn locate<T: TraceSink>(&self, fm: &FmIndex, rank: u64, trace: &mut T) -> u64 {
        let (mut i, mut steps) = (rank, 0u64);
        while !self.is_marked(i) {
            // A correct index reaches a sample in under `rate` steps.
            debug_assert!(steps < self.rate.into(), "no sample in {steps} LF steps");
            // LF never hits the sentinel here: SA[primary] == 0 and 0 % rate
            // == 0, so the sentinel rank is always marked.
            i = fm.lf(i, trace).expect("sentinel rank is always sampled");
            steps += 1;
        }
        let slot = self.sample_slot(i);
        trace.record(MemAddr::sa_slot(slot as u64));
        self.samples[slot] as u64 + steps
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

    #[test]
    fn locate_recovers_full_sa() {
        let text = rand_codes(333, 17);
        let sa = build_suffix_array(&text);
        let fm = FmIndex::from_text(&text);
        for rate in [1u32, 4, 32, 64] {
            let ssa = SampledSa::from_sa(&sa, rate);
            for (rank, &value) in sa.iter().enumerate() {
                let got = ssa.locate(&fm, rank as u64, &mut NullTrace);
                assert_eq!(got, value as u64, "rank {rank} rate {rate}");
            }
        }
    }

    /// The samples of another text than the FM-index's: from a rank whose LF
    /// walk meets none of them within `rate` steps, `locate` fails its step
    /// bound in a debug build instead of walking on to a wrong position.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "no sample in 32 LF steps")]
    fn samples_of_another_text_fail_the_step_bound() {
        let rate = 32;
        let fm = FmIndex::from_text(&rand_codes(333, 17));
        let ssa = SampledSa::from_text(&rand_codes(333, 18), rate);
        let misses = |mut i: u64| {
            for _ in 0..rate {
                match (ssa.is_marked(i), fm.lf(i, &mut NullTrace)) {
                    (false, Some(next)) => i = next,
                    _ => return false,
                }
            }
            !ssa.is_marked(i)
        };
        let rank = (0..fm.seq_len()).find(|&r| misses(r)).unwrap();
        ssa.locate(&fm, rank, &mut NullTrace);
    }

    /// `locate` as the aligner's `popcnt` arm compiles it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn locate_popcnt(ssa: &SampledSa, fm: &FmIndex, rank: u64, trace: &mut VecTrace) -> u64 {
        ssa.locate(fm, rank, trace)
    }

    /// Both arms the aligner runs `locate` in, where the host has them: the
    /// baseline build and the `popcnt` one, with the same addresses.
    #[test]
    fn locate_twins_agree_on_adversarial_texts() {
        let texts = [
            vec![0u8; 500],                                       // all-A
            (0..600).map(|i| (i % 2) as u8).collect::<Vec<u8>>(), // period 2
            vec![0u8, 1, 2, 3, 0, 1],                             // shorter than the LUT depth
            rand_codes(777, 29),
        ];
        for text in &texts {
            let sa = build_suffix_array(text);
            let fm = FmIndex::from_text(text);
            let ssa = SampledSa::from_sa(&sa, 32);
            for (rank, &value) in sa.iter().enumerate() {
                let mut addrs = VecTrace::default();
                assert_eq!(ssa.locate(&fm, rank as u64, &mut addrs), value as u64);
                #[cfg(target_arch = "x86_64")]
                if crate::Isa::host() >= crate::Isa::Popcnt {
                    let mut twin = VecTrace::default();
                    // SAFETY: the CPU reports `popcnt`, checked on the line above.
                    let got = unsafe { locate_popcnt(&ssa, &fm, rank as u64, &mut twin) };
                    assert_eq!(got, value as u64, "rank {rank}");
                    assert_eq!(twin.0, addrs.0, "rank {rank}");
                }
            }
        }
        if crate::Isa::host() < crate::Isa::Popcnt {
            eprintln!("note: no popcnt on this host, the popcnt arm is skipped");
        }
    }

    #[test]
    fn walk_length_is_bounded_by_rate() {
        let text = rand_codes(500, 3);
        let sa = build_suffix_array(&text);
        let fm = FmIndex::from_text(&text);
        let rate = 16u32;
        let ssa = SampledSa::from_sa(&sa, rate);
        for rank in 0..sa.len() as u64 {
            let mut trace = CountTrace::default();
            let _ = ssa.locate(&fm, rank, &mut trace);
            // At most rate-1 LF steps (1 access each) + 1 sample access.
            assert!(
                trace.0 <= rate as u64,
                "rank {rank} took {} accesses",
                trace.0
            );
            assert!(trace.0 >= 1);
        }
    }

    #[test]
    fn rate_one_is_direct_lookup() {
        let text = rand_codes(100, 8);
        let sa = build_suffix_array(&text);
        let fm = FmIndex::from_text(&text);
        let ssa = SampledSa::from_sa(&sa, 1);
        assert_eq!(ssa.sample_count(), sa.len());
        let mut trace = CountTrace::default();
        let _ = ssa.locate(&fm, 37, &mut trace);
        assert_eq!(trace.0, 1); // exactly one sample access, no LF
    }

    #[test]
    fn footprint_shrinks_with_rate() {
        let text = rand_codes(4096, 4);
        let sa = build_suffix_array(&text);
        let dense = SampledSa::from_sa(&sa, 1);
        let sparse = SampledSa::from_sa(&sa, 32);
        assert!(sparse.footprint_bytes() < dense.footprint_bytes() / 8);
    }

    #[test]
    #[should_panic(expected = "sampling rate must be positive")]
    fn zero_rate_panics() {
        let _ = SampledSa::from_sa(&[0], 0);
    }
}
