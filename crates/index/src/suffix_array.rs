//! Suffix array construction.
//!
//! Induced sorting (SA-IS; Nong, Zhang & Chan, DCC 2009): linear time. The
//! L/S type of each position lives in a bitvector (n bits); the sorted LMS
//! positions, their names and the reduced text all live in the output array
//! itself, so the working memory beyond the returned `Vec<u32>` is those
//! bits plus, per recursion level, two bucket arrays of one `u32` per
//! distinct symbol. The top level reads the 2-bit codes directly; the
//! recursion sorts the `u32` names of the LMS substrings. The sentinel that
//! ends the text is implicit: it sorts before every base, matching the
//! classical FM-index construction.

/// An empty slot of the suffix array under construction.
const EMPTY: u32 = u32::MAX;

/// Texts shorter than this are comparison-sorted (the recursion's base case).
const SORT_BELOW: usize = 8;

/// Builds the suffix array of `text` (2-bit codes) **including** the implicit
/// terminal sentinel.
///
/// The returned array has length `text.len() + 1`; entry 0 is always
/// `text.len()` (the empty/sentinel suffix). Entries are indices into `text`.
///
/// # Examples
///
/// ```
/// use nvwa_index::suffix_array::build_suffix_array;
/// // "banana" over a tiny alphabet: use codes directly. Text: 1,0,2,0,2,0
/// let sa = build_suffix_array(&[1, 0, 2, 0, 2, 0]);
/// assert_eq!(sa[0], 6); // sentinel suffix first
/// ```
///
/// # Panics
///
/// Panics if any code is ≥ 4.
pub fn build_suffix_array(text: &[u8]) -> Vec<u32> {
    assert!(
        text.len() < u32::MAX as usize - 2,
        "text too long for u32 suffix array"
    );
    assert!(text.iter().all(|&c| c < 4), "codes must be in 0..4");
    let mut sa = vec![0; text.len() + 1];
    sa[0] = text.len() as u32;
    sais(text, &mut sa[1..], 4);
    sa
}

/// A 2-bit code at the top level, an LMS-substring name below it.
trait Symbol: Copy + Ord + Into<u32> {}
impl<T: Copy + Ord + Into<u32>> Symbol for T {}

/// Position types, one bit each: set for S (the suffix is smaller than the
/// one after it), clear for L. The last position is L: the sentinel after
/// it is smaller.
struct Types(Vec<u64>);

impl Types {
    fn classify<T: Symbol>(s: &[T]) -> Types {
        let mut bits = vec![0u64; s.len().div_ceil(64)];
        let mut next_is_s = false;
        for i in (0..s.len().saturating_sub(1)).rev() {
            next_is_s = s[i] < s[i + 1] || (s[i] == s[i + 1] && next_is_s);
            bits[i / 64] |= u64::from(next_is_s) << (i % 64);
        }
        Types(bits)
    }

    fn is_s(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// A leftmost-S position: S, with an L position before it.
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// Occurrences of each of the `k` symbols of `s`.
fn symbol_counts<T: Symbol>(s: &[T], k: usize) -> Vec<u32> {
    let mut counts = vec![0; k];
    for &c in s {
        counts[c.into() as usize] += 1;
    }
    counts
}

/// Sets `bkt` to each bucket's first slot (`heads`) or one past its last.
fn bucket_bounds(counts: &[u32], bkt: &mut [u32], heads: bool) {
    let mut sum = 0;
    for (b, &c) in bkt.iter_mut().zip(counts) {
        *b = if heads { sum } else { sum + c };
        sum += c;
    }
}

/// Writes the suffix array of `s` (implicit sentinel, not stored) over its
/// `k` symbols into `sa`, which has `s.len()` slots.
fn sais<T: Symbol>(s: &[T], sa: &mut [u32], k: usize) {
    let n = s.len();
    if n < SORT_BELOW {
        sa.iter_mut().zip(0..).for_each(|(slot, i)| *slot = i);
        sa.sort_unstable_by(|&a, &b| s[a as usize..].cmp(&s[b as usize..]));
        return;
    }
    let types = Types::classify(s);

    // Sort the LMS substrings: every LMS position at its bucket's tail, then
    // induce. They end up in `sa[..m]` in LMS-substring order.
    let counts = symbol_counts(s, k);
    let mut bkt = vec![0; k];
    sa.fill(EMPTY);
    bucket_bounds(&counts, &mut bkt, false);
    for i in (1..n).filter(|&i| types.is_lms(i)) {
        let c = s[i].into() as usize;
        bkt[c] -= 1;
        sa[bkt[c] as usize] = i as u32;
    }
    induce(s, sa, &types, &counts, &mut bkt);
    drop((counts, bkt));
    let mut m = 0;
    for i in 0..n {
        let pos = sa[i];
        if types.is_lms(pos as usize) {
            sa[m] = pos;
            m += 1;
        }
    }

    // Name them, equal substrings alike, at `sa[m + pos / 2]` (LMS positions
    // are at least two apart and m ≤ n/2), then gather the names in text
    // order into the reduced text `s1 = sa[n - m..]`.
    sa[m..].fill(EMPTY);
    let mut names = 0;
    for r in 0..m {
        let pos = sa[r] as usize;
        if r == 0 || !lms_substrings_equal(s, &types, sa[r - 1] as usize, pos) {
            names += 1;
        }
        sa[m + pos / 2] = names - 1;
    }
    let mut tail = n;
    for i in (m..n).rev() {
        if sa[i] != EMPTY {
            tail -= 1;
            sa[tail] = sa[i];
        }
    }

    // Sort the LMS suffixes: recurse on `s1` unless every name is distinct,
    // then turn each rank of `s1` back into its text position.
    let (sa1, rest) = sa.split_at_mut(m);
    let s1 = &mut rest[n - 2 * m..];
    if (names as usize) < m {
        sais(s1, sa1, names as usize);
    } else {
        for (i, &name) in s1.iter().enumerate() {
            sa1[name as usize] = i as u32;
        }
    }
    for (slot, i) in s1.iter_mut().zip((1..n).filter(|&i| types.is_lms(i))) {
        *slot = i as u32;
    }
    for r in sa1.iter_mut() {
        *r = s1[*r as usize];
    }

    // Place the sorted LMS suffixes at their buckets' tails (highest first, so
    // no unplaced one is overwritten) and induce the rest.
    sa[m..].fill(EMPTY);
    let counts = symbol_counts(s, k);
    let mut bkt = vec![0; k];
    bucket_bounds(&counts, &mut bkt, false);
    for r in (0..m).rev() {
        let pos = sa[r];
        sa[r] = EMPTY;
        let c = s[pos as usize].into() as usize;
        bkt[c] -= 1;
        sa[bkt[c] as usize] = pos;
    }
    induce(s, sa, &types, &counts, &mut bkt);
}

/// Induces the L suffixes left to right from the sentinel and the LMS
/// suffixes in `sa`, then the S suffixes right to left from the L ones.
fn induce<T: Symbol>(s: &[T], sa: &mut [u32], types: &Types, counts: &[u32], bkt: &mut [u32]) {
    let n = s.len();
    bucket_bounds(counts, bkt, true);
    let c = s[n - 1].into() as usize;
    sa[bkt[c] as usize] = n as u32 - 1;
    bkt[c] += 1;
    for i in 0..n {
        let pos = sa[i];
        if pos != EMPTY && pos > 0 && !types.is_s(pos as usize - 1) {
            let c = s[pos as usize - 1].into() as usize;
            sa[bkt[c] as usize] = pos - 1;
            bkt[c] += 1;
        }
    }
    bucket_bounds(counts, bkt, false);
    for i in (0..n).rev() {
        let pos = sa[i];
        if pos != EMPTY && pos > 0 && types.is_s(pos as usize - 1) {
            let c = s[pos as usize - 1].into() as usize;
            bkt[c] -= 1;
            sa[bkt[c] as usize] = pos - 1;
        }
    }
}

/// Whether the LMS substrings at `a` and `b` (each up to and including the
/// next LMS position) are equal in symbols and types. The one that runs
/// into the sentinel equals no other.
fn lms_substrings_equal<T: Symbol>(s: &[T], types: &Types, a: usize, b: usize) -> bool {
    for d in 0.. {
        let (x, y) = (a + d, b + d);
        if x == s.len() || y == s.len() || s[x] != s[y] || types.is_s(x) != types.is_s(y) {
            return false;
        }
        if d > 0 && types.is_lms(x) {
            return true;
        }
    }
    unreachable!("an LMS substring ends at the next LMS position or the sentinel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmd_index::FmdIndex;
    use nvwa_genome::{ReferenceGenome, ReferenceParams};

    /// Sorts every suffix by direct comparison; a shorter suffix that is a
    /// prefix of a longer one sorts first, as the sentinel dictates.
    fn naive_sa(text: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..=text.len() as u32).collect();
        sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
        sa
    }

    /// The construction SA-IS replaced: prefix doubling with radix sort,
    /// O(n log n) time and five `u32` arrays of n + 1.
    fn doubling_sa(text: &[u8]) -> Vec<u32> {
        let n = text.len() + 1; // including sentinel

        // rank[i]: current rank of suffix i; sentinel gets rank 0, bases 1..=4.
        let mut rank: Vec<u32> = Vec::with_capacity(n);
        rank.extend(text.iter().map(|&c| c as u32 + 1));
        rank.push(0);

        let mut sa: Vec<u32> = (0..n as u32).collect();
        let mut tmp_sa: Vec<u32> = vec![0; n];
        let mut new_rank: Vec<u32> = vec![0; n];

        // Initial sort by first symbol (counting sort over 5 buckets).
        {
            let mut counts = [0u32; 6];
            for &r in &rank {
                counts[r as usize + 1] += 1;
            }
            for i in 1..6 {
                counts[i] += counts[i - 1];
            }
            for i in 0..n as u32 {
                let r = rank[i as usize] as usize;
                sa[counts[r] as usize] = i;
                counts[r] += 1;
            }
        }

        let mut k = 1usize;
        while k < n {
            // Sort by (rank[i], rank[i+k]) using two stable counting-sort
            // passes. Pass 1: by second key. Suffixes with i+k >= n have key
            // 0 and come first; they are exactly the suffixes i in [n-k, n).
            let mut idx = 0usize;
            for i in (n.saturating_sub(k))..n {
                tmp_sa[idx] = i as u32;
                idx += 1;
            }
            // The remaining suffixes, ordered by the rank of suffix i+k: walk
            // the current sa (sorted by rank) and pick i = sa[j] - k.
            for &entry in sa.iter() {
                let pos = entry as usize;
                if pos >= k {
                    tmp_sa[idx] = (pos - k) as u32;
                    idx += 1;
                }
            }
            debug_assert_eq!(idx, n);

            // Pass 2: stable counting sort by first key rank[i]. Ranks are
            // < n after the first re-rank, but the initial ranks are raw
            // codes in 0..=4, which can exceed n on tiny texts.
            let max_rank = n.max(5);
            let mut counts = vec![0u32; max_rank + 1];
            for i in 0..n {
                counts[rank[i] as usize] += 1;
            }
            let mut acc = 0u32;
            for c in counts.iter_mut() {
                let v = *c;
                *c = acc;
                acc += v;
            }
            for &i in tmp_sa.iter() {
                let r = rank[i as usize] as usize;
                sa[counts[r] as usize] = i;
                counts[r] += 1;
            }

            // Re-rank.
            let key = |i: usize| -> (u32, u32) {
                let second = if i + k < n { rank[i + k] } else { u32::MAX };
                (rank[i], second)
            };
            new_rank[sa[0] as usize] = 0;
            let mut r = 0u32;
            for j in 1..n {
                if key(sa[j] as usize) != key(sa[j - 1] as usize) {
                    r += 1;
                }
                new_rank[sa[j] as usize] = r;
            }
            std::mem::swap(&mut rank, &mut new_rank);
            if r as usize == n - 1 {
                break; // all ranks distinct
            }
            k *= 2;
        }
        sa
    }

    /// Every text of each length in `lens` over the first `sigma` codes.
    fn every_text(sigma: u8, lens: std::ops::RangeInclusive<u32>) -> impl Iterator<Item = Vec<u8>> {
        lens.flat_map(move |len| {
            (0..u64::from(sigma).pow(len)).map(move |mut x| {
                (0..len)
                    .map(|_| {
                        let c = (x % u64::from(sigma)) as u8;
                        x /= u64::from(sigma);
                        c
                    })
                    .collect()
            })
        })
    }

    #[test]
    fn empty_text() {
        assert_eq!(build_suffix_array(&[]), vec![0]);
    }

    #[test]
    fn single_symbol() {
        assert_eq!(build_suffix_array(&[2]), vec![1, 0]);
    }

    #[test]
    fn every_short_text_matches_naive() {
        let mut texts = 0;
        for text in every_text(4, 0..=7) {
            assert_eq!(build_suffix_array(&text), naive_sa(&text), "text {text:?}");
            texts += 1;
        }
        assert_eq!(texts, 21_845);
    }

    #[test]
    fn every_binary_text_past_the_sort_threshold_matches_naive() {
        // Long enough that induced sorting, not the comparison sort, runs.
        for text in every_text(2, SORT_BELOW as u32..=14) {
            assert_eq!(build_suffix_array(&text), naive_sa(&text), "text {text:?}");
        }
    }

    #[test]
    fn matches_naive_on_random_inputs() {
        // Deterministic LCG so the test is stable.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) & 0b11) as u8
        };
        for len in [10usize, 50, 200, 777] {
            let text: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(
                build_suffix_array(&text),
                naive_sa(&text),
                "mismatch for len {len}"
            );
        }
    }

    #[test]
    fn repetitive_texts_match_doubling() {
        let mut texts: Vec<Vec<u8>> = Vec::new();
        for c in 0..4 {
            for len in [8, 9, 64, 1000] {
                texts.push(vec![c; len]);
            }
        }
        for unit in [&[1u8, 3][..], &[2, 0, 1], &[0, 3, 3, 1, 2, 0, 2]] {
            for len in [50, 1001, 4096] {
                texts.push(unit.iter().copied().cycle().take(len).collect());
            }
        }
        let mut state = 0x9e37_79b9u32;
        let unit: Vec<u8> = (0..300)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state & 3) as u8
            })
            .collect();
        texts.push(unit.repeat(20));
        for text in texts {
            assert_eq!(
                build_suffix_array(&text),
                doubling_sa(&text),
                "text {text:?}"
            );
        }
    }

    #[test]
    fn synthesized_doubled_genomes_match_doubling() {
        for seed in [1, 37] {
            let params = ReferenceParams {
                total_len: 100_000,
                ..ReferenceParams::default()
            };
            let genome = ReferenceGenome::synthesize(&params, seed);
            let text = FmdIndex::doubled_text(genome.flat().codes());
            assert!(
                build_suffix_array(&text) == doubling_sa(&text),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sentinel_is_first() {
        let text = vec![1u8, 2, 3, 0, 1];
        let sa = build_suffix_array(&text);
        assert_eq!(sa[0] as usize, text.len());
    }

    #[test]
    #[should_panic(expected = "codes must be in 0..4")]
    fn rejects_bad_codes() {
        let _ = build_suffix_array(&[0, 5]);
    }
}
