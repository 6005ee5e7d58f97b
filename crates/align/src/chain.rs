//! Seed filtering and chaining (pipeline Step-❷).
//!
//! Short seeds are filtered out while seeds with close coordinates chain
//! into longer candidates. The implementation is the DP of BWA-MEM's
//! `mem_chain`, simplified to the features the accelerator model needs:
//! colinearity on (query, reference), a diagonal-drift penalty and greedy
//! selection of non-redundant chains; each seed looks back only along its
//! diagonal band.

/// An exact-match seed on a specific strand.
///
/// Coordinates are in the *strand-oriented* read (for `is_rc` seeds, in the
/// reverse-complemented read) so that chaining and extension always run
/// against the forward reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    /// Start position on the oriented read (inclusive).
    pub query_start: usize,
    /// End position on the oriented read (exclusive).
    pub query_end: usize,
    /// Start position on the forward reference (flat coordinates).
    pub ref_pos: u64,
    /// Whether the seed comes from the reverse-complemented read.
    pub is_rc: bool,
}

impl Seed {
    /// Seed length.
    pub fn len(&self) -> usize {
        self.query_end - self.query_start
    }

    /// Whether the seed is degenerate.
    pub fn is_empty(&self) -> bool {
        self.query_end <= self.query_start
    }

    /// The seed's diagonal (reference minus query position).
    pub fn diagonal(&self) -> i64 {
        self.ref_pos as i64 - self.query_start as i64
    }
}

/// A colinear group of seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Member seeds, sorted by query start.
    pub seeds: Vec<Seed>,
    /// Chain score (query coverage minus drift penalties).
    pub score: i32,
    /// Strand of all member seeds.
    pub is_rc: bool,
}

impl Chain {
    /// Query span covered by the chain: `[start, end)`.
    pub fn query_span(&self) -> (usize, usize) {
        (
            self.seeds.first().map(|s| s.query_start).unwrap_or(0),
            self.seeds.last().map(|s| s.query_end).unwrap_or(0),
        )
    }

    /// Reference span covered by the chain: `[start, end)`.
    pub fn ref_span(&self) -> (u64, u64) {
        (
            self.seeds.first().map(|s| s.ref_pos).unwrap_or(0),
            self.seeds
                .last()
                .map(|s| s.ref_pos + s.len() as u64)
                .unwrap_or(0),
        )
    }
}

/// Chaining parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Maximum gap (query or reference) between chained seeds.
    pub max_gap: usize,
    /// Maximum diagonal drift between chained seeds.
    pub max_drift: usize,
    /// Minimum chain score to keep.
    pub min_chain_score: i32,
    /// Keep at most this many chains in all: [`chain_seeds`] sorts both
    /// strands' chains by score (stable, forward strand first on ties) and
    /// truncates; so no strand contributes more than this many either.
    pub max_chains: usize,
}

impl Default for ChainConfig {
    fn default() -> ChainConfig {
        ChainConfig {
            max_gap: 100,
            max_drift: 32,
            min_chain_score: 10,
            max_chains: 4,
        }
    }
}

/// Chains seeds into colinear groups, filtering and greedily selecting the
/// best non-overlapping chains.
///
/// Seeds may be on either strand; chains never mix strands. The result is
/// sorted by descending score. Where a strand's seeds are one run, none
/// empty and already in `(query_start, ref_pos)` order — as
/// `LongReadAligner` emits them — that run is chained where it lies.
pub fn chain_seeds(seeds: &[Seed], config: &ChainConfig) -> Vec<Chain> {
    let mut chains = Vec::new();
    let forward = seeds.iter().take_while(|s| !s.is_rc).count();
    let runs = seeds[forward..].iter().all(|s| s.is_rc);
    for (is_rc, run) in [(false, &seeds[..forward]), (true, &seeds[forward..])] {
        let in_order = run.is_sorted_by_key(|s| (s.query_start, s.ref_pos));
        if runs && in_order && !run.is_empty() && !run.iter().any(Seed::is_empty) {
            chains.extend(chain_one_strand(run, config, is_rc));
            continue;
        }
        let mut strand: Vec<Seed> = seeds
            .iter()
            .copied()
            .filter(|s| s.is_rc == is_rc && !s.is_empty())
            .collect();
        if strand.is_empty() {
            continue;
        }
        strand.sort_by_key(|s| (s.query_start, s.ref_pos));
        chains.extend(chain_one_strand(&strand, config, is_rc));
    }
    chains.sort_by_key(|c| std::cmp::Reverse(c.score));
    chains.truncate(config.max_chains);
    chains
}

/// One strand's chains, `seeds` sorted by `(query_start, ref_pos)`: at most
/// `max_chains` of them, in non-increasing score — all that `chain_seeds`
/// can keep of a strand.
///
/// A link drifts at most `max_drift` diagonals, so with the seeds grouped
/// into diagonal bands `max_drift + 1` wide a seed's predecessors lie in its
/// own band or the two beside it. Each band is scanned newest seed first
/// and left once the best score of its older seeds plus the new seed's
/// length (the most a link can gain) cannot beat the best link found. The
/// result is that of the full look-back, ties to the lowest predecessor.
fn chain_one_strand(seeds: &[Seed], config: &ChainConfig, is_rc: bool) -> Vec<Chain> {
    let n = seeds.len();
    // A seed starting more than `max_gap + max_len` before `b` ends more
    // than `max_gap` before it: no band is scanned past such a seed.
    let reach = config.max_gap + seeds.iter().map(Seed::len).max().unwrap_or(0);
    // The bands as CSR in `order`. `[..n]`: each seed as one word, its band
    // (counted from the lowest diagonal) above its index, sorted — a word
    // sorts several times faster than a pair. `[n..2n]`: each seed's dense
    // band id. `[2n..]`: each band's next unvisited slot in `[..n]`; seeds
    // are visited in order, so a band's slots below it are its seeds
    // before the current one.
    let (width, bits) = (config.max_drift as u64 + 1, usize::BITS - n.leading_zeros());
    let low = seeds.iter().map(Seed::diagonal).min().unwrap_or(0);
    let band = |s: &Seed| (s.diagonal() - low) as u64 / width;
    let bands = seeds.iter().map(band).max().unwrap_or(0);
    assert!(
        bits <= 32 && bands >> (64 - bits) == 0,
        "{n} seeds over {bands} bands do not pack into words"
    );
    let seed = |m: u64| (m & ((1 << bits) - 1)) as usize;
    let mut order: Vec<u64> = Vec::with_capacity(3 * n);
    order.extend((0..n).map(|i| band(&seeds[i]) << bits | i as u64));
    order.sort_unstable();
    order.resize(2 * n, 0);
    for slot in 0..n {
        if slot == 0 || order[slot] >> bits != order[slot - 1] >> bits {
            order.push(slot as u64);
        }
        let (i, band) = (seed(order[slot]), order.len() - 2 * n - 1);
        order[n + i] = band as u64;
    }
    let (members, rest) = order.split_at_mut(n);
    let (home, next) = rest.split_at_mut(n);
    // f[i] = best chain score ending at seed i; p[i] = predecessor. `f[n..]`
    // is the prefix maximum of f along each band, by member slot.
    let lens = seeds.iter().map(|s| s.len() as i32);
    let mut f: Vec<i32> = lens.chain(std::iter::repeat_n(0, n)).collect();
    let mut p: Vec<Option<usize>> = vec![None; n];
    for (i, b) in seeds.iter().enumerate() {
        let own = home[i] as usize;
        let key = members[next[own] as usize] >> bits;
        // Its own band, then the dense ids beside it, which are scanned only
        // while their seeds' band is `key - 1` or `key + 1`: adjacent.
        for step in [0, -1, 1] {
            let d = own.wrapping_add_signed(step);
            let band = key.wrapping_add_signed(step as i64);
            for slot in (0..next.get(d).map_or(0, |&end| end as usize)).rev() {
                let j = seed(members[slot]);
                let a = &seeds[j];
                let bound = f[n + slot] + b.len() as i32;
                if members[slot] >> bits != band
                    || a.query_start + reach < b.query_start
                    || bound < f[i]
                    || (bound == f[i] && p[i].is_none())
                {
                    break;
                }
                if b.ref_pos < a.ref_pos
                    || b.query_start.saturating_sub(a.query_end) > config.max_gap
                    || (b.ref_pos - a.ref_pos) as usize > a.len() + config.max_gap
                {
                    continue;
                }
                let drift = (b.diagonal() - a.diagonal()).unsigned_abs() as usize;
                if drift > config.max_drift {
                    continue;
                }
                // Gain: newly covered query bases, minus a drift penalty.
                let new_cover = b.query_end.saturating_sub(a.query_end.max(b.query_start));
                let score = f[j] + new_cover as i32 - (drift as i32) / 2;
                if score > f[i] || (score == f[i] && p[i].is_some_and(|k| j < k)) {
                    f[i] = score;
                    p[i] = Some(j);
                }
            }
        }
        let slot = next[own] as usize;
        next[own] += 1;
        let same = slot > 0 && members[slot - 1] >> bits == key;
        f[n + slot] = f[i].max(if same { f[n + slot - 1] } else { 0 });
    }

    // Greedy selection: best unused chain tail first, ties to the lowest
    // index (every f is positive).
    order.clear();
    order.extend((0..n).map(|i| ((i32::MAX - f[i]) as u64) << bits | i as u64));
    order.sort_unstable();
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    for tail in order.iter().map(|&m| seed(m)) {
        if chains.len() == config.max_chains {
            break; // the rest score no higher and `chain_seeds` drops them
        }
        if used[tail] || f[tail] < config.min_chain_score {
            continue;
        }
        let mut members = Vec::new();
        let mut cursor = Some(tail);
        let mut clean = true;
        while let Some(i) = cursor {
            if used[i] {
                clean = false;
                break;
            }
            members.push(i);
            cursor = p[i];
        }
        if !clean {
            continue; // shares a prefix with a better chain
        }
        for &i in &members {
            used[i] = true;
        }
        members.reverse();
        chains.push(Chain {
            seeds: members.into_iter().map(|i| seeds[i]).collect(),
            score: f[tail],
            is_rc,
        });
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(qs: usize, qe: usize, rp: u64) -> Seed {
        Seed {
            query_start: qs,
            query_end: qe,
            ref_pos: rp,
            is_rc: false,
        }
    }

    #[test]
    fn colinear_seeds_chain_together() {
        let seeds = vec![seed(0, 20, 1000), seed(25, 45, 1025), seed(50, 70, 1051)];
        let chains = chain_seeds(&seeds, &ChainConfig::default());
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].seeds.len(), 3);
        assert_eq!(chains[0].query_span(), (0, 70));
        assert_eq!(chains[0].ref_span(), (1000, 1071));
    }

    #[test]
    fn distant_seeds_form_separate_chains() {
        let seeds = vec![seed(0, 30, 1000), seed(40, 70, 500_000)];
        let chains = chain_seeds(&seeds, &ChainConfig::default());
        assert_eq!(chains.len(), 2);
        assert!(chains.iter().all(|c| c.seeds.len() == 1));
    }

    #[test]
    fn strands_never_mix() {
        let mut a = seed(0, 30, 1000);
        let mut b = seed(32, 60, 1032);
        a.is_rc = false;
        b.is_rc = true;
        let chains = chain_seeds(&[a, b], &ChainConfig::default());
        assert_eq!(chains.len(), 2);
        assert_ne!(chains[0].is_rc, chains[1].is_rc);
    }

    #[test]
    fn short_low_score_chains_are_filtered() {
        let seeds = vec![seed(0, 5, 100)];
        let config = ChainConfig {
            min_chain_score: 10,
            ..ChainConfig::default()
        };
        assert!(chain_seeds(&seeds, &config).is_empty());
    }

    #[test]
    fn drift_beyond_band_splits_chains() {
        // Second seed is colinear in query but 100 diagonals away.
        let seeds = vec![seed(0, 30, 1000), seed(35, 65, 1135)];
        let config = ChainConfig {
            max_drift: 32,
            ..ChainConfig::default()
        };
        let chains = chain_seeds(&seeds, &config);
        assert_eq!(chains.len(), 2);
    }

    #[test]
    fn chains_sorted_by_score_and_truncated() {
        let mut seeds = Vec::new();
        // Three independent chains of decreasing coverage.
        for (base, count) in [(0u64, 3usize), (100_000, 2), (200_000, 1)] {
            for k in 0..count {
                seeds.push(seed(k * 25, k * 25 + 20, base + (k * 25) as u64));
            }
        }
        let config = ChainConfig {
            max_chains: 2,
            ..ChainConfig::default()
        };
        let chains = chain_seeds(&seeds, &config);
        assert_eq!(chains.len(), 2);
        assert!(chains[0].score >= chains[1].score);
        assert_eq!(chains[0].seeds.len(), 3);
    }

    #[test]
    fn overlapping_query_spans_do_not_double_count() {
        // Two heavily overlapping seeds: chain score must not exceed the
        // union of covered query bases.
        let seeds = vec![seed(0, 30, 1000), seed(10, 40, 1010)];
        let chains = chain_seeds(&seeds, &ChainConfig::default());
        assert_eq!(chains.len(), 1);
        assert!(chains[0].score <= 40);
    }

    #[test]
    fn empty_input_yields_no_chains() {
        assert!(chain_seeds(&[], &ChainConfig::default()).is_empty());
    }
}
