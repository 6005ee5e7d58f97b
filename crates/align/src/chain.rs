//! Seed filtering and chaining (pipeline Step-❷).
//!
//! Short seeds are filtered out while seeds with close coordinates chain
//! into longer candidates. The implementation is the standard O(n²) DP used
//! by BWA-MEM's `mem_chain`, simplified to the features the accelerator
//! model needs: colinearity on (query, reference), a diagonal-drift penalty
//! and greedy selection of non-redundant chains.

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
/// sorted by descending score.
pub fn chain_seeds(seeds: &[Seed], config: &ChainConfig) -> Vec<Chain> {
    let mut chains = Vec::new();
    for is_rc in [false, true] {
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
fn chain_one_strand(seeds: &[Seed], config: &ChainConfig, is_rc: bool) -> Vec<Chain> {
    let n = seeds.len();
    // f[i] = best chain score ending at seed i; p[i] = predecessor.
    let mut f: Vec<i32> = seeds.iter().map(|s| s.len() as i32).collect();
    let mut p: Vec<Option<usize>> = vec![None; n];
    // A seed starting more than `max_gap + max_len` before `b` ends more
    // than `max_gap` before it: the look-back starts past all such seeds.
    let reach = config.max_gap + seeds.iter().map(Seed::len).max().unwrap_or(0);
    for i in 0..n {
        let first = seeds[..i].partition_point(|a| a.query_start + reach < seeds[i].query_start);
        for j in first..i {
            let (a, b) = (&seeds[j], &seeds[i]);
            if b.query_start < a.query_start
                || b.ref_pos < a.ref_pos
                || b.query_start.saturating_sub(a.query_end) > config.max_gap
            {
                continue;
            }
            let r_gap = (b.ref_pos - a.ref_pos) as usize;
            if r_gap > a.len() + config.max_gap {
                continue;
            }
            let drift = (b.diagonal() - a.diagonal()).unsigned_abs() as usize;
            if drift > config.max_drift {
                continue;
            }
            // Gain: newly covered query bases, minus a drift penalty.
            let new_cover = b.query_end.saturating_sub(a.query_end.max(b.query_start));
            let gain = new_cover as i32 - (drift as i32) / 2;
            if f[j] + gain > f[i] {
                f[i] = f[j] + gain;
                p[i] = Some(j);
            }
        }
    }

    // Greedy selection: best unused chain tail first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| f[b].cmp(&f[a]));
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    for &tail in &order {
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
