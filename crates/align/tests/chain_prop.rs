//! Randomized differential tests for the seed chainer.
//!
//! The production chainer is a banded DP with greedy tail selection. These
//! tests pit it against an independent brute-force oracle that enumerates
//! *every* colinear seed subsequence on small inputs and takes the best
//! score, so a regression in the transition predicate or the gain formula
//! shows up as a score mismatch rather than a statistical drift; and
//! against the full O(n²) look-back it replaced, on the shapes where the
//! band, the early stop and the tie rule decide the answer.

use nvwa_align::chain::{chain_seeds, Chain, ChainConfig, Seed};

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The chaining spec, restated independently of the implementation: `b` may
/// follow `a` when it is colinear, within the gap budget on both axes, and
/// within the diagonal band.
fn link_ok(a: &Seed, b: &Seed, cfg: &ChainConfig) -> bool {
    if b.query_start < a.query_start || b.ref_pos < a.ref_pos {
        return false;
    }
    if b.query_start.saturating_sub(a.query_end) > cfg.max_gap {
        return false;
    }
    if (b.ref_pos - a.ref_pos) as usize > a.len() + cfg.max_gap {
        return false;
    }
    (b.diagonal() - a.diagonal()).unsigned_abs() as usize <= cfg.max_drift
}

/// Score gained by appending `b` after `a`: newly covered query bases minus
/// half the diagonal drift.
fn link_gain(a: &Seed, b: &Seed) -> i32 {
    let new_cover = b.query_end.saturating_sub(a.query_end.max(b.query_start));
    let drift = (b.diagonal() - a.diagonal()).unsigned_abs() as usize;
    new_cover as i32 - (drift as i32) / 2
}

/// Brute force: the best score over all valid chains (subsequences of the
/// sorted seed list). Exponential, fine for n ≤ 10.
fn oracle_best(seeds: &[Seed], cfg: &ChainConfig) -> i32 {
    fn dfs(seeds: &[Seed], cfg: &ChainConfig, last: usize, score: i32, best: &mut i32) {
        *best = (*best).max(score);
        for j in last + 1..seeds.len() {
            if link_ok(&seeds[last], &seeds[j], cfg) {
                dfs(
                    seeds,
                    cfg,
                    j,
                    score + link_gain(&seeds[last], &seeds[j]),
                    best,
                );
            }
        }
    }
    let mut sorted = seeds.to_vec();
    sorted.sort_by_key(|s| (s.query_start, s.ref_pos));
    let mut best = i32::MIN;
    for i in 0..sorted.len() {
        dfs(&sorted, cfg, i, sorted[i].len() as i32, &mut best);
    }
    best
}

fn random_seeds(rng: &mut Prng, n: usize, mixed_strands: bool) -> Vec<Seed> {
    (0..n)
        .map(|_| {
            let qs = rng.below(60) as usize;
            let len = 3 + rng.below(10) as usize;
            Seed {
                query_start: qs,
                query_end: qs + len,
                ref_pos: rng.below(90),
                is_rc: mixed_strands && rng.below(2) == 1,
            }
        })
        .collect()
}

const CFG: ChainConfig = ChainConfig {
    max_gap: 30,
    max_drift: 16,
    min_chain_score: 1,
    max_chains: 64,
};

/// Recomputes a chain's score from its member list with the independent
/// gain formula.
fn recompute(chain: &Chain) -> i32 {
    let mut score = chain.seeds[0].len() as i32;
    for pair in chain.seeds.windows(2) {
        score += link_gain(&pair[0], &pair[1]);
    }
    score
}

#[test]
fn best_chain_score_matches_brute_force() {
    let mut rng = Prng(0x10cafe);
    for case in 0..300 {
        let n = 1 + rng.below(9) as usize;
        let seeds = random_seeds(&mut rng, n, false);
        let expect = oracle_best(&seeds, &CFG);
        let chains = chain_seeds(&seeds, &CFG);
        assert!(!chains.is_empty(), "case {case}: no chain from {n} seeds");
        assert_eq!(
            chains[0].score, expect,
            "case {case}: chainer {} vs oracle {} on {seeds:?}",
            chains[0].score, expect
        );
    }
}

#[test]
fn every_reported_chain_is_valid_and_consistently_scored() {
    let mut rng = Prng(0xbeef01);
    for case in 0..300 {
        let n = rng.below(10) as usize;
        let seeds = random_seeds(&mut rng, n, true);
        let chains = chain_seeds(&seeds, &CFG);
        let mut last_score = i32::MAX;
        for chain in &chains {
            assert!(chain.score >= CFG.min_chain_score, "case {case}");
            assert!(chain.score <= last_score, "case {case}: not sorted");
            last_score = chain.score;
            assert!(!chain.seeds.is_empty(), "case {case}");
            for pair in chain.seeds.windows(2) {
                assert!(
                    pair[0].query_start <= pair[1].query_start,
                    "case {case}: members out of order"
                );
                assert!(
                    link_ok(&pair[0], &pair[1], &CFG),
                    "case {case}: invalid link {pair:?}"
                );
            }
            assert!(
                chain.seeds.iter().all(|s| s.is_rc == chain.is_rc),
                "case {case}: mixed strands inside a chain"
            );
            assert_eq!(
                chain.score,
                recompute(chain),
                "case {case}: score disagrees with member walk"
            );
        }
    }
}

#[test]
fn seeds_are_never_shared_between_chains() {
    let mut rng = Prng(0x5eed);
    for case in 0..200 {
        let n = rng.below(10) as usize;
        let seeds = random_seeds(&mut rng, n, true);
        let chains = chain_seeds(&seeds, &CFG);
        let mut used: Vec<Seed> = Vec::new();
        for chain in &chains {
            for s in &chain.seeds {
                assert!(
                    !used.contains(s) || seeds.iter().filter(|x| *x == s).count() > 1,
                    "case {case}: seed {s:?} reused across chains"
                );
                used.push(*s);
            }
        }
    }
}

/// `chain_seeds` before its exact cuts, kept as the reference model: the
/// full O(n²) look-back (every earlier seed of the strand, where the chainer
/// scans its diagonal band and stops early) and an uncapped greedy pass per
/// strand, then the same stable sort and truncate.
fn full_chain_seeds(seeds: &[Seed], cfg: &ChainConfig) -> Vec<Chain> {
    let mut chains = Vec::new();
    for is_rc in [false, true] {
        let mut strand: Vec<Seed> = seeds
            .iter()
            .copied()
            .filter(|s| s.is_rc == is_rc && !s.is_empty())
            .collect();
        strand.sort_by_key(|s| (s.query_start, s.ref_pos));
        let n = strand.len();
        let mut f: Vec<i32> = strand.iter().map(|s| s.len() as i32).collect();
        let mut p: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            for j in 0..i {
                let (a, b) = (&strand[j], &strand[i]);
                if link_ok(a, b, cfg) && f[j] + link_gain(a, b) > f[i] {
                    f[i] = f[j] + link_gain(a, b);
                    p[i] = Some(j);
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| f[b].cmp(&f[a]));
        let mut used = vec![false; n];
        for &tail in &order {
            if used[tail] || f[tail] < cfg.min_chain_score {
                continue;
            }
            let mut members = Vec::new();
            let mut cursor = Some(tail);
            while let Some(i) = cursor.filter(|&i| !used[i]) {
                members.push(i);
                cursor = p[i];
            }
            if cursor.is_some() {
                continue; // shares a prefix with a better chain
            }
            for &i in &members {
                used[i] = true;
            }
            chains.push(Chain {
                seeds: members.iter().rev().map(|&i| strand[i]).collect(),
                score: f[tail],
                is_rc,
            });
        }
    }
    chains.sort_by_key(|c| std::cmp::Reverse(c.score));
    chains.truncate(cfg.max_chains);
    chains
}

/// Seeds of `count` true loci plus noise: each locus a colinear run with
/// small diagonal drift, the noise scattered hits, on both strands.
/// `starts` draws a query start (few distinct values make equal starts
/// common) and `len` a seed length.
fn clustered_seeds(
    rng: &mut Prng,
    count: usize,
    loci: u64,
    starts: &mut dyn FnMut(&mut Prng) -> usize,
    len: &mut dyn FnMut(&mut Prng) -> usize,
) -> Vec<Seed> {
    let centres: Vec<u64> = (0..loci).map(|_| 10_000 + rng.below(1_000_000)).collect();
    (0..count)
        .map(|_| {
            let qs = starts(rng);
            let ref_pos = if rng.below(4) == 0 {
                rng.below(2_000_000)
            } else {
                centres[rng.below(loci) as usize] + qs as u64 + rng.below(40) - 20
            };
            Seed {
                query_start: qs,
                query_end: qs + len(rng),
                ref_pos,
                is_rc: rng.below(3) == 0,
            }
        })
        .collect()
}

#[test]
fn windowed_capped_chainer_equals_the_full_look_back_on_smem_seeds() {
    let mut rng = Prng(0x5_3e3);
    for case in 0..400 {
        // A short read's SMEMs: lengths 19..=101, starts on a coarse grid.
        let (count, loci) = (1 + rng.below(40) as usize, 1 + rng.below(3));
        let seeds = clustered_seeds(
            &mut rng,
            count,
            loci,
            &mut |r| 4 * r.below(25) as usize,
            &mut |r| 19 + r.below(83) as usize,
        );
        for max_chains in 1..=6 {
            let cfg = ChainConfig {
                max_chains,
                ..ChainConfig::default()
            };
            assert_eq!(
                chain_seeds(&seeds, &cfg),
                full_chain_seeds(&seeds, &cfg),
                "case {case} max_chains {max_chains}: {seeds:?}"
            );
        }
    }
}

#[test]
fn windowed_capped_chainer_equals_the_full_look_back_on_long_read_seeds() {
    let mut rng = Prng(0x10_4e6);
    for case in 0..200 {
        // A 5 kbp read's k = 15 minimizer hits under the long-read limits;
        // every other case a few seeds whose starts sit `max_gap + k` ± 2
        // apart, so that the window's edge decides links.
        let sparse = case % 2 == 0;
        let count = if sparse {
            2 + rng.below(8)
        } else {
            50 + rng.below(400)
        };
        let (count, loci) = (count as usize, 1 + rng.below(4));
        let seeds = clustered_seeds(
            &mut rng,
            count,
            loci,
            &mut |r| match sparse {
                true => (2_015 * r.below(3) + r.below(5)) as usize,
                false => r.below(5_000) as usize,
            },
            &mut |_| 15,
        );
        for max_chains in 1..=6 {
            let cfg = ChainConfig {
                max_gap: 2_000,
                max_drift: 500,
                min_chain_score: 30,
                max_chains,
            };
            assert_eq!(
                chain_seeds(&seeds, &cfg),
                full_chain_seeds(&seeds, &cfg),
                "case {case} max_chains {max_chains}"
            );
        }
    }
}

/// The long-read limits, capped at `max_chains`.
fn long_cfg(max_chains: usize) -> ChainConfig {
    ChainConfig {
        max_gap: 2_000,
        max_drift: 500,
        min_chain_score: 30,
        max_chains,
    }
}

#[test]
fn banded_chainer_equals_the_full_look_back_on_64_hit_repeat_clusters() {
    let mut rng = Prng(0x64_4175);
    for case in 0..24 {
        // A repeat family of up to 64 copies: every minimizer of the read's
        // repeat stretch hits each copy, so up to 64 colinear chains of
        // equal shape run side by side (ties everywhere), beside the true
        // locus and scattered single hits.
        let copies = 2 + rng.below(63);
        let bases: Vec<u64> = (0..copies).map(|_| rng.below(2_000_000)).collect();
        let true_locus = rng.below(2_000_000);
        let mut seeds = Vec::new();
        let mut qs = rng.below(20) as usize;
        while qs < 2_500 {
            let is_rc = case % 3 == 0;
            let repeat = (1_000..1_150).contains(&qs);
            let targets: Vec<u64> = match repeat {
                true => bases.iter().map(|b| b + qs as u64).collect(),
                false => vec![true_locus + qs as u64 + rng.below(9)],
            };
            for ref_pos in targets {
                seeds.push(Seed {
                    query_start: qs,
                    query_end: qs + 15,
                    ref_pos,
                    is_rc,
                });
            }
            if rng.below(8) == 0 {
                seeds.push(Seed {
                    query_start: qs,
                    query_end: qs + 15,
                    ref_pos: rng.below(2_000_000),
                    is_rc: !is_rc,
                });
            }
            qs += 1 + rng.below(11) as usize;
        }
        for max_chains in [1, 4, 70] {
            assert_eq!(
                chain_seeds(&seeds, &long_cfg(max_chains)),
                full_chain_seeds(&seeds, &long_cfg(max_chains)),
                "case {case} copies {copies} max_chains {max_chains}"
            );
        }
    }
}

#[test]
fn banded_chainer_equals_the_full_look_back_on_equal_query_starts() {
    let mut rng = Prng(0xe9_57a7);
    for case in 0..300 {
        // Few distinct starts, many hits each, lengths that differ at one
        // start: links between seeds that share a start, and ties in f
        // broken only by the seed index.
        let starts = 1 + rng.below(6);
        let count = 2 + rng.below(80) as usize;
        let centre = rng.below(100_000);
        let seeds: Vec<Seed> = (0..count)
            .map(|_| {
                let qs = (rng.below(starts) * 7) as usize;
                Seed {
                    query_start: qs,
                    query_end: qs + 3 + rng.below(4) as usize,
                    ref_pos: centre + qs as u64 + rng.below(24),
                    is_rc: rng.below(4) == 0,
                }
            })
            .collect();
        for max_drift in [0, 1, 5, 16] {
            let cfg = ChainConfig {
                max_drift,
                max_chains: 1 + case % 8,
                ..CFG
            };
            assert_eq!(
                chain_seeds(&seeds, &cfg),
                full_chain_seeds(&seeds, &cfg),
                "case {case} max_drift {max_drift}: {seeds:?}"
            );
        }
    }
}

#[test]
fn banded_chainer_equals_the_full_look_back_on_drift_of_exactly_max_drift() {
    let mut rng = Prng(0xd1_2f7);
    for case in 0..400 {
        // Chains whose every link drifts by exactly `max_drift`, up or down,
        // from diagonals drawn at random against the band grid (bands are
        // `max_drift + 1` wide from the lowest diagonal): many links cross
        // a band edge, and a band one diagonal too narrow — or a scan that
        // skips a neighbouring band — drops them.
        let max_drift = [0, 1, 2, 3, 7, 32, 500][case % 7];
        let cfg = ChainConfig {
            max_gap: 2_000,
            max_drift,
            min_chain_score: 1,
            max_chains: 1 + case % 5,
        };
        let mut seeds = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut qs = rng.below(50) as usize;
            let mut diag = 10_000 + rng.below(3 * (max_drift as u64 + 1)) as i64;
            for _ in 0..2 + rng.below(12) {
                seeds.push(Seed {
                    query_start: qs,
                    query_end: qs + 15,
                    ref_pos: (diag + qs as i64) as u64,
                    is_rc: false,
                });
                qs += max_drift + 1 + rng.below(20) as usize;
                diag += match rng.below(3) {
                    0 => -(max_drift as i64),
                    _ => max_drift as i64,
                };
            }
        }
        assert_eq!(
            chain_seeds(&seeds, &cfg),
            full_chain_seeds(&seeds, &cfg),
            "case {case} max_drift {max_drift}: {seeds:?}"
        );
    }
}

#[test]
fn strand_runs_in_order_chain_in_place_as_any_order_does() {
    let mut rng = Prng(0x1a_0e5);
    for case in 0..300 {
        // `LongReadAligner`'s layout: the forward strand's seeds, then the
        // reverse strand's, each in `(query_start, ref_pos)` order.
        let (count, loci) = (1 + rng.below(120) as usize, 1 + rng.below(3));
        let mut seeds = clustered_seeds(
            &mut rng,
            count,
            loci,
            &mut |r| r.below(2_000) as usize,
            &mut |_| 15,
        );
        seeds.sort_by_key(|s| (s.is_rc, s.query_start, s.ref_pos));
        // The same seeds out of order (the copy-and-sort path), with the
        // strands interleaved every other case.
        let mut shuffled = seeds.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        if case % 2 == 0 {
            shuffled.sort_by_key(|s| s.is_rc);
        }
        // One strand's run out of order, the other's in order.
        let mut one_unsorted = seeds.clone();
        let forward = one_unsorted.iter().take_while(|s| !s.is_rc).count();
        one_unsorted[..forward].reverse();
        for cfg in [long_cfg(1), long_cfg(4), long_cfg(70), CFG] {
            let want = full_chain_seeds(&seeds, &cfg);
            assert_eq!(chain_seeds(&seeds, &cfg), want, "case {case} in order");
            assert_eq!(chain_seeds(&shuffled, &cfg), want, "case {case} shuffled");
            assert_eq!(
                chain_seeds(&one_unsorted, &cfg),
                want,
                "case {case} one run unsorted"
            );
        }
    }
}
