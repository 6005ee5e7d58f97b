//! GACT tiling (Darwin).
//!
//! Darwin's GACT aligns arbitrarily long sequences with *constant* hardware
//! resources by filling fixed-size tiles and committing the traceback prefix
//! of each tile before sliding the window forward by `tile_size - overlap`.
//! The paper applies NvWa to long reads "by using the iterative scheme of
//! GACT" (Sec. V-F); this module is that scheme. Each tile is one
//! [`extend_align_with`] call (the anti-diagonal fill, at the
//! [`nvwa_index::Isa::host`] level), all tiles of a [`gact_extend_with`] in
//! the caller's one [`DpScratch`].

use crate::cigar::Cigar;
#[cfg(test)]
use crate::cigar::CigarOp;
use crate::scoring::Scoring;
use crate::sw::{extend_align_with, DpScratch, ExtensionAlignment};

/// GACT tiling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GactConfig {
    /// Tile edge length (Darwin uses 512 in hardware, 300 in software).
    pub tile_size: usize,
    /// Overlap retained between consecutive tiles.
    pub overlap: usize,
}

impl Default for GactConfig {
    fn default() -> GactConfig {
        GactConfig {
            tile_size: 256,
            overlap: 64,
        }
    }
}

impl GactConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `overlap >= tile_size` or `tile_size == 0`.
    pub fn validate(&self) {
        assert!(self.tile_size > 0, "tile size must be positive");
        assert!(
            self.overlap < self.tile_size,
            "overlap must be smaller than the tile"
        );
    }
}

/// Statistics of a GACT run (tile count drives the long-read EU workload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GactStats {
    /// Number of tiles filled.
    pub tiles: u64,
    /// Total DP cells filled across tiles.
    pub dp_cells: u64,
}

/// Extends `query` against `target` from the anchored origin using GACT
/// tiling. Returns the committed alignment and tiling statistics.
///
/// The result approximates [`crate::sw::extend_align`] (exact when each
/// tile's optimal path stays within the committed prefix — Darwin's empirical
/// observation) while only ever holding one tile's traceback matrix.
pub fn gact_extend(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    config: &GactConfig,
) -> (ExtensionAlignment, GactStats) {
    gact_extend_with(query, target, scoring, config, &mut DpScratch::new())
}

/// [`gact_extend`] with caller-provided DP buffers, one set for every tile
/// (bit-identical result).
pub fn gact_extend_with(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    config: &GactConfig,
    dp: &mut DpScratch,
) -> (ExtensionAlignment, GactStats) {
    config.validate();
    let mut stats = GactStats::default();
    let mut cigar = Cigar::new();
    let mut q_pos = 0usize;
    let mut t_pos = 0usize;

    loop {
        let q_tile = &query[q_pos..(q_pos + config.tile_size).min(query.len())];
        let t_tile = &target[t_pos..(t_pos + config.tile_size).min(target.len())];
        if q_tile.is_empty() || t_tile.is_empty() {
            break;
        }
        let tile = extend_align_with(q_tile, t_tile, scoring, dp);
        stats.tiles += 1;
        stats.dp_cells += q_tile.len() as u64 * t_tile.len() as u64;
        if tile.cigar.is_empty() {
            break; // nothing extended in this tile
        }

        let last_tile = q_pos + q_tile.len() >= query.len() || t_pos + t_tile.len() >= target.len();
        if last_tile {
            cigar.concat(&tile.cigar);
            q_pos += tile.query_len;
            t_pos += tile.target_len;
            break;
        }

        // Commit the tile's prefix up to `tile_size - overlap` consumed
        // query bases; the overlap region is re-aligned by the next tile.
        let commit_q = config.tile_size - config.overlap;
        let (committed, dq, dt) = cigar_prefix(&tile.cigar, commit_q);
        if dq == 0 && dt == 0 {
            // The tile alignment never reached the commit horizon; keep what
            // we have and stop (no forward progress possible).
            cigar.concat(&tile.cigar);
            q_pos += tile.query_len;
            t_pos += tile.target_len;
            break;
        }
        cigar.concat(&committed);
        q_pos += dq;
        t_pos += dt;
    }

    let score = cigar.score(scoring);
    (
        ExtensionAlignment {
            score,
            query_len: q_pos,
            target_len: t_pos,
            cigar,
        },
        stats,
    )
}

/// Splits a CIGAR at the point where `max_query` query bases have been
/// consumed; returns the prefix and the (query, target) bases it consumes.
fn cigar_prefix(cigar: &Cigar, max_query: usize) -> (Cigar, usize, usize) {
    let mut out = Cigar::new();
    let mut dq = 0usize;
    let mut dt = 0usize;
    for &(op, len) in cigar.runs() {
        if dq >= max_query {
            break;
        }
        let take = if op.consumes_query() {
            (max_query - dq).min(len as usize) as u32
        } else {
            len
        };
        if take == 0 {
            break;
        }
        out.push(op, take);
        if op.consumes_query() {
            dq += take as usize;
        }
        if op.consumes_target() {
            dt += take as usize;
        }
        if take < len {
            break;
        }
    }
    (out, dq, dt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::extend_align;

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

    fn mutate(seq: &[u8], mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(seq.len());
        for &c in seq {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) % 100;
            if r < 3 {
                out.push((c + 1) % 4);
            } else if r < 4 {
                // deletion
            } else if r < 5 {
                out.push(c);
                out.push((c + 2) % 4);
            } else {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn identical_long_sequences() {
        let s = rand_codes(2000, 1);
        let (a, stats) = gact_extend(&s, &s, &Scoring::bwa_mem(), &GactConfig::default());
        assert_eq!(a.score, 2000);
        assert_eq!(a.cigar.to_string(), "2000=");
        // ceil((2000-256)/192)+1 tiles
        assert!(stats.tiles >= 2000 / 256);
    }

    #[test]
    fn approximates_full_extension_on_noisy_long_reads() {
        let target = rand_codes(3000, 5);
        let query = mutate(&target, 17);
        let scoring = Scoring::bwa_mem();
        let (gact, stats) = gact_extend(&query, &target, &scoring, &GactConfig::default());
        let full = extend_align(&query, &target, &scoring);
        assert!(stats.tiles > 5);
        // GACT is a heuristic; it must reach at least 95% of the optimum on
        // this error profile (Darwin reports near-exact behaviour).
        assert!(
            gact.score as f64 >= full.score as f64 * 0.95,
            "gact {} vs full {}",
            gact.score,
            full.score
        );
        assert_eq!(gact.cigar.score(&scoring), gact.score);
    }

    #[test]
    fn constant_tile_memory_means_tile_cells_bounded() {
        let target = rand_codes(4000, 9);
        let query = mutate(&target, 3);
        let config = GactConfig {
            tile_size: 128,
            overlap: 32,
        };
        let (_, stats) = gact_extend(&query, &target, &Scoring::bwa_mem(), &config);
        // Average cells per tile never exceeds tile_size².
        assert!(stats.dp_cells <= stats.tiles * (128 * 128));
    }

    #[test]
    fn empty_inputs() {
        let (a, stats) = gact_extend(&[], &[0, 1], &Scoring::bwa_mem(), &GactConfig::default());
        assert_eq!(a.score, 0);
        assert_eq!(stats.tiles, 0);
    }

    #[test]
    fn cigar_prefix_splits_runs() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 10);
        c.push(CigarOp::Del, 2);
        c.push(CigarOp::Match, 10);
        let (prefix, dq, dt) = cigar_prefix(&c, 15);
        assert_eq!(prefix.to_string(), "10=2D5=");
        assert_eq!(dq, 15);
        assert_eq!(dt, 17);
    }

    #[test]
    #[should_panic(expected = "overlap must be smaller")]
    fn invalid_config_panics() {
        let config = GactConfig {
            tile_size: 64,
            overlap: 64,
        };
        let _ = gact_extend(&[0], &[0], &Scoring::bwa_mem(), &config);
    }

    // --- Tile-boundary behaviour (PR 10). ---
    //
    // These tests pin the stitching maths at the commit horizon
    // (`tile_size - overlap` consumed query bases) so that an off-by-one in
    // either `cigar_prefix` or the tile advance is caught exactly, not
    // statistically. Geometry: tile 32 / overlap 8 → commit 24.

    const EDGE: GactConfig = GactConfig {
        tile_size: 32,
        overlap: 8,
    };

    #[test]
    fn exact_match_commits_exactly_commit_q_per_tile() {
        // 632 = 32 + 25·24: with commit = 24 the run takes exactly 26 tiles.
        // A commit of 23 would take 28 and a commit of 25 would take 25, so
        // the tile count is mutation-tight against ±1 stitching errors.
        let s = rand_codes(632, 11);
        let (a, stats) = gact_extend(&s, &s, &Scoring::bwa_mem(), &EDGE);
        assert_eq!(a.cigar.to_string(), "632=");
        assert_eq!(a.score, 632);
        assert_eq!(stats.tiles, 26);
        assert_eq!(a.query_len, a.cigar.query_len());
        assert_eq!(a.target_len, a.cigar.target_len());
    }

    #[test]
    fn insertion_exactly_at_the_commit_horizon() {
        // Query carries a 2-base insertion at offset 24 — the first base of
        // the overlap region of tile 1. The committed prefix must stop at
        // "24=" and the next tile must re-discover the insertion, matching
        // the full-DP optimum bit for bit.
        let target = rand_codes(200, 21);
        let mut query = target[..24].to_vec();
        query.extend_from_slice(&[0, 1]);
        query.extend_from_slice(&target[24..]);
        let scoring = Scoring::bwa_mem();
        let (gact, _) = gact_extend(&query, &target, &scoring, &EDGE);
        let full = extend_align(&query, &target, &scoring);
        // Degenerate optima may shift the `I` run by a base, so compare the
        // scores (exact) rather than the transcript string.
        assert_eq!(
            gact.score, full.score,
            "gact {:?} full {:?}",
            gact.cigar, full.cigar
        );
        assert_eq!(gact.query_len, full.query_len);
        assert_eq!(gact.target_len, full.target_len);
    }

    #[test]
    fn deletion_exactly_at_the_commit_horizon() {
        // Query is the target with bases [24, 26) deleted: the deletion run
        // sits exactly on the commit horizon and must be left to the next
        // tile (a horizon-straddling `D` must never be committed blindly).
        let target = rand_codes(200, 33);
        let mut query = target[..24].to_vec();
        query.extend_from_slice(&target[26..]);
        let scoring = Scoring::bwa_mem();
        let (gact, _) = gact_extend(&query, &target, &scoring, &EDGE);
        let full = extend_align(&query, &target, &scoring);
        assert_eq!(
            gact.score, full.score,
            "gact {:?} full {:?}",
            gact.cigar, full.cigar
        );
        assert_eq!(gact.query_len, full.query_len);
        assert_eq!(gact.target_len, full.target_len);
    }

    #[test]
    fn indel_at_every_offset_across_one_tile_edge() {
        // Sweep a single-base deletion across offsets 16..=40 — spanning the
        // commit horizon (24) and the tile edge (32). Every placement must
        // match the full-DP score exactly: stitching may not lose or double
        // a base regardless of where the event lands relative to the seam.
        let target = rand_codes(160, 55);
        let scoring = Scoring::bwa_mem();
        for cut in 16..=40usize {
            let mut query = target[..cut].to_vec();
            query.extend_from_slice(&target[cut + 1..]);
            let (gact, _) = gact_extend(&query, &target, &scoring, &EDGE);
            let full = extend_align(&query, &target, &scoring);
            assert_eq!(
                gact.score, full.score,
                "deletion at {}: gact {} full {}",
                cut, gact.score, full.score
            );
        }
    }

    #[test]
    fn cigar_prefix_excludes_indels_resting_on_the_horizon() {
        // A `D` run whose query offset equals the horizon is *not* part of
        // the committed prefix — it belongs to the overlap re-alignment.
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 24);
        c.push(CigarOp::Del, 2);
        c.push(CigarOp::Match, 6);
        let (prefix, dq, dt) = cigar_prefix(&c, 24);
        assert_eq!(prefix.to_string(), "24=");
        assert_eq!((dq, dt), (24, 24));

        // Same for an `I` run on the horizon.
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 24);
        c.push(CigarOp::Ins, 2);
        c.push(CigarOp::Match, 6);
        let (prefix, dq, dt) = cigar_prefix(&c, 24);
        assert_eq!(prefix.to_string(), "24=");
        assert_eq!((dq, dt), (24, 24));

        // One base earlier, the `D` run is inside the prefix and the split
        // lands one match past it.
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 23);
        c.push(CigarOp::Del, 2);
        c.push(CigarOp::Match, 7);
        let (prefix, dq, dt) = cigar_prefix(&c, 24);
        assert_eq!(prefix.to_string(), "23=2D1=");
        assert_eq!((dq, dt), (24, 26));
    }

    #[test]
    fn committed_lengths_always_match_the_cigar() {
        // Invariant over noisy inputs and a seam-heavy geometry: the
        // reported query/target spans equal what the CIGAR consumes.
        for seed in [2u64, 4, 8, 16] {
            let target = rand_codes(1200, seed);
            let query = mutate(&target, seed ^ 0xff);
            let (a, _) = gact_extend(&query, &target, &Scoring::bwa_mem(), &EDGE);
            assert_eq!(a.query_len, a.cigar.query_len(), "seed {seed}");
            assert_eq!(a.target_len, a.cigar.target_len(), "seed {seed}");
            assert!(a.query_len <= query.len());
            assert!(a.target_len <= target.len());
        }
    }
}
