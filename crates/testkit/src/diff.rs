//! Differential oracles: every layer of the stack is compared against an
//! independently-written reference implementation on seeded inputs, and
//! the first divergence is minimized ([`crate::minimize`]) and written as
//! a reproducer file ([`crate::golden::write_repro`]).
//!
//! Five families:
//!
//! * **sw** — `sw::naive` (textbook full-matrix Gotoh) vs the optimized
//!   kernels (full-struct equality on all three entry points, scratch
//!   reused across cases) and banded vs full extension (score equality
//!   when the mutation drift is inside the band; banded ≤ full always).
//! * **extension** — the bit-parallel banded edit kernel
//!   (`myers::banded_edit_*`, `kernel::bitparallel_extend`) vs an
//!   independent full-matrix edit DP and `sw::naive::extend_align`: the
//!   band-exactness contract is checked *both ways* at the band, one past
//!   it and at full coverage, edit scripts are replayed symbol-by-symbol,
//!   and the extension mode is pinned against a prefix-scan oracle
//!   (including the shortest-prefix tie rule). Cases include multi-word
//!   (≥ 65-symbol) patterns and indels of exactly [`EXT_BAND`].
//! * **smem** — the frozen `smem::oracle` vs the hot path in every mode
//!   pair: LUT on/off, trace on/off, scratch reused across queries.
//! * **pipeline** — the traced path, the LUT fast path and a fresh-scratch
//!   run of the full aligner must produce identical alignments and
//!   workload profiles for the same read.
//! * **serve** — responses served over real sockets vs the offline
//!   aligner on the same reads (position, strand, score, CIGAR, MAPQ).
//!
//! Every function is deterministic for a fixed seed: inputs come from
//! [`Prng`] streams salted per family, and summaries contain no
//! wall-clock or thread-dependent values.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use nvwa_align::banded::banded_extend_with;
use nvwa_align::cigar::CigarOp;
use nvwa_align::kernel::bitparallel_extend;
use nvwa_align::myers::{banded_edit_extend, banded_edit_global, BandedEdit, MyersScratch};
use nvwa_align::pipeline::{
    AlignScratch, AlignerConfig, Alignment, ReferenceIndex, SoftwareAligner,
};
use nvwa_align::scoring::Scoring;
use nvwa_align::sw::{self, DpScratch};
use nvwa_genome::{ReadSimParams, ReferenceGenome};
use nvwa_index::fmd_index::{FmdIndex, PrefixLut};
use nvwa_index::smem::{collect_smems_into, oracle, Smem, SmemConfig, SmemScratch};
use nvwa_index::{NullTrace, VecTrace};
use nvwa_serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig, TenantRead};
use nvwa_serve::protocol::WireAlignment;
use nvwa_serve::{Server, ServerConfig, Tenant};
use nvwa_telemetry::JsonValue;

use crate::minimize::{minimize_set, shrink_read};
use crate::{codes_to_dna, golden, Prng};

/// Band used by the banded-vs-full equality check; [`Prng::mutate`] keeps
/// indel drift strictly inside it.
pub const SW_BAND: usize = 16;

/// A confirmed cross-implementation divergence, minimized.
#[derive(Debug)]
pub struct Divergence {
    /// Which oracle pair disagreed (e.g. `"sw.banded_vs_full"`).
    pub check: String,
    /// First divergence, human-readable (both sides excerpted).
    pub detail: String,
    /// The minimized failing input, as DNA strings.
    pub reads: Vec<String>,
    /// Reproducer file, when a repro directory was given and writable.
    pub repro: Option<PathBuf>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (minimized to {} read(s)",
            self.check,
            self.detail,
            self.reads.len()
        )?;
        match &self.repro {
            Some(p) => write!(f, ", repro: {})", p.display()),
            None => write!(f, ")"),
        }
    }
}

impl Divergence {
    /// Builds the divergence, writing the reproducer when `repro_dir` is
    /// set. The reproducer records everything needed to replay: family,
    /// check, seed, and the minimized reads as DNA.
    pub(crate) fn new(
        family: &str,
        check: &str,
        detail: String,
        seed: u64,
        reads: Vec<String>,
        repro_dir: Option<&Path>,
    ) -> Divergence {
        let repro = repro_dir.and_then(|dir| {
            let doc = JsonValue::obj(vec![
                ("kind", JsonValue::Str("nvwa-conformance-repro".to_string())),
                ("family", JsonValue::Str(family.to_string())),
                ("check", JsonValue::Str(check.to_string())),
                ("seed", JsonValue::Num(seed as f64)),
                ("detail", JsonValue::Str(detail.clone())),
                (
                    "reads",
                    JsonValue::Arr(reads.iter().map(|r| JsonValue::Str(r.clone())).collect()),
                ),
            ]);
            golden::write_repro(
                dir,
                &format!("{family}_seed{seed}"),
                &doc.to_string_pretty(),
            )
            .ok()
        });
        Divergence {
            check: check.to_string(),
            detail,
            reads,
            repro,
        }
    }
}

// ---------------------------------------------------------------------------
// sw family
// ---------------------------------------------------------------------------

/// One SW differential case: a (query, target) pair. `related` marks pairs
/// where the query is a bounded mutation of the target, which is the
/// precondition for banded == full equality.
#[derive(Debug, Clone)]
pub struct SwCase {
    /// Query codes.
    pub query: Vec<u8>,
    /// Target codes.
    pub target: Vec<u8>,
    /// Query derived from target with drift ≤ [`SW_BAND`].
    pub related: bool,
}

/// A band-boundary case: one contiguous indel of exactly [`SW_BAND`]
/// codes mid-target, long exact flanks on both sides. The optimal path
/// runs along the `|i − j| == SW_BAND` diagonal, which the band covers
/// *inclusively* — any off-by-one in the band bounds loses the path and
/// breaks banded == full equality (this is what makes the family
/// mutation-tight; a drift strictly inside the band survives a one-cell
/// narrowing).
fn band_boundary_case(p: &mut Prng) -> SwCase {
    let tlen = 80 + p.below(60) as usize;
    let target = p.codes(tlen);
    let cut = tlen / 2;
    let query = if p.below(2) == 0 {
        // Deletion in the query: the path drifts to j − i == SW_BAND.
        let mut q = target[..cut].to_vec();
        q.extend_from_slice(&target[cut + SW_BAND..]);
        q
    } else {
        // Insertion in the query: the path drifts to i − j == SW_BAND.
        let mut q = target[..cut].to_vec();
        for _ in 0..SW_BAND {
            q.push(p.base());
        }
        q.extend_from_slice(&target[cut..]);
        q
    };
    SwCase {
        query,
        target,
        related: true,
    }
}

/// The seeded SW case list: random unrelated pairs (banded ≤ full only),
/// bounded mutations (banded equality applies) and band-boundary indels
/// (banded equality at exactly [`SW_BAND`] of drift).
pub fn sw_cases(seed: u64, n: usize) -> Vec<SwCase> {
    let mut p = Prng(seed ^ 0x5157_0001);
    (0..n)
        .map(|i| {
            if i % 6 == 5 {
                return band_boundary_case(&mut p);
            }
            let tlen = 20 + p.below(140) as usize;
            let target = p.codes(tlen);
            if i % 3 == 0 {
                let qlen = 10 + p.below(70) as usize;
                SwCase {
                    query: p.codes(qlen),
                    target,
                    related: false,
                }
            } else {
                SwCase {
                    query: p.mutate(&target),
                    target,
                    related: true,
                }
            }
        })
        .collect()
}

/// Runs every SW oracle pair on one case. Returns the first divergence as
/// `(check, detail)`, or `None` when all agree.
pub fn sw_divergence(case: &SwCase, dp: &mut DpScratch) -> Option<(&'static str, String)> {
    let q = &case.query;
    let t = &case.target;
    for scoring in [Scoring::bwa_mem(), Scoring::new(2, 3, 4, 1)] {
        let local = sw::local_align_with(q, t, &scoring, dp);
        let local_ref = sw::naive::local_align(q, t, &scoring);
        if local != local_ref {
            return Some((
                "sw.local_vs_naive",
                format!(
                    "score {} vs naive {} (spans q[{}..{}) t[{}..{}))",
                    local.score,
                    local_ref.score,
                    local.query_start,
                    local.query_end,
                    local.target_start,
                    local.target_end
                ),
            ));
        }
        let extend = sw::extend_align_with(q, t, &scoring, dp);
        let extend_ref = sw::naive::extend_align(q, t, &scoring);
        if extend != extend_ref {
            return Some((
                "sw.extend_vs_naive",
                format!("score {} vs naive {}", extend.score, extend_ref.score),
            ));
        }
        let global = sw::global_align_with(q, t, &scoring, dp);
        let global_ref = sw::naive::global_align(q, t, &scoring);
        if global != global_ref {
            return Some((
                "sw.global_vs_naive",
                format!("score {} vs naive {}", global.score, global_ref.score),
            ));
        }
        let banded = banded_extend_with(q, t, &scoring, SW_BAND, dp);
        if banded.cigar.score(&scoring) != banded.score {
            return Some((
                "sw.banded_cigar_consistency",
                format!(
                    "banded score {} but its cigar scores {}",
                    banded.score,
                    banded.cigar.score(&scoring)
                ),
            ));
        }
        if banded.score > extend.score {
            return Some((
                "sw.banded_exceeds_full",
                format!("banded {} > full {}", banded.score, extend.score),
            ));
        }
        if case.related && banded.score != extend.score {
            return Some((
                "sw.banded_vs_full",
                format!(
                    "banded {} != full {} with drift inside band {SW_BAND}",
                    banded.score, extend.score
                ),
            ));
        }
    }
    None
}

/// The sw family: all cases through [`sw_divergence`]; on failure, ddmin
/// over the case set, then shrink query and target of every survivor.
pub fn run_sw_family(
    seed: u64,
    cases: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let all = sw_cases(seed, cases);
    let mut dp = DpScratch::new();
    if !all.iter().any(|c| sw_divergence(c, &mut dp).is_some()) {
        return Ok(format!(
            "sw: {cases} cases × 2 scorings × (3 kernels vs naive + banded), all agree"
        ));
    }
    let mut fails = |cs: &[SwCase]| {
        let mut dp = DpScratch::new();
        cs.iter().any(|c| sw_divergence(c, &mut dp).is_some())
    };
    let minimal = minimize_set(&all, &mut fails);
    // Shrink the (single, after ddmin) surviving pair while it keeps
    // diverging; query first, then target.
    let shrunk: Vec<SwCase> = minimal
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.query = shrink_read(&c.query, &mut |q| {
                let probe = SwCase {
                    query: q.to_vec(),
                    ..c.clone()
                };
                sw_divergence(&probe, &mut DpScratch::new()).is_some()
            });
            c.target = shrink_read(&c.target, &mut |t| {
                let probe = SwCase {
                    target: t.to_vec(),
                    ..c.clone()
                };
                sw_divergence(&probe, &mut DpScratch::new()).is_some()
            });
            c
        })
        .collect();
    let (check, detail) = shrunk
        .iter()
        .find_map(|c| sw_divergence(c, &mut DpScratch::new()))
        .unwrap_or((
            "sw.unstable",
            "divergence vanished during shrinking".to_string(),
        ));
    let reads: Vec<String> = shrunk
        .iter()
        .flat_map(|c| [codes_to_dna(&c.query), codes_to_dna(&c.target)])
        .collect();
    Err(Divergence::new("sw", check, detail, seed, reads, repro_dir))
}

// ---------------------------------------------------------------------------
// extension family (bit-parallel banded edit kernel)
// ---------------------------------------------------------------------------

/// Band used by the extension-kernel differential. Unlike [`SW_BAND`], the
/// checks here do **not** rely on inputs staying inside it: the
/// band-exactness contract (`exact ⇔ true distance ≤ band`) is verified
/// both ways on every pair, so unrelated pairs are as load-bearing as
/// bounded mutations.
pub const EXT_BAND: usize = 16;

/// One extension-kernel differential case. `identity` marks pairs where
/// the query is an exact prefix of the target — there the affine-rescored
/// edit script must reach the full Smith-Waterman extension score exactly.
#[derive(Debug, Clone)]
pub struct ExtensionCase {
    /// Pattern codes (the flank being extended).
    pub query: Vec<u8>,
    /// Text codes.
    pub target: Vec<u8>,
    /// Query is a verbatim prefix of target.
    pub identity: bool,
}

/// A band-boundary case for the edit kernel: exact flanks around one
/// contiguous indel of exactly [`EXT_BAND`] codes, with multi-word
/// (≥ 65-symbol) patterns. The edit distance is (almost always) exactly
/// the band, so the contract check at `EXT_BAND` demands `exact` while the
/// check at `EXT_BAND − 1` demands `!exact` — any off-by-one in the block
/// window bounds breaks one of the two.
fn extension_boundary_case(p: &mut Prng) -> ExtensionCase {
    let tlen = 120 + p.below(80) as usize;
    let target = p.codes(tlen);
    let cut = tlen / 2;
    let query = if p.below(2) == 0 {
        // Deletion in the query: the optimal path drifts to j − i == band.
        let mut q = target[..cut].to_vec();
        q.extend_from_slice(&target[cut + EXT_BAND..]);
        q
    } else {
        // Insertion in the query: the path drifts to i − j == band.
        let mut q = target[..cut].to_vec();
        for _ in 0..EXT_BAND {
            q.push(p.base());
        }
        q.extend_from_slice(&target[cut..]);
        q
    };
    ExtensionCase {
        query,
        target,
        identity: false,
    }
}

/// The seeded extension case list: unrelated pairs (the `!exact` side of
/// the contract), bounded mutations (the `exact` side), identity prefixes
/// (affine-score equality) and band-boundary indels. Lengths range past
/// 64 so the multi-word block carries are exercised throughout.
pub fn extension_cases(seed: u64, n: usize) -> Vec<ExtensionCase> {
    let mut p = Prng(seed ^ 0xE47E_0005);
    (0..n)
        .map(|i| {
            if i % 6 == 5 {
                return extension_boundary_case(&mut p);
            }
            if i % 6 == 2 {
                let tlen = 80 + p.below(120) as usize;
                let target = p.codes(tlen);
                let qlen = tlen - 1 - p.below(12) as usize;
                return ExtensionCase {
                    query: target[..qlen].to_vec(),
                    target,
                    identity: true,
                };
            }
            let tlen = 20 + p.below(180) as usize;
            let target = p.codes(tlen);
            if i % 3 == 0 {
                let qlen = 10 + p.below(170) as usize;
                ExtensionCase {
                    query: p.codes(qlen),
                    target,
                    identity: false,
                }
            } else {
                ExtensionCase {
                    query: p.mutate(&target),
                    target,
                    identity: false,
                }
            }
        })
        .collect()
}

/// Independent edit-DP oracle: the last row of the full unit-cost matrix,
/// i.e. `D[m][j]` = edit distance of the whole pattern vs `text[..j]` for
/// every `j`. One `O(mn)` pass yields both the global distance
/// (`row[n]`) and the prefix-scan extension oracle (`min(row)`).
fn edit_prefix_distances(pattern: &[u8], text: &[u8]) -> Vec<u32> {
    let n = text.len();
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut cur = vec![0u32; n + 1];
    for (i, &pc) in pattern.iter().enumerate() {
        cur[0] = i as u32 + 1;
        for (j, &tc) in text.iter().enumerate() {
            let sub = prev[j] + u32::from(pc != tc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

/// Replays an edit script symbol-by-symbol against the pair it claims to
/// align: consumption lengths, unit cost vs the reported distance, and
/// per-op base equality (Match) / inequality (Subst). Returns the first
/// violation.
fn script_error(pattern: &[u8], text_prefix: &[u8], r: &BandedEdit) -> Option<String> {
    let c = &r.cigar;
    if c.query_len() != pattern.len() || c.target_len() != text_prefix.len() {
        return Some(format!(
            "script consumes q {} t {} of q {} t {}",
            c.query_len(),
            c.target_len(),
            pattern.len(),
            text_prefix.len()
        ));
    }
    if c.edit_distance() != r.distance as usize {
        return Some(format!(
            "script costs {} but reported distance is {}",
            c.edit_distance(),
            r.distance
        ));
    }
    let (mut i, mut j) = (0usize, 0usize);
    for &(op, len) in c.runs() {
        for _ in 0..len {
            let ok = match op {
                CigarOp::Match => pattern[i] == text_prefix[j],
                CigarOp::Subst => pattern[i] != text_prefix[j],
                CigarOp::Ins | CigarOp::Del => true,
            };
            if !ok {
                return Some(format!(
                    "op {op:?} at q[{i}] t[{j}] contradicts the symbols"
                ));
            }
            match op {
                CigarOp::Match | CigarOp::Subst => {
                    i += 1;
                    j += 1;
                }
                CigarOp::Ins => i += 1,
                CigarOp::Del => j += 1,
            }
        }
    }
    None
}

/// Runs every extension-kernel oracle on one case. Returns the first
/// divergence as `(check, detail)`, or `None` when all agree.
pub fn extension_divergence(
    case: &ExtensionCase,
    myers: &mut MyersScratch,
    dp: &mut DpScratch,
) -> Option<(&'static str, String)> {
    let q = &case.query;
    let t = &case.target;
    let row = edit_prefix_distances(q, t);
    let full = row[t.len()];
    // The banded global kernel at the band, one cell past it, and full
    // coverage: the exactness contract must hold both ways at all three.
    for band in [EXT_BAND, EXT_BAND - 1, q.len() + t.len()] {
        let g = banded_edit_global(q, t, band, myers);
        let within = full as usize <= band.max(1);
        if g.exact != within {
            return Some((
                "extension.exactness_contract",
                format!(
                    "band {band}: exact={} but true distance {full} (want exact={within})",
                    g.exact
                ),
            ));
        }
        if g.exact {
            if g.distance != full {
                return Some((
                    "extension.banded_vs_naive",
                    format!("band {band}: exact distance {} vs DP {full}", g.distance),
                ));
            }
            if let Some(err) = script_error(q, t, &g) {
                return Some(("extension.global_script", format!("band {band}: {err}")));
            }
        } else {
            if g.distance < full {
                return Some((
                    "extension.underestimate",
                    format!("band {band}: inexact {} < true {full}", g.distance),
                ));
            }
            if !g.cigar.is_empty() {
                return Some((
                    "extension.inexact_cigar",
                    format!("band {band}: inexact result carries a {} script", g.cigar),
                ));
            }
        }
    }
    // The extension mode vs the prefix-scan oracle, including the
    // shortest-prefix tie rule.
    let best = *row.iter().min().expect("row is never empty");
    let best_j = row.iter().position(|&d| d == best).expect("min exists");
    let e = banded_edit_extend(q, t, EXT_BAND, myers);
    if e.exact != (best as usize <= EXT_BAND) {
        return Some((
            "extension.extend_contract",
            format!(
                "exact={} but best prefix distance is {best} vs band {EXT_BAND}",
                e.exact
            ),
        ));
    }
    if e.exact {
        if (e.distance, e.target_end) != (best, best_j) {
            return Some((
                "extension.extend_vs_prefix_scan",
                format!(
                    "({}, end {}) vs oracle ({best}, end {best_j})",
                    e.distance, e.target_end
                ),
            ));
        }
        if let Some(err) = script_error(q, &t[..e.target_end], &e) {
            return Some(("extension.extend_script", err));
        }
    } else if e.distance < best {
        return Some((
            "extension.extend_underestimate",
            format!("inexact {} < best prefix distance {best}", e.distance),
        ));
    }
    // The pipeline-facing kernel vs the affine optimum: an edit-optimal
    // script rescored under affine costs can reach but never beat
    // `sw::naive::extend_align`, must stay self-consistent, and must hit
    // the optimum exactly on identity prefixes.
    let scoring = Scoring::bwa_mem();
    let bp = bitparallel_extend(q, t, &scoring, EXT_BAND, myers, dp);
    let full_sw = sw::naive::extend_align(q, t, &scoring);
    if bp.score > full_sw.score {
        return Some((
            "extension.kernel_exceeds_affine_optimum",
            format!("kernel {} > naive extend {}", bp.score, full_sw.score),
        ));
    }
    if bp.cigar.score(&scoring) != bp.score
        || bp.cigar.query_len() != bp.query_len
        || bp.cigar.target_len() != bp.target_len
    {
        return Some((
            "extension.kernel_consistency",
            format!(
                "score {} cigar-score {} q {}/{} t {}/{}",
                bp.score,
                bp.cigar.score(&scoring),
                bp.query_len,
                bp.cigar.query_len(),
                bp.target_len,
                bp.cigar.target_len()
            ),
        ));
    }
    if case.identity && bp.score != full_sw.score {
        return Some((
            "extension.kernel_vs_full_on_identity",
            format!(
                "kernel {} vs naive extend {} on an exact prefix",
                bp.score, full_sw.score
            ),
        ));
    }
    None
}

/// The extension family: all cases through [`extension_divergence`]; on
/// failure, ddmin over the case set, then shrink query and target of every
/// survivor (fresh scratches inside the predicates — shrinking must not
/// depend on scratch state).
pub fn run_extension_family(
    seed: u64,
    cases: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let all = extension_cases(seed, cases);
    let mut myers = MyersScratch::new();
    let mut dp = DpScratch::new();
    if !all
        .iter()
        .any(|c| extension_divergence(c, &mut myers, &mut dp).is_some())
    {
        return Ok(format!(
            "extension: {cases} cases × 3 bands × (global, extend, kernel) vs DP oracles, all agree"
        ));
    }
    let mut fails = |cs: &[ExtensionCase]| {
        let (mut myers, mut dp) = (MyersScratch::new(), DpScratch::new());
        cs.iter()
            .any(|c| extension_divergence(c, &mut myers, &mut dp).is_some())
    };
    let minimal = minimize_set(&all, &mut fails);
    let shrunk: Vec<ExtensionCase> = minimal
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.query = shrink_read(&c.query, &mut |q| {
                let probe = ExtensionCase {
                    query: q.to_vec(),
                    ..c.clone()
                };
                extension_divergence(&probe, &mut MyersScratch::new(), &mut DpScratch::new())
                    .is_some()
            });
            c.target = shrink_read(&c.target, &mut |t| {
                let probe = ExtensionCase {
                    target: t.to_vec(),
                    ..c.clone()
                };
                extension_divergence(&probe, &mut MyersScratch::new(), &mut DpScratch::new())
                    .is_some()
            });
            c
        })
        .collect();
    let (check, detail) = shrunk
        .iter()
        .find_map(|c| extension_divergence(c, &mut MyersScratch::new(), &mut DpScratch::new()))
        .unwrap_or((
            "extension.unstable",
            "divergence vanished during shrinking".to_string(),
        ));
    let reads: Vec<String> = shrunk
        .iter()
        .flat_map(|c| [codes_to_dna(&c.query), codes_to_dna(&c.target)])
        .collect();
    Err(Divergence::new(
        "extension",
        check,
        detail,
        seed,
        reads,
        repro_dir,
    ))
}

// ---------------------------------------------------------------------------
// smem family
// ---------------------------------------------------------------------------

/// Describes the first differing SMEM between two result lists.
fn smem_diff_detail(want: &[Smem], got: &[Smem]) -> String {
    let i = want
        .iter()
        .zip(got.iter())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let fmt = |s: Option<&Smem>| match s {
        Some(s) => format!("q[{}..{}) occ {}", s.query_start, s.query_end, s.occ()),
        None => "<absent>".to_string(),
    };
    format!(
        "{} vs {} SMEMs; first difference at index {i}: oracle {} vs fast {}",
        want.len(),
        got.len(),
        fmt(want.get(i)),
        fmt(got.get(i))
    )
}

/// Compares `smem::oracle` against the hot path in all three mode pairs
/// (plain index untraced, LUT index untraced = LUT engaged, LUT index
/// traced = LUT bypassed) with per-index scratch reuse. Returns the
/// first divergence.
pub fn smem_divergence(
    fmd_plain: &FmdIndex,
    fmd_lut: &FmdIndex,
    config: &SmemConfig,
    query: &[u8],
    s_plain: &mut SmemScratch,
    s_lut: &mut SmemScratch,
) -> Option<(&'static str, String)> {
    let want = oracle::collect_smems(fmd_plain, query, config);
    let mut got = Vec::new();
    collect_smems_into(fmd_plain, query, config, s_plain, &mut got, &mut NullTrace);
    if got != want {
        return Some(("smem.fast_vs_oracle", smem_diff_detail(&want, &got)));
    }
    collect_smems_into(fmd_lut, query, config, s_lut, &mut got, &mut NullTrace);
    if got != want {
        return Some(("smem.lut_vs_oracle", smem_diff_detail(&want, &got)));
    }
    let mut trace = VecTrace::default();
    collect_smems_into(fmd_lut, query, config, s_lut, &mut got, &mut trace);
    if got != want {
        return Some(("smem.traced_vs_oracle", smem_diff_detail(&want, &got)));
    }
    None
}

/// A lenient config exercising the re-seeding pass on short queries.
fn smem_reseed_config() -> SmemConfig {
    SmemConfig {
        min_seed_len: 9,
        min_intv: 1,
        split_len: 14,
        split_width: 10,
    }
}

/// The smem family: a seeded reference, two index builds (with/without
/// LUT), mutated windows + random queries under the default and the
/// re-seeding-heavy config.
pub fn run_smem_family(
    seed: u64,
    cases: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let mut p = Prng(seed ^ 0x53ED_0002);
    let reference = p.codes(3000);
    let fmd_plain = FmdIndex::from_forward(&reference);
    let mut fmd_lut = FmdIndex::from_forward(&reference);
    fmd_lut.build_prefix_lut(PrefixLut::DEFAULT_K);
    let queries: Vec<Vec<u8>> = (0..cases)
        .map(|i| {
            if i % 4 == 3 {
                let len = 30 + p.below(120) as usize;
                p.codes(len)
            } else {
                let start = p.below((reference.len() - 101) as u64) as usize;
                p.mutate(&reference[start..start + 101])
            }
        })
        .collect();
    let configs = [SmemConfig::default(), smem_reseed_config()];
    let mut s_plain = SmemScratch::new();
    let mut s_lut = SmemScratch::new();
    for config in &configs {
        for query in &queries {
            if let Some((check, _)) = smem_divergence(
                &fmd_plain,
                &fmd_lut,
                config,
                query,
                &mut s_plain,
                &mut s_lut,
            ) {
                // Shrink the query while the divergence holds (fresh
                // scratches inside the predicate: the shrink must not
                // depend on cache state).
                let minimal = shrink_read(query, &mut |q| {
                    smem_divergence(
                        &fmd_plain,
                        &fmd_lut,
                        config,
                        q,
                        &mut SmemScratch::new(),
                        &mut SmemScratch::new(),
                    )
                    .is_some()
                });
                let (check, detail) = smem_divergence(
                    &fmd_plain,
                    &fmd_lut,
                    config,
                    &minimal,
                    &mut SmemScratch::new(),
                    &mut SmemScratch::new(),
                )
                .unwrap_or((check, "divergence vanished during shrinking".to_string()));
                let detail = format!(
                    "{detail} (reference: 3000 codes from seed {seed}, min_seed_len {})",
                    config.min_seed_len
                );
                return Err(Divergence::new(
                    "smem",
                    check,
                    detail,
                    seed,
                    vec![codes_to_dna(&minimal)],
                    repro_dir,
                ));
            }
        }
    }
    Ok(format!(
        "smem: {cases} queries × 2 configs × 3 mode pairs vs oracle, all agree"
    ))
}

// ---------------------------------------------------------------------------
// pipeline family
// ---------------------------------------------------------------------------

/// Compares the three pipeline paths on one read: traced (LUT bypassed),
/// fast (LUT engaged) and a fresh-scratch run. Alignments must be
/// identical and the workload profiles must agree on every trace-invariant
/// counter.
pub fn pipeline_divergence(
    aligner: &SoftwareAligner<'_>,
    read_id: u64,
    codes: &[u8],
    scratch: &mut AlignScratch,
) -> Option<(&'static str, String)> {
    let traced = aligner.align_codes_with(read_id, codes, scratch);
    let fast = aligner.align_codes_fast(read_id, codes, scratch);
    let fresh = aligner.align_codes(read_id, codes);
    let describe = |o: &Option<Alignment>| match o {
        Some(a) => format!(
            "pos {} rc {} score {} cigar {} mapq {}",
            a.flat_pos, a.is_rc, a.score, a.cigar, a.mapq
        ),
        None => "unmapped".to_string(),
    };
    if traced.alignment != fast.alignment {
        return Some((
            "pipeline.traced_vs_fast",
            format!(
                "traced [{}] vs fast [{}]",
                describe(&traced.alignment),
                describe(&fast.alignment)
            ),
        ));
    }
    if fast.alignment != fresh.alignment {
        return Some((
            "pipeline.scratch_vs_fresh",
            format!(
                "reused scratch [{}] vs fresh [{}]",
                describe(&fast.alignment),
                describe(&fresh.alignment)
            ),
        ));
    }
    let profile_key = |o: &nvwa_align::pipeline::AlignmentOutcome| {
        (
            o.profile.smem_count,
            o.profile.located_hits,
            o.profile.hit_tasks.len(),
            o.profile.dp_cells,
        )
    };
    if profile_key(&traced) != profile_key(&fast) {
        return Some((
            "pipeline.profile_drift",
            format!(
                "traced profile {:?} vs fast {:?} (smems, hits, tasks, dp_cells)",
                profile_key(&traced),
                profile_key(&fast)
            ),
        ));
    }
    None
}

/// The pipeline family: seeded reference, mutated-window + random reads,
/// all three paths per read.
pub fn run_pipeline_family(
    seed: u64,
    reads: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let mut p = Prng(seed ^ 0x21BE_0003);
    let reference = p.codes(8000);
    let index = ReferenceIndex::from_codes(reference.clone(), 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let read_list: Vec<Vec<u8>> = (0..reads)
        .map(|i| {
            if i % 5 == 4 {
                let len = 60 + p.below(90) as usize;
                p.codes(len)
            } else {
                let start = p.below((reference.len() - 101) as u64) as usize;
                p.mutate(&reference[start..start + 101])
            }
        })
        .collect();
    let mut scratch = AlignScratch::new();
    for (i, codes) in read_list.iter().enumerate() {
        if pipeline_divergence(&aligner, i as u64, codes, &mut scratch).is_some() {
            let minimal = shrink_read(codes, &mut |r| {
                pipeline_divergence(&aligner, i as u64, r, &mut AlignScratch::new()).is_some()
            });
            let (check, detail) =
                pipeline_divergence(&aligner, i as u64, &minimal, &mut AlignScratch::new())
                    .unwrap_or((
                        "pipeline.unstable",
                        "divergence vanished during shrinking".to_string(),
                    ));
            let detail = format!("{detail} (reference: 8000 codes from seed {seed})");
            return Err(Divergence::new(
                "pipeline",
                check,
                detail,
                seed,
                vec![codes_to_dna(&minimal)],
                repro_dir,
            ));
        }
    }
    Ok(format!(
        "pipeline: {reads} reads × 3 paths (traced, LUT fast, fresh scratch), all agree"
    ))
}

// ---------------------------------------------------------------------------
// serve family
// ---------------------------------------------------------------------------

/// Reference length of the serve differential (small enough that index
/// construction stays cheap in CI, large enough for real SMEM structure).
pub const SERVE_REF_LEN: usize = 20_000;

pub(crate) fn wire_matches(wire: &Option<WireAlignment>, offline: &Option<Alignment>) -> bool {
    match (wire, offline) {
        (None, None) => true,
        (Some(w), Some(a)) => {
            w.pos == a.flat_pos
                && w.is_rc == a.is_rc
                && w.score == a.score
                && w.cigar == a.cigar.to_string()
                && w.mapq == a.mapq
        }
        _ => false,
    }
}

/// One serve round trip: start a server on the shared index, run the
/// closed-loop loadgen over `reads`, shut down, and return the first read
/// whose served alignment differs from the offline aligner's (or an
/// error string for transport-level failures, which are *not*
/// divergences).
fn serve_round(
    index: &Arc<ReferenceIndex>,
    reads: &[TenantRead],
) -> Result<Option<(u64, String)>, String> {
    let server = Server::start(
        vec![Tenant::single(Arc::clone(index))],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        reads,
        &LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 16 },
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .map_err(|e| format!("loadgen: {e}"))?;
    server.shutdown();
    let total = &report.total;
    if !report.is_lossless() || total.ok != reads.len() as u64 {
        return Err(format!(
            "transport not clean: sent {} ok {} lost {} duplicates {}",
            total.sent, total.ok, total.lost, report.duplicates
        ));
    }
    let aligner = SoftwareAligner::new(index, AlignerConfig::default());
    let mut scratch = AlignScratch::new();
    // Walk ids in order so "first divergent read" is deterministic.
    for id in 0..reads.len() as u64 {
        let resp = report
            .responses
            .get(&id)
            .ok_or_else(|| format!("response for read {id} missing despite ok count"))?;
        let offline = aligner
            .align_codes_fast(id, &reads[id as usize].codes, &mut scratch)
            .alignment;
        if !wire_matches(&resp.alignment, &offline) {
            let served = match &resp.alignment {
                Some(w) => format!(
                    "pos {} rc {} score {} cigar {} mapq {}",
                    w.pos, w.is_rc, w.score, w.cigar, w.mapq
                ),
                None => "unmapped".to_string(),
            };
            let want = match &offline {
                Some(a) => format!(
                    "pos {} rc {} score {} cigar {} mapq {}",
                    a.flat_pos, a.is_rc, a.score, a.cigar, a.mapq
                ),
                None => "unmapped".to_string(),
            };
            return Ok(Some((
                id,
                format!("read {id}: served [{served}] vs offline [{want}]"),
            )));
        }
    }
    Ok(None)
}

/// The serve family: simulated reads against a synthesized reference,
/// served over real sockets and compared read-by-read with the offline
/// aligner. On divergence, ddmin over the read set (each probe is a fresh
/// server round, so batching-dependent divergences minimize too), then
/// shrink the surviving reads.
pub fn run_serve_family(
    seed: u64,
    reads: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let genome = ReferenceGenome::synthesize(&ref_params(SERVE_REF_LEN), seed);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));
    let sim = ReadSimParams::illumina_101();
    let read_list = loadgen::generate_reads(&genome, sim, seed ^ 0x52EA_D004, reads);
    let first = match serve_round(&index, &read_list) {
        Ok(None) => {
            return Ok(format!(
                "serve: {reads} reads served and bit-identical to the offline aligner"
            ))
        }
        Ok(Some(found)) => found,
        Err(e) => {
            // Transport failure, not an alignment divergence: surface it
            // without minimization (the minimizer assumes a clean channel).
            return Err(Divergence::new(
                "serve",
                "serve.transport",
                e,
                seed,
                Vec::new(),
                repro_dir,
            ));
        }
    };
    let mut fails = |subset: &[TenantRead]| matches!(serve_round(&index, subset), Ok(Some(_)));
    let minimal_set = minimize_set(&read_list, &mut fails);
    let shrunk: Vec<TenantRead> = (0..minimal_set.len())
        .map(|i| {
            let mut set = minimal_set.clone();
            let mut read = minimal_set[i].clone();
            read.codes = shrink_read(&read.codes, &mut |r| {
                set[i].codes = r.to_vec();
                matches!(serve_round(&index, &set), Ok(Some(_)))
            });
            read
        })
        .collect();
    let detail = match serve_round(&index, &shrunk) {
        Ok(Some((_, d))) => d,
        _ => first.1,
    };
    Err(Divergence::new(
        "serve",
        "serve.vs_offline",
        detail,
        seed,
        shrunk.iter().map(|r| codes_to_dna(&r.codes)).collect(),
        repro_dir,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sw_family_agrees_on_a_healthy_tree() {
        let summary = run_sw_family(7, 40, None).expect("sw oracles agree");
        assert!(summary.contains("40 cases"), "{summary}");
    }

    /// The boundary cases are what make the family mutation-tight: their
    /// optimal path runs along the `|i − j| == SW_BAND` diagonal, so a
    /// band narrowed by one cell must lose score. Without this property a
    /// planted off-by-one in the band bounds would survive conformance.
    #[test]
    fn band_boundary_cases_are_tight_against_off_by_one() {
        let mut p = Prng(31);
        let scoring = Scoring::bwa_mem();
        let mut dp = DpScratch::new();
        let mut narrowed_loses = 0usize;
        for _ in 0..10 {
            let case = band_boundary_case(&mut p);
            let full = sw::extend_align_with(&case.query, &case.target, &scoring, &mut dp);
            let exact = banded_extend_with(&case.query, &case.target, &scoring, SW_BAND, &mut dp);
            assert_eq!(exact.score, full.score, "correct band must cover the path");
            let narrow =
                banded_extend_with(&case.query, &case.target, &scoring, SW_BAND - 1, &mut dp);
            if narrow.score < full.score {
                narrowed_loses += 1;
            }
        }
        assert_eq!(
            narrowed_loses, 10,
            "every boundary case must be lost by a band one cell too narrow"
        );
    }

    #[test]
    fn extension_family_agrees_on_a_healthy_tree() {
        let summary = run_extension_family(7, 36, None).expect("extension oracles agree");
        assert!(summary.contains("36 cases"), "{summary}");
    }

    /// The boundary cases sit exactly on the drift limit: an indel of
    /// [`EXT_BAND`] costs exactly the band (for almost every seed), so
    /// `banded_edit_global` must be exact at `EXT_BAND` and must clamp at
    /// `EXT_BAND − 1` — both directions of the contract at the edge.
    #[test]
    fn extension_boundary_cases_sit_exactly_on_the_band() {
        let mut p = Prng(31);
        let mut myers = MyersScratch::new();
        let mut at_limit = 0usize;
        for _ in 0..10 {
            let case = extension_boundary_case(&mut p);
            let row = edit_prefix_distances(&case.query, &case.target);
            let full = row[case.target.len()] as usize;
            assert!(full <= EXT_BAND, "one indel of EXT_BAND cannot cost more");
            let g = banded_edit_global(&case.query, &case.target, EXT_BAND, &mut myers);
            assert!(g.exact, "band equal to the drift must stay exact");
            assert_eq!(g.distance as usize, full);
            if full == EXT_BAND {
                at_limit += 1;
                let narrow =
                    banded_edit_global(&case.query, &case.target, EXT_BAND - 1, &mut myers);
                assert!(!narrow.exact, "band one short of the indel must clamp");
            }
        }
        assert!(at_limit >= 8, "only {at_limit}/10 cases sat at the limit");
    }

    #[test]
    fn a_planted_band_bug_in_the_edit_kernel_is_caught_and_minimized() {
        // Simulate a kernel whose band is silently one cell too narrow:
        // cases whose true distance is exactly EXT_BAND report `!exact`
        // where the contract demands `exact`. The boundary cases in the
        // seeded list catch it, and ddmin brings the list down to one.
        let cases = extension_cases(3, 30);
        let buggy = |c: &ExtensionCase| {
            let mut myers = MyersScratch::new();
            let row = edit_prefix_distances(&c.query, &c.target);
            let full = row[c.target.len()] as usize;
            let g = banded_edit_global(&c.query, &c.target, EXT_BAND - 1, &mut myers);
            full <= EXT_BAND && !g.exact
        };
        assert!(cases.iter().any(buggy), "a boundary case must trip the bug");
        let minimal = minimize_set(&cases, &mut |cs| cs.iter().any(buggy));
        assert_eq!(minimal.len(), 1, "one pair suffices to reproduce");
    }

    #[test]
    fn smem_family_agrees_on_a_healthy_tree() {
        let summary = run_smem_family(7, 12, None).expect("smem oracles agree");
        assert!(summary.contains("12 queries"), "{summary}");
    }

    #[test]
    fn pipeline_family_agrees_on_a_healthy_tree() {
        let summary = run_pipeline_family(7, 12, None).expect("pipeline paths agree");
        assert!(summary.contains("12 reads"), "{summary}");
    }

    #[test]
    fn a_planted_banded_bug_is_caught_and_minimized() {
        // Simulate an off-by-one in the banded kernel by narrowing the
        // band below the mutation drift: related cases must diverge, and
        // the minimizer must bring the case list down to one pair.
        let cases = sw_cases(3, 30);
        let buggy = |c: &SwCase| {
            let mut dp = DpScratch::new();
            let scoring = Scoring::bwa_mem();
            let full = sw::extend_align_with(&c.query, &c.target, &scoring, &mut dp);
            let banded = banded_extend_with(&c.query, &c.target, &scoring, 1, &mut dp);
            c.related && banded.score != full.score
        };
        assert!(cases.iter().any(buggy), "band 1 must lose some optimum");
        let minimal = minimize_set(&cases, &mut |cs| cs.iter().any(buggy));
        assert_eq!(minimal.len(), 1, "one pair suffices to reproduce");
    }
}
