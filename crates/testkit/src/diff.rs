//! Differential oracles: every layer of the stack is compared against an
//! independently-written reference implementation on seeded inputs. Each
//! family is a seeded case list plus a [`Probe`] over it, run by
//! [`run_family`], which minimizes the first divergence and writes it as
//! a reproducer file.
//!
//! Five of the six minimizing families live here (the sixth is
//! [`crate::long_read`]):
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

use std::path::Path;
use std::sync::Arc;

use nvwa_align::banded::banded_extend_with;
use nvwa_align::cigar::CigarOp;
use nvwa_align::kernel::bitparallel_extend;
use nvwa_align::myers::{banded_edit_extend, banded_edit_global, BandedEdit, MyersScratch};
use nvwa_align::pipeline::{
    AlignScratch, AlignerConfig, AlignmentOutcome, ReferenceIndex, SeedTrace,
};
use nvwa_align::scoring::Scoring;
use nvwa_align::sw::{self, DpScratch};
use nvwa_align::SoftwareAligner;
use nvwa_genome::{ReadSimParams, ReferenceGenome};
use nvwa_index::fmd_index::{FmdIndex, PrefixLut};
use nvwa_index::smem::{collect_smems_into, oracle, Smem, SmemConfig, SmemScratch};
use nvwa_index::{NullTrace, VecTrace};
use nvwa_serve::loadgen::{self, ref_params, LoadgenConfig, TenantRead};
use nvwa_serve::protocol::WireAlignment;
use nvwa_serve::{Server, ServerConfig, Tenant};

use crate::faults::closed_loop;
use crate::minimize::{run_family, Divergence, FirstDivergence, Probe};
use crate::Prng;

/// Band used by the banded-vs-full equality check; [`Prng::mutate`] keeps
/// indel drift strictly inside it.
pub const SW_BAND: usize = 16;

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

/// A band-boundary pair `(query, target)`: one contiguous indel of
/// exactly `band` codes mid-target (`min_len + below(spread)` codes long),
/// long exact flanks on both sides. The optimal path runs along the
/// `|i − j| == band` diagonal, which a band covers *inclusively* — any
/// off-by-one in the band bounds loses the path. This is what makes the
/// sw and extension families mutation-tight: a drift strictly inside the
/// band survives a one-cell narrowing.
fn band_boundary_case(p: &mut Prng, band: usize, min_len: usize, spread: u64) -> [Vec<u8>; 2] {
    let tlen = min_len + p.below(spread) as usize;
    let target = p.codes(tlen);
    let cut = tlen / 2;
    let mut query = target[..cut].to_vec();
    if p.below(2) == 0 {
        // Deletion in the query: the path drifts to j − i == band.
        query.extend_from_slice(&target[cut + band..]);
    } else {
        // Insertion in the query: the path drifts to i − j == band.
        query.extend((0..band).map(|_| p.base()));
        query.extend_from_slice(&target[cut..]);
    }
    [query, target]
}

/// The seeded SW case list: random unrelated pairs (banded ≤ full only),
/// bounded mutations (banded equality applies) and band-boundary indels
/// (banded equality at exactly [`SW_BAND`] of drift).
pub fn sw_cases(seed: u64, n: usize) -> Vec<SwCase> {
    let mut p = Prng(seed ^ 0x5157_0001);
    (0..n)
        .map(|i| {
            let [query, target] = if i % 6 == 5 {
                band_boundary_case(&mut p, SW_BAND, 80, 60)
            } else {
                let tlen = 20 + p.below(140) as usize;
                let target = p.codes(tlen);
                if i % 3 == 0 {
                    let qlen = 10 + p.below(70) as usize;
                    [p.codes(qlen), target]
                } else {
                    [p.mutate(&target), target]
                }
            };
            // Boundary cases (i % 6 == 5) are mutations too.
            let related = i % 3 != 0;
            SwCase {
                query,
                target,
                related,
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

/// [`sw_divergence`] over one [`DpScratch`] per call; query and target
/// shrink.
struct SwProbe;

impl Probe for SwProbe {
    type Case = SwCase;

    fn divergence(&self, cases: &[SwCase]) -> FirstDivergence {
        let mut dp = DpScratch::new();
        Ok(cases.iter().find_map(|c| sw_divergence(c, &mut dp)))
    }

    fn sequences(case: &mut SwCase) -> Vec<&mut Vec<u8>> {
        vec![&mut case.query, &mut case.target]
    }
}

/// The sw family: [`sw_cases`] through [`sw_divergence`].
pub fn run_sw_family(
    seed: u64,
    cases: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    run_family("sw", &SwProbe, &sw_cases(seed, cases), seed, repro_dir).map(|()| {
        format!("sw: {cases} cases × 2 scorings × (3 kernels vs naive + banded), all agree")
    })
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

/// The seeded extension case list: unrelated pairs (the `!exact` side of
/// the contract), bounded mutations (the `exact` side), identity prefixes
/// (affine-score equality) and band-boundary indels with multi-word
/// (≥ 65-symbol) patterns. A boundary pair's edit distance is (almost
/// always) exactly [`EXT_BAND`], so the contract check at `EXT_BAND`
/// demands `exact` while the check at `EXT_BAND − 1` demands `!exact` —
/// any off-by-one in the block window bounds breaks one of the two.
/// Lengths range past 64 so the multi-word block carries are exercised
/// throughout.
pub fn extension_cases(seed: u64, n: usize) -> Vec<ExtensionCase> {
    let mut p = Prng(seed ^ 0xE47E_0005);
    (0..n)
        .map(|i| {
            let identity = i % 6 == 2;
            let [query, target] = if i % 6 == 5 {
                band_boundary_case(&mut p, EXT_BAND, 120, 80)
            } else if identity {
                let tlen = 80 + p.below(120) as usize;
                let target = p.codes(tlen);
                let qlen = tlen - 1 - p.below(12) as usize;
                [target[..qlen].to_vec(), target]
            } else {
                let tlen = 20 + p.below(180) as usize;
                let target = p.codes(tlen);
                if i % 3 == 0 {
                    let qlen = 10 + p.below(170) as usize;
                    [p.codes(qlen), target]
                } else {
                    [p.mutate(&target), target]
                }
            };
            ExtensionCase {
                query,
                target,
                identity,
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

/// [`extension_divergence`] over one scratch pair per call; query and
/// target shrink.
struct ExtensionProbe;

impl Probe for ExtensionProbe {
    type Case = ExtensionCase;

    fn divergence(&self, cases: &[ExtensionCase]) -> FirstDivergence {
        let (mut myers, mut dp) = (MyersScratch::new(), DpScratch::new());
        Ok(cases
            .iter()
            .find_map(|c| extension_divergence(c, &mut myers, &mut dp)))
    }

    fn sequences(case: &mut ExtensionCase) -> Vec<&mut Vec<u8>> {
        vec![&mut case.query, &mut case.target]
    }
}

/// The extension family: [`extension_cases`] through
/// [`extension_divergence`].
pub fn run_extension_family(
    seed: u64,
    cases: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let all = extension_cases(seed, cases);
    run_family("extension", &ExtensionProbe, &all, seed, repro_dir).map(|()| {
        format!(
            "extension: {cases} cases × 3 bands × (global, extend, kernel) vs DP oracles, all agree"
        )
    })
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

/// [`smem_divergence`] over one scratch per index per call; a case is a
/// query under one seeding config, and its query shrinks.
struct SmemProbe {
    plain: FmdIndex,
    lut: FmdIndex,
    seed: u64,
}

impl Probe for SmemProbe {
    type Case = (SmemConfig, Vec<u8>);

    fn divergence(&self, cases: &[(SmemConfig, Vec<u8>)]) -> FirstDivergence {
        let (mut s_plain, mut s_lut) = (SmemScratch::new(), SmemScratch::new());
        Ok(cases.iter().find_map(|(config, query)| {
            let (check, detail) = smem_divergence(
                &self.plain,
                &self.lut,
                config,
                query,
                &mut s_plain,
                &mut s_lut,
            )?;
            let detail = format!(
                "{detail} (reference: 3000 codes from seed {}, min_seed_len {})",
                self.seed, config.min_seed_len
            );
            Some((check, detail))
        }))
    }

    fn sequences(case: &mut (SmemConfig, Vec<u8>)) -> Vec<&mut Vec<u8>> {
        vec![&mut case.1]
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
    let plain = FmdIndex::from_forward(&reference);
    let mut lut = FmdIndex::from_forward(&reference);
    lut.build_prefix_lut(PrefixLut::DEFAULT_K);
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
    let all: Vec<(SmemConfig, Vec<u8>)> = [SmemConfig::default(), smem_reseed_config()]
        .into_iter()
        .flat_map(|config| queries.iter().map(move |q| (config, q.clone())))
        .collect();
    let probe = SmemProbe { plain, lut, seed };
    run_family("smem", &probe, &all, seed, repro_dir)
        .map(|()| format!("smem: {cases} queries × 2 configs × 3 mode pairs vs oracle, all agree"))
}

// ---------------------------------------------------------------------------
// pipeline family
// ---------------------------------------------------------------------------

/// One alignment as a divergence detail shows it.
fn describe(a: Option<WireAlignment>) -> String {
    match a {
        Some(w) => format!(
            "pos {} rc {} score {} cigar {} mapq {}",
            w.pos, w.is_rc, w.score, w.cigar, w.mapq
        ),
        None => "unmapped".to_string(),
    }
}

/// Compares the three pipeline paths over a batch of `(read id, codes)`
/// cases: traced ([`SeedTrace::Record`], LUT bypassed) and fast
/// ([`SeedTrace::Skip`], LUT engaged) as whole batches over the reused
/// `scratch`, and each read traced alone on a fresh scratch. Alignments
/// must be identical and the workload profiles must agree on every
/// trace-invariant counter; the first read that breaks either is reported.
pub fn pipeline_divergence(
    aligner: &SoftwareAligner<'_>,
    cases: &[(u64, Vec<u8>)],
    scratch: &mut AlignScratch,
) -> Option<(&'static str, String)> {
    let batch = || cases.iter().map(|(id, codes)| (*id, codes.as_slice()));
    let (mut traced, mut fast, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
    aligner.align_batch(batch(), scratch, SeedTrace::Record, &mut traced);
    aligner.align_batch(batch(), scratch, SeedTrace::Skip, &mut fast);
    let show =
        |o: &AlignmentOutcome| describe(o.alignment.as_ref().map(WireAlignment::from_alignment));
    let profile_key = |o: &AlignmentOutcome| {
        let p = &o.profile;
        (p.smem_count, p.located_hits, p.hit_tasks.len(), p.dp_cells)
    };
    for (read, (traced, fast)) in batch().zip(traced.iter().zip(&fast)) {
        let mut alone = AlignScratch::new();
        aligner.align_batch([read], &mut alone, SeedTrace::Record, &mut fresh);
        let divergence = if traced.alignment != fast.alignment {
            let detail = format!("traced [{}] vs fast [{}]", show(traced), show(fast));
            ("pipeline.traced_vs_fast", detail)
        } else if fast.alignment != fresh[0].alignment {
            let (f, fresh) = (show(fast), show(&fresh[0]));
            let detail = format!("reused scratch [{f}] vs fresh [{fresh}]");
            ("pipeline.scratch_vs_fresh", detail)
        } else if profile_key(traced) != profile_key(fast) {
            let (t, f) = (profile_key(traced), profile_key(fast));
            let detail =
                format!("traced profile {t:?} vs fast {f:?} (smems, hits, tasks, dp_cells)");
            ("pipeline.profile_drift", detail)
        } else {
            continue;
        };
        return Some(divergence);
    }
    None
}

/// [`pipeline_divergence`] over one [`AlignScratch`] per call; a case is
/// `(read id, codes)`, and its codes shrink.
struct PipelineProbe<'a> {
    aligner: SoftwareAligner<'a>,
    seed: u64,
}

impl Probe for PipelineProbe<'_> {
    type Case = (u64, Vec<u8>);

    fn divergence(&self, cases: &[(u64, Vec<u8>)]) -> FirstDivergence {
        let divergence = pipeline_divergence(&self.aligner, cases, &mut AlignScratch::new());
        Ok(divergence.map(|(check, detail)| {
            let detail = format!("{detail} (reference: 8000 codes from seed {})", self.seed);
            (check, detail)
        }))
    }

    fn sequences(case: &mut (u64, Vec<u8>)) -> Vec<&mut Vec<u8>> {
        vec![&mut case.1]
    }
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
    let read_list: Vec<(u64, Vec<u8>)> = (0..reads as u64)
        .map(|i| {
            if i % 5 == 4 {
                let len = 60 + p.below(90) as usize;
                (i, p.codes(len))
            } else {
                let start = p.below((reference.len() - 101) as u64) as usize;
                (i, p.mutate(&reference[start..start + 101]))
            }
        })
        .collect();
    let probe = PipelineProbe { aligner, seed };
    run_family("pipeline", &probe, &read_list, seed, repro_dir).map(|()| {
        format!("pipeline: {reads} reads × 3 paths (traced, LUT fast, fresh scratch), all agree")
    })
}

// ---------------------------------------------------------------------------
// serve family
// ---------------------------------------------------------------------------

/// Reference length of the serve differential (small enough that index
/// construction stays cheap in CI, large enough for real SMEM structure).
pub const SERVE_REF_LEN: usize = 20_000;

/// One serve round trip per call: start a server on the shared index, run
/// the closed-loop loadgen over the reads, shut down, and compare each
/// served alignment with the offline aligner's. A read's codes shrink.
struct ServeProbe {
    index: Arc<ReferenceIndex>,
}

impl Probe for ServeProbe {
    type Case = TenantRead;

    fn divergence(&self, reads: &[TenantRead]) -> FirstDivergence {
        let server = Server::start(
            vec![Tenant::single(Arc::clone(&self.index))],
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
                collect_responses: true,
                ..closed_loop()
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
        let aligner = SoftwareAligner::new(&self.index, AlignerConfig::default());
        let batch = (0..).zip(reads.iter().map(|r| r.codes.as_slice()));
        let mut out = Vec::new();
        aligner.align_batch(batch, &mut AlignScratch::new(), SeedTrace::Skip, &mut out);
        // Walk ids in order so "first divergent read" is deterministic.
        for (id, AlignmentOutcome { alignment, .. }) in (0..).zip(&out) {
            let resp = report
                .responses
                .get(&id)
                .ok_or_else(|| format!("response for read {id} missing despite ok count"))?;
            let offline = alignment.as_ref().map(WireAlignment::from_alignment);
            if resp.alignment != offline {
                let (served, want) = (describe(resp.alignment.clone()), describe(offline));
                let detail = format!("read {id}: served [{served}] vs offline [{want}]");
                return Ok(Some(("serve.vs_offline", detail)));
            }
        }
        Ok(None)
    }

    fn sequences(read: &mut TenantRead) -> Vec<&mut Vec<u8>> {
        vec![&mut read.codes]
    }
}

/// The serve family: simulated reads against a synthesized reference,
/// served over real sockets and compared read-by-read with the offline
/// aligner. Every probe of the minimizer is a fresh server round, so
/// batching-dependent divergences minimize too.
pub fn run_serve_family(
    seed: u64,
    reads: usize,
    repro_dir: Option<&Path>,
) -> Result<String, Divergence> {
    let genome = ReferenceGenome::synthesize(&ref_params(SERVE_REF_LEN), seed);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));
    let sim = ReadSimParams::illumina_101();
    let read_list = loadgen::generate_reads(&genome, sim, seed ^ 0x52EA_D004, reads);
    run_family("serve", &ServeProbe { index }, &read_list, seed, repro_dir)
        .map(|()| format!("serve: {reads} reads served and bit-identical to the offline aligner"))
}

#[cfg(test)]
mod tests {
    use nvwa_telemetry::JsonValue;

    use super::*;
    use crate::dna_to_codes;

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
            let [query, target] = band_boundary_case(&mut p, SW_BAND, 80, 60);
            let full = sw::extend_align_with(&query, &target, &scoring, &mut dp);
            let exact = banded_extend_with(&query, &target, &scoring, SW_BAND, &mut dp);
            assert_eq!(exact.score, full.score, "correct band must cover the path");
            let narrow = banded_extend_with(&query, &target, &scoring, SW_BAND - 1, &mut dp);
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
            let [query, target] = band_boundary_case(&mut p, EXT_BAND, 120, 80);
            let row = edit_prefix_distances(&query, &target);
            let full = row[target.len()] as usize;
            assert!(full <= EXT_BAND, "one indel of EXT_BAND cannot cost more");
            let g = banded_edit_global(&query, &target, EXT_BAND, &mut myers);
            assert!(g.exact, "band equal to the drift must stay exact");
            assert_eq!(g.distance as usize, full);
            if full == EXT_BAND {
                at_limit += 1;
                let narrow = banded_edit_global(&query, &target, EXT_BAND - 1, &mut myers);
                assert!(!narrow.exact, "band one short of the indel must clamp");
            }
        }
        assert!(at_limit >= 8, "only {at_limit}/10 cases sat at the limit");
    }

    /// The extension probe plus a kernel whose band is silently one cell
    /// too narrow: a pair whose true distance is exactly [`EXT_BAND`]
    /// reports `!exact` where the contract demands `exact`.
    struct NarrowEditBand;

    impl Probe for NarrowEditBand {
        type Case = ExtensionCase;

        fn divergence(&self, cases: &[ExtensionCase]) -> FirstDivergence {
            let mut myers = MyersScratch::new();
            Ok(cases.iter().find_map(|c| {
                let real = ExtensionProbe.divergence(std::slice::from_ref(c)).unwrap();
                real.or_else(|| {
                    let full = edit_prefix_distances(&c.query, &c.target)[c.target.len()];
                    let g = banded_edit_global(&c.query, &c.target, EXT_BAND - 1, &mut myers);
                    let detail = format!("band {EXT_BAND}: exact=false but true distance {full}");
                    (full as usize <= EXT_BAND && !g.exact)
                        .then_some(("extension.exactness_contract", detail))
                })
            }))
        }

        fn sequences(case: &mut ExtensionCase) -> Vec<&mut Vec<u8>> {
            ExtensionProbe::sequences(case)
        }
    }

    #[test]
    fn a_planted_band_bug_in_the_edit_kernel_is_caught_and_minimized() {
        // The boundary cases in the seeded list catch the narrowed band,
        // and the runner brings the list down to one pair.
        let d = run_family(
            "extension",
            &NarrowEditBand,
            &extension_cases(3, 30),
            3,
            None,
        )
        .expect_err("a boundary case must trip the bug");
        assert_eq!(d.check, "extension.exactness_contract", "{d}");
        assert_eq!(d.reads.len(), 2, "one (query, target) pair suffices: {d}");
    }

    /// The written reproducer is the replayable record of a failure: its
    /// reads, turned back into codes, diverge with the recorded check.
    #[test]
    fn a_written_reproducer_replays_to_the_same_check() {
        let dir = std::env::temp_dir().join("nvwa_testkit_repro_round_trip");
        let _ = std::fs::remove_dir_all(&dir);
        let all = extension_cases(3, 30);
        let d = run_family("extension", &NarrowEditBand, &all, 3, Some(&dir))
            .expect_err("a boundary case must trip the bug");
        let path = dir.join("extension_seed3.json");
        assert_eq!(d.repro.as_ref(), Some(&Ok(path.clone())), "{d}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let field = |key: &str| doc.get(key).and_then(JsonValue::as_str).map(str::to_string);
        assert_eq!(field("family").as_deref(), Some("extension"));
        assert_eq!(field("check"), Some(d.check.clone()));
        assert_eq!(doc.get("seed").and_then(JsonValue::as_num), Some(3.0));
        let reads: Vec<Vec<u8>> = doc
            .get("reads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|r| dna_to_codes(r.as_str().unwrap()))
            .collect();
        assert_eq!(reads.len(), 2, "{d}");
        // `identity` is not recorded; the exactness contract ignores it.
        let replay = ExtensionCase {
            query: reads[0].clone(),
            target: reads[1].clone(),
            identity: false,
        };
        let (check, _) = NarrowEditBand
            .divergence(&[replay])
            .unwrap()
            .expect("the reproducer still diverges");
        assert_eq!(check, d.check);
        let _ = std::fs::remove_dir_all(&dir);
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

    /// The sw probe plus a banded kernel whose band is 1, below the
    /// mutation drift: related cases lose their optimum.
    struct NarrowBand;

    impl Probe for NarrowBand {
        type Case = SwCase;

        fn divergence(&self, cases: &[SwCase]) -> FirstDivergence {
            let (scoring, mut dp) = (Scoring::bwa_mem(), DpScratch::new());
            Ok(cases.iter().find_map(|c| {
                let real = SwProbe.divergence(std::slice::from_ref(c)).unwrap();
                real.or_else(|| {
                    let full = sw::extend_align_with(&c.query, &c.target, &scoring, &mut dp);
                    let banded = banded_extend_with(&c.query, &c.target, &scoring, 1, &mut dp);
                    let detail = format!("banded {} != full {}", banded.score, full.score);
                    (c.related && banded.score != full.score)
                        .then_some(("sw.banded_vs_full", detail))
                })
            }))
        }

        fn sequences(case: &mut SwCase) -> Vec<&mut Vec<u8>> {
            SwProbe::sequences(case)
        }
    }

    #[test]
    fn a_planted_banded_bug_is_caught_and_minimized() {
        let d = run_family("sw", &NarrowBand, &sw_cases(3, 30), 3, None)
            .expect_err("band 1 must lose some optimum");
        assert_eq!(d.check, "sw.banded_vs_full", "{d}");
        assert_eq!(d.reads.len(), 2, "one (query, target) pair suffices: {d}");
    }
}
