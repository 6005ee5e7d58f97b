//! Traced passes over the aligner's layers, shared by the offline and the
//! serve workloads: each read's whole-pipeline call is timed, then its
//! stages are replayed one public function at a time as child spans.

use crate::adapter::{LongAligner, LongIndex, LongReplay, ShortAligner, ShortIndex, ShortReplay};
use crate::metrics::RunResult;
use crate::spans::Recorder;

/// Work the layers did during the traced passes.
#[derive(Default)]
pub struct LayerCounts {
    short_reads: u64,
    smems: u64,
    traced_accesses: u64,
    located_hits: u64,
    chains: u64,
    extend_tasks: u64,
    extend_cells: u64,
    seed_cache: (u64, u64),
    long_reads: u64,
    minimizer_seeds: u64,
    gact_tiles: u64,
    gact_cells: u64,
}

/// Short-read pass: `align.pipeline` is the whole `align_codes_fast`; its
/// children replay `index.smem`, `index.locate`, `align.chain` and
/// `align.extend`. `index.smem_traced` is the same search on the simulator's
/// path and stands alone.
pub fn short_pass<'r>(
    rec: &mut Recorder,
    index: &ShortIndex,
    reads: impl Iterator<Item = &'r [u8]>,
    counts: &mut LayerCounts,
) {
    let mut aligner = ShortAligner::new(index);
    let mut replay = ShortReplay::new(index);
    for (i, codes) in reads.enumerate() {
        let id = i as u64;
        let whole = rec.begin("align.pipeline", id);
        let outcome = aligner.align(id, codes);
        rec.stop(whole);
        counts.smems += rec.time("index.smem", id, |_| replay.smem(codes)) as u64;
        counts.located_hits += rec.time("index.locate", id, |_| replay.locate(codes.len())) as u64;
        counts.chains += rec.time("align.chain", id, |_| replay.chain()) as u64;
        counts.extend_tasks +=
            rec.time("align.extend", id, |_| replay.extend(codes, &outcome)) as u64;
        rec.close(whole);
        counts.traced_accesses +=
            rec.time("index.smem_traced", id, |_| replay.smem_traced(codes)) as u64;
        counts.extend_cells += outcome.dp_cells();
        counts.short_reads += 1;
    }
    let (hits, lookups) = aligner.seed_cache_stats();
    counts.seed_cache.0 += hits;
    counts.seed_cache.1 += lookups;
}

/// Long-read pass: `align.long` is the whole `LongReadAligner::align`; its
/// children replay `index.minimizer`, `align.chain` and `align.gact`.
pub fn long_pass<'r>(
    rec: &mut Recorder,
    index: &LongIndex,
    reads: impl Iterator<Item = &'r [u8]>,
    counts: &mut LayerCounts,
) {
    let aligner = LongAligner::new(index);
    let mut replay = LongReplay::new(index);
    for (i, codes) in reads.enumerate() {
        let id = i as u64;
        let whole = rec.begin("align.long", id);
        let outcome = aligner.align(codes);
        rec.stop(whole);
        counts.minimizer_seeds +=
            rec.time("index.minimizer", id, |_| replay.minimizer(codes)) as u64;
        counts.chains += rec.time("align.chain", id, |_| replay.chain()) as u64;
        let (tiles, cells) = rec.time("align.gact", id, |_| replay.gact(codes));
        rec.close(whole);
        // The replay must have done the work the aligner did.
        debug_assert!(outcome
            .as_ref()
            .is_none_or(|o| (o.tiles(), o.dp_cells()) == (tiles, cells)));
        counts.gact_tiles += tiles;
        counts.gact_cells += cells;
        counts.long_reads += 1;
    }
}

/// Turns the recorder's layer totals into per-read metrics. Layers that saw
/// no read stay unset.
pub fn record(result: &mut RunResult, rec: &Recorder, c: &LayerCounts) {
    let layers = rec.layers();
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64);
    let own = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64);
    if c.short_reads > 0 {
        let n = c.short_reads as f64;
        result.set("index.smem.ns_per_read", total("index.smem") / n);
        result.set("index.smem.smems_per_read", c.smems as f64 / n);
        result.set(
            "index.seed_cache.hit_share",
            c.seed_cache.0 as f64 / (c.seed_cache.1 as f64).max(1.0),
        );
        result.set(
            "index.smem_traced.ns_per_read",
            total("index.smem_traced") / n,
        );
        result.set(
            "index.smem_traced.accesses_per_read",
            c.traced_accesses as f64 / n,
        );
        result.set("index.locate.ns_per_read", total("index.locate") / n);
        result.set("index.locate.hits_per_read", c.located_hits as f64 / n);
        result.set("align.extend.ns_per_read", total("align.extend") / n);
        result.set("align.extend.tasks_per_read", c.extend_tasks as f64 / n);
        result.set("align.extend.cells_per_read", c.extend_cells as f64 / n);
        result.set("align.pipeline.ns_per_read", total("align.pipeline") / n);
        result.set("align.pipeline.self_ns_per_read", own("align.pipeline") / n);
    }
    if c.long_reads > 0 {
        let n = c.long_reads as f64;
        result.set("index.minimizer.ns_per_read", total("index.minimizer") / n);
        result.set(
            "index.minimizer.seeds_per_read",
            c.minimizer_seeds as f64 / n,
        );
        result.set("align.gact.ns_per_read", total("align.gact") / n);
        result.set("align.gact.tiles_per_read", c.gact_tiles as f64 / n);
        result.set("align.gact.cells_per_read", c.gact_cells as f64 / n);
        result.set("align.long.ns_per_read", total("align.long") / n);
        result.set("align.long.self_ns_per_read", own("align.long") / n);
    }
    let reads = (c.short_reads + c.long_reads) as f64;
    if reads > 0.0 {
        // One chainer serves both pipelines: per read of either kind.
        result.set("align.chain.ns_per_read", total("align.chain") / reads);
        result.set("align.chain.chains_per_read", c.chains as f64 / reads);
    }
}
