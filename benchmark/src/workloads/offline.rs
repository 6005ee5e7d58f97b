//! `offline_short` and `offline_long`: the offline aligner on one thread.
//!
//! * `offline_short` — simulated `illumina_101` reads through
//!   `SoftwareAligner::align_codes_fast` with one reused scratch. The
//!   paper's short-read path: on a 2 Mbp index SMEM seeding and locate do
//!   over half the work; GACT and the wire do none.
//! * `offline_long` — `ReadSimParams::long_read(5_000)` reads through
//!   `LongReadAligner::align`. GACT tile fill is over 80 % of the time and
//!   the FM-index is never touched, so a seeding change must read "no
//!   change" here and an extension change must show here.

use std::time::Instant;

use super::{layers, p50_ms, record_setup, repeat, run_trials, Ctx, Measured, Repeated};
use crate::adapter::{self, Genome, LongAligner, LongIndex, ShortAligner, ShortIndex, SimRead};
use crate::metrics::RunResult;
use crate::server::Proc;
use crate::spans::Recorder;
use crate::stats::median;

/// A read counts as misplaced when it is unaligned, on the wrong strand or
/// further than this from its simulated origin. Reads drawn from repeat
/// copies legitimately land on another copy, so the share is not 0; it is
/// exact for a seed, and a run is incorrect above the ceiling.
const SHORT_TOLERANCE_BP: u64 = 8;
const LONG_TOLERANCE_BP: u64 = 100;
const MISPLACED_CEILING: f64 = 0.05;

/// Position, strand, score of one read's answer.
type Key = Option<(u64, bool, i32)>;

pub struct Trial {
    wall_s: f64,
    keys: Vec<Key>,
    latency_ns: Vec<f64>,
}

/// One pass over `reads` through `align`, timing every call.
fn trial(reads: &[SimRead], mut align: impl FnMut(u64, &[u8]) -> Key) -> Trial {
    let mut keys = Vec::with_capacity(reads.len());
    let mut latency_ns = Vec::with_capacity(reads.len());
    let start = Instant::now();
    let mut last = start;
    for (i, read) in reads.iter().enumerate() {
        keys.push(std::hint::black_box(align(
            i as u64,
            std::hint::black_box(&read.codes),
        )));
        let now = Instant::now();
        latency_ns.push((now - last).as_nanos() as f64);
        last = now;
    }
    Trial {
        wall_s: (last - start).as_secs_f64(),
        keys,
        latency_ns,
    }
}

fn misplaced(read: &SimRead, key: Key, tolerance: u64) -> bool {
    match key {
        Some((pos, is_rc, _)) => is_rc != read.reverse || pos.abs_diff(read.origin) > tolerance,
        None => true,
    }
}

/// Checks the trials and records the end-to-end metrics (untraced run) or
/// the baseline of the traced pass. Returns the baseline's nanoseconds per
/// read.
fn record_trials<S>(
    ctx: &Ctx,
    result: &mut RunResult,
    run: &Repeated<S, Trial>,
    reads: &[SimRead],
    tolerance: u64,
) -> f64 {
    let trials = &run.trials;
    let n = reads.len() as f64;

    // Same seed, same inputs, same answers: every trial of every repetition
    // must repeat the first.
    let reference = &trials[0].keys;
    result.attempted = (trials.len() * reads.len()) as u64;
    result.failed = trials[1..]
        .iter()
        .map(|t| t.keys.iter().zip(reference).filter(|(a, b)| a != b).count() as u64)
        .sum();
    let wrong = reads
        .iter()
        .zip(reference)
        .filter(|(r, k)| misplaced(r, **k, tolerance))
        .count();
    let misplaced_share = wrong as f64 / n;
    if misplaced_share > MISPLACED_CEILING {
        result.violate(format!(
            "{wrong} of {} reads are unaligned or misplaced (ceiling {MISPLACED_CEILING})",
            reads.len()
        ));
    }

    let rates: Vec<f64> = trials.iter().map(|t| n / t.wall_s).collect();
    if ctx.trace {
        result.set("align.accuracy.misplaced_share", misplaced_share);
        result.set("trace.untraced_reads_per_s", median(&rates));
        result.set(
            "trace.failed_share",
            result.failed as f64 / result.attempted as f64,
        );
    } else {
        let p50s: Vec<f64> = trials.iter().map(|t| p50_ms(&t.latency_ns)).collect();
        result.set_trials("reads_per_s", &rates);
        result.set_trials("p50_ms", &p50s);
        let cpu_us: Vec<f64> = run.trial_cpu_s.iter().map(|c| c * 1e6 / n).collect();
        result.set_trials("cpu_us_per_request", &cpu_us);
        result.set("peak_rss_mb", run.peak_rss_mb);
    }
    1e9 / median(&rates)
}

/// Writes the trace and records how much slower the traced whole-pipeline
/// call ran than the untraced baseline.
fn finish_trace(
    ctx: &Ctx,
    result: &mut RunResult,
    rec: &Recorder,
    workload: &str,
    whole: &str,
    reads: usize,
    untraced_ns: f64,
) -> Result<(), String> {
    let traced_ns = rec.total_ns(whole) as f64 / reads as f64;
    result.set("trace.overhead_share", traced_ns / untraced_ns - 1.0);
    result.set("trace.spans", rec.spans().len() as f64);
    rec.write_json(
        workload,
        &ctx.out_dir.join(format!("trace_{workload}.json")),
    )
    .map_err(|e| format!("cannot write the trace: {e}"))
}

pub fn run_short(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let pool = ctx.sized(2_000, 50);
    let run = repeat(
        ctx,
        |p| {
            let genome = p.time("genome.synth_s", || {
                Genome::synthesize(ctx.ref_len(), ctx.seed)
            });
            let index = p.time("index.build_s", || ShortIndex::build(&genome));
            let reads = p.time("genome.reads_s", || {
                adapter::short_reads(&genome, pool, ctx.seed)
            });
            Ok((index, reads))
        },
        |(index, reads), seconds| -> Result<Measured<Trial>, String> {
            let mut aligner = ShortAligner::new(index);
            run_trials(seconds, Proc::Harness, || {
                Ok(trial(reads, |id, codes| aligner.align(id, codes).key()))
            })
        },
    )?;
    let (index, reads) = &run.last;
    record_setup(ctx, &mut result, &run.phases, &run.setup_s);
    let untraced_ns = record_trials(ctx, &mut result, &run, reads, SHORT_TOLERANCE_BP);
    if ctx.trace {
        result.set(
            "index.heap_mb",
            index.heap_bytes() as f64 / (1 << 20) as f64,
        );
        let mut rec = Recorder::new();
        let mut counts = layers::LayerCounts::default();
        layers::short_pass(
            &mut rec,
            index,
            reads.iter().map(|r| r.codes.as_slice()),
            &mut counts,
        );
        layers::record(&mut result, &rec, &counts);
        finish_trace(
            ctx,
            &mut result,
            &rec,
            "offline_short",
            "align.pipeline",
            reads.len(),
            untraced_ns,
        )?;
    }
    Ok(result)
}

pub fn run_long(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let pool = ctx.sized(16, 3);
    let run = repeat(
        ctx,
        |p| {
            let genome = p.time("genome.synth_s", || {
                Genome::synthesize(ctx.ref_len(), ctx.seed)
            });
            let index = p.time("index.long_build_s", || LongIndex::build(&genome));
            let reads = p.time("genome.reads_s", || {
                adapter::long_reads(&genome, 5_000, pool, ctx.seed)
            });
            Ok((index, reads))
        },
        |(index, reads), seconds| -> Result<Measured<Trial>, String> {
            let aligner = LongAligner::new(index);
            run_trials(seconds, Proc::Harness, || {
                Ok(trial(reads, |_, codes| {
                    aligner.align(codes).map(|a| a.key())
                }))
            })
        },
    )?;
    let (index, reads) = &run.last;
    record_setup(ctx, &mut result, &run.phases, &run.setup_s);
    let untraced_ns = record_trials(ctx, &mut result, &run, reads, LONG_TOLERANCE_BP);
    if ctx.trace {
        let mut rec = Recorder::new();
        let mut counts = layers::LayerCounts::default();
        layers::long_pass(
            &mut rec,
            index,
            reads.iter().map(|r| r.codes.as_slice()),
            &mut counts,
        );
        layers::record(&mut result, &rec, &counts);
        finish_trace(
            ctx,
            &mut result,
            &rec,
            "offline_long",
            "align.long",
            reads.len(),
            untraced_ns,
        )?;
    }
    Ok(result)
}
