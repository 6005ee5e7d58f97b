//! `serve_closed` and `serve_open`: the serving plane as a user meets it —
//! `nvwa serve` as a child process, spoken to over TCP.
//!
//! * `serve_closed` — 2 connections × window 32, closed loop, short reads.
//!   Saturating load: batches fill by count, and framing, syscalls,
//!   hand-offs and telemetry are about two thirds of server CPU, so
//!   serve-plane work shows here and kernel work shows only in proportion
//!   to its one-third share.
//! * `serve_open` — one connection, open-loop Poisson at a fixed 1 000
//!   requests/s, every 32nd request a 2 000 bp `mode:"long"` read, latency
//!   from each request's due time. The same stack used the other way: the
//!   worker about 20 % busy, batches flush by `max_wait` timeout, short and
//!   long bins share one worker — a throughput win bought with latency, or
//!   a short-path win that starves long reads, shows here. (At 2 000
//!   requests/s the server uses 0.6 of a core on the recording host, queues
//!   form whenever the host slows down, and p50 measures the host.)
//!
//! Every reply is compared, after the trial's clock stops, with the answer
//! the harness computed offline with the aligners' default configurations.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use super::{layers, p50_ms, record_setup, repeat, run_trials, Ctx, Phases};
use crate::adapter::{
    self, Genome, Json, LongAligner, LongIndex, Placement, ShortAligner, ShortIndex, Stages,
};
use crate::loadgen::{self, Prng};
use crate::metrics::RunResult;
use crate::server::{Proc, ServerChild};
use crate::spans::Recorder;
use crate::stats::{median, percentile};

const CONNECTIONS: usize = 2;
const WINDOW: usize = 32;
const OPEN_RATE: f64 = 1_000.0;
const LONG_EVERY: usize = 32;
const LONG_LEN: usize = 2_000;
/// A trial whose sender ran later than this (p99) against its timetable is
/// counted as invalid (`loadgen.invalid_trials`): its latencies measure the
/// generator. They run from the due time, so the lag can only raise them and
/// such a trial is never the run's best. On a 2-vCPU host the sender shares
/// the cores with three busy server threads and its p99 lag is 2-4 ms, so the
/// limit only catches a sender that was stalled outright.
const MAX_LAG_P99_NS: f64 = 5e6;
const SWEEP_RATES: [(f64, &str); 4] = [
    (1_000.0, "r1000"),
    (2_000.0, "r2000"),
    (4_000.0, "r4000"),
    (8_000.0, "r8000"),
];
/// The sweep's latency limit on p99 from due time.
const SWEEP_LIMIT_MS: f64 = 20.0;
/// Length of one open-loop trial and of one sweep step at full size.
const OPEN_TRIAL_S: f64 = 0.5;
const SWEEP_STEP_S: f64 = 1.0;

#[derive(Clone, Copy, PartialEq)]
pub enum Loop {
    Closed,
    Open,
}

impl Loop {
    fn name(self) -> &'static str {
        match self {
            Loop::Closed => "serve_closed",
            Loop::Open => "serve_open",
        }
    }
}

/// One request of the pool: its read, its frame and its expected answer.
struct Pool {
    codes: Vec<Vec<u8>>,
    long: Vec<bool>,
    frames: Vec<Vec<u8>>,
    expected: Vec<Option<Placement>>,
}

impl Pool {
    /// Encodes `reads` as requests `0..n` and computes their answers offline.
    fn build(
        reads: Vec<(Vec<u8>, bool)>,
        index: &ShortIndex,
        long_index: Option<&LongIndex>,
    ) -> Pool {
        let mut short = ShortAligner::new(index);
        let long_aligner = long_index.map(LongAligner::new);
        let mut pool = Pool {
            codes: Vec::new(),
            long: Vec::new(),
            frames: Vec::new(),
            expected: Vec::new(),
        };
        for (id, (codes, long)) in reads.into_iter().enumerate() {
            let id = id as u64;
            pool.frames.push(adapter::request_frame(id, &codes, long));
            pool.expected.push(if long {
                let aligner = long_aligner
                    .as_ref()
                    .expect("long requests need the long index");
                aligner.align(&codes).map(|a| a.placement())
            } else {
                short.align(id, &codes).placement()
            });
            pool.codes.push(codes);
            pool.long.push(long);
        }
        pool
    }

    /// Whether `reply` is the answer to request `id`, bit for bit.
    fn accepts(&self, id: usize, reply: &adapter::Served) -> bool {
        match (&self.expected[id], self.long[id]) {
            (Some(p), _) => reply.status == "ok" && reply.placement.as_ref() == Some(p),
            (None, false) => reply.status == "ok" && reply.placement.is_none(),
            (None, true) => reply.status == "unmapped",
        }
    }
}

struct Setup {
    fasta: PathBuf,
    index: ShortIndex,
    long_index: Option<LongIndex>,
    pool: Pool,
    /// Open loop: the trial's Poisson timetable, one due time per request.
    due_ns: Vec<u64>,
    /// Open loop, traced run: short requests for the rate sweep.
    sweep: Option<Pool>,
    server: ServerChild,
}

/// Synthesizes the reference, starts the server on it and, while the server
/// indexes, builds the harness's own index, the requests and their answers.
fn setup(ctx: &Ctx, kind: Loop, p: &mut Phases) -> Result<Setup, String> {
    let genome = p.time("genome.synth_s", || {
        Genome::synthesize(ctx.ref_len(), ctx.seed)
    });
    let fasta = ctx.work_dir.join("ref.fa");
    std::fs::write(&fasta, genome.fasta())
        .map_err(|e| format!("cannot write {}: {e}", fasta.display()))?;
    let mut server = ServerChild::spawn(&ctx.nvwa_bin, &fasta, &ctx.work_dir, &[])?;

    let index = p.time("index.build_s", || ShortIndex::build(&genome));
    let long_index =
        (kind == Loop::Open).then(|| p.time("index.long_build_s", || LongIndex::build(&genome)));
    let due_ns = match kind {
        Loop::Closed => Vec::new(),
        Loop::Open => loadgen::poisson_timetable(
            OPEN_RATE,
            shrunk(ctx, OPEN_TRIAL_S),
            &mut Prng::new(ctx.seed),
        ),
    };
    let sweep_n = (SWEEP_RATES[SWEEP_RATES.len() - 1].0 * shrunk(ctx, SWEEP_STEP_S) * 1.2) as usize;
    let (reads, sweep_reads) = p.time("genome.reads_s", || {
        let n = match kind {
            Loop::Closed => ctx.sized(2_000, 2 * CONNECTIONS * WINDOW),
            Loop::Open => due_ns.len(),
        };
        let mut long =
            adapter::long_reads(&genome, LONG_LEN, n / LONG_EVERY + 1, ctx.seed).into_iter();
        let reads: Vec<(Vec<u8>, bool)> = adapter::short_reads(&genome, n, ctx.seed)
            .into_iter()
            .enumerate()
            .map(|(i, short)| match kind {
                Loop::Open if i % LONG_EVERY == LONG_EVERY - 1 => {
                    (long.next().expect("enough long reads").codes, true)
                }
                _ => (short.codes, false),
            })
            .collect();
        let sweep = (kind == Loop::Open && ctx.trace).then(|| {
            adapter::short_reads(&genome, sweep_n, ctx.seed.wrapping_add(1))
                .into_iter()
                .map(|r| (r.codes, false))
                .collect::<Vec<_>>()
        });
        (reads, sweep)
    });
    let pool = Pool::build(reads, &index, long_index.as_ref());
    let sweep = sweep_reads.map(|reads| Pool::build(reads, &index, None));
    server.wait_ready()?;
    Ok(Setup {
        fasta,
        index,
        long_index,
        pool,
        due_ns,
        sweep,
        server,
    })
}

/// A full-size duration at this run's size, at least 50 ms.
fn shrunk(ctx: &Ctx, full_s: f64) -> f64 {
    (full_s / ctx.shrink as f64).max(0.05)
}

/// One trial after its replies were checked.
struct Checked {
    wall_s: f64,
    correct: u64,
    failed: u64,
    short_ns: Vec<f64>,
    long_ns: Vec<f64>,
    lag_ns: Vec<f64>,
    /// `(sum, count)` of the `batch_size` the correct replies carry.
    batch_sizes: (f64, f64),
}

/// Decodes every reply of the trial and compares it with the pool's answer.
/// A request fails when it got no reply, a wrong one or more than one.
fn check(trial: loadgen::Trial, pool: &Pool) -> Checked {
    let n = trial.latency_ns.len();
    let mut good = vec![false; n];
    let mut batch_sizes = (0.0, 0.0);
    for body in &trial.replies {
        let Ok(reply) = adapter::decode_response(body) else {
            continue;
        };
        let id = reply.id as usize;
        if id < n && !good[id] && pool.accepts(id, &reply) {
            good[id] = true;
            if let Some(size) = reply.batch_size {
                batch_sizes = (batch_sizes.0 + size as f64, batch_sizes.1 + 1.0);
            }
        }
    }
    let correct = good.iter().filter(|g| **g).count() as u64;
    let mut out = Checked {
        wall_s: trial.wall_s,
        correct,
        failed: n as u64 - correct + trial.stray_replies,
        short_ns: Vec::new(),
        long_ns: Vec::new(),
        lag_ns: trial.lag_ns.iter().map(|l| *l as f64).collect(),
        batch_sizes,
    };
    for (id, latency) in trial.latency_ns.iter().enumerate() {
        if let (Some(ns), true) = (latency, good[id]) {
            if pool.long[id] {
                out.long_ns.push(*ns as f64);
            } else {
                out.short_ns.push(*ns as f64);
            }
        }
    }
    out
}

fn closed_trial(addr: SocketAddr, pool: &Pool) -> Result<Checked, String> {
    let trial = loadgen::closed_loop(addr, &pool.frames, CONNECTIONS, WINDOW)
        .map_err(|e| format!("closed loop: {e}"))?;
    Ok(check(trial, pool))
}

/// One open-loop trial of the first `due_ns.len()` requests of `pool`.
fn open_trial(addr: SocketAddr, pool: &Pool, due_ns: &[u64]) -> Result<Checked, String> {
    let trial = loadgen::open_loop(addr, &pool.frames[..due_ns.len()], due_ns)
        .map_err(|e| format!("open loop: {e}"))?;
    Ok(check(trial, pool))
}

pub fn run(ctx: &Ctx, kind: Loop) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    // The harness's CPU and the server's context switches over the trial
    // loops, for the traced run's /proc metrics.
    let mut loops = LoopTotals::default();
    let run = repeat(
        ctx,
        |p| setup(ctx, kind, p),
        |s, seconds| {
            let server = Proc::Pid(s.server.pid());
            let before = ProcSample::take(server);
            let measured = run_trials(seconds, server, || match kind {
                Loop::Closed => closed_trial(s.server.addr, &s.pool),
                Loop::Open => open_trial(s.server.addr, &s.pool, &s.due_ns),
            })?;
            loops.add(&before, &ProcSample::take(server));
            Ok(measured)
        },
    )?;
    record_setup(ctx, &mut result, &run.phases, &run.setup_s);
    let sys_share = run.system_s / (run.user_s + run.system_s).max(1e-9);
    let s = run.last;
    let server = Proc::Pid(s.server.pid());
    let addr = s.server.addr;
    let trials = &run.trials;
    let requests = s.pool.frames.len() as u64;
    result.attempted = trials.len() as u64 * requests;
    result.failed = trials.iter().map(|t| t.failed).sum();
    let completed: u64 = trials.iter().map(|t| t.correct).sum();
    let rates: Vec<f64> = trials.iter().map(|t| t.correct as f64 / t.wall_s).collect();
    // Server CPU per correct request, trial by trial.
    let cpu_us: Vec<f64> = trials
        .iter()
        .zip(&run.trial_cpu_s)
        .filter(|(t, _)| t.correct > 0)
        .map(|(t, cpu_s)| cpu_s * 1e6 / t.correct as f64)
        .collect();
    if cpu_us.is_empty() {
        return Err("no trial completed a request".to_string());
    }

    if !ctx.trace {
        let p50s: Vec<f64> = trials
            .iter()
            .filter(|t| !t.short_ns.is_empty())
            .map(|t| p50_ms(&t.short_ns))
            .collect();
        if p50s.is_empty() {
            return Err("no trial completed a request".to_string());
        }
        result.set_trials("reads_per_s", &rates);
        result.set_trials("p50_ms", &p50s);
        result.set_trials("cpu_us_per_request", &cpu_us);
        result.set("peak_rss_mb", run.peak_rss_mb);
        return Ok(result);
    }

    // ---- Traced run: the live server's own numbers ...
    let untraced_rate = median(&rates);
    result.set("trace.untraced_reads_per_s", untraced_rate);
    result.set(
        "trace.failed_share",
        result.failed as f64 / result.attempted as f64,
    );
    result.set(
        "index.heap_mb",
        s.index.heap_bytes() as f64 / (1 << 20) as f64,
    );
    let cpu_us = median(&cpu_us);
    result.set("serve.cpu_us_per_request", cpu_us);
    result.set("serve.server.sys_share", sys_share);
    result.set(
        "serve.server.ctx_switches_per_request",
        loops.switches / completed.max(1) as f64,
    );
    result.set("serve.server.threads", server.threads());
    result.set("loadgen.cpu_share", loops.harness_s / loops.wall_s);
    result.set(
        "loadgen.invalid_trials",
        trials
            .iter()
            .filter(|t| !t.lag_ns.is_empty() && percentile(&t.lag_ns, 99.0) > MAX_LAG_P99_NS)
            .count() as f64,
    );

    let short_ns: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.short_ns.iter().copied())
        .collect();
    let long_ns: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.long_ns.iter().copied())
        .collect();
    let lag_ns: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.lag_ns.iter().copied())
        .collect();
    if short_ns.is_empty() {
        return Err("no trial completed a request".to_string());
    }
    result.set("serve.latency.p99_ms", percentile(&short_ns, 99.0) / 1e6);
    result.set("serve.latency.samples", short_ns.len() as f64);
    if !long_ns.is_empty() {
        result.set("serve.latency.long_p50_ms", p50_ms(&long_ns));
        result.set(
            "serve.latency.long_p99_ms",
            percentile(&long_ns, 99.0) / 1e6,
        );
    }
    if !lag_ns.is_empty() {
        result.set("loadgen.lag_p99_ms", percentile(&lag_ns, 99.0) / 1e6);
    }
    let batches = trials.iter().fold((0.0, 0.0), |acc, t| {
        (acc.0 + t.batch_sizes.0, acc.1 + t.batch_sizes.1)
    });
    let batch_mean = batches.0 / f64::max(batches.1, 1.0);
    result.set("serve.batcher.batch_size_mean", batch_mean);
    scrape_stats(&mut result, addr);

    // ... then the staged replay and the aligner's layers, in-process.
    let mut rec = Recorder::new();
    let replayed = ctx.sized(2_000, 64).min(s.pool.frames.len());
    let replay_start = Instant::now();
    staged_replay(
        &mut rec,
        &mut result,
        &s,
        replayed,
        batch_mean.round() as usize,
    );
    let replay_ns = replay_start.elapsed().as_nanos() as f64;
    let stage_ns: f64 = [
        "serve.protocol.decode",
        "serve.queue",
        "serve.batcher",
        "serve.backend.execute",
        "serve.protocol.encode",
    ]
    .iter()
    .map(|name| rec.total_ns(name) as f64)
    .sum();
    result.set("trace.overhead_share", replay_ns / stage_ns - 1.0);
    result.set(
        "serve.unattributed_us_per_request",
        cpu_us - stage_ns / 1e3 / replayed as f64,
    );

    let mut counts = layers::LayerCounts::default();
    let of_kind = |long: bool, limit: usize| {
        let pool = &s.pool;
        (0..pool.codes.len())
            .filter(move |&i| pool.long[i] == long)
            .take(limit)
            .map(move |i| pool.codes[i].as_slice())
    };
    layers::short_pass(
        &mut rec,
        &s.index,
        of_kind(false, ctx.sized(1_000, 32)),
        &mut counts,
    );
    if let Some(long_index) = &s.long_index {
        layers::long_pass(&mut rec, long_index, of_kind(true, 16), &mut counts);
    }
    layers::record(&mut result, &rec, &counts);
    result.set("trace.spans", rec.spans().len() as f64);
    rec.write_json(
        kind.name(),
        &ctx.out_dir.join(format!("trace_{}.json", kind.name())),
    )
    .map_err(|e| format!("cannot write the trace: {e}"))?;

    match kind {
        Loop::Open => rate_sweep(ctx, &mut result, &s)?,
        Loop::Closed => {
            let Setup {
                fasta,
                pool,
                server,
                ..
            } = s;
            drop(server);
            result.set(
                "serve.obs.trace_on_ratio",
                traced_server_rate(ctx, &fasta, &pool)? / untraced_rate,
            );
        }
    }
    Ok(result)
}

/// The server's context switches and the harness's CPU at one instant.
struct ProcSample {
    switches: f64,
    harness_s: f64,
    at: Instant,
}

impl ProcSample {
    fn take(server: Proc) -> ProcSample {
        ProcSample {
            switches: server.context_switches(),
            harness_s: Proc::Harness.cpu_total(),
            at: Instant::now(),
        }
    }
}

/// How much the counters moved during the trial loops of all repetitions.
#[derive(Default)]
struct LoopTotals {
    switches: f64,
    harness_s: f64,
    wall_s: f64,
}

impl LoopTotals {
    fn add(&mut self, before: &ProcSample, after: &ProcSample) {
        self.switches += after.switches - before.switches;
        self.harness_s += after.harness_s - before.harness_s;
        self.wall_s += (after.at - before.at).as_secs_f64();
    }
}

/// One in-band `stats` scrape after the last trial. A field the reply does
/// not carry leaves its metric unset; it never fails the run.
fn scrape_stats(result: &mut RunResult, addr: SocketAddr) {
    let Some(stats) = loadgen::round_trip(addr, &adapter::stats_frame())
        .ok()
        .and_then(|body| String::from_utf8(body).ok())
        .and_then(|text| Json::parse(&text).ok())
    else {
        return;
    };
    let fill = stats.num(&["counters", "serve.batch_flush_fill"]);
    let timeout = stats.num(&["counters", "serve.batch_flush_timeout"]);
    if let (Some(fill), Some(timeout)) = (fill, timeout) {
        result.set("serve.batcher.full_share", fill / (fill + timeout).max(1.0));
    }
    if let Some(us) = stats.num(&["histograms", "serve.queue_wait_us", "p50"]) {
        result.set("serve.queue.wait_p50_us", us);
    }
    if let Some(us) = stats.num(&["histograms", "serve.batch_exec_us", "p50"]) {
        result.set("serve.backend.batch_exec_p50_us", us);
    }
}

/// Pushes the first `requests` request frames through the server's stages
/// in-process — decode → queue → batcher → execute → encode — one span per
/// stage call, batches of the size the live server formed.
fn staged_replay(
    rec: &mut Recorder,
    result: &mut RunResult,
    s: &Setup,
    requests: usize,
    batch: usize,
) {
    let mut stages = Stages::new(&s.index, s.long_index.as_ref(), batch);
    let mut frame_out = Vec::new();
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let mut finish = |rec: &mut Recorder, stages: &mut Stages, batch: Vec<adapter::Decoded>| {
        let (size, first) = (batch.len() as u64, batch[0].id);
        let done = rec.time("serve.backend.execute", first, |_| stages.execute(batch));
        for item in &done {
            let encode = rec.begin("serve.protocol.encode", item.id());
            adapter::stage_encode(item, size, &mut frame_out);
            rec.stop(encode);
            rec.time("telemetry.json.write", item.id(), |_| {
                adapter::stage_json_write(item, size)
            });
            rec.close(encode);
            response_bytes += frame_out.len();
        }
    };
    for frame in &s.pool.frames[..requests] {
        request_bytes += frame.len();
        let id = loadgen::extract_id(&frame[4..]).unwrap_or(0);
        let decode = rec.begin("serve.protocol.decode", id);
        let request = adapter::stage_decode(frame);
        rec.stop(decode);
        rec.time("telemetry.json.parse", id, |_| {
            adapter::stage_json_parse(frame)
        });
        rec.close(decode);
        let request = rec.time("serve.queue", id, |_| stages.queue(request));
        let now = Instant::now();
        if let Some(batch) = rec.time("serve.batcher", id, |_| stages.offer(request, now)) {
            finish(rec, &mut stages, batch);
        }
    }
    for batch in stages.drain(Instant::now()) {
        finish(rec, &mut stages, batch);
    }
    let n = requests as f64;
    let per_request = |name: &str| rec.total_ns(name) as f64 / n;
    result.set(
        "serve.protocol.decode_ns",
        per_request("serve.protocol.decode"),
    );
    result.set(
        "serve.protocol.encode_ns",
        per_request("serve.protocol.encode"),
    );
    result.set(
        "telemetry.json.parse_ns",
        per_request("telemetry.json.parse"),
    );
    result.set(
        "telemetry.json.write_ns",
        per_request("telemetry.json.write"),
    );
    result.set("serve.queue.push_pop_ns", per_request("serve.queue"));
    result.set("serve.batcher.offer_ns", per_request("serve.batcher"));
    result.set(
        "serve.backend.execute_ns_per_read",
        per_request("serve.backend.execute"),
    );
    result.set("serve.protocol.request_bytes", request_bytes as f64 / n);
    result.set("serve.protocol.response_bytes", response_bytes as f64 / n);
}

/// Short-only open-loop steps at each swept rate: p50 and p99 from due time
/// (a failed request waited out the reply timeout, so it misses any limit), failures, and the highest rate that
/// holds the limit. Over a step this short a growing backlog already breaks
/// the p99 limit, so it needs no test of its own.
fn rate_sweep(ctx: &Ctx, result: &mut RunResult, s: &Setup) -> Result<(), String> {
    let pool = s
        .sweep
        .as_ref()
        .expect("the traced open-loop set-up builds the sweep pool");
    let mut max_ok = 0.0;
    for (step, (rate, key)) in SWEEP_RATES.iter().enumerate() {
        let mut due = loadgen::poisson_timetable(
            *rate,
            shrunk(ctx, SWEEP_STEP_S),
            &mut Prng::new(ctx.seed ^ (step as u64 + 1)),
        );
        due.truncate(pool.frames.len());
        let trial = loadgen::open_loop(s.server.addr, &pool.frames[..due.len()], &due)
            .map_err(|e| format!("rate sweep: {e}"))?;
        let checked = check(trial, pool);
        let mut latencies = checked.short_ns.clone();
        latencies.resize(due.len(), loadgen::REPLY_TIMEOUT.as_nanos() as f64);
        let p99_ms = percentile(&latencies, 99.0) / 1e6;
        result.set(&format!("serve.sweep.{key}.p50_ms"), p50_ms(&latencies));
        result.set(&format!("serve.sweep.{key}.p99_ms"), p99_ms);
        result.set(
            &format!("serve.sweep.{key}.failed_share"),
            checked.failed as f64 / due.len().max(1) as f64,
        );
        if p99_ms <= SWEEP_LIMIT_MS {
            max_ok = *rate;
        }
    }
    result.set("serve.sweep.max_rate_ok", max_ok);
    Ok(())
}

/// Median closed-loop rate of three trials against a second server started
/// with the program's own `--trace-out` switch.
fn traced_server_rate(ctx: &Ctx, fasta: &Path, pool: &Pool) -> Result<f64, String> {
    let trace_out = ctx.work_dir.join("server_trace.json");
    let mut server = ServerChild::spawn(
        &ctx.nvwa_bin,
        fasta,
        &ctx.work_dir,
        &["--trace-out", &trace_out.to_string_lossy()],
    )?;
    server.wait_ready()?;
    closed_trial(server.addr, pool)?;
    let rates = (0..3)
        .map(|_| closed_trial(server.addr, pool).map(|t| t.correct as f64 / t.wall_s))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&rates))
}
