//! Respond: the workers' half of the serving path. A free worker pulls a
//! batch from its engine's dispatcher, answers what expired while waiting,
//! executes the rest and answers it, leaving one span chain per request.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use nvwa_align::long_read::{LongReadAligner, LongReadConfig};
use nvwa_align::pipeline::{AlignScratch, AlignerConfig};
use nvwa_index::minimizer::minimizers;
use nvwa_index::trace::NullTrace;
use nvwa_telemetry::{Outcome, RequestSpans, Stage};

use crate::admission::answer;
use crate::backend::execute_batch_with;
use crate::batcher::{Batch, BatchItem};
use crate::metrics::Event;
use crate::protocol::{AlignResponse, ClassifyResult, Mode, Status, TenantScore, WireAlignment};
use crate::server::{Engine, PendingRead, Shared};

/// Integer nanoseconds from `a` to `b` (0 if the clock stepped back).
fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// A worker thread's body: pull, answer what expired, execute, repeat;
/// returns once the engine's dispatcher is closed and drained.
pub(crate) fn worker_loop(shared: Arc<Shared>, engine_id: usize, worker: usize) {
    let engine = &shared.engines[engine_id];
    // Per-worker alignment scratch: its buffers live for the worker's
    // whole lifetime, so the steady-state batch path allocates nothing per
    // read.
    let mut scratch = AlignScratch::new();
    while let Some((batch, depth)) = engine.dispatcher.take() {
        answer_expired(&shared, engine, &batch);
        if !batch.items.is_empty() {
            execute_batch(&shared, engine, worker, batch, depth, &mut scratch);
        }
    }
}

/// Expired requests are answered when their batch is taken and never
/// executed: their span chain is queue → write, with no align stage.
fn answer_expired(shared: &Shared, engine: &Engine, batch: &Batch<PendingRead>) {
    if batch.expired.is_empty() {
        return;
    }
    shared.metrics.record(Event::Expired {
        n: batch.expired.len() as u64,
        bin: batch.bin,
    });
    for item in &batch.expired {
        let resp = AlignResponse::failure(
            item.payload.id,
            Status::Deadline,
            "deadline expired while queued",
        );
        respond_and_trace(shared, engine, batch, item, Outcome::Deadline, None, &resp);
    }
}

/// Answers one item of `batch` and records its complete span chain. Stage
/// durations are integer nanoseconds between consecutive timestamps of
/// one monotonic sequence (admitted → taken → exec done → written), so
/// the chain is contiguous and sums exactly to the end-to-end latency by
/// construction. `exec_done` is the end of the batch's execution; `None`
/// (deadline expiry: answered when taken, never executed) leaves the
/// align stage out of the chain.
fn respond_and_trace(
    shared: &Shared,
    engine: &Engine,
    batch: &Batch<PendingRead>,
    item: &BatchItem<PendingRead>,
    outcome: Outcome,
    exec_done: Option<Instant>,
    resp: &AlignResponse,
) {
    answer(shared, &item.payload.conn, &resp.encode());
    let written = Instant::now();
    let taken = batch.taken_at;
    let queue = (Stage::Queue, ns_between(item.admitted_at, taken));
    let chain = |stages: &[(Stage, u64)]| {
        RequestSpans::chain(
            item.payload.trace_id,
            item.payload.conn.conn_id(),
            item.payload.id,
            batch.bin,
            outcome,
            shared.metrics.ns_at(item.admitted_at),
            stages,
        )
    };
    let chain = match exec_done {
        Some(done) => chain(&[
            queue,
            (Stage::Align, ns_between(taken, done)),
            (Stage::Write, ns_between(done, written)),
        ]),
        None => chain(&[queue, (Stage::Write, ns_between(taken, written))]),
    };
    shared.metrics.record(Event::RequestDone {
        chain,
        tenant: engine.tenant,
        shard: engine.shard,
    });
}

/// Executes one batch, taken leaving the dispatcher `depth` deep, and
/// answers every item: the one skeleton all three request modes share.
/// Batches are mode-homogeneous by construction (`bin_for` separates
/// modes before lengths), so the per-mode work is a plain per-batch
/// `match`; everything observable around it — timing, batch events,
/// panic containment, span chains — lives here once.
fn execute_batch(
    shared: &Shared,
    engine: &Engine,
    worker: usize,
    mut batch: Batch<PendingRead>,
    depth: usize,
    scratch: &mut AlignScratch,
) {
    let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    let (bin, size) = (batch.bin, batch.items.len());
    shared.metrics.record(Event::BatchStart {
        seq,
        reason: batch.reason,
        bin,
        size,
        depth,
    });
    if let Some(delay) = shared.config.worker_delay {
        std::thread::sleep(delay);
    }
    // A panicking batch must never take a worker (or an admitted request)
    // with it: catch it, answer every item `error` and keep serving.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if shared.config.worker_panic_at_batch == Some(seq) {
            panic!("injected fault: worker panic at batch {seq}");
        }
        match batch.mode {
            Mode::Short => run_short(shared, engine, &mut batch.items, scratch),
            Mode::Long => (run_long(engine, &batch.items), None),
            Mode::Classify => (run_classify(shared, engine, &batch.items), None),
        }
    }));
    let exec_done = Instant::now();
    // Either event is recorded before the responses go out: a client that
    // has seen every response (quiescence) is then guaranteed a ring with
    // no dangling batch_start except a panicked batch's.
    let answers = match result {
        Ok((answers, sim_cycles)) => {
            shared.metrics.record(Event::BatchDone {
                seq,
                worker,
                bin,
                size,
                taken: batch.taken_at,
                done: exec_done,
                sim_cycles,
            });
            answers
        }
        Err(_) => {
            // The scratch's buffers may be mid-update — replace it before
            // answering (the panic is exactly the incident the flight
            // recorder exists for).
            *scratch = AlignScratch::new();
            shared.metrics.record(Event::Panic { seq, worker });
            let why = "internal error: batch execution panicked";
            let error = |item: &BatchItem<PendingRead>| {
                let resp = AlignResponse::failure(item.payload.id, Status::Error, why);
                (resp, Outcome::Error)
            };
            batch.items.iter().map(error).collect()
        }
    };
    for (item, (resp, outcome)) in batch.items.iter().zip(&answers) {
        debug_assert_eq!(item.payload.id, resp.id);
        respond_and_trace(
            shared,
            engine,
            &batch,
            item,
            *outcome,
            Some(exec_done),
            resp,
        );
    }
}

/// The short-read path: the offline seed-and-extend aligner over the
/// engine's FM-index (plus the accelerator replay under
/// hardware-in-the-loop, whose cycle count every response carries).
fn run_short(
    shared: &Shared,
    engine: &Engine,
    items: &mut [BatchItem<PendingRead>],
    scratch: &mut AlignScratch,
) -> (Vec<(AlignResponse, Outcome)>, Option<u64>) {
    // The batch is this worker's: the codes move, nothing answering the
    // items afterwards reads them.
    let pairs: Vec<(u64, Vec<u8>)> = items
        .iter_mut()
        .map(|item| (item.payload.id, std::mem::take(&mut item.payload.codes)))
        .collect();
    let outcome = execute_batch_with(
        &engine.index,
        &AlignerConfig::default(),
        &shared.config.backend,
        &pairs,
        scratch,
    );
    let answers = outcome
        .results
        .iter()
        .map(|(id, alignment)| {
            let mut resp = AlignResponse::ok(*id, alignment.as_ref(), items.len() as u64);
            resp.sim_cycles = outcome.sim_cycles;
            (resp, Outcome::Ok)
        })
        .collect();
    (answers, outcome.sim_cycles)
}

/// The long-read path: minimizer seeding → chaining → GACT tile fill over
/// the tenant's minimizer index. A read whose chains all die is answered
/// with the explicit `unmapped` status — completed work, not a rejection.
fn run_long(engine: &Engine, items: &[BatchItem<PendingRead>]) -> Vec<(AlignResponse, Outcome)> {
    let aligner = LongReadAligner::new(&engine.long, LongReadConfig::default());
    let batch_size = items.len() as u64;
    items
        .iter()
        .map(|item| match aligner.align(&item.payload.codes) {
            Some(a) => (
                AlignResponse::ok_wire(
                    item.payload.id,
                    WireAlignment {
                        pos: a.ref_pos,
                        is_rc: a.is_rc,
                        score: a.score,
                        cigar: a.cigar.to_string(),
                        // Evidence proxy: one point per chained anchor,
                        // saturating at the conventional cap.
                        mapq: a.anchors.min(60) as u8,
                    },
                    batch_size,
                ),
                Outcome::Ok,
            ),
            None => (
                AlignResponse::unmapped(item.payload.id, batch_size),
                Outcome::Unmapped,
            ),
        })
        .collect()
}

/// The metagenomic classify path: per-tenant minimizer hit scores across
/// the whole tenant table, answered as an `ok` response with a `classify`
/// section.
fn run_classify(
    shared: &Shared,
    engine: &Engine,
    items: &[BatchItem<PendingRead>],
) -> Vec<(AlignResponse, Outcome)> {
    items
        .iter()
        .map(|item| {
            let result = classify_read(shared, engine, &item.payload.codes);
            let resp = AlignResponse::classified(item.payload.id, result, items.len() as u64);
            (resp, Outcome::Ok)
        })
        .collect()
}

/// Screens one read's minimizers across every tenant's index. Tenants
/// with no live shard are reported in `missing` (with `partial` set) —
/// a killed shard degrades the answer *visibly*, never by silently
/// truncating the score map.
fn classify_read(shared: &Shared, engine: &Engine, codes: &[u8]) -> ClassifyResult {
    let params = *engine.long.minimizers().params();
    // The minimizer hash is orientation-sensitive, so screen both strands
    // — the same reason the long-read seeder seeds both. A
    // reverse-complement read must score its origin tenant, not zero.
    let rc: Vec<u8> = codes.iter().rev().map(|&c| 3 - c).collect();
    let mut mins = minimizers(codes, &params);
    mins.extend(minimizers(&rc, &params));
    let mut tenants = Vec::new();
    let mut missing = Vec::new();
    for route in &shared.tenants {
        let live = route
            .engines
            .iter()
            .any(|&e| !shared.engines[e].dead.load(Ordering::Relaxed));
        if !live {
            missing.push(route.name.clone());
            continue;
        }
        let long = &shared.engines[route.engines[0]].long;
        let hits = mins
            .iter()
            .filter(|m| !long.minimizers().lookup(m.hash, &mut NullTrace).is_empty())
            .count() as u64;
        tenants.push(TenantScore {
            tenant: route.name.clone(),
            hits,
            minimizers: mins.len() as u64,
        });
    }
    let partial = !missing.is_empty();
    ClassifyResult {
        tenants,
        missing,
        partial,
    }
}
