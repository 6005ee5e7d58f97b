//! Deterministic fault injection for the serving subsystem.
//!
//! Each [`FaultPlan`] attacks one seam of the server — the wire framing,
//! the request decoder, the admission queue, or the worker pool — while a
//! well-behaved
//! closed-loop client runs alongside. The invariant under *every* plan is
//! the same (DESIGN.md §11):
//!
//! 1. **Exactly-once accounting** — every request the well-behaved client
//!    sends receives exactly one response (`lost == 0`,
//!    `duplicates == 0`) and the statuses conserve
//!    (`received == ok + unmapped + shed + deadline + errors`).
//! 2. **Clean drain** — [`Server::shutdown`] returns (every thread
//!    joins); no attack may wedge the reactor, the batcher or a worker.
//!
//! Plans are seeded and self-contained; nothing here sleeps for
//! correctness (the queue-storm plan uses the server's own
//! `worker_delay` hook to create backpressure, and client sockets carry
//! generous read timeouts purely as fail-fast guards against hangs).

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use nvwa_align::pipeline::ReferenceIndex;
use nvwa_genome::{ReadSimParams, ReferenceGenome};
use nvwa_serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig};
use nvwa_serve::protocol::{read_frame, AlignResponse, Mode, Request, MAX_FRAME_BYTES};
use nvwa_serve::{BatcherConfig, ServeMetrics, Server, ServerConfig, Status, Tenant};
use nvwa_telemetry::snapshot::{validate, Kind};
use nvwa_telemetry::JsonValue;

use crate::tenancy::{
    every, interleave_tenants, kill_shard_mid_stream, two_tenants, TENANT_A, TENANT_B,
};
use crate::Prng;

/// Reference length of the fault fixtures (small: plans start their own
/// server per run).
const FAULT_REF_LEN: usize = 8_000;

/// Fail-fast guard on client sockets so a wedged server fails the check
/// instead of hanging it. Never load-bearing: a healthy server answers in
/// microseconds.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The attack a plan mounts while the well-behaved client runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Length header promising more bytes than are ever sent, then
    /// disconnect: the reactor must drop the connection silently (the
    /// request was never accepted, so exactly-once is unaffected).
    TruncatedFrame,
    /// Length header above `MAX_FRAME_BYTES`: the server must answer one
    /// `error` response and drop the connection — never allocate the
    /// advertised buffer.
    OversizedFrame,
    /// A valid frame cut mid-body, then disconnect.
    MidFrameDisconnect,
    /// A valid align request dribbled one byte per write: the server must
    /// assemble the frame and answer `ok` — byte-wise arrival is not a
    /// protocol error.
    SlowLoris,
    /// `worker_panic_at_batch` fires on the second batch: its items are
    /// answered `error`, the worker survives, later batches are `ok`.
    WorkerPanic,
    /// Tiny admission queue + slow workers + a large closed-loop window:
    /// the edge must shed explicitly and conservation must still hold.
    QueueStorm,
    /// Structure-aware fuzzing of the only door: seeded mutations of
    /// *valid* request frames (`frame_mutants`). Every mutant is
    /// answered `error` or dropped, never served and never a panic on the
    /// reactor thread, and a fresh well-formed request after each one is
    /// still answered `ok`.
    FrameFuzz,
}

impl FaultKind {
    /// Stable plan name (report text, repro stems).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TruncatedFrame => "truncated_frame",
            FaultKind::OversizedFrame => "oversized_frame",
            FaultKind::MidFrameDisconnect => "mid_frame_disconnect",
            FaultKind::SlowLoris => "slow_loris",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::QueueStorm => "queue_storm",
            FaultKind::FrameFuzz => "frame_fuzz",
        }
    }
}

/// A seeded fault-injection plan.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The attack.
    pub kind: FaultKind,
    /// Seed for the reference, the reads and the attack payload sizes.
    pub seed: u64,
}

/// Every fault kind at the given seed — the matrix `nvwa conformance`
/// runs.
pub fn fault_plans(seed: u64) -> Vec<FaultPlan> {
    [
        FaultKind::TruncatedFrame,
        FaultKind::OversizedFrame,
        FaultKind::MidFrameDisconnect,
        FaultKind::SlowLoris,
        FaultKind::WorkerPanic,
        FaultKind::QueueStorm,
        FaultKind::FrameFuzz,
    ]
    .into_iter()
    .map(|kind| FaultPlan { kind, seed })
    .collect()
}

/// A client socket to `addr` with the [`CLIENT_TIMEOUT`] read timeout and
/// `nodelay` set.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// The well-behaved client of the serving checks: 2 connections, closed
/// loop, window 16.
pub(crate) fn closed_loop() -> LoadgenConfig {
    LoadgenConfig {
        connections: 2,
        mode: ArrivalMode::Closed { window: 16 },
        ..LoadgenConfig::default()
    }
}

/// Exactly-once accounting of a well-behaved run: nothing lost or
/// duplicated, every request sent was answered, and the statuses
/// conserve (`received == ok + unmapped + shed + quota + deadline +
/// errors`).
pub(crate) fn exactly_once(report: &loadgen::LoadReport, what: &str) -> Result<(), String> {
    let t = &report.total;
    if !report.is_lossless() || t.received != t.sent {
        return Err(format!(
            "{what}: exactly-once violated: sent {} received {} lost {} duplicates {}",
            t.sent, t.received, t.lost, report.duplicates
        ));
    }
    let by_status = t.ok + t.unmapped + t.shed + t.quota + t.deadline + t.errors;
    if by_status != t.received {
        return Err(format!(
            "{what}: statuses do not conserve: ok {} + unmapped {} + shed {} + quota {} + \
             deadline {} + errors {} != received {}",
            t.ok, t.unmapped, t.shed, t.quota, t.deadline, t.errors, t.received
        ));
    }
    Ok(())
}

/// The worker-panic plan's server: a small fill target makes many
/// batches, so the panic hits batch 1 and plenty of later batches prove
/// the worker survived; the panic freezes a flight dump.
fn worker_panic_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        batch: BatcherConfig {
            max_batch: 8,
            ..BatcherConfig::default()
        },
        worker_panic_at_batch: Some(1),
        flight_dump: Some(flight_dir()),
        ..ServerConfig::default()
    }
}

/// A plain short-mode align request (no deadline, tenant or region).
pub(crate) fn short_align(id: u64, codes: Vec<u8>) -> Request {
    Request::Align {
        id,
        codes,
        deadline_ms: None,
        tenant: None,
        region: None,
        mode: Mode::Short,
    }
}

/// What the server owes one attacking connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Owed {
    /// The bytes are well-formed after all: this many `ok` answers.
    Ok(usize),
    /// Exactly one `error` answer (and one `serve.protocol_errors` tick).
    Error,
    /// No answer: the frame never completes, so the server waits for the
    /// rest and drops the connection when the client hangs up, counting
    /// the truncated frame as one protocol error.
    Silence,
}

/// One fuzzed connection: a stable name, the client's writes in order,
/// and what the server owes in return.
type Mutant = (&'static str, Vec<Vec<u8>>, Owed);

/// `body` behind a length prefix claiming `len` bytes.
pub(crate) fn framed(len: usize, body: &[u8]) -> Vec<u8> {
    let mut frame = (len as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

/// `doc` with `key` replaced (or added).
pub(crate) fn with_field(doc: JsonValue, key: &str, value: JsonValue) -> JsonValue {
    let JsonValue::Obj(mut pairs) = doc else {
        unreachable!("requests encode as objects");
    };
    pairs.retain(|(k, _)| k != key);
    pairs.push((key.to_string(), value));
    JsonValue::Obj(pairs)
}

/// The fuzz corpus: every mutation class once, each applied to a freshly
/// drawn valid align request (seeded id, read and cut points) — mutating
/// valid frames reaches the decoder's field checks, which random bytes
/// would never get past the JSON parser to find.
fn frame_mutants(prng: &mut Prng) -> Vec<Mutant> {
    fn valid(prng: &mut Prng) -> JsonValue {
        let len = 40 + prng.below(80) as usize;
        short_align(prng.below(1 << 20), prng.codes(len)).encode()
    }
    let bytes = |doc: JsonValue| doc.to_string_compact().into_bytes();
    let text = |s: &str| JsonValue::Str(s.to_string());
    let mut out: Vec<Mutant> = Vec::new();

    // One field of a valid document made wrong: type, range or vocabulary.
    for (name, key, value) in [
        ("kind_wrong_type", "kind", JsonValue::Num(7.0)),
        ("kind_unknown", "kind", text("realign")),
        ("id_wrong_type", "id", text("7")),
        ("id_negative", "id", JsonValue::Num(-1.0)),
        ("id_fractional", "id", JsonValue::Num(7.5)),
        ("id_huge", "id", JsonValue::Num(1e300)),
        ("seq_wrong_type", "seq", JsonValue::Num(5.0)),
        ("deadline_wrong_type", "deadline_ms", text("soon")),
        ("deadline_negative", "deadline_ms", JsonValue::Num(-5.0)),
        ("deadline_fractional", "deadline_ms", JsonValue::Num(0.5)),
        ("deadline_huge", "deadline_ms", JsonValue::Num(1e300)),
        ("tenant_wrong_type", "tenant", JsonValue::Num(3.0)),
        ("region_wrong_type", "region", text("chr1")),
        ("mode_wrong_type", "mode", JsonValue::Num(1.0)),
        ("mode_unknown", "mode", text("medium")),
    ] {
        let body = bytes(with_field(valid(prng), key, value));
        out.push((name, vec![framed(body.len(), &body)], Owed::Error));
    }
    // A base code outside 0..=3 (it encodes as `N`, which no read may hold).
    let mut codes = prng.codes(60);
    codes[prng.below(60) as usize] = 4 + prng.below(252) as u8;
    let body = bytes(short_align(1, codes).encode());
    out.push((
        "codes_out_of_range",
        vec![framed(body.len(), &body)],
        Owed::Error,
    ));

    // A valid body behind a lying length prefix. Too short cuts the JSON;
    // too long never completes.
    let body = bytes(valid(prng));
    let len = body.len();
    for (name, claimed, owed) in [
        ("len_minus_1", len - 1, Owed::Error),
        ("len_plus_1", len + 1, Owed::Silence),
        ("len_minus_body", 0, Owed::Error),
        ("len_plus_body", 2 * len, Owed::Silence),
    ] {
        out.push((name, vec![framed(claimed, &body)], owed));
    }
    // The prefix ends the frame between the two bytes of `é`.
    let body = bytes(with_field(valid(prng), "tenant", text("é")));
    let cut = body
        .iter()
        .position(|&b| b == 0xC3)
        .expect("é is 0xC3 0xA9")
        + 1;
    out.push(("cut_mid_utf8", vec![framed(cut, &body)], Owed::Error));

    // Well-formed bytes, unusual packetization: both must be served.
    let (a, b) = (bytes(valid(prng)), bytes(valid(prng)));
    let mut two = framed(a.len(), &a);
    two.extend(framed(b.len(), &b));
    out.push(("two_frames_coalesced", vec![two], Owed::Ok(2)));
    let whole = framed(a.len(), &a);
    let at = 1 + prng.below(whole.len() as u64 - 1) as usize;
    out.push((
        "one_frame_split",
        vec![whole[..at].to_vec(), whole[at..].to_vec()],
        Owed::Ok(1),
    ));
    out
}

/// Plays `writes` on a fresh connection and reads the answers the server
/// `owed` while the client still holds the connection open, so an answer
/// that only comes once the client hangs up fails (by the read timeout).
/// Then it hangs up the write half and reads up to the server's close:
/// any answer there is one too many. Returns the answers.
pub(crate) fn play(
    addr: &str,
    name: &str,
    writes: &[Vec<u8>],
    owed: Owed,
) -> Result<Vec<AlignResponse>, String> {
    let want = match owed {
        Owed::Ok(n) => vec![Status::Ok; n],
        Owed::Error => vec![Status::Error],
        Owed::Silence => Vec::new(),
    };
    let mut s = connect(addr).map_err(|e| format!("{name}: {e}"))?;
    for bytes in writes {
        s.write_all(bytes)
            .and_then(|()| s.flush())
            .map_err(|e| format!("{name}: write: {e}"))?;
    }
    let next = |s: &mut TcpStream| match read_frame(s) {
        Ok(doc) => doc.map(|doc| AlignResponse::decode(&doc)).transpose(),
        Err(e) => Err(format!("read: {e}")),
    };
    let mut got = Vec::new();
    while got.len() < want.len() {
        match next(&mut s).map_err(|e| format!("{name}: before hang-up: {e}"))? {
            Some(resp) => got.push(resp),
            None => break,
        }
    }
    s.shutdown(Shutdown::Write)
        .map_err(|e| format!("{name}: half-close: {e}"))?;
    while let Some(resp) = next(&mut s).map_err(|e| format!("{name}: after hang-up: {e}"))? {
        got.push(resp);
    }
    let statuses: Vec<Status> = got.iter().map(|r| r.status).collect();
    if statuses != want {
        return Err(format!("{name}: answered {statuses:?}, want {want:?}"));
    }
    Ok(got)
}

/// Runs the fuzz corpus, probing with a well-formed request on a fresh
/// connection after every mutant. Returns how many protocol errors the
/// corpus owes: one per `error` answer and one per silently dropped
/// truncated frame.
fn run_frame_fuzz(addr: &str, prng: &mut Prng) -> Result<u64, String> {
    let mut errors_owed = 0;
    for (name, writes, owed) in frame_mutants(prng) {
        play(addr, &format!("frame_fuzz[{name}]"), &writes, owed)?;
        errors_owed += u64::from(!matches!(owed, Owed::Ok(_)));
        let probe = short_align(9_000, prng.codes(60));
        let body = probe.encode().to_string_compact().into_bytes();
        let name = format!("frame_fuzz[{name}]: well-formed request afterwards");
        if play(addr, &name, &[framed(body.len(), &body)], Owed::Ok(1))?[0].id != 9_000 {
            return Err(format!("{name}: answered under another id"));
        }
    }
    Ok(errors_owed)
}

/// Runs one plan end to end. `Ok` carries a deterministic one-line
/// summary (no counts that depend on thread or socket timing); `Err`
/// names the violated invariant.
pub fn run_fault_plan(plan: &FaultPlan) -> Result<String, String> {
    let genome = ReferenceGenome::synthesize(&ref_params(FAULT_REF_LEN), plan.seed);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));
    let mut prng = Prng(plan.seed ^ 0xFA17_0005);

    let (config, reads, load) = match plan.kind {
        FaultKind::WorkerPanic => (worker_panic_config(2), 120, closed_loop()),
        // Overflow by arithmetic, not by thread race: the one worker holds
        // a batch for 5 ms while the engine can absorb at most
        // queue_capacity 2 waiting + max_batch 4 executing = 6 reads, and
        // the client puts all 240 in flight at once (4 connections ×
        // window 64 = 256 ≥ 240 never waits for a response) — so the
        // single reactor thread, admitting serially, must shed.
        FaultKind::QueueStorm => (
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
                batch: BatcherConfig {
                    max_batch: 4,
                    ..BatcherConfig::default()
                },
                worker_delay: Some(Duration::from_millis(5)),
                ..ServerConfig::default()
            },
            240,
            LoadgenConfig {
                connections: 4,
                mode: ArrivalMode::Closed { window: 64 },
                ..LoadgenConfig::default()
            },
        ),
        _ => (
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            80,
            closed_loop(),
        ),
    };
    let sim = ReadSimParams::illumina_101();
    let read_list = loadgen::generate_reads(&genome, sim, plan.seed ^ 0x5EAD_0006, reads);

    let server = Server::start(vec![Tenant::single(Arc::clone(&index))], config)
        .map_err(|e| format!("start: {e}"))?;
    let addr = server.local_addr().to_string();

    // The attack, before (and for frame faults: seeded-size variants of)
    // the well-behaved traffic.
    let mut fuzz_errors_owed = 0;
    match plan.kind {
        // Every attack is answered exactly as owed while the client still
        // holds the connection open: nothing for a frame that never
        // completes, one `error` for an oversized header (without waiting
        // for its body), one `ok` for a valid request however it is
        // dribbled.
        FaultKind::TruncatedFrame => {
            for _ in 0..4 {
                let promised = 64 + prng.below(900) as usize;
                let sent = prng.below(promised as u64 / 2) as usize;
                let frame = framed(promised, &vec![b'{'; sent]);
                play(&addr, "truncated_frame", &[frame], Owed::Silence)?;
            }
        }
        FaultKind::MidFrameDisconnect => {
            // Valid header, body cut at a seeded offset.
            for _ in 0..4 {
                let body = short_align(7, prng.codes(80)).encode().to_string_compact();
                let cut = 1 + prng.below(body.len() as u64 - 1) as usize;
                let frame = framed(body.len(), &body.as_bytes()[..cut]);
                play(&addr, "mid_frame_disconnect", &[frame], Owed::Silence)?;
            }
        }
        FaultKind::OversizedFrame => {
            for _ in 0..3 {
                let header = framed(MAX_FRAME_BYTES + 1, &[]);
                play(&addr, "oversized_frame", &[header], Owed::Error)?;
            }
        }
        FaultKind::SlowLoris => {
            for id in 1000..1003 {
                let body = short_align(id, prng.codes(60)).encode().to_string_compact();
                let frame = framed(body.len(), body.as_bytes());
                let dribble: Vec<Vec<u8>> = frame.into_iter().map(|b| vec![b]).collect();
                if play(&addr, "slow_loris", &dribble, Owed::Ok(1))?[0].id != id {
                    return Err(format!(
                        "slow_loris: request {id} answered under another id"
                    ));
                }
            }
        }
        FaultKind::FrameFuzz => fuzz_errors_owed = run_frame_fuzz(&addr, &mut prng)?,
        FaultKind::WorkerPanic | FaultKind::QueueStorm => {}
    }

    // Well-behaved traffic through (or after) the fault.
    let report = loadgen::run(&addr, &read_list, &load).map_err(|e| format!("loadgen: {e}"))?;
    let total = &report.total;

    // Clean drain: shutdown must join every thread and return the hub.
    let metrics = server.shutdown();

    exactly_once(&report, plan.kind.name())?;

    // Universal observability invariant: every admitted request left
    // exactly one span chain (retained or dropped), and every retained
    // chain is well-formed (contiguous, stage sum == e2e).
    check_span_accounting(&metrics, plan.kind.name())?;

    // Plan-specific teeth: prove the fault actually fired.
    match plan.kind {
        FaultKind::WorkerPanic => {
            if metrics.counter("serve.worker_panics") != 1 {
                return Err(format!(
                    "worker_panic: {} panics recorded, want exactly 1",
                    metrics.counter("serve.worker_panics")
                ));
            }
            if total.errors == 0 {
                return Err("worker_panic: no request was answered error".to_string());
            }
            if total.ok == 0 {
                return Err("worker_panic: service did not continue after the panic".to_string());
            }
            // The panic must have frozen a flight-recorder dump on disk.
            let path = flight_dir().join("flight_worker_panic.json");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("worker_panic: flight dump {}: {e}", path.display()))?;
            let doc =
                JsonValue::parse(&text).map_err(|e| format!("worker_panic: flight dump: {e}"))?;
            validate(Kind::FlightDump, &doc)
                .map_err(|e| format!("worker_panic: flight dump: {e}"))?;
        }
        FaultKind::QueueStorm => {
            if total.shed == 0 {
                return Err(
                    "queue_storm: nothing shed despite queue_capacity 2 and 256 in flight"
                        .to_string(),
                );
            }
            if total.ok == 0 {
                return Err("queue_storm: nothing served through the storm".to_string());
            }
        }
        FaultKind::TruncatedFrame | FaultKind::MidFrameDisconnect => {
            // Silent drop: the attack's four truncated frames get no
            // response but count as protocol errors, and the well-behaved
            // run must be fully ok.
            let counted = metrics.counter("serve.protocol_errors");
            if counted != 4 {
                return Err(format!(
                    "{}: {counted} protocol errors recorded, want 4",
                    plan.kind.name()
                ));
            }
            if total.ok != total.received {
                return Err(format!(
                    "{}: well-behaved traffic degraded: ok {} of {}",
                    plan.kind.name(),
                    total.ok,
                    total.received
                ));
            }
        }
        FaultKind::OversizedFrame => {
            if metrics.counter("serve.protocol_errors") < 3 {
                return Err(format!(
                    "oversized_frame: {} protocol errors recorded, want ≥ 3",
                    metrics.counter("serve.protocol_errors")
                ));
            }
        }
        FaultKind::FrameFuzz => {
            let counted = metrics.counter("serve.protocol_errors");
            if counted != fuzz_errors_owed {
                return Err(format!(
                    "frame_fuzz: {counted} protocol errors recorded, the corpus owes \
                     {fuzz_errors_owed}"
                ));
            }
        }
        FaultKind::SlowLoris => {}
    }

    Ok(format!(
        "{}: exactly-once held, statuses conserve, clean drain",
        plan.kind.name()
    ))
}

/// Directory the fault plans point the server's flight-recorder dumps at:
/// `NVWA_FLIGHT_DIR` when set (CI uploads it as an artifact on failure),
/// else a stable subdirectory of the system temp dir.
pub fn flight_dir() -> PathBuf {
    std::env::var_os("NVWA_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("nvwa-flight"))
}

/// Exactly-once span accounting: chains retained + dropped must equal
/// `serve.requests_admitted`, and the retained span log must validate
/// (every chain contiguous, stage durations summing to its e2e latency).
fn check_span_accounting(metrics: &ServeMetrics, plan: &str) -> Result<(), String> {
    let (retained, dropped) = metrics.span_chain_counts();
    let admitted = metrics.counter("serve.requests_admitted");
    if retained as u64 + dropped != admitted {
        return Err(format!(
            "{plan}: span chains do not account for admissions: \
             {retained} retained + {dropped} dropped != {admitted} admitted"
        ));
    }
    validate(Kind::SpanLog, &metrics.span_log_doc()).map_err(|e| format!("{plan}: span log: {e}"))
}

/// Runs the worker-panic scenario at a given worker count and returns the
/// thread-invariant digest of the quiescent flight ring.
///
/// The ring's *byte order* under the wall clock is scheduling-dependent;
/// the digest is not: with every response received, the ring must hold
/// exactly `sent` admits, no sheds or deadline expiries, one panic at
/// batch seq 1 (the injection point), and exactly one `batch_start`
/// without a matching `batch_done` — the panicked batch.
///
/// # Errors
///
/// Names the violated invariant (server start/loadgen failures included).
pub fn worker_panic_flight_digest(seed: u64, workers: usize) -> Result<String, String> {
    let genome = ReferenceGenome::synthesize(&ref_params(FAULT_REF_LEN), seed);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));
    let sim = ReadSimParams::illumina_101();
    let reads = loadgen::generate_reads(&genome, sim, seed ^ 0x5EAD_0006, 120);
    let server = Server::start(vec![Tenant::single(index)], worker_panic_config(workers))
        .map_err(|e| format!("start: {e}"))?;
    let addr = server.local_addr().to_string();
    let report =
        loadgen::run(&addr, &reads, &closed_loop()).map_err(|e| format!("loadgen: {e}"))?;
    // Quiescent: every response landed, so the ring holds the full story.
    let dump = loadgen::fetch(&addr, &Request::Flight).map_err(|e| format!("flight fetch: {e}"))?;
    let metrics = server.shutdown();
    exactly_once(&report, &format!("worker_panic[{workers}w]"))?;
    check_span_accounting(&metrics, "worker_panic_digest")?;
    validate(Kind::FlightDump, &dump).map_err(|e| format!("worker_panic[{workers}w]: {e}"))?;
    normalized_flight_digest(&dump, report.total.sent)
        .map_err(|e| format!("worker_panic[{workers}w]: {e}"))
}

/// Extracts the thread-invariant digest line from a flight dump.
fn normalized_flight_digest(dump: &JsonValue, expect_admits: u64) -> Result<String, String> {
    let digest = dump.get("digest").ok_or("flight dump has no digest")?;
    let count =
        |key: &str| -> u64 { digest.get(key).and_then(JsonValue::as_num).unwrap_or(0.0) as u64 };
    let (admit, shed, deadline) = (count("admit"), count("shed"), count("deadline"));
    let (start, done, panic) = (count("batch_start"), count("batch_done"), count("panic"));
    if admit != expect_admits {
        return Err(format!(
            "flight digest holds {admit} admits, want {expect_admits}"
        ));
    }
    if start != done + 1 {
        return Err(format!(
            "batch_start {start} != batch_done {done} + 1 \
             (only the panicked batch may lack a batch_done)"
        ));
    }
    let panic_batches: Vec<u64> = digest
        .get("panic_batches")
        .and_then(JsonValue::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(JsonValue::as_num)
                .map(|n| n as u64)
                .collect()
        })
        .unwrap_or_default();
    Ok(format!(
        "admit={admit} shed={shed} deadline={deadline} panic={panic} \
         panic_batches={panic_batches:?} dangling_batches={}",
        start - done
    ))
}

/// The worker-panic flight digest must be identical at 1, 2 and 8
/// workers — the determinism boundary DESIGN.md §13 pins.
pub fn worker_panic_digest_matrix(seed: u64) -> Result<String, String> {
    let first = worker_panic_flight_digest(seed, 1)?;
    for workers in [2usize, 8] {
        let digest = worker_panic_flight_digest(seed, workers)?;
        if digest != first {
            return Err(format!(
                "flight digest diverges across worker counts: 1w {first:?} vs {workers}w {digest:?}"
            ));
        }
    }
    Ok(format!("flight digest invariant at 1/2/8 workers: {first}"))
}

/// Kills one shard of a two-shard tenant while a mixed closed-loop load
/// is in flight, then proves graceful degradation ([`Server::kill_shard`]):
///
/// 1. **Exactly-once through the kill** — the racing load loses nothing
///    and every response is a terminal status (conservation holds).
/// 2. **Blast radius is one shard** — the healthy tenant's slice of the
///    racing load is 100% `ok`.
/// 3. **Rerouting** — post-kill traffic to the wounded tenant lands on
///    the surviving shard and is fully served.
/// 4. **Full kill sheds explicitly** — with every shard dead the tenant's
///    requests are answered `shed`, while the healthy tenant still
///    serves; the server still drains cleanly.
///
/// # Errors
///
/// Names the violated invariant.
pub fn run_shard_kill_plan(seed: u64) -> Result<String, String> {
    let (tenants, genomes) = two_tenants();
    let config = ServerConfig {
        workers: 2,
        // Requests past the first window are admitted only as batches
        // finish: a 10 ms hold per batch leaves that long for the kill to
        // land mid-stream.
        worker_delay: Some(Duration::from_millis(10)),
        ..ServerConfig::default()
    };
    let server = Server::start(tenants, config).map_err(|e| format!("start: {e}"))?;
    let addr = server.local_addr().to_string();

    let mix = |salt: u64, n| interleave_tenants(&genomes, [seed ^ salt, seed ^ salt ^ 0xB00], n);
    let load = closed_loop();

    // Phase 1: the kill races a live mixed load.
    let racing = mix(0x_5AFE_0001, 80);
    let report = kill_shard_mid_stream(&server, &racing, &load, TENANT_A.key(), 0)
        .map_err(|e| format!("shard_kill: {e}"))?;
    exactly_once(&report, "shard_kill (through the kill)")?;
    every(&report, TENANT_B, 80, Status::Ok, "shard_kill (neighbor)")?;
    if server.kill_shard(TENANT_A.key(), 0) || server.kill_shard(TENANT_A.key(), 9) {
        return Err("shard_kill: a dead or out-of-range shard must refuse a kill".to_string());
    }

    // Phase 2: post-kill traffic must reroute to the surviving shard.
    let rerouted = loadgen::run(&addr, &mix(0x_5AFE_0002, 40), &load)
        .map_err(|e| format!("shard_kill: post-kill loadgen: {e}"))?;
    exactly_once(&rerouted, "shard_kill (rerouted)")?;
    if rerouted.total.ok != rerouted.total.sent {
        return Err(format!(
            "shard_kill: rerouting failed: {:?}",
            rerouted.total
        ));
    }
    every(&rerouted, TENANT_A, 40, Status::Ok, "shard_kill (rerouted)")?;
    every(&rerouted, TENANT_B, 40, Status::Ok, "shard_kill (rerouted)")?;

    // Phase 3: kill the surviving shard — the tenant must shed
    // explicitly while its neighbor still serves.
    if !server.kill_shard(TENANT_A.key(), 1) {
        return Err("shard_kill: kill_shard(tenant A, 1) refused".to_string());
    }
    let dark = loadgen::run(&addr, &mix(0x_5AFE_0003, 20), &load)
        .map_err(|e| format!("shard_kill: full-kill loadgen: {e}"))?;
    exactly_once(&dark, "shard_kill (full kill)")?;
    every(&dark, TENANT_A, 20, Status::Shed, "shard_kill (full kill)")?;
    every(&dark, TENANT_B, 20, Status::Ok, "shard_kill (full kill)")?;

    let metrics = server.shutdown();
    if metrics.counter("serve.shards_killed") != 2 {
        return Err(format!(
            "shard_kill: {} shard kills recorded, want 2",
            metrics.counter("serve.shards_killed")
        ));
    }
    check_span_accounting(&metrics, "shard_kill")?;
    Ok(
        "shard_kill: exactly-once held through a mid-run kill, surviving shard absorbed \
         rerouted traffic, full kill shed explicitly, neighbor tenant unaffected, clean drain"
            .to_string(),
    )
}

/// All plans at one seed; the summary lists each plan's one-liner, plus
/// the cross-worker flight-digest invariance check and the multi-tenant
/// shard-kill plan.
pub fn run_fault_family(seed: u64) -> Result<String, String> {
    let mut lines = Vec::new();
    for plan in fault_plans(seed) {
        lines.push(run_fault_plan(&plan)?);
    }
    lines.push(worker_panic_digest_matrix(seed)?);
    lines.push(run_shard_kill_plan(seed)?);
    Ok(format!(
        "faults: {} plans — {}",
        lines.len(),
        lines.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Frame-level plans are cheap; the full matrix (including the panic
    // and storm plans) runs in tests/conformance.rs and `nvwa
    // conformance`.
    #[test]
    fn truncated_and_oversized_frames_leave_the_server_healthy() {
        for kind in [FaultKind::TruncatedFrame, FaultKind::OversizedFrame] {
            let summary = run_fault_plan(&FaultPlan { kind, seed: 5 }).expect("plan holds");
            assert!(summary.contains("exactly-once held"), "{summary}");
        }
    }

    #[test]
    fn frame_fuzz_corpus_is_rejected_or_served_and_never_wedges() {
        let summary = run_fault_plan(&FaultPlan {
            kind: FaultKind::FrameFuzz,
            seed: 5,
        })
        .expect("plan holds");
        assert!(summary.contains("frame_fuzz"), "{summary}");
    }

    #[test]
    fn slow_loris_is_served_not_rejected() {
        let summary = run_fault_plan(&FaultPlan {
            kind: FaultKind::SlowLoris,
            seed: 5,
        })
        .expect("plan holds");
        assert!(summary.contains("slow_loris"), "{summary}");
    }

    #[test]
    fn worker_panic_is_contained_to_one_batch() {
        let summary = run_fault_plan(&FaultPlan {
            kind: FaultKind::WorkerPanic,
            seed: 5,
        })
        .expect("plan holds");
        assert!(summary.contains("worker_panic"), "{summary}");
    }

    #[test]
    fn worker_panic_flight_digest_is_worker_count_invariant() {
        let summary = worker_panic_digest_matrix(5).expect("digest matrix holds");
        assert!(summary.contains("admit=120"), "{summary}");
        assert!(summary.contains("panic=1"), "{summary}");
        assert!(summary.contains("panic_batches=[1]"), "{summary}");
    }
}
