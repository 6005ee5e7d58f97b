//! Load generation against a running server, as a library: the
//! `nvwa loadgen` subcommand, the conformance families and the integration
//! tests all send reads from [`generate_reads`] through [`run`].
//!
//! Two arrival disciplines:
//!
//! * **Closed loop** — each connection keeps a fixed window of requests in
//!   flight and sends the next the moment a response lands. Measures
//!   saturated throughput; the window is the offered concurrency.
//! * **Open loop** — requests are injected on a schedule that ignores
//!   responses: Poisson arrivals at a target rate, optionally clustered
//!   into back-to-back bursts. Measures latency under a fixed offered
//!   load, including overload (where shedding is the *correct* outcome).
//!
//! Every request is tracked until its response arrives; the report proves
//! conservation: `sent == received + lost` and
//! `received == ok + unmapped + shed + quota + deadline + errors`, with
//! duplicates counted separately. A healthy run has
//! `lost == 0 && duplicates == 0`.
//!
//! Each read carries its own mode, wire `tenant` label and region hint,
//! and the report repeats the identities (plus latency) per label, so a
//! quota-shed tenant is visible without polluting its neighbors' SLO.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nvwa_genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};
use nvwa_telemetry::snapshot::{validate, Kind};
use nvwa_telemetry::JsonValue;

use crate::lock;
use crate::protocol::{read_frame, write_frame, AlignResponse, Mode, Request, Status};

/// How long a connection waits for a response before declaring the
/// remainder lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Seed of the open-loop arrival schedule; connection `c` draws from
/// `ARRIVAL_SEED + c`.
const ARRIVAL_SEED: u64 = 1;

/// Arrival discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalMode {
    /// Fixed-window pipelining per connection.
    Closed {
        /// Requests kept in flight per connection.
        window: usize,
    },
    /// Rate-driven injection, blind to responses.
    Open {
        /// Offered load in requests per second (aggregate).
        rate_rps: f64,
        /// Requests per burst; `1` is plain Poisson, larger values send
        /// bursts whose epochs are Poisson at `rate_rps / burst`.
        burst: usize,
    },
}

impl ArrivalMode {
    /// The report's `mode` string.
    pub fn as_str(&self) -> &'static str {
        match self {
            ArrivalMode::Closed { .. } => "closed",
            ArrivalMode::Open { .. } => "open",
        }
    }
}

/// Loadgen parameters (the reads come separately — see [`generate_reads`]).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Parallel client connections.
    pub connections: usize,
    /// Arrival discipline.
    pub mode: ArrivalMode,
    /// Deadline attached to every request, if any.
    pub deadline_ms: Option<u64>,
    /// Keep every decoded response in the report (for bit-identical
    /// verification against the offline aligner).
    pub collect_responses: bool,
    /// Scrape the server's `stats` endpoint on a side connection at this
    /// interval while the load runs (first scrape fires immediately).
    /// Every snapshot is schema-validated before it is kept.
    pub scrape_every: Option<Duration>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 32 },
            deadline_ms: None,
            collect_responses: false,
            scrape_every: None,
        }
    }
}

/// Keys an SLO target may bound. All are upper bounds except
/// `throughput_rps`, which is a lower bound.
pub const SLO_KEYS: &[&str] = &[
    "mean_us",
    "p50_us",
    "p90_us",
    "p99_us",
    "max_us",
    "shed_rate",
    "quota_rate",
    "deadline_miss_rate",
    "error_rate",
    "lost",
    "throughput_rps",
];

/// One SLO target: a bound on a report-derived quantity, parsed from
/// `key=value` (e.g. `p99_us=50000`, `shed_rate=0.01`).
#[derive(Debug, Clone, PartialEq)]
pub struct SloTarget {
    /// One of [`SLO_KEYS`].
    pub key: String,
    /// The bound (upper, except `throughput_rps` which is a floor).
    pub bound: f64,
}

impl SloTarget {
    /// Parses a `key=value` spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part: unknown key, missing
    /// `=`, or a non-finite/negative bound.
    pub fn parse(spec: &str) -> Result<SloTarget, String> {
        let (key, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("SLO target {spec:?} must be key=value"))?;
        if !SLO_KEYS.contains(&key) {
            return Err(format!("unknown SLO key {key:?} (known: {SLO_KEYS:?})"));
        }
        let bound: f64 = value
            .parse()
            .map_err(|_| format!("SLO bound {value:?} is not a number"))?;
        if !bound.is_finite() || bound < 0.0 {
            return Err(format!("SLO bound for {key} must be finite and ≥ 0"));
        }
        Ok(SloTarget {
            key: key.to_string(),
            bound,
        })
    }
}

/// The graded outcome of one [`SloTarget`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloCheck {
    /// The target graded.
    pub target: SloTarget,
    /// The measured value, or `None` when the run produced no sample to
    /// judge (e.g. a latency percentile with zero `ok` responses).
    pub actual: Option<f64>,
    /// Whether the target is met. An unmeasurable target fails: a bound
    /// that cannot be demonstrated is not a bound that held.
    pub pass: bool,
}

impl SloCheck {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("key", JsonValue::Str(self.target.key.clone())),
            ("bound", JsonValue::Num(self.target.bound)),
            (
                "actual",
                self.actual.map_or(JsonValue::Null, JsonValue::Num),
            ),
            ("pass", JsonValue::Bool(self.pass)),
        ])
    }
}

/// Grades `targets` against a finished run; store the result in
/// [`LoadReport::slo`] so the report document carries the verdict.
pub fn evaluate_slo(report: &LoadReport, targets: &[SloTarget]) -> Vec<SloCheck> {
    let total = &report.total;
    let rate = |n: u64| (total.sent > 0).then_some(n as f64 / total.sent as f64);
    targets
        .iter()
        .map(|t| {
            let actual = match t.key.as_str() {
                "mean_us" => total.latency.mean,
                "p50_us" => total.latency.p50,
                "p90_us" => total.latency.p90,
                "p99_us" => total.latency.p99,
                "max_us" => total.latency.max,
                "shed_rate" => rate(total.shed),
                "quota_rate" => rate(total.quota),
                "deadline_miss_rate" => rate(total.deadline),
                "error_rate" => rate(total.errors),
                "lost" => Some(total.lost as f64),
                "throughput_rps" => Some(report.throughput_rps),
                _ => None,
            };
            let pass = actual.is_some_and(|a| {
                if t.key == "throughput_rps" {
                    a >= t.bound
                } else {
                    a <= t.bound
                }
            });
            SloCheck {
                target: t.clone(),
                actual,
                pass,
            }
        })
        .collect()
}

/// Exact latency summary (microseconds) from the full sample vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean, or `None` when empty.
    pub mean: Option<f64>,
    /// Nearest-rank percentiles, or `None` when empty.
    pub p50: Option<f64>,
    /// 90th percentile.
    pub p90: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
    /// Minimum.
    pub min: Option<f64>,
    /// Maximum.
    pub max: Option<f64>,
}

impl LatencySummary {
    /// Summarizes a sample vector (consumed; sorted internally).
    pub fn from_us(mut samples: Vec<f64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = samples.len();
        let pct = |q: f64| -> f64 {
            let rank = ((q / 100.0) * n as f64).ceil() as usize;
            samples[rank.clamp(1, n) - 1]
        };
        LatencySummary {
            count: n as u64,
            mean: Some(samples.iter().sum::<f64>() / n as f64),
            p50: Some(pct(50.0)),
            p90: Some(pct(90.0)),
            p99: Some(pct(99.0)),
            min: Some(samples[0]),
            max: Some(samples[n - 1]),
        }
    }

    fn to_json(&self) -> JsonValue {
        let num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
        JsonValue::obj(vec![
            ("count", JsonValue::Num(self.count as f64)),
            ("mean", num(self.mean)),
            ("p50", num(self.p50)),
            ("p90", num(self.p90)),
            ("p99", num(self.p99)),
            ("min", num(self.min)),
            ("max", num(self.max)),
        ])
    }
}

/// Outcome counts and client-observed latency of one slice of a run: the
/// whole run ([`LoadReport::total`]) or one label's share of it
/// ([`TenantReport`]). Each slice holds `sent == received + lost` and
/// `received == ok + unmapped + shed + quota + deadline + errors`.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Requests written to sockets.
    pub sent: u64,
    /// Unique responses received.
    pub received: u64,
    /// Requests with no response (timeout or connection drop).
    pub lost: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `unmapped` responses: the aligner completed but found no placement
    /// (long-read mode reads that fail seeding/chaining). Completed work,
    /// counted in the latency summary; not a failure.
    pub unmapped: u64,
    /// `shed` responses (explicit backpressure).
    pub shed: u64,
    /// `quota` responses (per-tenant admission quota exhausted).
    pub quota: u64,
    /// `deadline` responses.
    pub deadline: u64,
    /// `error` responses.
    pub errors: u64,
    /// `ok` responses carrying an alignment.
    pub mapped: u64,
    /// Send → response latency of completed requests (`ok` and
    /// `unmapped`).
    pub latency: LatencySummary,
}

impl Counts {
    /// The slice's keys in a report document.
    fn json_pairs(&self) -> Vec<(&'static str, JsonValue)> {
        let n = |v: u64| JsonValue::Num(v as f64);
        vec![
            ("sent", n(self.sent)),
            ("received", n(self.received)),
            ("lost", n(self.lost)),
            ("ok", n(self.ok)),
            ("unmapped", n(self.unmapped)),
            ("shed", n(self.shed)),
            ("quota", n(self.quota)),
            ("deadline", n(self.deadline)),
            ("errors", n(self.errors)),
            ("mapped", n(self.mapped)),
            ("latency_us", self.latency.to_json()),
        ]
    }
}

/// One label's slice of a [`LoadReport`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Wire tenant label (`"default"` for unlabelled reads).
    pub name: String,
    /// The slice's counts and latency.
    pub counts: Counts,
}

/// The outcome of one loadgen run.
#[derive(Debug)]
pub struct LoadReport {
    /// Arrival discipline (`"closed"` or `"open"`).
    pub mode: &'static str,
    /// Counts and latency of the whole run.
    pub total: Counts,
    /// One slice per distinct read label, in order of first appearance.
    pub tenants: Vec<TenantReport>,
    /// Responses for an id already answered.
    pub duplicates: u64,
    /// Connections used.
    pub connections: u64,
    /// Reads offered.
    pub reads: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Unique responses per second.
    pub throughput_rps: f64,
    /// Decoded responses by request id (when `collect_responses`).
    pub responses: HashMap<u64, AlignResponse>,
    /// Schema-validated `stats` snapshots scraped mid-run.
    pub stats_snapshots: Vec<JsonValue>,
    /// Scrapes that failed to connect, decode, or validate.
    pub scrape_failures: u64,
    /// Why the first counted scrape failure failed (`None` when none
    /// did) — `scrapes.first_error` in the report document.
    pub scrape_first_error: Option<String>,
    /// Graded SLO targets (empty until [`evaluate_slo`] fills them).
    pub slo: Vec<SloCheck>,
}

impl LoadReport {
    /// The report document (`nvwa validate` checks it against the
    /// `nvwa-loadgen` schema, conservation identities included).
    pub fn to_json(&self) -> JsonValue {
        let num = JsonValue::Num;
        let mut pairs = vec![
            ("kind", JsonValue::Str("nvwa-loadgen".to_string())),
            ("schema_version", num(1.0)),
            ("mode", JsonValue::Str(self.mode.to_string())),
        ];
        pairs.extend(self.total.json_pairs());
        let tenant = |t: &TenantReport| {
            let mut pairs = vec![("name", JsonValue::Str(t.name.clone()))];
            pairs.extend(t.counts.json_pairs());
            JsonValue::obj(pairs)
        };
        let first_error = self.scrape_first_error.clone();
        pairs.extend([
            ("duplicates", num(self.duplicates as f64)),
            ("connections", num(self.connections as f64)),
            ("reads", num(self.reads as f64)),
            ("wall_ms", num(self.wall_ms)),
            ("throughput_rps", num(self.throughput_rps)),
            (
                "tenants",
                JsonValue::Arr(self.tenants.iter().map(tenant).collect()),
            ),
            (
                "scrapes",
                JsonValue::obj(vec![
                    ("snapshots", num(self.stats_snapshots.len() as f64)),
                    ("failures", num(self.scrape_failures as f64)),
                    (
                        "first_error",
                        first_error.map_or(JsonValue::Null, JsonValue::Str),
                    ),
                ]),
            ),
            (
                "slo",
                JsonValue::obj(vec![
                    ("pass", JsonValue::Bool(self.slo_pass())),
                    (
                        "checks",
                        JsonValue::Arr(self.slo.iter().map(SloCheck::to_json).collect()),
                    ),
                ]),
            ),
        ]);
        JsonValue::obj(pairs)
    }

    /// `lost == 0 && duplicates == 0` — the healthy-run invariant.
    pub fn is_lossless(&self) -> bool {
        self.total.lost == 0 && self.duplicates == 0
    }

    /// Whether every graded SLO target is met (vacuously true when none
    /// were graded).
    pub fn slo_pass(&self) -> bool {
        self.slo.iter().all(|c| c.pass)
    }
}

/// One request of a load. Read `i` of the slice given to [`run`] is
/// request id `i`.
#[derive(Debug, Clone, Default)]
pub struct TenantRead {
    /// Wire `tenant` label; `None` omits the field (the server routes to
    /// its default tenant), reported under the name `"default"`.
    pub tenant: Option<String>,
    /// 2-bit read codes.
    pub codes: Vec<u8>,
    /// Optional shard-routing region hint.
    pub region: Option<u64>,
    /// Request mode (`Short` is the wire default and omitted from frames).
    pub mode: Mode,
}

/// The canonical synthetic-reference shape for serving: both `nvwa
/// serve` and `nvwa loadgen` build from `(ref_params(len), ref_seed)`,
/// so a loadgen pointed at a default server produces reads that map.
pub fn ref_params(total_len: usize) -> ReferenceParams {
    ReferenceParams {
        total_len,
        chromosomes: 2,
        repeat_families: 8,
        ..ReferenceParams::default()
    }
}

/// Simulates `n` reads of the `sim` profile from `genome` — the genome
/// the server serves (from [`ref_params`] or a species profile), so the
/// reads map. Each is an unlabelled `short` request; set a read's
/// `tenant`, `mode` or `region` to route it otherwise.
pub fn generate_reads(
    genome: &ReferenceGenome,
    sim: ReadSimParams,
    seed: u64,
    n: usize,
) -> Vec<TenantRead> {
    ReadSimulator::new(genome, sim, seed)
        .simulate_reads(n)
        .into_iter()
        .map(|r| TenantRead {
            codes: r.seq.codes().to_vec(),
            ..TenantRead::default()
        })
        .collect()
}

/// splitmix64 — deterministic arrival-time sampling with zero deps.
struct Prng(u64);

impl Prng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is safe).
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (events/second), in seconds.
    fn next_exp(&mut self, rate: f64) -> f64 {
        -self.next_f64().ln() / rate
    }
}

/// The fate of one sent request: its answer's status, whether the answer
/// carried an alignment, and the send → response latency in µs; `None`
/// when no answer came (timeout or connection drop).
type Fate = Option<(Status, bool, f64)>;

/// A slice's counts while they are tallied, with the raw latency samples
/// its summary is built from.
#[derive(Default, Clone)]
struct Tally {
    counts: Counts,
    latencies_us: Vec<f64>,
}

impl Tally {
    /// One sent request and its fate.
    fn add(&mut self, fate: Fate) {
        let c = &mut self.counts;
        c.sent += 1;
        let Some((status, mapped, latency_us)) = fate else {
            c.lost += 1;
            return;
        };
        c.received += 1;
        match status {
            Status::Ok => {
                c.ok += 1;
                c.mapped += u64::from(mapped);
                self.latencies_us.push(latency_us);
            }
            // A completed alignment attempt that found no placement:
            // latency counts toward the completion SLO, `mapped` does
            // not move.
            Status::Unmapped => {
                c.unmapped += 1;
                self.latencies_us.push(latency_us);
            }
            Status::Shed => c.shed += 1,
            Status::Quota => c.quota += 1,
            Status::Deadline => c.deadline += 1,
            Status::Error => c.errors += 1,
        }
    }

    fn finish(self) -> Counts {
        Counts {
            latency: LatencySummary::from_us(self.latencies_us),
            ..self.counts
        }
    }
}

/// In-flight requests of one connection: `id → send instant`.
type PendingSends = HashMap<u64, Instant>;

/// What one connection hands back.
#[derive(Default)]
struct ConnResult {
    /// Each request it sent, by id, with its fate.
    fates: Vec<(usize, Fate)>,
    /// Responses for an id already answered.
    duplicates: u64,
    responses: HashMap<u64, AlignResponse>,
}

impl ConnResult {
    /// Files one response frame under its request, or as a duplicate.
    fn record(&mut self, doc: &JsonValue, pending: &mut PendingSends, collect: bool) {
        let Ok(resp) = AlignResponse::decode(doc) else {
            return; // undecodable frame; the request will surface as lost
        };
        let Some(at) = pending.remove(&resp.id) else {
            self.duplicates += 1;
            return;
        };
        let us = at.elapsed().as_secs_f64() * 1e6;
        let fate = Some((resp.status, resp.alignment.is_some(), us));
        self.fates.push((resp.id as usize, fate));
        if collect {
            self.responses.insert(resp.id, resp);
        }
    }

    /// Files every request still pending as lost.
    fn lose(&mut self, pending: &PendingSends) {
        self.fates
            .extend(pending.keys().map(|&id| (id as usize, None)));
    }
}

/// What the scraper hands back: validated snapshots, the failure count,
/// and the first counted failure's reason.
type Scrapes = (Vec<JsonValue>, u64, Option<String>);

/// How long the scraper's *first* scrape may retry before a failure is
/// counted. The first scrape fires the instant the loadgen starts, which
/// races server warmup (bind returns before the accept loop is hot under
/// load); a refused connection in that window is not an endpoint failure.
const SCRAPE_WARMUP: Duration = Duration::from_secs(2);

/// Scrapes `stats` on a side connection: once immediately, then every
/// `every` until `stop` is set. Snapshots that fail schema validation are
/// counted, not kept — a live endpoint that emits garbage is a failure.
/// The immediate first scrape retries with bounded backoff (up to
/// [`SCRAPE_WARMUP`]) before counting a failure, so a run no longer
/// reports a phantom `scrape_failures: 1` just because the scraper beat
/// the server's warmup.
fn scrape(addr: &str, every: Duration, stop: &AtomicBool) -> Scrapes {
    let (mut snapshots, mut failures, mut first_error) = Scrapes::default();
    let warmup_deadline = Instant::now() + SCRAPE_WARMUP;
    let mut backoff = Duration::from_millis(10);
    loop {
        let scraped = fetch(addr, &Request::Stats)
            .map_err(|e| format!("fetch: {e}"))
            .and_then(|doc| validate(Kind::StatsResponse, &doc).map(|()| doc));
        match scraped {
            Ok(doc) => snapshots.push(doc),
            Err(e) => {
                if snapshots.is_empty() && Instant::now() < warmup_deadline {
                    // Still warming up: retry the first scrape instead of
                    // counting it, unless the run is already over.
                    if stop.load(Ordering::Relaxed) {
                        return (snapshots, failures, first_error);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(250));
                    continue;
                }
                failures += 1;
                first_error.get_or_insert(e);
            }
        }
        let until = Instant::now() + every;
        while Instant::now() < until {
            if stop.load(Ordering::Relaxed) {
                return (snapshots, failures, first_error);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

/// What every connection of a run shares.
struct Load<'a> {
    addr: &'a str,
    reads: &'a [TenantRead],
    config: &'a LoadgenConfig,
}

impl Load<'_> {
    /// The wire request of read `id`.
    fn request(&self, id: usize) -> JsonValue {
        let r = &self.reads[id];
        Request::Align {
            id: id as u64,
            codes: r.codes.clone(),
            deadline_ms: self.config.deadline_ms,
            tenant: r.tenant.clone(),
            region: r.region,
            mode: r.mode,
        }
        .encode()
    }
}

/// One closed-loop connection over reads `ids`: keep `window` requests in
/// flight.
fn closed_conn(load: &Load<'_>, ids: &[usize], window: usize) -> std::io::Result<ConnResult> {
    let mut stream = connect(load.addr)?;
    let mut conn = ConnResult::default();
    let mut pending = PendingSends::new();
    let mut next = 0usize;
    let window = window.max(1);
    while next < ids.len() || !pending.is_empty() {
        while next < ids.len() && pending.len() < window {
            write_frame(&mut stream, &load.request(ids[next]))?;
            pending.insert(ids[next] as u64, Instant::now());
            next += 1;
        }
        match read_frame(&mut stream) {
            Ok(Some(doc)) => conn.record(&doc, &mut pending, load.config.collect_responses),
            Ok(None) | Err(_) => break,
        }
    }
    conn.lose(&pending);
    Ok(conn)
}

/// One open-loop connection over reads `ids`: a sender thread injects on
/// schedule while this thread drains responses.
fn open_conn(
    load: &Load<'_>,
    ids: &[usize],
    (rate_rps, burst): (f64, usize),
    seed: u64,
) -> std::io::Result<ConnResult> {
    let mut write_half = connect(load.addr)?;
    let mut read_half = write_half.try_clone()?;
    let pending: Mutex<PendingSends> = Mutex::new(HashMap::new());
    let sender_done = AtomicBool::new(false);
    let mut conn = ConnResult::default();
    std::thread::scope(|scope| {
        let (pending, done) = (&pending, &sender_done);
        scope.spawn(move || {
            let mut prng = Prng(seed ^ 0xda7a_5eed);
            let burst = burst.max(1);
            let epoch_rate = (rate_rps / burst as f64).max(1e-6);
            let start = Instant::now();
            let mut at = 0.0f64;
            for chunk in ids.chunks(burst) {
                at += prng.next_exp(epoch_rate);
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                for &id in chunk {
                    {
                        let mut pending = lock(pending);
                        pending.insert(id as u64, Instant::now());
                        // Done is set before the last write, under the
                        // lock the reader checks it with: the last answer
                        // can land before `write_frame` returns, and the
                        // reader must then find done and an empty map
                        // rather than wait out the response timeout.
                        if ids.last() == Some(&id) {
                            done.store(true, Ordering::SeqCst);
                        }
                    }
                    if write_frame(&mut write_half, &load.request(id)).is_err() {
                        lock(pending).remove(&(id as u64));
                        done.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        loop {
            if lock(pending).is_empty() && done.load(Ordering::SeqCst) {
                break;
            }
            match read_frame(&mut read_half) {
                Ok(Some(doc)) => {
                    conn.record(&doc, &mut lock(pending), load.config.collect_responses);
                }
                Ok(None) | Err(_) => break, // closed or timed out: the rest is lost
            }
        }
    });
    conn.lose(&lock(&pending));
    Ok(conn)
}

/// Runs the load against `addr`. Read `i` of `reads` is request id `i`,
/// sent with its own mode, `tenant` label and region hint; connections
/// take the reads round-robin. The report gets one [`TenantReport`] per
/// distinct label (in order of first appearance; `None` is reported as
/// `"default"`), each proving the conservation identities for its slice
/// of the traffic.
///
/// # Errors
///
/// Returns connection errors; per-request failures are tallied, not
/// returned.
pub fn run(
    addr: &str,
    reads: &[TenantRead],
    config: &LoadgenConfig,
) -> std::io::Result<LoadReport> {
    let load = Load {
        addr,
        reads,
        config,
    };
    let connections = config.connections.max(1);
    let stop_scraping = AtomicBool::new(false);
    let start = Instant::now();
    let (conns, wall_ms, scrapes) = std::thread::scope(|scope| {
        let stop = &stop_scraping;
        let scraper =
            (config.scrape_every).map(|every| scope.spawn(move || scrape(addr, every, stop)));
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let ids: Vec<usize> = (c..reads.len()).step_by(connections).collect();
                let load = &load;
                scope.spawn(move || match config.mode {
                    ArrivalMode::Closed { window } => closed_conn(load, &ids, window),
                    ArrivalMode::Open { rate_rps, burst } => {
                        open_conn(load, &ids, (rate_rps, burst), ARRIVAL_SEED + c as u64)
                    }
                })
            })
            .collect();
        let conns: Vec<std::io::Result<ConnResult>> = (handles.into_iter())
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        let wall_ms = (start.elapsed().as_secs_f64() * 1e3).max(0.001);
        // The scraper must be down before the caller drains the server: a
        // scrape racing shutdown would count a refused connection as a
        // failure.
        stop_scraping.store(true, Ordering::SeqCst);
        let scrapes = scraper.map_or_else(Scrapes::default, |h| {
            let panicked = || (Vec::new(), 1, Some("scraper thread panicked".to_string()));
            h.join().unwrap_or_else(|_| panicked())
        });
        (conns, wall_ms, scrapes)
    });
    let (stats_snapshots, scrape_failures, scrape_first_error) = scrapes;

    let mut labels: Vec<&str> = Vec::new();
    let label_of: Vec<usize> = reads
        .iter()
        .map(|r| {
            let name = r.tenant.as_deref().unwrap_or("default");
            labels.iter().position(|l| *l == name).unwrap_or_else(|| {
                labels.push(name);
                labels.len() - 1
            })
        })
        .collect();
    let mut total = Tally::default();
    let mut by_label = vec![Tally::default(); labels.len()];
    let (mut duplicates, mut responses) = (0, HashMap::new());
    for conn in conns {
        let conn = conn?;
        for (id, fate) in conn.fates {
            total.add(fate);
            by_label[label_of[id]].add(fate);
        }
        duplicates += conn.duplicates;
        responses.extend(conn.responses);
    }
    let total = total.finish();
    Ok(LoadReport {
        mode: config.mode.as_str(),
        throughput_rps: total.received as f64 / (wall_ms / 1e3),
        total,
        tenants: labels
            .into_iter()
            .zip(by_label)
            .map(|(name, slice)| TenantReport {
                name: name.to_string(),
                counts: slice.finish(),
            })
            .collect(),
        duplicates,
        connections: connections as u64,
        reads: reads.len() as u64,
        wall_ms,
        responses,
        stats_snapshots,
        scrape_failures,
        scrape_first_error,
        slo: Vec::new(),
    })
}

/// Sends a `shutdown` request on a fresh connection and waits for the ack.
///
/// # Errors
///
/// Returns connection/write errors.
pub fn send_shutdown(addr: &str) -> std::io::Result<()> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Request::Shutdown.encode())?;
    let _ = read_frame(&mut stream);
    Ok(())
}

/// Sends one control request (`Request::Stats` for the metrics snapshot,
/// `Request::Flight` for the flight-recorder dump) on a fresh connection
/// and returns the reply.
///
/// # Errors
///
/// Returns connection errors, or `InvalidData` if the server closed
/// without answering.
pub fn fetch(addr: &str, request: &Request) -> std::io::Result<JsonValue> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &request.encode())?;
    read_frame(&mut stream)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("server closed before answering {request:?}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_is_exact_on_known_samples() {
        let s = LatencySummary::from_us(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, Some(30.0));
        assert_eq!(s.p50, Some(30.0));
        assert_eq!(s.p90, Some(50.0));
        assert_eq!(s.p99, Some(50.0));
        assert_eq!(s.min, Some(10.0));
        assert_eq!(s.max, Some(50.0));
        let empty = LatencySummary::from_us(Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, None);
    }

    #[test]
    fn prng_exponential_is_positive_and_finite() {
        let mut p = Prng(42);
        for _ in 0..1000 {
            let dt = p.next_exp(100.0);
            assert!(dt.is_finite() && dt > 0.0);
        }
    }

    /// The first three splitmix64 words for seed 42. `nvwa_testkit::Prng`
    /// pins the same vector: one stream, one seed convention in both copies.
    #[test]
    fn prng_matches_the_splitmix64_known_answers() {
        let mut p = Prng(42);
        let words = [p.next_u64(), p.next_u64(), p.next_u64()];
        assert_eq!(
            words,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52
            ]
        );
    }

    fn empty_report() -> LoadReport {
        LoadReport {
            mode: "closed",
            total: Counts::default(),
            tenants: Vec::new(),
            duplicates: 0,
            connections: 1,
            reads: 0,
            wall_ms: 1.0,
            throughput_rps: 0.0,
            responses: HashMap::new(),
            stats_snapshots: Vec::new(),
            scrape_failures: 0,
            scrape_first_error: None,
            slo: Vec::new(),
        }
    }

    /// Counts of the given outcomes, `sent == received` and
    /// `mapped == ok`.
    fn counts(ok: u64, unmapped: u64, shed: u64, quota: u64, latency: &[f64]) -> Counts {
        let received = ok + unmapped + shed + quota;
        Counts {
            sent: received,
            received,
            ok,
            unmapped,
            shed,
            quota,
            mapped: ok,
            latency: LatencySummary::from_us(latency.to_vec()),
            ..Counts::default()
        }
    }

    #[test]
    fn unmapped_responses_keep_the_report_conserved() {
        let mut report = empty_report();
        report.total = counts(6, 2, 2, 0, &[10.0; 8]);
        report.tenants = vec![TenantReport {
            name: "default".to_string(),
            counts: report.total.clone(),
        }];
        let doc = report.to_json();
        validate(Kind::LoadgenReport, &doc).unwrap();
        assert!(doc.to_string_compact().contains("\"unmapped\":2"));
    }

    #[test]
    fn empty_report_passes_the_schema() {
        let report = empty_report();
        validate(Kind::LoadgenReport, &report.to_json()).unwrap();
        assert!(report.is_lossless());
        assert!(report.slo_pass());
    }

    #[test]
    fn slo_target_parsing_names_the_broken_part() {
        let t = SloTarget::parse("p99_us=50000").unwrap();
        assert_eq!(t.key, "p99_us");
        assert_eq!(t.bound, 50_000.0);
        assert!(SloTarget::parse("p99_us")
            .unwrap_err()
            .contains("key=value"));
        assert!(SloTarget::parse("nope=1").unwrap_err().contains("unknown"));
        assert!(SloTarget::parse("p99_us=abc")
            .unwrap_err()
            .contains("not a number"));
        assert!(SloTarget::parse("shed_rate=-0.5")
            .unwrap_err()
            .contains("≥ 0"));
    }

    #[test]
    fn slo_grading_bounds_rates_latencies_and_throughput() {
        let mut report = empty_report();
        report.total = counts(90, 0, 10, 0, &[10.0, 20.0, 30.0]);
        report.throughput_rps = 250.0;
        let targets = vec![
            SloTarget::parse("p99_us=30").unwrap(),
            SloTarget::parse("shed_rate=0.05").unwrap(),
            SloTarget::parse("throughput_rps=200").unwrap(),
        ];
        report.slo = evaluate_slo(&report, &targets);
        assert!(report.slo[0].pass, "p99 30µs meets the 30µs bound");
        assert!(!report.slo[1].pass, "shed rate 0.10 exceeds 0.05");
        assert!(report.slo[2].pass, "throughput floor: 250 ≥ 200");
        assert!(!report.slo_pass());
        // The report document still validates with the slo/scrapes keys.
        validate(Kind::LoadgenReport, &report.to_json()).unwrap();
    }

    #[test]
    fn quota_rate_slo_and_tenant_sections_validate() {
        let mut report = empty_report();
        report.total = counts(80, 0, 0, 20, &[4.0, 5.0, 7.0]);
        report.tenants = vec![
            TenantReport {
                name: "homo_sapiens".to_string(),
                counts: counts(30, 0, 0, 20, &[5.0, 7.0]),
            },
            TenantReport {
                name: "mus_musculus".to_string(),
                counts: counts(50, 0, 0, 0, &[4.0]),
            },
        ];
        let targets = vec![
            SloTarget::parse("quota_rate=0.25").unwrap(),
            SloTarget::parse("quota_rate=0.1").unwrap(),
        ];
        let checks = evaluate_slo(&report, &targets);
        assert!(checks[0].pass, "quota rate 0.20 meets the 0.25 bound");
        assert!(!checks[1].pass, "quota rate 0.20 exceeds 0.10");
        validate(Kind::LoadgenReport, &report.to_json()).unwrap();
    }

    #[test]
    fn unmeasurable_slo_targets_fail() {
        let report = empty_report();
        let targets = vec![SloTarget::parse("p99_us=1000").unwrap()];
        let checks = evaluate_slo(&report, &targets);
        assert_eq!(checks[0].actual, None);
        assert!(!checks[0].pass, "a bound with no samples is not proven");
    }

    /// An open-loop run ends when its last answer lands, however early
    /// that answer comes. This server answers each frame as soon as it has
    /// read the frame's length, and only then, after a pause, reads the
    /// body. The last read is larger than the loopback socket buffers
    /// (4 MB of send buffer at most), so its answer lands while the sender
    /// is still blocked inside `write_frame`; the reader must not then
    /// wait out the response timeout.
    #[test]
    fn open_loop_run_ends_when_the_last_answer_lands() {
        use std::io::Read as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut len = [0u8; 4];
            // One connection sends the reads in order: frame `id` is read `id`.
            for id in 0.. {
                if conn.read_exact(&mut len).is_err() {
                    break;
                }
                write_frame(&mut conn, &AlignResponse::unmapped(id, 1).encode()).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                let body = u64::from(u32::from_be_bytes(len));
                std::io::copy(&mut (&conn).take(body), &mut std::io::sink()).unwrap();
            }
        });
        let read = |len| TenantRead {
            codes: vec![2; len],
            ..TenantRead::default()
        };
        let config = LoadgenConfig {
            connections: 1,
            mode: ArrivalMode::Open {
                rate_rps: 1_000.0,
                burst: 1,
            },
            ..LoadgenConfig::default()
        };
        let report = run(&addr, &[read(100), read(100), read(8 << 20)], &config).unwrap();
        server.join().unwrap();
        assert!(report.is_lossless(), "{report:?}");
        assert_eq!(report.total.unmapped, 3);
        assert!(
            report.wall_ms < RESPONSE_TIMEOUT.as_secs_f64() * 1e3 / 10.0,
            "3 requests answered at once took {} ms",
            report.wall_ms
        );
    }
}
