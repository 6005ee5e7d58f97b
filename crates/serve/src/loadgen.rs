//! Load generation against a running server, as a library (the
//! `nvwa-loadgen` binary and the integration tests both call [`run`]).
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
//! Multi-tenant mixes: [`run_tenants`] takes reads labelled with a wire
//! `tenant` name and reports the same conservation identities *per
//! tenant* (plus per-tenant latency), so a quota-shed tenant is visible
//! without polluting its neighbors' SLO.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nvwa_genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};
use nvwa_telemetry::snapshot::{validate, Kind};
use nvwa_telemetry::{JsonValue, MetricsRegistry, SnapshotMeta};

use crate::lock;
use crate::protocol::{read_frame, write_frame, AlignResponse, Mode, Request, Status};

/// How long a connection waits for a response before declaring the
/// remainder lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

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
    /// Request mode stamped on every read sent by [`run`] (`run_tenants`
    /// reads carry their own per-read mode instead). `Short` is the wire
    /// default and is omitted from the frame.
    pub request_mode: Mode,
    /// PRNG seed for arrival-time sampling (open loop).
    pub arrival_seed: u64,
    /// Keep every decoded response in the report (for bit-identical
    /// verification against the offline aligner).
    pub collect_responses: bool,
    /// Send a `shutdown` request after the run completes.
    pub shutdown_after: bool,
    /// Scrape the server's `stats` endpoint on a side connection at this
    /// interval while the load runs (first scrape fires immediately).
    /// Every snapshot is schema-validated before it is kept.
    pub scrape_every: Option<Duration>,
    /// SLO targets graded against the final report; see [`SloTarget`].
    pub slo: Vec<SloTarget>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 32 },
            deadline_ms: None,
            request_mode: Mode::Short,
            arrival_seed: 1,
            collect_responses: false,
            shutdown_after: false,
            scrape_every: None,
            slo: Vec::new(),
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

    fn is_min_bound(&self) -> bool {
        self.key == "throughput_rps"
    }
}

/// The graded outcome of one [`SloTarget`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloCheck {
    /// The target's key.
    pub key: String,
    /// The target's bound.
    pub bound: f64,
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
            ("key", JsonValue::Str(self.key.clone())),
            ("bound", JsonValue::Num(self.bound)),
            (
                "actual",
                self.actual.map_or(JsonValue::Null, JsonValue::Num),
            ),
            ("pass", JsonValue::Bool(self.pass)),
        ])
    }
}

fn evaluate_slo(report: &LoadReport, targets: &[SloTarget]) -> Vec<SloCheck> {
    let rate = |n: u64| {
        if report.sent > 0 {
            Some(n as f64 / report.sent as f64)
        } else {
            None
        }
    };
    targets
        .iter()
        .map(|t| {
            let actual = match t.key.as_str() {
                "mean_us" => report.latency.mean,
                "p50_us" => report.latency.p50,
                "p90_us" => report.latency.p90,
                "p99_us" => report.latency.p99,
                "max_us" => report.latency.max,
                "shed_rate" => rate(report.shed),
                "quota_rate" => rate(report.quota),
                "deadline_miss_rate" => rate(report.deadline),
                "error_rate" => rate(report.errors),
                "lost" => Some(report.lost as f64),
                "throughput_rps" => Some(report.throughput_rps),
                _ => None,
            };
            let pass = actual.is_some_and(|a| {
                if t.is_min_bound() {
                    a >= t.bound
                } else {
                    a <= t.bound
                }
            });
            SloCheck {
                key: t.key.clone(),
                bound: t.bound,
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

/// The outcome of one loadgen run.
#[derive(Debug)]
pub struct LoadReport {
    /// Arrival discipline (`"closed"` or `"open"`).
    pub mode: &'static str,
    /// Requests written to sockets.
    pub sent: u64,
    /// Unique responses received.
    pub received: u64,
    /// Requests with no response (timeout or connection drop).
    pub lost: u64,
    /// Responses for an id already answered.
    pub duplicates: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `unmapped` responses: the aligner completed but found no placement
    /// (long-read mode reads that fail seeding/chaining). Completed work,
    /// counted in the latency summaries; not a failure.
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
    /// Connections used.
    pub connections: u64,
    /// Reads offered.
    pub reads: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Unique responses per second.
    pub throughput_rps: f64,
    /// Client-observed end-to-end latency (send → response) of completed
    /// requests (`ok` and `unmapped`).
    pub latency: LatencySummary,
    /// Per-tenant slices of the run (empty for unlabelled [`run`] loads).
    pub tenants: Vec<TenantReport>,
    /// Decoded responses by request id (when `collect_responses`).
    pub responses: HashMap<u64, AlignResponse>,
    /// Schema-validated `stats` snapshots scraped mid-run.
    pub stats_snapshots: Vec<JsonValue>,
    /// Scrapes that failed to connect, decode, or validate.
    pub scrape_failures: u64,
    /// Why the first counted scrape failure failed (`None` when none
    /// did) — `scrapes.first_error` in the report document.
    pub scrape_first_error: Option<String>,
    /// Graded SLO targets (empty when none were configured).
    pub slo: Vec<SloCheck>,
    /// The loadgen's own metrics registry (counters, latency histogram),
    /// snapshot via [`LoadReport::metrics_snapshot`].
    pub metrics: MetricsRegistry,
}

impl LoadReport {
    /// The report of a run's merged `total`. What a run collects on the
    /// side (duplicates, tenant slices, responses, scrapes, SLO grades,
    /// its metrics registry) starts empty.
    fn from_tally(
        mode: &'static str,
        connections: u64,
        reads: u64,
        wall_ms: f64,
        total: Tally,
    ) -> LoadReport {
        LoadReport {
            mode,
            sent: total.sent,
            received: total.received,
            lost: total.lost,
            duplicates: 0,
            ok: total.ok,
            unmapped: total.unmapped,
            shed: total.shed,
            quota: total.quota,
            deadline: total.deadline,
            errors: total.errors,
            mapped: total.mapped,
            connections,
            reads,
            wall_ms,
            throughput_rps: total.received as f64 / (wall_ms / 1e3),
            latency: LatencySummary::from_us(total.latencies_us),
            tenants: Vec::new(),
            responses: HashMap::new(),
            stats_snapshots: Vec::new(),
            scrape_failures: 0,
            scrape_first_error: None,
            slo: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The report document (`validate` checks it against the
    /// `nvwa-loadgen` schema, conservation identities included).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("kind", JsonValue::Str("nvwa-loadgen".to_string())),
            ("schema_version", JsonValue::Num(1.0)),
            ("mode", JsonValue::Str(self.mode.to_string())),
            ("sent", JsonValue::Num(self.sent as f64)),
            ("received", JsonValue::Num(self.received as f64)),
            ("lost", JsonValue::Num(self.lost as f64)),
            ("duplicates", JsonValue::Num(self.duplicates as f64)),
            ("ok", JsonValue::Num(self.ok as f64)),
            ("unmapped", JsonValue::Num(self.unmapped as f64)),
            ("shed", JsonValue::Num(self.shed as f64)),
            ("quota", JsonValue::Num(self.quota as f64)),
            ("deadline", JsonValue::Num(self.deadline as f64)),
            ("errors", JsonValue::Num(self.errors as f64)),
            ("mapped", JsonValue::Num(self.mapped as f64)),
            ("connections", JsonValue::Num(self.connections as f64)),
            ("reads", JsonValue::Num(self.reads as f64)),
            ("wall_ms", JsonValue::Num(self.wall_ms)),
            ("throughput_rps", JsonValue::Num(self.throughput_rps)),
            ("latency_us", self.latency.to_json()),
            (
                "tenants",
                JsonValue::Arr(self.tenants.iter().map(TenantReport::to_json).collect()),
            ),
            (
                "scrapes",
                JsonValue::obj(vec![
                    (
                        "snapshots",
                        JsonValue::Num(self.stats_snapshots.len() as f64),
                    ),
                    ("failures", JsonValue::Num(self.scrape_failures as f64)),
                    (
                        "first_error",
                        match &self.scrape_first_error {
                            Some(e) => JsonValue::Str(e.clone()),
                            None => JsonValue::Null,
                        },
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
        ])
    }

    /// `lost == 0 && duplicates == 0` — the healthy-run invariant.
    pub fn is_lossless(&self) -> bool {
        self.lost == 0 && self.duplicates == 0
    }

    /// Whether every configured SLO target is met (vacuously true when
    /// none were configured).
    pub fn slo_pass(&self) -> bool {
        self.slo.iter().all(|c| c.pass)
    }

    /// The loadgen's own `nvwa-metrics` snapshot (`validate` checks it).
    pub fn metrics_snapshot(&self, meta: &SnapshotMeta) -> JsonValue {
        self.metrics.snapshot(meta)
    }
}

/// Per-tenant slice of a [`LoadReport`]: the same conservation identities
/// (`sent == received + lost`,
/// `received == ok + unmapped + shed + quota + deadline + errors`) hold
/// per tenant.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Wire tenant label (`"default"` for unlabelled reads).
    pub name: String,
    /// Requests written for this tenant.
    pub sent: u64,
    /// Unique responses received.
    pub received: u64,
    /// Requests with no response.
    pub lost: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `unmapped` responses (completed, no placement found).
    pub unmapped: u64,
    /// `shed` responses.
    pub shed: u64,
    /// `quota` responses.
    pub quota: u64,
    /// `deadline` responses.
    pub deadline: u64,
    /// `error` responses.
    pub errors: u64,
    /// `ok` responses carrying an alignment.
    pub mapped: u64,
    /// Client-observed latency for this tenant's completed responses.
    pub latency: LatencySummary,
}

impl TenantReport {
    fn from_tally(name: &str, t: Tally) -> TenantReport {
        TenantReport {
            name: name.to_string(),
            sent: t.sent,
            received: t.received,
            lost: t.lost,
            ok: t.ok,
            unmapped: t.unmapped,
            shed: t.shed,
            quota: t.quota,
            deadline: t.deadline,
            errors: t.errors,
            mapped: t.mapped,
            latency: LatencySummary::from_us(t.latencies_us),
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("sent", JsonValue::Num(self.sent as f64)),
            ("received", JsonValue::Num(self.received as f64)),
            ("lost", JsonValue::Num(self.lost as f64)),
            ("ok", JsonValue::Num(self.ok as f64)),
            ("unmapped", JsonValue::Num(self.unmapped as f64)),
            ("shed", JsonValue::Num(self.shed as f64)),
            ("quota", JsonValue::Num(self.quota as f64)),
            ("deadline", JsonValue::Num(self.deadline as f64)),
            ("errors", JsonValue::Num(self.errors as f64)),
            ("mapped", JsonValue::Num(self.mapped as f64)),
            ("latency_us", self.latency.to_json()),
        ])
    }
}

/// One read of a multi-tenant mix (see [`run_tenants`]).
#[derive(Debug, Clone)]
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

/// The canonical synthetic-reference shape for serving: both the `nvwa
/// serve` CLI and `nvwa-loadgen` build from `(ref_params(len), ref_seed)`,
/// so a loadgen pointed at a default server produces reads that map.
pub fn ref_params(total_len: usize) -> ReferenceParams {
    ReferenceParams {
        total_len,
        chromosomes: 2,
        repeat_families: 8,
        ..ReferenceParams::default()
    }
}

/// Synthesizes a read set against the same reference the server built
/// (`ref_seed` must match the server's), so reads actually map.
pub fn generate_reads(
    params: &ReferenceParams,
    ref_seed: u64,
    read_seed: u64,
    n: usize,
) -> Vec<Vec<u8>> {
    let genome = ReferenceGenome::synthesize(params, ref_seed);
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), read_seed);
    sim.simulate_reads(n)
        .into_iter()
        .map(|r| r.seq.codes().to_vec())
        .collect()
}

/// Synthesizes a pure long-read set against the server's reference: every
/// read is a `long_len` bp long-read simulation. The `long`/`classify`
/// serving modes consume these (the minimizer-seeded pipeline needs reads
/// long enough to chain; the Illumina 101 bp profile is too short to be
/// representative).
pub fn generate_long_reads(
    params: &ReferenceParams,
    ref_seed: u64,
    read_seed: u64,
    n: usize,
    long_len: usize,
) -> Vec<Vec<u8>> {
    let genome = ReferenceGenome::synthesize(params, ref_seed);
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::long_read(long_len), read_seed);
    sim.simulate_reads(n)
        .into_iter()
        .map(|r| r.seq.codes().to_vec())
        .collect()
}

/// Synthesizes reads against a species tenant's reference (the
/// server builds the same `Species::synthesize` genome, so reads map).
pub fn generate_species_reads(
    species: nvwa_genome::species::Species,
    scale: f64,
    read_seed: u64,
    n: usize,
) -> Vec<Vec<u8>> {
    let genome = species.synthesize(scale);
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), read_seed);
    sim.simulate_reads(n)
        .into_iter()
        .map(|r| r.seq.codes().to_vec())
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

/// One read as sent on the wire: global id plus tenant routing labels.
#[derive(Clone, Copy)]
struct WireRead<'a> {
    id: u64,
    tenant_idx: u32,
    tenant: Option<&'a str>,
    region: Option<u64>,
    codes: &'a [u8],
    mode: Mode,
}

/// Outcome counters and completed-request latencies of one slice of a
/// run: a connection's total, or one tenant's share of it.
#[derive(Default, Clone)]
struct Tally {
    sent: u64,
    received: u64,
    lost: u64,
    ok: u64,
    unmapped: u64,
    shed: u64,
    quota: u64,
    deadline: u64,
    errors: u64,
    mapped: u64,
    latencies_us: Vec<f64>,
}

impl Tally {
    /// One unique response: `mapped` is whether it carried an alignment,
    /// `latency_us` its send → response time (kept for completed work).
    fn record(&mut self, status: Status, mapped: bool, latency_us: f64) {
        self.received += 1;
        match status {
            Status::Ok => {
                self.ok += 1;
                self.mapped += u64::from(mapped);
                self.latencies_us.push(latency_us);
            }
            // A completed alignment attempt that found no placement:
            // latency counts toward the completion SLO, `mapped` does
            // not move.
            Status::Unmapped => {
                self.unmapped += 1;
                self.latencies_us.push(latency_us);
            }
            Status::Shed => self.shed += 1,
            Status::Quota => self.quota += 1,
            Status::Deadline => self.deadline += 1,
            Status::Error => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.received += other.received;
        self.lost += other.lost;
        self.ok += other.ok;
        self.unmapped += other.unmapped;
        self.shed += other.shed;
        self.quota += other.quota;
        self.deadline += other.deadline;
        self.errors += other.errors;
        self.mapped += other.mapped;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// In-flight requests: `id → (send instant, tenant index)`. The tenant
/// index keeps the per-tenant identities exact.
type PendingSends = HashMap<u64, (Instant, u32)>;

/// Per-connection tally, merged into the final report.
struct ConnTally {
    total: Tally,
    duplicates: u64,
    responses: HashMap<u64, AlignResponse>,
    tenants: Vec<Tally>,
}

impl ConnTally {
    fn new(n_tenants: usize) -> ConnTally {
        ConnTally {
            total: Tally::default(),
            duplicates: 0,
            responses: HashMap::new(),
            tenants: vec![Tally::default(); n_tenants.max(1)],
        }
    }

    fn note_sent(&mut self, tenant_idx: u32, n: u64) {
        self.total.sent += n;
        self.tenants[tenant_idx as usize].sent += n;
    }

    fn note_lost(&mut self, pending: &PendingSends) {
        self.total.lost += pending.len() as u64;
        for (_, tenant_idx) in pending.values() {
            self.tenants[*tenant_idx as usize].lost += 1;
        }
    }

    fn record(&mut self, doc: &JsonValue, sent_at: &mut PendingSends, collect: bool) {
        let Ok(resp) = AlignResponse::decode(doc) else {
            return; // undecodable frame; the request will surface as lost
        };
        let Some((at, tenant_idx)) = sent_at.remove(&resp.id) else {
            self.duplicates += 1;
            return;
        };
        let us = at.elapsed().as_secs_f64() * 1e6;
        let mapped = resp.alignment.is_some();
        self.total.record(resp.status, mapped, us);
        self.tenants[tenant_idx as usize].record(resp.status, mapped, us);
        if collect {
            self.responses.insert(resp.id, resp);
        }
    }

    fn merge(&mut self, other: ConnTally) {
        self.total.merge(other.total);
        self.duplicates += other.duplicates;
        self.responses.extend(other.responses);
        for (into, from) in self.tenants.iter_mut().zip(other.tenants) {
            into.merge(from);
        }
    }
}

/// What the scraper thread hands back: validated snapshots, the failure
/// count, and the first counted failure's reason.
type Scrapes = (Vec<JsonValue>, u64, Option<String>);

/// Handle to the mid-run stats scraper thread.
struct Scraper {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Scrapes>,
}

impl Scraper {
    fn stop_and_join(self) -> Scrapes {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .unwrap_or_else(|_| (Vec::new(), 1, Some("scraper thread panicked".to_string())))
    }
}

/// How long the scraper's *first* scrape may retry before a failure is
/// counted. The first scrape fires the instant the loadgen starts, which
/// races server warmup (bind returns before the accept loop is hot under
/// load); a refused connection in that window is not an endpoint failure.
const SCRAPE_WARMUP: Duration = Duration::from_secs(2);

/// Scrapes `stats` on a side connection: once immediately, then every
/// `every` until stopped. Snapshots that fail schema validation are
/// counted, not kept — a live endpoint that emits garbage is a failure.
/// The immediate first scrape retries with bounded backoff (up to
/// [`SCRAPE_WARMUP`]) before counting a failure, so a run no longer
/// reports a phantom `scrape_failures: 1` just because the scraper beat
/// the server's warmup.
fn spawn_scraper(addr: String, every: Duration) -> Scraper {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut snapshots = Vec::new();
        let mut failures = 0u64;
        let mut first_error = None;
        let warmup_deadline = Instant::now() + SCRAPE_WARMUP;
        let mut backoff = Duration::from_millis(10);
        loop {
            let scraped = fetch_stats(&addr)
                .map_err(|e| format!("fetch: {e}"))
                .and_then(|doc| validate(Kind::StatsResponse, &doc).map(|()| doc));
            match scraped {
                Ok(doc) => snapshots.push(doc),
                Err(e) => {
                    if snapshots.is_empty() && Instant::now() < warmup_deadline {
                        // Still warming up: retry the first scrape instead
                        // of counting it, unless the run is already over.
                        if flag.load(Ordering::Relaxed) {
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
                if flag.load(Ordering::Relaxed) {
                    return (snapshots, failures, first_error);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });
    Scraper { stop, handle }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

fn align_request(r: &WireRead<'_>, deadline_ms: Option<u64>) -> JsonValue {
    Request::Align {
        id: r.id,
        codes: r.codes.to_vec(),
        deadline_ms,
        tenant: r.tenant.map(str::to_string),
        region: r.region,
        mode: r.mode,
    }
    .encode()
}

/// One closed-loop connection: keep `window` requests in flight.
fn closed_conn(
    addr: &str,
    reads: &[WireRead<'_>],
    n_tenants: usize,
    window: usize,
    deadline_ms: Option<u64>,
    collect: bool,
) -> std::io::Result<ConnTally> {
    let mut stream = connect(addr)?;
    let mut tally = ConnTally::new(n_tenants);
    let mut sent_at: PendingSends = HashMap::new();
    let mut next = 0usize;
    let window = window.max(1);
    while next < reads.len() || !sent_at.is_empty() {
        while next < reads.len() && sent_at.len() < window {
            let r = &reads[next];
            write_frame(&mut stream, &align_request(r, deadline_ms))?;
            sent_at.insert(r.id, (Instant::now(), r.tenant_idx));
            tally.note_sent(r.tenant_idx, 1);
            next += 1;
        }
        match read_frame(&mut stream) {
            Ok(Some(doc)) => tally.record(&doc, &mut sent_at, collect),
            Ok(None) => break,
            Err(_) => break,
        }
    }
    tally.note_lost(&sent_at);
    Ok(tally)
}

/// Open-loop injection parameters (bundled to keep `open_conn`'s
/// signature sane).
struct OpenLoop {
    rate_rps: f64,
    burst: usize,
    deadline_ms: Option<u64>,
    seed: u64,
    collect: bool,
}

/// One open-loop connection: a sender thread injects on schedule while
/// this thread drains responses.
fn open_conn(
    addr: &str,
    reads: &[WireRead<'_>],
    n_tenants: usize,
    opts: OpenLoop,
) -> std::io::Result<ConnTally> {
    let OpenLoop {
        rate_rps,
        burst,
        deadline_ms,
        seed,
        collect,
    } = opts;
    let mut write_half = connect(addr)?;
    let mut read_half = write_half.try_clone()?;
    let sent_at: Mutex<PendingSends> = Mutex::new(HashMap::new());
    let sender_done = AtomicBool::new(false);
    let mut tally = ConnTally::new(n_tenants);
    std::thread::scope(|scope| {
        let (pending, done) = (&sent_at, &sender_done);
        let sender = scope.spawn(move || -> Vec<u64> {
            let mut prng = Prng(seed ^ 0xda7a_5eed);
            let burst = burst.max(1);
            let epoch_rate = (rate_rps / burst as f64).max(1e-6);
            let start = Instant::now();
            let mut at = 0.0f64;
            let mut sent = vec![0u64; n_tenants.max(1)];
            for chunk in reads.chunks(burst) {
                at += prng.next_exp(epoch_rate);
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                for r in chunk {
                    lock(pending).insert(r.id, (Instant::now(), r.tenant_idx));
                    if write_frame(&mut write_half, &align_request(r, deadline_ms)).is_err() {
                        lock(pending).remove(&r.id);
                        done.store(true, Ordering::SeqCst);
                        return sent;
                    }
                    sent[r.tenant_idx as usize] += 1;
                }
            }
            let _ = write_half.flush();
            done.store(true, Ordering::SeqCst);
            sent
        });
        loop {
            if sender_done.load(Ordering::Relaxed) && lock(&sent_at).is_empty() {
                break;
            }
            match read_frame(&mut read_half) {
                Ok(Some(doc)) => {
                    let mut pending = lock(&sent_at);
                    tally.record(&doc, &mut pending, collect);
                }
                Ok(None) => break,
                Err(_) => break, // timeout — remainder is lost
            }
        }
        let sent_per_tenant = sender.join().unwrap_or_default();
        for (i, n) in sent_per_tenant.iter().enumerate() {
            tally.note_sent(i as u32, *n);
        }
    });
    tally.note_lost(&lock(&sent_at));
    Ok(tally)
}

/// Runs the load against `addr`. Read `i` of `reads` is request id `i`.
/// Requests carry no tenant label (the server routes to its default
/// tenant) and the report's `tenants` array is empty.
///
/// # Errors
///
/// Returns connection errors; per-request failures are tallied, not
/// returned.
pub fn run(addr: &str, reads: &[Vec<u8>], config: &LoadgenConfig) -> std::io::Result<LoadReport> {
    let wire: Vec<WireRead<'_>> = reads
        .iter()
        .enumerate()
        .map(|(i, codes)| WireRead {
            id: i as u64,
            tenant_idx: 0,
            tenant: None,
            region: None,
            codes: codes.as_slice(),
            mode: config.request_mode,
        })
        .collect();
    run_impl(addr, &wire, &[], config)
}

/// Runs a multi-tenant mix against `addr`. Read `i` of `reads` is request
/// id `i`; each read carries its wire `tenant` label. The report gets one
/// [`TenantReport`] per distinct label (in order of first appearance;
/// `None` is reported as `"default"`), each proving the conservation
/// identities for its slice of the traffic.
///
/// # Errors
///
/// Returns connection errors; per-request failures are tallied, not
/// returned.
pub fn run_tenants(
    addr: &str,
    reads: &[TenantRead],
    config: &LoadgenConfig,
) -> std::io::Result<LoadReport> {
    let mut labels: Vec<String> = Vec::new();
    let mut wire: Vec<WireRead<'_>> = Vec::with_capacity(reads.len());
    for (i, read) in reads.iter().enumerate() {
        let label = read.tenant.as_deref().unwrap_or("default");
        let tenant_idx = match labels.iter().position(|l| l == label) {
            Some(pos) => pos,
            None => {
                labels.push(label.to_string());
                labels.len() - 1
            }
        } as u32;
        wire.push(WireRead {
            id: i as u64,
            tenant_idx,
            tenant: read.tenant.as_deref(),
            region: read.region,
            codes: &read.codes,
            mode: read.mode,
        });
    }
    run_impl(addr, &wire, &labels, config)
}

fn run_impl(
    addr: &str,
    wire: &[WireRead<'_>],
    labels: &[String],
    config: &LoadgenConfig,
) -> std::io::Result<LoadReport> {
    let connections = config.connections.max(1);
    let n_tenants = labels.len().max(1);
    // Round-robin partition, global ids preserved.
    let partitions: Vec<Vec<WireRead<'_>>> = (0..connections)
        .map(|c| wire.iter().skip(c).step_by(connections).copied().collect())
        .collect();
    let scraper = config
        .scrape_every
        .map(|every| spawn_scraper(addr.to_string(), every));
    let start = Instant::now();
    let tallies: Vec<std::io::Result<ConnTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .enumerate()
            .map(|(c, part)| {
                let mode = config.mode;
                let deadline_ms = config.deadline_ms;
                let collect = config.collect_responses;
                let seed = config.arrival_seed.wrapping_add(c as u64);
                scope.spawn(move || match mode {
                    ArrivalMode::Closed { window } => {
                        closed_conn(addr, part, n_tenants, window, deadline_ms, collect)
                    }
                    ArrivalMode::Open { rate_rps, burst } => open_conn(
                        addr,
                        part,
                        n_tenants,
                        OpenLoop {
                            rate_rps,
                            burst,
                            deadline_ms,
                            seed,
                            collect,
                        },
                    ),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ms = (start.elapsed().as_secs_f64() * 1e3).max(0.001);
    let mut merged = ConnTally::new(n_tenants);
    for tally in tallies {
        merged.merge(tally?);
    }
    // The scraper must be down before the drain starts: a scrape racing
    // shutdown would count a refused connection as a failure.
    let (stats_snapshots, scrape_failures, scrape_first_error) = match scraper {
        Some(s) => s.stop_and_join(),
        None => (Vec::new(), 0, None),
    };
    if config.shutdown_after {
        let _ = send_shutdown(addr);
    }
    let mut metrics = MetricsRegistry::new();
    let lat = metrics.histogram("loadgen.latency_us");
    for v in &merged.total.latencies_us {
        metrics.observe(lat, *v as u64);
    }
    let mut report = LoadReport {
        duplicates: merged.duplicates,
        tenants: labels
            .iter()
            .zip(merged.tenants)
            .map(|(name, t)| TenantReport::from_tally(name, t))
            .collect(),
        responses: merged.responses,
        stats_snapshots,
        scrape_failures,
        scrape_first_error,
        metrics,
        ..LoadReport::from_tally(
            config.mode.as_str(),
            connections as u64,
            wire.len() as u64,
            wall_ms,
            merged.total,
        )
    };
    for (name, v) in [
        ("loadgen.sent", report.sent),
        ("loadgen.received", report.received),
        ("loadgen.lost", report.lost),
        ("loadgen.duplicates", report.duplicates),
        ("loadgen.responses_ok", report.ok),
        ("loadgen.unmapped", report.unmapped),
        ("loadgen.shed", report.shed),
        ("loadgen.quota", report.quota),
        ("loadgen.deadline", report.deadline),
        ("loadgen.errors", report.errors),
        ("loadgen.mapped", report.mapped),
        (
            "loadgen.scrape_snapshots",
            report.stats_snapshots.len() as u64,
        ),
        ("loadgen.scrape_failures", report.scrape_failures),
    ] {
        let id = report.metrics.counter(name);
        report.metrics.inc(id, v);
    }
    let gauge = report.metrics.gauge("loadgen.throughput_rps");
    report.metrics.set_gauge(gauge, report.throughput_rps);
    let gauge = report.metrics.gauge("loadgen.connections");
    report.metrics.set_gauge(gauge, connections as f64);
    report.slo = evaluate_slo(&report, &config.slo);
    Ok(report)
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

/// Sends one control request on a fresh connection and returns the reply.
fn fetch(addr: &str, request: &Request, what: &str) -> std::io::Result<JsonValue> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &request.encode())?;
    read_frame(&mut stream)?.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("server closed before answering {what}"),
        )
    })
}

/// Fetches the server's metrics snapshot on a fresh connection.
///
/// # Errors
///
/// Returns connection errors, or `InvalidData` if the server closed
/// without answering.
pub fn fetch_stats(addr: &str) -> std::io::Result<JsonValue> {
    fetch(addr, &Request::Stats, "stats")
}

/// Fetches the server's flight-recorder dump on a fresh connection.
///
/// # Errors
///
/// Returns connection errors, or `InvalidData` if the server closed
/// without answering.
pub fn fetch_flight(addr: &str) -> std::io::Result<JsonValue> {
    fetch(addr, &Request::Flight, "flight")
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

    fn empty_report() -> LoadReport {
        LoadReport::from_tally("closed", 1, 0, 1.0, Tally::default())
    }

    #[test]
    fn unmapped_responses_keep_the_report_conserved() {
        let mut report = empty_report();
        report.sent = 10;
        report.received = 10;
        report.ok = 6;
        report.unmapped = 2;
        report.shed = 2;
        report.mapped = 6;
        report.latency = LatencySummary::from_us(vec![10.0; 8]);
        report.tenants = vec![TenantReport::from_tally(
            "default",
            Tally {
                sent: 10,
                received: 10,
                ok: 6,
                unmapped: 2,
                shed: 2,
                mapped: 6,
                latencies_us: vec![10.0; 8],
                ..Tally::default()
            },
        )];
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
        report.sent = 100;
        report.received = 100;
        report.ok = 90;
        report.shed = 10;
        report.throughput_rps = 250.0;
        report.latency = LatencySummary::from_us(vec![10.0, 20.0, 30.0]);
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
        report.sent = 100;
        report.received = 100;
        report.ok = 80;
        report.quota = 20;
        report.mapped = 80;
        report.tenants = vec![
            TenantReport::from_tally(
                "homo_sapiens",
                Tally {
                    sent: 50,
                    received: 50,
                    ok: 30,
                    quota: 20,
                    mapped: 30,
                    latencies_us: vec![5.0, 7.0],
                    ..Tally::default()
                },
            ),
            TenantReport::from_tally(
                "mus_musculus",
                Tally {
                    sent: 50,
                    received: 50,
                    ok: 50,
                    mapped: 50,
                    latencies_us: vec![4.0],
                    ..Tally::default()
                },
            ),
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

    #[test]
    fn loadgen_metrics_snapshot_validates() {
        let mut report = empty_report();
        let id = report.metrics.counter("loadgen.sent");
        report.metrics.inc(id, 7);
        let meta = SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        };
        let snap = report.metrics_snapshot(&meta);
        validate(Kind::MetricsSnapshot, &snap).unwrap();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("loadgen.sent"))
                .and_then(JsonValue::as_num),
            Some(7.0)
        );
    }
}
