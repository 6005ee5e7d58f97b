//! Snapshot metadata and schema validation for the repo's JSON artifacts.
//!
//! Every artifact [`Kind`] — metrics snapshots (`--metrics-out`), serve
//! snapshots and `stats` replies, the windowed [`crate::SloView`], flight
//! summaries and dumps, span logs, loadgen reports and Chrome traces — is
//! described once, as field rows `(path, type)` (numeric types carry their
//! range) followed by named cross-field identities. One walker,
//! [`validate`], checks every kind and names the offending JSON path
//! (`$.tenants[0].shards[1]`, `$.per_bin[2]`, `$.events[7].seq`).

use std::ops::RangeInclusive;

use crate::json::JsonValue;
use crate::spans::RequestSpans;

/// Run metadata recorded into every metrics snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotMeta {
    /// Host thread count the run used (the evaluation harness's pool).
    pub host_threads: usize,
    /// Git revision of the tree, when discoverable.
    pub git_rev: Option<String>,
}

impl SnapshotMeta {
    /// Collects metadata from the environment: `host_threads` from the
    /// caller (thread-pool resolution lives in `nvwa-sim::par`, which this
    /// crate cannot depend on) and the git revision from the working
    /// directory.
    pub fn collect(host_threads: usize) -> SnapshotMeta {
        SnapshotMeta {
            host_threads,
            git_rev: git_revision(),
        }
    }
}

/// Best-effort git revision: walks up from the current directory to the
/// first `.git/HEAD` and resolves one level of `ref:` indirection
/// (loose ref file, then `packed-refs`). Returns `None` outside a
/// repository — never an error.
pub fn git_revision() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(content) = std::fs::read_to_string(&head) {
            let content = content.trim();
            if let Some(refname) = content.strip_prefix("ref: ") {
                if let Ok(rev) = std::fs::read_to_string(dir.join(".git").join(refname)) {
                    return Some(rev.trim().to_string());
                }
                if let Ok(packed) = std::fs::read_to_string(dir.join(".git").join("packed-refs")) {
                    for line in packed.lines() {
                        if let Some(rev) = line.strip_suffix(refname) {
                            return Some(rev.trim().to_string());
                        }
                    }
                }
                return None;
            }
            return Some(content.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Counter names every serve metrics snapshot must carry. The server
/// pre-registers these at startup, so the snapshot is schema-complete even
/// before the first request.
pub const SERVE_REQUIRED_COUNTERS: &[&str] = &[
    "serve.requests_admitted",
    "serve.requests_shed",
    "serve.deadline_expired",
    "serve.responses_ok",
    "serve.responses_unmapped",
    "serve.requests_long",
    "serve.requests_classify",
    "serve.protocol_errors",
    "serve.batches_formed",
    "serve.connections_accepted",
];

/// Gauge names every serve metrics snapshot must carry.
pub const SERVE_REQUIRED_GAUGES: &[&str] = &[
    "serve.queue_depth",
    "serve.queue_depth_max",
    "serve.queue_capacity",
    "serve.workers",
];

/// Histogram names every serve metrics snapshot must carry.
pub const SERVE_REQUIRED_HISTOGRAMS: &[&str] = &[
    "serve.batch_size",
    "serve.e2e_latency_us",
    "serve.queue_wait_us",
];

/// Event kinds a flight-recorder document may carry.
pub const FLIGHT_EVENT_KINDS: &[&str] = &[
    "admit",
    "shed",
    "deadline",
    "batch_start",
    "batch_done",
    "panic",
    "quota",
];

/// A JSON artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A metrics snapshot (`"kind": "nvwa-metrics"`).
    MetricsSnapshot,
    /// A metrics snapshot from `nvwa serve`: the serve metric family and,
    /// when present, the `slo`, `flight`, `tenants` and `registry`
    /// sections of a `stats` reply.
    ServeSnapshot,
    /// A serve `stats` reply: a serve snapshot carrying `slo` and `flight`.
    StatsResponse,
    /// A windowed [`crate::SloView`] (the `slo` section of a `stats` reply).
    SloView,
    /// A flight-recorder summary (the `flight` section of a `stats` reply).
    FlightSummary,
    /// A flight-recorder dump (`"kind": "nvwa-flight"`).
    FlightDump,
    /// A span log (`"kind": "nvwa-spanlog"`).
    SpanLog,
    /// A loadgen report (`"kind": "nvwa-loadgen"`).
    LoadgenReport,
    /// A Chrome trace (`traceEvents`).
    ChromeTrace,
}

impl Kind {
    /// The kind's name in messages (`"loadgen report"`).
    pub fn label(self) -> &'static str {
        match self {
            Kind::MetricsSnapshot => "metrics snapshot",
            Kind::ServeSnapshot => "serve metrics snapshot",
            Kind::StatsResponse => "stats response",
            Kind::SloView => "slo view",
            Kind::FlightSummary => "flight summary",
            Kind::FlightDump => "flight dump",
            Kind::SpanLog => "span log",
            Kind::LoadgenReport => "loadgen report",
            Kind::ChromeTrace => "chrome trace",
        }
    }

    /// The kind a standalone file announces: its `kind` tag (a metrics
    /// snapshot carrying the serve counters is a serve snapshot), or the
    /// `traceEvents` of a Chrome trace.
    pub fn of(doc: &JsonValue) -> Option<Kind> {
        let counters = doc.get("counters");
        let serve = counters.and_then(|c| c.get(SERVE_REQUIRED_COUNTERS[0]));
        Some(match doc.get("kind").and_then(JsonValue::as_str) {
            Some("nvwa-metrics") if serve.is_some() => Kind::ServeSnapshot,
            Some("nvwa-metrics") => Kind::MetricsSnapshot,
            Some("nvwa-loadgen") => Kind::LoadgenReport,
            Some("nvwa-flight") => Kind::FlightDump,
            Some("nvwa-spanlog") => Kind::SpanLog,
            _ if doc.get("traceEvents").is_some() => Kind::ChromeTrace,
            _ => return None,
        })
    }

    /// The kind's description: field rows, then the identities, which
    /// rely on the rows above them.
    fn rules(self) -> &'static [(&'static str, Rule)] {
        use Rule::*;
        match self {
            Kind::MetricsSnapshot => &[
                ("", Tag("nvwa-metrics")),
                ("git_rev", OptStr),
                ("host_threads", Int(ONE_UP)),
                ("{counters,gauges}.*", NUM),
                (
                    "histograms.*",
                    Summary(&["p50", "p90", "p99", "min", "max"]),
                ),
                ("histograms.*.buckets", Arr(ANY)),
                ("series.*.bucket_width", Num(ONE_UP)),
                ("series.*.means[]", NUM),
                ("histograms.*", Check("bucket counts", bucket_counts)),
            ],
            // The server moves a global and a per-tenant count under one
            // lock and reads counters and tenant rows under one
            // acquisition, so the tenant identities hold in every scrape.
            Kind::ServeSnapshot => &[
                ("", Section(Kind::MetricsSnapshot)),
                ("counters", Has(SERVE_REQUIRED_COUNTERS)),
                ("gauges", Has(SERVE_REQUIRED_GAUGES)),
                ("histograms", Has(SERVE_REQUIRED_HISTOGRAMS)),
                ("slo?", Section(Kind::SloView)),
                ("flight?", Section(Kind::FlightSummary)),
                ("tenants?[].quota_shed", COUNT),
                ("tenants?[].shards[].{admitted,ok}", COUNT),
                ("tenants?[].shards[].{unmapped,deadline,errors}", COUNT),
                ("tenants?[].slo", Section(Kind::SloView)),
                ("registry?.mem_used_bytes", COUNT),
                ("registry?.mem_budget_bytes", OptNum),
                ("registry?.tenants[].mem_bytes", COUNT),
                // A request is answered after it is admitted, never before.
                ("tenants?[].shards[]", ANSWERED),
                ("", TENANT_ADMITTED),
                ("", TENANT_QUOTA),
                ("registry?", RESIDENT),
                ("registry?", Check("budget", within_budget)),
            ],
            Kind::StatsResponse => &[("", Section(Kind::ServeSnapshot)), ("{slo,flight}", Any)],
            Kind::SloView => &[
                ("step", Int(ONE_UP)),
                ("{window,now,completed}", COUNT),
                ("{admitted,shed,deadline_missed}", COUNT),
                ("queue_depth", Num(NON_NEG)),
                ("{shed_rate,deadline_miss_rate}", Num(0.0..=1.0)),
                ("per_bin", Arr(ONE_UP)),
                ("per_bin[].{bin,count}", COUNT),
                ("per_bin[]", Summary(&["p50", "p90", "p99"])),
                ("", Check("whole steps", whole_steps)),
                ("", Check("rates", rates)),
                ("", Check("bin order", bin_order)),
            ],
            // The recorder keeps the ring and `recorded` under one lock and
            // a summary or dump reads both under one acquisition, so
            // occupancy holds in every scrape, live or quiescent.
            Kind::FlightSummary => &[
                ("cap", Int(ONE_UP)),
                ("{recorded,retained,dumps}", COUNT),
                ("{last_dump_reason,last_dump_error}", OptStr),
                ("by_kind", Only(FLIGHT_EVENT_KINDS)),
                ("by_kind.*", NUM),
                ("", Check("occupancy", occupancy)),
                ("", Sums("by_kind", "retained", "by_kind.*")),
            ],
            Kind::FlightDump => &[
                ("", Tag("nvwa-flight")),
                ("reason", Str),
                ("{cap,recorded}", COUNT),
                ("events[].seq", COUNT),
                ("events[].t_us", Num(NON_NEG)),
                ("events[].kind", OneOf(FLIGHT_EVENT_KINDS)),
                ("events[].{a,b,c}", NUM),
                ("digest", Has(FLIGHT_EVENT_KINDS)),
                ("", Check("occupancy", occupancy)),
                ("", Check("seq order", |d| increasing(d, "events", "seq"))),
                ("", Check("digest", digest)),
            ],
            // The log sorts by trace id, so increasing ids are unique ids.
            Kind::SpanLog => &[
                ("", Tag("nvwa-spanlog")),
                ("{cap,dropped}", COUNT),
                ("chains", Arr(ANY)),
                ("", Check("within cap", within_cap)),
                (
                    "chains[]",
                    Check("span chain", |c| RequestSpans::from_json(c)?.check()),
                ),
                (
                    "",
                    Check("trace order", |d| increasing(d, "chains", "trace_id")),
                ),
            ],
            Kind::LoadgenReport => &[
                ("", Tag("nvwa-loadgen")),
                ("mode", OneOf(&["closed", "open"])),
                ("{sent,received,lost,duplicates,connections}", COUNT),
                ("{ok,unmapped,shed,quota,deadline,errors,mapped}", COUNT),
                ("wall_ms", Num(f64::MIN_POSITIVE..=f64::INFINITY)),
                ("throughput_rps", Num(NON_NEG)),
                ("latency_us", LATENCY),
                ("tenants?[].name", Str),
                ("tenants?[].{sent,received,lost,ok,unmapped}", COUNT),
                ("tenants?[].{shed,quota,deadline,errors,mapped}", COUNT),
                ("tenants?[].latency_us", LATENCY),
                ("scrapes.{snapshots,failures}", COUNT),
                ("scrapes.first_error", OptStr),
                ("slo.pass", Bool),
                ("slo.checks[].key", Str),
                ("slo.checks[].bound", NUM),
                ("slo.checks[].actual", OptNum),
                ("slo.checks[].pass", Bool),
                // Conservation, for the run and for each tenant.
                ("", SENT),
                ("", RECEIVED),
                ("tenants?[]", SENT),
                ("tenants?[]", RECEIVED),
                ("", Sums("totals", "tenants?[].sent", "sent")),
                ("", Sums("totals", "tenants?[].received", "received")),
                ("", Sums("totals", "tenants?[].lost", "lost")),
                ("", Sums("totals", "tenants?[].quota", "quota")),
                ("", Sums("totals", "tenants?[].unmapped", "unmapped")),
                ("slo", Check("slo verdict", slo_verdict)),
            ],
            Kind::ChromeTrace => &[
                ("traceEvents[].ph", OneOf(&["X", "i", "M"])),
                ("traceEvents[].{pid,tid}", NUM),
                ("traceEvents[].name", Any),
                ("traceEvents[]", Check("phase fields", phase_fields)),
            ],
        }
    }
}

/// Checks `doc` against the rules of `kind`.
///
/// # Errors
///
/// Returns a message naming the kind, the JSON path (`$` is the document)
/// and the first violated rule.
pub fn validate(kind: Kind, doc: &JsonValue) -> Result<(), String> {
    check(kind, doc, "$").map_err(|e| format!("{}: {e}", kind.label()))
}

/// Recognizes a standalone file with [`Kind::of`] and validates it,
/// returning the kind's label. Errors as [`validate`], or when no kind
/// recognizes the document.
pub fn validate_any(doc: &JsonValue) -> Result<&'static str, String> {
    let kind = Kind::of(doc).ok_or("unrecognized document shape (no kind tag, no traceEvents)")?;
    validate(kind, doc)?;
    Ok(kind.label())
}

type Range = RangeInclusive<f64>;

const ANY: Range = f64::NEG_INFINITY..=f64::INFINITY;
const NON_NEG: Range = 0.0..=f64::INFINITY;
const ONE_UP: Range = 1.0..=f64::INFINITY;
const COUNT: Rule = Rule::Int(NON_NEG);
const NUM: Rule = Rule::Num(ANY);
const LATENCY: Rule = Rule::Summary(&["mean", "p50", "p90", "p99", "min", "max"]);
const ANSWERED: Rule = Rule::AtMost("answered", "{ok,unmapped,deadline,errors}", "admitted");
const TENANT_ADMITTED: Rule = Rule::Sums(
    "tenant rows",
    "tenants?[].shards[].admitted",
    "counters.{serve.requests_admitted}",
);
const TENANT_QUOTA: Rule = Rule::Sums(
    "tenant rows",
    "tenants?[].quota_shed",
    "counters.{serve.requests_quota}",
);
const RESIDENT: Rule = Rule::Sums("resident", "mem_used_bytes", "tenants[].mem_bytes");
const SENT: Rule = Rule::Sums("conservation", "sent", "{received,lost}");
const RECEIVED: Rule = Rule::Sums(
    "conservation",
    "received",
    "{ok,unmapped,shed,quota,deadline,errors}",
);

/// One row of a kind's description, checked at every node its path
/// reaches. A path is `.`-separated keys: `key?` may be absent, `key[]`
/// visits each element of an array, `*` each value of an object, `{a,b}`
/// each listed key (which may contain dots), and `""` is the node itself.
///
/// Field rows hold a value's type: a number in the range, an array with a
/// length in it, a non-empty `Str`; `Tag` is the `kind` tag at
/// `schema_version` 1; `Has` and `Only` bound an object's keys; a
/// `Summary` is `null` at each listed key exactly when its `count` is 0;
/// a `Section` is a nested document of another kind. Identities, each
/// named: `Sums` (the numbers the first path reaches sum to those the
/// second reaches; vacuous when the first reaches none), `AtMost`
/// (likewise, at most), and `Check`.
#[derive(Debug)]
enum Rule {
    Tag(&'static str),
    Num(Range),
    Int(Range),
    Arr(Range),
    Bool,
    Str,
    OptStr,
    OptNum,
    OneOf(&'static [&'static str]),
    Any,
    Has(&'static [&'static str]),
    Only(&'static [&'static str]),
    Summary(&'static [&'static str]),
    Section(Kind),
    Sums(&'static str, &'static str, &'static str),
    AtMost(&'static str, &'static str, &'static str),
    Check(&'static str, fn(&JsonValue) -> Result<(), String>),
}

fn check(kind: Kind, doc: &JsonValue, at: &str) -> Result<(), String> {
    for (path, rule) in kind.rules() {
        walk(doc, at, path, &mut |node, at| {
            let (name, result) = match rule {
                Rule::Section(kind) => return check(*kind, node, at),
                Rule::Sums(name, a, b) => (*name, compare(node, a, b, false)),
                Rule::AtMost(name, a, b) => (*name, compare(node, a, b, true)),
                Rule::Check(name, identity) => (*name, identity(node)),
                _ => ("", field(rule, node)),
            };
            result.map_err(|e| match name {
                "" => format!("{at}: {e}"),
                name => format!("{at}: {name}: {e}"),
            })
        })?;
    }
    Ok(())
}

/// Calls `visit` on every node `path` reaches from `node`, whose own path
/// is `at`, with the path of the node reached.
fn walk(
    node: &JsonValue,
    at: &str,
    path: &str,
    visit: &mut dyn FnMut(&JsonValue, &str) -> Result<(), String>,
) -> Result<(), String> {
    if path.is_empty() {
        return visit(node, at);
    }
    let (segment, rest) = match path.strip_prefix('{').and_then(|p| p.split_once('}')) {
        Some((keys, rest)) => (keys, rest.trim_start_matches('.')),
        None => path.split_once('.').unwrap_or((path, "")),
    };
    let each = segment.ends_with("[]");
    let key = segment.trim_end_matches("[]");
    let optional = key.ends_with('?');
    let key = key.trim_end_matches('?');
    let pairs = node
        .as_obj()
        .ok_or_else(|| format!("{at}: must be an object"))?;
    let children: Vec<(&str, Option<&JsonValue>)> = if key == "*" {
        pairs.iter().map(|(k, v)| (k.as_str(), Some(v))).collect()
    } else {
        key.split(',').map(|k| (k, node.get(k))).collect()
    };
    for (key, child) in children {
        let at = format!("{at}.{key}");
        match child {
            None if optional => {}
            None => return Err(format!("{at}: missing")),
            Some(JsonValue::Arr(items)) if each => {
                for (i, item) in items.iter().enumerate() {
                    walk(item, &format!("{at}[{i}]"), rest, visit)?;
                }
            }
            Some(_) if each => return Err(format!("{at}: must be an array")),
            Some(child) => walk(child, &at, rest, visit)?,
        }
    }
    Ok(())
}

fn field(rule: &Rule, v: &JsonValue) -> Result<(), String> {
    use JsonValue::{Arr, Bool, Null, Num, Obj, Str};
    let holds = match (rule, v) {
        (Rule::Tag(tag), Obj(_)) => {
            let kind = v.get("kind").and_then(JsonValue::as_str);
            let version = v.get("schema_version").and_then(JsonValue::as_num);
            let got = format!("kind {kind:?} at schema_version {version:?}, want {tag:?} at 1");
            return ensure((kind, version) == (Some(*tag), Some(1.0)), got);
        }
        (Rule::Num(range), Num(n)) => range.contains(n),
        (Rule::Int(range), Num(n)) => n.fract() == 0.0 && range.contains(n),
        (Rule::Arr(range), Arr(items)) => range.contains(&(items.len() as f64)),
        (Rule::Str, Str(s)) => !s.is_empty(),
        (Rule::OneOf(names), Str(s)) => names.contains(&s.as_str()),
        (Rule::Only(keys), Obj(pairs)) => pairs.iter().all(|(k, _)| keys.contains(&k.as_str())),
        (Rule::Has(keys), Obj(_)) => match keys.iter().find(|key| v.get(key).is_none()) {
            Some(key) => return Err(format!("missing {key:?}")),
            None => true,
        },
        // Percentiles are `null` exactly when no sample was taken.
        (Rule::Summary(keys), Obj(_)) => {
            let count = num(v, "count");
            let fits = |key: &&str| match v.get(key) {
                Some(Null) => count == 0.0,
                Some(Num(_)) => count > 0.0,
                _ => false,
            };
            match keys.iter().find(|key| !fits(key)) {
                Some(key) => return Err(format!("{key} must be null exactly when count is 0")),
                None => true,
            }
        }
        (Rule::Bool, Bool(_))
        | (Rule::OptStr, Null | Str(_))
        | (Rule::OptNum, Null | Num(_))
        | (Rule::Any, _) => true,
        _ => false,
    };
    holds
        .then_some(())
        .ok_or_else(|| format!("must be {rule:?}, got {v}"))
}

fn ensure(holds: bool, msg: String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(msg)
    }
}

/// `Sums` and `AtMost`: the numbers path `a` reaches against those `b`
/// reaches.
fn compare(node: &JsonValue, a: &str, b: &str, at_most: bool) -> Result<(), String> {
    let sum = |path: &str| -> Result<Option<f64>, String> {
        let mut total = None;
        walk(node, "$", path, &mut |v, _| {
            *total.get_or_insert(0.0) += v.as_num().unwrap_or(f64::NAN);
            Ok(())
        })?;
        Ok(total)
    };
    let Some(x) = sum(a)? else {
        return Ok(());
    };
    let y = sum(b)?.unwrap_or(0.0);
    let holds = if at_most { x <= y } else { x == y };
    let relation = if at_most { "above" } else { "not equal to" };
    ensure(holds, format!("{a} sums to {x}, {relation} {b} {y}"))
}

/// A numeric field of a node whose field rows already hold (`NaN`, which
/// fails every equality, when absent).
fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_num).unwrap_or(f64::NAN)
}

fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::as_arr).unwrap_or(&[])
}

fn bucket_counts(hist: &JsonValue) -> Result<(), String> {
    let count_of = |b: &JsonValue| b.as_arr().and_then(|p| p.get(1))?.as_num();
    let counts: Option<f64> = items(hist, "buckets").iter().map(count_of).sum();
    let (counts, count) = (counts.unwrap_or(f64::NAN), num(hist, "count"));
    let msg = format!("[edge, count] buckets sum to {counts}, count is {count}");
    ensure(counts == count, msg)
}

fn within_budget(registry: &JsonValue) -> Result<(), String> {
    let used = num(registry, "mem_used_bytes");
    let budget = registry.get("mem_budget_bytes").and_then(JsonValue::as_num);
    let msg = format!("mem_used_bytes {used} exceeds mem_budget_bytes {budget:?}");
    ensure(budget.is_none_or(|budget| used <= budget), msg)
}

fn whole_steps(slo: &JsonValue) -> Result<(), String> {
    let (step, window) = (num(slo, "step"), num(slo, "window"));
    let msg = format!("window ({window}) must be a positive multiple of step ({step})");
    ensure(window >= step && window % step == 0.0, msg)
}

fn rates(slo: &JsonValue) -> Result<(), String> {
    let (admitted, shed) = (num(slo, "admitted"), num(slo, "shed"));
    for (key, part, whole) in [
        ("shed_rate", shed, admitted + shed),
        ("deadline_miss_rate", num(slo, "deadline_missed"), admitted),
    ] {
        let rate = num(slo, key);
        let expect = if whole == 0.0 { 0.0 } else { part / whole };
        let msg = format!("{key} is {rate}, counters imply {expect}");
        ensure((rate - expect).abs() <= 1e-9, msg)?;
    }
    Ok(())
}

fn bin_order(slo: &JsonValue) -> Result<(), String> {
    for (i, bin) in items(slo, "per_bin").iter().enumerate() {
        let idx = num(bin, "bin");
        ensure(idx == i as f64, format!("per_bin[{i}] has bin index {idx}"))?;
    }
    Ok(())
}

/// The ring holds `min(recorded, cap)` events: `retained` in a summary,
/// the event list in a dump.
fn occupancy(doc: &JsonValue) -> Result<(), String> {
    let (held, what) = match doc.get("events").and_then(JsonValue::as_arr) {
        Some(events) => (events.len() as f64, "events"),
        None => (num(doc, "retained"), "retained"),
    };
    let (recorded, cap) = (num(doc, "recorded"), num(doc, "cap"));
    let msg = format!("{what} ({held}) must be min(recorded {recorded}, cap {cap})");
    ensure(held == recorded.min(cap), msg)
}

fn digest(dump: &JsonValue) -> Result<(), String> {
    for kind in FLIGHT_EVENT_KINDS {
        let n = dump.get("digest").map_or(f64::NAN, |d| num(d, kind));
        let kinds = items(dump, "events").iter().map(|e| e.get("kind"));
        let seen = kinds
            .filter(|k| k.and_then(JsonValue::as_str) == Some(kind))
            .count();
        let msg = format!("digest.{kind} is {n}, events contain {seen}");
        ensure(n == seen as f64, msg)?;
    }
    Ok(())
}

fn increasing(doc: &JsonValue, list: &str, key: &str) -> Result<(), String> {
    let values: Vec<f64> = items(doc, list).iter().map(|v| num(v, key)).collect();
    for (i, w) in values.windows(2).enumerate() {
        let msg = format!("{list}[{}].{key} {} not above {}", i + 1, w[1], w[0]);
        ensure(w[1] > w[0], msg)?;
    }
    Ok(())
}

fn within_cap(log: &JsonValue) -> Result<(), String> {
    let (n, cap) = (items(log, "chains").len(), num(log, "cap"));
    ensure(n as f64 <= cap, format!("{n} chains exceed cap {cap}"))
}

fn slo_verdict(slo: &JsonValue) -> Result<(), String> {
    let pass = |c: &JsonValue| c.get("pass") == Some(&JsonValue::Bool(true));
    let all = items(slo, "checks").iter().all(pass);
    let msg = format!("pass must be {all}, every checks[].pass");
    ensure(pass(slo) == all, msg)
}

fn phase_fields(event: &JsonValue) -> Result<(), String> {
    let ts = event.get("ts").and_then(JsonValue::as_num);
    let dur = event.get("dur").and_then(JsonValue::as_num);
    match event.get("ph").and_then(JsonValue::as_str) {
        Some("X") => ensure(
            ts >= Some(0.0) && dur >= Some(0.0),
            "a span needs ts and dur, both ≥ 0".to_string(),
        ),
        Some("i") => ensure(ts.is_some(), "an instant needs ts".to_string()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::spans::{Outcome, SpanLog, Stage};

    const KINDS: [Kind; 9] = [
        Kind::MetricsSnapshot,
        Kind::ServeSnapshot,
        Kind::StatsResponse,
        Kind::SloView,
        Kind::FlightSummary,
        Kind::FlightDump,
        Kind::SpanLog,
        Kind::LoadgenReport,
        Kind::ChromeTrace,
    ];

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        }
    }

    /// A registry carrying the whole required serve metric family.
    fn serve_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for name in SERVE_REQUIRED_COUNTERS {
            reg.counter(name);
        }
        for name in SERVE_REQUIRED_GAUGES {
            reg.gauge(name);
        }
        for name in SERVE_REQUIRED_HISTOGRAMS {
            reg.histogram(name);
        }
        reg
    }

    /// `base` with the top-level entries of `extra` appended.
    fn extend(base: JsonValue, extra: &str) -> JsonValue {
        let (JsonValue::Obj(base), JsonValue::Obj(extra)) =
            (base, JsonValue::parse(extra).unwrap())
        else {
            panic!("both are objects");
        };
        JsonValue::Obj([base, extra].concat())
    }

    const METRICS_DOC: &str = r#"{
        "kind": "nvwa-metrics", "schema_version": 1, "git_rev": null,
        "host_threads": 2,
        "counters": {"sim.total_cycles": 1000}, "gauges": {"sim.depth": 3},
        "histograms": {"eu.task_cycles": {"count": 2, "sum": 128, "min": 64,
            "max": 64, "p50": 64, "p90": 64, "p99": 64, "buckets": [[64, 2]]}},
        "series": {"su.busy": {"bucket_width": 100, "means": [0.5, 1]}}
    }"#;

    /// The global SLO view (a busy window); tenants carry an idle one.
    const SLO_DOC: &str = r#"{
        "now": 5000000, "window": 1000000, "step": 100000,
        "per_bin": [
            {"bin": 0, "count": 0, "p50": null, "p90": null, "p99": null},
            {"bin": 1, "count": 4, "p50": 800, "p90": 1500, "p99": 1500}
        ],
        "queue_depth": 3, "admitted": 8, "shed": 2,
        "deadline_missed": 1, "completed": 4,
        "shed_rate": 0.2, "deadline_miss_rate": 0.125
    }"#;

    const IDLE_SLO: &str = r#"{"now": 5, "window": 10, "step": 5, "queue_depth": 0,
        "per_bin": [{"bin": 0, "count": 0, "p50": null, "p90": null, "p99": null}],
        "admitted": 0, "shed": 0, "deadline_missed": 0, "completed": 0,
        "shed_rate": 0, "deadline_miss_rate": 0}"#;

    const FLIGHT_SUMMARY_DOC: &str = r#"{
        "cap": 4, "recorded": 6, "retained": 4, "dumps": 1,
        "last_dump_reason": "worker_panic",
        "last_dump_error": null,
        "by_kind": {"admit": 2, "batch_start": 1, "panic": 1}
    }"#;

    const FLIGHT_DUMP_DOC: &str = r#"{
        "kind": "nvwa-flight", "schema_version": 1,
        "reason": "worker_panic", "cap": 8, "recorded": 3,
        "events": [
            {"seq": 0, "t_us": 10, "kind": "admit", "a": 1, "b": 0, "c": 1},
            {"seq": 1, "t_us": 20, "kind": "batch_start", "a": 0, "b": 1, "c": 4},
            {"seq": 2, "t_us": 30, "kind": "panic", "a": 0, "b": 2, "c": 0}
        ],
        "digest": {"admit": 1, "shed": 0, "deadline": 0,
                   "batch_start": 1, "batch_done": 0, "panic": 1, "quota": 0,
                   "panic_batches": [0]}
    }"#;

    /// Two tenants: one with quota sheds and unmapped long reads, one
    /// clean; top-level keys come first so a first match hits the totals.
    const LOADGEN_DOC: &str = r#"{
        "kind": "nvwa-loadgen", "schema_version": 1, "mode": "open",
        "sent": 100, "received": 100, "lost": 0, "duplicates": 0,
        "ok": 70, "unmapped": 10, "shed": 0, "quota": 20, "deadline": 0,
        "errors": 0, "mapped": 70, "connections": 2, "reads": 100,
        "wall_ms": 12.5, "throughput_rps": 8000.0,
        "latency_us": {"count": 80, "mean": 900.0, "p50": 800.0,
                       "p90": 1500.0, "p99": 2100.0, "min": 300.0, "max": 2500.0},
        "tenants": [
            {"name": "homo_sapiens", "sent": 60, "received": 60, "lost": 0,
             "ok": 30, "unmapped": 10, "shed": 0, "quota": 20, "deadline": 0,
             "errors": 0, "mapped": 30,
             "latency_us": {"count": 40, "mean": 1.0, "p50": 1.0, "p90": 1.0,
                            "p99": 1.0, "min": 1.0, "max": 1.0}},
            {"name": "mus_musculus", "sent": 40, "received": 40, "lost": 0,
             "ok": 40, "unmapped": 0, "shed": 0, "quota": 0, "deadline": 0,
             "errors": 0, "mapped": 40,
             "latency_us": {"count": 40, "mean": 2.0, "p50": 2.0, "p90": 2.0,
                            "p99": 2.0, "min": 2.0, "max": 2.0}}
        ],
        "scrapes": {"snapshots": 3, "failures": 1, "first_error": "fetch: refused"},
        "slo": {"pass": false, "checks": [
            {"key": "lost", "bound": 0, "actual": 0, "pass": true},
            {"key": "p99_us", "bound": 1000, "actual": 2100, "pass": false}]}
    }"#;

    const CHROME_TRACE_DOC: &str = r#"{"traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "su"}},
        {"ph": "X", "pid": 1, "tid": 0, "name": "read", "ts": 0, "dur": 2},
        {"ph": "i", "pid": 1, "tid": 0, "name": "mark", "ts": 5}
    ]}"#;

    /// A valid document of `kind`, compact, so mutations match `"k":v`.
    fn sample(kind: Kind) -> String {
        let literal = |text: &str| JsonValue::parse(text).unwrap();
        let doc = match kind {
            Kind::MetricsSnapshot => literal(METRICS_DOC),
            Kind::ServeSnapshot | Kind::StatsResponse => {
                let mut reg = serve_registry();
                let admitted = reg.counter("serve.requests_admitted");
                reg.inc(admitted, 12);
                let quota = reg.counter("serve.requests_quota");
                reg.inc(quota, 3);
                extend(
                    reg.snapshot(&meta()),
                    &format!(
                        r#"{{"slo": {SLO_DOC}, "flight": {FLIGHT_SUMMARY_DOC}, "tenants": [
                            {{"name": "a", "quota_shed": 3, "shed_unrouted": 0, "slo": {IDLE_SLO},
                              "shards": [
                                {{"admitted": 5, "ok": 2, "unmapped": 1, "shed": 4,
                                  "deadline": 1, "errors": 1, "dead": false}},
                                {{"admitted": 3, "ok": 0, "unmapped": 0, "shed": 0,
                                  "deadline": 0, "errors": 0, "dead": true}}]}},
                            {{"name": "b", "quota_shed": 0, "shed_unrouted": 1, "slo": {IDLE_SLO},
                              "shards": [
                                {{"admitted": 4, "ok": 4, "unmapped": 0, "shed": 0,
                                  "deadline": 0, "errors": 0, "dead": false}}]}}],
                        "registry": {{"mem_used_bytes": 300, "mem_budget_bytes": 400,
                            "tenants": [
                            {{"name": "a", "shards": 2, "mem_bytes": 100, "in_flight": 3, "quota": 8}},
                            {{"name": "b", "shards": 1, "mem_bytes": 200, "in_flight": 0,
                              "quota": null}}]}}}}"#
                    ),
                )
            }
            Kind::SloView => literal(SLO_DOC),
            Kind::FlightSummary => literal(FLIGHT_SUMMARY_DOC),
            Kind::FlightDump => literal(FLIGHT_DUMP_DOC),
            Kind::SpanLog => {
                let mut log = SpanLog::new(8);
                for id in [2u64, 1, 3] {
                    log.push(RequestSpans::chain(
                        id,
                        0,
                        id,
                        0,
                        Outcome::Ok,
                        100 * id,
                        &[(Stage::Queue, 50), (Stage::Align, 200), (Stage::Write, 5)],
                    ));
                }
                log.to_json()
            }
            Kind::LoadgenReport => literal(LOADGEN_DOC),
            Kind::ChromeTrace => literal(CHROME_TRACE_DOC),
        };
        doc.to_string_compact()
    }

    /// One edit per field rule and per identity, a row per line:
    /// `Kind | from -> to ; from -> to | want`. Each edit replaces the
    /// first match in the kind's compact sample; the edited document must
    /// be rejected with `want` in the message, or accepted when `want` is
    /// `ok`.
    const MUTATIONS: &str = r#"
        MetricsSnapshot | "kind":"nvwa-metrics" -> "kind":"other" | want "nvwa-metrics"
        MetricsSnapshot | "schema_version":1 -> "schema_version":2 | schema_version Some(2.0)
        MetricsSnapshot | "git_rev":null -> "git_rev":7 | $.git_rev: must be OptStr
        MetricsSnapshot | "host_threads":2 -> "host_threads":0 | $.host_threads
        MetricsSnapshot | "host_threads":2, ->  | $.host_threads: missing
        MetricsSnapshot | "sim.total_cycles":1000 -> "sim.total_cycles":"x" | $.counters.sim.total_cycles
        MetricsSnapshot | "sim.depth":3 -> "sim.depth":null | $.gauges.sim.depth
        MetricsSnapshot | "p50":64 -> "p50":null | task_cycles: p50 must be null exactly when count is 0
        MetricsSnapshot | "buckets":[[64,2]] -> "buckets":[[64,1]] | bucket counts
        MetricsSnapshot | "buckets":[[64,2]] -> "buckets":[64] | bucket counts
        MetricsSnapshot | "buckets":[[64,2]] -> "buckets":7 | $.histograms.eu.task_cycles.buckets
        MetricsSnapshot | "bucket_width":100 -> "bucket_width":0 | $.series.su.busy.bucket_width
        MetricsSnapshot | [0.5,1] -> [0.5,"x"] | $.series.su.busy.means[1]
        ServeSnapshot | "serve.batch_size":{ -> "serve.batch_sizeX":{ | missing "serve.batch_size"
        ServeSnapshot | "ok":2 -> "ok":3 | $.tenants[0].shards[0]: answered: {ok,unmapped,deadline,errors} sums to 6, above admitted 5
        ServeSnapshot | "admitted":4 -> "admitted":5 | $: tenant rows: tenants?[].shards[].admitted sums to 13, not equal to counters.{serve.requests_admitted} 12
        ServeSnapshot | "quota_shed":3 -> "quota_shed":2 | tenant rows: tenants?[].quota_shed sums to 2, not equal to counters.{serve.requests_quota} 3
        ServeSnapshot | "shed_rate":0, -> "shed_rate":0.5, | $.tenants[0].slo: rates: shed_rate
        ServeSnapshot | "shed_rate":0.2 -> "shed_rate":0.5 | $.slo: rates: shed_rate
        ServeSnapshot | "retained":4 -> "retained":5 | $.flight: occupancy
        ServeSnapshot | "errors":0,"dead":true -> "errors":-1,"dead":true | $.tenants[0].shards[1].errors
        ServeSnapshot | "quota_shed":0, ->  | $.tenants[1].quota_shed: missing
        ServeSnapshot | "mem_bytes":100 -> "mem_bytes":150 | $.registry: resident: mem_used_bytes sums to 300
        ServeSnapshot | "mem_budget_bytes":400 -> "mem_budget_bytes":299 | budget: mem_used_bytes 300 exceeds
        ServeSnapshot | "mem_budget_bytes":400 -> "mem_budget_bytes":"x" | $.registry.mem_budget_bytes
        ServeSnapshot | "mem_budget_bytes":400 -> "mem_budget_bytes":null | ok
        ServeSnapshot | "flight":{ -> "flights":{ | ok
        StatsResponse | "flight":{ -> "flights":{ | $.flight: missing
        StatsResponse | "ok":2 -> "ok":3 | above admitted 5
        SloView | "step":100000 -> "step":0 | $.step
        SloView | "window":1000000 -> "window":1000001 | whole steps
        SloView | "now":5000000 -> "now":-1 | $.now
        SloView | "queue_depth":3 -> "queue_depth":-1 | $.queue_depth
        SloView | "shed_rate":0.2 -> "shed_rate":0.5 | rates: shed_rate is 0.5
        SloView | "deadline_miss_rate":0.125 -> "deadline_miss_rate":1.5 | $.deadline_miss_rate
        SloView | "deadline_missed":1 -> "deadline_missed":2 | rates: deadline_miss_rate
        SloView | "per_bin":[{ -> "per_bin":[],"x":[{ | $.per_bin: must be Arr
        SloView | "bin":1 -> "bin":2 | bin order
        SloView | "count":0,"p50":null -> "count":0,"p50":7 | $.per_bin[0]: p50
        SloView | "count":4 -> "count":4.5 | $.per_bin[1].count
        FlightSummary | "cap":4 -> "cap":0 | $.cap
        FlightSummary | "retained":4 -> "retained":5 | occupancy
        FlightSummary | "retained":4 -> "retained":3 ; "admit":2 -> "admit":1 | must be min
        FlightSummary | "dumps":1 -> "dumps":-1 | $.dumps
        FlightSummary | "last_dump_reason":"worker_panic" -> "last_dump_reason":3 | $.last_dump_reason
        FlightSummary | "last_dump_error":null -> "last_dump_error":3 | $.last_dump_error
        FlightSummary | "last_dump_error":null -> "last_dump_error":"flight_x.json: denied" | ok
        FlightSummary | "last_dump_error":null, ->  | $.last_dump_error: missing
        FlightSummary | "admit":2 -> "bogus":2 | $.by_kind: must be Only
        FlightSummary | "admit":2 -> "admit":3 | $: by_kind: retained sums to 4, not equal to by_kind.* 5
        FlightDump | "kind":"nvwa-flight" -> "kind":"nvwa-metrics" | want "nvwa-flight"
        FlightDump | "reason":"worker_panic" -> "reason":"" | $.reason
        FlightDump | "recorded":3 -> "recorded":5 | must be min
        FlightDump | "recorded":3 -> "recorded":2 | must be min
        FlightDump | "panic":1 -> "panic":2 | digest
        FlightDump | "quota":0, ->  | $.digest: missing "quota"
        FlightDump | "admit":1, -> "admit":"x", | digest: digest.admit is NaN
        FlightDump | "seq":2 -> "seq":1 | seq order
        FlightDump | "t_us":10 -> "t_us":-1 | $.events[0].t_us
        FlightDump | "kind":"admit" -> "kind":"bogus" | $.events[0].kind
        FlightDump | "a":1 -> "a":"x" | $.events[0].a
        SpanLog | "start_ns":150 -> "start_ns":151 | $.chains[0]: span chain
        SpanLog | "cap":8 -> "cap":2 | within cap
        SpanLog | "dropped":0 -> "dropped":-1 | $.dropped
        SpanLog | "trace_id":2 -> "trace_id":1 | trace order
        LoadgenReport | "lost":0 -> "lost":3 | $: conservation: sent sums to 100, not equal to {received,lost} 103
        LoadgenReport | "mode":"open" -> "mode":"sideways" | $.mode
        LoadgenReport | "ok":70 -> "ok":71 | $: conservation: received sums to 100
        LoadgenReport | "ok":30 -> "ok":31 | $.tenants[0]: conservation: received
        LoadgenReport | "received":60,"lost":0 -> "received":60,"lost":1 | $.tenants[0]: conservation: sent sums to 60
        LoadgenReport | "quota":20, ->  | $.quota: missing
        LoadgenReport | "unmapped":10, ->  ; "ok":70 -> "ok":80 | $.unmapped: missing
        LoadgenReport | "sent":40,"received":40 -> "sent":39,"received":39 ; "ok":40 -> "ok":39 | $: totals: tenants?[].sent sums to 99
        LoadgenReport | "ok":30,"unmapped":10,"shed":0 -> "ok":30,"unmapped":9,"shed":1 | $: totals: tenants?[].unmapped sums to 9
        LoadgenReport | "p50":800 -> "p50":null | $.latency_us: p50
        LoadgenReport | "p50":2 -> "p50":null | $.tenants[1].latency_us: p50
        LoadgenReport | "name":"homo_sapiens" -> "name":"" | $.tenants[0].name
        LoadgenReport | "wall_ms":12.5 -> "wall_ms":0 | $.wall_ms
        LoadgenReport | "throughput_rps":8000 -> "throughput_rps":-1 | $.throughput_rps
        LoadgenReport | "duplicates":0 -> "duplicates":0.5 | $.duplicates
        LoadgenReport | "snapshots":3 -> "snapshots":1.5 | $.scrapes.snapshots
        LoadgenReport | "failures":1 -> "failures":-1 | $.scrapes.failures
        LoadgenReport | "first_error":"fetch: refused" -> "first_error":7 | $.scrapes.first_error
        LoadgenReport | "first_error":"fetch: refused" -> "first_error":null | ok
        LoadgenReport | "pass":false, -> "pass":true, | $.slo: slo verdict
        LoadgenReport | "pass":false} -> "pass":"no"} | $.slo.checks[1].pass
        LoadgenReport | "key":"lost" -> "key":"" | $.slo.checks[0].key
        LoadgenReport | "bound":0 -> "bound":null | $.slo.checks[0].bound
        LoadgenReport | "actual":0 -> "actual":"x" | $.slo.checks[0].actual
        LoadgenReport | "latency_us":{"count":80,"mean":900,"p50":800,"p90":1500,"p99":2100,"min":300,"max":2500} -> "latency_us":{"count":0,"mean":null,"p50":null,"p90":null,"p99":null,"min":null,"max":null} | ok
        ChromeTrace | ,"dur":2 ->  | $.traceEvents[1]: phase fields
        ChromeTrace | "ts":0 -> "ts":-1 | $.traceEvents[1]: phase fields
        ChromeTrace | ,"ts":5 ->  | $.traceEvents[2]: phase fields
        ChromeTrace | "ph":"X" -> "ph":"Q" | $.traceEvents[1].ph
        ChromeTrace | "pid":1 -> "pid":"x" | $.traceEvents[0].pid
        ChromeTrace | "name":"read", ->  | $.traceEvents[1].name: missing
    "#;

    #[test]
    fn every_rule_rejects_its_mutation() {
        for kind in KINDS {
            validate(kind, &JsonValue::parse(&sample(kind)).unwrap())
                .unwrap_or_else(|e| panic!("{kind:?} sample: {e}"));
        }
        for row in MUTATIONS.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let [kind, edits, want] = [0, 1, 2].map(|i| row.split(" | ").nth(i).unwrap());
            let kind = *KINDS.iter().find(|k| format!("{k:?}") == kind).unwrap();
            let mut text = sample(kind);
            for edit in edits.split(" ; ") {
                let (from, to) = edit.split_once(" -> ").unwrap();
                assert!(text.contains(from), "{row}: no {from} in {text}");
                text = text.replacen(from, to.trim(), 1);
            }
            match validate(kind, &JsonValue::parse(&text).unwrap()) {
                Ok(()) => assert_eq!(want, "ok", "{row}: accepted"),
                Err(err) => assert!(want != "ok" && err.contains(want), "{row}: {err}"),
            }
        }
    }

    #[test]
    fn emitted_documents_validate_and_are_recognized() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sim.total_cycles");
        reg.inc(c, 1000);
        let h = reg.histogram("eu.task_cycles");
        reg.observe(h, 64);
        let doc = JsonValue::parse(&reg.snapshot_json(&meta())).unwrap();
        assert_eq!(validate_any(&doc), Ok("metrics snapshot"));
        let doc = serve_registry().snapshot(&meta());
        assert_eq!(validate_any(&doc), Ok("serve metrics snapshot"));

        // A snapshot missing one histogram fails the serve schema while
        // still passing the base schema.
        let mut partial = MetricsRegistry::new();
        for name in SERVE_REQUIRED_COUNTERS {
            partial.counter(name);
        }
        for name in SERVE_REQUIRED_GAUGES {
            partial.gauge(name);
        }
        let doc = partial.snapshot(&meta());
        validate(Kind::MetricsSnapshot, &doc).unwrap();
        let err = validate_any(&doc).unwrap_err();
        assert!(err.contains("serve.batch_size"), "{err}");

        for (text, kind) in [
            (r#"{"kind": "nvwa-metrics"}"#, Some(Kind::MetricsSnapshot)),
            (
                r#"{"kind": "nvwa-metrics", "counters": {"serve.requests_admitted": 1}}"#,
                Some(Kind::ServeSnapshot),
            ),
            (r#"{"kind": "nvwa-loadgen"}"#, Some(Kind::LoadgenReport)),
            (r#"{"kind": "nvwa-flight"}"#, Some(Kind::FlightDump)),
            (r#"{"kind": "nvwa-spanlog"}"#, Some(Kind::SpanLog)),
            (r#"{"traceEvents": []}"#, Some(Kind::ChromeTrace)),
            (r#"{"scenarios": [], "speedups": {}}"#, None),
        ] {
            assert_eq!(Kind::of(&JsonValue::parse(text).unwrap()), kind, "{text}");
        }
        let err = validate_any(&JsonValue::parse(r#"{"scenarios": []}"#).unwrap()).unwrap_err();
        assert!(err.contains("unrecognized"), "{err}");
    }

    #[test]
    fn git_revision_resolves_in_this_repo() {
        // The test harness runs inside the repository, so a revision is
        // available and looks like a hex object id.
        if let Some(rev) = git_revision() {
            assert!(rev.len() >= 7, "{rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
    }
}
