//! Snapshot metadata and schema validation for the repo's JSON artifacts.
//!
//! Three file kinds are validated here (all produced or consumed by the
//! binaries and CI):
//!
//! * **metrics snapshots** (`--metrics-out`): the versioned document built
//!   by [`crate::MetricsRegistry::snapshot`];
//! * **Chrome traces** (`--trace-out`);
//! * **live observability documents**: the windowed [`crate::SloView`]
//!   and flight-recorder summary embedded in serve `stats` responses,
//!   standalone flight-recorder dumps (`"kind": "nvwa-flight"`), and
//!   per-request span logs (`"kind": "nvwa-spanlog"`).

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

fn require<'a>(doc: &'a JsonValue, key: &str, what: &str) -> Result<&'a JsonValue, String> {
    doc.get(key)
        .ok_or_else(|| format!("{what}: missing key {key:?}"))
}

fn require_num(doc: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    require(doc, key, what)?
        .as_num()
        .ok_or_else(|| format!("{what}: {key:?} must be a number"))
}

fn require_numeric_object(doc: &JsonValue, key: &str, what: &str) -> Result<(), String> {
    let obj = require(doc, key, what)?
        .as_obj()
        .ok_or_else(|| format!("{what}: {key:?} must be an object"))?;
    for (name, value) in obj {
        if value.as_num().is_none() {
            return Err(format!("{what}: {key}.{name} must be a number"));
        }
    }
    Ok(())
}

/// Validates a metrics snapshot against schema version 1.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_metrics_snapshot(doc: &JsonValue) -> Result<(), String> {
    let what = "metrics snapshot";
    let kind = require(doc, "kind", what)?.as_str();
    if kind != Some("nvwa-metrics") {
        return Err(format!(
            "{what}: kind must be \"nvwa-metrics\", got {kind:?}"
        ));
    }
    let version = require_num(doc, "schema_version", what)?;
    if version != 1.0 {
        return Err(format!("{what}: unsupported schema_version {version}"));
    }
    match require(doc, "git_rev", what)? {
        JsonValue::Null | JsonValue::Str(_) => {}
        other => {
            return Err(format!(
                "{what}: git_rev must be string or null, got {other}"
            ))
        }
    }
    let threads = require_num(doc, "host_threads", what)?;
    if threads < 1.0 || threads.fract() != 0.0 {
        return Err(format!("{what}: host_threads must be a positive integer"));
    }
    require_numeric_object(doc, "counters", what)?;
    require_numeric_object(doc, "gauges", what)?;
    let histograms = require(doc, "histograms", what)?
        .as_obj()
        .ok_or_else(|| format!("{what}: histograms must be an object"))?;
    for (name, hist) in histograms {
        let count =
            require_num(hist, "count", what).map_err(|e| format!("{e} (histogram {name})"))?;
        for key in ["p50", "p90", "p99", "min", "max"] {
            match require(hist, key, what).map_err(|e| format!("{e} (histogram {name})"))? {
                JsonValue::Null if count == 0.0 => {}
                JsonValue::Num(_) if count > 0.0 => {}
                other => {
                    return Err(format!(
                        "{what}: histogram {name}.{key} inconsistent with count {count}: {other}"
                    ))
                }
            }
        }
        let buckets = require(hist, "buckets", what)?
            .as_arr()
            .ok_or_else(|| format!("{what}: histogram {name}.buckets must be an array"))?;
        let bucket_total: f64 = buckets
            .iter()
            .map(|b| {
                b.as_arr()
                    .and_then(|p| p.get(1))
                    .and_then(JsonValue::as_num)
            })
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| format!("{what}: histogram {name} has malformed buckets"))?
            .iter()
            .sum();
        if bucket_total != count {
            return Err(format!(
                "{what}: histogram {name} bucket counts sum to {bucket_total}, count is {count}"
            ));
        }
    }
    let series = require(doc, "series", what)?
        .as_obj()
        .ok_or_else(|| format!("{what}: series must be an object"))?;
    for (name, entry) in series {
        let width =
            require_num(entry, "bucket_width", what).map_err(|e| format!("{e} (series {name})"))?;
        if width < 1.0 {
            return Err(format!("{what}: series {name} bucket_width must be ≥ 1"));
        }
        let means = require(entry, "means", what)?
            .as_arr()
            .ok_or_else(|| format!("{what}: series {name}.means must be an array"))?;
        if means.iter().any(|v| v.as_num().is_none()) {
            return Err(format!("{what}: series {name}.means must be numeric"));
        }
    }
    Ok(())
}

/// Counter names every serve metrics snapshot must carry. The server
/// pre-registers these at startup, so the snapshot is schema-complete even
/// before the first request; [`validate_serve_snapshot`] requires them.
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

/// Whether a (valid) metrics snapshot came from the serving subsystem —
/// recognized by the presence of the serve counter family.
pub fn is_serve_snapshot(doc: &JsonValue) -> bool {
    doc.get("counters")
        .and_then(|c| c.get(SERVE_REQUIRED_COUNTERS[0]))
        .is_some()
}

/// Validates a serve metrics snapshot: the base schema of
/// [`validate_metrics_snapshot`] plus the serve metric family
/// ([`SERVE_REQUIRED_COUNTERS`], [`SERVE_REQUIRED_GAUGES`],
/// [`SERVE_REQUIRED_HISTOGRAMS`]) and, when present, the `slo`, `flight`,
/// `tenants` and `registry` sections of a `stats` reply.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_serve_snapshot(doc: &JsonValue) -> Result<(), String> {
    validate_metrics_snapshot(doc)?;
    let what = "serve metrics snapshot";
    let family = [
        ("counters", SERVE_REQUIRED_COUNTERS),
        ("gauges", SERVE_REQUIRED_GAUGES),
        ("histograms", SERVE_REQUIRED_HISTOGRAMS),
    ];
    for (section, names) in family {
        let obj = require(doc, section, what)?;
        for name in names {
            if obj.get(name).is_none() {
                return Err(format!("{what}: missing {section} entry {name:?}"));
            }
        }
    }
    // Live-observability sections are optional (a bare registry snapshot
    // is still a valid serve snapshot) but validated when present — the
    // `stats` endpoint always includes all four.
    if let Some(slo) = doc.get("slo") {
        validate_slo_view(slo).map_err(|e| format!("{what}: {e}"))?;
    }
    if let Some(flight) = doc.get("flight") {
        validate_flight_summary(flight).map_err(|e| format!("{what}: {e}"))?;
    }
    // The tenant sections carry identities that hold in every scrape: the
    // server moves a global and a per-tenant count under one lock and
    // reads counters and tenant rows under one acquisition.
    if doc.get("tenants").is_some() {
        let what = "serve tenants";
        let (mut admitted_sum, mut quota_sum) = (0.0, 0.0);
        for (t, row) in require_arr(doc, "tenants", what)?.iter().enumerate() {
            quota_sum += require_count(row, "quota_shed", what)?;
            for (i, shard) in require_arr(row, "shards", what)?.iter().enumerate() {
                let admitted = require_count(shard, "admitted", what)?;
                let mut answered = 0.0;
                for key in ["ok", "unmapped", "deadline", "errors"] {
                    answered += require_count(shard, key, what)?;
                }
                // A request is answered after it is admitted, never before.
                if answered > admitted {
                    return Err(format!(
                        "{what}: [{t}].shards[{i}] answered {answered}, admitted {admitted}"
                    ));
                }
                admitted_sum += admitted;
            }
            validate_slo_view(require(row, "slo", what)?)
                .map_err(|e| format!("{what}: [{t}]: {e}"))?;
        }
        let counters = require(doc, "counters", what)?;
        for (sum, counter) in [
            (admitted_sum, "serve.requests_admitted"),
            (quota_sum, "serve.requests_quota"),
        ] {
            let global = require_num(counters, counter, what)?;
            if sum != global {
                return Err(format!(
                    "{what}: rows sum to {sum}, counter {counter} is {global}"
                ));
            }
        }
    }
    if let Some(registry) = doc.get("registry") {
        let what = "serve registry";
        let mut mem_sum = 0.0;
        for row in require_arr(registry, "tenants", what)? {
            mem_sum += require_count(row, "mem_bytes", what)?;
        }
        let used = require_count(registry, "mem_used_bytes", what)?;
        if mem_sum != used {
            return Err(format!(
                "{what}: mem_bytes sum to {mem_sum}, mem_used_bytes is {used}"
            ));
        }
        match require(registry, "mem_budget_bytes", what)? {
            JsonValue::Null => {}
            JsonValue::Num(budget) if used <= *budget => {}
            other => {
                return Err(format!(
                    "{what}: mem_used_bytes {used} exceeds mem_budget_bytes {other}"
                ));
            }
        }
    }
    Ok(())
}

fn require_arr<'a>(doc: &'a JsonValue, key: &str, what: &str) -> Result<&'a [JsonValue], String> {
    require(doc, key, what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: {key:?} must be an array"))
}

/// Validates a serve `stats` response: a serve snapshot that must also
/// carry the live `slo` view and `flight` summary.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_stats_response(doc: &JsonValue) -> Result<(), String> {
    validate_serve_snapshot(doc)?;
    let what = "stats response";
    require(doc, "slo", what)?;
    require(doc, "flight", what)?;
    Ok(())
}

fn require_count(doc: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    let v = require_num(doc, key, what)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("{what}: {key} must be a non-negative integer"));
    }
    Ok(v)
}

/// Validates a windowed SLO view (the `slo` section of a `stats`
/// response, built by [`crate::SloView::to_json`]).
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_slo_view(doc: &JsonValue) -> Result<(), String> {
    let what = "slo view";
    let step = require_count(doc, "step", what)?;
    let window = require_count(doc, "window", what)?;
    require_count(doc, "now", what)?;
    if step < 1.0 || window < step || (window % step) != 0.0 {
        return Err(format!(
            "{what}: window ({window}) must be a positive multiple of step ({step})"
        ));
    }
    let depth = require_num(doc, "queue_depth", what)?;
    if depth < 0.0 {
        return Err(format!("{what}: queue_depth must be ≥ 0"));
    }
    let admitted = require_count(doc, "admitted", what)?;
    let shed = require_count(doc, "shed", what)?;
    let missed = require_count(doc, "deadline_missed", what)?;
    require_count(doc, "completed", what)?;
    for (key, num, den) in [
        ("shed_rate", shed, admitted + shed),
        ("deadline_miss_rate", missed, admitted),
    ] {
        let rate = require_num(doc, key, what)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("{what}: {key} must be in [0, 1], got {rate}"));
        }
        let expect = if den == 0.0 { 0.0 } else { num / den };
        if (rate - expect).abs() > 1e-9 {
            return Err(format!("{what}: {key} is {rate}, counters imply {expect}"));
        }
    }
    let per_bin = require(doc, "per_bin", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: per_bin must be an array"))?;
    if per_bin.is_empty() {
        return Err(format!("{what}: per_bin must be non-empty"));
    }
    for (i, bin) in per_bin.iter().enumerate() {
        let idx = require_count(bin, "bin", what).map_err(|e| format!("{e} (per_bin[{i}])"))?;
        if idx != i as f64 {
            return Err(format!("{what}: per_bin[{i}] has bin index {idx}"));
        }
        let count = require_count(bin, "count", what).map_err(|e| format!("{e} (per_bin[{i}])"))?;
        for key in ["p50", "p90", "p99"] {
            match require(bin, key, what).map_err(|e| format!("{e} (per_bin[{i}])"))? {
                JsonValue::Null if count == 0.0 => {}
                JsonValue::Num(_) if count > 0.0 => {}
                other => {
                    return Err(format!(
                        "{what}: per_bin[{i}].{key} inconsistent with count {count}: {other}"
                    ))
                }
            }
        }
    }
    Ok(())
}

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

/// Validates a flight-recorder summary (the `flight` section of a `stats`
/// response): ring occupancy and per-kind counts. The recorder keeps the
/// ring and `recorded` under one lock and a summary reads both under one
/// acquisition, so `retained == min(recorded, cap)` holds in every scrape,
/// live or quiescent.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_flight_summary(doc: &JsonValue) -> Result<(), String> {
    let what = "flight summary";
    let cap = require_count(doc, "cap", what)?;
    if cap < 1.0 {
        return Err(format!("{what}: cap must be ≥ 1"));
    }
    let recorded = require_count(doc, "recorded", what)?;
    let retained = require_count(doc, "retained", what)?;
    if retained != recorded.min(cap) {
        return Err(format!(
            "{what}: retained ({retained}) must be min(recorded {recorded}, cap {cap})"
        ));
    }
    require_count(doc, "dumps", what)?;
    match require(doc, "last_dump_reason", what)? {
        JsonValue::Null | JsonValue::Str(_) => {}
        other => {
            return Err(format!(
                "{what}: last_dump_reason must be string or null, got {other}"
            ))
        }
    }
    let by_kind = require(doc, "by_kind", what)?
        .as_obj()
        .ok_or_else(|| format!("{what}: by_kind must be an object"))?;
    let mut total = 0.0;
    for (kind, count) in by_kind {
        if !FLIGHT_EVENT_KINDS.contains(&kind.as_str()) {
            return Err(format!("{what}: unknown event kind {kind:?}"));
        }
        let count = count
            .as_num()
            .ok_or_else(|| format!("{what}: by_kind.{kind} must be a number"))?;
        total += count;
    }
    if total != retained {
        return Err(format!(
            "{what}: by_kind sums to {total}, retained is {retained}"
        ));
    }
    Ok(())
}

/// Validates a flight-recorder dump (`"kind": "nvwa-flight"`): event
/// shape, strictly increasing sequence numbers, occupancy identities and
/// digest/event agreement.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_flight_dump(doc: &JsonValue) -> Result<(), String> {
    let what = "flight dump";
    let kind = require(doc, "kind", what)?.as_str();
    if kind != Some("nvwa-flight") {
        return Err(format!(
            "{what}: kind must be \"nvwa-flight\", got {kind:?}"
        ));
    }
    let version = require_num(doc, "schema_version", what)?;
    if version != 1.0 {
        return Err(format!("{what}: unsupported schema_version {version}"));
    }
    let reason = require(doc, "reason", what)?
        .as_str()
        .ok_or_else(|| format!("{what}: reason must be a string"))?;
    if reason.is_empty() {
        return Err(format!("{what}: reason must be non-empty"));
    }
    let cap = require_count(doc, "cap", what)?;
    let recorded = require_count(doc, "recorded", what)?;
    let events = require(doc, "events", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: events must be an array"))?;
    // The same occupancy identity as the summary: a dump snapshots the
    // ring and `recorded` under the recorder's one lock.
    if events.len() as f64 != recorded.min(cap) {
        return Err(format!(
            "{what}: {} events must be min(recorded {recorded}, cap {cap})",
            events.len()
        ));
    }
    let mut prev_seq = -1.0f64;
    let mut counts = vec![0.0f64; FLIGHT_EVENT_KINDS.len()];
    for (i, event) in events.iter().enumerate() {
        let seq = require_count(event, "seq", what).map_err(|e| format!("{e} (event {i})"))?;
        if seq <= prev_seq {
            return Err(format!(
                "{what}: event {i} seq {seq} not greater than previous {prev_seq}"
            ));
        }
        prev_seq = seq;
        let t = require_num(event, "t_us", what).map_err(|e| format!("{e} (event {i})"))?;
        if t < 0.0 {
            return Err(format!("{what}: event {i} has negative t_us"));
        }
        let kind = require(event, "kind", what)
            .map_err(|e| format!("{e} (event {i})"))?
            .as_str()
            .ok_or_else(|| format!("{what}: event {i} kind must be a string"))?;
        let slot = FLIGHT_EVENT_KINDS
            .iter()
            .position(|k| *k == kind)
            .ok_or_else(|| format!("{what}: event {i} has unknown kind {kind:?}"))?;
        counts[slot] += 1.0;
        for key in ["a", "b", "c"] {
            require_num(event, key, what).map_err(|e| format!("{e} (event {i})"))?;
        }
    }
    let digest = require(doc, "digest", what)?;
    for (slot, kind) in FLIGHT_EVENT_KINDS.iter().enumerate() {
        let n = require_count(digest, kind, what).map_err(|e| format!("{e} (digest)"))?;
        if n != counts[slot] {
            return Err(format!(
                "{what}: digest.{kind} is {n}, events contain {}",
                counts[slot]
            ));
        }
    }
    Ok(())
}

/// Validates a span-log document (`"kind": "nvwa-spanlog"`): every chain
/// parses, passes [`RequestSpans::check`] (contiguous, ordered, durations
/// summing to `e2e_ns`), and trace ids are strictly increasing (the log
/// sorts by trace id, so this also enforces uniqueness).
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_span_log(doc: &JsonValue) -> Result<(), String> {
    let what = "span log";
    let kind = require(doc, "kind", what)?.as_str();
    if kind != Some("nvwa-spanlog") {
        return Err(format!(
            "{what}: kind must be \"nvwa-spanlog\", got {kind:?}"
        ));
    }
    let version = require_num(doc, "schema_version", what)?;
    if version != 1.0 {
        return Err(format!("{what}: unsupported schema_version {version}"));
    }
    let cap = require_count(doc, "cap", what)?;
    require_count(doc, "dropped", what)?;
    let chains = require(doc, "chains", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: chains must be an array"))?;
    if chains.len() as f64 > cap {
        return Err(format!("{what}: {} chains exceed cap {cap}", chains.len()));
    }
    let mut prev_id: Option<u64> = None;
    for (i, chain) in chains.iter().enumerate() {
        let parsed =
            RequestSpans::from_json(chain).map_err(|e| format!("{what}: chains[{i}]: {e}"))?;
        parsed
            .check()
            .map_err(|e| format!("{what}: chains[{i}]: {e}"))?;
        if let Some(prev) = prev_id {
            if parsed.trace_id <= prev {
                return Err(format!(
                    "{what}: chains[{i}] trace_id {} not greater than previous {prev}",
                    parsed.trace_id
                ));
            }
        }
        prev_id = Some(parsed.trace_id);
    }
    Ok(())
}

/// Validates a loadgen report (`"kind": "nvwa-loadgen"`, schema version 1):
/// the accounting identities (`sent = received + lost`,
/// `received = ok + unmapped + shed + quota + deadline + errors`) and
/// the latency summary, whose percentiles are null exactly when no
/// latency was sampled. When a `tenants` array is present, the same
/// identities are checked per tenant and the per-tenant counts must sum
/// to the totals.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_loadgen_report(doc: &JsonValue) -> Result<(), String> {
    let what = "loadgen report";
    let kind = require(doc, "kind", what)?.as_str();
    if kind != Some("nvwa-loadgen") {
        return Err(format!(
            "{what}: kind must be \"nvwa-loadgen\", got {kind:?}"
        ));
    }
    let version = require_num(doc, "schema_version", what)?;
    if version != 1.0 {
        return Err(format!("{what}: unsupported schema_version {version}"));
    }
    let mode = require(doc, "mode", what)?.as_str();
    if !matches!(mode, Some("closed") | Some("open")) {
        return Err(format!(
            "{what}: mode must be \"closed\" or \"open\", got {mode:?}"
        ));
    }
    let count_of = |key: &str| -> Result<f64, String> {
        let v = require_num(doc, key, what)?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("{what}: {key} must be a non-negative integer"));
        }
        Ok(v)
    };
    let sent = count_of("sent")?;
    let received = count_of("received")?;
    let ok = count_of("ok")?;
    let shed = count_of("shed")?;
    let quota = count_of("quota")?;
    let unmapped = count_of("unmapped")?;
    let deadline = count_of("deadline")?;
    let errors = count_of("errors")?;
    let lost = count_of("lost")?;
    count_of("duplicates")?;
    count_of("mapped")?;
    count_of("connections")?;
    if sent != received + lost {
        return Err(format!(
            "{what}: sent ({sent}) must equal received ({received}) + lost ({lost})"
        ));
    }
    if received != ok + unmapped + shed + quota + deadline + errors {
        return Err(format!(
            "{what}: received ({received}) must equal ok+unmapped+shed+quota+deadline+errors \
             ({ok}+{unmapped}+{shed}+{quota}+{deadline}+{errors})"
        ));
    }
    if let Some(tenants) = doc.get("tenants") {
        let arr = tenants
            .as_arr()
            .ok_or_else(|| format!("{what}: tenants must be an array"))?;
        let mut sums = [0.0f64; 5]; // sent, received, lost, quota, unmapped
        for (i, t) in arr.iter().enumerate() {
            let twhat = format!("loadgen report tenants[{i}]");
            let name = require(t, "name", &twhat)?;
            if !matches!(name.as_str(), Some(s) if !s.is_empty()) {
                return Err(format!("{twhat}: name must be a non-empty string"));
            }
            let tcount = |key: &str| -> Result<f64, String> {
                let v = require_num(t, key, &twhat)?;
                if v < 0.0 || v.fract() != 0.0 {
                    return Err(format!("{twhat}: {key} must be a non-negative integer"));
                }
                Ok(v)
            };
            let t_sent = tcount("sent")?;
            let t_received = tcount("received")?;
            let t_lost = tcount("lost")?;
            let t_ok = tcount("ok")?;
            let t_shed = tcount("shed")?;
            let t_quota = tcount("quota")?;
            let t_unmapped = tcount("unmapped")?;
            let t_deadline = tcount("deadline")?;
            let t_errors = tcount("errors")?;
            tcount("mapped")?;
            if t_sent != t_received + t_lost {
                return Err(format!(
                    "{twhat}: sent ({t_sent}) must equal received ({t_received}) + lost ({t_lost})"
                ));
            }
            if t_received != t_ok + t_unmapped + t_shed + t_quota + t_deadline + t_errors {
                return Err(format!(
                    "{twhat}: received ({t_received}) must equal \
                     ok+unmapped+shed+quota+deadline+errors \
                     ({t_ok}+{t_unmapped}+{t_shed}+{t_quota}+{t_deadline}+{t_errors})"
                ));
            }
            sums[0] += t_sent;
            sums[1] += t_received;
            sums[2] += t_lost;
            sums[3] += t_quota;
            sums[4] += t_unmapped;
        }
        if !arr.is_empty() {
            for (sum, (key, total)) in sums.iter().zip([
                ("sent", sent),
                ("received", received),
                ("lost", lost),
                ("quota", quota),
                ("unmapped", unmapped),
            ]) {
                if *sum != total {
                    return Err(format!(
                        "{what}: per-tenant {key} sums to {sum} but the report total is {total}"
                    ));
                }
            }
        }
    }
    let wall_ms = require_num(doc, "wall_ms", what)?;
    if wall_ms.is_nan() || wall_ms <= 0.0 {
        return Err(format!("{what}: wall_ms must be > 0, got {wall_ms}"));
    }
    let rps = require_num(doc, "throughput_rps", what)?;
    if rps < 0.0 {
        return Err(format!("{what}: throughput_rps must be ≥ 0"));
    }
    let latency = require(doc, "latency_us", what)?;
    let count = require_num(latency, "count", what).map_err(|e| format!("{e} (latency_us)"))?;
    for key in ["mean", "p50", "p90", "p99", "min", "max"] {
        match require(latency, key, what).map_err(|e| format!("{e} (latency_us)"))? {
            JsonValue::Null if count == 0.0 => {}
            JsonValue::Num(_) if count > 0.0 => {}
            other => {
                return Err(format!(
                    "{what}: latency_us.{key} inconsistent with count {count}: {other}"
                ))
            }
        }
    }
    Ok(())
}

/// Validates a Chrome trace document: a `traceEvents` array whose entries
/// all carry `ph`/`pid`/`tid`/`name`, with `ts`/`dur` on spans.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_chrome_trace(doc: &JsonValue) -> Result<(), String> {
    let what = "chrome trace";
    let events = require(doc, "traceEvents", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: traceEvents must be an array"))?;
    for (i, event) in events.iter().enumerate() {
        let ph = require(event, "ph", what)
            .map_err(|e| format!("{e} (event {i})"))?
            .as_str()
            .ok_or_else(|| format!("{what}: event {i} ph must be a string"))?;
        require_num(event, "pid", what).map_err(|e| format!("{e} (event {i})"))?;
        require_num(event, "tid", what).map_err(|e| format!("{e} (event {i})"))?;
        require(event, "name", what).map_err(|e| format!("{e} (event {i})"))?;
        match ph {
            "X" => {
                let ts = require_num(event, "ts", what).map_err(|e| format!("{e} (event {i})"))?;
                let dur =
                    require_num(event, "dur", what).map_err(|e| format!("{e} (event {i})"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("{what}: event {i} has negative ts/dur"));
                }
            }
            "i" => {
                require_num(event, "ts", what).map_err(|e| format!("{e} (event {i})"))?;
            }
            "M" => {}
            other => return Err(format!("{what}: event {i} has unknown phase {other:?}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn fresh_snapshot_validates() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sim.total_cycles");
        reg.inc(c, 1000);
        let h = reg.histogram("eu.task_cycles");
        reg.observe(h, 64);
        let text = reg.snapshot_json(&SnapshotMeta {
            host_threads: 2,
            git_rev: None,
        });
        let doc = JsonValue::parse(&text).unwrap();
        validate_metrics_snapshot(&doc).unwrap();
    }

    #[test]
    fn snapshot_validation_catches_violations() {
        let mut reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let good = reg.snapshot(&SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        });
        // Wrong kind.
        let mut bad = good.clone();
        if let JsonValue::Obj(pairs) = &mut bad {
            pairs[0].1 = JsonValue::Str("other".to_string());
        }
        assert!(validate_metrics_snapshot(&bad).is_err());
        // Missing host_threads.
        let mut bad = good.clone();
        if let JsonValue::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "host_threads");
        }
        assert!(validate_metrics_snapshot(&bad).is_err());
    }

    #[test]
    fn trace_validation_checks_span_fields() {
        let good = r#"{"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 0, "name": "read", "ts": 0, "dur": 2}
        ]}"#;
        validate_chrome_trace(&JsonValue::parse(good).unwrap()).unwrap();
        let bad = r#"{"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 0, "name": "read", "ts": 0}
        ]}"#;
        assert!(validate_chrome_trace(&JsonValue::parse(bad).unwrap()).is_err());
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

    #[test]
    fn serve_snapshot_requires_the_metric_family() {
        let meta = SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        };
        let doc = serve_registry().snapshot(&meta);
        assert!(is_serve_snapshot(&doc));
        validate_serve_snapshot(&doc).unwrap();

        // A snapshot missing one histogram fails the serve schema while
        // still passing the base schema.
        let mut partial = MetricsRegistry::new();
        for name in SERVE_REQUIRED_COUNTERS {
            partial.counter(name);
        }
        for name in SERVE_REQUIRED_GAUGES {
            partial.gauge(name);
        }
        let doc = partial.snapshot(&meta);
        validate_metrics_snapshot(&doc).unwrap();
        let err = validate_serve_snapshot(&doc).unwrap_err();
        assert!(err.contains("serve.batch_size"), "{err}");
    }

    #[test]
    fn tenant_and_registry_identities_are_enforced() {
        let mut reg = serve_registry();
        let admitted = reg.counter("serve.requests_admitted");
        reg.inc(admitted, 12);
        let quota = reg.counter("serve.requests_quota");
        reg.inc(quota, 3);
        let JsonValue::Obj(base) = reg.snapshot(&SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        }) else {
            panic!("snapshot is an object");
        };
        let slo = r#"{"now": 5, "window": 10, "step": 5, "queue_depth": 0,
            "per_bin": [{"bin": 0, "count": 0, "p50": null, "p90": null, "p99": null}],
            "admitted": 0, "shed": 0, "deadline_missed": 0, "completed": 0,
            "shed_rate": 0, "deadline_miss_rate": 0}"#;
        let sections = format!(
            r#"{{"tenants": [
                {{"name": "a", "quota_shed": 3, "shed_unrouted": 0, "slo": {slo}, "shards": [
                    {{"admitted": 5, "ok": 2, "unmapped": 1, "shed": 4, "deadline": 1,
                      "errors": 1, "dead": false}},
                    {{"admitted": 3, "ok": 0, "unmapped": 0, "shed": 0, "deadline": 0,
                      "errors": 0, "dead": true}}]}},
                {{"name": "b", "quota_shed": 0, "shed_unrouted": 1, "slo": {slo}, "shards": [
                    {{"admitted": 4, "ok": 4, "unmapped": 0, "shed": 0, "deadline": 0,
                      "errors": 0, "dead": false}}]}}],
            "registry": {{"mem_used_bytes": 300, "mem_budget_bytes": 400, "tenants": [
                {{"name": "a", "shards": 2, "mem_bytes": 100, "in_flight": 3, "quota": 8}},
                {{"name": "b", "shards": 1, "mem_bytes": 200, "in_flight": 0, "quota": null}}]}}}}"#
        );
        let check = |sections: &str| {
            let JsonValue::Obj(extra) = JsonValue::parse(sections).unwrap() else {
                panic!("sections is an object");
            };
            validate_serve_snapshot(&JsonValue::Obj([base.clone(), extra].concat()))
        };
        check(&sections).unwrap();
        // One mutation per identity, each refused by name: a shard answers
        // more than it admitted; rows out of step with the global admitted
        // counter, and with the quota counter; a tenant's SLO view checked
        // like the global one; the registry's bytes must add up, and stay
        // under the budget the server launched with.
        for (from, to, want) in [
            (r#""ok": 2"#, r#""ok": 3"#, "admitted 5"),
            (r#""admitted": 4"#, r#""admitted": 5"#, "requests_admitted"),
            (r#""quota_shed": 3"#, r#""quota_shed": 2"#, "requests_quota"),
            (r#""shed_rate": 0,"#, r#""shed_rate": 0.5,"#, "shed_rate"),
            (
                r#""mem_bytes": 100"#,
                r#""mem_bytes": 150"#,
                "mem_used_bytes",
            ),
            (
                r#""mem_budget_bytes": 400"#,
                r#""mem_budget_bytes": 299"#,
                "exceeds",
            ),
        ] {
            assert!(sections.contains(from), "{from}");
            let err = check(&sections.replace(from, to)).unwrap_err();
            assert!(err.contains(want), "{from} -> {to}: {err}");
        }
        // No budget bounds nothing.
        check(&sections.replace("\"mem_budget_bytes\": 400", "\"mem_budget_bytes\": null"))
            .unwrap();
    }

    #[test]
    fn loadgen_report_identities_are_enforced() {
        let good = r#"{
            "kind": "nvwa-loadgen", "schema_version": 1, "mode": "closed",
            "connections": 2, "reads": 100, "sent": 100, "received": 100,
            "ok": 95, "unmapped": 0, "mapped": 90, "shed": 5, "quota": 0,
            "deadline": 0, "errors": 0,
            "lost": 0, "duplicates": 0, "wall_ms": 12.5,
            "throughput_rps": 8000.0,
            "latency_us": {"count": 95, "mean": 900.0, "p50": 800.0,
                           "p90": 1500.0, "p99": 2100.0, "min": 300.0,
                           "max": 2500.0}
        }"#;
        validate_loadgen_report(&JsonValue::parse(good).unwrap()).unwrap();

        let lossy = good.replace("\"lost\": 0", "\"lost\": 3");
        let err = validate_loadgen_report(&JsonValue::parse(&lossy).unwrap()).unwrap_err();
        assert!(err.contains("lost"), "{err}");

        let bad_mode = good.replace("\"closed\"", "\"sideways\"");
        assert!(validate_loadgen_report(&JsonValue::parse(&bad_mode).unwrap()).is_err());

        // Zero-sample latency must use nulls.
        let empty = r#"{
            "kind": "nvwa-loadgen", "schema_version": 1, "mode": "open",
            "connections": 1, "reads": 0, "sent": 0, "received": 0,
            "ok": 0, "unmapped": 0, "mapped": 0, "shed": 0, "quota": 0,
            "deadline": 0, "errors": 0,
            "lost": 0, "duplicates": 0, "wall_ms": 1.0,
            "throughput_rps": 0,
            "latency_us": {"count": 0, "mean": null, "p50": null,
                           "p90": null, "p99": null, "min": null, "max": null}
        }"#;
        validate_loadgen_report(&JsonValue::parse(empty).unwrap()).unwrap();
    }

    #[test]
    fn loadgen_tenant_sections_are_enforced() {
        let good = r#"{
            "kind": "nvwa-loadgen", "schema_version": 1, "mode": "open",
            "connections": 2, "reads": 100, "sent": 100, "received": 100,
            "ok": 80, "unmapped": 0, "mapped": 80,
            "shed": 0, "quota": 20, "deadline": 0,
            "errors": 0, "lost": 0, "duplicates": 0, "wall_ms": 12.5,
            "throughput_rps": 8000.0,
            "latency_us": {"count": 80, "mean": 900.0, "p50": 800.0,
                           "p90": 1500.0, "p99": 2100.0, "min": 300.0,
                           "max": 2500.0},
            "tenants": [
                {"name": "homo_sapiens", "sent": 60, "received": 60,
                 "lost": 0, "ok": 40, "shed": 0, "quota": 20,
                 "deadline": 0, "errors": 0, "mapped": 40, "unmapped": 0,
                 "latency_us": {"count": 40, "mean": 1.0, "p50": 1.0,
                                "p90": 1.0, "p99": 1.0, "min": 1.0,
                                "max": 1.0}},
                {"name": "mus_musculus", "sent": 40, "received": 40,
                 "lost": 0, "ok": 40, "shed": 0, "quota": 0,
                 "deadline": 0, "errors": 0, "mapped": 40, "unmapped": 0,
                 "latency_us": {"count": 40, "mean": 1.0, "p50": 1.0,
                                "p90": 1.0, "p99": 1.0, "min": 1.0,
                                "max": 1.0}}
            ]
        }"#;
        validate_loadgen_report(&JsonValue::parse(good).unwrap()).unwrap();

        // A tenant whose own identity is broken is named in the error.
        let broken = good.replace(
            "\"ok\": 40, \"shed\": 0, \"quota\": 20",
            "\"ok\": 41, \"shed\": 0, \"quota\": 20",
        );
        let err = validate_loadgen_report(&JsonValue::parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("tenants[0]"), "{err}");

        // Per-tenant counts must sum to the report totals (the tenant
        // itself stays internally consistent: sent 39 = received 39 =
        // ok 39, so only the cross-tenant sum breaks).
        let short = good
            .replace(
                "\"name\": \"mus_musculus\", \"sent\": 40, \"received\": 40",
                "\"name\": \"mus_musculus\", \"sent\": 39, \"received\": 39",
            )
            .replace(
                "\"lost\": 0, \"ok\": 40, \"shed\": 0, \"quota\": 0",
                "\"lost\": 0, \"ok\": 39, \"shed\": 0, \"quota\": 0",
            );
        let err = validate_loadgen_report(&JsonValue::parse(&short).unwrap()).unwrap_err();
        assert!(err.contains("sums to"), "{err}");

        // `quota` is required at the top level, like every other count.
        let no_quota = good.replace(
            "\"shed\": 0, \"quota\": 20, \"deadline\": 0,\n            \"errors\": 0",
            "\"shed\": 0, \"deadline\": 0,\n            \"errors\": 0",
        );
        let err = validate_loadgen_report(&JsonValue::parse(&no_quota).unwrap()).unwrap_err();
        assert!(err.contains("quota"), "{err}");
    }

    #[test]
    fn loadgen_unmapped_folds_into_the_identity() {
        // A long-read report: unmapped reads are completed responses, so
        // they sit beside ok in the conservation identity.
        let good = r#"{
            "kind": "nvwa-loadgen", "schema_version": 1, "mode": "closed",
            "connections": 2, "reads": 100, "sent": 100, "received": 100,
            "ok": 90, "unmapped": 7, "mapped": 90, "shed": 3, "quota": 0,
            "deadline": 0, "errors": 0, "lost": 0, "duplicates": 0,
            "wall_ms": 12.5, "throughput_rps": 8000.0,
            "latency_us": {"count": 97, "mean": 900.0, "p50": 800.0,
                           "p90": 1500.0, "p99": 2100.0, "min": 300.0,
                           "max": 2500.0}
        }"#;
        validate_loadgen_report(&JsonValue::parse(good).unwrap()).unwrap();

        // The key is required: dropping it is a missing-key error even
        // when the remaining counts balance without it.
        let missing = good
            .replace("\"unmapped\": 7, ", "")
            .replace("\"ok\": 90", "\"ok\": 97");
        let err = validate_loadgen_report(&JsonValue::parse(&missing).unwrap()).unwrap_err();
        assert!(err.contains("unmapped"), "{err}");

        // Per-tenant unmapped participates in both the tenant identity
        // and the cross-tenant sum.
        let tenants = r#"{
            "kind": "nvwa-loadgen", "schema_version": 1, "mode": "open",
            "connections": 2, "reads": 40, "sent": 40, "received": 40,
            "ok": 30, "unmapped": 10, "mapped": 30, "shed": 0, "quota": 0,
            "deadline": 0, "errors": 0, "lost": 0, "duplicates": 0,
            "wall_ms": 5.0, "throughput_rps": 8000.0,
            "latency_us": {"count": 40, "mean": 1.0, "p50": 1.0,
                           "p90": 1.0, "p99": 1.0, "min": 1.0, "max": 1.0},
            "tenants": [
                {"name": "homo_sapiens", "sent": 40, "received": 40,
                 "lost": 0, "ok": 30, "unmapped": 10, "shed": 0,
                 "quota": 0, "deadline": 0, "errors": 0, "mapped": 30,
                 "latency_us": {"count": 40, "mean": 1.0, "p50": 1.0,
                                "p90": 1.0, "p99": 1.0, "min": 1.0,
                                "max": 1.0}}
            ]
        }"#;
        validate_loadgen_report(&JsonValue::parse(tenants).unwrap()).unwrap();
        let short = tenants.replace(
            "\"ok\": 30, \"unmapped\": 10, \"shed\": 0,\n                 \"quota\": 0",
            "\"ok\": 30, \"unmapped\": 9, \"shed\": 1,\n                 \"quota\": 0",
        );
        let err = validate_loadgen_report(&JsonValue::parse(&short).unwrap()).unwrap_err();
        assert!(err.contains("sums to") || err.contains("unmapped"), "{err}");
    }

    #[test]
    fn slo_view_validation_checks_rates_and_bins() {
        let good = r#"{
            "now": 5000000, "window": 1000000, "step": 100000,
            "per_bin": [
                {"bin": 0, "count": 0, "p50": null, "p90": null, "p99": null},
                {"bin": 1, "count": 4, "p50": 800, "p90": 1500, "p99": 1500}
            ],
            "queue_depth": 3, "admitted": 8, "shed": 2,
            "deadline_missed": 1, "completed": 4,
            "shed_rate": 0.2, "deadline_miss_rate": 0.125
        }"#;
        validate_slo_view(&JsonValue::parse(good).unwrap()).unwrap();

        // A rate inconsistent with the window counters is rejected.
        let lying = good.replace("\"shed_rate\": 0.2", "\"shed_rate\": 0.5");
        let err = validate_slo_view(&JsonValue::parse(&lying).unwrap()).unwrap_err();
        assert!(err.contains("shed_rate"), "{err}");

        // Percentiles must be null exactly on an empty bin.
        let bad_bin = good.replace(
            "{\"bin\": 0, \"count\": 0, \"p50\": null",
            "{\"bin\": 0, \"count\": 0, \"p50\": 7",
        );
        assert!(validate_slo_view(&JsonValue::parse(&bad_bin).unwrap()).is_err());
    }

    #[test]
    fn flight_documents_are_validated() {
        let summary = r#"{
            "cap": 4, "recorded": 6, "retained": 4, "dumps": 1,
            "last_dump_reason": "worker_panic",
            "by_kind": {"admit": 2, "batch_start": 1, "panic": 1}
        }"#;
        validate_flight_summary(&JsonValue::parse(summary).unwrap()).unwrap();
        // `retained` is min(recorded, cap) exactly: neither more nor —
        // with `by_kind` adjusted to agree — fewer.
        let more = summary.replace("\"retained\": 4", "\"retained\": 5");
        assert!(validate_flight_summary(&JsonValue::parse(&more).unwrap()).is_err());
        let fewer = summary
            .replace("\"retained\": 4", "\"retained\": 3")
            .replace("\"admit\": 2", "\"admit\": 1");
        let err = validate_flight_summary(&JsonValue::parse(&fewer).unwrap()).unwrap_err();
        assert!(err.contains("must be min"), "{err}");

        let dump = r#"{
            "kind": "nvwa-flight", "schema_version": 1,
            "reason": "worker_panic", "cap": 8, "recorded": 3,
            "events": [
                {"seq": 0, "t_us": 10, "kind": "admit", "a": 1, "b": 0, "c": 1},
                {"seq": 1, "t_us": 20, "kind": "batch_start", "a": 0, "b": 1, "c": 4},
                {"seq": 2, "t_us": 30, "kind": "panic", "a": 0, "b": 2, "c": 0}
            ],
            "digest": {"admit": 1, "shed": 0, "deadline": 0,
                       "batch_start": 1, "batch_done": 0, "panic": 1,
                       "quota": 0}
        }"#;
        validate_flight_dump(&JsonValue::parse(dump).unwrap()).unwrap();
        // The event list is min(recorded, cap) long, neither shorter nor
        // longer.
        for recorded in ["5", "2"] {
            let off = dump.replace("\"recorded\": 3", &format!("\"recorded\": {recorded}"));
            let err = validate_flight_dump(&JsonValue::parse(&off).unwrap()).unwrap_err();
            assert!(err.contains("must be min"), "{err}");
        }
        // Digest must agree with the event list.
        let lying = dump.replace("\"panic\": 1", "\"panic\": 2");
        let err = validate_flight_dump(&JsonValue::parse(&lying).unwrap()).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        // Sequence numbers must be strictly increasing.
        let reordered = dump.replace("\"seq\": 2", "\"seq\": 1");
        assert!(validate_flight_dump(&JsonValue::parse(&reordered).unwrap()).is_err());
    }

    #[test]
    fn span_log_validation_rejects_broken_chains() {
        use crate::spans::{Outcome, RequestSpans, SpanLog, Stage};
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
        let doc = log.to_json();
        validate_span_log(&doc).unwrap();

        // Break contiguity inside one serialized chain.
        let broken = doc
            .to_string_compact()
            .replace("\"start_ns\":150", "\"start_ns\":151");
        assert!(validate_span_log(&JsonValue::parse(&broken).unwrap()).is_err());
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
