//! Admission: the reactor thread's half of the serving path. Every
//! complete frame is decoded and either answered here inline (`stats`,
//! `flight`, `shutdown`, protocol errors, sheds) or routed — tenant,
//! quota, shard — into its engine's dispatcher for a worker to take.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvwa_telemetry::{JsonValue, SnapshotMeta};

use crate::batcher::BatchItem;
use crate::dispatch::Refused;
use crate::flight::FlightEventKind;
use crate::protocol::{AlignResponse, Mode, Request, Status};
use crate::registry::{region_hash, route_shard, try_admit_counted};
use crate::server::{PendingRead, ReactorConn, Shared};

/// Enqueues one response; a connection that already died is a counted write error.
pub(crate) fn answer(shared: &Shared, sink: &ReactorConn, doc: &JsonValue) {
    if sink.send(doc).is_err() {
        shared.metrics.write_error();
    }
}

/// Decodes and executes one request document (called by the reactor
/// thread for every complete frame).
pub(crate) fn handle_request(shared: &Arc<Shared>, sink: &Arc<ReactorConn>, doc: &JsonValue) {
    let request = match Request::decode(doc) {
        Ok(r) => r,
        Err(msg) => {
            shared.metrics.protocol_error();
            let id = doc.get("id").and_then(JsonValue::as_num).unwrap_or(0.0) as u64;
            let resp = AlignResponse::failure(id, Status::Error, &msg);
            answer(shared, sink, &resp.encode());
            return;
        }
    };
    match request {
        Request::Align { .. } => handle_align(shared, sink, request),
        Request::Stats => {
            let meta = SnapshotMeta::collect(nvwa_sim::par::current_threads());
            let mut stats = shared.metrics.stats_response(&meta);
            if let JsonValue::Obj(pairs) = &mut stats {
                pairs.push(("registry".to_string(), registry_json(shared)));
            }
            answer(shared, sink, &stats);
        }
        Request::Flight => {
            let dump = dump_flight(shared, "explicit");
            answer(shared, sink, &dump);
        }
        Request::Shutdown => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            let ack = JsonValue::obj(vec![
                ("kind", JsonValue::Str("shutdown".to_string())),
                ("ok", JsonValue::Bool(true)),
            ]);
            answer(shared, sink, &ack);
        }
    }
}

/// The `registry` section of a `stats` reply, read from the tenant table
/// routing uses: per tenant its shards, quota, live in-flight count and
/// the heap bytes of the index its engines hold.
fn registry_json(shared: &Shared) -> JsonValue {
    let num = |n: u64| JsonValue::Num(n as f64);
    let mut used = 0u64;
    let tenants = shared
        .tenants
        .iter()
        .map(|route| {
            let mem = shared.engines[route.engines[0]].index.heap_bytes() as u64;
            used += mem;
            JsonValue::obj(vec![
                ("name", JsonValue::Str(route.name.clone())),
                ("shards", num(route.engines.len() as u64)),
                ("mem_bytes", num(mem)),
                ("in_flight", num(route.in_flight.load(Ordering::Acquire))),
                ("quota", route.quota.map_or(JsonValue::Null, num)),
            ])
        })
        .collect();
    let budget = shared.config.registry_budget;
    JsonValue::obj(vec![
        ("mem_used_bytes", num(used)),
        (
            "mem_budget_bytes",
            budget.map_or(JsonValue::Null, |b| num(b as u64)),
        ),
        ("tenants", JsonValue::Arr(tenants)),
    ])
}

/// Routes one align request — tenant, quota, shard — into its engine's
/// dispatcher, or answers why not.
fn handle_align(shared: &Arc<Shared>, sink: &Arc<ReactorConn>, request: Request) {
    let Request::Align {
        id,
        codes,
        mode,
        deadline_ms,
        tenant,
        region,
    } = request
    else {
        return;
    };
    if shared.draining.load(Ordering::Relaxed) {
        shed(shared, sink, id, "server draining", None);
        return;
    }
    // Tenant resolution: absent → the default (first) tenant, so
    // pre-tenant clients keep working; unknown names are a client error.
    let tenant_idx = match tenant.as_deref() {
        None => 0,
        Some(name) => match shared.tenants.iter().position(|t| t.name == name) {
            Some(i) => i,
            None => {
                shared.metrics.protocol_error();
                let resp =
                    AlignResponse::failure(id, Status::Error, &format!("unknown tenant {name:?}"));
                answer(shared, sink, &resp.encode());
                return;
            }
        },
    };
    let route = &shared.tenants[tenant_idx];
    // Quota first: a tenant over its admission cap is refused before any
    // queue is touched, with a status its clients can tell from global
    // overload. The guard rides in the PendingRead; Drop releases the slot
    // exactly once on every path (response, deadline, even worker panic).
    let Some(guard) = try_admit_counted(&route.in_flight, route.quota) else {
        shared.metrics.quota_shed(tenant_idx);
        shared.metrics.flight_event(
            FlightEventKind::Quota,
            id,
            sink.conn_id(),
            route.quota.unwrap_or(0),
        );
        let resp = AlignResponse::failure(
            id,
            Status::Quota,
            &format!(
                "tenant {:?} admission quota ({}) exhausted",
                route.name,
                route.quota.unwrap_or(0)
            ),
        );
        answer(shared, sink, &resp.encode());
        return;
    };
    // Deterministic shard routing: the client's region hint (or the read
    // itself) hashes to a start shard; dead shards are probed past.
    let hash = region_hash(region, &codes);
    let live = |s: usize| {
        !shared.engines[route.engines[s]]
            .dead
            .load(Ordering::Relaxed)
    };
    let Some(shard) = route_shard(hash, route.engines.len(), live) else {
        shed(
            shared,
            sink,
            id,
            &format!("tenant {:?}: no live shard", route.name),
            Some((tenant_idx, None)),
        );
        return;
    };
    let engine = &shared.engines[route.engines[shard]];
    let now = Instant::now();
    let t0_ns = shared.metrics.now_ns();
    let trace_id = shared.trace_seq.fetch_add(1, Ordering::Relaxed);
    // Per-mode default deadlines: a long-read GACT fill or an all-tenant
    // classify screen gets its own budget when configured.
    let mode_default = match mode {
        Mode::Short => None,
        Mode::Long => shared.config.long_deadline,
        Mode::Classify => shared.config.classify_deadline,
    }
    .or(shared.config.default_deadline);
    // `Instant + Duration` panics on overflow and `deadline_ms` is the
    // client's number: a deadline too far off to represent never expires.
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(mode_default)
        .and_then(|d| now.checked_add(d));
    let len = codes.len();
    let item = BatchItem {
        payload: PendingRead {
            conn: Arc::clone(sink),
            id,
            codes,
            trace_id,
            t0_ns,
            _guard: Some(guard),
        },
        len,
        mode,
        admitted_at: now,
        deadline,
    };
    let why = match engine.dispatcher.admit(item, now) {
        Ok(depth) => {
            // The reactor thread both admits and answers `stats`, so no
            // in-band scrape lands between the push and this count.
            shared.metrics.admitted(depth, mode, tenant_idx, shard);
            shared.metrics.flight_event(
                FlightEventKind::Admit,
                trace_id,
                sink.conn_id(),
                depth as u64,
            );
            return;
        }
        Err(Refused::Full) => "admission queue full".to_string(),
        // Closed between routing and push: the shard was killed, or the
        // server started draining.
        Err(Refused::Closed) if engine.dead.load(Ordering::Relaxed) => {
            format!("tenant {:?}: shard {shard} down", route.name)
        }
        Err(Refused::Closed) => "server draining".to_string(),
    };
    shed(shared, sink, id, &why, Some((tenant_idx, Some(shard))));
}

fn shed(
    shared: &Shared,
    sink: &ReactorConn,
    id: u64,
    why: &str,
    tenant_shard: Option<(usize, Option<usize>)>,
) {
    shared
        .metrics
        .flight_event(FlightEventKind::Shed, id, sink.conn_id(), 0);
    if shared.metrics.shed(tenant_shard) {
        // The windowed shed count crossed the storm threshold: freeze the
        // lead-up by dumping the flight recorder (once per server run).
        dump_flight(shared, "shed_storm");
    }
    let resp = AlignResponse::failure(id, Status::Shed, why);
    answer(shared, sink, &resp.encode());
}

/// Dumps the flight recorder, writing `flight_<reason>.json` when the
/// config names a dump directory, and returns the dump document.
pub(crate) fn dump_flight(shared: &Shared, reason: &str) -> JsonValue {
    let dump = shared.metrics.flight().dump_json(reason);
    if let Some(dir) = &shared.config.obs.flight_dump {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("flight_{reason}.json"));
        if std::fs::write(&path, dump.to_string_pretty()).is_err() {
            shared.metrics.write_error();
        }
    }
    dump
}
