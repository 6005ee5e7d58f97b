//! End-to-end tests of the tenant table and the poll-reactor frontend
//! over real sockets.
//!
//! The acceptance bar: the reactor answers a ≥10k-read closed-loop run
//! bit-identically to the offline aligner; hundreds of idle connections
//! do not grow the thread count; a tenant's admission
//! quota sheds with the distinct `quota` status at exactly the limit,
//! with exactly-once accounting that survives the storm; killing a
//! shard degrades only the tenant that owned it; `Server::start` refuses
//! a tenant set it cannot hold; and the `stats` reply reports the table
//! requests are actually routed by.

use std::sync::Arc;
use std::time::Duration;

use nvwa::align::pipeline::{
    AlignScratch, AlignerConfig, ReferenceIndex, SeedTrace, SoftwareAligner,
};
use nvwa::genome::species::Species;
use nvwa::genome::{ReadSimParams, ReferenceGenome};
use nvwa::serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig, TenantRead};
use nvwa::serve::protocol::WireAlignment;
use nvwa::serve::protocol::{read_frame, write_frame, Mode};
use nvwa::serve::{AlignResponse, Request, Server, ServerConfig, Status, Tenant};
use nvwa::telemetry::snapshot::{validate, Kind};
use nvwa::telemetry::{JsonValue, SnapshotMeta};
use nvwa::testkit::tenancy::kill_shard_mid_stream;
use nvwa::testkit::wait_until;

const REF_LEN: usize = 20_000;
const REF_SEED: u64 = 5;

/// The single-index fixture: the reference and its index.
fn shared_index() -> (ReferenceGenome, Arc<ReferenceIndex>) {
    let genome = ReferenceGenome::synthesize(&ref_params(REF_LEN), REF_SEED);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));
    (genome, index)
}

/// `n` simulated short reads of `species`' reference, each sent to that
/// species' tenant in `mode`.
fn species_reads(species: Species, seed: u64, n: usize, mode: Mode) -> Vec<TenantRead> {
    let genome = species.synthesize(0.0);
    let mut reads = loadgen::generate_reads(&genome, ReadSimParams::illumina_101(), seed, n);
    for read in &mut reads {
        read.tenant = Some(species.key().to_string());
        read.mode = mode;
    }
    reads
}

/// The differential at acceptance scale: 10k reads closed-loop over 8
/// connections × window 32, every response checked read by read against
/// the offline `SoftwareAligner::align_batch` fast path on the same index.
/// Batch sizes are scheduling and deliberately excluded.
#[test]
fn reactor_answers_10k_reads_bit_identically_to_offline() {
    let (genome, index) = shared_index();
    let reads = loadgen::generate_reads(&genome, ReadSimParams::illumina_101(), 23, 10_000);
    let server = Server::start(
        vec![Tenant::single(Arc::clone(&index))],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &reads,
        &LoadgenConfig {
            connections: 8,
            mode: ArrivalMode::Closed { window: 32 },
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    server.shutdown();
    assert!(report.is_lossless(), "lost/duplicated responses");
    assert_eq!(report.total.ok, reads.len() as u64, "not all ok");

    let mut offline = Vec::new();
    SoftwareAligner::new(&index, AlignerConfig::default()).align_batch(
        (0..).zip(reads.iter().map(|r| r.codes.as_slice())),
        &mut AlignScratch::new(),
        SeedTrace::Skip,
        &mut offline,
    );
    for (id, outcome) in (0..).zip(&offline) {
        let served = report.responses.get(&id).expect("response");
        assert_eq!(served.status, Status::Ok, "read {id} status");
        assert_eq!(
            served.alignment,
            outcome
                .alignment
                .as_ref()
                .map(WireAlignment::from_alignment),
            "read {id} alignment"
        );
    }
}

fn current_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Idle connections on the reactor cost a registered pollfd, not a
/// thread: parking hundreds of silent sockets must not grow the process
/// thread count, and the server must keep answering around them.
#[test]
fn reactor_parks_idle_connections_without_thread_growth() {
    if !cfg!(unix) {
        return;
    }
    let Some(before) = current_thread_count() else {
        return; // no /proc: nothing to measure
    };
    let (genome, index) = shared_index();
    let server = Server::start(
        vec![Tenant::single(Arc::clone(&index))],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let idle: Vec<std::net::TcpStream> = (0..400)
        .map(|i| {
            std::net::TcpStream::connect(&addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}"))
        })
        .collect();
    // Count threads once the reactor has accepted every idle socket.
    assert!(
        wait_until(Duration::from_secs(30), || {
            server.metrics().counter("serve.connections_accepted") >= 400
        }),
        "the reactor did not accept 400 idle connections within 30 s"
    );
    let during = current_thread_count().expect("/proc readable");
    // Thread-per-connection would add ~400 here; the reactor adds none.
    // Loadgen below and test-harness noise get a generous allowance.
    assert!(
        during <= before + 16,
        "thread count grew {before} -> {during} with 400 idle connections"
    );

    // The server still answers fresh traffic around the parked sockets.
    let reads = loadgen::generate_reads(&genome, ReadSimParams::illumina_101(), 29, 200);
    let report = loadgen::run(
        &addr,
        &reads,
        &LoadgenConfig {
            connections: 4,
            mode: ArrivalMode::Closed { window: 16 },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    assert!(report.is_lossless());
    assert_eq!(report.total.ok, 200);
    drop(idle);
    let metrics = server.shutdown();
    assert!(
        metrics.counter("serve.connections_accepted") >= 404,
        "reactor accepted the idle sockets"
    );
}

/// Over-the-wire quota boundary: a tenant with quota Q under a slow
/// worker and an open-loop storm sheds with the `quota` status, every
/// request is answered exactly once, and the guard release keeps the
/// registry's in-flight gauge at zero after the drain.
#[test]
fn quota_storm_sheds_with_quota_status_and_exactly_once_accounting() {
    let species = Species::CaenorhabditisElegans;
    let mut tenant = Tenant::species(species, 0.0);
    tenant.quota = Some(2);
    let server = Server::start(
        vec![tenant],
        ServerConfig {
            workers: 2,
            // Each batch holds its admission guards for 2 ms, so an
            // open-loop storm overruns a quota of 2 by construction.
            worker_delay: Some(Duration::from_millis(2)),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let report = loadgen::run(
        &addr,
        &species_reads(species, 31, 400, Mode::Short),
        &LoadgenConfig {
            connections: 4,
            mode: ArrivalMode::Open {
                rate_rps: 20_000.0,
                burst: 16,
            },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    let metrics = server.shutdown();

    // Exactly-once: conservation holds globally and per tenant even
    // under the storm, and nothing is counted twice.
    let total = &report.total;
    assert!(
        report.is_lossless(),
        "lost {} dup {}",
        total.lost,
        report.duplicates
    );
    assert_eq!(total.received, total.sent);
    assert_eq!(
        total.ok + total.unmapped + total.shed + total.quota + total.deadline + total.errors,
        total.received
    );
    assert!(
        total.quota > 0,
        "a 20k rps storm against quota 2 must shed some requests"
    );
    assert!(total.ok > 0, "admitted requests still complete");
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].counts.quota, total.quota);
    assert_eq!(report.tenants[0].counts.sent, total.sent);

    // The server counted the same sheds the client saw, and every
    // admission guard was released (gauge back to zero at drain).
    assert_eq!(metrics.counter("serve.requests_quota"), total.quota);
    assert_eq!(
        metrics.counter("serve.responses_ok"),
        total.ok,
        "server ok count matches the client's"
    );

    // The report document passes the schema validator, tenant section
    // identities included.
    validate(Kind::LoadgenReport, &report.to_json()).expect("report validates");
}

/// Killing one shard of a two-shard tenant reroutes traffic to the live
/// shard: the wounded tenant keeps answering, the other tenant never
/// notices, and `kill_shard` is idempotent.
#[test]
fn shard_kill_degrades_only_the_killed_shard() {
    let wounded = Species::HomoSapiens;
    let healthy = Species::ZapusHudsonius;
    let mut spec_a = Tenant::species(wounded, 0.0);
    spec_a.shards = 2;
    let spec_b = Tenant::species(healthy, 0.0);
    let server = Server::start(
        vec![spec_a, spec_b],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    assert!(server.kill_shard(wounded.key(), 0), "first kill succeeds");
    assert!(
        !server.kill_shard(wounded.key(), 0),
        "second kill is a no-op"
    );
    assert!(!server.kill_shard(wounded.key(), 9), "bogus shard refused");
    assert!(
        !server.kill_shard("no_such_species", 0),
        "bogus tenant refused"
    );

    let mut mixed = species_reads(wounded, 37, 60, Mode::Short);
    for (i, read) in (0..).zip(&mut mixed) {
        // Half the traffic names the dead shard's region explicitly:
        // routing must probe past it.
        read.region = Some(i);
    }
    mixed.extend(species_reads(healthy, 41, 60, Mode::Short));
    let report = loadgen::run(
        &addr,
        &mixed,
        &LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 16 },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    let metrics = server.shutdown();

    assert!(report.is_lossless());
    assert_eq!(
        report.total.ok, 120,
        "both tenants fully served after the kill"
    );
    for t in &report.tenants {
        assert_eq!(t.counts.ok, t.counts.sent, "tenant {} degraded", t.name);
    }
    assert_eq!(metrics.counter("serve.shards_killed"), 1);
}

/// A classify response must account for every registered tenant exactly
/// once: scored in `tenants` or named in `missing` (with `partial` set).
/// Panics on the first silently truncated score map.
fn assert_classify_complete(report: &loadgen::LoadReport, n_tenants: usize) {
    let mut checked = 0;
    for resp in report.responses.values() {
        if resp.status != nvwa::serve::Status::Ok {
            continue;
        }
        let c = resp
            .classify
            .as_ref()
            .unwrap_or_else(|| panic!("ok classify response {} has no score map", resp.id));
        assert_eq!(
            c.tenants.len() + c.missing.len(),
            n_tenants,
            "response {}: {} scored + {} missing does not cover {n_tenants} tenants — \
             silently truncated score map",
            resp.id,
            c.tenants.len(),
            c.missing.len()
        );
        assert_eq!(
            c.partial,
            !c.missing.is_empty(),
            "response {}: partial flag out of sync with missing list",
            resp.id
        );
        checked += 1;
    }
    assert!(checked > 0, "no classify response to check");
}

/// `kill_shard` racing an in-flight classify load must produce either a
/// partial-tenant response (the dead tenant named in `missing`, `partial`
/// set) or an explicit shed — never a silently truncated score map. With
/// the routing tenant fully dead, its classify traffic sheds while the
/// neighbor's classify responses explicitly name the dead tenant.
#[test]
fn shard_kill_mid_classify_is_partial_or_shed_never_truncated() {
    let victim = Species::HomoSapiens;
    let neighbor = Species::CaenorhabditisElegans;
    let mut spec_a = Tenant::species(victim, 0.0);
    spec_a.shards = 2;
    let spec_b = Tenant::species(neighbor, 0.0);
    let server = Server::start(
        vec![spec_a, spec_b],
        ServerConfig {
            workers: 2,
            // Requests past the first window are admitted only as
            // batches finish: a 10 ms hold per batch leaves that long for
            // the kill to land mid-stream.
            worker_delay: Some(Duration::from_millis(10)),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let classify_load = |salt, tenant, n| species_reads(tenant, salt, n, Mode::Classify);
    let load = LoadgenConfig {
        connections: 2,
        mode: ArrivalMode::Closed { window: 16 },
        collect_responses: true,
        ..LoadgenConfig::default()
    };

    // Phase 1: the kill races an in-flight classify stream on the victim.
    let racing = classify_load(43, victim, 120);
    let report = kill_shard_mid_stream(&server, &racing, &load, victim.key(), 0)
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(
        report.is_lossless(),
        "exactly-once violated through the kill"
    );
    let total = &report.total;
    assert_eq!(total.received, total.sent);
    assert_eq!(
        total.ok + total.shed,
        total.received,
        "classify through a shard kill must answer ok or shed, got quota {} deadline {} errors {}",
        total.quota,
        total.deadline,
        total.errors
    );
    // One victim shard still lives, so its tenant stays scoreable: every
    // completed response covers both tenants (scored or named missing).
    assert_classify_complete(&report, 2);

    // Phase 2: fully kill the victim. Its classify traffic sheds
    // explicitly; the neighbor's responses must name the dead tenant in
    // `missing` with `partial` set — never shrink the map silently.
    assert!(server.kill_shard(victim.key(), 1), "second shard kill");
    let dark = loadgen::run(&addr, &classify_load(47, victim, 20), &load).expect("loadgen");
    assert!(dark.is_lossless());
    assert_eq!(
        dark.total.shed, dark.total.sent,
        "classify on a fully-dead tenant must shed every request"
    );
    let neighbor_report =
        loadgen::run(&addr, &classify_load(53, neighbor, 20), &load).expect("loadgen");
    assert!(neighbor_report.is_lossless());
    assert_eq!(neighbor_report.total.ok, neighbor_report.total.sent);
    for resp in neighbor_report.responses.values() {
        let c = resp.classify.as_ref().expect("classify result");
        assert_eq!(
            c.missing,
            vec![victim.key().to_string()],
            "response {}: dead tenant must be named in missing",
            resp.id
        );
        assert!(c.partial, "response {}: partial flag not set", resp.id);
        assert_eq!(
            c.tenants.len(),
            1,
            "response {}: only the live tenant is scored",
            resp.id
        );
        assert_eq!(c.tenants[0].tenant, neighbor.key());
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.counter("serve.shards_killed"), 2);
}

/// `Server::start` refuses, before it binds, a tenant set it cannot
/// serve: none at all, two under one name, or indexes that together
/// exceed the budget — the only thing `registry_budget` can bound while
/// every engine pins its index.
#[test]
fn start_refuses_an_empty_duplicate_or_over_budget_tenant_set() {
    let a = Tenant::species(Species::CaenorhabditisElegans, 0.0);
    let b = Tenant::species(Species::HomoSapiens, 0.0);
    let need = a.index.heap_bytes() + b.index.heap_bytes();
    let config = |registry_budget| ServerConfig {
        workers: 1,
        registry_budget,
        ..ServerConfig::default()
    };
    // A budget that fits either index but not both: need and budget named.
    let (both, budget) = (vec![a.clone(), b.clone()], need - 1);
    for (tenants, budget, want) in [
        (Vec::new(), None, "at least one tenant".to_string()),
        (vec![a.clone(), a.clone()], None, a.name.clone()),
        (both.clone(), Some(budget), format!("need {need} ")),
        (both.clone(), Some(budget), format!(" is {budget} ")),
    ] {
        let err = Server::start(tenants, config(budget))
            .err()
            .expect("refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(&want), "{err}: wants {want:?}");
    }
    // Exactly enough is enough.
    let server = Server::start(both, config(Some(need))).expect("fits the budget");
    server.shutdown();
}

/// A zero the queue or the batcher would panic on is refused before the
/// bind — not discovered by a thread of a server that already listens.
#[test]
fn start_refuses_a_zero_queue_capacity_or_batch_size() {
    let zero_queue = ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    };
    let mut zero_batch = ServerConfig::default();
    zero_batch.batch.max_batch = 0;
    for (config, want) in [(zero_queue, "queue capacity"), (zero_batch, "max_batch")] {
        let tenant = Tenant::species(Species::CaenorhabditisElegans, 0.0);
        let err = Server::start(vec![tenant], config).err().expect("refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(want), "{err}: wants {want:?}");
    }
}

fn rows<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_arr).expect("an array")
}

fn num(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_num).expect("a number")
}

/// The `registry` section of a `stats` reply is read from the table
/// routing uses: a tenant with requests held in flight shows them, and
/// every tenant shows the bytes of the index its engines hold.
#[test]
fn stats_registry_reports_live_in_flight_and_resident_index_bytes() {
    const HELD: usize = 8;
    let species = Species::CaenorhabditisElegans;
    let busy = Tenant::species(species, 0.0);
    let idle = Tenant::species(Species::HomoSapiens, 0.0);
    let bytes = [busy.index.heap_bytes(), idle.index.heap_bytes()];
    let config = ServerConfig {
        workers: 1,
        // A batch holds its requests (and their admission guards) this
        // long before it executes.
        worker_delay: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let server = Server::start(vec![busy, idle], config).expect("server start");

    // One connection, frames handled in order: when the reactor reaches
    // the `stats` frame it has admitted the `HELD` requests in front of
    // it, and the worker is still sitting out the first delay.
    let mut frames = Vec::new();
    for (id, read) in (0..).zip(species_reads(species, 59, HELD, Mode::Short)) {
        let request = Request::Align {
            id,
            codes: read.codes,
            deadline_ms: None,
            tenant: read.tenant,
            region: None,
            mode: Mode::Short,
        };
        write_frame(&mut frames, &request.encode()).expect("encode");
    }
    write_frame(&mut frames, &Request::Stats.encode()).expect("encode");
    let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let patience = Some(Duration::from_secs(30));
    conn.set_read_timeout(patience).expect("read timeout");
    std::io::Write::write_all(&mut conn, &frames).expect("send");
    let replies: Vec<JsonValue> = (0..=HELD)
        .map(|_| read_frame(&mut conn).expect("read").expect("open"))
        .collect();
    server.shutdown();

    let (stats, answers): (Vec<_>, Vec<_>) = replies
        .iter()
        .partition(|doc| doc.get("kind").and_then(JsonValue::as_str) == Some("nvwa-metrics"));
    for doc in answers {
        assert_eq!(
            AlignResponse::decode(doc).expect("response").status,
            Status::Ok
        );
    }
    validate(Kind::StatsResponse, stats[0]).expect("stats reply validates");
    let registry = stats[0].get("registry").expect("registry section");
    let tenants = rows(registry, "tenants");
    assert_eq!(
        num(&tenants[0], "in_flight"),
        HELD as f64,
        "held requests show"
    );
    assert_eq!(num(&tenants[1], "in_flight"), 0.0);
    assert!(bytes[0] > 0 && bytes[1] > 0);
    assert_eq!(num(&tenants[0], "mem_bytes"), bytes[0] as f64);
    assert_eq!(num(&tenants[1], "mem_bytes"), bytes[1] as f64);
    assert_eq!(
        num(registry, "mem_used_bytes"),
        (bytes[0] + bytes[1]) as f64
    );
}

/// A single-index server is one tenant named `default`: its `stats`
/// reply has the same `tenants` / `registry` shape as any other server's,
/// and once drained every admitted request is accounted for by outcome.
#[test]
fn single_index_server_reports_one_default_tenant() {
    let (genome, index) = shared_index();
    let reads = loadgen::generate_reads(&genome, ReadSimParams::illumina_101(), 61, 200);
    let server =
        Server::start(vec![Tenant::single(index)], ServerConfig::default()).expect("server start");
    let addr = server.local_addr().to_string();
    let report = loadgen::run(&addr, &reads, &LoadgenConfig::default()).expect("loadgen");
    assert_eq!(report.total.ok, 200);

    let names = |doc: &JsonValue| -> Vec<String> {
        let name = |row: &JsonValue| {
            row.get("name")
                .and_then(JsonValue::as_str)
                .map(String::from)
        };
        rows(doc, "tenants")
            .iter()
            .map(|row| name(row).expect("name"))
            .collect()
    };
    let live = loadgen::fetch(&addr, &Request::Stats).expect("stats");
    validate(Kind::StatsResponse, &live).expect("stats reply validates");
    assert_eq!(names(&live), ["default"]);
    assert_eq!(
        names(live.get("registry").expect("registry section")),
        ["default"]
    );

    let meta = SnapshotMeta {
        host_threads: 1,
        git_rev: None,
    };
    let drained = server.shutdown().stats_response(&meta);
    validate(Kind::StatsResponse, &drained).expect("drained snapshot validates");
    assert_eq!(names(&drained), ["default"]);
    let shards = rows(&rows(&drained, "tenants")[0], "shards");
    assert_eq!(shards.len(), 1);
    let count = |key| num(&shards[0], key);
    assert_eq!(count("admitted"), 200.0);
    assert_eq!(
        count("admitted"),
        count("ok") + count("unmapped") + count("deadline") + count("errors")
    );
}
