//! End-to-end tests of the multi-tenant registry and the poll-reactor
//! frontend over real sockets (ISSUE PR8).
//!
//! The acceptance bar: the reactor answers a ≥10k-read closed-loop run
//! bit-identically to the offline aligner; hundreds of idle connections
//! do not grow the thread count; a tenant's admission
//! quota sheds with the distinct `quota` status at exactly the limit,
//! with exactly-once accounting that survives the storm; and killing a
//! shard degrades only the tenant that owned it.

use std::sync::Arc;
use std::time::Duration;

use nvwa::align::pipeline::{AlignScratch, AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa::genome::species::Species;
use nvwa::genome::ReferenceGenome;
use nvwa::serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig, TenantRead};
use nvwa::serve::protocol::Mode;
use nvwa::serve::protocol::WireAlignment;
use nvwa::serve::{Server, ServerConfig, Status, TenantServeSpec};
use nvwa::telemetry::snapshot::validate_loadgen_report;

const REF_LEN: usize = 20_000;
const REF_SEED: u64 = 5;

fn shared_index() -> Arc<ReferenceIndex> {
    let genome = ReferenceGenome::synthesize(&ref_params(REF_LEN), REF_SEED);
    Arc::new(ReferenceIndex::build(&genome, 32))
}

/// The differential at acceptance scale: 10k reads closed-loop over 8
/// connections × window 32, every response checked read by read against
/// `SoftwareAligner::align_codes_fast` run offline on the same index.
/// Batch sizes are scheduling and deliberately excluded.
#[test]
fn reactor_answers_10k_reads_bit_identically_to_offline() {
    let index = shared_index();
    let reads = loadgen::generate_reads(&ref_params(REF_LEN), REF_SEED, 23, 10_000);
    let server = Server::start(
        Arc::clone(&index),
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
    assert_eq!(report.ok, reads.len() as u64, "not all ok");

    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let mut scratch = AlignScratch::new();
    for (id, codes) in reads.iter().enumerate() {
        let id = id as u64;
        let served = report.responses.get(&id).expect("response");
        let offline = aligner.align_codes_fast(id, codes, &mut scratch).alignment;
        assert_eq!(served.status, Status::Ok, "read {id} status");
        assert_eq!(
            served.alignment,
            offline.as_ref().map(WireAlignment::from_alignment),
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
    let index = shared_index();
    let server = Server::start(
        Arc::clone(&index),
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
    // Give the reactor a beat to accept and register everything.
    std::thread::sleep(Duration::from_millis(200));
    let during = current_thread_count().expect("/proc readable");
    // Thread-per-connection would add ~400 here; the reactor adds none.
    // Loadgen below and test-harness noise get a generous allowance.
    assert!(
        during <= before + 16,
        "thread count grew {before} -> {during} with 400 idle connections"
    );

    // The server still answers fresh traffic around the parked sockets.
    let reads = loadgen::generate_reads(&ref_params(REF_LEN), REF_SEED, 29, 200);
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
    assert_eq!(report.ok, 200);
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
    let mut tenant = TenantServeSpec::new(species, 0.0);
    tenant.quota = Some(2);
    let server = Server::start_multi_tenant(ServerConfig {
        workers: 2,
        tenants: vec![tenant],
        // Each batch holds its admission guards for 2 ms, so an open-loop
        // storm overruns a quota of 2 by construction.
        worker_delay: Some(Duration::from_millis(2)),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr().to_string();

    let reads = loadgen::generate_species_reads(species, 0.0, 31, 400);
    let mixed: Vec<TenantRead> = reads
        .into_iter()
        .map(|codes| TenantRead {
            tenant: Some(species.key().to_string()),
            codes,
            region: None,
            mode: Mode::Short,
        })
        .collect();
    let report = loadgen::run_tenants(
        &addr,
        &mixed,
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
    assert!(
        report.is_lossless(),
        "lost {} dup {}",
        report.lost,
        report.duplicates
    );
    assert_eq!(report.received, report.sent);
    assert_eq!(
        report.ok + report.unmapped + report.shed + report.quota + report.deadline + report.errors,
        report.received
    );
    assert!(
        report.quota > 0,
        "a 20k rps storm against quota 2 must shed some requests"
    );
    assert!(report.ok > 0, "admitted requests still complete");
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].quota, report.quota);
    assert_eq!(report.tenants[0].sent, report.sent);

    // The server counted the same sheds the client saw, and every
    // admission guard was released (gauge back to zero at drain).
    assert_eq!(metrics.counter("serve.requests_quota"), report.quota);
    assert_eq!(
        metrics.counter("serve.responses_ok"),
        report.ok,
        "server ok count matches the client's"
    );

    // The report document passes the schema validator, tenant section
    // identities included.
    validate_loadgen_report(&report.to_json()).expect("report validates");
}

/// Killing one shard of a two-shard tenant reroutes traffic to the live
/// shard: the wounded tenant keeps answering, the other tenant never
/// notices, and `kill_shard` is idempotent.
#[test]
fn shard_kill_degrades_only_the_killed_shard() {
    let wounded = Species::HomoSapiens;
    let healthy = Species::ZapusHudsonius;
    let mut spec_a = TenantServeSpec::new(wounded, 0.0);
    spec_a.shards = 2;
    let spec_b = TenantServeSpec::new(healthy, 0.0);
    let server = Server::start_multi_tenant(ServerConfig {
        workers: 2,
        tenants: vec![spec_a, spec_b],
        ..ServerConfig::default()
    })
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

    let mut mixed = Vec::new();
    for (i, codes) in loadgen::generate_species_reads(wounded, 0.0, 37, 60)
        .into_iter()
        .enumerate()
    {
        mixed.push(TenantRead {
            tenant: Some(wounded.key().to_string()),
            codes,
            // Half the traffic names the dead shard's region explicitly:
            // routing must probe past it.
            region: Some(i as u64),
            mode: Mode::Short,
        });
    }
    for codes in loadgen::generate_species_reads(healthy, 0.0, 41, 60) {
        mixed.push(TenantRead {
            tenant: Some(healthy.key().to_string()),
            codes,
            region: None,
            mode: Mode::Short,
        });
    }
    let report = loadgen::run_tenants(
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
    assert_eq!(report.ok, 120, "both tenants fully served after the kill");
    for t in &report.tenants {
        assert_eq!(t.ok, t.sent, "tenant {} degraded", t.name);
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
    let mut spec_a = TenantServeSpec::new(victim, 0.0);
    spec_a.shards = 2;
    let spec_b = TenantServeSpec::new(neighbor, 0.0);
    let server = Server::start_multi_tenant(ServerConfig {
        workers: 2,
        tenants: vec![spec_a, spec_b],
        // Keep classify batches in flight across the mid-run kill.
        worker_delay: Some(Duration::from_micros(500)),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr().to_string();

    let classify_load = |salt: u64, tenant: Species, n: usize| -> Vec<TenantRead> {
        loadgen::generate_species_reads(tenant, 0.0, salt, n)
            .into_iter()
            .map(|codes| TenantRead {
                tenant: Some(tenant.key().to_string()),
                codes,
                region: None,
                mode: Mode::Classify,
            })
            .collect()
    };
    let load = LoadgenConfig {
        connections: 2,
        mode: ArrivalMode::Closed { window: 16 },
        collect_responses: true,
        ..LoadgenConfig::default()
    };

    // Phase 1: the kill races an in-flight classify stream on the victim.
    let racing = classify_load(43, victim, 120);
    let report = {
        let addr = addr.clone();
        let load = load.clone();
        let handle = std::thread::spawn(move || loadgen::run_tenants(&addr, &racing, &load));
        std::thread::sleep(Duration::from_millis(5));
        assert!(server.kill_shard(victim.key(), 0), "mid-run kill refused");
        handle.join().expect("loadgen thread").expect("loadgen")
    };
    assert!(
        report.is_lossless(),
        "exactly-once violated through the kill"
    );
    assert_eq!(report.received, report.sent);
    assert_eq!(
        report.ok + report.shed,
        report.received,
        "classify through a shard kill must answer ok or shed, got quota {} deadline {} errors {}",
        report.quota,
        report.deadline,
        report.errors
    );
    // One victim shard still lives, so its tenant stays scoreable: every
    // completed response covers both tenants (scored or named missing).
    assert_classify_complete(&report, 2);

    // Phase 2: fully kill the victim. Its classify traffic sheds
    // explicitly; the neighbor's responses must name the dead tenant in
    // `missing` with `partial` set — never shrink the map silently.
    assert!(server.kill_shard(victim.key(), 1), "second shard kill");
    let dark = loadgen::run_tenants(&addr, &classify_load(47, victim, 20), &load).expect("loadgen");
    assert!(dark.is_lossless());
    assert_eq!(
        dark.shed, dark.sent,
        "classify on a fully-dead tenant must shed every request"
    );
    let neighbor_report =
        loadgen::run_tenants(&addr, &classify_load(53, neighbor, 20), &load).expect("loadgen");
    assert!(neighbor_report.is_lossless());
    assert_eq!(neighbor_report.ok, neighbor_report.sent);
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
