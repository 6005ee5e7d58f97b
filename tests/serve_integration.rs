//! End-to-end tests of the serving subsystem over real sockets.
//!
//! The acceptance bar (ISSUE PR3): a closed-loop run of ≥10k reads
//! completes with zero lost and zero duplicated responses, and every
//! alignment is bit-identical to the offline `nvwa-align` result for the
//! same read — regardless of batch size or worker count. Backpressure
//! sheds explicitly, deadlines expire explicitly, shutdown drains, and
//! the hardware-in-the-loop backend reports cycles without perturbing
//! results.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use nvwa::align::pipeline::{
    AlignScratch, AlignerConfig, Alignment, ReferenceIndex, SeedTrace, SoftwareAligner,
};
use nvwa::genome::{ReadSimParams, ReferenceGenome};
use nvwa::serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig, TenantRead};
use nvwa::serve::{BackendKind, BatcherConfig, Request, Server, ServerConfig, Tenant};
use nvwa::telemetry::snapshot::{validate, Kind};
use nvwa::testkit::wait_until;

const REF_LEN: usize = 60_000;
const REF_SEED: u64 = 5;
const READ_SEED: u64 = 11;
const CORPUS: usize = 10_000;

struct Fixture {
    index: Arc<ReferenceIndex>,
    reads: Vec<TenantRead>,
    /// Offline ground truth: request id → the offline aligner's result.
    offline: HashMap<u64, Option<Alignment>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let genome = ReferenceGenome::synthesize(&ref_params(REF_LEN), REF_SEED);
        let index = Arc::new(ReferenceIndex::build(&genome, 32));
        let sim = ReadSimParams::illumina_101();
        let reads = loadgen::generate_reads(&genome, sim, READ_SEED, CORPUS);
        let mut outcomes = Vec::new();
        SoftwareAligner::new(&index, AlignerConfig::default()).align_batch(
            (0..).zip(reads.iter().map(|r| r.codes.as_slice())),
            &mut AlignScratch::new(),
            SeedTrace::Record,
            &mut outcomes,
        );
        let offline = (0..)
            .zip(outcomes)
            .map(|(id, o)| (id, o.alignment))
            .collect();
        Fixture {
            index,
            reads,
            offline,
        }
    })
}

fn start(config: ServerConfig) -> Server {
    Server::start(vec![Tenant::single(Arc::clone(&fixture().index))], config).expect("server start")
}

/// Asserts every collected `ok` response matches the offline aligner
/// bit for bit.
fn assert_bit_identical(report: &loadgen::LoadReport) {
    assert!(!report.responses.is_empty(), "collect_responses was on");
    for (id, resp) in &report.responses {
        let expected = fixture().offline.get(id).expect("known read id");
        match (&resp.alignment, expected) {
            (None, None) => {}
            (Some(wire), Some(offline)) => {
                assert_eq!(wire.pos, offline.flat_pos, "read {id} pos");
                assert_eq!(wire.is_rc, offline.is_rc, "read {id} strand");
                assert_eq!(wire.score, offline.score, "read {id} score");
                assert_eq!(wire.cigar, offline.cigar.to_string(), "read {id} cigar");
                assert_eq!(wire.mapq, offline.mapq, "read {id} mapq");
            }
            (got, want) => panic!("read {id}: served {got:?} vs offline {want:?}"),
        }
    }
}

#[test]
fn closed_loop_10k_reads_is_lossless_and_bit_identical() {
    let fx = fixture();
    let server = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &fx.reads,
        &LoadgenConfig {
            connections: 3,
            mode: ArrivalMode::Closed { window: 64 },
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    let metrics = server.shutdown();

    assert_eq!(report.total.sent, CORPUS as u64);
    assert_eq!(report.total.received, CORPUS as u64);
    assert_eq!(report.total.lost, 0, "no request may vanish");
    assert_eq!(report.duplicates, 0, "no request may be answered twice");
    assert_eq!(
        report.total.ok, CORPUS as u64,
        "unloaded server sheds nothing"
    );
    assert!(
        report.total.mapped as f64 >= 0.9 * CORPUS as f64,
        "simulated reads should map ({}/{CORPUS})",
        report.total.mapped
    );
    assert_bit_identical(&report);
    validate(Kind::LoadgenReport, &report.to_json()).expect("report schema");
    assert_eq!(metrics.counter("serve.responses_ok"), CORPUS as u64);
    assert!(metrics.counter("serve.batches_formed") > 0);
}

#[test]
fn results_are_invariant_across_batch_size_and_worker_count() {
    let fx = fixture();
    let subset = &fx.reads[..1_500];
    let shapes = [(1usize, 4usize), (3, 64)];
    let mut collected: Vec<HashMap<u64, Option<String>>> = Vec::new();
    for (workers, max_batch) in shapes {
        let server = start(ServerConfig {
            workers,
            batch: BatcherConfig {
                max_batch,
                ..BatcherConfig::default()
            },
            ..ServerConfig::default()
        });
        let addr = server.local_addr().to_string();
        let report = loadgen::run(
            &addr,
            subset,
            &LoadgenConfig {
                connections: 2,
                mode: ArrivalMode::Closed { window: 32 },
                collect_responses: true,
                ..LoadgenConfig::default()
            },
        )
        .expect("loadgen run");
        server.shutdown();
        assert!(report.is_lossless());
        assert_eq!(report.total.ok, subset.len() as u64);
        assert_bit_identical(&report);
        collected.push(
            report
                .responses
                .iter()
                .map(|(id, r)| (*id, r.alignment.as_ref().map(|a| format!("{a:?}"))))
                .collect(),
        );
    }
    assert_eq!(
        collected[0], collected[1],
        "batch size and worker count must not change any alignment"
    );
}

#[test]
fn overload_sheds_explicitly_and_conserves_responses() {
    let fx = fixture();
    // A tiny queue and a slow single worker: at most queue_capacity 8
    // requests wait and max_batch 4 execute, so the dispatcher must fill
    // and the edge must answer `shed` — never buffer unboundedly, never
    // drop silently.
    let server = start(ServerConfig {
        queue_capacity: 8,
        workers: 1,
        batch: BatcherConfig {
            max_batch: 4,
            ..BatcherConfig::default()
        },
        worker_delay: Some(Duration::from_millis(30)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &fx.reads[..300],
        &LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Open {
                rate_rps: 5_000.0,
                burst: 20,
            },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    let metrics = server.shutdown();

    assert_eq!(report.total.lost, 0, "shed requests still get responses");
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.total.received, report.total.sent);
    assert!(report.total.shed > 0, "overload must shed ({report:?})");
    assert_eq!(
        report.total.ok + report.total.shed + report.total.deadline,
        report.total.received
    );
    assert_eq!(metrics.counter("serve.requests_shed"), report.total.shed);
    // The gauge is the dispatcher's whole occupancy — everything admitted
    // that no worker has taken — and never exceeded the configured bound.
    let meta = nvwa::telemetry::SnapshotMeta {
        host_threads: 1,
        git_rev: None,
    };
    let doc = metrics.snapshot(&meta);
    let max_depth = doc
        .get("gauges")
        .and_then(|g| g.get("serve.queue_depth_max"))
        .and_then(nvwa::telemetry::JsonValue::as_num)
        .unwrap();
    assert!(max_depth <= 8.0, "admission depth bounded, saw {max_depth}");
}

#[test]
fn queued_requests_past_their_deadline_get_deadline_responses() {
    let fx = fixture();
    let server = start(ServerConfig {
        workers: 1,
        batch: BatcherConfig {
            max_batch: 8,
            ..BatcherConfig::default()
        },
        worker_delay: Some(Duration::from_millis(80)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &fx.reads[..120],
        &LoadgenConfig {
            connections: 1,
            mode: ArrivalMode::Closed { window: 120 },
            deadline_ms: Some(25),
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    let metrics = server.shutdown();

    assert!(report.is_lossless());
    assert_eq!(report.total.received, report.total.sent);
    assert!(
        report.total.deadline > 0,
        "an 80ms/batch worker must blow 25ms deadlines ({report:?})"
    );
    assert!(report.total.ok > 0, "the first batches still make it");
    assert_eq!(
        metrics.counter("serve.deadline_expired"),
        report.total.deadline
    );
}

#[test]
fn shutdown_drains_in_flight_batches() {
    let fx = fixture();
    let server = start(ServerConfig {
        workers: 1,
        worker_delay: Some(Duration::from_millis(10)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();

    // Fire 200 requests and shut down while batches are still in flight.
    let reads = &fx.reads[..200];
    let handle = {
        let addr = addr.clone();
        let reads = reads.to_vec();
        std::thread::spawn(move || {
            loadgen::run(
                &addr,
                &reads,
                &LoadgenConfig {
                    connections: 1,
                    mode: ArrivalMode::Closed { window: 200 },
                    ..LoadgenConfig::default()
                },
            )
            .expect("loadgen run")
        })
    };
    // Shut down once the server has admitted work, however slow the host.
    assert!(
        wait_until(Duration::from_secs(30), || {
            server.metrics().counter("serve.requests_admitted") > 0
        }),
        "no request admitted within 30 s"
    );
    let metrics = server.shutdown();
    let report = handle.join().expect("loadgen thread");

    // Conservation across a drain: every request sent before the socket
    // closed was answered exactly once — ok for everything admitted,
    // shed-with-"draining" for anything that arrived during the drain.
    assert_eq!(
        report.total.lost, 0,
        "drain must answer everything ({report:?})"
    );
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.total.received, report.total.sent);
    assert_eq!(report.total.ok + report.total.shed, report.total.received);
    assert!(report.total.ok > 0, "in-flight batches completed");
    assert_eq!(metrics.counter("serve.responses_ok"), report.total.ok);
}

#[test]
fn hardware_in_the_loop_reports_cycles_and_identical_alignments() {
    let fx = fixture();
    let server = start(ServerConfig {
        workers: 1,
        backend: BackendKind::hil_default(),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &fx.reads[..200],
        &LoadgenConfig {
            connections: 1,
            mode: ArrivalMode::Closed { window: 32 },
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    let metrics = server.shutdown();

    assert!(report.is_lossless());
    assert_eq!(report.total.ok, 200);
    assert_bit_identical(&report);
    assert!(
        report.responses.values().all(|r| r.sim_cycles.is_some()),
        "every HIL response carries the batch's simulated cycles"
    );
    assert!(metrics.counter("serve.sim_cycles_total") > 0);
}

#[test]
fn stats_request_returns_a_valid_serve_snapshot() {
    let fx = fixture();
    let server = start(ServerConfig::default());
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &fx.reads[..64],
        &LoadgenConfig {
            connections: 1,
            mode: ArrivalMode::Closed { window: 16 },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    assert!(report.is_lossless());
    let doc = loadgen::fetch(&addr, &Request::Stats).expect("stats");
    validate(Kind::ServeSnapshot, &doc).expect("serve snapshot schema");
    // Shutdown via the protocol, as `nvwa loadgen --shutdown` would.
    loadgen::send_shutdown(&addr).expect("shutdown request");
    assert!(server.shutdown_requested());
    server.shutdown();
}
