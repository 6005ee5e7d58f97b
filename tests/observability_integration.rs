//! End-to-end tests of the live observability plane (ISSUE PR7).
//!
//! The acceptance bar: a closed-loop loadgen run produces (1) a span log
//! in which every admitted request has a complete, non-overlapping span
//! chain whose stage durations sum exactly to its end-to-end latency,
//! (2) at least two mid-run `stats` snapshots that pass the schema
//! validator, and (3) a flight-recorder dump under an injected worker
//! panic whose digest is identical at 1, 2 and 8 workers.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use nvwa::align::pipeline::ReferenceIndex;
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome};
use nvwa::serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig};
use nvwa::serve::{BatcherConfig, Server, ServerConfig, Tenant};
use nvwa::telemetry::snapshot::{validate, Kind};
use nvwa::telemetry::{JsonValue, Outcome, RequestSpans};

const REF_LEN: usize = 60_000;
const REF_SEED: u64 = 5;
const READ_SEED: u64 = 11;
const CORPUS: usize = 600;

struct Fixture {
    index: Arc<ReferenceIndex>,
    reads: Vec<Vec<u8>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let genome = ReferenceGenome::synthesize(&ref_params(REF_LEN), REF_SEED);
        let index = Arc::new(ReferenceIndex::build(&genome, 32));
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), READ_SEED);
        let reads = sim
            .simulate_reads(CORPUS)
            .into_iter()
            .map(|r| r.seq.codes().to_vec())
            .collect();
        Fixture { index, reads }
    })
}

fn start(config: ServerConfig) -> Server {
    Server::start(vec![Tenant::single(Arc::clone(&fixture().index))], config).expect("server start")
}

#[test]
fn every_admitted_request_leaves_a_complete_span_chain_summing_to_its_latency() {
    let server = start(ServerConfig {
        workers: 2,
        batch: BatcherConfig {
            max_batch: 16,
            ..BatcherConfig::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &fixture().reads,
        &LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 16 },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    let metrics = server.shutdown();
    assert!(report.is_lossless(), "lost/duplicated responses");
    assert_eq!(report.ok, report.received, "all requests served ok");

    // Exactly-once accounting: one chain per admission, none dropped at
    // the default span-log capacity.
    let admitted = metrics.counter("serve.requests_admitted");
    let (retained, dropped) = metrics.span_chain_counts();
    assert_eq!(dropped, 0, "span log dropped chains at default capacity");
    assert_eq!(retained as u64, admitted, "one chain per admitted request");
    assert_eq!(admitted, report.ok, "closed loop: every send was admitted");

    // The span-log document validates, which checks each chain:
    // non-empty, contiguous (no gaps, no overlaps), pipeline-ordered.
    let doc = metrics.span_log_doc();
    validate(Kind::SpanLog, &doc).expect("span log schema");

    // Re-derive the sum property explicitly: the three stages partition
    // the request's lifetime, so their durations sum to its e2e latency.
    let chains = doc.get("chains").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(chains.len(), retained);
    for chain_doc in chains {
        let chain = RequestSpans::from_json(chain_doc).expect("chain decodes");
        chain.check().expect("chain is contiguous and ordered");
        assert_eq!(chain.outcome, Outcome::Ok);
        assert_eq!(chain.spans.len(), 3, "queue/align/write");
        let stage_sum: u64 = chain.spans.iter().map(|s| s.dur_ns).sum();
        assert_eq!(stage_sum, chain.e2e_ns(), "stages partition the latency");
        let last = chain.spans.last().unwrap();
        assert_eq!(
            chain.t0_ns + chain.e2e_ns(),
            last.start_ns + last.dur_ns,
            "chain ends exactly at t0 + e2e"
        );
    }
}

#[test]
fn mid_run_stats_scrapes_validate_and_carry_slo_and_flight_views() {
    let server = start(ServerConfig {
        workers: 2,
        batch: BatcherConfig {
            max_batch: 8,
            ..BatcherConfig::default()
        },
        // Stretch the run so the scraper gets several windows at it.
        worker_delay: Some(Duration::from_millis(2)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let report = loadgen::run(
        &addr,
        &fixture().reads,
        &LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 8 },
            scrape_every: Some(Duration::from_millis(5)),
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    let metrics = server.shutdown();
    assert!(report.is_lossless());
    assert_eq!(
        report.scrape_failures, 0,
        "every scrape validated; first failure: {:?}",
        report.scrape_first_error
    );
    // Live scrapes checked the ring identities mid-run; with every thread
    // joined the final summary must satisfy them too.
    validate(Kind::FlightSummary, &metrics.flight().summary_json())
        .expect("quiescent flight summary");
    assert!(
        report.stats_snapshots.len() >= 2,
        "want ≥2 mid-run snapshots, got {}",
        report.stats_snapshots.len()
    );
    for snap in &report.stats_snapshots {
        // The scraper validated already; assert here so a future scraper
        // change cannot silently stop checking.
        validate(Kind::StatsResponse, snap).expect("stats response schema");
        assert!(snap.get("slo").is_some(), "snapshot carries the SLO view");
        assert!(
            snap.get("flight").is_some(),
            "snapshot carries the flight summary"
        );
    }
    // The last snapshot must show real traffic, not an idle hub.
    let last = report.stats_snapshots.last().unwrap();
    let admitted = last
        .get("slo")
        .and_then(|s| s.get("admitted"))
        .and_then(JsonValue::as_num)
        .unwrap();
    assert!(admitted > 0.0, "scrapes observed live admissions");
}

#[test]
fn explicit_flight_request_returns_a_valid_dump() {
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().to_string();
    let reads: Vec<Vec<u8>> = fixture().reads.iter().take(32).cloned().collect();
    loadgen::run(
        &addr,
        &reads,
        &LoadgenConfig {
            connections: 1,
            mode: ArrivalMode::Closed { window: 8 },
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    let dump = loadgen::fetch_flight(&addr).expect("flight request");
    server.shutdown();
    validate(Kind::FlightDump, &dump).expect("flight dump schema");
    assert_eq!(
        dump.get("reason").and_then(JsonValue::as_str),
        Some("explicit")
    );
    let admits = dump
        .get("digest")
        .and_then(|d| d.get("admit"))
        .and_then(JsonValue::as_num)
        .unwrap();
    assert_eq!(admits, 32.0, "ring retained every admission event");
}

#[test]
fn worker_panic_flight_digest_is_identical_at_1_2_8_workers() {
    let summary = nvwa::testkit::faults::worker_panic_digest_matrix(7).expect("digest matrix");
    assert!(summary.contains("admit=120"), "{summary}");
    assert!(summary.contains("panic_batches=[1]"), "{summary}");
}
