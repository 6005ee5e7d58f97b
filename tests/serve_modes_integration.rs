//! End-to-end tests of the long-read and classify serving modes over
//! real sockets (ISSUE 10).
//!
//! The acceptance bar mirrors `serve_integration.rs`: every request is
//! answered exactly once, and every answer is **bit-identical to the
//! offline pipeline** for the same read —
//!
//! * `mode: "long"` responses match a [`LongReadAligner`] built exactly
//!   the way the server builds its per-tenant engine (the flat reference
//!   through [`LongReadIndex::build`] with default minimizer params),
//!   including the `mapq = anchors.min(60)` evidence proxy, and reads
//!   the chainer cannot place answer `unmapped` — completed work, never
//!   a shed or a silent drop;
//! * `mode: "classify"` responses carry one score per live tenant (the
//!   full registry, sorted-name-deterministic), with the `minimizers`
//!   denominator equal to the read's actual minimizer count;
//! * the three modes coexist on one server and one connection — the
//!   per-mode bins batch them separately but the conservation law
//!   (`ok + unmapped == received == sent`) holds across the mix;
//! * the server's per-mode default deadlines (`long_deadline`,
//!   `classify_deadline`) apply to their mode only, fall back to
//!   `default_deadline`, and lose to a request's own `deadline_ms`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nvwa::align::long_read::{LongReadAligner, LongReadConfig, LongReadIndex};
use nvwa::align::pipeline::{AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa::genome::species::Species;
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome};
use nvwa::index::minimizer::{minimizers, MinimizerParams};
use nvwa::serve::loadgen::{self, ref_params, ArrivalMode, LoadgenConfig, TenantRead};
use nvwa::serve::protocol::{read_frame, write_frame, AlignResponse, Request};
use nvwa::serve::{Mode, Server, ServerConfig, Status, Tenant};

const REF_LEN: usize = 60_000;
const REF_SEED: u64 = 5;
const LONG_READ_SEED: u64 = 0x701;
const LONG_LEN: usize = 2_000;

/// Deterministic unrelated reads (no RNG dependency in tests).
fn garbage_reads(n: usize, len: usize, mut state: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) & 3) as u8
                })
                .collect()
        })
        .collect()
}

/// The offline oracle for long-mode responses: the same index the server
/// builds per tenant (flat reference, default minimizer params).
fn offline_long_index(index: &ReferenceIndex) -> LongReadIndex {
    LongReadIndex::build(index.flat().to_vec(), MinimizerParams::default())
}

#[test]
fn long_mode_is_lossless_and_bit_identical_to_offline() {
    let params = ref_params(REF_LEN);
    let genome = ReferenceGenome::synthesize(&params, REF_SEED);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));

    // 60 mappable long reads plus 8 unrelated ones: the unrelated tail
    // must come back `unmapped` — processed, not shed and not lost.
    let mut reads = loadgen::generate_long_reads(&params, REF_SEED, LONG_READ_SEED, 60, LONG_LEN);
    let mappable = reads.len();
    reads.extend(garbage_reads(8, 1_500, 0xdead_beef));

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
            connections: 2,
            mode: ArrivalMode::Closed { window: 16 },
            request_mode: Mode::Long,
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    server.shutdown();

    assert!(report.is_lossless(), "{report:?}");
    assert_eq!(report.received, reads.len() as u64);
    assert_eq!(
        report.ok + report.unmapped,
        report.received,
        "every long-mode request completes as ok or unmapped: {report:?}"
    );
    assert!(
        report.unmapped >= 8,
        "the unrelated reads must answer unmapped ({report:?})"
    );
    assert!(
        report.ok as usize >= mappable * 9 / 10,
        "simulated long reads should chain ({}/{mappable})",
        report.ok
    );

    // Bit-identity against the offline long-read pipeline.
    let long_index = offline_long_index(&index);
    let aligner = LongReadAligner::new(&long_index, LongReadConfig::default());
    assert_eq!(report.responses.len(), reads.len());
    for (id, codes) in reads.iter().enumerate() {
        let resp = report.responses.get(&(id as u64)).expect("response id");
        match (aligner.align(codes), &resp.alignment) {
            (None, None) => {
                assert_eq!(resp.status, nvwa::serve::Status::Unmapped, "read {id}");
            }
            (Some(offline), Some(wire)) => {
                assert_eq!(resp.status, nvwa::serve::Status::Ok, "read {id}");
                assert_eq!(wire.pos, offline.ref_pos, "read {id} pos");
                assert_eq!(wire.is_rc, offline.is_rc, "read {id} strand");
                assert_eq!(wire.score, offline.score, "read {id} score");
                assert_eq!(wire.cigar, offline.cigar.to_string(), "read {id} cigar");
                assert_eq!(wire.mapq, offline.anchors.min(60) as u8, "read {id} mapq");
            }
            (offline, wire) => panic!("read {id}: served {wire:?} vs offline {offline:?}"),
        }
    }
}

#[test]
fn classify_screens_every_tenant_and_scores_the_origin_tenant_highest() {
    let server = Server::start(
        vec![
            Tenant::species(Species::HomoSapiens, 0.0),
            Tenant::species(Species::CaenorhabditisElegans, 0.0),
        ],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    // Long reads simulated from tenant A's genome: their minimizers must
    // hit A's index far more than B's (B only sees chance 15-mer
    // collisions).
    let genome_a = Species::HomoSapiens.synthesize(0.0);
    let mut sim = ReadSimulator::new(&genome_a, ReadSimParams::long_read(1_500), 0x0c1a);
    let reads: Vec<Vec<u8>> = sim
        .simulate_reads(24)
        .into_iter()
        .map(|r| r.seq.codes().to_vec())
        .collect();

    let report = loadgen::run(
        &addr,
        &reads,
        &LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 8 },
            request_mode: Mode::Classify,
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    server.shutdown();

    assert!(report.is_lossless(), "{report:?}");
    assert_eq!(report.ok, reads.len() as u64, "{report:?}");
    let mm_params = MinimizerParams::default();
    for (id, codes) in reads.iter().enumerate() {
        let resp = report.responses.get(&(id as u64)).expect("response id");
        let classify = resp
            .classify
            .as_ref()
            .unwrap_or_else(|| panic!("read {id}: classify response missing score table"));
        assert!(classify.missing.is_empty(), "read {id}: all tenants live");
        assert!(!classify.partial, "read {id}: full registry screened");
        assert_eq!(classify.tenants.len(), 2, "read {id}: one score per tenant");
        let score = |name: &str| {
            classify
                .tenants
                .iter()
                .find(|t| t.tenant == name)
                .unwrap_or_else(|| panic!("read {id}: no score for {name}"))
        };
        let a = score("homo_sapiens");
        let b = score("caenorhabditis_elegans");
        // The denominator is the read's actual minimizer count over both
        // orientations, identical for every tenant.
        let rc: Vec<u8> = codes.iter().rev().map(|&c| 3 - c).collect();
        let expected =
            (minimizers(codes, &mm_params).len() + minimizers(&rc, &mm_params).len()) as u64;
        assert_eq!(a.minimizers, expected, "read {id} minimizer count");
        assert_eq!(b.minimizers, expected, "read {id} minimizer count");
        assert!(
            a.hits > b.hits,
            "read {id}: origin tenant must score highest ({} vs {})",
            a.hits,
            b.hits
        );
        assert!(a.hits > 0, "read {id}: origin tenant must hit");
    }
}

#[test]
fn mixed_modes_coexist_on_one_server() {
    let params = ref_params(REF_LEN);
    let genome = ReferenceGenome::synthesize(&params, REF_SEED);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));

    // An interleaved short/long/classify stream against one server: the
    // per-mode bins batch them apart, but ids answer exactly once each
    // and every payload matches its mode's offline oracle.
    let mut short_sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 11);
    let shorts: Vec<Vec<u8>> = short_sim
        .simulate_reads(120)
        .into_iter()
        .map(|r| r.seq.codes().to_vec())
        .collect();
    let longs = loadgen::generate_long_reads(&params, REF_SEED, LONG_READ_SEED, 40, LONG_LEN);
    let mut reads: Vec<TenantRead> = Vec::new();
    for (i, codes) in shorts.into_iter().enumerate() {
        let mode = match i % 3 {
            0 => Mode::Short,
            _ => Mode::Classify,
        };
        reads.push(TenantRead {
            tenant: None,
            codes,
            region: None,
            mode,
        });
    }
    for codes in longs {
        reads.push(TenantRead {
            tenant: None,
            codes,
            region: None,
            mode: Mode::Long,
        });
    }

    let server = Server::start(
        vec![Tenant::single(Arc::clone(&index))],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    let report = loadgen::run_tenants(
        &addr,
        &reads,
        &LoadgenConfig {
            connections: 3,
            mode: ArrivalMode::Closed { window: 24 },
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen run");
    server.shutdown();

    assert!(report.is_lossless(), "{report:?}");
    assert_eq!(report.received, reads.len() as u64);
    assert_eq!(
        report.ok + report.unmapped,
        report.received,
        "conservation across the mode mix: {report:?}"
    );

    let short_aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let long_index = offline_long_index(&index);
    let long_aligner = LongReadAligner::new(&long_index, LongReadConfig::default());
    for (id, read) in reads.iter().enumerate() {
        let resp = report.responses.get(&(id as u64)).expect("response id");
        match read.mode {
            Mode::Short => {
                assert!(resp.classify.is_none(), "read {id}: short carries no table");
                let offline = short_aligner.align_codes(id as u64, &read.codes).alignment;
                match (&resp.alignment, offline) {
                    (None, None) => {}
                    (Some(wire), Some(offline)) => {
                        assert_eq!(wire.pos, offline.flat_pos, "read {id} pos");
                        assert_eq!(wire.score, offline.score, "read {id} score");
                        assert_eq!(wire.cigar, offline.cigar.to_string(), "read {id} cigar");
                    }
                    (wire, offline) => panic!("read {id}: {wire:?} vs offline {offline:?}"),
                }
            }
            Mode::Long => match (long_aligner.align(&read.codes), &resp.alignment) {
                (None, None) => {}
                (Some(offline), Some(wire)) => {
                    assert_eq!(wire.pos, offline.ref_pos, "read {id} pos");
                    assert_eq!(wire.score, offline.score, "read {id} score");
                    assert_eq!(wire.cigar, offline.cigar.to_string(), "read {id} cigar");
                }
                (offline, wire) => panic!("read {id}: {wire:?} vs offline {offline:?}"),
            },
            Mode::Classify => {
                let classify = resp.classify.as_ref().expect("classify table");
                assert_eq!(
                    classify.tenants.len(),
                    1,
                    "read {id}: single-tenant registry"
                );
                assert_eq!(classify.tenants[0].tenant, "default", "read {id}");
                assert!(resp.alignment.is_none(), "read {id}: no alignment fields");
            }
        }
    }
}

/// Expiry is decided when a worker takes a request's batch, so only a
/// request that waited *behind a running batch* can expire. The one worker
/// is made busy by structure: a blocker (carrying its own 60 s deadline)
/// is sent alone, and the probes follow only once the server has counted
/// the blocker's batch as taken — the worker then holds it for
/// `worker_delay`, fifty times the 1 ms server default the first probe
/// lives under. The second probe carries its own 60 s `deadline_ms`, which
/// must beat the server default in every mode.
#[test]
fn per_mode_default_deadlines_apply_and_fall_back() {
    let params = ref_params(REF_LEN);
    let genome = ReferenceGenome::synthesize(&params, REF_SEED);
    let index = Arc::new(ReferenceIndex::build(&genome, 32));
    let mut short_sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 11);
    let short = short_sim.simulate_reads(1).remove(0).seq.codes().to_vec();
    let long =
        loadgen::generate_long_reads(&params, REF_SEED, LONG_READ_SEED, 1, LONG_LEN).remove(0);

    let tick = Some(Duration::from_millis(1));
    for (long_deadline, classify_deadline, default_deadline, expiring) in [
        // Per-mode defaults bind their own mode and leave short alone.
        (tick, tick, None, &[Mode::Long, Mode::Classify][..]),
        // With none set, every mode falls back to the general default.
        (
            None,
            None,
            tick,
            &[Mode::Short, Mode::Long, Mode::Classify][..],
        ),
    ] {
        let server = Server::start(
            vec![Tenant::single(Arc::clone(&index))],
            ServerConfig {
                workers: 1,
                worker_delay: Some(Duration::from_millis(50)),
                long_deadline,
                classify_deadline,
                default_deadline,
                ..ServerConfig::default()
            },
        )
        .expect("server start");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("set timeout");
        let request = |id, mode, deadline_ms| {
            let codes = if mode == Mode::Long { &long } else { &short };
            Request::Align {
                id,
                codes: codes.clone(),
                deadline_ms,
                tenant: None,
                region: None,
                mode,
            }
            .encode()
        };

        for mode in [Mode::Short, Mode::Long, Mode::Classify] {
            let taken = server.metrics().counter("serve.batches_formed");
            write_frame(&mut stream, &request(0, Mode::Short, Some(60_000))).expect("blocker");
            while server.metrics().counter("serve.batches_formed") == taken {
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut probes = Vec::new();
            write_frame(&mut probes, &request(1, mode, None)).expect("encode");
            write_frame(&mut probes, &request(2, mode, Some(60_000))).expect("encode");
            stream.write_all(&probes).expect("probes");

            let mut status = [None; 3];
            for _ in 0..3 {
                let doc = read_frame(&mut stream).expect("read").expect("frame");
                let resp = AlignResponse::decode(&doc).expect("decode");
                status[resp.id as usize] = Some(resp.status);
            }
            let served = |s: Option<Status>| matches!(s, Some(Status::Ok | Status::Unmapped));
            assert!(served(status[0]), "{mode:?} blocker: {status:?}");
            if expiring.contains(&mode) {
                assert_eq!(status[1], Some(Status::Deadline), "{mode:?} under defaults");
            } else {
                assert!(served(status[1]), "{mode:?} has no default: {status:?}");
            }
            assert!(
                served(status[2]),
                "{mode:?}: a request's own deadline_ms beats the server default: {status:?}"
            );
        }
        server.shutdown();
    }
}
