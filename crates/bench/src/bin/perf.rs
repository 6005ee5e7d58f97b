//! perf — standardized perf-regression scenarios for the evaluation
//! harness, written as JSON (scenario → median wall-ms, threads).
//!
//! ```text
//! cargo run --release -p nvwa-bench --bin perf                 # writes BENCH_PR6.json
//! cargo run --release -p nvwa-bench --bin perf -- --out x.json
//! cargo run --release -p nvwa-bench --bin perf -- --metrics-out m.json
//! cargo run --release -p nvwa-bench --bin perf -- --only seed
//! cargo run --release -p nvwa-bench --bin perf -- --only seed \
//!     --min-speedup seed_short_fast_vs_baseline_1t:1.3
//! ```
//!
//! `--metrics-out` additionally writes a metrics snapshot carrying one
//! `perf.<scenario>.t<threads>.median_wall_ms` gauge per scenario plus the
//! speedup gauges — the same numbers as the bench report, in the uniform
//! snapshot schema. `--only <substrs>` runs only scenarios whose name
//! contains one of the comma-separated substrings (speedups whose inputs
//! did not run are omitted).
//! `--min-speedup NAME:VALUE` (repeatable) exits non-zero when the named
//! speedup is missing or below the floor — the CI perf gate.
//!
//! Scenarios:
//!
//! * `workload_build_10k` — execution-driven workload construction over
//!   10 000 simulated reads (the Fig. 11/14 front end), at 1 and 8
//!   threads.
//! * `fig11_chain` — the Fig. 11 ablation chain (4 accelerator variants)
//!   at `Scale::Quick`, at 1 and 8 threads.
//! * `sw_kernel` / `sw_kernel_naive` — the optimized and reference
//!   Smith-Waterman fills on fixed pseudo-random inputs, single-threaded.
//! * `seed_short` / `seed_short_baseline` — SMEM seeding of 2 000 × 101 bp
//!   reads: the software fast path (single-pass occ4 + occ-block cache +
//!   k-mer prefix LUT + reusable scratch) vs the pre-optimization scalar
//!   oracle (`smem::oracle`).
//! * `seed_long` / `seed_long_baseline` — the same comparison over
//!   100 × 2 000 bp noisy long reads.
//! * `extend_short` / `extend_short_banded` — flank-shaped extension
//!   tasks (101 bp mutated queries, band 32): the bit-parallel banded
//!   edit kernel with affine rescoring vs the banded Smith-Waterman unit.
//! * `extend_long` / `extend_long_banded` — the same comparison on
//!   2 000 bp queries (band 64), exercising the multi-word block window.
//! * `e2e_align` / `e2e_align_baseline` — the full align pipeline over
//!   500 reads: fast path with one reusable `AlignScratch` and the
//!   default `KernelPolicy` (bit-parallel extension) vs the allocating
//!   trace-recording path pinned to `KernelPolicy::BandedSw` (the
//!   pre-PR-6 default).
//! * `serve_closed_2k` — a closed-loop serving run: 2 000 reads pushed
//!   over loopback TCP through the full `nvwa-serve` stack (framing,
//!   admission, length-binned batching, 2 workers). Measures end-to-end
//!   serving overhead relative to the offline workload build.
//! * `serve_reactor_10k_idle` — the PR8 scheduling scenario: park ~10k
//!   idle connections (capped by `RLIMIT_NOFILE`: client and server fds
//!   share one process here), then push 2 000 active reads around them.
//!   Records the process thread count and `VmRSS` with the idle fleet
//!   parked plus the active run's p99, in a dedicated
//!   `serve_reactor_10k_idle` JSON section (the committed
//!   BENCH_PR8.json also carries the retired thread-per-connection
//!   frontend's entry).
//! * `serve_adaptive` — the PR9 adaptive-batching proof: a bursty
//!   (Poisson bursts of short reads) and a bimodal (short + 2 000 bp)
//!   mix, each through a static `(max_batch, max_wait)` grid and
//!   through the online controller on a server with a pinned per-batch
//!   dispatch cost. Per-config measured p99 and shed rate land in an
//!   `adaptive_batching` JSON section; the
//!   `adaptive_vs_best_static_{bursty,bimodal}_{p99,shed}` speedups are
//!   best-static ÷ adaptive (`--out BENCH_PR9.json` is the convention,
//!   gated with `--min-speedup adaptive_vs_best_static_bursty_p99:1.15`
//!   etc.).
//! * `long_read_gact` / `long_read_fullsw` — the long-read fill contrast
//!   (PR 10): the seed-chain-fill pipeline (minimizer anchors → chaining
//!   → GACT tile fill, `O(len · tile_size)` DP cells) vs a no-chaining
//!   baseline that anchors on the first minimizer hit of either strand
//!   and pays one full unbanded extension over the whole read span
//!   (`O(len²)` cells), over 24 × 2 000 bp noisy long reads against the
//!   same reference.
//! * `serve_long_read` / `serve_classify` — the PR 10 serving modes end
//!   to end: 200 × 2 000 bp long reads pushed closed-loop through the
//!   full `nvwa-serve` stack as `mode: "long"` (seed-chain-fill per
//!   read, dedicated long bins, explicit `unmapped` status) and as
//!   `mode: "classify"` (per-tenant minimizer screening across the
//!   registry). `--out BENCH_PR10.json` is the convention, gated with
//!   `--min-speedup long_read_gact_vs_fullsw_1t:1.3`.
//!
//! Medians of `--samples` runs (default 3). The file also records the
//! host's available parallelism: on a single-CPU host the parallel
//! scenarios legitimately measure ≈1× — and the frontends' p99s are
//! closer than on a multi-core host, since one core serializes both
//! designs' work anyway; the thread-count and RSS deltas are the
//! architecture-independent signal.

use std::time::Instant;

use nvwa_align::banded::banded_extend_with;
use nvwa_align::kernel::{bitparallel_extend, KernelPolicy};
use nvwa_align::myers::MyersScratch;
use nvwa_align::pipeline::{AlignScratch, AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa_align::scoring::Scoring;
use nvwa_align::sw::{self, DpScratch};
use nvwa_core::experiments::{fig11, Scale};
use nvwa_core::units::workload::build_workload;
use nvwa_genome::reads::{ReadSimParams, ReadSimulator};
use nvwa_genome::reference::{ReferenceGenome, ReferenceParams};
use nvwa_index::smem::{self, collect_smems_into, SmemConfig, SmemScratch};
use nvwa_index::trace::NullTrace;
use nvwa_sim::par;
use nvwa_telemetry::{MetricsRegistry, SnapshotMeta};

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn time_ms(f: impl Fn()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

struct Record {
    name: &'static str,
    threads: usize,
    median_wall_ms: f64,
}

fn run_scenario(name: &'static str, threads: usize, samples: usize, f: impl Fn()) -> Record {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| par::with_threads(threads, || time_ms(&f)))
        .collect();
    let median_wall_ms = median_ms(&mut times);
    eprintln!("{name:22} threads={threads}  median {median_wall_ms:9.1} ms");
    Record {
        name,
        threads,
        median_wall_ms,
    }
}

/// Deterministic pseudo-random 2-bit codes (no RNG dependency here).
fn prng_codes(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) & 3) as u8
        })
        .collect()
}

/// Parses every `--min-speedup NAME:VALUE` occurrence.
fn min_speedup_gates(args: &[String]) -> Vec<(String, f64)> {
    let mut gates = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a != "--min-speedup" {
            continue;
        }
        let spec = args.get(i + 1).map(String::as_str).unwrap_or("");
        let Some((name, floor)) = spec.split_once(':') else {
            eprintln!("perf: --min-speedup expects NAME:VALUE, got {spec:?}");
            std::process::exit(2);
        };
        let Ok(floor) = floor.parse::<f64>() else {
            eprintln!("perf: --min-speedup floor {floor:?} is not a number");
            std::process::exit(2);
        };
        gates.push((name.to_string(), floor));
    }
    gates
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR6.json".to_string());
    let samples: usize = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let gates = min_speedup_gates(&args);
    let want = |name: &str| {
        only.as_deref()
            .is_none_or(|f| f.split(',').any(|s| !s.is_empty() && name.contains(s)))
    };
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("perf: {samples} samples per scenario, host parallelism {host_cpus}");

    let mut records: Vec<Record> = Vec::new();

    // --- workload_build_10k -------------------------------------------
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 200_000,
            chromosomes: 4,
            ..ReferenceParams::default()
        },
        0xbe7c,
    );
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 0x10c);
    let reads = sim.simulate_reads(10_000);
    for threads in [1usize, 8] {
        if want("workload_build_10k") {
            records.push(run_scenario("workload_build_10k", threads, samples, || {
                std::hint::black_box(build_workload(&aligner, &reads));
            }));
        }
    }

    // --- fig11_chain ---------------------------------------------------
    for threads in [1usize, 8] {
        if want("fig11_chain") {
            records.push(run_scenario("fig11_chain", threads, samples, || {
                std::hint::black_box(fig11::run(Scale::Quick));
            }));
        }
    }

    // --- sw_kernel -----------------------------------------------------
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..24)
        .map(|k| (prng_codes(192, 11 + k), prng_codes(240, 77 + k)))
        .collect();
    let scoring = Scoring::bwa_mem();
    if want("sw_kernel") {
        records.push(run_scenario("sw_kernel", 1, samples, || {
            for (q, t) in &pairs {
                std::hint::black_box(sw::local_align(q, t, &scoring));
                std::hint::black_box(sw::extend_align(q, t, &scoring));
                std::hint::black_box(sw::global_align(q, t, &scoring));
            }
        }));
    }
    if want("sw_kernel_naive") {
        records.push(run_scenario("sw_kernel_naive", 1, samples, || {
            for (q, t) in &pairs {
                std::hint::black_box(sw::naive::local_align(q, t, &scoring));
                std::hint::black_box(sw::naive::extend_align(q, t, &scoring));
                std::hint::black_box(sw::naive::global_align(q, t, &scoring));
            }
        }));
    }

    // --- seed_short / seed_long ---------------------------------------
    // Seeding hot path: the optimized fast path (single-pass occ4,
    // occ-block cache, k-mer prefix LUT, reusable scratch, NullTrace) vs
    // the retained pre-optimization oracle (`smem::oracle`: four scalar
    // occ scans per extension, fresh allocations per read). Both produce
    // identical SMEMs (enforced by tests/proptests); the delta is pure
    // seeding-kernel speed.
    let smem_cfg = SmemConfig::default();
    let fmd = index.fmd();
    let short_queries: Vec<&[u8]> = reads[..2_000].iter().map(|r| r.seq.codes()).collect();
    if want("seed_short") {
        records.push(run_scenario("seed_short", 1, samples, || {
            let mut scratch = SmemScratch::new();
            let mut out = Vec::new();
            for q in &short_queries {
                collect_smems_into(fmd, q, &smem_cfg, &mut scratch, &mut out, &mut NullTrace);
                std::hint::black_box(out.len());
            }
        }));
        records.push(run_scenario("seed_short_baseline", 1, samples, || {
            for q in &short_queries {
                std::hint::black_box(smem::oracle::collect_smems(fmd, q, &smem_cfg));
            }
        }));
    }
    let long_reads = {
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::long_read(2_000), 0x701);
        sim.simulate_reads(100)
    };
    if want("seed_long") {
        records.push(run_scenario("seed_long", 1, samples, || {
            let mut scratch = SmemScratch::new();
            let mut out = Vec::new();
            for r in &long_reads {
                collect_smems_into(
                    fmd,
                    r.seq.codes(),
                    &smem_cfg,
                    &mut scratch,
                    &mut out,
                    &mut NullTrace,
                );
                std::hint::black_box(out.len());
            }
        }));
        records.push(run_scenario("seed_long_baseline", 1, samples, || {
            for r in &long_reads {
                std::hint::black_box(smem::oracle::collect_smems(fmd, r.seq.codes(), &smem_cfg));
            }
        }));
    }

    // --- extend_short / extend_long -----------------------------------
    // Isolated extension-unit comparison on flank-shaped tasks: query =
    // mutated window prefix, target = window plus band slack, anchored at
    // (0,0). Same inputs through the bit-parallel banded edit kernel
    // (with affine rescoring + prefix clip) and the banded affine SW unit.
    let extend_pairs = |count: usize, qlen: usize, band: usize, salt: u64| {
        (0..count as u64)
            .map(|k| {
                let target = prng_codes(qlen + band + 1, salt.wrapping_add(k * 7919));
                let mut query = Vec::with_capacity(qlen + 4);
                let mut state = salt ^ (k.wrapping_mul(0x9e3779b97f4a7c15));
                for (i, &c) in target[..qlen].iter().enumerate() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    match (state >> 33) % 100 {
                        0..=1 => query.push((c + 1) % 4), // substitution
                        2 if i > 4 => {}                  // deletion
                        3 => {
                            query.push(c);
                            query.push((c + 2) % 4); // insertion
                        }
                        _ => query.push(c),
                    }
                }
                (query, target)
            })
            .collect::<Vec<(Vec<u8>, Vec<u8>)>>()
    };
    for (tag, banded_tag, count, qlen, band, salt) in [
        (
            "extend_short",
            "extend_short_banded",
            2_000usize,
            101usize,
            32usize,
            0xe57u64,
        ),
        // Band 128 keeps the ~80 expected edits of a 2 000 bp mutated
        // query inside the window (no per-task SW fallback), so this
        // measures the multi-word block path itself.
        ("extend_long", "extend_long_banded", 60, 2_000, 128, 0x10f7),
    ] {
        if !want(tag) {
            continue;
        }
        let tasks = extend_pairs(count, qlen, band, salt);
        records.push(run_scenario(tag, 1, samples, || {
            let mut myers = MyersScratch::new();
            let mut dp = DpScratch::new();
            for (q, t) in &tasks {
                std::hint::black_box(bitparallel_extend(
                    q, t, &scoring, band, &mut myers, &mut dp,
                ));
            }
        }));
        records.push(run_scenario(banded_tag, 1, samples, || {
            let mut dp = DpScratch::new();
            for (q, t) in &tasks {
                std::hint::black_box(banded_extend_with(q, t, &scoring, band, &mut dp));
            }
        }));
    }

    // --- e2e_align -----------------------------------------------------
    // Whole pipeline per read: fast path with one reusable AlignScratch
    // and the default kernel policy (bit-parallel extension) vs the
    // allocating, trace-recording path pinned to the banded-SW kernel
    // (the pre-PR-6 default behavior).
    if want("e2e_align") {
        let baseline_aligner = SoftwareAligner::new(
            &index,
            AlignerConfig {
                kernel: KernelPolicy::BandedSw,
                ..AlignerConfig::default()
            },
        );
        records.push(run_scenario("e2e_align", 1, samples, || {
            let mut scratch = AlignScratch::new();
            for r in &reads[..500] {
                std::hint::black_box(aligner.align_codes_fast(r.id, r.seq.codes(), &mut scratch));
            }
        }));
        records.push(run_scenario("e2e_align_baseline", 1, samples, || {
            for r in &reads[..500] {
                std::hint::black_box(baseline_aligner.align_read(r));
            }
        }));
    }

    // --- long_read_gact / long_read_fullsw ----------------------------
    // The long-read fill contrast: the seed-chain-fill pipeline bounds
    // the DP area to the chained corridor (GACT tiles are tile_size²
    // each, one per tile_size − overlap committed query bases), while a
    // chain-less aligner has to pay a full read-length × window matrix
    // from one seed. The baseline here is deliberately minimal: first
    // minimizer hit of either strand anchors one unbanded extension over
    // the whole read span — no chaining, no tiling.
    if want("long_read") {
        use nvwa_align::long_read::{LongReadAligner, LongReadConfig, LongReadIndex};
        use nvwa_index::minimizer::{minimizers, MinimizerParams};
        let flat = index.flat();
        let mm_params = MinimizerParams::default();
        let lr_index = LongReadIndex::build(flat.to_vec(), mm_params);
        let lr_aligner = LongReadAligner::new(&lr_index, LongReadConfig::default());
        let lr_queries: Vec<&[u8]> = long_reads[..24].iter().map(|r| r.seq.codes()).collect();
        records.push(run_scenario("long_read_gact", 1, samples, || {
            for q in &lr_queries {
                std::hint::black_box(lr_aligner.align(q));
            }
        }));
        records.push(run_scenario("long_read_fullsw", 1, samples, || {
            for q in &lr_queries {
                for oriented in [
                    q.to_vec(),
                    q.iter().rev().map(|&c| 3 - c).collect::<Vec<u8>>(),
                ] {
                    let anchor = minimizers(&oriented, &mm_params).into_iter().find_map(|m| {
                        let hits = lr_index.minimizers().lookup(m.hash, &mut NullTrace);
                        hits.first().map(|&pos| (m.pos as usize, pos as usize))
                    });
                    let Some((qpos, rpos)) = anchor else { continue };
                    let start = rpos.saturating_sub(qpos);
                    let end = (start + oriented.len() + 256).min(flat.len());
                    std::hint::black_box(sw::extend_align(&oriented, &flat[start..end], &scoring));
                }
            }
        }));
    }

    // --- serve_long_read / serve_classify ------------------------------
    // The PR 10 serving modes through the full stack: long reads pushed
    // closed-loop as `mode: "long"` (seed-chain-fill per read, dedicated
    // long bins) and as `mode: "classify"` (per-tenant minimizer
    // screening). One persistent server across samples, same reference
    // family as the other serve scenarios.
    if want("serve_long_read") || want("serve_classify") {
        use nvwa_serve::loadgen::{self as lg, ArrivalMode, LoadgenConfig};
        use nvwa_serve::{Mode, Server, ServerConfig};
        let lr_params = ReferenceParams {
            total_len: 200_000,
            chromosomes: 4,
            ..ReferenceParams::default()
        };
        let serve_long = lg::generate_long_reads(&lr_params, 0xbe7c, 0x2a7, 200, 2_000);
        let server = Server::start(
            std::sync::Arc::new(ReferenceIndex::build(&genome, 32)),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("mode scenario: server start");
        let addr = server.local_addr().to_string();
        let mode_cfg = |request_mode: Mode| LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 8 },
            request_mode,
            ..LoadgenConfig::default()
        };
        if want("serve_long_read") {
            records.push(run_scenario("serve_long_read", 2, samples, || {
                let report = lg::run(&addr, &serve_long, &mode_cfg(Mode::Long))
                    .expect("mode scenario: long loadgen");
                assert!(
                    report.is_lossless() && report.ok + report.unmapped == report.received,
                    "serve_long_read must be lossless: {report:?}"
                );
            }));
        }
        if want("serve_classify") {
            records.push(run_scenario("serve_classify", 2, samples, || {
                let report = lg::run(&addr, &serve_long, &mode_cfg(Mode::Classify))
                    .expect("mode scenario: classify loadgen");
                assert!(
                    report.is_lossless() && report.ok == serve_long.len() as u64,
                    "serve_classify must answer every read ok: {report:?}"
                );
            }));
        }
        server.shutdown();
    }

    // --- serve_closed_2k ----------------------------------------------
    // The full serving stack over loopback: same reference/index family
    // as workload_build_10k, 2 000 reads, closed loop. One persistent
    // server across samples (its index is the dominant fixed cost).
    if want("serve_closed_2k") {
        use nvwa_serve::loadgen::{run as loadgen_run, ArrivalMode, LoadgenConfig};
        use nvwa_serve::{Server, ServerConfig};
        let serve_reads: Vec<Vec<u8>> = reads[..2_000]
            .iter()
            .map(|r| r.seq.codes().to_vec())
            .collect();
        let server = Server::start(
            std::sync::Arc::new(ReferenceIndex::build(&genome, 32)),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("serve scenario: server start");
        let addr = server.local_addr().to_string();
        records.push(run_scenario("serve_closed_2k", 2, samples, || {
            let report = loadgen_run(
                &addr,
                &serve_reads,
                &LoadgenConfig {
                    connections: 2,
                    mode: ArrivalMode::Closed { window: 32 },
                    ..LoadgenConfig::default()
                },
            )
            .expect("serve scenario: loadgen");
            assert!(
                report.is_lossless() && report.ok == serve_reads.len() as u64,
                "serve scenario must be lossless: {report:?}"
            );
        }));
        server.shutdown();
    }

    // --- serve_reactor_10k_idle ---------------------------------------
    // What an idle connection costs: the poll reactor pays one pollfd per
    // parked socket, not a thread (BENCH_PR8.json keeps the retired
    // thread-per-connection frontend's side of this contrast). Park as
    // close to 10k idle connections as RLIMIT_NOFILE allows (each costs
    // two fds in this single process), then measure thread count + VmRSS
    // with the fleet parked and the p99 of 2 000 active reads pushed
    // around it.
    struct FrontendStat {
        frontend: &'static str,
        idle_conns: usize,
        threads_with_idle: usize,
        vm_rss_kb_with_idle: u64,
        active_p99_ms: f64,
        active_wall_ms: f64,
    }
    let mut frontend_stats: Vec<FrontendStat> = Vec::new();
    if want("serve_reactor_10k_idle") && cfg!(unix) {
        use nvwa_serve::loadgen::{run as loadgen_run, ArrivalMode, LoadgenConfig};
        use nvwa_serve::{raise_nofile_limit, Server, ServerConfig};
        let proc_field = |key: &str| -> Option<u64> {
            let status = std::fs::read_to_string("/proc/self/status").ok()?;
            status
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        };
        let limit = raise_nofile_limit(65_536);
        // Two fds per loopback connection, plus headroom for the active
        // phase, indexes and the harness itself.
        let idle_target = 10_000.min((limit.saturating_sub(1_000) / 2) as usize);
        let active_reads: Vec<Vec<u8>> = reads[..2_000]
            .iter()
            .map(|r| r.seq.codes().to_vec())
            .collect();
        let server = Server::start(
            std::sync::Arc::new(ReferenceIndex::build(&genome, 32)),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("idle scenario: server start");
        let addr = server.local_addr().to_string();
        let mut idle = Vec::with_capacity(idle_target);
        for i in 0..idle_target {
            match std::net::TcpStream::connect(&addr) {
                Ok(s) => idle.push(s),
                Err(e) => {
                    eprintln!("serve_reactor_10k_idle: connect {i} failed: {e}");
                    break;
                }
            }
        }
        // Let the reactor finish accepting/registering the fleet.
        std::thread::sleep(std::time::Duration::from_millis(500));
        let threads_with_idle = proc_field("Threads:").unwrap_or(0) as usize;
        let vm_rss_kb_with_idle = proc_field("VmRSS:").unwrap_or(0);
        let start = Instant::now();
        let report = loadgen_run(
            &addr,
            &active_reads,
            &LoadgenConfig {
                connections: 8,
                mode: ArrivalMode::Closed { window: 32 },
                ..LoadgenConfig::default()
            },
        )
        .expect("idle scenario: loadgen");
        let active_wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            report.is_lossless() && report.ok == active_reads.len() as u64,
            "idle scenario must stay lossless around the parked fleet"
        );
        eprintln!(
            "serve_reactor_10k_idle idle={} threads={} rss_kb={} p99_ms={:.1}",
            idle.len(),
            threads_with_idle,
            vm_rss_kb_with_idle,
            report.latency.p99.unwrap_or(0.0) / 1e3
        );
        frontend_stats.push(FrontendStat {
            frontend: "reactor",
            idle_conns: idle.len(),
            threads_with_idle,
            vm_rss_kb_with_idle,
            active_p99_ms: report.latency.p99.unwrap_or(0.0) / 1e3,
            active_wall_ms,
        });
        // The active phase also lands in the ordinary scenario table
        // (single run — the parked fleet is the expensive fixture).
        records.push(Record {
            name: "serve_idle_active_reactor",
            threads: 2,
            median_wall_ms: active_wall_ms,
        });
        drop(idle);
        server.shutdown();
    }

    // --- serve_adaptive ------------------------------------------------
    // The PR9 adaptive-batching proof: the same offered load through a
    // grid of static `(max_batch, max_wait)` settings and through the
    // online controller, on a server whose per-batch dispatch cost is
    // pinned (worker_delay) so batching policy — not host speed — decides
    // the outcome. Two mixes:
    //
    // * `bursty` — Poisson bursts of short reads. Static settings either
    //   under-batch (the fixed dispatch cost dominates and the queue
    //   sheds) or over-wait; the controller grows `max_batch` until a
    //   burst drains in one dispatch.
    // * `bimodal` — short + 2 000 bp reads through one wide length bin.
    //   The controller re-splits the bin at the observed length median
    //   and re-tunes each side; the graded metric is the *short*-read
    //   p99 (`--split-len`), the interactive tail a static wide bin
    //   head-of-line-blocks.
    //
    // Each config gets an unmeasured warmup run (the controller's climb
    // happens there) and one measured run. The measured p99 and shed
    // rate land in the `adaptive_batching` JSON section; the
    // `adaptive_vs_best_static_*` speedups are best-static ÷ adaptive.
    struct AdaptiveStat {
        scenario: &'static str,
        config: String,
        adaptive: bool,
        p99_ms: f64,
        shed_rate: f64,
        ok: u64,
        shed: u64,
        controller_changes: u64,
        controller_resplits: u64,
    }
    let mut adaptive_stats: Vec<AdaptiveStat> = Vec::new();
    let mut adaptive_speedups: Vec<(&'static str, f64, f64, f64)> = Vec::new();
    if want("serve_adaptive") {
        use nvwa_serve::loadgen::{self as lg, ArrivalMode, LoadgenConfig};
        use nvwa_serve::{BatcherConfig, ControllerConfig, Server, ServerConfig};
        use std::time::Duration;

        // Fixed per-batch dispatch cost (the accelerator's PE-array
        // fill/drain), large enough that batch shaping dominates the
        // measurement on any host.
        const DISPATCH_MS: u64 = 25;
        const QUEUE: usize = 128;
        // The static tuning grid the controller has to beat.
        const GRID: [(usize, u64, &str); 4] = [
            (8, 1_000, "b8_w1ms"),
            (8, 8_000, "b8_w8ms"),
            (32, 1_000, "b32_w1ms"),
            (32, 8_000, "b32_w8ms"),
        ];
        fn case_record_name(scenario: &str, config: &str) -> &'static str {
            match (scenario, config) {
                ("bursty", "b8_w1ms") => "serve_bursty_static_b8_w1ms",
                ("bursty", "b8_w8ms") => "serve_bursty_static_b8_w8ms",
                ("bursty", "b32_w1ms") => "serve_bursty_static_b32_w1ms",
                ("bursty", "b32_w8ms") => "serve_bursty_static_b32_w8ms",
                ("bursty", "adaptive") => "serve_bursty_adaptive",
                ("bimodal", "b8_w1ms") => "serve_bimodal_static_b8_w1ms",
                ("bimodal", "b8_w8ms") => "serve_bimodal_static_b8_w8ms",
                ("bimodal", "b32_w1ms") => "serve_bimodal_static_b32_w1ms",
                ("bimodal", "b32_w8ms") => "serve_bimodal_static_b32_w8ms",
                ("bimodal", "adaptive") => "serve_bimodal_adaptive",
                _ => unreachable!("unknown adaptive case"),
            }
        }

        struct Mix {
            scenario: &'static str,
            reads: Vec<Vec<u8>>,
            warm: usize,
            rate_rps: f64,
            burst: usize,
            split_len: Option<usize>,
            bin_bounds: Vec<usize>,
            /// `max_wait` ceiling the controller may climb to. The
            /// bimodal mix needs one matched to the dispatch cost: after
            /// the re-split the long bin only amortizes the fixed
            /// per-batch cost if it may wait long enough to fill.
            wait_ceil_us: u64,
        }
        let ref_params = ReferenceParams {
            total_len: 200_000,
            chromosomes: 4,
            ..ReferenceParams::default()
        };
        let mixes = [
            Mix {
                scenario: "bursty",
                reads: reads[..5_000]
                    .iter()
                    .map(|r| r.seq.codes().to_vec())
                    .collect(),
                warm: 2_000,
                rate_rps: 1_800.0,
                burst: 64,
                split_len: None,
                bin_bounds: BatcherConfig::default().bin_bounds,
                wait_ceil_us: 20_000,
            },
            Mix {
                scenario: "bimodal",
                // Same genome as the serving index, 30% 700 bp reads —
                // enough long mass that the wide bin's length p75 sits in
                // the long mode (the re-splitter's trigger), at a rate the
                // static grid cannot sustain but a grown batch can.
                reads: lg::generate_mixed_reads(&ref_params, 0xbe7c, 0xad5e, 8_000, 0.3, 700),
                warm: 6_000,
                rate_rps: 900.0,
                burst: 32,
                split_len: Some(400),
                bin_bounds: vec![8_192],
                wait_ceil_us: 200_000,
            },
        ];
        let adaptive_idx = std::sync::Arc::new(ReferenceIndex::build(&genome, 32));
        let p99_ms_of = |report: &lg::LoadReport| -> f64 {
            // A config with zero graded ok responses gets a finite
            // worst-case sentinel (JSON has no infinity).
            let summary = report.latency_short.as_ref().unwrap_or(&report.latency);
            summary.p99.unwrap_or(1e12) / 1e3
        };
        let mut run_case = |mix: &Mix,
                            config: &str,
                            batch: BatcherConfig,
                            adaptive: Option<ControllerConfig>|
         -> AdaptiveStat {
            let is_adaptive = adaptive.is_some();
            let server = Server::start(
                std::sync::Arc::clone(&adaptive_idx),
                ServerConfig {
                    workers: 1,
                    queue_capacity: QUEUE,
                    worker_delay: Some(Duration::from_millis(DISPATCH_MS)),
                    batch,
                    adaptive,
                    ..ServerConfig::default()
                },
            )
            .expect("adaptive scenario: server start");
            let addr = server.local_addr().to_string();
            let lg_cfg = LoadgenConfig {
                connections: 1,
                mode: ArrivalMode::Open {
                    rate_rps: mix.rate_rps,
                    burst: mix.burst,
                },
                arrival_seed: 0xadab,
                split_len: mix.split_len,
                ..LoadgenConfig::default()
            };
            // Warmup (unmeasured): the controller's climb happens here.
            let _ = lg::run(&addr, &mix.reads[..mix.warm], &lg_cfg)
                .expect("adaptive scenario: warmup loadgen");
            let start = Instant::now();
            let report = lg::run(&addr, &mix.reads[mix.warm..], &lg_cfg)
                .expect("adaptive scenario: loadgen");
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let (controller_changes, controller_resplits) = server
                .controller()
                .map(|c| {
                    let c = c.lock().unwrap();
                    eprintln!(
                        "serve_adaptive/{}/converged: {}",
                        mix.scenario,
                        c.snapshot_json().to_string_compact()
                    );
                    (c.changes(), c.resplits())
                })
                .unwrap_or((0, 0));
            server.shutdown();
            let stat = AdaptiveStat {
                scenario: mix.scenario,
                config: config.to_string(),
                adaptive: is_adaptive,
                p99_ms: p99_ms_of(&report),
                shed_rate: report.shed as f64 / (report.sent.max(1)) as f64,
                ok: report.ok,
                shed: report.shed,
                controller_changes,
                controller_resplits,
            };
            eprintln!(
                "serve_adaptive/{:7}/{:9} p99={:8.1} ms shed={:5.3} ok={} shed_n={} \
                 ctl(changes={}, resplits={})",
                stat.scenario,
                stat.config,
                stat.p99_ms,
                stat.shed_rate,
                stat.ok,
                stat.shed,
                stat.controller_changes,
                stat.controller_resplits
            );
            records.push(Record {
                name: case_record_name(mix.scenario, config),
                threads: 1,
                median_wall_ms: wall_ms,
            });
            stat
        };
        for mix in &mixes {
            let mut best_static_p99 = f64::INFINITY;
            let mut best_static_shed = f64::INFINITY;
            for &(b, wait_us, config) in &GRID {
                let batch = BatcherConfig {
                    bin_bounds: mix.bin_bounds.clone(),
                    max_batch: b,
                    max_wait: Duration::from_micros(wait_us),
                    ..BatcherConfig::default()
                };
                let stat = run_case(mix, config, batch, None);
                best_static_p99 = best_static_p99.min(stat.p99_ms);
                best_static_shed = best_static_shed.min(stat.shed_rate);
                adaptive_stats.push(stat);
            }
            // The controller starts from the grid's *worst-shaped* point
            // and has to climb out on live telemetry alone.
            let base = BatcherConfig {
                bin_bounds: mix.bin_bounds.clone(),
                max_batch: 8,
                max_wait: Duration::from_micros(1_000),
                ..BatcherConfig::default()
            };
            let ctl_cfg = ControllerConfig {
                tick_us: 10_000,
                hold_ticks: 1,
                wait_ceil_us: mix.wait_ceil_us,
                ..ControllerConfig::default()
            };
            let stat = run_case(mix, "adaptive", base, Some(ctl_cfg));
            assert!(
                stat.controller_changes >= 1,
                "adaptive {} run: the controller never changed a knob",
                mix.scenario
            );
            let (p99_name, shed_name): (&'static str, &'static str) = match mix.scenario {
                "bursty" => (
                    "adaptive_vs_best_static_bursty_p99",
                    "adaptive_vs_best_static_bursty_shed",
                ),
                _ => (
                    "adaptive_vs_best_static_bimodal_p99",
                    "adaptive_vs_best_static_bimodal_shed",
                ),
            };
            adaptive_speedups.push((
                p99_name,
                best_static_p99,
                stat.p99_ms,
                best_static_p99 / stat.p99_ms,
            ));
            // Shed rates can both be 0 (ratio 1.0 = parity); the +1e-3
            // smoothing keeps the ratio finite when adaptive sheds none.
            adaptive_speedups.push((
                shed_name,
                best_static_shed,
                stat.shed_rate,
                (best_static_shed + 1e-3) / (stat.shed_rate + 1e-3),
            ));
            adaptive_stats.push(stat);
        }
    }

    let lookup = |name: &str, threads: usize| {
        records
            .iter()
            .find(|r| r.name == name && r.threads == threads)
            .map(|r| r.median_wall_ms)
    };
    // Each speedup is `slow / fast` of two recorded scenarios; pairs whose
    // scenarios were filtered out by --only are simply omitted.
    type SpeedupPair = (&'static str, (&'static str, usize), (&'static str, usize));
    let pairs: [SpeedupPair; 9] = [
        (
            "workload_build_10k_8t_vs_1t",
            ("workload_build_10k", 1),
            ("workload_build_10k", 8),
        ),
        (
            "fig11_chain_8t_vs_1t",
            ("fig11_chain", 1),
            ("fig11_chain", 8),
        ),
        (
            "sw_kernel_opt_vs_naive_1t",
            ("sw_kernel_naive", 1),
            ("sw_kernel", 1),
        ),
        (
            "seed_short_fast_vs_baseline_1t",
            ("seed_short_baseline", 1),
            ("seed_short", 1),
        ),
        (
            "seed_long_fast_vs_baseline_1t",
            ("seed_long_baseline", 1),
            ("seed_long", 1),
        ),
        (
            "extend_short_bitparallel_vs_banded_1t",
            ("extend_short_banded", 1),
            ("extend_short", 1),
        ),
        (
            "extend_long_bitparallel_vs_banded_1t",
            ("extend_long_banded", 1),
            ("extend_long", 1),
        ),
        (
            "e2e_align_fast_vs_baseline_1t",
            ("e2e_align_baseline", 1),
            ("e2e_align", 1),
        ),
        // The long-read fill contrast (PR 10): chain-bounded GACT tiling
        // vs the single-anchor full-matrix baseline.
        (
            "long_read_gact_vs_fullsw_1t",
            ("long_read_fullsw", 1),
            ("long_read_gact", 1),
        ),
    ];
    let mut speedups: Vec<(&str, f64, f64, f64)> = pairs
        .iter()
        .filter_map(|(name, slow, fast)| {
            let slow = lookup(slow.0, slow.1)?;
            let fast = lookup(fast.0, fast.1)?;
            Some((*name, slow, fast, slow / fast))
        })
        .collect();
    // The adaptive-batching comparisons are p99/shed ratios, not wall
    // clocks, but they gate exactly like any other speedup.
    speedups.extend(
        adaptive_speedups
            .iter()
            .map(|&(name, slow, fast, v)| (name, slow, fast, v)),
    );
    // Human-readable summary: per-scenario speedup vs its baseline, with
    // the raw medians the ratio came from.
    if !speedups.is_empty() {
        eprintln!();
        eprintln!("speedup summary ({samples} samples/scenario, medians):");
        eprintln!(
            "  {:40} {:>12} {:>12} {:>9}",
            "pair", "baseline", "fast", "speedup"
        );
        for (name, slow, fast, v) in &speedups {
            eprintln!("  {name:40} {slow:>9.1} ms {fast:>9.1} ms {v:>8.2}x");
        }
        if host_cpus == 1 {
            eprintln!(
                "  note: host parallelism is 1 — the *_8t_vs_1t pairs legitimately \
                 measure ~1x here and are not parallel regressions."
            );
        }
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_parallelism\": {host_cpus},\n"));
    json.push_str(&format!("  \"samples_per_scenario\": {samples},\n"));
    json.push_str("  \"scenarios\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"median_wall_ms\": {:.3}}}{}\n",
            r.name,
            r.threads,
            r.median_wall_ms,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if !frontend_stats.is_empty() {
        json.push_str("  \"serve_reactor_10k_idle\": [\n");
        for (i, s) in frontend_stats.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"frontend\": \"{}\", \"idle_conns\": {}, \"threads_with_idle\": {}, \
                 \"vm_rss_kb_with_idle\": {}, \"active_p99_ms\": {:.3}, \
                 \"active_wall_ms\": {:.3}}}{}\n",
                s.frontend,
                s.idle_conns,
                s.threads_with_idle,
                s.vm_rss_kb_with_idle,
                s.active_p99_ms,
                s.active_wall_ms,
                if i + 1 < frontend_stats.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        json.push_str("  ],\n");
    }
    if !adaptive_stats.is_empty() {
        json.push_str("  \"adaptive_batching\": [\n");
        for (i, s) in adaptive_stats.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"config\": \"{}\", \"adaptive\": {}, \
                 \"p99_ms\": {:.3}, \"shed_rate\": {:.4}, \"ok\": {}, \"shed\": {}, \
                 \"controller_changes\": {}, \"controller_resplits\": {}}}{}\n",
                s.scenario,
                s.config,
                s.adaptive,
                s.p99_ms,
                s.shed_rate,
                s.ok,
                s.shed,
                s.controller_changes,
                s.controller_resplits,
                if i + 1 < adaptive_stats.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        json.push_str("  ],\n");
    }
    json.push_str("  \"speedups\": {\n");
    for (i, (name, _, _, v)) in speedups.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {v:.3}{}\n",
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("perf: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    let mut gate_failed = false;
    for (name, floor) in &gates {
        match speedups.iter().find(|(n, _, _, _)| n == name) {
            Some((_, _, _, v)) if v >= floor => {
                eprintln!("perf gate ok: {name} {v:.2}x >= {floor:.2}x");
            }
            Some((_, _, _, v)) => {
                eprintln!("perf gate FAILED: {name} {v:.2}x < {floor:.2}x");
                gate_failed = true;
            }
            None => {
                eprintln!("perf gate FAILED: speedup {name} was not measured");
                gate_failed = true;
            }
        }
    }
    if gate_failed {
        std::process::exit(1);
    }

    if let Some(metrics_out) = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
    {
        let mut metrics = MetricsRegistry::new();
        let g = |m: &mut MetricsRegistry, name: &str, v: f64| {
            let id = m.gauge(name);
            m.set_gauge(id, v);
        };
        for r in &records {
            g(
                &mut metrics,
                &format!("perf.{}.t{}.median_wall_ms", r.name, r.threads),
                r.median_wall_ms,
            );
        }
        for (name, _, _, v) in &speedups {
            g(&mut metrics, &format!("perf.speedup.{name}"), *v);
        }
        let meta = SnapshotMeta::collect(host_cpus);
        if let Err(e) = std::fs::write(metrics_out, metrics.snapshot_json(&meta)) {
            eprintln!("perf: cannot write {metrics_out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {metrics_out}");
    }
}
