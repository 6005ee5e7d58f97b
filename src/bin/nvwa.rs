//! `nvwa` — command-line front end to the reproduction.
//!
//! Six subcommands — `sim` (the default), `synth-ref`, `synth-reads`,
//! `align`, `serve`, `conformance`; an unknown subcommand prints each
//! one's synopsis from the one table (`SUBCOMMANDS`) that lists its flags.
//!
//! An unrecognised `--flag` is a usage error (exit 2, the flag named on
//! stderr) before any work: a typo or a removed flag never runs defaults.
//!
//! `conformance` runs the repo's cross-layer correctness checks
//! (differential oracles, simulator conservation laws, serve fault
//! injection — DESIGN.md §11) and prints a report whose bytes are
//! identical for a fixed seed at any `--threads` value. Divergences are
//! minimized and written as reproducer files under `--repro-dir`
//! (default `tests/golden/repro/`); the exit code is non-zero when any
//! check fails. `--seed-from-ci` selects the CI matrix: seeds 1,2,3 ×
//! a short and a long profile. `--family NAME` (repeatable) runs one
//! family in isolation — e.g. `--family extension` for the bit-parallel
//! extension-kernel differential suite; it composes with `--families`.
//!
//! The default (no subcommand, or `sim`) runs the paper-scale accelerator
//! on the calibrated synthetic workload. `align` runs the software
//! seed-and-extend pipeline (emitting SAM) and, with `--simulate`, replays
//! the workload through the NvWa accelerator model and prints the timing
//! report. Per-read alignment is parallel (output is identical at any
//! thread count); `--threads N` pins the pool size, otherwise
//! `NVWA_THREADS` or the hardware parallelism decides.
//!
//! `--trace-out` writes a Chrome `trace_event` JSON (open in Perfetto or
//! `chrome://tracing`): one track per SU/EU plus the Coordinator, and a
//! host process with the wall-clock phase spans. `--metrics-out` writes
//! the versioned metrics snapshot (counters, stall attribution, latency
//! percentiles — DESIGN.md §8).

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use nvwa::align::pipeline::{AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa::align::sam;
use nvwa::core::config::NvwaConfig;
use nvwa::core::system::{simulate_instrumented, SimOptions, SimRun};
use nvwa::core::units::workload::{ReadWork, SyntheticWorkloadParams};
use nvwa::genome::fasta;
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};
use nvwa::index::Isa;
use nvwa::sim::par::{usage_synopsis, FlagSpec};
use nvwa::telemetry::{cycles_to_us, SnapshotMeta, PID_HOST};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `name V` parsed as a `T` (`None` when absent); a missing or
/// unparsable value is a usage error, not a silent default.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    nvwa::sim::par::flag(args, name).unwrap_or_else(|e| {
        eprintln!("nvwa: {e}");
        std::process::exit(2)
    })
}

/// [`flag`] for a count the program cannot run with at zero: a parsable
/// `0` is a usage error too, not a panic further in.
fn positive_flag(args: &[String], name: &str) -> Option<usize> {
    let value = flag(args, name);
    if value == Some(0) {
        eprintln!("nvwa: {name}: must be at least 1");
        std::process::exit(2)
    }
    value
}

type Run = fn(&[String]) -> ExitCode;

/// Every subcommand: name, entry point, positional synopsis, and the flags
/// it accepts with their value placeholders. Anything else starting with
/// `--` is refused before the subcommand runs, and `usage` prints this
/// table — a flag is listed here and nowhere else.
#[rustfmt::skip] // one row per subcommand
const SUBCOMMANDS: &[(&str, Run, &str, &[FlagSpec])] = &[
    ("sim", sim, "[sim]", &[
        ("--reads", "N"), ("--seed", "S"), ("--trace-out", "t.json"),
        ("--metrics-out", "m.json"), ("--threads", "N"),
    ]),
    ("synth-ref", synth_ref, "synth-ref <out.fa>", &[
        ("--len", "N"), ("--chromosomes", "N"), ("--seed", "S"),
    ]),
    ("synth-reads", synth_reads, "synth-reads <ref.fa> <out.fq>", &[
        ("--count", "N"), ("--len", "N"), ("--seed", "S"),
    ]),
    ("align", align, "align <ref.fa> <reads.fq>", &[
        ("--sam", "out.sam"), ("--simulate", ""), ("--trace-out", "t.json"),
        ("--metrics-out", "m.json"), ("--threads", "N"),
    ]),
    ("serve", serve, "serve", &[
        ("--addr", "H:P"), ("--addr-file", "PATH"), ("--ref", "ref.fa"), ("--ref-len", "N"),
        ("--ref-seed", "S"), ("--queue-cap", "N"), ("--workers", "N"), ("--batch-max", "N"),
        ("--deadline-ms", "D"), ("--long-deadline-ms", "D"), ("--classify-deadline-ms", "D"),
        ("--backend", "sw|hil"), ("--frontend", "reactor"),
        ("--metrics-out", "m.json"), ("--trace-out", "t.json"), ("--span-log-out", "s.json"),
        ("--span-log-cap", "N"), ("--flight-dump", "DIR"), ("--flight-cap", "N"),
        ("--slo-window-ms", "W"), ("--slo-step-ms", "S"), ("--shed-storm", "N"),
        ("--tenant", "KEY[:SHARDS[:QUOTA]]..."), ("--tenant-scale", "F"),
        ("--registry-budget", "BYTES"), ("--debug-worker-delay-us", "U"),
        ("--debug-worker-panic-at-batch", "N"), ("--threads", "N"),
    ]),
    ("conformance", conformance, "conformance", &[
        ("--seed", "S..."), ("--seed-from-ci", ""), ("--cases", "N"), ("--serve-reads", "N"),
        ("--families", "diff,extension,invariants,faults,registry,long_read"),
        ("--family", "NAME..."), ("--repro-dir", "DIR"), ("--threads", "N"),
    ]),
];

fn usage() -> ExitCode {
    eprintln!("usage:");
    for (_, _, positional, flags) in SUBCOMMANDS {
        eprintln!("{}", usage_synopsis(&format!("  nvwa {positional}"), flags));
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = nvwa::sim::par::configure_threads_from_args(&args) {
        eprintln!("nvwa: {e}");
        return ExitCode::from(2);
    }
    let (sub, rest) = match args.first().map(String::as_str) {
        // Bare invocation (possibly with flags only): the default scenario.
        None => ("sim", &args[..]),
        Some(first) if first.starts_with("--") => ("sim", &args[..]),
        Some(name) => (name, &args[1..]),
    };
    let Some(&(_, run, _, known)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == sub) else {
        return usage();
    };
    if let Err(e) = nvwa::sim::par::reject_unknown_flags(rest, known) {
        eprintln!("nvwa: {e}");
        return ExitCode::from(2);
    }
    run(rest)
}

/// Wall-clock phase spans for the host track of the trace (and the
/// `host.<phase>.wall_ms` gauges of the snapshot).
struct HostPhases {
    epoch: Instant,
    spans: Vec<(String, f64, f64)>, // (name, start_us, dur_us)
}

impl HostPhases {
    fn new() -> HostPhases {
        HostPhases {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f`, recording it as phase `name`.
    fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_secs_f64() * 1e6;
        let value = f();
        let end = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push((name.to_string(), start, end - start));
        value
    }
}

/// Writes `--trace-out` / `--metrics-out` files from an instrumented run.
/// The host phases become spans on the host process track and
/// `host.<phase>.wall_ms` gauges in the snapshot.
fn emit_telemetry(args: &[String], mut run: SimRun, phases: &HostPhases) -> Result<(), ExitCode> {
    let write = |path: &str, text: &str| -> Result<(), ExitCode> {
        fs::write(path, text).map_err(|e| {
            eprintln!("nvwa: cannot write {path}: {e}");
            ExitCode::FAILURE
        })?;
        println!("wrote {path}");
        Ok(())
    };
    if let Some(path) = flag_value(args, "--trace-out") {
        let mut trace = run.trace.take().unwrap_or_default();
        trace.name_process(PID_HOST, "host");
        trace.name_thread(PID_HOST, 0, "pipeline");
        for (name, start_us, dur_us) in &phases.spans {
            trace.complete(PID_HOST, 0, name, *start_us, *dur_us);
        }
        trace.instant(
            PID_HOST,
            0,
            "simulated end",
            cycles_to_us(run.report.total_cycles),
        );
        write(&path, &trace.to_json())?;
    }
    if let Some(path) = flag_value(args, "--metrics-out") {
        for (name, _, dur_us) in &phases.spans {
            let id = run.metrics.gauge(&format!("host.{name}.wall_ms"));
            run.metrics.set_gauge(id, dur_us / 1e3);
        }
        let meta = SnapshotMeta::collect(nvwa::sim::par::current_threads());
        write(&path, &run.metrics.snapshot_json(&meta))?;
    }
    Ok(())
}

fn print_report(report: &nvwa::core::SimReport) {
    println!(
        "NvWa model: {} cycles → {:.1} K reads/s @ 1 GHz (SU {:.1}%, EU {:.1}%, \
         {} hits, {} buffer switches)",
        report.total_cycles,
        report.kreads_per_sec().unwrap_or(0.0),
        report.su_utilization * 100.0,
        report.eu_utilization * 100.0,
        report.hits_dispatched,
        report.buffer_switches
    );
}

/// The default scenario: the paper-scale accelerator on the calibrated
/// synthetic workload (no input files needed).
fn sim(args: &[String]) -> ExitCode {
    let reads = positive_flag(args, "--reads").unwrap_or(2_000);
    let seed = flag(args, "--seed").unwrap_or(42);
    let mut phases = HostPhases::new();
    let works = phases.run("workload build", || {
        SyntheticWorkloadParams {
            reads,
            ..SyntheticWorkloadParams::default()
        }
        .generate(seed)
    });
    let opts = SimOptions {
        trace: flag_value(args, "--trace-out").is_some(),
    };
    let run = phases.run("simulation", || {
        simulate_instrumented(&NvwaConfig::paper(), &works, &opts)
    });
    print_report(&run.report);
    match emit_telemetry(args, run, &phases) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn synth_ref(args: &[String]) -> ExitCode {
    let Some(out) = args.first() else {
        return usage();
    };
    let params = ReferenceParams {
        total_len: positive_flag(args, "--len").unwrap_or(500_000),
        chromosomes: positive_flag(args, "--chromosomes").unwrap_or(4),
        ..ReferenceParams::default()
    };
    let genome = ReferenceGenome::synthesize(&params, flag(args, "--seed").unwrap_or(1));
    if let Err(e) = fs::write(out, fasta::to_fasta(&genome, 80)) {
        eprintln!("nvwa: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} bp, {} chromosomes)",
        out,
        genome.total_len(),
        genome.chromosomes().len()
    );
    ExitCode::SUCCESS
}

fn load_genome(path: &str) -> Result<ReferenceGenome, ExitCode> {
    let text = fs::read_to_string(path).map_err(|e| {
        eprintln!("nvwa: cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    fasta::from_fasta(path, &text).map_err(|e| {
        eprintln!("nvwa: bad FASTA {path}: {e}");
        ExitCode::FAILURE
    })
}

fn synth_reads(args: &[String]) -> ExitCode {
    let (Some(ref_path), Some(out)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let genome = match load_genome(ref_path) {
        Ok(g) => g,
        Err(code) => return code,
    };
    let params = ReadSimParams {
        read_len: flag(args, "--len").unwrap_or(101),
        ..ReadSimParams::illumina_101()
    };
    let mut sim = ReadSimulator::new(&genome, params, flag(args, "--seed").unwrap_or(2));
    let reads = sim.simulate_reads(flag(args, "--count").unwrap_or(1_000));
    if let Err(e) = fs::write(out, fasta::reads_to_fastq(&reads)) {
        eprintln!("nvwa: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} reads of {} bp)",
        out,
        reads.len(),
        params.read_len
    );
    ExitCode::SUCCESS
}

/// Runs the selected conformance families over the seed list and prints
/// the report; non-zero exit on any divergence.
fn conformance(args: &[String]) -> ExitCode {
    use nvwa::testkit::conformance::{run, ConformanceConfig, Family};
    use std::path::PathBuf;

    // `--seed` is repeatable; no occurrence means the default matrix.
    let seeds: Vec<u64> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--seed")
        .filter_map(|(i, _)| flag(&args[i..], "--seed"))
        .collect();
    let seeds = if seeds.is_empty() {
        vec![1, 2, 3]
    } else {
        seeds
    };
    // `--families a,b` and repeatable `--family a` compose; no occurrence
    // of either means the full matrix.
    let mut families = Vec::new();
    if let Some(list) = flag_value(args, "--families") {
        for item in list.split(',') {
            match Family::parse(item) {
                Some(f) => families.push(f),
                None => {
                    eprintln!(
                        "nvwa: unknown family {item:?} (want diff, extension, invariants, \
                         faults, registry, long_read)"
                    );
                    return usage();
                }
            }
        }
    }
    for (i, _) in args.iter().enumerate().filter(|(_, a)| *a == "--family") {
        match args.get(i + 1).and_then(|v| Family::parse(v)) {
            Some(f) => families.push(f),
            None => {
                eprintln!(
                    "nvwa: --family wants diff, extension, invariants, faults, registry \
                     or long_read"
                );
                return usage();
            }
        }
    }
    let families = if families.is_empty() {
        Family::ALL.to_vec()
    } else {
        families
    };
    let repro_dir = match flag_value(args, "--repro-dir").as_deref() {
        Some("none") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => Some(PathBuf::from("tests/golden/repro")),
    };

    // Profiles: the CI matrix runs every seed at a short and a long read
    // budget; a direct invocation runs one profile from the flags.
    let profiles: Vec<(&str, usize, usize)> = if args.iter().any(|a| a == "--seed-from-ci") {
        vec![("short", 16, 32), ("long", 48, 120)]
    } else {
        vec![(
            "default",
            flag(args, "--cases").unwrap_or(24),
            flag(args, "--serve-reads").unwrap_or(48),
        )]
    };

    let mut all_passed = true;
    for (name, cases, serve_reads) in profiles {
        let report = run(&ConformanceConfig {
            seeds: seeds.clone(),
            cases,
            serve_reads,
            families: families.clone(),
            repro_dir: repro_dir.clone(),
        });
        println!("profile: {name} (cases {cases}, serve reads {serve_reads})");
        print!("{}", report.text());
        all_passed &= report.passed();
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses a `--tenant` spec: `species_key[:shards[:quota]]`, e.g.
/// `homo_sapiens:4:256`, into `(species, shards, quota)`.
fn parse_tenant_spec(
    spec: &str,
) -> Result<(nvwa::genome::species::Species, usize, Option<u64>), String> {
    use nvwa::genome::species::{Species, ALL_SPECIES};
    let mut parts = spec.split(':');
    let key = parts.next().unwrap_or("");
    let species = Species::from_key(key).ok_or_else(|| {
        format!(
            "unknown species key {key:?} (want one of: {})",
            ALL_SPECIES.map(Species::key).join(", ")
        )
    })?;
    let (mut shards, mut quota) = (1, None);
    if let Some(n) = parts.next() {
        shards = n
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("bad shard count {n:?} in {spec:?}"))?;
    }
    if let Some(q) = parts.next() {
        quota = Some(
            q.parse()
                .map_err(|_| format!("bad quota {q:?} in {spec:?}"))?,
        );
    }
    Ok((species, shards, quota))
}

/// The serving front end: builds (or loads) a reference, starts the
/// batched TCP server and runs until SIGINT/SIGTERM or a protocol
/// `shutdown` request, then drains gracefully and optionally writes the
/// serve metrics snapshot and Chrome trace.
fn serve(args: &[String]) -> ExitCode {
    use nvwa::serve::loadgen::ref_params;
    use nvwa::serve::{
        signal, BackendKind, BatcherConfig, ObservabilityConfig, Server, ServerConfig, Tenant,
    };
    use std::sync::Arc;
    use std::time::Duration;

    // The reactor is the only frontend. Scripts written when there were
    // two still pass `--frontend reactor`; anything else must not
    // silently get the reactor.
    if let Some(name) = flag_value(args, "--frontend").filter(|name| name != "reactor") {
        eprintln!("nvwa: --frontend {name:?}: the threaded frontend was removed");
        return usage();
    }
    // `--tenant KEY[:SHARDS[:QUOTA]]` (repeatable) serves species tenants,
    // each reference synthesized from its profile at `--tenant-scale`;
    // without one the server has the single `--ref*` tenant. The two do
    // not mix.
    let tenant_scale = flag(args, "--tenant-scale").unwrap_or(0.05f64);
    let mut specs = Vec::new();
    let tenant_flags: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--tenant")
        .map(|(i, _)| i)
        .collect();
    for i in tenant_flags {
        let Some(spec) = args.get(i + 1) else {
            eprintln!("nvwa: --tenant wants species_key[:shards[:quota]]");
            return usage();
        };
        match parse_tenant_spec(spec) {
            Ok(t) => specs.push(t),
            Err(e) => {
                eprintln!("nvwa: {e}");
                return usage();
            }
        }
    }
    for name in ["--ref", "--ref-len", "--ref-seed"] {
        if !specs.is_empty() && args.iter().any(|a| a == name) {
            eprintln!("nvwa: {name}: not valid with --tenant");
            return ExitCode::from(2);
        }
    }

    let backend = match flag_value(args, "--backend").as_deref().unwrap_or("sw") {
        "sw" => BackendKind::Software,
        "hil" => BackendKind::hil_default(),
        other => {
            eprintln!("nvwa: unknown backend {other:?} (want sw or hil)");
            return usage();
        }
    };
    let config = ServerConfig {
        addr: flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string()),
        registry_budget: flag(args, "--registry-budget"),
        queue_capacity: positive_flag(args, "--queue-cap").unwrap_or(1024),
        workers: flag(args, "--workers").unwrap_or_else(nvwa::sim::par::current_threads),
        batch: BatcherConfig {
            max_batch: positive_flag(args, "--batch-max").unwrap_or(64),
            ..BatcherConfig::default()
        },
        backend,
        aligner: AlignerConfig::default(),
        default_deadline: flag(args, "--deadline-ms").map(Duration::from_millis),
        long_deadline: flag(args, "--long-deadline-ms").map(Duration::from_millis),
        classify_deadline: flag(args, "--classify-deadline-ms").map(Duration::from_millis),
        trace: flag_value(args, "--trace-out").is_some(),
        obs: {
            let defaults = ObservabilityConfig::default();
            ObservabilityConfig {
                slo_window_ms: flag(args, "--slo-window-ms").unwrap_or(defaults.slo_window_ms),
                slo_step_ms: flag(args, "--slo-step-ms").unwrap_or(defaults.slo_step_ms),
                span_log_cap: flag(args, "--span-log-cap").unwrap_or(defaults.span_log_cap),
                flight_cap: flag(args, "--flight-cap").unwrap_or(defaults.flight_cap),
                flight_dump: flag_value(args, "--flight-dump").map(std::path::PathBuf::from),
                shed_storm_threshold: flag(args, "--shed-storm"),
            }
        },
        worker_delay: flag(args, "--debug-worker-delay-us").map(Duration::from_micros),
        worker_panic_at_batch: flag(args, "--debug-worker-panic-at-batch"),
    };
    signal::install();
    let tenants = if specs.is_empty() {
        let genome = if let Some(ref_path) = flag_value(args, "--ref") {
            match load_genome(&ref_path) {
                Ok(g) => g,
                Err(code) => return code,
            }
        } else {
            let len = positive_flag(args, "--ref-len").unwrap_or(100_000);
            let seed = flag(args, "--ref-seed").unwrap_or(5);
            eprintln!("synthesizing {len} bp reference (seed {seed}) ...");
            ReferenceGenome::synthesize(&ref_params(len), seed)
        };
        eprintln!(
            "indexing {} bp (isa: {}) ...",
            genome.total_len(),
            Isa::host().name()
        );
        vec![Tenant::single(Arc::new(ReferenceIndex::build(&genome, 32)))]
    } else {
        eprintln!(
            "indexing {} tenant(s) at scale {tenant_scale} (isa: {}) ...",
            specs.len(),
            Isa::host().name()
        );
        specs
            .into_iter()
            .map(|(species, shards, quota)| Tenant {
                shards,
                quota,
                ..Tenant::species(species, tenant_scale)
            })
            .collect()
    };
    let server = match Server::start(tenants, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nvwa: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("serving on {addr} (SIGINT or a shutdown request drains and exits)");
    if let Some(path) = flag_value(args, "--addr-file") {
        if let Err(e) = fs::write(&path, addr.to_string()) {
            eprintln!("nvwa: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    while !signal::interrupted() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("draining ...");
    let metrics = server.shutdown();
    println!(
        "served {} ok / {} shed / {} deadline across {} batches ({} connections)",
        metrics.counter("serve.responses_ok"),
        metrics.counter("serve.requests_shed"),
        metrics.counter("serve.deadline_expired"),
        metrics.counter("serve.batches_formed"),
        metrics.counter("serve.connections_accepted"),
    );
    let write = |path: &str, text: &str| -> Result<(), ExitCode> {
        fs::write(path, text).map_err(|e| {
            eprintln!("nvwa: cannot write {path}: {e}");
            ExitCode::FAILURE
        })?;
        println!("wrote {path}");
        Ok(())
    };
    if let Some(path) = flag_value(args, "--metrics-out") {
        let meta = SnapshotMeta::collect(nvwa::sim::par::current_threads());
        // The stats-response document: registry snapshot + live SLO view
        // + flight-recorder summary, same shape the in-band `stats`
        // request answers with.
        let doc = metrics.stats_response(&meta);
        if let Err(code) = write(&path, &doc.to_string_pretty()) {
            return code;
        }
    }
    if let Some(path) = flag_value(args, "--span-log-out") {
        let doc = metrics.span_log_doc().to_string_pretty();
        if let Err(code) = write(&path, &doc) {
            return code;
        }
    }
    if let Some(path) = flag_value(args, "--trace-out") {
        if let Some(trace) = metrics.trace_json() {
            if let Err(code) = write(&path, &trace) {
                return code;
            }
        }
    }
    ExitCode::SUCCESS
}

fn align(args: &[String]) -> ExitCode {
    let (Some(ref_path), Some(reads_path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let genome = match load_genome(ref_path) {
        Ok(g) => g,
        Err(code) => return code,
    };
    let reads_text = match fs::read_to_string(reads_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("nvwa: cannot read {reads_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reads = match fasta::reads_from_fastq(&reads_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nvwa: bad FASTQ {reads_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "indexing {} bp, aligning {} reads (isa: {}) ...",
        genome.total_len(),
        reads.len(),
        Isa::host().name()
    );
    let mut phases = HostPhases::new();
    let index = phases.run("index build", || ReferenceIndex::build(&genome, 32));
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());

    // Align in parallel (read order preserved), then assemble SAM and the
    // hardware workload sequentially from the ordered outcomes.
    let outcomes = phases.run("align reads", || {
        nvwa::sim::par::par_map(&reads, |read| aligner.align_read(read))
    });
    let mut sam_text = sam::header(&genome);
    let mut works = Vec::with_capacity(reads.len());
    let mut mapped = 0usize;
    for (read, outcome) in reads.iter().zip(&outcomes) {
        if outcome.alignment.is_some() {
            mapped += 1;
        }
        sam_text.push_str(&sam::record(&genome, read, outcome.alignment.as_ref()));
        sam_text.push('\n');
        works.push(ReadWork::from_outcome(read.id, outcome));
    }
    println!("mapped {mapped}/{} reads", reads.len());

    if let Some(out) = flag_value(args, "--sam") {
        if let Err(e) = fs::write(&out, sam_text) {
            eprintln!("nvwa: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }

    let wants_telemetry =
        flag_value(args, "--trace-out").is_some() || flag_value(args, "--metrics-out").is_some();
    if args.iter().any(|a| a == "--simulate") || wants_telemetry {
        let opts = SimOptions {
            trace: flag_value(args, "--trace-out").is_some(),
        };
        let run = phases.run("simulation", || {
            simulate_instrumented(&NvwaConfig::paper(), &works, &opts)
        });
        print_report(&run.report);
        if let Err(code) = emit_telemetry(args, run, &phases) {
            return code;
        }
    }
    ExitCode::SUCCESS
}
