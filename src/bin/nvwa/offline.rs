//! The offline subcommands: `sim` (the default scenario), `synth-ref`,
//! `synth-reads` and `align`.

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use nvwa::align::pipeline::{AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa::align::sam;
use nvwa::core::config::NvwaConfig;
use nvwa::core::system::{simulate_instrumented, SimOptions, SimRun};
use nvwa::core::units::workload::{align_traced, ReadWork, SyntheticWorkloadParams};
use nvwa::genome::fasta;
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};
use nvwa::index::Isa;
use nvwa::telemetry::{cycles_to_us, SnapshotMeta, PID_HOST};

use crate::args::Args;
use crate::{fail, load_genome, write_artifact};

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
fn emit_telemetry(args: &Args, mut run: SimRun, phases: &HostPhases) -> Result<(), ExitCode> {
    if let Some(path) = args.text("--trace-out") {
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
        write_artifact(path, &trace.to_json())?;
    }
    if let Some(path) = args.text("--metrics-out") {
        for (name, _, dur_us) in &phases.spans {
            let id = run.metrics.gauge(&format!("host.{name}.wall_ms"));
            run.metrics.set_gauge(id, dur_us / 1e3);
        }
        let meta = SnapshotMeta::collect(nvwa::sim::par::current_threads());
        write_artifact(path, &run.metrics.snapshot_json(&meta))?;
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
pub fn sim(args: &Args) -> Result<(), ExitCode> {
    let reads = args.get("--reads").unwrap_or(2_000);
    let seed = args.get("--seed").unwrap_or(42);
    let mut phases = HostPhases::new();
    let works = phases.run("workload build", || {
        SyntheticWorkloadParams {
            reads,
            ..SyntheticWorkloadParams::default()
        }
        .generate(seed)
    });
    let opts = SimOptions {
        trace: args.has("--trace-out"),
    };
    let run = phases.run("simulation", || {
        simulate_instrumented(&NvwaConfig::paper(), &works, &opts)
    });
    print_report(&run.report);
    emit_telemetry(args, run, &phases)
}

pub fn synth_ref(args: &Args) -> Result<(), ExitCode> {
    let out = &args.positional[0];
    let params = ReferenceParams {
        total_len: args.get("--len").unwrap_or(500_000),
        chromosomes: args.get("--chromosomes").unwrap_or(4),
        ..ReferenceParams::default()
    };
    let genome = ReferenceGenome::synthesize(&params, args.get("--seed").unwrap_or(1));
    fs::write(out, fasta::to_fasta(&genome, 80))
        .map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {} ({} bp, {} chromosomes)",
        out,
        genome.total_len(),
        genome.chromosomes().len()
    );
    Ok(())
}

pub fn synth_reads(args: &Args) -> Result<(), ExitCode> {
    let [ref_path, out] = &args.positional[..] else {
        unreachable!("the row takes two positionals")
    };
    let genome = load_genome(ref_path)?;
    let params = ReadSimParams {
        read_len: args.get("--len").unwrap_or(101),
        ..ReadSimParams::illumina_101()
    };
    let mut sim = ReadSimulator::new(&genome, params, args.get("--seed").unwrap_or(2));
    let reads = sim.simulate_reads(args.get("--count").unwrap_or(1_000));
    fs::write(out, fasta::reads_to_fastq(&reads))
        .map_err(|e| fail(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {} ({} reads of {} bp)",
        out,
        reads.len(),
        params.read_len
    );
    Ok(())
}

pub fn align(args: &Args) -> Result<(), ExitCode> {
    let [ref_path, reads_path] = &args.positional[..] else {
        unreachable!("the row takes two positionals")
    };
    let genome = load_genome(ref_path)?;
    let reads_text = fs::read_to_string(reads_path)
        .map_err(|e| fail(format!("cannot read {reads_path}: {e}")))?;
    let reads = fasta::reads_from_fastq(&reads_text)
        .map_err(|e| fail(format!("bad FASTQ {reads_path}: {e}")))?;

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
        align_traced(&aligner, &reads, |_, outcome| outcome)
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

    if let Some(out) = args.text("--sam") {
        write_artifact(out, &sam_text)?;
    }

    let trace = args.has("--trace-out");
    if args.has("--simulate") || trace || args.has("--metrics-out") {
        let opts = SimOptions { trace };
        let run = phases.run("simulation", || {
            simulate_instrumented(&NvwaConfig::paper(), &works, &opts)
        });
        print_report(&run.report);
        emit_telemetry(args, run, &phases)?;
    }
    Ok(())
}
