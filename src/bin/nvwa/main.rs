//! `nvwa` — the command-line front end of the reproduction, and its only
//! binary.
//!
//! Nine subcommands — `sim` (the default), `synth-ref`, `synth-reads`,
//! `align`, `serve`, `loadgen`, `conformance`, `repro` and `validate` —
//! each a row of one table (`SUBCOMMANDS`) that lists its positionals and
//! every flag it accepts with the kind of value the flag takes. The
//! command line is read against that row before any work (`args.rs`): an
//! unrecognised `--flag`, a flag without its value or a value that does
//! not parse is a usage error (exit 2, the flag named on stderr), so a
//! typo or a removed flag never runs defaults. `nvwa <sub> --help` prints
//! that row's synopsis, and an unknown subcommand prints every row's.
//! `--threads N` pins the pool size of the subcommands that list it;
//! otherwise `NVWA_THREADS` or the hardware parallelism decides, and
//! every output is identical at any thread count.
//!
//! * `sim`, `synth-ref`, `synth-reads`, `align` (`offline.rs`): the
//!   paper-scale accelerator on the calibrated synthetic workload, the
//!   synthetic inputs, and the software seed-and-extend pipeline emitting
//!   SAM (with `--simulate`, replayed through the NvWa accelerator model).
//!   `--trace-out` writes a Chrome `trace_event` JSON (one track per SU/EU
//!   plus the Coordinator, and a host process with the wall-clock phase
//!   spans); `--metrics-out` writes the versioned metrics snapshot
//!   (DESIGN.md §8).
//! * `serve` (`serve.rs`): the batched TCP alignment server; `loadgen`
//!   (`loadgen.rs`) drives one and writes the loadgen report.
//! * `conformance`, `repro`, `validate` (`checks.rs`): the cross-layer
//!   correctness sweep (DESIGN.md §11), every table and figure of the
//!   paper as text, and the schema checks of the JSON artifacts.

mod args;
mod checks;
mod loadgen;
mod offline;
mod serve;

use std::fs;
use std::process::ExitCode;

use args::Value::{Count, Int, Real, Switch, Text};
use args::{synopsis, Args, Command};
use nvwa::genome::{fasta, ReferenceGenome};

/// Every subcommand: name, entry point, usage line without the flags, and
/// the flags it accepts with the kind of value each takes. Anything else
/// starting with `--` is refused before the subcommand runs, and `usage`
/// prints this table — a flag is listed here and nowhere else.
#[rustfmt::skip] // one row per subcommand
const SUBCOMMANDS: &[Command] = &[
    ("sim", offline::sim, "[sim]", &[
        ("--reads", Count("N")), ("--seed", Int("S")), ("--trace-out", Text("t.json")),
        ("--metrics-out", Text("m.json")), ("--threads", Int("N")),
    ]),
    ("synth-ref", offline::synth_ref, "synth-ref <out.fa>", &[
        ("--len", Count("N")), ("--chromosomes", Count("N")), ("--seed", Int("S")),
    ]),
    ("synth-reads", offline::synth_reads, "synth-reads <ref.fa> <out.fq>", &[
        ("--count", Int("N")), ("--len", Int("N")), ("--seed", Int("S")),
    ]),
    ("align", offline::align, "align <ref.fa> <reads.fq>", &[
        ("--sam", Text("out.sam")), ("--simulate", Switch), ("--trace-out", Text("t.json")),
        ("--metrics-out", Text("m.json")), ("--threads", Int("N")),
    ]),
    ("serve", serve::serve, "serve", &[
        ("--addr", Text("H:P")), ("--addr-file", Text("PATH")), ("--ref", Text("ref.fa")),
        ("--ref-len", Count("N")), ("--ref-seed", Int("S")), ("--queue-cap", Count("N")),
        ("--workers", Int("N")), ("--batch-max", Count("N")), ("--deadline-ms", Int("D")),
        ("--long-deadline-ms", Int("D")), ("--classify-deadline-ms", Int("D")),
        ("--backend", Text("sw|hil")), ("--frontend", Text("reactor")),
        ("--metrics-out", Text("m.json")), ("--trace-out", Text("t.json")),
        ("--span-log-out", Text("s.json")), ("--flight-dump", Text("DIR")),
        ("--tenant", Text("KEY[:SHARDS[:QUOTA]]...")), ("--tenant-scale", Real("F")),
        ("--registry-budget", Int("BYTES")), ("--threads", Int("N")),
    ]),
    ("loadgen", loadgen::loadgen, "loadgen", &[
        ("--addr", Text("H:P")), ("--addr-file", Text("PATH")), ("--reads", Int("N")),
        ("--connections", Int("C")), ("--mode", Text("closed|open")), ("--window", Int("W")),
        ("--request-mode", Text("short|long|classify|mixed")), ("--rate", Real("RPS")),
        ("--burst", Int("B")), ("--ref-len", Int("N")), ("--ref-seed", Int("S")),
        ("--long-len", Int("N")), ("--tenant", Text("KEY[:WEIGHT]...")),
        ("--tenant-scale", Real("F")), ("--out", Text("report.json")),
        ("--stats-out", Text("scrapes.json")), ("--scrape-ms", Int("MS")),
        ("--slo", Text("key=value...")), ("--shutdown", Switch),
    ]),
    ("conformance", checks::conformance, "conformance", &[
        ("--seed", Int("S...")), ("--seed-from-ci", Switch), ("--cases", Int("N")),
        ("--serve-reads", Int("N")), ("--family", Text("NAME...")), ("--repro-dir", Text("DIR")),
        ("--threads", Int("N")),
    ]),
    ("repro", checks::repro, "repro [experiment...]", &[
        ("--full", Switch), ("--metrics-out", Text("m.json")), ("--threads", Int("N")),
    ]),
    ("validate", checks::validate, "validate <file.json>...", &[
        ("--golden", Text("golden.json")),
    ]),
];

/// Prints the synopsis of subcommand `name` (of every subcommand when
/// `name` is none of them) and returns exit code 1.
fn usage(name: &str) -> ExitCode {
    if let Some((_, _, head, flags)) = SUBCOMMANDS.iter().find(|c| c.0 == name) {
        eprintln!("{}", synopsis(&format!("usage: nvwa {head}"), flags));
    } else {
        eprintln!("usage:");
        for (_, _, head, flags) in SUBCOMMANDS {
            eprintln!("{}", synopsis(&format!("  nvwa {head}"), flags));
        }
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &argv[1..]),
        // Bare invocation (possibly with flags only): the default scenario.
        _ => ("sim", &argv[..]),
    };
    let Some(command) = SUBCOMMANDS.iter().find(|c| c.0 == name) else {
        return usage(name);
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return usage(name);
    }
    let args = match Args::parse(rest, command) {
        Ok(args) => args,
        Err(e) => return usage_error(e),
    };
    if let Some(threads) = args.threads() {
        nvwa::sim::par::set_default_threads(threads);
    }
    (command.1)(&args).err().unwrap_or(ExitCode::SUCCESS)
}

/// Reports `nvwa: MESSAGE` on stderr and returns exit code 1.
fn fail(message: String) -> ExitCode {
    eprintln!("nvwa: {message}");
    ExitCode::FAILURE
}

/// Reports the usage error `nvwa: MESSAGE` on stderr and returns exit
/// code 2.
fn usage_error(message: String) -> ExitCode {
    eprintln!("nvwa: {message}");
    ExitCode::from(2)
}

/// Writes an output artifact and prints `wrote PATH`; a failed write is
/// reported as `nvwa: cannot write PATH: E` and becomes exit code 1.
fn write_artifact(path: &str, text: &str) -> Result<(), ExitCode> {
    fs::write(path, text).map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

fn load_genome(path: &str) -> Result<ReferenceGenome, ExitCode> {
    let text = fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    fasta::from_fasta(path, &text).map_err(|e| fail(format!("bad FASTA {path}: {e}")))
}
