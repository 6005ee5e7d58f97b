//! `nvwa-bench` — the repository's benchmark harness (see `../README.md`).
//!
//! ```text
//! nvwa-bench --nvwa-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is the result object
//!     of the driver's contract (end-to-end metrics untraced, per-layer traced)
//! nvwa-bench --nvwa-bin PATH [--seed N] [--seconds S]
//!     every workload, untraced then traced, each run in a child process of
//!     its own; results in <out-dir>/results.jsonl
//! nvwa-bench --nvwa-bin PATH --smoke
//!     the same at 1/50 size; also checks the metric tables against
//!     BENCHMARK.json and that some workload exercises every metric
//! nvwa-bench --compare A/results.jsonl B/results.jsonl
//!     do two full runs of one commit agree within the benchmark's bounds?
//! ```
//!
//! `benchmark/run.sh` builds `nvwa` and this binary and passes `--nvwa-bin`.

mod adapter;
mod affinity;
mod compare;
mod loadgen;
mod metrics;
mod server;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{RunResult, END_TO_END, NOT_EXERCISED, PER_LAYER, WORKLOADS};
use workloads::Ctx;

/// `run_seconds` of BENCHMARK.json: the default measuring time of a run.
const RUN_SECONDS: f64 = 12.0;
const SMOKE_SHRINK: usize = 50;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("bad value {text:?} for {name}")),
    }
}

/// This run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("nvwa-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "--seed", 1)?;
    if args.iter().any(|a| a == "--cliff-probe") {
        workloads::sim::cliff_probe_main(
            seed,
            parsed(args, "--ref-len", 2_000_000)?,
            parsed(args, "--reads", 5_000)?,
        );
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare wants two results.jsonl files".to_string());
        };
        let agree = compare::run(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))?;
        return Ok(if agree {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let shrink = if smoke { SMOKE_SHRINK } else { 1 };
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS / shrink as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let nvwa_bin = PathBuf::from(
        flag(args, "--nvwa-bin")
            .ok_or("--nvwa-bin PATH is required (benchmark/run.sh passes it)")?,
    );
    if !nvwa_bin.is_file() {
        return Err(format!(
            "{} is not a file: build `nvwa` first",
            nvwa_bin.display()
        ));
    }
    let out_dir = PathBuf::from(flag(args, "--out-dir").unwrap_or("benchmark/out"));

    if let Some(workload) = flag(args, "--workload") {
        let trace = match flag(args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        };
        let work = WorkDir(out_dir.join(format!("run-{}", std::process::id())));
        std::fs::create_dir_all(&work.0)
            .map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;
        let ctx = Ctx {
            seed,
            seconds,
            trace,
            shrink,
            nvwa_bin,
            out_dir,
            work_dir: work.0.clone(),
        };
        let result = workloads::run(workload, &ctx)?;
        print!("{}", result.report(workload, trace));
        println!("{}", result.result_line(trace));
        // What the program got wrong is in the result line; a result the
        // harness itself got wrong is a failed run.
        let problems = harness_problems(trace, &result);
        for p in &problems {
            eprintln!("nvwa-bench: {workload}: {p}");
        }
        return Ok(if problems.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    // Every workload, untraced then traced, each run in a process of its
    // own as the driver makes them: a run's peak memory and the state of its
    // allocator must not depend on the runs before it.
    if smoke {
        check_tables_against(Path::new("BENCHMARK.json"))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = String::new();
    let mut problems = Vec::new();
    // Per-layer metrics no traced run has exercised so far.
    let mut idle: BTreeSet<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(args)
                .args(["--workload", workload, "--trace", trace])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            let Some(line) = text.lines().last().filter(|_| output.status.success()) else {
                problems.push(format!(
                    "{workload} (trace {trace}): the run failed: {}",
                    output.status
                ));
                continue;
            };
            let result = adapter::Json::parse(line)
                .map_err(|e| format!("{workload}: unreadable result line: {e}"))?;
            if !result.is_true(&["correct"]) || result.num(&["failed"]) != Some(0.0) {
                problems.push(format!(
                    "{workload} (trace {trace}): operations failed or outputs were incorrect"
                ));
            }
            lines.push_str(&format!(
                "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"seed\": {seed}, \"result\": {line}}}\n"
            ));
            if trace == "1" {
                let not_exercised: BTreeSet<&str> = text
                    .lines()
                    .find_map(|l| l.strip_prefix(NOT_EXERCISED))
                    .unwrap_or_default()
                    .split_whitespace()
                    .collect();
                idle.retain(|name| not_exercised.contains(name.as_str()));
            }
        }
    }
    for name in &idle {
        problems.push(format!(
            "per-layer metric {name} was exercised by no workload"
        ));
    }
    let results = out_dir.join("results.jsonl");
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&results, lines))
        .map_err(|e| format!("cannot write {}: {e}", results.display()))?;
    println!("results: {}", results.display());
    if problems.is_empty() {
        println!("{}: ok", if smoke { "smoke" } else { "benchmark" });
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            eprintln!("nvwa-bench: {p}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// What the harness itself got wrong in one run, if anything: an end-to-end
/// metric that is missing or zero, a value that is not a finite number.
fn harness_problems(trace: bool, result: &RunResult) -> Vec<String> {
    let mut problems: Vec<String> = result
        .non_finite()
        .into_iter()
        .map(|name| format!("{name} is not a finite number"))
        .collect();
    if !trace {
        for name in result.unset(false) {
            problems.push(format!("end-to-end metric {name} was not emitted"));
        }
        for (name, _) in END_TO_END {
            if result.get(name) == Some(0.0) {
                problems.push(format!("end-to-end metric {name} is 0"));
            }
        }
    }
    problems
}

/// Checks that `BENCHMARK.json` declares the run length this file defaults to
/// and exactly the workloads and the metrics, with the units, that
/// `metrics.rs` emits.
fn check_tables_against(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = adapter::Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let declared = |section: &str, key: &str| doc.strings_in_array(&[section], key);
    let same = |what: &str, declared: Vec<String>, emitted: Vec<&str>| {
        if declared == emitted {
            Ok(())
        } else {
            Err(format!("{} and metrics.rs disagree on {what}:\n  declared {declared:?}\n  emitted  {emitted:?}", path.display()))
        }
    };
    if doc.num(&["run_seconds"]) != Some(RUN_SECONDS) {
        return Err(format!(
            "{} and main.rs disagree on run_seconds",
            path.display()
        ));
    }
    same(
        "workloads",
        declared("workloads", "name"),
        WORKLOADS.to_vec(),
    )?;
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        same(
            &format!("{section} names"),
            declared(section, "name"),
            table.iter().map(|(n, _)| *n).collect(),
        )?;
        same(
            &format!("{section} units"),
            declared(section, "unit"),
            table.iter().map(|(_, u)| *u).collect(),
        )?;
    }
    Ok(())
}
