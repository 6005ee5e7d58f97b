//! Regenerates every table and figure of the paper as text.
//!
//! ```text
//! cargo run --release -p nvwa-bench --bin repro            # all, quick scale
//! cargo run --release -p nvwa-bench --bin repro -- --full  # all, full scale
//! cargo run --release -p nvwa-bench --bin repro -- fig11   # one experiment
//! ```
//!
//! `--threads N` pins the evaluation harness's thread pool (workload
//! construction and sweep fan-out — every figure is identical at any
//! thread count); the default is `NVWA_THREADS` or the hardware
//! parallelism. `--metrics-out <file>` writes a metrics snapshot with a
//! `repro.<experiment>.wall_ms` gauge per experiment run.

use std::time::Instant;

use nvwa_bench::{scale_from_args, EXPERIMENTS};
use nvwa_telemetry::{MetricsRegistry, SnapshotMeta};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    if let Err(e) = nvwa_sim::par::configure_threads_from_args(&args) {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let consumed: Vec<usize> = ["--threads", "--metrics-out"]
        .iter()
        .filter_map(|flag| args.iter().position(|a| a == flag))
        .flat_map(|p| [p, p + 1])
        .collect();
    let requested: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| a.as_str() != "--full" && !consumed.contains(i))
        .map(|(_, a)| a.as_str())
        .collect();
    // Resolve every name before running anything: a typo is an error,
    // not an experiment that "ran".
    let mut to_run = Vec::new();
    for name in requested {
        match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
            Some(experiment) => to_run.push(*experiment),
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
                eprintln!("repro: unknown experiment {name:?}; known: {known:?}");
                std::process::exit(2);
            }
        }
    }
    if to_run.is_empty() {
        to_run = EXPERIMENTS.to_vec();
    }
    println!("NvWa reproduction — experiment suite ({scale:?} scale)");
    let mut metrics = MetricsRegistry::new();
    let ran = metrics.counter("repro.experiments_run");
    for (name, run) in to_run {
        let start = Instant::now();
        println!("================================================================");
        print!("{}", run(scale));
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        metrics.inc(ran, 1);
        let id = metrics.gauge(&format!("repro.{name}.wall_ms"));
        metrics.set_gauge(id, wall_ms);
    }
    if let Some(path) = metrics_out {
        let meta = SnapshotMeta::collect(nvwa_sim::par::current_threads());
        match std::fs::write(&path, metrics.snapshot_json(&meta)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("repro: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
