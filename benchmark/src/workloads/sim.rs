//! `sim_ablation`: the paper's headline experiment (Fig. 11) on the
//! calibrated synthetic workload — `SyntheticWorkloadParams::generate(seed)`
//! then `simulate` for the four ablation variants, on one thread.
//!
//! Simulated statistics are deterministic, so two commits compare exactly
//! (`core.sim.*`); host time measures the simulator itself. The workload
//! bypasses sockets and, being synthetic, the aligner. The execution-driven
//! path (`build_workload` → `simulate`) has a host-time cliff near 5 000
//! reads, so it stays off the end-to-end clock: the traced run measures it
//! at 2 000 reads and probes the cliff in a child process under a watchdog.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use super::{p50_ms, record_setup, repeat, run_trials, Ctx};
use crate::adapter::{self, Genome, ShortIndex, SimStats, SimWorkload, Variant};
use crate::metrics::{RunResult, VARIANT_KEYS};
use crate::server::{Proc, Reaped};
use crate::spans::Recorder;
use crate::stats::median;

/// Span name of each variant's `simulate` call, in `VARIANT_KEYS` order.
const SIMULATE_SPANS: [&str; 4] = [
    "core.simulate.sus_eus",
    "core.simulate.ocra",
    "core.simulate.ocra_hus",
    "core.simulate.nvwa",
];

/// Reads of the synthetic workload, at every size: below about 1 000 reads
/// the 128 SUs of the paper's configuration are never all busy and full NvWa
/// does not beat the baseline, so the workload would not be Fig. 11.
const SIM_READS: usize = 1_000;

/// Full-size cliff probe: reads per seed and the watchdog on the child.
const CLIFF_READS: usize = 5_000;
const CLIFF_WATCHDOG: Duration = Duration::from_secs(30);

struct Trial {
    stats: Vec<SimStats>,
    call_ns: Vec<f64>,
}

fn trial(variants: &[Variant], works: &SimWorkload) -> Trial {
    let mut out = Trial {
        stats: Vec::new(),
        call_ns: Vec::new(),
    };
    for variant in variants {
        let start = Instant::now();
        out.stats.push(adapter::simulate_variant(variant, works));
        out.call_ns.push(start.elapsed().as_nanos() as f64);
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    // The probe runs beside the measurement on the second core; it is
    // collected (or killed) at the end of the traced pass.
    let cliff = if ctx.trace {
        Some(CliffProbe::spawn(ctx)?)
    } else {
        None
    };

    let reads = SIM_READS;
    let variants = adapter::ablation_variants();
    assert_eq!(
        variants.len(),
        VARIANT_KEYS.len(),
        "Fig. 11 has four accelerator bars"
    );
    let run = repeat(
        ctx,
        |_| Ok(SimWorkload::synthetic(reads, ctx.seed)),
        |works, seconds| run_trials(seconds, Proc::Harness, || Ok(trial(&variants, works))),
    )?;
    record_setup(ctx, &mut result, &run.phases, &run.setup_s);
    let (works, trials) = (&run.last, &run.trials);
    let simulated = (reads * variants.len()) as f64;

    // A deterministic simulator repeats every report exactly.
    let reference = &trials[0].stats;
    result.attempted = (trials.len() * variants.len()) as u64;
    result.failed = trials[1..]
        .iter()
        .map(|t| {
            t.stats
                .iter()
                .zip(reference)
                .filter(|(a, b)| a != b)
                .count() as u64
        })
        .sum();
    let (baseline, nvwa) = (&reference[0], &reference[variants.len() - 1]);
    if nvwa.kreads_per_s() <= baseline.kreads_per_s() {
        result.violate(format!(
            "full NvWa ({} kreads/s) does not beat SUs+EUs ({} kreads/s)",
            nvwa.kreads_per_s(),
            baseline.kreads_per_s()
        ));
    }

    let rates: Vec<f64> = trials
        .iter()
        .map(|t| simulated / (t.call_ns.iter().sum::<f64>() / 1e9))
        .collect();
    if !ctx.trace {
        let p50s: Vec<f64> = trials.iter().map(|t| p50_ms(&t.call_ns)).collect();
        result.set_trials("reads_per_s", &rates);
        result.set_trials("p50_ms", &p50s);
        let cpu_us: Vec<f64> = run
            .trial_cpu_s
            .iter()
            .map(|c| c * 1e6 / simulated)
            .collect();
        result.set_trials("cpu_us_per_request", &cpu_us);
        result.set("peak_rss_mb", run.peak_rss_mb);
        return Ok(result);
    }
    result.set("trace.untraced_reads_per_s", median(&rates));
    result.set(
        "trace.failed_share",
        result.failed as f64 / result.attempted as f64,
    );

    // Traced pass: one span per simulate call.
    let mut rec = Recorder::new();
    for (v, variant) in variants.iter().enumerate() {
        let stats = rec.time(SIMULATE_SPANS[v], v as u64, |_| {
            adapter::simulate_variant(variant, works)
        });
        let ns = rec.total_ns(SIMULATE_SPANS[v]) as f64;
        let key = VARIANT_KEYS[v];
        result.set(
            &format!("core.simulate.{key}.host_ns_per_read"),
            ns / reads as f64,
        );
        result.set(
            &format!("core.simulate.{key}.host_ns_per_kcycle"),
            ns / (stats.total_cycles() as f64 / 1e3),
        );
        result.set(
            &format!("core.sim.{key}.kreads_per_s"),
            stats.kreads_per_s(),
        );
        if stats != reference[v] {
            result.violate(format!(
                "{}: the traced report differs from the trials'",
                variant.label
            ));
        }
    }
    let traced_ns: f64 = SIMULATE_SPANS.iter().map(|s| rec.total_ns(s) as f64).sum();
    result.set(
        "trace.overhead_share",
        (traced_ns / simulated) / (1e9 / median(&rates)) - 1.0,
    );
    result.set(
        "core.sim.speedup",
        nvwa.kreads_per_s() / baseline.kreads_per_s(),
    );
    for (suffix, value) in nvwa.scheduler_stats() {
        result.set(&format!("core.sim.{suffix}"), value);
    }
    let violations = rec.time("core.simulate.invariants", 0, |_| {
        adapter::invariant_violations(&variants[variants.len() - 1], works)
    });
    result.set("core.sim.invariant_violations", violations.len() as f64);
    for v in violations {
        result.violate(format!("simulator invariant: {v}"));
    }

    let events = ctx.sized(200_000, 4_000) as u64;
    let popped = rec.time("sim.event", 0, |_| adapter::event_queue_round(events));
    result.set(
        "sim.event.push_pop_ns",
        rec.total_ns("sim.event") as f64 / popped as f64,
    );

    // The execution-driven path, below the cliff.
    let exec_reads = ctx.sized(2_000, 40);
    let genome = rec.time("genome.synth", 0, |_| {
        Genome::synthesize(ctx.ref_len(), ctx.seed)
    });
    let index = rec.time("index.build", 0, |_| ShortIndex::build(&genome));
    result.set("genome.synth_s", rec.total_ns("genome.synth") as f64 / 1e9);
    result.set("index.build_s", rec.total_ns("index.build") as f64 / 1e9);
    result.set(
        "index.heap_mb",
        index.heap_bytes() as f64 / (1 << 20) as f64,
    );
    let exec = rec.time("core.workload", 0, |_| {
        SimWorkload::execution_driven(&index, &genome, exec_reads, ctx.seed)
    });
    let n = exec.reads() as f64;
    result.set(
        "core.workload.ns_per_read",
        rec.total_ns("core.workload") as f64 / n,
    );
    result.set(
        "core.workload.accesses_per_read",
        exec.accesses() as f64 / n,
    );
    result.set("core.workload.hits_per_read", exec.hits() as f64 / n);
    rec.time("core.simulate.exec", 0, |_| {
        adapter::simulate_variant(&variants[variants.len() - 1], &exec)
    });
    result.set(
        "core.simulate.exec_us_per_read",
        rec.total_ns("core.simulate.exec") as f64 / 1e3 / n,
    );

    let (cliff_us, timed_out) = cliff.expect("spawned for the traced run").collect();
    result.set("core.simulate.exec_cliff_us_per_read", cliff_us);
    result.set(
        "core.simulate.exec_cliff_timed_out",
        f64::from(u8::from(timed_out)),
    );

    result.set("trace.spans", rec.spans().len() as f64);
    rec.write_json("sim_ablation", &ctx.out_dir.join("trace_sim_ablation.json"))
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    Ok(result)
}

/// The cliff probe: this binary again, as a child, simulating the
/// execution-driven workload of `CLIFF_READS` reads for three seeds.
struct CliffProbe {
    child: Reaped,
    deadline: Instant,
}

impl CliffProbe {
    fn spawn(ctx: &Ctx) -> Result<CliffProbe, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("--cliff-probe")
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--ref-len", &ctx.ref_len().to_string()])
            .args(["--reads", &ctx.sized(CLIFF_READS, 50).to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the cliff probe: {e}"))?;
        Ok(CliffProbe {
            child: Reaped(child),
            deadline: Instant::now() + CLIFF_WATCHDOG,
        })
    }

    /// `(max µs per read over the seeds that finished, watchdog fired)`.
    fn collect(mut self) -> (f64, bool) {
        use std::io::Read as _;
        let finished = self.child.wait_until(self.deadline);
        if !finished {
            let _ = self.child.0.kill();
        }
        let mut text = String::new();
        if let Some(mut out) = self.child.0.stdout.take() {
            let _ = out.read_to_string(&mut text);
        }
        let worst = text
            .lines()
            .filter_map(|line| {
                line.strip_prefix("cliff ")?
                    .split_whitespace()
                    .nth(1)?
                    .parse::<f64>()
                    .ok()
            })
            .fold(0.0, f64::max);
        (worst, !finished)
    }
}

/// The child's side of the probe: prints `cliff <seed> <us_per_read>` for
/// seeds `seed`, `seed + 1`, `seed + 2`, flushing after each so a watchdog
/// kill keeps the seeds that finished.
pub fn cliff_probe_main(seed: u64, ref_len: usize, reads: usize) {
    use std::io::Write as _;
    let genome = Genome::synthesize(ref_len, seed);
    let index = ShortIndex::build(&genome);
    let variants = adapter::ablation_variants();
    let nvwa = variants.last().expect("four variants");
    for s in seed..seed + 3 {
        let works = SimWorkload::execution_driven(&index, &genome, reads, s);
        let start = Instant::now();
        std::hint::black_box(adapter::simulate_variant(nvwa, &works));
        let us = start.elapsed().as_secs_f64() * 1e6 / works.reads() as f64;
        println!("cliff {s} {us}");
        let _ = std::io::stdout().flush();
    }
}
