//! The five workloads and what they share: sizes, set-up timing, the trial
//! loop.
//!
//! An untraced run makes three repetitions of: set-up (timed) → one
//! discarded warm-up trial → fixed-size measured trials on the same inputs
//! for a third of `--seconds`. Every timed end-to-end metric is the best
//! sample of the run (`RunResult::set_trials` says why): the fastest set-up
//! (a cheap set-up is made several more times after each repetition's
//! trials, see [`SETUP_BUDGET_S`]), the best trial of all three repetitions.
//! `peak_rss_mb` is read when the first repetition's trials end, before a
//! second set-up shares the heap. The trial windows are kept at least
//! [`WINDOW_GAP_S`] apart (set-up counts towards the gap; the rest is
//! slept): on the shared hosts this runs on, speed drifts by tens of percent
//! over tens of seconds, and three windows spread over twice the wall time
//! are three chances of an undisturbed trial.
//!
//! With `--trace 1` the workload sets up once, measures a short untraced
//! baseline and then makes its traced pass, from which every per-layer
//! metric comes.

pub mod layers;
pub mod offline;
pub mod serve;
pub mod sim;

use std::path::PathBuf;
use std::time::Instant;

use crate::affinity::Rotation;
use crate::metrics::RunResult;
use crate::server::Proc;
use crate::stats::median;

/// Fewest measured trials of a repetition, however slow the host.
const MIN_TRIALS: usize = 3;
/// A run stops adding trials here even if `--seconds` is not used up.
const MAX_TRIALS: usize = 400;

/// Least time between the end of one repetition's trial window and the
/// start of the next one's, at full size.
const WINDOW_GAP_S: f64 = 3.0;

/// A set-up that takes less than this is made again after the repetition's
/// trials (and its product dropped) until this much time is spent on set-ups
/// or [`MAX_SETUPS`] are made: three 2 ms samples measure the host's jitter,
/// not the set-up.
const SETUP_BUDGET_S: f64 = 0.25;
const MAX_SETUPS: usize = 64;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Measuring time of the trial loop.
    pub seconds: f64,
    pub trace: bool,
    /// 1 for the real benchmark, 50 for `--smoke`: divides the reference
    /// length and every trial size.
    pub shrink: usize,
    pub nvwa_bin: PathBuf,
    /// Where traces are kept (`benchmark/out`).
    pub out_dir: PathBuf,
    /// Scratch of this run (FASTA, server address file), removed at exit.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// One reference for every workload: 2 Mbp, large enough that the
    /// FM-index (37 MB) does not sit in cache and seeding costs what it
    /// costs on a real genome.
    pub fn ref_len(&self) -> usize {
        2_000_000 / self.shrink
    }

    /// `full / shrink`, at least `floor`.
    pub fn sized(&self, full: usize, floor: usize) -> usize {
        (full / self.shrink).max(floor)
    }

    /// Repetitions of set-up + trials: three when the run reports `setup_s`
    /// and its best trials, one before a traced pass.
    fn repetitions(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// Measuring time of all trial loops of this run together: `--seconds`,
    /// or a quarter of it for the untraced baseline of a traced run.
    fn trial_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 4.0
        } else {
            self.seconds
        }
    }
}

/// Wall time of the named phases of one set-up.
#[derive(Default)]
pub struct Phases(Vec<(&'static str, f64)>);

impl Phases {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.0.push((name, start.elapsed().as_secs_f64()));
        value
    }

    /// Records each phase as the per-layer metric of its name.
    fn record(&self, result: &mut RunResult) {
        for (name, seconds) in &self.0 {
            result.set(name, *seconds);
        }
    }
}

/// What the repetitions of a run produced.
struct Repeated<S, T> {
    /// The last repetition's set-up product (the traced pass runs on it).
    last: S,
    phases: Phases,
    /// Wall time of every set-up made.
    setup_s: Vec<f64>,
    /// `VmHWM` of the measured process when the first repetition's trials
    /// ended.
    peak_rss_mb: f64,
    /// The measured trials of every repetition, in order.
    trials: Vec<T>,
    /// CPU seconds the measured process used during each trial.
    trial_cpu_s: Vec<f64>,
    /// User and system CPU seconds it used over the trial loops (10 ms ticks).
    user_s: f64,
    system_s: f64,
}

/// Runs `setup` then `measure` (a trial loop of the given length on the
/// set-up's product) `ctx.repetitions()` times, dropping each product before
/// the next is built.
fn repeat<S, T>(
    ctx: &Ctx,
    mut setup: impl FnMut(&mut Phases) -> Result<S, String>,
    mut measure: impl FnMut(&S, f64) -> Result<Measured<T>, String>,
) -> Result<Repeated<S, T>, String> {
    let reps = ctx.repetitions();
    let (mut setup_s, mut trials, mut trial_cpu_s, mut last) =
        (Vec::new(), Vec::new(), Vec::new(), None);
    let (mut user_s, mut system_s, mut peak_rss_mb) = (0.0, 0.0, None);
    let mut window_end: Option<Instant> = None;
    let setup_budget = SETUP_BUDGET_S / ctx.shrink as f64;
    for _ in 0..reps {
        drop(last.take());
        let mut phases = Phases::default();
        let start = Instant::now();
        let product = setup(&mut phases)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(end) = window_end {
            let gap = std::time::Duration::from_secs_f64(WINDOW_GAP_S / ctx.shrink as f64);
            std::thread::sleep(gap.saturating_sub(end.elapsed()));
        }
        let measured = measure(&product, ctx.trial_seconds() / reps as f64)?;
        window_end = Some(Instant::now());
        trials.extend(measured.trials);
        trial_cpu_s.extend(measured.trial_cpu_s);
        user_s += measured.user_s;
        system_s += measured.system_s;
        peak_rss_mb.get_or_insert(measured.peak_rss_mb);
        // More samples of a cheap set-up, after the memory reading so that
        // the extra products do not count towards it.
        let (mut made, mut spent) = (1, setup_s[setup_s.len() - 1]);
        while !ctx.trace && made < MAX_SETUPS && spent < setup_budget {
            let start = Instant::now();
            setup(&mut Phases::default())?;
            let took = start.elapsed().as_secs_f64();
            setup_s.push(took);
            made += 1;
            spent += took;
        }
        last = Some((product, phases));
    }
    let (last, phases) = last.expect("at least one repetition");
    Ok(Repeated {
        last,
        phases,
        setup_s,
        peak_rss_mb: peak_rss_mb.expect("at least one repetition"),
        trials,
        trial_cpu_s,
        user_s,
        system_s,
    })
}

/// Records `setup_s` (untraced run) or the set-up phases (traced run).
fn record_setup(ctx: &Ctx, result: &mut RunResult, phases: &Phases, setup_s: &[f64]) {
    if ctx.trace {
        phases.record(result);
    } else {
        result.set_trials("setup_s", setup_s);
    }
}

/// What the trial loop measured besides the trials' own results.
struct Measured<T> {
    trials: Vec<T>,
    /// CPU seconds `proc` used during each measured trial.
    trial_cpu_s: Vec<f64>,
    /// User and system CPU seconds it used from the first measured trial to
    /// the last.
    user_s: f64,
    system_s: f64,
    /// `VmHWM` of `proc` when the last trial ended.
    peak_rss_mb: f64,
}

/// One discarded warm-up trial, then measured trials until `seconds` are
/// used up (at least [`MIN_TRIALS`]). `trial` returns `Err` to abort the run.
/// When the harness itself is the measured process its trials are
/// single-threaded, and they are made on each allowed CPU in turn
/// (`affinity.rs` says why).
fn run_trials<T>(
    seconds: f64,
    proc: Proc,
    mut trial: impl FnMut() -> Result<T, String>,
) -> Result<Measured<T>, String> {
    let mut rotation = match proc {
        Proc::Harness => Rotation::begin(),
        Proc::Pid(_) => None,
    };
    trial()?;
    let before = proc.cpu_seconds();
    let start = Instant::now();
    let (mut trials, mut trial_cpu_s) = (Vec::new(), Vec::new());
    while trials.len() < MAX_TRIALS
        && (trials.len() < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds)
    {
        if let Some(rotation) = &mut rotation {
            rotation.next();
        }
        let on_cpu = proc.on_cpu_seconds();
        trials.push(trial()?);
        trial_cpu_s.push(proc.on_cpu_seconds() - on_cpu);
    }
    let after = proc.cpu_seconds();
    Ok(Measured {
        trials,
        trial_cpu_s,
        user_s: after.0 - before.0,
        system_s: after.1 - before.1,
        peak_rss_mb: proc.status_mb("VmHWM"),
    })
}

/// Median of `latencies_ns`, in milliseconds.
fn p50_ms(latencies_ns: &[f64]) -> f64 {
    median(latencies_ns) / 1e6
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<RunResult, String> {
    match workload {
        "offline_short" => offline::run_short(ctx),
        "offline_long" => offline::run_long(ctx),
        "serve_closed" => serve::run(ctx, serve::Loop::Closed),
        "serve_open" => serve::run(ctx, serve::Loop::Open),
        "sim_ablation" => sim::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}
