//! The event-driven full-system simulation.
//!
//! Units are busy until a completion event; all scheduling decisions
//! (read refills, buffer switches, allocation rounds, FIFO dispatch) are
//! re-evaluated at every event boundary, which is exactly when unit status
//! bits change — so the cycle-level scheduling semantics of the paper are
//! preserved without stepping empty cycles.
//!
//! Each unit's state is held once: its Table III [`UnitStatus`] together
//! with what that status owns (`SuState`, `EuState::running`). It changes
//! only in `set_su` / `set_eu`, which move the per-status counts and status
//! words with it, so whole-pool questions read a count, and where index
//! order is part of the statistics (the SUs the read scheduler fills, a
//! round's idle-EU list, the FIFO head's unit, the retry of suspended SUs)
//! the answer is the lowest set bits of a status word, as in Fig. 6.
//!
//! Statistics flow through `nvwa-telemetry`: counters and histograms live
//! in a [`MetricsRegistry`], per-pool busy/idle-by-cause integrals in two
//! [`StallTracker`]s (synchronized once per event, which is the only time
//! unit status can change), and — when requested — every SU read, EU hit,
//! SU suspension and allocation round becomes a span in a
//! [`TraceRecorder`] for Chrome/Perfetto inspection. [`SimReport`] is a
//! view over the registry.

use std::collections::VecDeque;

use nvwa_sim::event::EventQueue;
use nvwa_sim::hbm::{Hbm, HbmConfig};
use nvwa_sim::Cycle;
use nvwa_telemetry::{
    CounterId, HistogramId, MetricsRegistry, PoolState, StallCause, StallTracker, TraceRecorder,
    PID_ACCELERATOR,
};

use crate::config::NvwaConfig;
use crate::coordinator::allocator::{AllocPolicy, AllocateJudger, HitsAllocator, IdleEu};
use crate::coordinator::hits_buffer::HitsBuffer;
use crate::extension::trigger::AllocateTrigger;
use crate::interface::{Hit, UnitStatus};
use crate::seeding::batch::BatchScheduler;
use crate::seeding::ocra::OneCycleReadAllocator;
use crate::seeding::read_spm::ReadSpm;
use crate::units::eu::EuModel;
use crate::units::su::SuModel;
use crate::units::workload::ReadWork;

use super::report::SimReport;

mod extension;
mod run;
mod seeding;

/// The four hit intervals used for assignment-correctness accounting
/// (Fig. 12e/f), independent of the instantiated EU classes.
const HIT_INTERVALS: [usize; 4] = [16, 32, 64, 128];

/// Store Buffer fill fraction at which the Hits Buffer pair switches
/// (Fig. 10: the Store Buffer hands over at 75 % full).
const STORE_SWITCH_THRESHOLD: f64 = 0.75;

/// Idle-EU fraction at which the Allocate Trigger requests a round
/// (Sec. IV-A: 15 % of the EU pool idle).
const IDLE_EU_THRESHOLD: f64 = 0.15;

/// Cycles of one allocation round (Fig. 10's sort and mux network). The
/// paper gives no count; four cycles is this model's charge.
const ALLOC_LATENCY: Cycle = 4;

/// Trace-back cycles added to every extension task (footnote 4: constant
/// for a given query and reference, independent of the PE count).
const TRACEBACK_CYCLES: Cycle = 32;

/// Cycles of an SU index access served by the SUs' 512 KB table SRAM
/// (Table I); a miss goes to the HBM of `HbmConfig::default()`, Table I's
/// 256 GB/s HBM 1.0.
const SU_CACHE_LATENCY: Cycle = 2;

/// Instrumentation switches for [`simulate_instrumented`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Record a Chrome trace (one track per SU/EU plus the Coordinator).
    /// Costs one span per read/hit, so off by default.
    pub trace: bool,
}

/// A simulation run with its full telemetry.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The aggregate report (a view over [`SimRun::metrics`]).
    pub report: SimReport,
    /// All counters, gauges, histograms and stall series of the run.
    pub metrics: MetricsRegistry,
    /// The span trace, when [`SimOptions::trace`] was set.
    pub trace: Option<TraceRecorder>,
}

#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)] // the *Done suffix is the semantics
enum Event {
    SuDone { su: usize },
    EuDone { eu: usize },
    AllocDone,
}

/// A seeding unit's status with what that status owns, so "busy without a
/// read" or "suspended without a start cycle" cannot be written down.
#[derive(Debug, Clone, Copy)]
enum SuState {
    Idle,
    /// Seeding `read` since cycle `issued`.
    Busy {
        read: usize,
        issued: Cycle,
    },
    /// Suspended on a full buffer since cycle `since` (the blocking state
    /// of Fig. 13a): `read`'s hits from index `next` on are not yet pushed.
    Stop {
        read: usize,
        next: usize,
        since: Cycle,
    },
}

impl SuState {
    fn status(&self) -> UnitStatus {
        match self {
            SuState::Idle => UnitStatus::Idle,
            SuState::Busy { .. } => UnitStatus::Busy,
            SuState::Stop { .. } => UnitStatus::Stop,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct EuState {
    pes: u32,
    class_idx: usize,
    /// Issue cycle and hit length of the running task; `None` when idle.
    running: Option<(Cycle, u32)>,
}

#[allow(clippy::large_enum_variant)] // one per run, never moved
enum HitPath {
    /// The Coordinator path: double buffer + greedy allocator.
    Coordinator {
        buffer: HitsBuffer<Hit>,
        allocator: HitsAllocator,
        judger: AllocateJudger,
        trigger: AllocateTrigger,
        /// Set after a zero-progress round; cleared when EU/buffer state
        /// changes, preventing same-cycle re-trigger livelock.
        blocked: bool,
    },
    /// The baseline path: a bounded FIFO dispatched head-first.
    Fifo {
        queue: VecDeque<Hit>,
        capacity: usize,
        /// With hybrid units but no Hits Allocator, the minimal hardware
        /// matches the head hit strictly to its own class (and blocks on
        /// it — the paper's "basic method (1)"); with uniform units the
        /// head takes the first idle unit.
        strict_class: bool,
    },
}

/// Handles into the run's [`MetricsRegistry`], resolved once at startup so
/// the event loop never does a name lookup.
#[derive(Debug, Clone, Copy)]
struct MetricIds {
    reads_issued: CounterId,
    hits_dispatched: CounterId,
    alloc_rounds: CounterId,
    fragmented: CounterId,
    stall_events: CounterId,
    switches: CounterId,
    read_cycles: HistogramId,
    hit_cycles: HistogramId,
    round_allocated: HistogramId,
}

impl MetricIds {
    fn register(metrics: &mut MetricsRegistry) -> MetricIds {
        MetricIds {
            reads_issued: metrics.counter("sim.reads_issued"),
            hits_dispatched: metrics.counter("coordinator.hits_dispatched"),
            alloc_rounds: metrics.counter("coordinator.alloc_rounds"),
            fragmented: metrics.counter("coordinator.fragmented_hits"),
            stall_events: metrics.counter("su.stall_events"),
            switches: metrics.counter("coordinator.buffer_switches"),
            read_cycles: metrics.histogram("su.read_cycles"),
            hit_cycles: metrics.histogram("eu.hit_cycles"),
            round_allocated: metrics.histogram("coordinator.round_allocated"),
        }
    }
}

struct SimState<'w> {
    config: NvwaConfig,
    works: &'w [ReadWork],
    now: Cycle,
    events: EventQueue<Event>,
    // Seeding side.
    sus: Vec<SuState>,
    /// SUs per status (indexed by `UnitStatus as usize`), and the idle and
    /// `Stop` words (SU `i` is bit `i % 64` of word `i / 64`); see `set_su`.
    su_counts: [u32; 3],
    su_idle: Vec<u64>,
    su_stop: Vec<u64>,
    /// The read scheduler's grants, reused by every call.
    grants: Vec<(usize, u64)>,
    next_read: u64,
    ocra: OneCycleReadAllocator,
    batch: BatchScheduler,
    su_model: SuModel,
    read_spm: ReadSpm,
    hbm: Hbm,
    // Extension side.
    eus: Vec<EuState>,
    /// EUs with a running task, and the idle word; moved by `set_eu`.
    eu_busy: u32,
    eu_idle: Vec<u64>,
    /// Per EU class, the units with that class's PE count.
    class_masks: Vec<Vec<u64>>,
    /// The timing model of each EU class, indexed by `EuState::class_idx`.
    eu_models: Vec<EuModel>,
    path: HitPath,
    /// A round's idle-EU list and its dispatches, reused by every round.
    idle_eus: Vec<IdleEu>,
    round_dispatches: Vec<(usize, Hit)>,
    // Telemetry.
    metrics: MetricsRegistry,
    ids: MetricIds,
    su_stall: StallTracker,
    eu_stall: StallTracker,
    trace: Option<TraceRecorder>,
    matrix: Vec<Vec<u64>>,
}

/// Runs the full-system simulation of `works` under `config`.
///
/// Deterministic: identical inputs give identical reports. Equivalent to
/// [`simulate_instrumented`] with default options, keeping only the report.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`NvwaConfig::validate`]) or `works`
/// is empty.
pub fn simulate(config: &NvwaConfig, works: &[ReadWork]) -> SimReport {
    simulate_instrumented(config, works, &SimOptions::default()).report
}

/// Runs the full-system simulation, returning the report together with the
/// metrics registry (and, optionally, a Chrome trace).
///
/// # Panics
///
/// Panics if `config` is invalid (see [`NvwaConfig::validate`]) or `works`
/// is empty.
pub fn simulate_instrumented(config: &NvwaConfig, works: &[ReadWork], opts: &SimOptions) -> SimRun {
    config.validate();
    assert!(!works.is_empty(), "workload must be non-empty");

    let eu_classes = config.effective_eu_classes();
    let mut eus = Vec::new();
    for (class_idx, c) in eu_classes.iter().enumerate() {
        for _ in 0..c.count {
            eus.push(EuState {
                pes: c.pes,
                class_idx,
                running: None,
            });
        }
    }
    let path = if config.scheduling.hits_allocator {
        HitPath::Coordinator {
            buffer: HitsBuffer::new(config.hits_buffer_depth, STORE_SWITCH_THRESHOLD),
            allocator: HitsAllocator::new(&eu_classes, AllocPolicy::GroupedGreedy),
            judger: AllocateJudger::new(),
            trigger: AllocateTrigger::new(IDLE_EU_THRESHOLD),
            blocked: false,
        }
    } else {
        HitPath::Fifo {
            queue: VecDeque::new(),
            capacity: config.baseline_fifo_capacity,
            strict_class: config.scheduling.hybrid_units,
        }
    };

    let total_eus = eus.len() as u32;
    let mut metrics = MetricsRegistry::new();
    let ids = MetricIds::register(&mut metrics);
    let trace = opts.trace.then(|| {
        let mut rec = TraceRecorder::new();
        rec.name_process(PID_ACCELERATOR, "NvWa accelerator");
        for su in 0..config.su_count {
            rec.name_thread(PID_ACCELERATOR, su, &format!("SU{su}"));
        }
        for eu in 0..total_eus {
            rec.name_thread(PID_ACCELERATOR, config.su_count + eu, &format!("EU{eu}"));
        }
        rec.name_thread(PID_ACCELERATOR, config.su_count + total_eus, "Coordinator");
        rec
    });
    let mut state = SimState {
        works,
        now: 0,
        events: EventQueue::new(),
        sus: vec![SuState::Idle; config.su_count as usize],
        su_counts: [config.su_count, 0, 0],
        su_idle: bits((0..config.su_count).map(|_| true)),
        su_stop: bits((0..config.su_count).map(|_| false)),
        grants: Vec::new(),
        next_read: 0,
        ocra: OneCycleReadAllocator::new(config.su_count as usize),
        batch: BatchScheduler::new(config.su_count as usize),
        su_model: SuModel::new(config.su_cache_blocks, SU_CACHE_LATENCY),
        read_spm: ReadSpm::for_su_pool(config.su_count),
        hbm: Hbm::new(HbmConfig::default()),
        eu_busy: 0,
        eu_idle: bits(eus.iter().map(|_| true)),
        class_masks: (eu_classes.iter())
            .map(|c| bits(eus.iter().map(|e| e.pes == c.pes)))
            .collect(),
        eus,
        eu_models: eu_classes
            .iter()
            .map(|c| EuModel::new(c.pes, TRACEBACK_CYCLES))
            .collect(),
        path,
        idle_eus: Vec::new(),
        round_dispatches: Vec::new(),
        metrics,
        ids,
        su_stall: StallTracker::new(config.su_count, config.stats_bucket),
        eu_stall: StallTracker::new(total_eus, config.stats_bucket),
        trace,
        matrix: vec![vec![0; eu_classes.len()]; HIT_INTERVALS.len()],
        config: config.clone(),
    };

    state.schedule_reads();
    state.sync_stats();
    // Events at one cycle pop in push order, including those scheduled at
    // the current cycle while it is being handled.
    while let Some((t, ev)) = state.events.pop() {
        debug_assert!(t >= state.now, "time must advance");
        state.now = t;
        match ev {
            Event::SuDone { su } => state.on_su_done(su),
            Event::EuDone { eu } => state.on_eu_done(eu),
            Event::AllocDone => state.on_alloc_done(),
        }
        state.maintenance();
        state.sync_stats();
    }
    state.into_run(&eu_classes)
}

impl SimState<'_> {
    /// The only place an SU changes status: counts and words move with it.
    fn set_su(&mut self, su: usize, next: SuState) {
        self.su_counts[self.sus[su].status() as usize] -= 1;
        self.su_counts[next.status() as usize] += 1;
        put_bit(&mut self.su_idle, su, next.status() == UnitStatus::Idle);
        put_bit(&mut self.su_stop, su, next.status() == UnitStatus::Stop);
        self.sus[su] = next;
    }

    /// The only place an EU changes status: count and word move with it.
    fn set_eu(&mut self, eu: usize, running: Option<(Cycle, u32)>) {
        self.eu_busy -= self.eus[eu].running.is_some() as u32;
        self.eu_busy += running.is_some() as u32;
        put_bit(&mut self.eu_idle, eu, running.is_none());
        self.eus[eu].running = running;
    }

    fn su_count(&self, status: UnitStatus) -> u32 {
        self.su_counts[status as usize]
    }

    fn seeding_finished(&self) -> bool {
        self.next_read as usize >= self.works.len()
            && self.su_count(UnitStatus::Idle) == self.config.su_count
    }

    /// Why every currently idle EU is idle: hits waiting but undispatched
    /// means Coordinator scheduling latency or fragmentation (head-of-line
    /// blocking on the FIFO path); an empty buffer is either the producers
    /// lagging or — once seeding is over and nothing is in flight — the
    /// tail drain.
    fn eu_idle_cause(&self) -> StallCause {
        match &self.path {
            HitPath::Coordinator { buffer, .. } => {
                if buffer.processing_remaining() > 0 {
                    StallCause::AllocFragmentation
                } else if self.seeding_finished() && buffer.store_len() == 0 {
                    StallCause::Drain
                } else {
                    StallCause::EmptyHitsBuffer
                }
            }
            HitPath::Fifo { queue, .. } => {
                if !queue.is_empty() {
                    StallCause::AllocFragmentation
                } else if self.seeding_finished() {
                    StallCause::Drain
                } else {
                    StallCause::EmptyHitsBuffer
                }
            }
        }
    }

    /// Pushes the current busy/idle-by-cause distribution of both pools
    /// into the stall trackers. Called once per handled event — unit
    /// status only changes at event boundaries, so intra-event states are
    /// zero-length and integrating the post-event state is exact.
    fn sync_stats(&mut self) {
        let su_bits = |words, st| holds(words, self.sus.iter().map(|s| s.status() == st));
        debug_assert!(
            [UnitStatus::Idle, UnitStatus::Busy, UnitStatus::Stop]
                .iter()
                .all(|&st| self.sus.iter().filter(|s| s.status() == st).count()
                    == self.su_count(st) as usize)
                && self.eus.iter().filter(|e| e.running.is_some()).count() == self.eu_busy as usize
                && su_bits(&self.su_idle, UnitStatus::Idle)
                && su_bits(&self.su_stop, UnitStatus::Stop)
                && holds(&self.eu_idle, self.eus.iter().map(|e| e.running.is_none())),
            "a unit changed status outside set_su / set_eu"
        );
        let idle_cause = if (self.next_read as usize) < self.works.len() {
            // Reads remain but the scheduler has not issued one: the
            // Read-in-Batch barrier (OCRA refills every idle SU, so this
            // stays zero under OCRA).
            StallCause::BatchBarrier
        } else {
            StallCause::Drain
        };
        self.su_stall.set_state(
            self.now,
            PoolState::all_busy(self.su_count(UnitStatus::Busy))
                .with_idle(StallCause::StoreBufferFull, self.su_count(UnitStatus::Stop))
                .with_idle(idle_cause, self.su_count(UnitStatus::Idle)),
        );

        let eu_idle = self.eus.len() as u32 - self.eu_busy;
        let eu_cause = self.eu_idle_cause();
        self.eu_stall.set_state(
            self.now,
            PoolState::all_busy(self.eu_busy).with_idle(eu_cause, eu_idle),
        );
    }

    fn coordinator_tid(&self) -> u32 {
        self.config.su_count + self.eus.len() as u32
    }

    /// Re-evaluates buffer switches, stall resolution, allocation triggers
    /// and FIFO dispatch until nothing changes at the current cycle.
    fn maintenance(&mut self) {
        loop {
            let draining = self.seeding_finished();
            let mut progressed = self.try_switch(draining);
            progressed |= self.try_trigger(draining);
            progressed |= self.try_fifo_dispatch();
            progressed |= self.su_count(UnitStatus::Stop) > 0 && self.resume_stalled();
            if !progressed {
                break;
            }
        }
    }
}

/// Packs `flags` into status words: flag `i` is bit `i % 64` of word
/// `i / 64`.
fn bits(flags: impl ExactSizeIterator<Item = bool>) -> Vec<u64> {
    let mut words = vec![0; flags.len().div_ceil(64)];
    for (i, on) in flags.enumerate() {
        put_bit(&mut words, i, on);
    }
    words
}

fn put_bit(words: &mut [u64], i: usize, on: bool) {
    words[i / 64] = words[i / 64] & !(1 << (i % 64)) | (on as u64) << (i % 64);
}

/// Whether bit `i` of `words` is the `i`-th flag, for every flag.
fn holds(words: &[u64], flags: impl Iterator<Item = bool>) -> bool {
    (flags.enumerate()).all(|(i, on)| (words[i / 64] >> (i % 64) & 1 == 1) == on)
}
