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
//! only in `set_su` / `set_eu`, which move the per-status counts with it, so
//! whole-pool questions (seeding finished? every active SU suspended? idle
//! EUs?) read a count. A pool is walked only where index order is part of
//! the statistics: the status bits the read scheduler sees, a round's
//! idle-EU list, the FIFO head's unit search, the retry of suspended SUs.
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
use nvwa_sim::hbm::Hbm;
use nvwa_sim::Cycle;
use nvwa_telemetry::{
    CounterId, HistogramId, MetricsRegistry, PoolState, StallCause, StallTracker, TraceRecorder,
    PID_ACCELERATOR,
};

use crate::config::{EuClass, NvwaConfig};
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

/// The four hit intervals used for assignment-correctness accounting
/// (Fig. 12e/f), independent of the instantiated EU classes.
const HIT_INTERVALS: [usize; 4] = [16, 32, 64, 128];

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
    /// SUs per status, indexed by `UnitStatus as usize`; moved by `set_su`.
    su_counts: [u32; 3],
    next_read: u64,
    ocra: OneCycleReadAllocator,
    batch: BatchScheduler,
    su_model: SuModel,
    read_spm: ReadSpm,
    hbm: Hbm,
    // Extension side.
    eus: Vec<EuState>,
    /// EUs with a running task; moved by `set_eu`.
    eu_busy: u32,
    path: HitPath,
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
            buffer: HitsBuffer::new(config.hits_buffer_depth, config.store_switch_threshold),
            allocator: HitsAllocator::new(&eu_classes, AllocPolicy::GroupedGreedy),
            judger: AllocateJudger::new(),
            trigger: AllocateTrigger::new(config.idle_eu_threshold),
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
        next_read: 0,
        ocra: OneCycleReadAllocator::new(config.su_count as usize),
        batch: BatchScheduler::new(config.su_count as usize),
        su_model: SuModel::new(config.su_cache_blocks, config.su_cache_latency),
        read_spm: ReadSpm::for_su_pool(config.su_count),
        hbm: Hbm::new(config.hbm),
        eus,
        eu_busy: 0,
        path,
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
    // Advance to the next populated cycle with pop(), then drain that
    // cycle's bucket with pop_while() — O(1) amortized per same-cycle
    // event instead of a heap sift each. Events scheduled *at* the
    // current cycle during handling join the back of the bucket, which is
    // exactly the insertion-order tie-break the heap gave them.
    while let Some((t, first)) = state.events.pop() {
        debug_assert!(t >= state.now, "time must advance");
        state.now = t;
        let mut next = Some(first);
        while let Some(ev) = next {
            match ev {
                Event::SuDone { su } => state.on_su_done(su),
                Event::EuDone { eu } => state.on_eu_done(eu),
                Event::AllocDone => state.on_alloc_done(),
            }
            state.maintenance();
            state.sync_stats();
            next = state.events.pop_while(t);
        }
    }
    state.into_run(&eu_classes)
}

impl SimState<'_> {
    /// The only place an SU changes status: the counts move with it.
    fn set_su(&mut self, su: usize, next: SuState) {
        self.su_counts[self.sus[su].status() as usize] -= 1;
        self.su_counts[next.status() as usize] += 1;
        self.sus[su] = next;
    }

    /// The only place an EU changes status: the busy count moves with it.
    fn set_eu(&mut self, eu: usize, running: Option<(Cycle, u32)>) {
        self.eu_busy -= self.eus[eu].running.is_some() as u32;
        self.eu_busy += running.is_some() as u32;
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
        debug_assert!(
            [UnitStatus::Idle, UnitStatus::Busy, UnitStatus::Stop]
                .iter()
                .all(|&st| self.sus.iter().filter(|s| s.status() == st).count()
                    == self.su_count(st) as usize)
                && self.eus.iter().filter(|e| e.running.is_some()).count() == self.eu_busy as usize,
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

    /// Refills idle SUs with new reads via the active read scheduler.
    fn schedule_reads(&mut self) {
        let remaining = self.works.len() as u64 - self.next_read;
        if remaining == 0 {
            return;
        }
        // A suspended SU is not schedulable: report it busy.
        let busy: Vec<bool> = self
            .sus
            .iter()
            .map(|s| s.status() != UnitStatus::Idle)
            .collect();
        let (assigned, new_next) = if self.config.scheduling.ocra {
            self.ocra.allocate(&busy, self.next_read, remaining)
        } else {
            self.batch.allocate(&busy, self.next_read, remaining)
        };
        let offset_before = self.next_read;
        self.next_read = new_next;
        for (su, read) in assigned.into_iter().enumerate() {
            let Some(read_idx) = read else { continue };
            let read = read_idx as usize;
            let work = &self.works[read];
            // One cycle for the allocator itself, then the read load.
            let load = self.read_spm.load_latency(read_idx, offset_before);
            let start = self.now + 1 + load;
            let done = self
                .su_model
                .seeding_latency(start, work, &mut self.hbm)
                .max(self.now + 1);
            let issued = self.now;
            self.set_su(su, SuState::Busy { read, issued });
            self.metrics.inc(self.ids.reads_issued, 1);
            self.events.push(done, Event::SuDone { su });
        }
    }

    fn on_su_done(&mut self, su: usize) {
        let SuState::Busy { read, issued } = self.sus[su] else {
            unreachable!("SuDone only fires for a seeding SU");
        };
        self.metrics
            .observe(self.ids.read_cycles, self.now - issued);
        if let Some(rec) = &mut self.trace {
            rec.complete_with_args(
                PID_ACCELERATOR,
                su as u32,
                &format!("read {read}"),
                nvwa_telemetry::cycles_to_us(issued),
                nvwa_telemetry::cycles_to_us(self.now - issued),
                &[("read", read as f64)],
            );
        }
        self.finish_or_stall(su, read, 0, None);
    }

    /// Pushes `read`'s hits from index `next` on toward the extension side;
    /// suspends the SU when the buffer is full (the blocking state of
    /// Fig. 13a). `since` is `Some` when this retries a suspended SU.
    fn finish_or_stall(&mut self, su: usize, read: usize, mut next: usize, since: Option<Cycle>) {
        let hits = &self.works[read].hits;
        while let Some(&hit) = hits.get(next) {
            let accepted = match &mut self.path {
                HitPath::Coordinator { buffer, .. } => buffer.push(hit).is_ok(),
                HitPath::Fifo {
                    queue, capacity, ..
                } => {
                    if queue.len() < *capacity {
                        queue.push_back(hit);
                        true
                    } else {
                        false
                    }
                }
            };
            if !accepted {
                break;
            }
            next += 1;
        }
        if next == hits.len() {
            if let Some(since) = since {
                if let Some(rec) = &mut self.trace {
                    rec.complete(
                        PID_ACCELERATOR,
                        su as u32,
                        StallCause::StoreBufferFull.span_name(),
                        nvwa_telemetry::cycles_to_us(since),
                        nvwa_telemetry::cycles_to_us(self.now - since),
                    );
                }
            }
            self.set_su(su, SuState::Idle);
            self.schedule_reads();
        } else {
            if since.is_none() {
                self.metrics.inc(self.ids.stall_events, 1);
            }
            let since = since.unwrap_or(self.now);
            // A suspended SU holds its read but is not doing useful work:
            // it counts as unutilized (the paper's Fig. 13a "suspending
            // state").
            self.set_su(su, SuState::Stop { read, next, since });
        }
    }

    fn on_eu_done(&mut self, eu: usize) {
        let (issued, hit_len) = self.eus[eu].running.expect("EU completion without a task");
        self.set_eu(eu, None);
        self.metrics.observe(self.ids.hit_cycles, self.now - issued);
        if let Some(rec) = &mut self.trace {
            rec.complete_with_args(
                PID_ACCELERATOR,
                self.config.su_count + eu as u32,
                "hit",
                nvwa_telemetry::cycles_to_us(issued),
                nvwa_telemetry::cycles_to_us(self.now - issued),
                &[("hit_len", hit_len as f64)],
            );
        }
        if let HitPath::Coordinator { blocked, .. } = &mut self.path {
            *blocked = false;
        }
    }

    fn on_alloc_done(&mut self) {
        let HitPath::Coordinator {
            buffer,
            allocator,
            judger,
            blocked,
            ..
        } = &mut self.path
        else {
            unreachable!("AllocDone only fires on the Coordinator path");
        };
        let batch = buffer.peek_batch(self.config.alloc_batch_size).to_vec();
        let mut idle: Vec<IdleEu> = self
            .eus
            .iter()
            .enumerate()
            .filter(|(_, e)| e.running.is_none())
            .map(|(unit_idx, e)| IdleEu {
                unit_idx,
                pes: e.pes,
            })
            .collect();
        let (flags, assignments) = allocator.allocate(&batch, &mut idle);
        let stats = buffer.complete_round(&flags);
        judger.complete();
        self.metrics.inc(self.ids.alloc_rounds, 1);
        self.metrics
            .inc(self.ids.fragmented, stats.unallocated as u64);
        self.metrics
            .observe(self.ids.round_allocated, stats.allocated as u64);
        if stats.allocated == 0 {
            *blocked = true;
        }
        let coordinator_tid = self.coordinator_tid();
        if let Some(rec) = &mut self.trace {
            let started = self.now - self.config.alloc_latency;
            rec.complete_with_args(
                PID_ACCELERATOR,
                coordinator_tid,
                "alloc round",
                nvwa_telemetry::cycles_to_us(started),
                nvwa_telemetry::cycles_to_us(self.config.alloc_latency),
                &[
                    ("allocated", stats.allocated as f64),
                    ("unallocated", stats.unallocated as f64),
                ],
            );
        }
        let dispatches: Vec<(usize, Hit)> = assignments
            .iter()
            .map(|a| (a.unit.unit_idx, batch[a.batch_slot]))
            .collect();
        for (unit_idx, hit) in dispatches {
            self.dispatch(unit_idx, &hit);
        }
    }

    /// Occupies EU `unit_idx` with `hit` and records the assignment.
    fn dispatch(&mut self, unit_idx: usize, hit: &Hit) {
        let eu = self.eus[unit_idx];
        debug_assert!(eu.running.is_none(), "dispatch to a busy EU");
        let model = EuModel::with_algorithm(
            eu.pes,
            self.config.traceback_cycles,
            self.config.eu_algorithm,
        );
        let done = self.now + model.task_latency(hit);
        self.events.push(done, Event::EuDone { eu: unit_idx });
        self.set_eu(unit_idx, Some((self.now, hit.hit_len())));
        let interval = HIT_INTERVALS
            .iter()
            .position(|&b| hit.hit_len() as usize <= b)
            .unwrap_or(HIT_INTERVALS.len() - 1);
        self.matrix[interval][eu.class_idx] += 1;
        self.metrics.inc(self.ids.hits_dispatched, 1);
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

    /// Buffer switch: threshold reached, or forced when the producers are
    /// done (or every active SU is suspended on a full Store Buffer).
    fn try_switch(&mut self, draining: bool) -> bool {
        let all_stalled =
            self.su_count(UnitStatus::Stop) > 0 && self.su_count(UnitStatus::Busy) == 0;
        let coordinator_tid = self.coordinator_tid();
        let HitPath::Coordinator {
            buffer, blocked, ..
        } = &mut self.path
        else {
            return false;
        };
        if buffer.should_switch(draining || all_stalled) && buffer.switch() {
            self.metrics.inc(self.ids.switches, 1);
            if let Some(rec) = &mut self.trace {
                rec.instant(
                    PID_ACCELERATOR,
                    coordinator_tid,
                    "buffer switch",
                    nvwa_telemetry::cycles_to_us(self.now),
                );
            }
            *blocked = false;
            true
        } else {
            false
        }
    }

    /// Allocate Trigger → Judger → scheduled round.
    fn try_trigger(&mut self, draining: bool) -> bool {
        let total = self.eus.len();
        let idle = total - self.eu_busy as usize;
        let HitPath::Coordinator {
            buffer,
            judger,
            trigger,
            blocked,
            ..
        } = &mut self.path
        else {
            return false;
        };
        let want = buffer.processing_remaining() > 0
            && idle > 0
            && !*blocked
            && (draining || trigger.should_request(idle, total));
        if want && judger.request() {
            self.events
                .push(self.now + self.config.alloc_latency, Event::AllocDone);
            true
        } else {
            false
        }
    }

    /// Baseline path: head-of-line dispatch to an idle EU.
    fn try_fifo_dispatch(&mut self) -> bool {
        let (hit, unit_idx) = {
            let HitPath::Fifo {
                queue,
                strict_class,
                ..
            } = &self.path
            else {
                return false;
            };
            let Some(hit) = queue.front().copied() else {
                return false;
            };
            let choice = if *strict_class {
                // Head-of-line blocking on the hit's own class: the
                // smallest class whose PE count covers the hit length.
                let wanted = self
                    .eus
                    .iter()
                    .map(|e| e.pes)
                    .filter(|&p| hit.hit_len() <= p)
                    .min()
                    .unwrap_or_else(|| self.eus.iter().map(|e| e.pes).max().expect("EUs exist"));
                self.eus
                    .iter()
                    .position(|e| e.running.is_none() && e.pes == wanted)
            } else {
                self.eus.iter().position(|e| e.running.is_none())
            };
            match choice {
                Some(u) => (hit, u),
                None => return false,
            }
        };
        if let HitPath::Fifo { queue, .. } = &mut self.path {
            queue.pop_front();
        }
        self.dispatch(unit_idx, &hit);
        true
    }

    /// Resumes suspended SUs whose buffer space opened up, in index order
    /// (the first to push wins the freed space).
    fn resume_stalled(&mut self) -> bool {
        let mut progressed = false;
        for su in 0..self.sus.len() {
            if let SuState::Stop { read, next, since } = self.sus[su] {
                self.finish_or_stall(su, read, next, Some(since));
                progressed |= !matches!(self.sus[su], SuState::Stop { .. });
            }
        }
        progressed
    }

    fn into_run(mut self, eu_classes: &[EuClass]) -> SimRun {
        let end = self.now.max(1);
        let su_utilization = self.su_stall.utilization(end);
        let eu_utilization = self.eu_stall.utilization(end);
        let su_series = self.su_stall.busy_series(end);
        let eu_series = self.eu_stall.busy_series(end);
        self.su_stall.export_into(&mut self.metrics, "su", end);
        self.eu_stall.export_into(&mut self.metrics, "eu", end);

        let m = &mut self.metrics;
        let g = |m: &mut MetricsRegistry, name: &str, v: f64| {
            let id = m.gauge(name);
            m.set_gauge(id, v);
        };
        g(m, "sim.total_cycles", end as f64);
        g(m, "su.utilization", su_utilization);
        g(m, "eu.utilization", eu_utilization);
        g(m, "su.cache_hit_rate", self.su_model.cache_hit_rate());
        g(m, "hbm.energy_j", self.hbm.energy_joules());
        g(m, "hbm.mean_queue_delay", self.hbm.mean_queue_delay());
        let c = |m: &mut MetricsRegistry, name: &str, v: u64| {
            let id = m.counter(name);
            m.inc(id, v);
        };
        c(m, "hbm.requests", self.hbm.requests());
        c(m, "hbm.bytes", self.hbm.bytes_transferred());
        // SUs blocked on an HBM round trip are *busy* in this model (the
        // seeding chain owns the unit), so the wait is a blocked-cycles
        // counter, not an idle cause — see the StallCause taxonomy.
        c(
            m,
            &format!("su.stall.{}.cycles", StallCause::HbmWait.label()),
            self.hbm.total_queue_delay(),
        );

        let report = SimReport {
            total_cycles: end,
            reads: self.works.len() as u64,
            hits_dispatched: self.metrics.counter_get(self.ids.hits_dispatched),
            su_utilization,
            eu_utilization,
            su_series,
            eu_series,
            stats_bucket: self.config.stats_bucket,
            assignment_matrix: self.matrix,
            hit_class_bounds: HIT_INTERVALS.to_vec(),
            eu_class_pes: eu_classes.iter().map(|c| c.pes).collect(),
            buffer_switches: self.metrics.counter_get(self.ids.switches),
            alloc_rounds: self.metrics.counter_get(self.ids.alloc_rounds),
            fragmented_hits: self.metrics.counter_get(self.ids.fragmented),
            su_stall_events: self.metrics.counter_get(self.ids.stall_events),
            hbm_requests: self.hbm.requests(),
            hbm_energy_j: self.hbm.energy_joules(),
            su_cache_hit_rate: self.su_model.cache_hit_rate(),
        };
        SimRun {
            report,
            metrics: self.metrics,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingConfig;
    use crate::units::workload::SyntheticWorkloadParams;

    fn small_workload(reads: usize) -> Vec<ReadWork> {
        SyntheticWorkloadParams {
            reads,
            mean_accesses: 60.0,
            ..SyntheticWorkloadParams::default()
        }
        .generate(42)
    }

    fn config() -> NvwaConfig {
        NvwaConfig::small_test()
    }

    #[test]
    fn simulation_terminates_and_processes_all_hits() {
        let works = small_workload(200);
        let total_hits: u64 = works.iter().map(|w| w.hits.len() as u64).sum();
        let report = simulate(&config(), &works);
        assert_eq!(report.reads, 200);
        assert_eq!(report.hits_dispatched, total_hits);
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn deterministic() {
        let works = small_workload(100);
        let a = simulate(&config(), &works);
        let b = simulate(&config(), &works);
        assert_eq!(a, b);
    }

    #[test]
    fn instrumented_metrics_match_the_report() {
        let works = small_workload(150);
        let run = simulate_instrumented(&config(), &works, &SimOptions::default());
        let m = &run.metrics;
        let r = &run.report;
        assert_eq!(
            m.counter_value("coordinator.hits_dispatched"),
            Some(r.hits_dispatched)
        );
        assert_eq!(
            m.counter_value("coordinator.alloc_rounds"),
            Some(r.alloc_rounds)
        );
        assert_eq!(
            m.counter_value("coordinator.buffer_switches"),
            Some(r.buffer_switches)
        );
        assert_eq!(m.counter_value("sim.reads_issued"), Some(r.reads));
        assert_eq!(
            m.gauge_value("sim.total_cycles"),
            Some(r.total_cycles as f64)
        );
        assert_eq!(m.gauge_value("su.utilization"), Some(r.su_utilization));
        assert_eq!(m.gauge_value("eu.utilization"), Some(r.eu_utilization));
        // Latency histograms saw every read and every hit.
        let reads_h = m.histogram_value("su.read_cycles").unwrap();
        assert_eq!(reads_h.count(), r.reads);
        assert!(reads_h.p99() >= reads_h.p50());
        assert_eq!(
            m.histogram_value("eu.hit_cycles").unwrap().count(),
            r.hits_dispatched
        );
    }

    #[test]
    fn stall_cycles_sum_to_idle_cycles_per_pool() {
        let works = small_workload(200);
        // A tiny buffer forces Store-Buffer stalls so several causes are
        // non-zero at once.
        let cfg = NvwaConfig {
            hits_buffer_depth: 8,
            alloc_batch_size: 4,
            ..config()
        };
        let run = simulate_instrumented(&cfg, &works, &SimOptions::default());
        let m = &run.metrics;
        let total = run.report.total_cycles as f64;
        for (prefix, units) in [("su", cfg.su_count), ("eu", 7)] {
            let busy = m.gauge_value(&format!("{prefix}.busy_cycles")).unwrap();
            let idle = m.gauge_value(&format!("{prefix}.idle_cycles")).unwrap();
            let by_cause: f64 = StallCause::IDLE_CAUSES
                .iter()
                .map(|c| {
                    m.gauge_value(&format!("{prefix}.stall.{}.cycles", c.label()))
                        .unwrap()
                })
                .sum();
            assert_eq!(by_cause, idle, "{prefix}: causes must sum to idle");
            assert_eq!(
                busy + idle,
                units as f64 * total,
                "{prefix}: busy + idle must cover the pool-time rectangle"
            );
        }
        assert!(
            m.gauge_value("su.stall.store_buffer_full.cycles").unwrap() > 0.0,
            "tiny buffer must produce attributed Store-Buffer stalls"
        );
    }

    #[test]
    fn trace_spans_integrate_to_utilization() {
        let works = small_workload(150);
        let cfg = config();
        let run = simulate_instrumented(&cfg, &works, &SimOptions { trace: true });
        let trace = run.trace.expect("trace requested");
        let total_us = nvwa_telemetry::cycles_to_us(run.report.total_cycles);
        let su_span_us: f64 = (0..cfg.su_count)
            .map(|su| trace.track_busy_us(PID_ACCELERATOR, su, "read"))
            .sum();
        let expected = run.report.su_utilization * cfg.su_count as f64 * total_us;
        assert!(
            (su_span_us - expected).abs() <= expected * 0.01,
            "SU spans {su_span_us} vs utilization integral {expected}"
        );
        let eu_span_us: f64 = (0..7)
            .map(|eu| trace.track_busy_us(PID_ACCELERATOR, cfg.su_count + eu, "hit"))
            .sum();
        let expected = run.report.eu_utilization * 7.0 * total_us;
        assert!(
            (eu_span_us - expected).abs() <= expected * 0.01,
            "EU spans {eu_span_us} vs utilization integral {expected}"
        );
    }

    #[test]
    fn untraced_run_records_no_spans() {
        let works = small_workload(20);
        let run = simulate_instrumented(&config(), &works, &SimOptions::default());
        assert!(run.trace.is_none());
    }

    #[test]
    fn nvwa_beats_unscheduled_baseline() {
        let works = small_workload(400);
        let nvwa = simulate(&config(), &works);
        let baseline_cfg = NvwaConfig {
            scheduling: SchedulingConfig::baseline(),
            ..config()
        };
        let base = simulate(&baseline_cfg, &works);
        assert_eq!(base.hits_dispatched, nvwa.hits_dispatched);
        assert!(
            nvwa.total_cycles < base.total_cycles,
            "nvwa {} vs baseline {}",
            nvwa.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn ocra_improves_su_utilization() {
        let works = small_workload(400);
        let with = simulate(&config(), &works);
        let without = simulate(
            &NvwaConfig {
                scheduling: SchedulingConfig {
                    ocra: false,
                    ..SchedulingConfig::nvwa()
                },
                ..config()
            },
            &works,
        );
        assert!(
            with.su_utilization > without.su_utilization,
            "with {} vs without {}",
            with.su_utilization,
            without.su_utilization
        );
    }

    #[test]
    fn batch_barrier_idle_is_attributed_under_read_in_batch() {
        // Without OCRA, SUs wait at the batch barrier while reads remain;
        // that idle time must land on the BatchBarrier cause. Under OCRA
        // it must be zero.
        let works = small_workload(300);
        let batch = simulate_instrumented(
            &NvwaConfig {
                scheduling: SchedulingConfig {
                    ocra: false,
                    ..SchedulingConfig::nvwa()
                },
                ..config()
            },
            &works,
            &SimOptions::default(),
        );
        let ocra = simulate_instrumented(&config(), &works, &SimOptions::default());
        let barrier = |run: &SimRun| {
            run.metrics
                .gauge_value("su.stall.batch_barrier.cycles")
                .unwrap()
        };
        assert!(
            barrier(&batch) > 0.0,
            "batch barrier idle must be attributed"
        );
        assert_eq!(barrier(&ocra), 0.0, "OCRA refills every idle SU");
    }

    #[test]
    fn allocator_beats_strict_blocking_fifo() {
        // With hybrid units, the Hits Allocator (buffered, sorted, grouped
        // with sub-optimal fallback) must outperform the minimal strict
        // class-matched blocking FIFO it replaces. Run at paper scale so
        // the EU pool has multiple units per class.
        let works = SyntheticWorkloadParams {
            reads: 800,
            ..SyntheticWorkloadParams::default()
        }
        .generate(42);
        let cfg = NvwaConfig {
            stats_bucket: 4096,
            ..NvwaConfig::paper()
        };
        let with = simulate(&cfg, &works);
        let without = simulate(
            &NvwaConfig {
                scheduling: SchedulingConfig {
                    hits_allocator: false,
                    hybrid_units: true,
                    ocra: true,
                },
                ..cfg
            },
            &works,
        );
        assert!(
            with.total_cycles < without.total_cycles,
            "with HA {} vs strict FIFO {}",
            with.total_cycles,
            without.total_cycles
        );
    }

    #[test]
    fn nvwa_allocation_correctness_beats_uniform_baseline() {
        // Fig. 12(e/f): NvWa places most hits on their optimal class; the
        // uniform SUs+EUs baseline cannot (it has only 64-PE units).
        let works = small_workload(400);
        let nvwa = simulate(&config(), &works);
        let base = simulate(
            &NvwaConfig {
                scheduling: SchedulingConfig::baseline(),
                ..config()
            },
            &works,
        );
        assert!(nvwa.overall_correct_allocation() > 0.5);
        assert!(nvwa.overall_correct_allocation() > base.overall_correct_allocation());
    }

    #[test]
    fn small_buffer_causes_stalls() {
        let works = small_workload(300);
        let tiny = simulate(
            &NvwaConfig {
                hits_buffer_depth: 8,
                alloc_batch_size: 4,
                ..config()
            },
            &works,
        );
        assert!(tiny.su_stall_events > 0);
        let big = simulate(
            &NvwaConfig {
                hits_buffer_depth: 4096,
                ..config()
            },
            &works,
        );
        assert_eq!(big.su_stall_events, 0);
    }

    #[test]
    fn utilization_is_bounded() {
        let works = small_workload(150);
        let r = simulate(&config(), &works);
        assert!(r.su_utilization > 0.0 && r.su_utilization <= 1.0);
        assert!(r.eu_utilization > 0.0 && r.eu_utilization <= 1.0);
    }

    #[test]
    fn scheduling_gains_hold_for_bit_parallel_units() {
        // The paper's orthogonality claim: the schedulers improve GenASM-
        // style units too, not just systolic arrays.
        use crate::config::EuAlgorithm;
        let works = SyntheticWorkloadParams {
            reads: 600,
            ..SyntheticWorkloadParams::default()
        }
        .generate(0x0b17);
        let run = |sched: SchedulingConfig| {
            simulate(
                &NvwaConfig {
                    eu_algorithm: EuAlgorithm::BitParallel,
                    scheduling: sched,
                    ..NvwaConfig::paper()
                },
                &works,
            )
            .total_cycles
        };
        let base = run(SchedulingConfig::baseline());
        let nvwa = run(SchedulingConfig::nvwa());
        assert!(nvwa < base, "bit-parallel: nvwa {nvwa} vs baseline {base}");
    }

    #[test]
    fn single_read_workload_works() {
        let works = small_workload(1);
        let r = simulate(&config(), &works);
        assert_eq!(r.reads, 1);
        assert_eq!(r.buffer_switches, 1); // forced drain switch
    }
}
