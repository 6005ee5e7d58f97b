//! The extension side: EU completion, the Coordinator's allocation rounds,
//! the baseline FIFO's head-of-line dispatch, and the occupation of an EU.

use nvwa_telemetry::PID_ACCELERATOR;

use crate::coordinator::allocator::IdleEu;
use crate::interface::{Hit, UnitStatus};
use crate::seeding::ocra::set_bits;

use super::{Event, HitPath, SimState, ALLOC_LATENCY, HIT_INTERVALS};

impl SimState<'_> {
    pub(super) fn on_eu_done(&mut self, eu: usize) {
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

    pub(super) fn on_alloc_done(&mut self) {
        let coordinator_tid = self.coordinator_tid();
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
        let batch = buffer.peek_batch(self.config.alloc_batch_size);
        self.idle_eus.clear();
        self.idle_eus.extend(
            set_bits(self.eu_idle.iter().copied()).map(|unit_idx| IdleEu {
                unit_idx,
                pes: self.eus[unit_idx].pes,
            }),
        );
        let (flags, assignments) = allocator.allocate(batch, &mut self.idle_eus);
        // By value: the round's compaction moves the batch before dispatch.
        self.round_dispatches.clear();
        self.round_dispatches
            .extend((assignments.iter()).map(|a| (a.unit.unit_idx, batch[a.batch_slot])));
        let stats = buffer.complete_round(flags);
        judger.complete();
        self.metrics.inc(self.ids.alloc_rounds, 1);
        self.metrics
            .inc(self.ids.fragmented, stats.unallocated as u64);
        self.metrics
            .observe(self.ids.round_allocated, stats.allocated as u64);
        if stats.allocated == 0 {
            *blocked = true;
        }
        if let Some(rec) = &mut self.trace {
            let started = self.now - ALLOC_LATENCY;
            rec.complete_with_args(
                PID_ACCELERATOR,
                coordinator_tid,
                "alloc round",
                nvwa_telemetry::cycles_to_us(started),
                nvwa_telemetry::cycles_to_us(ALLOC_LATENCY),
                &[
                    ("allocated", stats.allocated as f64),
                    ("unallocated", stats.unallocated as f64),
                ],
            );
        }
        for i in 0..self.round_dispatches.len() {
            let (unit_idx, hit) = self.round_dispatches[i];
            self.dispatch(unit_idx, &hit);
        }
    }

    /// Occupies EU `unit_idx` with `hit` and records the assignment.
    pub(super) fn dispatch(&mut self, unit_idx: usize, hit: &Hit) {
        let eu = self.eus[unit_idx];
        debug_assert!(eu.running.is_none(), "dispatch to a busy EU");
        let done = self.now + self.eu_models[eu.class_idx].task_latency(hit);
        self.events.push(done, Event::EuDone { eu: unit_idx });
        self.set_eu(unit_idx, Some((self.now, hit.hit_len())));
        let interval = HIT_INTERVALS
            .iter()
            .position(|&b| hit.hit_len() as usize <= b)
            .unwrap_or(HIT_INTERVALS.len() - 1);
        self.matrix[interval][eu.class_idx] += 1;
        self.metrics.inc(self.ids.hits_dispatched, 1);
    }

    /// Buffer switch: threshold reached, or forced when the producers are
    /// done (or every active SU is suspended on a full Store Buffer).
    pub(super) fn try_switch(&mut self, draining: bool) -> bool {
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
    pub(super) fn try_trigger(&mut self, draining: bool) -> bool {
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
            self.events.push(self.now + ALLOC_LATENCY, Event::AllocDone);
            true
        } else {
            false
        }
    }

    /// Baseline path: head-of-line dispatch to the lowest idle EU.
    pub(super) fn try_fifo_dispatch(&mut self) -> bool {
        let HitPath::Fifo {
            queue,
            strict_class,
            ..
        } = &mut self.path
        else {
            return false;
        };
        let Some(&hit) = queue.front() else {
            return false;
        };
        let idle = self.eu_idle.iter().copied();
        let unit = if *strict_class {
            // Head-of-line blocking on the hit's own class: the smallest
            // class whose PE count covers the hit length.
            let mut class_pes = self.eu_models.iter().map(|m| m.pes());
            let wanted = (class_pes.clone().filter(|&p| hit.hit_len() <= p).min())
                .unwrap_or_else(|| class_pes.clone().max().expect("EUs exist"));
            let class = class_pes.position(|p| p == wanted).expect("a class has it");
            set_bits(idle.zip(&self.class_masks[class]).map(|(i, m)| i & m)).next()
        } else {
            set_bits(idle).next()
        };
        let Some(unit) = unit else {
            return false;
        };
        queue.pop_front();
        self.dispatch(unit, &hit);
        true
    }
}
