//! The seeding side: refilling idle SUs, SU completion, and the push of a
//! read's hits toward the extension side (suspending the SU when refused).

use nvwa_sim::Cycle;
use nvwa_telemetry::{StallCause, PID_ACCELERATOR};

use crate::interface::UnitStatus;
use crate::seeding::ocra::set_bits;

use super::{Event, HitPath, SimState, SuState};

impl SimState<'_> {
    /// Refills idle SUs with new reads via the active read scheduler.
    pub(super) fn schedule_reads(&mut self) {
        let remaining = self.works.len() as u64 - self.next_read;
        if remaining == 0 || self.su_count(UnitStatus::Idle) == 0 {
            return;
        }
        // A suspended SU is not schedulable: its idle bit is clear. `g` is
        // the read offset before this call.
        let (idle, g) = (&self.su_idle, self.next_read);
        self.grants.clear();
        if self.config.scheduling.ocra {
            self.grants.extend(self.ocra.allocate(idle, g, remaining));
        } else {
            self.grants.extend(self.batch.allocate(idle, g, remaining));
        }
        self.next_read += self.grants.len() as u64;
        for i in 0..self.grants.len() {
            let (su, read_idx) = self.grants[i];
            let read = read_idx as usize;
            let work = &self.works[read];
            // One cycle for the allocator itself, then the read load.
            let load = self.read_spm.load_latency(read_idx, g);
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

    pub(super) fn on_su_done(&mut self, su: usize) {
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
    pub(super) fn finish_or_stall(
        &mut self,
        su: usize,
        read: usize,
        mut next: usize,
        since: Option<Cycle>,
    ) {
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

    /// Resumes suspended SUs whose buffer space opened up, in index order
    /// (the first to push wins the freed space): each step takes the lowest
    /// bit of the `Stop` word, since every SU before it has resumed and no
    /// other SU becomes suspended. An SU that stays suspended was refused a
    /// push: the buffer is full, and the walk ends there.
    pub(super) fn resume_stalled(&mut self) -> bool {
        let mut progressed = false;
        loop {
            let Some(su) = set_bits(self.su_stop.iter().copied()).next() else {
                break;
            };
            let SuState::Stop { read, next, since } = self.sus[su] else {
                unreachable!("the Stop word tracks the suspended SUs");
            };
            self.finish_or_stall(su, read, next, Some(since));
            if matches!(self.sus[su], SuState::Stop { .. }) {
                break;
            }
            progressed = true;
        }
        progressed
    }
}
