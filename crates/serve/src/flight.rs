//! The flight recorder: a fixed-capacity ring of recent serving events.
//!
//! When a worker panics or a shed storm hits, cumulative counters say
//! *that* something happened; the flight recorder says *what led up to
//! it* — the last `cap` admission/shed/batch/panic events, dumped to JSON
//! at the moment of the trigger. It is the post-incident half of the
//! observability plane (the `stats` endpoint is the live half).
//!
//! Recording is designed for the hot path: a slot is claimed with one
//! atomic `fetch_add` (lock-free, totally ordered sequence numbers) and
//! written under a *per-slot* mutex that only contends when the ring has
//! wrapped all the way around to a slot another thread is still writing —
//! with a ring of hundreds of slots and per-request events, effectively
//! never. A stale claim that loses the race to a wrapped newer one is
//! discarded by comparing sequence numbers, so the ring always converges
//! to the newest event per slot.
//!
//! Determinism boundary (see DESIGN.md §13): sequence numbers order
//! events by *claim time*, which under the wall clock depends on thread
//! interleaving. What IS invariant across worker counts is the event
//! *multiset* projected onto scheduling-independent facts — how many
//! admissions, which batch sequence numbers panicked, how many sheds.
//! [`FlightRecorder::dump_json`] therefore embeds a `digest` of exactly
//! those facts, and the testkit pins the digest (not the byte order) at
//! 1/2/8 workers; full-byte determinism is exercised in unit tests where
//! the caller controls the interleaving.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nvwa_telemetry::snapshot::FLIGHT_EVENT_KINDS;
use nvwa_telemetry::JsonValue;

/// What happened (the wire names live in
/// [`nvwa_telemetry::snapshot::FLIGHT_EVENT_KINDS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// Request admitted: `a` = trace id, `b` = connection, `c` = queue
    /// depth after admission.
    Admit,
    /// Request shed: `a` = request id, `b` = connection, `c` = 0.
    Shed,
    /// Deadlines expired at batch formation: `a` = count, `b` = bin.
    Deadline,
    /// Batch execution started: `a` = batch seq, `b` = bin, `c` = size.
    BatchStart,
    /// Batch execution finished: `a` = batch seq, `b` = bin, `c` = size.
    BatchDone,
    /// Batch execution panicked: `a` = batch seq, `b` = worker.
    Panic,
    /// Request refused by a tenant's admission quota: `a` = request id,
    /// `b` = connection, `c` = the quota limit.
    Quota,
}

impl FlightEventKind {
    /// All kinds, index-aligned with [`FLIGHT_EVENT_KINDS`].
    pub const ALL: [FlightEventKind; 7] = [
        FlightEventKind::Admit,
        FlightEventKind::Shed,
        FlightEventKind::Deadline,
        FlightEventKind::BatchStart,
        FlightEventKind::BatchDone,
        FlightEventKind::Panic,
        FlightEventKind::Quota,
    ];

    /// Wire name.
    pub fn name(&self) -> &'static str {
        FLIGHT_EVENT_KINDS[*self as usize]
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Global claim order (unique, dense from 0).
    pub seq: u64,
    /// Microseconds since the metrics epoch.
    pub t_us: f64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Kind-specific operand (see [`FlightEventKind`]).
    pub a: u64,
    /// Kind-specific operand.
    pub b: u64,
    /// Kind-specific operand.
    pub c: u64,
}

impl FlightEvent {
    fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("seq", JsonValue::Num(self.seq as f64)),
            ("t_us", JsonValue::Num(self.t_us.max(0.0))),
            ("kind", JsonValue::Str(self.kind.name().to_string())),
            ("a", JsonValue::Num(self.a as f64)),
            ("b", JsonValue::Num(self.b as f64)),
            ("c", JsonValue::Num(self.c as f64)),
        ])
    }
}

/// The fixed-capacity event ring.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    next_seq: AtomicU64,
    dumps: AtomicU64,
    last_dump_reason: Mutex<Option<String>>,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events (`cap` is clamped to
    /// ≥ 1).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            slots: (0..cap.max(1)).map(|_| Mutex::new(None)).collect(),
            next_seq: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            last_dump_reason: Mutex::new(None),
        }
    }

    /// Ring capacity.
    pub fn cap(&self) -> usize {
        self.slots.len()
    }

    /// Events ever recorded (including ones the ring has since evicted).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Records one event. Lock-free slot claim; the per-slot write only
    /// keeps the newest sequence number on a full wraparound race.
    pub fn record(&self, t_us: f64, kind: FlightEventKind, a: u64, b: u64, c: u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock().unwrap();
        if guard.is_none_or(|prev| prev.seq < seq) {
            *guard = Some(FlightEvent {
                seq,
                t_us,
                kind,
                a,
                b,
                c,
            });
        }
    }

    /// The retained events, oldest first (sorted by sequence number).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|s| *s.lock().unwrap())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Per-kind counts over `events`, index-aligned with
    /// [`FLIGHT_EVENT_KINDS`].
    fn kind_counts(events: &[FlightEvent]) -> [u64; FlightEventKind::ALL.len()] {
        let mut counts = [0u64; FlightEventKind::ALL.len()];
        for e in events {
            counts[e.kind as usize] += 1;
        }
        counts
    }

    /// The summary section embedded in `stats` responses
    /// (`validate_flight_summary` checks it). The events are collected
    /// *before* `recorded` is read, so `retained ≤ min(recorded, cap)`
    /// holds even while other threads are recording.
    pub fn summary_json(&self) -> JsonValue {
        let events = self.events();
        let counts = Self::kind_counts(&events);
        let by_kind = FLIGHT_EVENT_KINDS
            .iter()
            .zip(counts)
            .map(|(kind, n)| (*kind, JsonValue::Num(n as f64)))
            .collect();
        JsonValue::obj(vec![
            ("cap", JsonValue::Num(self.cap() as f64)),
            ("recorded", JsonValue::Num(self.recorded() as f64)),
            ("retained", JsonValue::Num(events.len() as f64)),
            (
                "dumps",
                JsonValue::Num(self.dumps.load(Ordering::Relaxed) as f64),
            ),
            (
                "last_dump_reason",
                match self.last_dump_reason.lock().unwrap().as_ref() {
                    Some(reason) => JsonValue::Str(reason.clone()),
                    None => JsonValue::Null,
                },
            ),
            ("by_kind", JsonValue::obj(by_kind)),
        ])
    }

    /// The full dump document (`"kind": "nvwa-flight"`), recording the
    /// trigger `reason`. The embedded `digest` carries the
    /// scheduling-invariant facts — per-kind counts plus the sorted batch
    /// sequence numbers that panicked — which the testkit pins across
    /// 1/2/8 workers.
    pub fn dump_json(&self, reason: &str) -> JsonValue {
        self.dumps.fetch_add(1, Ordering::Relaxed);
        *self.last_dump_reason.lock().unwrap() = Some(reason.to_string());
        let events = self.events();
        let counts = Self::kind_counts(&events);
        let mut panic_batches: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == FlightEventKind::Panic)
            .map(|e| e.a)
            .collect();
        panic_batches.sort_unstable();
        let mut digest: Vec<(&str, JsonValue)> = FLIGHT_EVENT_KINDS
            .iter()
            .zip(counts)
            .map(|(kind, n)| (*kind, JsonValue::Num(n as f64)))
            .collect();
        digest.push((
            "panic_batches",
            JsonValue::Arr(
                panic_batches
                    .into_iter()
                    .map(|s| JsonValue::Num(s as f64))
                    .collect(),
            ),
        ));
        JsonValue::obj(vec![
            ("kind", JsonValue::Str("nvwa-flight".to_string())),
            ("schema_version", JsonValue::Num(1.0)),
            ("reason", JsonValue::Str(reason.to_string())),
            ("cap", JsonValue::Num(self.cap() as f64)),
            ("recorded", JsonValue::Num(self.recorded() as f64)),
            (
                "events",
                JsonValue::Arr(events.into_iter().map(FlightEvent::to_json).collect()),
            ),
            ("digest", JsonValue::obj(digest)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_telemetry::snapshot::{
        validate_flight_dump, validate_flight_summary, validate_flight_summary_quiescent,
    };

    #[test]
    fn ring_keeps_the_newest_cap_events() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i as f64, FlightEventKind::Admit, i, 0, 1);
        }
        let events = rec.events();
        assert_eq!(rec.recorded(), 10);
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        validate_flight_summary_quiescent(&rec.summary_json()).unwrap();
    }

    #[test]
    fn dump_document_validates_and_counts_kinds() {
        let rec = FlightRecorder::new(16);
        rec.record(1.0, FlightEventKind::Admit, 0, 0, 1);
        rec.record(2.0, FlightEventKind::Admit, 1, 0, 2);
        rec.record(3.0, FlightEventKind::BatchStart, 0, 1, 2);
        rec.record(4.0, FlightEventKind::Panic, 0, 3, 0);
        let dump = rec.dump_json("worker_panic");
        validate_flight_dump(&dump).unwrap();
        let digest = dump.get("digest").unwrap();
        assert_eq!(digest.get("admit").unwrap().as_num(), Some(2.0));
        assert_eq!(digest.get("panic").unwrap().as_num(), Some(1.0));
        let panics = digest.get("panic_batches").unwrap().as_arr().unwrap();
        assert_eq!(panics.len(), 1);
        // Dump bookkeeping shows up in the next summary.
        let summary = rec.summary_json();
        validate_flight_summary_quiescent(&summary).unwrap();
        assert_eq!(summary.get("dumps").unwrap().as_num(), Some(1.0));
        assert_eq!(
            summary.get("last_dump_reason").unwrap().as_str(),
            Some("worker_panic")
        );
    }

    #[test]
    fn dump_bytes_are_deterministic_under_a_logical_clock() {
        // Same event sequence → byte-identical dumps (the caller controls
        // time and order here; the cross-thread guarantee is the digest).
        let build = || {
            let rec = FlightRecorder::new(8);
            for i in 0..12u64 {
                let kind = if i % 3 == 0 {
                    FlightEventKind::Admit
                } else {
                    FlightEventKind::BatchDone
                };
                rec.record(i as f64 * 10.0, kind, i, i % 2, 1);
            }
            rec.dump_json("explicit").to_string_compact()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn concurrent_recording_retains_a_full_ring() {
        let rec = std::sync::Arc::new(FlightRecorder::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = std::sync::Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        rec.record(0.0, FlightEventKind::Admit, t * 1000 + i, t, 0);
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 400);
        let events = rec.events();
        assert_eq!(events.len(), 64);
        // Sequence numbers are unique and the ring holds the newest ones.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert!(seqs.iter().all(|&s| s >= 400 - 64));
        validate_flight_dump(&rec.dump_json("explicit")).unwrap();
    }

    #[test]
    fn live_summaries_validate_while_four_threads_record() {
        // A live scrape scans the ring while `record` runs: a record that
        // lands behind the scan (or sits between claiming its sequence
        // number and writing its slot) is counted in `recorded` but not
        // retained. The large ring never fills (4 × 384 < 2048), so every
        // missed record shows as `retained < recorded`; the small one
        // wraps continuously.
        for cap in [2048usize, 64].repeat(32) {
            let rec = FlightRecorder::new(cap);
            let writers_done = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let (rec, writers_done) = (&rec, &writers_done);
                    scope.spawn(move || {
                        for i in 0..384u64 {
                            rec.record(0.0, FlightEventKind::ALL[(i % 7) as usize], i, t, 0);
                        }
                        writers_done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                loop {
                    validate_flight_summary(&rec.summary_json()).unwrap();
                    if writers_done.load(Ordering::SeqCst) == 4 {
                        break;
                    }
                }
            });
            assert_eq!(rec.recorded(), 4 * 384);
            validate_flight_summary_quiescent(&rec.summary_json()).unwrap();
        }
    }
}
