//! The flight recorder: a fixed-capacity ring of recent serving events.
//!
//! When a worker panics or a shed storm hits, cumulative counters say
//! *that* something happened; the flight recorder says *what led up to
//! it* — the last `cap` admission/shed/batch/panic events, dumped to JSON
//! at the moment of the trigger. It is the post-incident half of the
//! observability plane (the `stats` endpoint is the live half).
//!
//! The ring, the count of events ever recorded and the dump bookkeeping
//! sit behind one mutex: `record` pushes at the back and evicts at the
//! front under it, and a scrape or dump reads all of them under one
//! acquisition. So `retained == min(recorded, cap)` holds in every
//! summary and every dump, live or quiescent, and the events come out in
//! sequence order without a sort. One uncontended lock per event is noise
//! next to the metrics mutex the same request already takes.
//!
//! Determinism boundary (see DESIGN.md §13): sequence numbers order
//! events by *lock acquisition*, which under the wall clock depends on
//! thread interleaving. What IS invariant across worker counts is the event
//! *multiset* projected onto scheduling-independent facts — how many
//! admissions, which batch sequence numbers panicked, how many sheds.
//! [`FlightRecorder::dump_json`] therefore embeds a `digest` of exactly
//! those facts, and the testkit pins the digest (not the byte order) at
//! 1/2/8 workers; full-byte determinism is exercised in unit tests where
//! the caller controls the interleaving.

use std::collections::VecDeque;
use std::sync::Mutex;

use nvwa_telemetry::snapshot::FLIGHT_EVENT_KINDS;
use nvwa_telemetry::JsonValue;

use crate::lock;

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

/// What the recorder's one mutex guards.
struct Ring {
    /// The newest `cap` events, oldest first.
    events: VecDeque<FlightEvent>,
    recorded: u64,
    dumps: u64,
    last_dump_reason: Option<String>,
}

/// The fixed-capacity event ring.
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events (`cap` is clamped to
    /// ≥ 1).
    pub fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(cap),
                recorded: 0,
                dumps: 0,
                last_dump_reason: None,
            }),
        }
    }

    /// Ring capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Events ever recorded (including ones the ring has since evicted).
    pub fn recorded(&self) -> u64 {
        lock(&self.ring).recorded
    }

    /// Records one event, evicting the oldest when the ring is full.
    pub fn record(&self, t_us: f64, kind: FlightEventKind, a: u64, b: u64, c: u64) {
        let mut ring = lock(&self.ring);
        let seq = ring.recorded;
        ring.recorded += 1;
        if ring.events.len() == self.cap {
            ring.events.pop_front();
        }
        ring.events.push_back(FlightEvent {
            seq,
            t_us,
            kind,
            a,
            b,
            c,
        });
    }

    /// The retained events, oldest first (increasing sequence number).
    pub fn events(&self) -> Vec<FlightEvent> {
        lock(&self.ring).events.iter().copied().collect()
    }

    /// Per-kind counts over `events` as JSON members, index-aligned with
    /// [`FLIGHT_EVENT_KINDS`].
    fn kind_counts<'a>(
        events: impl Iterator<Item = &'a FlightEvent>,
    ) -> Vec<(&'static str, JsonValue)> {
        let mut counts = [0u64; FlightEventKind::ALL.len()];
        for e in events {
            counts[e.kind as usize] += 1;
        }
        FLIGHT_EVENT_KINDS
            .iter()
            .zip(counts)
            .map(|(kind, n)| (*kind, JsonValue::Num(n as f64)))
            .collect()
    }

    /// The summary section embedded in `stats` responses (the `occupancy`
    /// identity of `Kind::FlightSummary` checks it). Every field is read
    /// under one lock acquisition, so `retained == min(recorded, cap)`
    /// holds even while other threads are recording.
    pub fn summary_json(&self) -> JsonValue {
        let ring = lock(&self.ring);
        let reason = ring.last_dump_reason.clone();
        JsonValue::obj(vec![
            ("cap", JsonValue::Num(self.cap as f64)),
            ("recorded", JsonValue::Num(ring.recorded as f64)),
            ("retained", JsonValue::Num(ring.events.len() as f64)),
            ("dumps", JsonValue::Num(ring.dumps as f64)),
            (
                "last_dump_reason",
                reason.map_or(JsonValue::Null, JsonValue::Str),
            ),
            (
                "by_kind",
                JsonValue::obj(Self::kind_counts(ring.events.iter())),
            ),
        ])
    }

    /// The full dump document (`"kind": "nvwa-flight"`), recording the
    /// trigger `reason`. The embedded `digest` carries the
    /// scheduling-invariant facts — per-kind counts plus the sorted batch
    /// sequence numbers that panicked — which the testkit pins across
    /// 1/2/8 workers.
    pub fn dump_json(&self, reason: &str) -> JsonValue {
        let (events, recorded): (Vec<FlightEvent>, u64) = {
            let mut ring = lock(&self.ring);
            ring.dumps += 1;
            ring.last_dump_reason = Some(reason.to_string());
            (ring.events.iter().copied().collect(), ring.recorded)
        };
        let mut panic_batches: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == FlightEventKind::Panic)
            .map(|e| e.a)
            .collect();
        panic_batches.sort_unstable();
        let mut digest = Self::kind_counts(events.iter());
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
            ("cap", JsonValue::Num(self.cap as f64)),
            ("recorded", JsonValue::Num(recorded as f64)),
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
    use nvwa_telemetry::snapshot::{validate, Kind};
    use std::sync::atomic::{AtomicU64, Ordering};

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
        validate(Kind::FlightSummary, &rec.summary_json()).unwrap();
    }

    #[test]
    fn dump_document_validates_and_counts_kinds() {
        let rec = FlightRecorder::new(16);
        rec.record(1.0, FlightEventKind::Admit, 0, 0, 1);
        rec.record(2.0, FlightEventKind::Admit, 1, 0, 2);
        rec.record(3.0, FlightEventKind::BatchStart, 0, 1, 2);
        rec.record(4.0, FlightEventKind::Panic, 0, 3, 0);
        let dump = rec.dump_json("worker_panic");
        validate(Kind::FlightDump, &dump).unwrap();
        let digest = dump.get("digest").unwrap();
        assert_eq!(digest.get("admit").unwrap().as_num(), Some(2.0));
        assert_eq!(digest.get("panic").unwrap().as_num(), Some(1.0));
        let panics = digest.get("panic_batches").unwrap().as_arr().unwrap();
        assert_eq!(panics.len(), 1);
        // Dump bookkeeping shows up in the next summary.
        let summary = rec.summary_json();
        validate(Kind::FlightSummary, &summary).unwrap();
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
        validate(Kind::FlightDump, &rec.dump_json("explicit")).unwrap();
    }

    #[test]
    fn live_summaries_validate_while_four_threads_record() {
        // A live scrape reads the ring and `recorded` under the lock that
        // `record` writes them under, so `retained == min(recorded, cap)`
        // (the `occupancy` identity) holds in every scrape taken *while*
        // four threads record, and so does the dump's
        // `events.len() == min(recorded, cap)`. The large ring never fills
        // (4 × 384 < 2048); the small one wraps continuously.
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
                    validate(Kind::FlightSummary, &rec.summary_json()).unwrap();
                    validate(Kind::FlightDump, &rec.dump_json("explicit")).unwrap();
                    if writers_done.load(Ordering::SeqCst) == 4 {
                        break;
                    }
                }
            });
            assert_eq!(rec.recorded(), 4 * 384);
            validate(Kind::FlightSummary, &rec.summary_json()).unwrap();
        }
    }
}
