//! The flight recorder: a fixed-capacity ring of recent serving events.
//!
//! When a worker panics, cumulative counters say *that* something
//! happened; the flight recorder says *what led up to it* — the last
//! `cap` admission/shed/batch/panic events, dumped to JSON at the moment
//! of the trigger. It is the post-incident half of the
//! observability plane (the `stats` endpoint is the live half).
//!
//! The ring has no lock of its own: it lives inside the metrics hub
//! (`metrics.rs`), and the hub's one mutex covers it together with the
//! counters each event moves. So `retained == min(recorded, cap)` holds
//! in every summary and every dump, live or quiescent, and the events
//! come out in sequence order without a sort.
//!
//! Determinism boundary (see DESIGN.md §13): sequence numbers order
//! events by *lock acquisition*, which under the wall clock depends on
//! thread interleaving. What IS invariant across worker counts is the event
//! *multiset* projected onto scheduling-independent facts — how many
//! admissions, which batch sequence numbers panicked, how many sheds.
//! [`FlightRecorder::dump_json`] therefore embeds a `digest` of exactly
//! those facts, and the testkit pins the digest (not the byte order) at
//! 1/2/8 workers; full-byte determinism is exercised in unit tests where
//! the caller controls the order.

use std::collections::VecDeque;

use nvwa_telemetry::snapshot::FLIGHT_EVENT_KINDS;
use nvwa_telemetry::JsonValue;

/// What happened (the wire names live in
/// [`nvwa_telemetry::snapshot::FLIGHT_EVENT_KINDS`], index-aligned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlightEventKind {
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

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlightEvent {
    /// Global record order (unique, dense from 0).
    seq: u64,
    /// Microseconds since the metrics epoch.
    t_us: f64,
    kind: FlightEventKind,
    /// Kind-specific operands (see [`FlightEventKind`]).
    a: u64,
    b: u64,
    c: u64,
}

impl FlightEvent {
    fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("seq", JsonValue::Num(self.seq as f64)),
            ("t_us", JsonValue::Num(self.t_us.max(0.0))),
            (
                "kind",
                JsonValue::Str(FLIGHT_EVENT_KINDS[self.kind as usize].to_string()),
            ),
            ("a", JsonValue::Num(self.a as f64)),
            ("b", JsonValue::Num(self.b as f64)),
            ("c", JsonValue::Num(self.c as f64)),
        ])
    }
}

/// The fixed-capacity event ring and its dump bookkeeping.
pub(crate) struct FlightRecorder {
    cap: usize,
    /// The newest `cap` events, oldest first.
    events: VecDeque<FlightEvent>,
    recorded: u64,
    dumps: u64,
    last_dump_reason: Option<String>,
    /// The most recent dump that could not be written to disk, naming
    /// the file and the error.
    pub(crate) last_dump_error: Option<String>,
}

impl FlightRecorder {
    /// A recorder retaining the last `cap` events (`cap` is clamped to
    /// ≥ 1).
    pub(crate) fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            events: VecDeque::with_capacity(cap),
            recorded: 0,
            dumps: 0,
            last_dump_reason: None,
            last_dump_error: None,
        }
    }

    /// Records one event, evicting the oldest when the ring is full.
    pub(crate) fn record(&mut self, t_us: f64, kind: FlightEventKind, a: u64, b: u64, c: u64) {
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        let seq = self.recorded;
        self.recorded += 1;
        self.events.push_back(FlightEvent {
            seq,
            t_us,
            kind,
            a,
            b,
            c,
        });
    }

    /// Per-kind counts over the ring as JSON members, index-aligned with
    /// [`FLIGHT_EVENT_KINDS`].
    fn kind_counts(&self) -> Vec<(&'static str, JsonValue)> {
        let mut counts = [0u64; FLIGHT_EVENT_KINDS.len()];
        for e in &self.events {
            counts[e.kind as usize] += 1;
        }
        FLIGHT_EVENT_KINDS
            .iter()
            .zip(counts)
            .map(|(kind, n)| (*kind, JsonValue::Num(n as f64)))
            .collect()
    }

    /// The summary section embedded in `stats` responses
    /// (`Kind::FlightSummary` checks it).
    pub(crate) fn summary_json(&self) -> JsonValue {
        let opt = |s: &Option<String>| s.clone().map_or(JsonValue::Null, JsonValue::Str);
        JsonValue::obj(vec![
            ("cap", JsonValue::Num(self.cap as f64)),
            ("recorded", JsonValue::Num(self.recorded as f64)),
            ("retained", JsonValue::Num(self.events.len() as f64)),
            ("dumps", JsonValue::Num(self.dumps as f64)),
            ("last_dump_reason", opt(&self.last_dump_reason)),
            ("last_dump_error", opt(&self.last_dump_error)),
            ("by_kind", JsonValue::obj(self.kind_counts())),
        ])
    }

    /// The full dump document (`"kind": "nvwa-flight"`), recording the
    /// trigger `reason`. The embedded `digest` carries the
    /// scheduling-invariant facts — per-kind counts plus the sorted batch
    /// sequence numbers that panicked — which the testkit pins across
    /// 1/2/8 workers.
    pub(crate) fn dump_json(&mut self, reason: &str) -> JsonValue {
        self.dumps += 1;
        self.last_dump_reason = Some(reason.to_string());
        let mut panic_batches: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.kind == FlightEventKind::Panic)
            .map(|e| e.a)
            .collect();
        panic_batches.sort_unstable();
        let mut digest = self.kind_counts();
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
            ("recorded", JsonValue::Num(self.recorded as f64)),
            (
                "events",
                JsonValue::Arr(self.events.iter().map(|e| e.to_json()).collect()),
            ),
            ("digest", JsonValue::obj(digest)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_telemetry::snapshot::{validate, Kind};

    #[test]
    fn ring_keeps_the_newest_cap_events() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i as f64, FlightEventKind::Admit, i, 0, 1);
        }
        assert_eq!(rec.recorded, 10);
        assert_eq!(
            rec.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        validate(Kind::FlightSummary, &rec.summary_json()).unwrap();
    }

    #[test]
    fn dump_document_validates_and_counts_kinds() {
        let mut rec = FlightRecorder::new(16);
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
        assert_eq!(summary.get("last_dump_error"), Some(&JsonValue::Null));
    }

    #[test]
    fn dump_bytes_are_deterministic_under_a_logical_clock() {
        // Same event sequence → byte-identical dumps (the caller controls
        // time and order here; the cross-thread guarantee is the digest).
        let build = || {
            let mut rec = FlightRecorder::new(8);
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
}
