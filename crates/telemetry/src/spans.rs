//! Per-request span chains: the distributed-style tracing layer.
//!
//! A request admitted by the serve path is followed through three stages —
//! queue wait, alignment, response write — and leaves
//! behind a [`RequestSpans`] chain. Chains are built with
//! [`RequestSpans::chain`] from one monotonic timestamp sequence, so two
//! properties hold **by construction**, not by measurement:
//!
//! 1. spans are contiguous and non-overlapping (each starts where the
//!    previous ended), and
//! 2. the stage durations sum exactly (integer nanoseconds) to the
//!    end-to-end latency.
//!
//! The conformance suite pins exactly-once accounting: every admitted
//! request produces exactly one chain, every chain passes
//! [`RequestSpans::check`].
//!
//! [`SpanLog`] is the bounded collection side: a fixed-capacity log that
//! keeps the first `cap` chains and counts the rest as dropped, so a
//! long soak cannot OOM the server while short conformance runs see
//! every chain.

use crate::json::JsonValue;

/// The serve-path stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Queue wait: admitted → taken by a worker, in its batch.
    Queue,
    /// Alignment: taken → batch execution done (left out of the chain of
    /// a request that expired while queued and never aligns).
    Align,
    /// Response write: execution done → response frame handed to the
    /// socket.
    Write,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Queue, Stage::Align, Stage::Write];

    /// Wire name (also the Chrome-trace span name prefix).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Align => "align",
            Stage::Write => "write",
        }
    }

    /// Inverse of [`name`](Stage::name).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Position in the pipeline order.
    fn rank(&self) -> usize {
        *self as usize
    }
}

/// One stage of one request: `[start_ns, start_ns + dur_ns)` relative to
/// the process telemetry epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage.
    pub stage: Stage,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Terminal outcome of a request (mirrors the wire `status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Aligned and answered.
    Ok,
    /// Long-read mode: fully processed, but no chain placed the read;
    /// answered with `unmapped`. A completed request, not a rejection.
    Unmapped,
    /// Expired at batch formation; answered with `deadline`.
    Deadline,
    /// Answered with `error` (worker panic path).
    Error,
}

impl Outcome {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Unmapped => "unmapped",
            Outcome::Deadline => "deadline",
            Outcome::Error => "error",
        }
    }

    /// Inverse of [`name`](Outcome::name).
    pub fn from_name(name: &str) -> Option<Outcome> {
        match name {
            "ok" => Some(Outcome::Ok),
            "unmapped" => Some(Outcome::Unmapped),
            "deadline" => Some(Outcome::Deadline),
            "error" => Some(Outcome::Error),
            _ => None,
        }
    }
}

/// The complete span chain of one admitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpans {
    /// Trace id minted at admission (unique per admitted request).
    pub trace_id: u64,
    /// Connection the request arrived on.
    pub conn: u64,
    /// Caller-assigned read id (echoed in the response).
    pub read_id: u64,
    /// Length bin the batcher placed the read in.
    pub bin: usize,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Admission time, nanoseconds since the telemetry epoch.
    pub t0_ns: u64,
    /// Contiguous stage spans starting at `t0_ns`.
    pub spans: Vec<StageSpan>,
}

impl RequestSpans {
    /// Builds a chain from per-stage durations. Starts are cumulative
    /// from `t0_ns`, which makes the chain contiguous and its total equal
    /// to the sum of durations by construction.
    pub fn chain(
        trace_id: u64,
        conn: u64,
        read_id: u64,
        bin: usize,
        outcome: Outcome,
        t0_ns: u64,
        stages: &[(Stage, u64)],
    ) -> RequestSpans {
        let mut at = t0_ns;
        let spans = stages
            .iter()
            .map(|&(stage, dur_ns)| {
                let span = StageSpan {
                    stage,
                    start_ns: at,
                    dur_ns,
                };
                at += dur_ns;
                span
            })
            .collect();
        RequestSpans {
            trace_id,
            conn,
            read_id,
            bin,
            outcome,
            t0_ns,
            spans,
        }
    }

    /// End-to-end latency: the exact sum of stage durations.
    pub fn e2e_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_ns).sum()
    }

    /// Checks the chain invariants: non-empty, first span starts at
    /// `t0_ns`, spans contiguous (each starts where the previous ended),
    /// stages strictly in pipeline order, and — implied by contiguity —
    /// durations summing to the end-to-end latency. Returns a description
    /// of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let id = self.trace_id;
        let first = self
            .spans
            .first()
            .ok_or_else(|| format!("trace {id}: empty span chain"))?;
        if first.start_ns != self.t0_ns {
            return Err(format!(
                "trace {id}: first span starts at {} != admission {}",
                first.start_ns, self.t0_ns
            ));
        }
        for pair in self.spans.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if b.start_ns != a.start_ns + a.dur_ns {
                return Err(format!(
                    "trace {id}: {} starts at {} but {} ended at {}",
                    b.stage.name(),
                    b.start_ns,
                    a.stage.name(),
                    a.start_ns + a.dur_ns
                ));
            }
            if b.stage.rank() <= a.stage.rank() {
                return Err(format!(
                    "trace {id}: stage {} after {} breaks pipeline order",
                    b.stage.name(),
                    a.stage.name()
                ));
            }
        }
        Ok(())
    }

    /// The JSON document for one chain.
    pub fn to_json(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::obj(vec![
                    ("stage", JsonValue::Str(s.stage.name().to_string())),
                    ("start_ns", JsonValue::Num(s.start_ns as f64)),
                    ("dur_ns", JsonValue::Num(s.dur_ns as f64)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("trace_id", JsonValue::Num(self.trace_id as f64)),
            ("conn", JsonValue::Num(self.conn as f64)),
            ("read_id", JsonValue::Num(self.read_id as f64)),
            ("bin", JsonValue::Num(self.bin as f64)),
            ("outcome", JsonValue::Str(self.outcome.name().to_string())),
            ("t0_ns", JsonValue::Num(self.t0_ns as f64)),
            ("e2e_ns", JsonValue::Num(self.e2e_ns() as f64)),
            ("spans", JsonValue::Arr(spans)),
        ])
    }

    /// Parses a chain back from its JSON document (used by the
    /// integration test to audit a dumped span log).
    pub fn from_json(v: &JsonValue) -> Result<RequestSpans, String> {
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_num)
                .map(|n| n as u64)
                .ok_or_else(|| format!("span chain missing numeric '{key}'"))
        };
        let outcome = v
            .get("outcome")
            .and_then(JsonValue::as_str)
            .and_then(Outcome::from_name)
            .ok_or("span chain missing valid 'outcome'")?;
        let spans = v
            .get("spans")
            .and_then(JsonValue::as_arr)
            .ok_or("span chain missing 'spans' array")?
            .iter()
            .map(|s| {
                let stage = s
                    .get("stage")
                    .and_then(JsonValue::as_str)
                    .and_then(Stage::from_name)
                    .ok_or("span missing valid 'stage'")?;
                let field = |key: &str| -> Result<u64, String> {
                    s.get(key)
                        .and_then(JsonValue::as_num)
                        .map(|n| n as u64)
                        .ok_or_else(|| format!("span missing numeric '{key}'"))
                };
                Ok(StageSpan {
                    stage,
                    start_ns: field("start_ns")?,
                    dur_ns: field("dur_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let chain = RequestSpans {
            trace_id: num("trace_id")?,
            conn: num("conn")?,
            read_id: num("read_id")?,
            bin: num("bin")? as usize,
            outcome,
            t0_ns: num("t0_ns")?,
            spans,
        };
        let e2e = num("e2e_ns")?;
        if e2e != chain.e2e_ns() {
            return Err(format!(
                "trace {}: e2e_ns {} != span-duration sum {}",
                chain.trace_id,
                e2e,
                chain.e2e_ns()
            ));
        }
        Ok(chain)
    }
}

/// A bounded in-memory log of span chains: keeps the first `cap` chains,
/// counts overflow as dropped.
#[derive(Debug)]
pub struct SpanLog {
    cap: usize,
    chains: Vec<RequestSpans>,
    dropped: u64,
}

impl SpanLog {
    /// An empty log holding at most `cap` chains.
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            cap,
            chains: Vec::new(),
            dropped: 0,
        }
    }

    /// Records one finished request's chain.
    pub fn push(&mut self, chain: RequestSpans) {
        if self.chains.len() < self.cap {
            self.chains.push(chain);
        } else {
            self.dropped += 1;
        }
    }

    /// Chains recorded so far.
    pub fn chains(&self) -> &[RequestSpans] {
        &self.chains
    }

    /// Chains rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The full span-log document (`kind: "nvwa-spanlog"`), chains sorted
    /// by trace id so the bytes don't depend on completion order.
    pub fn to_json(&self) -> JsonValue {
        let mut sorted: Vec<&RequestSpans> = self.chains.iter().collect();
        sorted.sort_by_key(|c| c.trace_id);
        JsonValue::obj(vec![
            ("kind", JsonValue::Str("nvwa-spanlog".to_string())),
            ("schema_version", JsonValue::Num(1.0)),
            ("cap", JsonValue::Num(self.cap as f64)),
            ("dropped", JsonValue::Num(self.dropped as f64)),
            (
                "chains",
                JsonValue::Arr(sorted.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_chain(id: u64) -> RequestSpans {
        RequestSpans::chain(
            id,
            3,
            40 + id,
            1,
            Outcome::Ok,
            1_000,
            &[
                (Stage::Queue, 750),
                (Stage::Align, 2_000),
                (Stage::Write, 30),
            ],
        )
    }

    #[test]
    fn chain_is_contiguous_and_sums_exactly() {
        let c = ok_chain(7);
        c.check().unwrap();
        assert_eq!(c.e2e_ns(), 2_780);
        assert_eq!(c.spans[2].start_ns + c.spans[2].dur_ns, 1_000 + 2_780);
    }

    #[test]
    fn deadline_chain_skips_align() {
        // Expired requests never reach a worker's align stage; the chain
        // is queue → write and still checks out.
        let c = RequestSpans::chain(
            9,
            0,
            0,
            2,
            Outcome::Deadline,
            0,
            &[(Stage::Queue, 15_000), (Stage::Write, 40)],
        );
        c.check().unwrap();
        assert_eq!(c.e2e_ns(), 15_040);
    }

    #[test]
    fn check_rejects_gaps_overlaps_and_disorder() {
        let mut gap = ok_chain(1);
        gap.spans[1].start_ns += 1;
        assert!(gap.check().unwrap_err().contains("align starts at"));

        let mut overlap = ok_chain(2);
        overlap.spans[2].start_ns -= 1;
        assert!(overlap.check().is_err());

        let mut disorder = ok_chain(3);
        disorder.spans.swap(1, 2);
        assert!(disorder.check().is_err());

        let mut bad_start = ok_chain(4);
        bad_start.t0_ns += 5;
        assert!(bad_start.check().unwrap_err().contains("first span"));

        let empty = RequestSpans::chain(5, 0, 0, 0, Outcome::Error, 0, &[]);
        assert!(empty.check().unwrap_err().contains("empty"));
    }

    #[test]
    fn json_round_trip() {
        let c = ok_chain(11);
        let parsed = RequestSpans::from_json(&c.to_json()).unwrap();
        assert_eq!(parsed, c);
        // A lying e2e_ns is caught.
        let mut doc = c.to_json();
        if let JsonValue::Obj(entries) = &mut doc {
            for (k, v) in entries.iter_mut() {
                if k == "e2e_ns" {
                    *v = JsonValue::Num(1.0);
                }
            }
        }
        assert!(RequestSpans::from_json(&doc)
            .unwrap_err()
            .contains("e2e_ns"));
    }

    #[test]
    fn span_log_caps_and_sorts() {
        let mut log = SpanLog::new(2);
        log.push(ok_chain(5));
        log.push(ok_chain(1));
        log.push(ok_chain(9));
        assert_eq!(log.chains().len(), 2);
        assert_eq!(log.dropped(), 1);
        let doc = log.to_json();
        let chains = doc.get("chains").and_then(JsonValue::as_arr).unwrap();
        let ids: Vec<u64> = chains
            .iter()
            .map(|c| c.get("trace_id").and_then(JsonValue::as_num).unwrap() as u64)
            .collect();
        assert_eq!(ids, vec![1, 5]);
        crate::snapshot::validate(crate::snapshot::Kind::SpanLog, &doc).unwrap();
    }
}
