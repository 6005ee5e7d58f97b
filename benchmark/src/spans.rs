//! The harness's own in-memory span recorder (traced pass only).
//!
//! A span is one call into a layer: name, start, end, the span that caused
//! it and the request it belongs to. Spans are kept in memory and written
//! out when the pass ends. A layer's self time is its spans' duration minus
//! the duration of their child spans.
//!
//! Two kinds of child exist. A *nested* child runs inside its parent's
//! interval (`decode` → `json.parse`). A *replayed* child runs after the
//! parent's clock has stopped: the harness cannot open spans inside
//! `align_codes_fast`, so it times the whole call, then replays each stage
//! through the layer's public function on the same input and records the
//! replays as children of the whole. Both kinds subtract their full duration
//! from the parent's self time, so layers plus self sum to the whole by
//! construction.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls, total and self time of one layer (all spans sharing a name).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    /// May be negative when replayed children cost more than the whole did
    /// (cold caches in the replay); reported as measured, never clamped.
    pub self_ns: i64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans that are still the parent of whatever opens next.
    parents: Vec<SpanId>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            parents: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and starts its clock.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.parents.last().copied();
        self.parents.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        id
    }

    /// Stops the span's clock but keeps it as the parent of the spans that
    /// follow: what follows is a replay of its stages.
    pub fn stop(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Closes the span: nothing opened later is its child.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span (a harness bug).
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.parents.pop(), Some(id), "spans close innermost first");
    }

    /// Times `f` as one span nested under the innermost open span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.begin(name, request);
        let value = f(self);
        self.stop(id);
        self.close(id);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals; self time is total minus the children's durations.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.dur_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += span.dur_ns();
            layer.self_ns += span.dur_ns() as i64 - *children as i64;
        }
        layers
    }

    /// Total nanoseconds of the layer, 0 when it recorded no span.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder from explicit `(name, start, end, parent)` rows.
    fn recorder(rows: &[(&'static str, u64, u64, Option<SpanId>)]) -> Recorder {
        let mut rec = Recorder::new();
        for &(name, start_ns, end_ns, parent) in rows {
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: 0,
            });
        }
        rec
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let rec = recorder(&[
            ("decode", 0, 100, None),
            ("json.parse", 10, 70, Some(0)),
            ("decode", 200, 260, None),
            ("json.parse", 210, 240, Some(2)),
        ]);
        let layers = rec.layers();
        assert_eq!(
            layers["decode"],
            LayerTime {
                calls: 2,
                total_ns: 160,
                self_ns: 70
            }
        );
        assert_eq!(layers["json.parse"].self_ns, 90);
    }

    #[test]
    fn replayed_children_subtract_from_the_whole_and_may_exceed_it() {
        // The whole ran 0..100; its replayed stages ran afterwards.
        let rec = recorder(&[
            ("pipeline", 0, 100, None),
            ("smem", 100, 140, Some(0)),
            ("extend", 140, 175, Some(0)),
        ]);
        let layers = rec.layers();
        assert_eq!(layers["pipeline"].self_ns, 25);
        let sum = layers["smem"].total_ns as i64 + layers["extend"].total_ns as i64;
        assert_eq!(
            sum + layers["pipeline"].self_ns,
            layers["pipeline"].total_ns as i64
        );

        let rec = recorder(&[("pipeline", 0, 50, None), ("smem", 50, 120, Some(0))]);
        assert_eq!(rec.layers()["pipeline"].self_ns, -20);
    }

    #[test]
    fn begin_stop_close_track_parents() {
        let mut rec = Recorder::new();
        let whole = rec.begin("whole", 7);
        rec.stop(whole);
        rec.time("stage", 7, |rec| rec.time("inner", 7, |_| ()));
        rec.close(whole);
        rec.time("next", 8, |_| ());
        let parents: Vec<Option<SpanId>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), None]);
        assert_eq!(rec.spans()[2].request, 7);
        assert!(rec.spans()[1].start_ns >= rec.spans()[0].end_ns);
    }
}
