//! The metrics registry: counters, gauges, histograms and series behind
//! integer handles.
//!
//! Metrics are registered once by name (linear scan, startup only) and
//! incremented through [`CounterId`]/[`GaugeId`]/[`HistogramId`] — a `Vec`
//! index plus an add on the hot path, so the registry stays enabled in
//! release builds. Snapshots are emitted sorted by name, and registries
//! merge deterministically by name (counters and gauges add, histograms
//! and series merge pointwise), so parallel sweep aggregation is
//! bit-identical at any thread count as long as the fold order is fixed.

use crate::histogram::Histogram;
use crate::json::JsonValue;
use crate::series::TimeSeries;
use crate::snapshot::SnapshotMeta;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
    series: Vec<(String, TimeSeries)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter named `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Increments a counter by `by`.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Current value of a counter handle.
    pub fn counter_get(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Value of a counter by name, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Registers (or finds) a gauge named `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Sets a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Raises a gauge to `value` if it is below it (a high-water mark,
    /// e.g. `queue_depth_max`). Keeps the running max in the gauge itself
    /// so callers don't need shadow bookkeeping.
    #[inline]
    pub fn set_gauge_max(&mut self, id: GaugeId, value: f64) {
        let slot = &mut self.gauges[id.0].1;
        if value > *slot {
            *slot = value;
        }
    }

    /// Value of a gauge by name, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Registers (or finds) a histogram named `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Records a sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Histogram by name, if registered.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Stores (replacing) a finalized time series under `name`.
    pub fn put_series(&mut self, name: &str, series: TimeSeries) {
        if let Some(slot) = self.series.iter_mut().find(|(n, _)| n == name) {
            slot.1 = series;
        } else {
            self.series.push((name.to_string(), series));
        }
    }

    /// Merges `other` into `self` by metric name: counters and gauges add,
    /// histograms and series merge pointwise. Deterministic — merging the
    /// same registries in the same order always yields the same result,
    /// independent of how they were produced.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.inc(id, *v);
        }
        for (name, v) in &other.gauges {
            let id = self.gauge(name);
            self.gauges[id.0].1 += *v;
        }
        for (name, h) in &other.histograms {
            let id = self.histogram(name);
            self.histograms[id.0].1.merge(h);
        }
        for (name, s) in &other.series {
            if let Some(slot) = self.series.iter_mut().find(|(n, _)| n == name) {
                slot.1.merge(s);
            } else {
                self.series.push((name.clone(), s.clone()));
            }
        }
    }

    /// Builds the versioned snapshot document (see DESIGN.md §8 for the
    /// schema). Metric names are sorted, so the output is deterministic.
    pub fn snapshot(&self, meta: &SnapshotMeta) -> JsonValue {
        let sorted = |names: Vec<(&String, JsonValue)>| {
            let mut entries: Vec<(String, JsonValue)> =
                names.into_iter().map(|(n, v)| (n.clone(), v)).collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            JsonValue::Obj(entries)
        };
        let counters = sorted(
            self.counters
                .iter()
                .map(|(n, v)| (n, JsonValue::Num(*v as f64)))
                .collect(),
        );
        let gauges = sorted(
            self.gauges
                .iter()
                .map(|(n, v)| (n, JsonValue::Num(*v)))
                .collect(),
        );
        let histograms = sorted(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    let buckets = h
                        .buckets()
                        .into_iter()
                        .map(|(edge, count)| {
                            JsonValue::Arr(vec![
                                JsonValue::Num(edge as f64),
                                JsonValue::Num(count as f64),
                            ])
                        })
                        .collect();
                    let opt = |v: Option<u64>| match v {
                        Some(v) => JsonValue::Num(v as f64),
                        None => JsonValue::Null,
                    };
                    (
                        n,
                        JsonValue::obj(vec![
                            ("count", JsonValue::Num(h.count() as f64)),
                            ("sum", JsonValue::Num(h.sum() as f64)),
                            ("min", opt(h.min())),
                            ("max", opt(h.max())),
                            ("p50", opt(h.p50())),
                            ("p90", opt(h.p90())),
                            ("p99", opt(h.p99())),
                            ("buckets", JsonValue::Arr(buckets)),
                        ]),
                    )
                })
                .collect(),
        );
        let series = sorted(
            self.series
                .iter()
                .map(|(n, s)| {
                    (
                        n,
                        JsonValue::obj(vec![
                            ("bucket_width", JsonValue::Num(s.bucket_width() as f64)),
                            (
                                "means",
                                JsonValue::Arr(
                                    s.bucket_means().into_iter().map(JsonValue::Num).collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        JsonValue::obj(vec![
            ("kind", JsonValue::Str("nvwa-metrics".to_string())),
            ("schema_version", JsonValue::Num(1.0)),
            (
                "git_rev",
                match &meta.git_rev {
                    Some(rev) => JsonValue::Str(rev.clone()),
                    None => JsonValue::Null,
                },
            ),
            ("host_threads", JsonValue::Num(meta.host_threads as f64)),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("series", series),
        ])
    }

    /// [`snapshot`](MetricsRegistry::snapshot) serialized pretty.
    pub fn snapshot_json(&self, meta: &SnapshotMeta) -> String {
        self.snapshot(meta).to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_cheap() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("sim.hits");
        let b = reg.counter("sim.rounds");
        assert_eq!(reg.counter("sim.hits"), a); // register-or-get
        reg.inc(a, 2);
        reg.inc(a, 3);
        reg.inc(b, 1);
        assert_eq!(reg.counter_value("sim.hits"), Some(5));
        assert_eq!(reg.counter_value("sim.rounds"), Some(1));
        assert_eq!(reg.counter_value("missing"), None);
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("depth_max");
        reg.set_gauge_max(g, 3.0);
        reg.set_gauge_max(g, 7.0);
        reg.set_gauge_max(g, 5.0);
        assert_eq!(reg.gauge_value("depth_max"), Some(7.0));
    }

    #[test]
    fn merge_adds_counters_and_gauges() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("x");
        a.inc(c, 10);
        let g = a.gauge("u");
        a.set_gauge(g, 1.5);

        let mut b = MetricsRegistry::new();
        let c = b.counter("x");
        b.inc(c, 5);
        let c = b.counter("y");
        b.inc(c, 7);
        let g = b.gauge("u");
        b.set_gauge(g, 2.5);

        a.merge_from(&b);
        assert_eq!(a.counter_value("x"), Some(15));
        assert_eq!(a.counter_value("y"), Some(7));
        assert_eq!(a.gauge_value("u"), Some(4.0));
    }

    #[test]
    fn snapshot_is_sorted_and_parses() {
        let mut reg = MetricsRegistry::new();
        let z = reg.counter("z.last");
        reg.inc(z, 1);
        let a = reg.counter("a.first");
        reg.inc(a, 2);
        let h = reg.histogram("lat");
        reg.observe(h, 100);
        reg.put_series("util", {
            let mut s = TimeSeries::new(10);
            s.add_span(0, 20, 0.5);
            s
        });
        let meta = SnapshotMeta {
            host_threads: 4,
            git_rev: Some("abc123".to_string()),
        };
        let text = reg.snapshot_json(&meta);
        let doc = JsonValue::parse(&text).unwrap();
        let counters = doc.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters[0].0, "a.first");
        assert_eq!(counters[1].0, "z.last");
        assert_eq!(doc.get("schema_version").unwrap().as_num(), Some(1.0));
        let hist = doc.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(hist.get("p50").unwrap().as_num(), Some(100.0));
        let series = doc.get("series").unwrap().get("util").unwrap();
        assert_eq!(series.get("bucket_width").unwrap().as_num(), Some(10.0));
    }

    #[test]
    fn merged_snapshot_is_order_independent_of_source_registration() {
        // Registration order differs; snapshots are sorted, so merging
        // a←b and building the snapshot is stable.
        let mut a = MetricsRegistry::new();
        let i = a.counter("m.two");
        a.inc(i, 2);
        let i = a.counter("m.one");
        a.inc(i, 1);
        let mut b = MetricsRegistry::new();
        let i = b.counter("m.one");
        b.inc(i, 10);
        let i = b.counter("m.two");
        b.inc(i, 20);
        a.merge_from(&b);
        let meta = SnapshotMeta {
            host_threads: 1,
            git_rev: None,
        };
        let doc = a.snapshot(&meta);
        let counters = doc.get("counters").unwrap().as_obj().unwrap();
        assert_eq!(counters[0], ("m.one".to_string(), JsonValue::Num(11.0)));
        assert_eq!(counters[1], ("m.two".to_string(), JsonValue::Num(22.0)));
    }
}
