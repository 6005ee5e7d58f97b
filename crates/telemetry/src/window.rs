//! Windowed aggregation: rolling histograms and rate counters over a
//! ring of fixed-width time steps.
//!
//! Cumulative counters answer "what happened since boot"; the serving
//! layer needs "what is happening *right now*". A [`RollingHistogram`] /
//! [`RollingCounter`] keeps the last `window / step` step-buckets in a
//! ring; samples land in the bucket of their timestamp, buckets older than
//! the window are cleared lazily as time advances, and a view merges the
//! live buckets.
//!
//! Like the batcher, everything here is a pure state machine over
//! **explicit timestamps** (`u64` ticks — microseconds on the wall clock,
//! cycles under the sim clock): nothing reads a clock, so the same sample
//! sequence always produces the same state.
//!
//! [`SloWindow`] packages the serve-path signal set — per-length-bin
//! latency histograms plus admitted/shed/deadline rate counters — and
//! exports it as a [`SloView`]: the live document the `stats` endpoint
//! returns.

use crate::histogram::Histogram;
use crate::json::JsonValue;

/// Window geometry in ticks. `window` must be a positive multiple of
/// `step`; the ring holds `window / step` buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Total lookback covered by a view.
    pub window: u64,
    /// Width of one ring bucket.
    pub step: u64,
}

impl WindowConfig {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics unless `step > 0` and `window` is a positive multiple of
    /// `step`.
    pub fn new(window: u64, step: u64) -> WindowConfig {
        assert!(step > 0, "window step must be > 0");
        assert!(
            window > 0 && window.is_multiple_of(step),
            "window ({window}) must be a positive multiple of step ({step})"
        );
        WindowConfig { window, step }
    }

    /// Ring length.
    pub fn slots(&self) -> usize {
        (self.window / self.step) as usize
    }
}

impl Default for WindowConfig {
    /// One second of microsecond ticks in ten 100 ms buckets.
    fn default() -> WindowConfig {
        WindowConfig::new(1_000_000, 100_000)
    }
}

/// Shared ring mechanics: absolute step index of the newest live bucket
/// plus lazy clearing when time advances. `latest` starts at 0, so bucket
/// 0 is live from construction (an empty window is just all-empty
/// buckets).
fn advance<T: Default>(slots: &mut [T], latest: &mut u64, to: u64) {
    if to <= *latest {
        return;
    }
    let n = slots.len() as u64;
    let clear = (to - *latest).min(n);
    for s in (to + 1 - clear)..=to {
        slots[(s % n) as usize] = T::default();
    }
    *latest = to;
}

/// Live absolute step range `[first, latest]` for a ring of `n` buckets.
fn live_range(latest: u64, n: u64) -> std::ops::RangeInclusive<u64> {
    latest.saturating_sub(n - 1)..=latest
}

/// A histogram over the trailing window: a ring of per-step
/// [`Histogram`]s merged on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct RollingHistogram {
    config: WindowConfig,
    slots: Vec<Histogram>,
    latest: u64,
    dropped_late: u64,
}

impl RollingHistogram {
    /// An empty rolling histogram.
    pub fn new(config: WindowConfig) -> RollingHistogram {
        RollingHistogram {
            config,
            slots: vec![Histogram::new(); config.slots()],
            latest: 0,
            dropped_late: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Records `value` at time `t`. Samples older than the window (time
    /// already advanced past them) are counted in
    /// [`dropped_late`](RollingHistogram::dropped_late), not recorded.
    pub fn observe(&mut self, t: u64, value: u64) {
        let slot = t / self.config.step;
        let n = self.slots.len() as u64;
        if slot > self.latest {
            advance(&mut self.slots, &mut self.latest, slot);
        } else if !live_range(self.latest, n).contains(&slot) {
            self.dropped_late += 1;
            return;
        }
        self.slots[(slot % n) as usize].observe(value);
    }

    /// Samples rejected for arriving after their bucket left the window.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// The merged histogram of the window ending at `now` (advances the
    /// ring, clearing buckets that fell out).
    pub fn view(&mut self, now: u64) -> Histogram {
        advance(&mut self.slots, &mut self.latest, now / self.config.step);
        let n = self.slots.len() as u64;
        let mut merged = Histogram::new();
        for s in live_range(self.latest, n) {
            merged.merge(&self.slots[(s % n) as usize]);
        }
        merged
    }
}

/// A counter over the trailing window: a ring of per-step counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingCounter {
    config: WindowConfig,
    slots: Vec<u64>,
    latest: u64,
    dropped_late: u64,
}

impl RollingCounter {
    /// An empty rolling counter.
    pub fn new(config: WindowConfig) -> RollingCounter {
        RollingCounter {
            config,
            slots: vec![0; config.slots()],
            latest: 0,
            dropped_late: 0,
        }
    }

    /// Adds `by` at time `t` (late increments are dropped and counted).
    pub fn inc(&mut self, t: u64, by: u64) {
        let slot = t / self.config.step;
        let n = self.slots.len() as u64;
        if slot > self.latest {
            advance(&mut self.slots, &mut self.latest, slot);
        } else if !live_range(self.latest, n).contains(&slot) {
            self.dropped_late += by;
            return;
        }
        self.slots[(slot % n) as usize] += by;
    }

    /// Increments rejected for arriving after their bucket left the
    /// window.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Sum over the window ending at `now` (advances the ring).
    pub fn sum(&mut self, now: u64) -> u64 {
        advance(&mut self.slots, &mut self.latest, now / self.config.step);
        let n = self.slots.len() as u64;
        live_range(self.latest, n)
            .map(|s| self.slots[(s % n) as usize])
            .sum()
    }
}

/// The serve-path windowed signal set: per-length-bin latency histograms
/// plus admitted/shed/deadline-miss/completed rate counters and an
/// instantaneous queue-depth gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindow {
    config: WindowConfig,
    per_bin: Vec<RollingHistogram>,
    admitted: RollingCounter,
    shed: RollingCounter,
    deadline_missed: RollingCounter,
    completed: RollingCounter,
    queue_depth: f64,
}

impl SloWindow {
    /// An empty window tracking `bins` length bins.
    pub fn new(config: WindowConfig, bins: usize) -> SloWindow {
        SloWindow {
            config,
            per_bin: vec![RollingHistogram::new(config); bins.max(1)],
            admitted: RollingCounter::new(config),
            shed: RollingCounter::new(config),
            deadline_missed: RollingCounter::new(config),
            completed: RollingCounter::new(config),
            queue_depth: 0.0,
        }
    }

    /// One request admitted at `t`; `depth` is the queue depth just after.
    pub fn record_admitted(&mut self, t: u64, depth: usize) {
        self.admitted.inc(t, 1);
        self.queue_depth = depth as f64;
    }

    /// One request shed at `t`.
    pub fn record_shed(&mut self, t: u64) {
        self.shed.inc(t, 1);
    }

    /// Shed count over the window ending at `t` (the shed-storm trigger).
    pub fn shed_in_window(&mut self, t: u64) -> u64 {
        self.shed.sum(t)
    }

    /// `n` deadlines missed at `t`.
    pub fn record_deadline_missed(&mut self, t: u64, n: u64) {
        self.deadline_missed.inc(t, n);
    }

    /// One request completed `ok` at `t` in length bin `bin` with the
    /// given end-to-end latency (same tick unit as the window).
    pub fn record_completed(&mut self, t: u64, bin: usize, latency: u64) {
        self.completed.inc(t, 1);
        let bin = bin.min(self.per_bin.len() - 1);
        self.per_bin[bin].observe(t, latency);
    }

    /// Updates the instantaneous queue-depth gauge.
    pub fn set_queue_depth(&mut self, depth: usize) {
        self.queue_depth = depth as f64;
    }

    /// The view of the window ending at `now`.
    pub fn view(&mut self, now: u64) -> SloView {
        let per_bin = self
            .per_bin
            .iter_mut()
            .enumerate()
            .map(|(bin, roll)| {
                let h = roll.view(now);
                BinSlo {
                    bin,
                    count: h.count(),
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                }
            })
            .collect();
        let admitted = self.admitted.sum(now);
        let shed = self.shed.sum(now);
        let deadline_missed = self.deadline_missed.sum(now);
        let completed = self.completed.sum(now);
        let offered = admitted + shed;
        let rate = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        SloView {
            now,
            window: self.config.window,
            step: self.config.step,
            per_bin,
            queue_depth: self.queue_depth,
            admitted,
            shed,
            deadline_missed,
            completed,
            shed_rate: rate(shed, offered),
            deadline_miss_rate: rate(deadline_missed, admitted),
        }
    }
}

/// Windowed percentiles for one length bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinSlo {
    /// Length-bin index (the batcher's binning).
    pub bin: usize,
    /// Samples in the window.
    pub count: u64,
    /// Median latency, `None` on an empty window.
    pub p50: Option<u64>,
    /// 90th percentile.
    pub p90: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
}

/// A point-in-time view of the [`SloWindow`] — the live signal the
/// `stats` endpoint serves.
#[derive(Debug, Clone, PartialEq)]
pub struct SloView {
    /// View timestamp (ticks).
    pub now: u64,
    /// Window length (ticks).
    pub window: u64,
    /// Bucket width (ticks).
    pub step: u64,
    /// Per-length-bin windowed latency percentiles.
    pub per_bin: Vec<BinSlo>,
    /// Instantaneous admission-queue depth.
    pub queue_depth: f64,
    /// Requests admitted in the window.
    pub admitted: u64,
    /// Requests shed in the window.
    pub shed: u64,
    /// Deadlines missed in the window.
    pub deadline_missed: u64,
    /// Requests completed `ok` in the window.
    pub completed: u64,
    /// `shed / (admitted + shed)` over the window (0 when nothing offered).
    pub shed_rate: f64,
    /// `deadline_missed / admitted` over the window (0 when nothing
    /// admitted).
    pub deadline_miss_rate: f64,
}

impl SloView {
    /// The JSON document (`snapshot::Kind::SloView` describes it).
    pub fn to_json(&self) -> JsonValue {
        let opt = |v: Option<u64>| v.map_or(JsonValue::Null, |v| JsonValue::Num(v as f64));
        let per_bin = self
            .per_bin
            .iter()
            .map(|b| {
                JsonValue::obj(vec![
                    ("bin", JsonValue::Num(b.bin as f64)),
                    ("count", JsonValue::Num(b.count as f64)),
                    ("p50", opt(b.p50)),
                    ("p90", opt(b.p90)),
                    ("p99", opt(b.p99)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("now", JsonValue::Num(self.now as f64)),
            ("window", JsonValue::Num(self.window as f64)),
            ("step", JsonValue::Num(self.step as f64)),
            ("per_bin", JsonValue::Arr(per_bin)),
            ("queue_depth", JsonValue::Num(self.queue_depth)),
            ("admitted", JsonValue::Num(self.admitted as f64)),
            ("shed", JsonValue::Num(self.shed as f64)),
            (
                "deadline_missed",
                JsonValue::Num(self.deadline_missed as f64),
            ),
            ("completed", JsonValue::Num(self.completed as f64)),
            ("shed_rate", JsonValue::Num(self.shed_rate)),
            (
                "deadline_miss_rate",
                JsonValue::Num(self.deadline_miss_rate),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WindowConfig {
        WindowConfig::new(100, 10)
    }

    #[test]
    fn empty_window_has_no_percentiles() {
        let mut r = RollingHistogram::new(cfg());
        let h = r.view(0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        // Advancing far into the future stays empty, never panics.
        let h = r.view(1_000_000);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn samples_expire_after_exactly_one_window() {
        let mut r = RollingHistogram::new(cfg());
        r.observe(5, 42);
        // Still visible while the window [t-90, t] covers step 0.
        assert_eq!(r.view(95).count(), 1);
        // At t=100 the live steps are 1..=10 — step 0 fell out.
        assert_eq!(r.view(100).count(), 0);
    }

    #[test]
    fn rotation_at_exact_step_edges() {
        let mut r = RollingHistogram::new(cfg());
        // t=9 and t=10 are different steps: the edge sample starts a new
        // bucket, it does not round down.
        r.observe(9, 1);
        r.observe(10, 2);
        assert_eq!(r.view(10).count(), 2);
        // One window after step 0's bucket: only the t=10 sample survives.
        let h = r.view(109);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(2));
        // And one step later that one expires too.
        assert_eq!(r.view(110).count(), 0);
    }

    #[test]
    fn late_samples_are_dropped_and_counted() {
        let mut r = RollingHistogram::new(cfg());
        r.observe(500, 1);
        r.observe(5, 99); // bucket 0 left the window at t=500
        assert_eq!(r.dropped_late(), 1);
        assert_eq!(r.view(500).count(), 1);
        let mut c = RollingCounter::new(cfg());
        c.inc(500, 1);
        c.inc(5, 3);
        assert_eq!(c.dropped_late(), 3);
        assert_eq!(c.sum(500), 1);
    }

    #[test]
    fn counter_sums_the_window_only() {
        let mut c = RollingCounter::new(cfg());
        c.inc(0, 1);
        c.inc(50, 2);
        c.inc(99, 4);
        assert_eq!(c.sum(99), 7);
        assert_eq!(c.sum(100), 6); // step 0 expired
        assert_eq!(c.sum(199), 0); // everything expired
    }

    #[test]
    fn slo_view_rates_and_json_shape() {
        let mut w = SloWindow::new(cfg(), 3);
        w.record_admitted(10, 4);
        w.record_admitted(11, 5);
        w.record_shed(12);
        w.record_deadline_missed(13, 1);
        w.record_completed(20, 1, 800);
        w.record_completed(21, 1, 1600);
        w.record_completed(22, 9, 50); // out-of-range bin clamps to last
        let v = w.view(30);
        assert_eq!(v.admitted, 2);
        assert_eq!(v.shed, 1);
        assert_eq!(v.completed, 3);
        assert!((v.shed_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((v.deadline_miss_rate - 0.5).abs() < 1e-12);
        assert_eq!(v.per_bin.len(), 3);
        assert_eq!(v.per_bin[0].count, 0);
        assert_eq!(v.per_bin[0].p50, None);
        assert_eq!(v.per_bin[1].count, 2);
        assert_eq!(v.per_bin[2].count, 1);
        assert_eq!(v.queue_depth, 5.0);
        crate::snapshot::validate(crate::snapshot::Kind::SloView, &v.to_json()).unwrap();
    }

    #[test]
    fn wraparound_at_exact_window_multiples() {
        // Slots at t = 0, window, 2·window share a ring index; each
        // revolution must find its bucket cleared, not accumulating the
        // previous cycle's samples.
        let mut r = RollingHistogram::new(cfg());
        for cycle in 0..3u64 {
            r.observe(cycle * 100, 10 + cycle);
        }
        // At t=200 only the t=200 sample is live: t=100 sits exactly one
        // window back (slot 10 vs live 11..=20) and was cleared on wrap.
        let h = r.view(200);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(12));
        // Same edge for the counter ring.
        let mut c = RollingCounter::new(cfg());
        for cycle in 0..3u64 {
            c.inc(cycle * 100, 1);
        }
        assert_eq!(c.sum(200), 1);
    }

    #[test]
    fn late_drop_boundary_is_the_oldest_live_slot() {
        // latest = slot 15 → live slots 6..=15. A sample landing exactly
        // on the oldest live slot is recorded; one slot older is dropped.
        let mut r = RollingHistogram::new(cfg());
        r.observe(150, 1); // latest = 15
        r.observe(60, 2); // slot 6: oldest live — accepted
        assert_eq!(r.dropped_late(), 0);
        r.observe(59, 3); // slot 5: one before — dropped
        assert_eq!(r.dropped_late(), 1);
        let h = r.view(150);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn slo_view_percentiles_are_monotone(
            lats in proptest::collection::vec(0u64..200_000, 1..=60),
            delta in 0u64..50_000,
        ) {
            // Rank order: p50 ≤ p90 ≤ p99, all within [min, max].
            let view_of = |lats: &[u64]| {
                let mut w = SloWindow::new(cfg(), 1);
                for (i, &l) in lats.iter().enumerate() {
                    w.record_completed(i as u64, 0, l);
                }
                w.view(99)
            };
            let v = view_of(&lats);
            let b = &v.per_bin[0];
            proptest::prop_assert_eq!(b.count, lats.len() as u64);
            let (p50, p90, p99) = (b.p50.unwrap(), b.p90.unwrap(), b.p99.unwrap());
            proptest::prop_assert!(p50 <= p90 && p90 <= p99);
            let (lo, hi) = (
                *lats.iter().min().unwrap(),
                *lats.iter().max().unwrap(),
            );
            proptest::prop_assert!(p50 >= lo && p99 >= lo && p99 <= hi.max(1));
            // Monotonicity in the samples: raising every latency never
            // lowers any reported percentile.
            let raised: Vec<u64> = lats.iter().map(|&l| l + delta).collect();
            let vr = view_of(&raised);
            let br = &vr.per_bin[0];
            proptest::prop_assert!(br.p50.unwrap() >= p50);
            proptest::prop_assert!(br.p90.unwrap() >= p90);
            proptest::prop_assert!(br.p99.unwrap() >= p99);
        }
    }
}
