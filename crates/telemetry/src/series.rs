//! Bucketed time series accumulating a value's time integral.
//!
//! Fig. 12 of the paper plots per-component utilization over execution
//! time; [`TimeSeries`] buckets the integral of a piecewise-constant value
//! for plotting. The stall-attribution tracker keeps one series per cause.

use crate::Cycle;

/// A bucketed time series accumulating a value's time integral.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_width: Cycle,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width == 0`.
    pub fn new(bucket_width: Cycle) -> TimeSeries {
        assert!(bucket_width > 0, "bucket width must be positive");
        TimeSeries {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    /// Bucket width in cycles.
    pub fn bucket_width(&self) -> Cycle {
        self.bucket_width
    }

    /// Adds `value × (end - start)` to the overlapped buckets.
    ///
    /// The overlap with each bucket is computed arithmetically: the first
    /// and last buckets get their partial segments, every bucket strictly
    /// between them gets a full `value × bucket_width` — no per-step
    /// re-derivation of bucket boundaries.
    pub fn add_span(&mut self, start: Cycle, end: Cycle, value: f64) {
        if end <= start {
            return;
        }
        let bw = self.bucket_width;
        let first = (start / bw) as usize;
        let last = ((end - 1) / bw) as usize;
        if last >= self.buckets.len() {
            self.buckets.resize(last + 1, 0.0);
        }
        if first == last {
            self.buckets[first] += value * (end - start) as f64;
            return;
        }
        let first_end = (first as Cycle + 1) * bw;
        self.buckets[first] += value * (first_end - start) as f64;
        let full = value * bw as f64;
        for bucket in &mut self.buckets[first + 1..last] {
            *bucket += full;
        }
        self.buckets[last] += value * (end - last as Cycle * bw) as f64;
    }

    /// Per-bucket mean value (integral divided by bucket width).
    pub fn bucket_means(&self) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|&v| v / self.bucket_width as f64)
            .collect()
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether any data has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Pointwise-adds `other` into `self` (deterministic merge for
    /// parallel aggregation).
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "cannot merge series with different bucket widths"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0.0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_buckets() {
        let mut ts = TimeSeries::new(10);
        ts.add_span(5, 25, 1.0); // 5 in bucket 0, 10 in bucket 1, 5 in bucket 2
        assert_eq!(ts.bucket_means(), vec![0.5, 1.0, 0.5]);
    }

    #[test]
    fn ignores_empty_spans() {
        let mut ts = TimeSeries::new(10);
        ts.add_span(5, 5, 1.0);
        assert!(ts.is_empty());
        ts.add_span(7, 3, 1.0); // end < start is also a no-op
        assert!(ts.is_empty());
    }

    #[test]
    fn span_exactly_on_bucket_boundaries() {
        // [10, 30) touches buckets 1 and 2 exactly — no spill into 0 or 3.
        let mut ts = TimeSeries::new(10);
        ts.add_span(10, 30, 2.0);
        assert_eq!(ts.bucket_means(), vec![0.0, 2.0, 2.0]);
    }

    #[test]
    fn span_ending_one_past_boundary() {
        // [9, 11): one cycle in bucket 0, one in bucket 1.
        let mut ts = TimeSeries::new(10);
        ts.add_span(9, 11, 1.0);
        assert_eq!(ts.bucket_means(), vec![0.1, 0.1]);
    }

    #[test]
    fn single_cycle_at_bucket_start() {
        let mut ts = TimeSeries::new(10);
        ts.add_span(20, 21, 3.0);
        assert_eq!(ts.bucket_means(), vec![0.0, 0.0, 0.3]);
    }

    #[test]
    fn long_span_fills_middle_buckets() {
        let mut ts = TimeSeries::new(4);
        ts.add_span(2, 18, 1.0);
        // Partial 2, full 4, full 4, full 4, partial 2 (of width 4).
        assert_eq!(ts.bucket_means(), vec![0.5, 1.0, 1.0, 1.0, 0.5]);
    }

    #[test]
    fn merge_is_pointwise() {
        let mut a = TimeSeries::new(10);
        a.add_span(0, 10, 1.0);
        let mut b = TimeSeries::new(10);
        b.add_span(5, 25, 1.0);
        a.merge(&b);
        assert_eq!(a.bucket_means(), vec![1.5, 1.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "bucket widths")]
    fn merge_width_mismatch_panics() {
        let mut a = TimeSeries::new(10);
        a.merge(&TimeSeries::new(20));
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_width_panics() {
        let _ = TimeSeries::new(0);
    }
}
