//! Histogram helpers for workload characterization.
//!
//! The Hybrid Units Strategy (Sec. IV-C) is provisioned from a *hit-length
//! distribution*; Fig. 13(b) and Fig. 14(b) present distributions bucketed
//! into power-of-two intervals. [`LengthHistogram`] is the shared tool: an
//! exact integer histogram with interval-mass queries.

use std::fmt;

/// An exact histogram over non-negative integer lengths.
///
/// # Examples
///
/// ```
/// use nvwa_genome::distribution::LengthHistogram;
/// let mut h = LengthHistogram::new();
/// for len in [3, 10, 17, 40, 100] { h.record(len); }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.interval_masses(&[16, 32, 64, 128]), vec![0.4, 0.2, 0.2, 0.2]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LengthHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LengthHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LengthHistogram {
        LengthHistogram::default()
    }

    /// Records one observation of `len`.
    pub fn record(&mut self, len: usize) {
        if len >= self.counts.len() {
            self.counts.resize(len + 1, 0);
        }
        self.counts[len] += 1;
        self.total += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest observed length, or `None` if empty.
    pub fn max(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Mean observed length (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(len, &c)| len as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) of observed lengths, or `None` if
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return None;
        }
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (len, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(len);
            }
        }
        self.max()
    }

    /// Mass in each interval defined by upper bounds `uppers`
    /// (`(prev, upper]`; the final interval also absorbs anything above the
    /// last bound). Returns fractions summing to 1.0 for a non-empty
    /// histogram.
    ///
    /// This is the `s_i` vector of Formula 4/5.
    ///
    /// # Panics
    ///
    /// Panics if `uppers` is empty or not strictly increasing.
    pub fn interval_masses(&self, uppers: &[usize]) -> Vec<f64> {
        assert!(!uppers.is_empty(), "need at least one interval");
        assert!(
            uppers.windows(2).all(|w| w[0] < w[1]),
            "interval bounds must be strictly increasing"
        );
        let mut masses = vec![0u64; uppers.len()];
        for (len, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let slot = uppers
                .iter()
                .position(|&u| len <= u)
                .unwrap_or(uppers.len() - 1);
            masses[slot] += c;
        }
        if self.total == 0 {
            return vec![0.0; uppers.len()];
        }
        masses
            .into_iter()
            .map(|m| m as f64 / self.total as f64)
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LengthHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (len, &c) in other.counts.iter().enumerate() {
            self.counts[len] += c;
        }
        self.total += other.total;
    }
}

impl fmt::Display for LengthHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LengthHistogram(n={}, mean={:.1}, max={:?})",
            self.total,
            self.mean(),
            self.max()
        )
    }
}

impl FromIterator<usize> for LengthHistogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> LengthHistogram {
        let mut h = LengthHistogram::new();
        for len in iter {
            h.record(len);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut h = LengthHistogram::new();
        h.record(5);
        h.record(5);
        h.record(9);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn mean_and_quantiles() {
        let h: LengthHistogram = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10].into_iter().collect();
        assert!((h.mean() - 5.5).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(10));
    }

    #[test]
    fn interval_masses_sum_to_one() {
        let h: LengthHistogram = [3usize, 10, 17, 40, 100, 200].into_iter().collect();
        let m = h.interval_masses(&[16, 32, 64, 128]);
        assert_eq!(m.len(), 4);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // 200 > 128 falls into the last interval.
        assert!((m[3] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = LengthHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.interval_masses(&[16, 32]), vec![0.0, 0.0]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a: LengthHistogram = [1usize, 2].into_iter().collect();
        let b: LengthHistogram = [2usize, 300].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), Some(300));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_bounds_panic() {
        let h: LengthHistogram = [1usize].into_iter().collect();
        let _ = h.interval_masses(&[32, 16]);
    }
}
