//! The Allocate Trigger (Sec. IV-A, "Solving Challenge-②").
//!
//! "The Allocate Trigger is responsible for checking the execution status
//! of the EUs and deciding whether to send a scheduling request to the
//! Coordinator based on the number of idle units." A request fires when the
//! idle fraction reaches the threshold (the simulator's is 15 %).

/// The Allocate Trigger.
///
/// # Examples
///
/// ```
/// use nvwa_core::extension::AllocateTrigger;
/// let trigger = AllocateTrigger::new(0.15);
/// assert!(!trigger.should_request(5, 70));  // ~7% idle
/// assert!(trigger.should_request(11, 70));  // ~16% idle
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocateTrigger {
    threshold: f64,
}

impl AllocateTrigger {
    /// Creates a trigger firing at the given idle fraction.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `(0, 1]`.
    pub fn new(threshold: f64) -> AllocateTrigger {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        AllocateTrigger { threshold }
    }

    /// Whether a scheduling request should be sent to the Coordinator.
    pub fn should_request(&self, idle_units: usize, total_units: usize) -> bool {
        if total_units == 0 {
            return false;
        }
        idle_units as f64 >= self.threshold * total_units as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_threshold() {
        let t = AllocateTrigger::new(0.15);
        // 15% of 100 is exactly 15.
        assert!(!t.should_request(14, 100));
        assert!(t.should_request(15, 100));
        assert!(t.should_request(100, 100));
    }

    #[test]
    fn all_idle_always_fires() {
        let t = AllocateTrigger::new(1.0);
        assert!(t.should_request(70, 70));
        assert!(!t.should_request(69, 70));
    }

    #[test]
    fn empty_pool_never_fires() {
        let t = AllocateTrigger::new(0.15);
        assert!(!t.should_request(0, 0));
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0, 1]")]
    fn zero_threshold_rejected() {
        let _ = AllocateTrigger::new(0.0);
    }
}
