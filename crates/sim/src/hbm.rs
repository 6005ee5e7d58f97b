//! HBM 1.0 memory model (Ramulator substitute).
//!
//! The paper attaches NvWa to 256 GB/s HBM 1.0 and simulates it with
//! Ramulator. For the scheduler study, the behaviours that matter are
//! (a) a fixed access latency, (b) finite per-channel bandwidth creating
//! queueing delay under contention, and (c) the 7 pJ/bit access energy used
//! in the power model. This module models exactly those: each channel is a
//! calendar of service slots, one 64-byte transaction per slot. It is not a
//! FIFO: the simulator books a read's whole access chain into the future
//! when it schedules the read, so a later call may carry an earlier
//! timestamp and takes the first free slot at or after it all the same.

use std::collections::VecDeque;

use crate::Cycle;

/// HBM configuration.
///
/// The defaults model HBM 1.0 at a 1 GHz accelerator clock: 8 channels ×
/// 32 GB/s = 256 GB/s aggregate, i.e. one 64-byte transaction per channel
/// every 2 cycles, with 100 ns (100-cycle) access latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Fixed access latency in cycles (row activation + CAS + transfer).
    pub latency: Cycle,
    /// Cycles between transaction issues on one channel (bandwidth bound).
    pub service_interval: Cycle,
    /// Bytes per transaction.
    pub transaction_bytes: u64,
    /// Access energy in picojoules per bit (7 pJ/bit for HBM 1.0, as the
    /// paper cites).
    pub energy_pj_per_bit: f64,
}

impl Default for HbmConfig {
    fn default() -> HbmConfig {
        HbmConfig {
            channels: 8,
            latency: 100,
            service_interval: 2,
            transaction_bytes: 64,
            energy_pj_per_bit: 7.0,
        }
    }
}

impl HbmConfig {
    /// Aggregate bandwidth in bytes per cycle.
    pub fn bandwidth_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * self.transaction_bytes as f64 / self.service_interval as f64
    }
}

/// Bookings this many cycles behind the newest one are dropped: replayed
/// chains span well under 10⁶ cycles, so no request reaches back that far.
const HORIZON: Cycle = 10_000_000;

/// One channel's reservations as a bitset: bit `s % 64` of word `s / 64`
/// is set when service slot `s` is booked. `words[0]` is word `base`; the
/// words before it fell behind the horizon.
#[derive(Debug, Clone, Default)]
struct Calendar {
    base: u64,
    words: VecDeque<u64>,
}

impl Calendar {
    /// Books and returns the first free slot at or after `from`, dropping
    /// the words before `floor` first. A slot behind the dropped words is
    /// granted as asked and not recorded.
    fn book(&mut self, from: u64, floor: u64) -> u64 {
        if self.base < floor {
            let gone = (floor - self.base).min(self.words.len() as u64);
            self.words.drain(..gone as usize);
            self.base = floor;
        }
        let Some(first) = (from / 64).checked_sub(self.base) else {
            return from;
        };
        let mut w = first as usize;
        let mut candidates = !0u64 << (from % 64);
        loop {
            if w >= self.words.len() {
                self.words.resize(w + 1, 0);
            }
            let free = !self.words[w] & candidates;
            if free != 0 {
                let bit = free.trailing_zeros();
                self.words[w] |= 1 << bit;
                return (self.base + w as u64) * 64 + u64::from(bit);
            }
            w += 1;
            candidates = !0;
        }
    }
}

/// The HBM device state.
///
/// Each channel serves one transaction per `service_interval` cycles and
/// keeps its schedule as a bitset calendar: one bit per service slot between
/// the horizon and its newest booking.
#[derive(Debug, Clone)]
pub struct Hbm {
    config: HbmConfig,
    calendars: Vec<Calendar>,
    last_slot_seen: u64,
    requests: u64,
    queue_delay_total: u64,
}

impl Hbm {
    /// Creates a device from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `service_interval == 0`.
    pub fn new(config: HbmConfig) -> Hbm {
        assert!(config.channels > 0, "need at least one channel");
        assert!(
            config.service_interval > 0,
            "service interval must be positive"
        );
        Hbm {
            calendars: vec![Calendar::default(); config.channels],
            config,
            last_slot_seen: 0,
            requests: 0,
            queue_delay_total: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HbmConfig {
        &self.config
    }

    /// Issues a read of one transaction at block address `addr`, returning
    /// the cycle its data arrives.
    ///
    /// The channel is selected by address interleaving; the request takes
    /// the channel's first free service slot not before `now`.
    pub fn request(&mut self, now: Cycle, addr: u64) -> Cycle {
        let ch = (addr as usize) % self.config.channels;
        let service = self.config.service_interval;
        // First service slot whose start is not before `now`.
        let from = now.div_ceil(service);
        let newest = self.last_slot_seen.max(from);
        let floor = newest.saturating_sub(HORIZON / service) / 64;
        let slot = self.calendars[ch].book(from, floor);
        self.last_slot_seen = newest.max(slot);
        self.requests += 1;
        let start = slot * service;
        self.queue_delay_total += start - now;
        start + self.config.latency
    }

    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total queueing delay in cycles summed over all requests (the
    /// integral behind [`Hbm::mean_queue_delay`]; exported as the
    /// `hbm.queue_delay_cycles` telemetry counter).
    pub fn total_queue_delay(&self) -> u64 {
        self.queue_delay_total
    }

    /// Mean queueing delay (cycles spent waiting for a channel slot).
    pub fn mean_queue_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_delay_total as f64 / self.requests as f64
        }
    }

    /// Total bytes transferred.
    pub fn bytes_transferred(&self) -> u64 {
        self.requests * self.config.transaction_bytes
    }

    /// Total access energy in joules.
    pub fn energy_joules(&self) -> f64 {
        self.bytes_transferred() as f64 * 8.0 * self.config.energy_pj_per_bit * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_request_completes_after_latency() {
        let mut hbm = Hbm::new(HbmConfig::default());
        assert_eq!(hbm.request(1000, 0), 1100);
        assert_eq!(hbm.mean_queue_delay(), 0.0);
    }

    #[test]
    fn same_channel_requests_queue() {
        let mut hbm = Hbm::new(HbmConfig::default());
        // Addresses 0 and 8 hit channel 0 with 8 channels.
        let a = hbm.request(0, 0);
        let b = hbm.request(0, 8);
        assert_eq!(a, 100);
        assert_eq!(b, 102); // waited one service interval
        assert!(hbm.mean_queue_delay() > 0.0);
    }

    #[test]
    fn an_earlier_timestamp_books_behind_the_newest_slot() {
        // Addresses 0 and 8 share channel 0: the second call is not queued
        // behind the first one's booking at cycle 1000.
        let mut hbm = Hbm::new(HbmConfig::default());
        assert_eq!(hbm.request(1000, 0), 1100);
        assert_eq!(hbm.request(0, 8), 100);
        assert_eq!(hbm.total_queue_delay(), 0);
    }

    #[test]
    fn calendar_words_stay_within_the_horizon() {
        let mut hbm = Hbm::new(HbmConfig {
            channels: 1,
            ..HbmConfig::default()
        });
        // 10⁸ cycles of bookings: 781 250 words if none were dropped.
        for i in 0..1000u64 {
            assert_eq!(hbm.request(i * 100_000, 0), i * 100_000 + 100);
        }
        let service = hbm.config().service_interval;
        assert!(hbm.calendars[0].words.len() as u64 <= HORIZON / service / 64 + 2);
        // Slot 0 was booked, but that is behind the horizon now: forgotten.
        assert_eq!(hbm.request(0, 0), 100);
    }

    #[test]
    fn different_channels_do_not_interfere() {
        let mut hbm = Hbm::new(HbmConfig::default());
        let a = hbm.request(0, 0);
        let b = hbm.request(0, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn channel_frees_over_time() {
        let mut hbm = Hbm::new(HbmConfig::default());
        let _ = hbm.request(0, 0);
        // Long after the service interval, no queueing.
        assert_eq!(hbm.request(50, 8), 150);
    }

    #[test]
    fn saturation_throughput_matches_bandwidth() {
        let config = HbmConfig::default();
        let mut hbm = Hbm::new(config);
        // Fire 8000 requests at cycle 0 round-robin across channels.
        let mut last = 0;
        for i in 0..8000u64 {
            last = last.max(hbm.request(0, i));
        }
        // 1000 requests per channel, service 2 → drains in ~2000 cycles.
        assert!(last >= 100 + 999 * 2);
        assert!(last <= 100 + 1000 * 2);
        let busy = last - 100;
        let peak = hbm.config().bandwidth_bytes_per_cycle() * busy as f64;
        assert!((hbm.bytes_transferred() as f64 / peak - 1.0).abs() < 0.01);
    }

    #[test]
    fn energy_accounting() {
        let mut hbm = Hbm::new(HbmConfig::default());
        for i in 0..1000u64 {
            let _ = hbm.request(i * 10, i);
        }
        // 1000 × 64 B × 8 bit × 7 pJ = 3.584 µJ.
        let expected = 1000.0 * 64.0 * 8.0 * 7.0e-12;
        assert!((hbm.energy_joules() - expected).abs() < 1e-15);
        assert_eq!(hbm.bytes_transferred(), 64_000);
    }

    #[test]
    fn default_models_256_gb_per_s() {
        let c = HbmConfig::default();
        // 256 bytes/cycle at 1 GHz == 256 GB/s.
        assert_eq!(c.bandwidth_bytes_per_cycle(), 256.0);
    }

    #[test]
    fn queue_delay_grows_with_same_channel_conflict_depth() {
        // Bursts of k simultaneous requests to ONE channel: the k-th
        // waits (k-1) service intervals, so mean delay must grow
        // monotonically (and match the closed form (k-1)/2 · interval).
        let mut previous = -1.0;
        for burst in [1u64, 2, 4, 8, 16, 32] {
            let mut hbm = Hbm::new(HbmConfig::default());
            for _ in 0..burst {
                let _ = hbm.request(0, 0); // all on channel 0
            }
            let mean = hbm.mean_queue_delay();
            assert!(
                mean > previous,
                "burst {burst}: mean {mean} not above {previous}"
            );
            let interval = hbm.config().service_interval as f64;
            let expected = (burst - 1) as f64 / 2.0 * interval;
            assert!(
                (mean - expected).abs() < 1e-9,
                "burst {burst}: mean {mean} vs closed form {expected}"
            );
            previous = mean;
        }
    }

    #[test]
    fn disjoint_channel_streams_stay_flat() {
        // The same offered load spread one-request-per-channel sees zero
        // queueing at any burst count: channels are independent servers.
        let channels = HbmConfig::default().channels as u64;
        for bursts in [1u64, 4, 16, 64] {
            let mut hbm = Hbm::new(HbmConfig::default());
            let interval = hbm.config().service_interval;
            for b in 0..bursts {
                // One request per channel per service slot: conflict-free.
                let now = b * interval;
                for ch in 0..channels {
                    let done = hbm.request(now, ch);
                    assert_eq!(done, now + hbm.config().latency);
                }
            }
            assert_eq!(
                hbm.total_queue_delay(),
                0,
                "disjoint channels must not queue (bursts={bursts})"
            );
        }
        // Control: the identical request count on a single channel queues.
        let mut hot = Hbm::new(HbmConfig::default());
        for _ in 0..channels {
            let _ = hot.request(0, 0);
        }
        assert!(hot.total_queue_delay() > 0);
    }

    #[test]
    fn access_energy_matches_transaction_counts_exactly() {
        let config = HbmConfig::default();
        for n in [0u64, 1, 17, 1000] {
            let mut hbm = Hbm::new(config);
            for i in 0..n {
                let _ = hbm.request(i * 3, i * 7 + 1);
            }
            assert_eq!(hbm.requests(), n);
            assert_eq!(hbm.bytes_transferred(), n * config.transaction_bytes);
            let expected_j =
                (n * config.transaction_bytes) as f64 * 8.0 * config.energy_pj_per_bit * 1e-12;
            assert!(
                (hbm.energy_joules() - expected_j).abs() <= 1e-18,
                "n={n}: {} vs {expected_j}",
                hbm.energy_joules()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = Hbm::new(HbmConfig {
            channels: 0,
            ..HbmConfig::default()
        });
    }
}
