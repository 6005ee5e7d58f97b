//! The seeding unit (SU) timing model.
//!
//! SUs execute the bit-parallel FM-index search; their execution time is a
//! *dependent chain* of index-block accesses (each backward extension needs
//! the previous interval). An access is served by the shared SU table SRAM
//! when the block is hot, otherwise by HBM — which is what makes seeding
//! time input-sensitive and creates the termination diversity the Seeding
//! Scheduler exists to absorb (Challenge-①).

use nvwa_sim::hbm::Hbm;
use nvwa_sim::spm::Scratchpad;
use nvwa_sim::Cycle;

use super::workload::ReadWork;

/// The SU timing model (shared across the SU pool; per-unit state is just
/// busy/idle, tracked by the system).
#[derive(Debug)]
pub struct SuModel {
    cache: Scratchpad,
}

impl SuModel {
    /// Creates the model with a shared index cache of `cache_blocks`
    /// blocks and the given hit latency.
    pub fn new(cache_blocks: usize, cache_latency: Cycle) -> SuModel {
        SuModel {
            cache: Scratchpad::new(cache_blocks.max(1), cache_latency),
        }
    }

    /// Replays one read's seeding access chain starting at `start`,
    /// returning the completion cycle. Misses go to `hbm` (paying queueing
    /// delay under contention) and install the block in the cache.
    pub fn seeding_latency(&mut self, start: Cycle, work: &ReadWork, hbm: &mut Hbm) -> Cycle {
        let mut t = start;
        // Decode + per-base pipeline work even when every access hits.
        t += work.seeding_accesses.len() as Cycle / 4;
        for &addr in &work.seeding_accesses {
            match self.cache.access(addr) {
                Some(lat) => t += lat,
                None => t = hbm.request(t, addr),
            }
        }
        t
    }

    /// Cache hit rate so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_sim::hbm::HbmConfig;

    fn work(accesses: Vec<u64>) -> ReadWork {
        ReadWork {
            read_id: 0,
            seeding_accesses: accesses,
            hits: Vec::new(),
        }
    }

    #[test]
    fn all_misses_pay_memory_latency() {
        let mut su = SuModel::new(4, 1);
        let mut hbm = Hbm::new(HbmConfig::default());
        // 10 distinct cold addresses on distinct channels: each is a
        // dependent 100-cycle round trip.
        let w = work((0..10u64).collect());
        let done = su.seeding_latency(0, &w, &mut hbm);
        assert!(done >= 1000, "done at {done}");
    }

    #[test]
    fn hot_blocks_hit_the_cache() {
        let mut su = SuModel::new(16, 2);
        let mut hbm = Hbm::new(HbmConfig::default());
        // Same address repeatedly: one miss then all hits.
        let w = work(vec![5; 100]);
        let done = su.seeding_latency(0, &w, &mut hbm);
        // 1 miss (100) + 99 hits (2 each) + pipeline 25.
        assert!(done < 400, "done at {done}");
        assert!(su.cache_hit_rate() > 0.9);
    }

    #[test]
    fn longer_chains_take_longer() {
        let mut su = SuModel::new(4, 1);
        let mut hbm = Hbm::new(HbmConfig::default());
        let short = su.seeding_latency(0, &work((0..20).collect()), &mut hbm);
        let mut su2 = SuModel::new(4, 1);
        let mut hbm2 = Hbm::new(HbmConfig::default());
        let long = su2.seeding_latency(0, &work((0..200).collect()), &mut hbm2);
        assert!(long > short * 5);
    }

    #[test]
    fn contention_slows_concurrent_chains() {
        // Two SU chains interleaved on one HBM: later chain sees queueing.
        let mut hbm = Hbm::new(HbmConfig {
            channels: 1,
            ..HbmConfig::default()
        });
        let mut su = SuModel::new(1, 1);
        let w = work((0..50u64).map(|i| i * 2 + 1).collect());
        let solo = {
            let mut hbm_solo = Hbm::new(HbmConfig {
                channels: 1,
                ..HbmConfig::default()
            });
            let mut su_solo = SuModel::new(1, 1);
            su_solo.seeding_latency(0, &w, &mut hbm_solo)
        };
        // Saturate the channel first.
        for i in 0..500u64 {
            let _ = hbm.request(0, i * 4 + 2);
        }
        let contended = su.seeding_latency(0, &w, &mut hbm);
        assert!(contended > solo);
    }
}
