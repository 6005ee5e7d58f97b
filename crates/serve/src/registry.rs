//! The tenant table's building blocks (DESIGN.md §14): what a [`Tenant`]
//! is, how a request is admitted against its quota and how it is routed
//! to one of its shards. `Server::start` turns a list of tenants into the
//! one table every request resolves against.
//!
//! * A **tenant** is a named reference index. The `Arc` is pinned by the
//!   tenant's engines for the life of the server: nothing is evicted or
//!   reloaded, so `ServerConfig::registry_budget` can only refuse a tenant
//!   set at launch, and it does.
//! * **Shards** are deterministic traffic partitions of a tenant: request
//!   routing hashes the client's genome-region hint (or, absent one, the
//!   read itself) onto `0..shards`. Every shard serves the whole reference
//!   through a cheap [`Arc<ReferenceIndex>`] clone, which keeps responses
//!   bit-identical to the offline aligner no matter which shard answers
//!   and makes rerouting around a dead shard trivially correct.
//! * **Admission quotas**: each tenant may carry a cap on concurrently
//!   admitted requests. Admission hands out RAII
//!   [`AdmitGuard`]s, so the in-flight count is exactly-once by `Drop` —
//!   panic-safe, no manual decrement to forget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nvwa_align::pipeline::ReferenceIndex;
use nvwa_genome::species::Species;

/// Suffix-array sampling rate of [`Tenant::species`] indexes (matches the
/// serving default used by `nvwa serve`).
pub const DEFAULT_SA_RATE: u32 = 32;

/// One tenant of a server: a named reference, its traffic shards and its
/// admission quota.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Wire `tenant` name.
    pub name: String,
    /// The reference every shard of this tenant serves.
    pub index: Arc<ReferenceIndex>,
    /// Traffic shards (each gets its own engine); 0 is served as 1.
    pub shards: usize,
    /// Maximum concurrently admitted requests; `None` = unlimited.
    pub quota: Option<u64>,
}

impl Tenant {
    /// The one tenant of a single-index server, named `"default"`: one
    /// shard, no quota.
    pub fn single(index: Arc<ReferenceIndex>) -> Tenant {
        Tenant {
            name: "default".to_string(),
            index,
            shards: 1,
            quota: None,
        }
    }

    /// A single-shard, unlimited-quota tenant named by the species key.
    /// The same `(species, scale)` always synthesizes the same genome (the
    /// species seed is fixed), so clients never need to ship reference
    /// data.
    pub fn species(species: Species, scale: f64) -> Tenant {
        let index = ReferenceIndex::build(&species.synthesize(scale), DEFAULT_SA_RATE);
        Tenant {
            name: species.key().to_string(),
            ..Tenant::single(Arc::new(index))
        }
    }
}

/// RAII token for one admitted request: holding it counts against the
/// tenant's quota; dropping it (response written, or any failure path)
/// releases the slot. Exactly-once by construction.
#[derive(Debug)]
pub struct AdmitGuard {
    in_flight: Arc<AtomicU64>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Reserves one in-flight slot against an optional quota; `None` when the
/// quota is exhausted: the `quota`-th concurrent request is admitted, the
/// `quota + 1`-th refused. Lock-free, so admission never serializes.
pub(crate) fn try_admit_counted(
    in_flight: &Arc<AtomicU64>,
    quota: Option<u64>,
) -> Option<AdmitGuard> {
    match quota {
        None => {
            in_flight.fetch_add(1, Ordering::AcqRel);
        }
        Some(limit) => {
            let mut cur = in_flight.load(Ordering::Acquire);
            loop {
                if cur >= limit {
                    return None;
                }
                match in_flight.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
    }
    Some(AdmitGuard {
        in_flight: Arc::clone(in_flight),
    })
}

/// The shard-routing hash: the client's region hint when present,
/// otherwise an FNV-1a hash of the read codes. Pure, so routing is
/// deterministic across runs.
pub fn region_hash(region: Option<u64>, codes: &[u8]) -> u64 {
    match region {
        Some(r) => {
            // splitmix64 finalizer — spreads adjacent coordinates.
            let mut z = r.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        None => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in codes {
                h ^= u64::from(c);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
    }
}

/// Deterministic shard choice: start at `hash % shards` and probe forward
/// past dead shards. `None` when no shard is live.
pub fn route_shard(hash: u64, shards: usize, live: impl Fn(usize) -> bool) -> Option<usize> {
    if shards == 0 {
        return None;
    }
    let start = (hash % shards as u64) as usize;
    (0..shards).map(|i| (start + i) % shards).find(|&s| live(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_sheds_at_exactly_the_limit_with_exactly_once_accounting() {
        let in_flight = Arc::new(AtomicU64::new(0));
        let g1 = try_admit_counted(&in_flight, Some(2)).unwrap();
        let g2 = try_admit_counted(&in_flight, Some(2)).unwrap();
        // The quota-th request is admitted; quota + 1 is refused.
        assert!(try_admit_counted(&in_flight, Some(2)).is_none());
        assert_eq!(in_flight.load(Ordering::Acquire), 2);
        // Dropping a guard releases exactly one slot.
        drop(g1);
        assert_eq!(in_flight.load(Ordering::Acquire), 1);
        let g3 = try_admit_counted(&in_flight, Some(2)).unwrap();
        // No quota never refuses, and counts all the same.
        let g4 = try_admit_counted(&in_flight, None).unwrap();
        assert_eq!(in_flight.load(Ordering::Acquire), 3);
        drop((g2, g3, g4));
        assert_eq!(in_flight.load(Ordering::Acquire), 0);
    }

    #[test]
    fn routing_is_deterministic_and_skips_dead_shards() {
        let codes = [0u8, 1, 2, 3, 1, 1, 2];
        let h1 = region_hash(None, &codes);
        assert_eq!(h1, region_hash(None, &codes), "code hash is stable");
        assert_eq!(region_hash(Some(7), &codes), region_hash(Some(7), &[]));
        let all_live = route_shard(h1, 4, |_| true).unwrap();
        assert_eq!(route_shard(h1, 4, |_| true).unwrap(), all_live);
        // Killing the chosen shard reroutes to the next live one,
        // deterministically.
        let rerouted = route_shard(h1, 4, |s| s != all_live).unwrap();
        assert_eq!(rerouted, (all_live + 1) % 4);
        assert_eq!(route_shard(h1, 4, |_| false), None);
        assert_eq!(route_shard(h1, 0, |_| true), None);
    }
}
