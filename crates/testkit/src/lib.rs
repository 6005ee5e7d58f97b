//! `nvwa-testkit` — the repo's cross-layer correctness tooling.
//!
//! The reproduction has four independently-built layers that must agree
//! with each other: the software aligner (`nvwa-align`), the seeding
//! index (`nvwa-index`), the cycle-accurate accelerator model
//! (`nvwa-core`/`nvwa-sim`) and the serving front end (`nvwa-serve`).
//! This crate turns the implicit invariants that glue them together into
//! executable, seeded, shrinking checks (DESIGN.md §11):
//!
//! * [`minimize`] — **the one conformance runner**: a differential family
//!   implements [`minimize::Probe`] (first divergence over a case slice,
//!   the shrinkable sequences of a case) and calls
//!   [`minimize::run_family`], which finds the first divergence, ddmins
//!   the case set and shrinks every survivor pinned to that check, and
//!   writes the reproducer under the repro directory
//!   (`tests/golden/repro/` by default).
//! * [`diff`] — **differential oracles**: `sw::naive` vs the optimized
//!   kernels vs banded; the bit-parallel edit kernel vs DP oracles;
//!   `smem::oracle` vs the fast path (LUT on/off, trace on/off, scratch
//!   reuse); the full pipeline's three paths; `nvwa-serve` responses vs
//!   the offline aligner on the same reads — five families through
//!   [`minimize::run_family`].
//! * [`invariants`] — **simulator invariant checking**: a post-run
//!   validator over [`nvwa_core::system::SimRun`] asserting the
//!   conservation laws promised in DESIGN.md §8 (per-cause stall
//!   integrals sum to idle cycles, trace busy spans integrate to
//!   utilization, HBM energy conservation, span times inside the run
//!   window) — callable from any test, not just the telemetry suite.
//! * [`faults`] — **deterministic fault injection for serve**: seeded
//!   [`faults::FaultPlan`]s (truncated/oversized frames, mid-frame
//!   disconnects, slow-loris dribble, worker panic at batch N,
//!   queue-full storms, a structure-aware request-frame fuzzer) with the
//!   invariant that every accepted request is answered exactly once and
//!   the server drains cleanly.
//! * [`tenancy`] — **multi-tenant conformance**: shard-routing
//!   determinism, two-tenant serving bit-identical to per-species offline
//!   aligners and unknown-tenant rejection (the shard-kill degradation
//!   plan lives in [`faults`]).
//! * [`long_read`] — **long-read differential conformance**: the
//!   seed-chain-fill pipeline's GACT-tiled committed score vs a
//!   wide-banded SW oracle over the exact committed window, inside the
//!   documented `(tiles − 1) · overlap · match` seam bound (DESIGN.md
//!   §15) — the sixth family through [`minimize::run_family`].
//! * [`golden`] — the single `NVWA_BLESS=1` blessing flag shared by
//!   trace, snapshot and reproducer files, with a diff summary on
//!   unblessed drift.
//! * [`conformance`] — the one-command driver behind `nvwa conformance`,
//!   running all families over a fixed seed matrix with bit-identical
//!   output at any thread count.
//!
//! Everything is std-only (DESIGN.md §7).

pub mod conformance;
pub mod diff;
pub mod faults;
pub mod golden;
pub mod invariants;
pub mod long_read;
pub mod minimize;
pub mod tenancy;

use std::time::{Duration, Instant};

/// splitmix64 — the repo's standard zero-dependency PRNG (same stream as
/// `nvwa_serve::loadgen`), used for all seeded case generation so a seed
/// printed in a report reproduces the exact inputs.
#[derive(Debug, Clone)]
pub struct Prng(pub u64);

impl Prng {
    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// One random 2-bit base code.
    pub fn base(&mut self) -> u8 {
        (self.next_u64() & 0b11) as u8
    }

    /// A random 2-bit code sequence of length `len`.
    pub fn codes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.base()).collect()
    }

    /// Mutates `seq` with ~3% substitutions and ~1% single-base indels —
    /// drift stays far inside a band of 16, so banded and full extension
    /// must agree on the result (the soundness condition of the banded
    /// differential).
    pub fn mutate(&mut self, seq: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(seq.len() + 4);
        for (i, &c) in seq.iter().enumerate() {
            let r = self.below(100);
            if r < 3 {
                out.push((c + 1) % 4); // substitution
            } else if r < 4 && i > 5 {
                // deletion: skip the base
            } else if r < 5 {
                out.push(c);
                out.push((c + 2) % 4); // insertion
            } else {
                out.push(c);
            }
        }
        if out.is_empty() {
            out.push(0);
        }
        out
    }
}

/// Renders 2-bit codes as an `ACGT` string (reproducer files, messages).
pub fn codes_to_dna(codes: &[u8]) -> String {
    codes
        .iter()
        .map(|&c| match c & 0b11 {
            0 => 'A',
            1 => 'C',
            2 => 'G',
            _ => 'T',
        })
        .collect()
}

/// Parses an `ACGT` string back to 2-bit codes (reproducer replay).
pub fn dna_to_codes(s: &str) -> Vec<u8> {
    s.chars()
        .filter_map(|ch| match ch.to_ascii_uppercase() {
            'A' => Some(0),
            'C' => Some(1),
            'G' => Some(2),
            'T' => Some(3),
            _ => None,
        })
        .collect()
}

/// Polls `done` every millisecond until it holds or `timeout` has passed,
/// and returns whether it held. Serving tests wait with it on a counter the
/// server exports (`serve.requests_admitted`, `serve.connections_accepted`)
/// instead of sleeping for a guessed time that a slow host can outlast.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first three splitmix64 words for seed 42. `serve::loadgen`'s
    /// private `Prng` pins the same vector: one stream, one seed
    /// convention in both copies.
    #[test]
    fn prng_matches_the_splitmix64_known_answers() {
        let mut p = Prng(42);
        let words = [p.next_u64(), p.next_u64(), p.next_u64()];
        assert_eq!(
            words,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52
            ]
        );
    }

    #[test]
    fn dna_round_trips() {
        let codes = vec![0, 1, 2, 3, 3, 2, 1, 0];
        assert_eq!(codes_to_dna(&codes), "ACGTTGCA");
        assert_eq!(dna_to_codes(&codes_to_dna(&codes)), codes);
    }

    #[test]
    fn mutate_never_returns_empty_and_stays_close() {
        let mut p = Prng(7);
        let seq = p.codes(120);
        let mutated = p.mutate(&seq);
        assert!(!mutated.is_empty());
        let diff = (mutated.len() as i64 - seq.len() as i64).abs();
        assert!(diff <= 16, "indel drift {diff} must stay inside band 16");
    }
}
