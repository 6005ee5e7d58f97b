//! The one conformance runner behind every minimizing differential family
//! ([`crate::diff`], [`crate::long_read`]): a family implements [`Probe`]
//! and calls [`run_family`], which finds the first divergence, bisects the
//! failing *case set* to a locally minimal subset (delta debugging),
//! shrinks the surviving sequences base by base and writes the reproducer.
//!
//! The predicate contract is "does this input set still diverge with the
//! check first observed?" — it must be deterministic (same input, same
//! answer), which every probe guarantees by construction (no wall-clock,
//! no global state). Pinning the check keeps minimization from morphing
//! one failure into another (a half-shrunk long read legitimately stops
//! chaining). Minimization is greedy and bounded: each phase only ever
//! keeps a strictly smaller failing input, so it terminates in
//! `O(n log n)` predicate calls for the set phase and `O(len²)` worst
//! case (in practice `O(len log len)`) for the shrink phase.

use std::path::{Path, PathBuf};

use nvwa_telemetry::JsonValue;

use crate::{codes_to_dna, golden};

/// The first divergence over a case slice as `(check, detail)`, `None`
/// when every oracle agrees; an `Err` is a transport failure, not a
/// divergence, and is not minimized.
pub type FirstDivergence = Result<Option<(&'static str, String)>, String>;

/// A differential family's oracle, as [`run_family`] drives it.
pub trait Probe {
    /// One seeded input; cloned while minimizing.
    type Case: Clone;

    /// The first divergence over `cases`. One call uses one fresh
    /// scratch, reused across its cases, so the answer never depends on
    /// an earlier call.
    fn divergence(&self, cases: &[Self::Case]) -> FirstDivergence;

    /// The case's shrinkable sequences (2-bit codes), in the order the
    /// reproducer records them.
    fn sequences(case: &mut Self::Case) -> Vec<&mut Vec<u8>>;
}

/// A confirmed cross-implementation divergence, minimized.
#[derive(Debug)]
pub struct Divergence {
    /// Which oracle pair disagreed (e.g. `"sw.banded_vs_full"`).
    pub check: String,
    /// First divergence, human-readable (both sides excerpted).
    pub detail: String,
    /// The minimized failing input, as DNA strings.
    pub reads: Vec<String>,
    /// The reproducer file (`None` without a repro directory), or why it
    /// could not be written.
    pub repro: Option<Result<PathBuf, String>>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} (minimized to {} read(s)",
            self.check,
            self.detail,
            self.reads.len()
        )?;
        match &self.repro {
            Some(Ok(p)) => write!(f, ", repro: {})", p.display()),
            Some(Err(e)) => write!(f, ", repro not written: {e})"),
            None => write!(f, ")"),
        }
    }
}

impl Divergence {
    /// Builds the divergence, writing the reproducer when `repro_dir` is
    /// set. The reproducer records everything needed to replay: family,
    /// check, seed, and the minimized reads as DNA.
    fn new(
        family: &str,
        check: String,
        detail: String,
        seed: u64,
        reads: Vec<String>,
        repro_dir: Option<&Path>,
    ) -> Divergence {
        let repro = repro_dir.map(|dir| {
            let doc = JsonValue::obj(vec![
                ("kind", JsonValue::Str("nvwa-conformance-repro".to_string())),
                ("family", JsonValue::Str(family.to_string())),
                ("check", JsonValue::Str(check.clone())),
                ("seed", JsonValue::Num(seed as f64)),
                ("detail", JsonValue::Str(detail.clone())),
                (
                    "reads",
                    JsonValue::Arr(reads.iter().map(|r| JsonValue::Str(r.clone())).collect()),
                ),
            ]);
            golden::write_repro(
                dir,
                &format!("{family}_seed{seed}"),
                &doc.to_string_pretty(),
            )
        });
        Divergence {
            check,
            detail,
            reads,
            repro,
        }
    }
}

/// Runs `cases` through `probe`. On a divergence with check `X`: ddmin the
/// set while it still diverges with `X`, shrink every sequence of every
/// survivor in place (pinned to `X`, against the set as shrunk so far),
/// find the divergence again — `<family>.unstable` if it is gone — and
/// build the [`Divergence`], writing `<family>_seed<seed>.json` under
/// `repro_dir`. A transport failure is reported as `<family>.transport`
/// without minimization.
pub fn run_family<P: Probe>(
    family: &str,
    probe: &P,
    cases: &[P::Case],
    seed: u64,
    repro_dir: Option<&Path>,
) -> Result<(), Divergence> {
    let (check, detail, mut set) = match probe.divergence(cases) {
        Ok(None) => return Ok(()),
        Err(e) => (format!("{family}.transport"), e, Vec::new()),
        Ok(Some((check, _))) => {
            let same_check =
                |set: &[P::Case]| matches!(probe.divergence(set), Ok(Some((c, _))) if c == check);
            let mut set = minimize_set(cases, &mut |s| same_check(s));
            for i in 0..set.len() {
                for k in 0..P::sequences(&mut set[i]).len() {
                    let current = P::sequences(&mut set[i])[k].clone();
                    let shrunk = shrink_read(&current, &mut |candidate| {
                        let mut trial = set.clone();
                        *P::sequences(&mut trial[i])[k] = candidate.to_vec();
                        same_check(&trial)
                    });
                    *P::sequences(&mut set[i])[k] = shrunk;
                }
            }
            match probe.divergence(&set) {
                Ok(Some((c, detail))) if c == check => (c.to_string(), detail, set),
                _ => {
                    let detail = "divergence vanished during shrinking".to_string();
                    (format!("{family}.unstable"), detail, set)
                }
            }
        }
    };
    let reads = set
        .iter_mut()
        .flat_map(P::sequences)
        .map(|s| codes_to_dna(s))
        .collect();
    Err(Divergence::new(
        family, check, detail, seed, reads, repro_dir,
    ))
}

/// Delta-debugging (ddmin) over an item set: returns a subset of `items`
/// that still satisfies `fails`, locally minimal under chunk removal.
///
/// Returns `items` unchanged if the full set does not fail (nothing to
/// minimize) — callers should only invoke this with a known-failing set.
fn minimize_set<T: Clone>(items: &[T], fails: &mut impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    if current.is_empty() || !fails(&current) {
        return current;
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() && current.len() >= 2 {
            let end = (start + chunk).min(current.len());
            // Complement: everything except [start, end).
            let candidate: Vec<T> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                granularity = granularity.max(2).min(current.len().max(2));
                reduced = true;
                // Retry the same offset: a new chunk now occupies it.
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk <= 1 {
                break; // minimal under single-item removal
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// Shrinks one read while `fails` keeps holding: repeatedly removes
/// chunks (halving the chunk size down to one base) from every offset.
/// The result still fails and is locally minimal under chunk removal.
fn shrink_read(read: &[u8], fails: &mut impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    let mut current = read.to_vec();
    if current.is_empty() || !fails(&current) {
        return current;
    }
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                reduced = true;
                // Same offset again: new bytes shifted into place.
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_minimization_finds_the_single_culprit() {
        // Failure iff item 37 is present.
        let items: Vec<u32> = (0..100).collect();
        let mut calls = 0usize;
        let minimal = minimize_set(&items, &mut |s| {
            calls += 1;
            s.contains(&37)
        });
        assert_eq!(minimal, vec![37]);
        assert!(calls < 200, "ddmin used {calls} predicate calls");
    }

    #[test]
    fn set_minimization_handles_a_conjunction() {
        // Failure needs BOTH 3 and 60 present.
        let items: Vec<u32> = (0..80).collect();
        let minimal = minimize_set(&items, &mut |s| s.contains(&3) && s.contains(&60));
        assert_eq!(minimal, vec![3, 60]);
    }

    #[test]
    fn non_failing_set_is_returned_unchanged() {
        let items = vec![1, 2, 3];
        assert_eq!(minimize_set(&items, &mut |_| false), items);
    }

    #[test]
    fn read_shrinking_keeps_the_failing_motif() {
        // Failure iff the read contains the window [2, 2, 2, 2].
        let mut read = vec![0u8; 50];
        read.extend([2, 2, 2, 2]);
        read.extend(vec![1u8; 50]);
        let motif = |r: &[u8]| r.windows(4).any(|w| w == [2, 2, 2, 2]);
        let minimal = shrink_read(&read, &mut |r| motif(r));
        assert_eq!(minimal, vec![2, 2, 2, 2]);
    }

    #[test]
    fn shrinking_is_a_no_op_on_non_failing_input() {
        let read = vec![1, 2, 3];
        assert_eq!(shrink_read(&read, &mut |_| false), read);
    }

    /// An unwritable repro directory must not read like `--repro-dir
    /// none`: the FAIL line names the lost reproducer and why.
    #[test]
    fn a_repro_that_cannot_be_written_is_reported() {
        let file = std::env::temp_dir().join("nvwa_testkit_repro_dir_is_a_file");
        std::fs::write(&file, "not a directory").unwrap();
        let d = Divergence::new(
            "sw",
            "sw.banded_vs_full".to_string(),
            "boom".to_string(),
            1,
            vec!["ACGT".to_string()],
            Some(&file),
        );
        let _ = std::fs::remove_file(&file);
        assert!(matches!(d.repro, Some(Err(_))), "{:?}", d.repro);
        let line = d.to_string();
        assert!(
            line.contains(", repro not written: cannot create"),
            "{line}"
        );
        let none = Divergence::new("sw", "c".to_string(), "d".to_string(), 1, Vec::new(), None);
        assert!(none.to_string().ends_with("read(s))"), "{none}");
    }
}
