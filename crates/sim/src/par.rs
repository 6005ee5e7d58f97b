//! Deterministic parallel execution harness.
//!
//! The simulator core is single-threaded by design (cycle-accuracy), but
//! two layers around it are embarrassingly parallel: per-read software
//! alignment (workload construction) and per-configuration simulation
//! (sweep fan-out). [`par_map`] runs those on scoped `std::thread`s with
//! chunked work-stealing over an atomic cursor, writing every result into
//! the output slot of its input index — so the output vector is
//! **bit-identical** to the sequential map regardless of thread count or
//! scheduling, and every downstream RNG stream and simulator schedule is
//! unchanged. No external dependencies (DESIGN.md §7 bans crossbeam/
//! rayon): `std::thread::scope` + `std::sync::atomic` only.
//!
//! Thread-count resolution, strongest first:
//!
//! 1. a scoped [`with_threads`] override (used by tests and sweeps),
//! 2. the process-wide default set by [`set_default_threads`]
//!    (the CLI `--threads` flag),
//! 3. the `NVWA_THREADS` environment variable (`NVWA_THREADS=1` is the
//!    sequential escape hatch),
//! 4. [`std::thread::available_parallelism`].
//!
//! Nested calls run sequentially on the calling worker: a `par_map` inside
//! a `par_map` item does not spawn a second fleet of threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default thread count; 0 = not set (fall through to the
/// environment, then to the hardware).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Set while executing inside a worker: forces nested maps sequential.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Sets the process-wide default thread count (0 clears it back to
/// auto-detection). The CLI `--threads` flag lands here.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The thread count [`par_map`] will use, after applying the full
/// resolution order (override → default → `NVWA_THREADS` → hardware).
pub fn current_threads() -> usize {
    let scoped = THREAD_OVERRIDE.with(Cell::get);
    if scoped > 0 {
        return scoped;
    }
    let set = DEFAULT_THREADS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    if let Some(n) = std::env::var("NVWA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with every [`par_map`] on this thread using exactly `threads`
/// threads, restoring the previous setting afterwards. Used by the
/// determinism suite to compare 1/2/8-thread runs without touching global
/// state.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let previous = THREAD_OVERRIDE.with(|cell| cell.replace(threads));
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Maps `f` over `items` in parallel, preserving input order exactly.
///
/// Semantically identical to `items.iter().map(|x| f(x)).collect()`: the
/// result at index `i` is `f(&items[i])`, whatever the thread count, so a
/// caller observing only the output cannot tell parallel from sequential.
/// `f` must therefore not rely on shared mutable state (the type system
/// enforces `Fn + Sync`).
///
/// Chunked work-stealing: workers claim fixed-size chunks of the index
/// space from an atomic cursor, which load-balances reads/configs whose
/// individual costs differ by orders of magnitude (the Fig. 2 diversity
/// problem, on the host CPU this time).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, || (), |_, item| f(item))
}

/// [`par_map`] with per-worker reusable state: each worker thread calls
/// `init()` once and threads the resulting scratch through every item it
/// processes (`f(&mut state, item)`).
///
/// This is the zero-alloc fan-out primitive: a worker's `AlignScratch`-style
/// buffers are built once and reused across the whole chunk stream, while
/// the output stays bit-identical to the sequential
/// `items.iter().map(|x| f(&mut init(), x))` as long as `f`'s result does
/// not depend on the state's history — which is exactly the scratch-buffer
/// contract.
pub fn par_map_with<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = current_threads().max(1).min(items.len().max(1));
    let nested = IN_WORKER.with(Cell::get);
    if threads == 1 || items.len() <= 1 || nested {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    // Small fixed chunks balance load without contending on the cursor;
    // aim for several chunks per worker even on short inputs.
    let chunk = (items.len() / (threads * 8)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let init = &init;
    let f = &f;
    let cursor = &cursor;

    // Workers return (index, result) pairs; the parent scatters them into
    // index order. This keeps the harness 100% safe code at the cost of
    // one extra move per item — negligible next to an alignment or a
    // simulation.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    IN_WORKER.with(|cell| cell.set(true));
                    let mut state = init();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items[start..end].iter().enumerate() {
                            out.push((start + i, f(&mut state, item)));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("par_map worker panicked") {
                debug_assert!(slots[i].is_none(), "slot {i} written twice");
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("par_map slot unfilled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_exactly() {
        let items: Vec<u64> = (0..1000).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 16] {
            let parallel = with_threads(threads, || par_map(&items, |&x| x * x + 1));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(
            with_threads(8, || par_map(&empty, |&x| x)),
            Vec::<u32>::new()
        );
        assert_eq!(with_threads(8, || par_map(&[7u32], |&x| x + 1)), vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced_and_ordered() {
        // Item cost varies 1000x; order must still be exact.
        let items: Vec<usize> = (0..200).collect();
        let out = with_threads(8, || {
            par_map(&items, |&i| {
                let spin = if i % 17 == 0 { 100_000 } else { 100 };
                let mut acc = i as u64;
                for k in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                (i, acc)
            })
        });
        for (i, pair) in out.iter().enumerate() {
            assert_eq!(pair.0, i);
        }
    }

    #[test]
    fn nested_maps_do_not_explode() {
        let outer: Vec<usize> = (0..8).collect();
        let result = with_threads(4, || {
            par_map(&outer, |&i| {
                let inner: Vec<usize> = (0..16).collect();
                with_threads(4, || par_map(&inner, move |&j| i * 100 + j))
            })
        });
        for (i, row) in result.iter().enumerate() {
            assert_eq!(row.len(), 16);
            assert_eq!(row[3], i * 100 + 3);
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outside);
    }

    #[test]
    fn par_map_with_matches_sequential_and_reuses_state() {
        let items: Vec<u64> = (0..500).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x * 3 + 7).collect();
        for threads in [1, 2, 8] {
            let out = with_threads(threads, || {
                par_map_with(
                    &items,
                    Vec::<u64>::new, // scratch buffer, reused per worker
                    |scratch, &x| {
                        scratch.clear();
                        scratch.push(x);
                        scratch[0] * 3 + 7
                    },
                )
            });
            assert_eq!(out, sequential, "threads={threads}");
        }
    }

    #[test]
    fn par_map_with_inits_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = with_threads(4, || {
            par_map_with(&items, || inits.fetch_add(1, Ordering::Relaxed), |_, &x| x)
        });
        assert_eq!(out, items);
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "at most one init per worker"
        );
    }

    #[test]
    fn results_do_not_require_clone() {
        // R: Send only — boxed results move through intact.
        let items = [1u32, 2, 3];
        let out = with_threads(2, || par_map(&items, |&x| Box::new(x)));
        assert_eq!(out.iter().map(|b| **b).collect::<Vec<_>>(), vec![1, 2, 3]);
    }
}
