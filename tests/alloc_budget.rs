//! Heap-allocation budgets of the two offline hot paths and of the
//! simulator: counts, not clocks.
//!
//! `align_codes_fast` with a warm [`AlignScratch`] still allocates — the
//! returned profile and cigar, the chains, the cigars of each extension —
//! and every one of those is a `malloc` on the per-read path. This test
//! pins how many: it installs a counting `#[global_allocator]` (counting
//! only the thread that asks, so the test harness's own threads do not
//! leak in), aligns 2 000 `illumina_101` reads against a 30 kbp reference
//! after a warm-up pass, and asserts the allocations of that pass stay
//! within the figure measured when the test was written. The inputs are
//! seeded, so the count repeats exactly; a change that adds a per-read
//! `clone()` or a fresh `Vec` fails here instead of showing up as a few
//! percent of `offline_short`. The long-read case does the same for
//! `LongReadAligner::align` on 50 simulated 5 kbp reads: what it pins is
//! that a `gact_extend` call owns one `DpScratch` for all of its tiles.
//! The simulator case counts one `simulate` of each Fig. 11 variant: an
//! allocation round of the Coordinator works from reused scratch, so the
//! NvWa variant allocates like the three that have no Coordinator. The
//! suffix-array case bounds memory rather than calls: the high-water mark
//! of live heap bytes while `build_suffix_array` runs; the long-read index
//! case, the bytes its minimizer table keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nvwa::align::long_read::{LongReadAligner, LongReadConfig, LongReadIndex};
use nvwa::align::pipeline::ReferenceIndex;
use nvwa::align::{AlignScratch, AlignerConfig, SoftwareAligner};
use nvwa::core::experiments::fig11;
use nvwa::core::system::simulate;
use nvwa::core::units::workload::SyntheticWorkloadParams;
use nvwa::core::NvwaConfig;
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};
use nvwa::index::minimizer::MinimizerParams;
use nvwa::index::suffix_array::build_suffix_array;
use nvwa::index::FmdIndex;

/// What this thread allocated while counting was on: `allocs` calls of
/// `bytes` in total, and the bytes still live (freed ones of earlier
/// allocations count negative) with their high-water mark.
#[derive(Clone, Copy, Default)]
struct Counted {
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    static COUNTED: Cell<Option<Counted>> = const { Cell::new(None) };
}

/// Starts counting this thread's allocations from zero.
fn start_counting() {
    COUNTED.with(|c| c.set(Some(Counted::default())));
}

/// Stops counting and returns what was counted.
fn stop_counting() -> Counted {
    COUNTED.with(|c| c.take()).expect("counting was on")
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local `Cell` of plain integers, which neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTED.try_with(|c| {
            if let Some(mut n) = c.get() {
                n.allocs += 1;
                n.bytes += layout.size() as u64;
                n.live += layout.size() as i64;
                n.peak = n.peak.max(n.live);
                c.set(Some(n));
            }
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = COUNTED.try_with(|c| {
            if let Some(mut n) = c.get() {
                n.live -= layout.size() as i64;
                c.set(Some(n));
            }
        });
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const READS: usize = 2_000;

/// Allocations of one warm pass over the [`READS`] reads (16.320 and 993
/// bytes per call), measured at the change that stopped the chainer at
/// `max_chains` chains per strand (the chains past it were built, then
/// truncated away); 32 762 (16.381 and 999 bytes) before it, and 36 302
/// (18.151 and 1 055 bytes) before the best candidate and the left cigar
/// were moved instead of cloned. `realloc` goes through the default `alloc`
/// + copy + `dealloc`, so a growing `Vec` counts once per growth.
const ALLOCS_CEILING: u64 = 32_641;

#[test]
fn warm_short_read_path_stays_within_its_allocation_budget() {
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 30_000,
            chromosomes: 2,
            repeat_fraction: 0.2,
            ..ReferenceParams::default()
        },
        7,
    );
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let reads = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 5).simulate_reads(READS);
    let mut scratch = AlignScratch::new();
    let pass = |scratch: &mut AlignScratch| {
        reads
            .iter()
            .filter(|r| {
                aligner
                    .align_codes_fast(r.id, r.seq.codes(), scratch)
                    .alignment
                    .is_some()
            })
            .count()
    };
    let warm = pass(&mut scratch);
    start_counting();
    let mapped = pass(&mut scratch);
    let Counted { allocs, bytes, .. } = stop_counting();
    assert_eq!(mapped, warm, "a warm scratch must not change the answers");
    assert!(mapped * 10 >= reads.len() * 9, "only {mapped} reads mapped");
    eprintln!(
        "align_codes_fast: {:.3} allocations, {:.0} bytes per read",
        allocs as f64 / READS as f64,
        bytes as f64 / READS as f64
    );
    assert!(
        allocs <= ALLOCS_CEILING,
        "{allocs} allocations over {READS} reads, budget {ALLOCS_CEILING}"
    );
}

const LONG_READS: usize = 50;

/// Allocations and bytes of one pass over the [`LONG_READS`] reads, measured
/// at the change that made `chain_seeds` chain each strand's in-order run
/// of seeds where it lies: 19 048 allocations (381.0 per read) and
/// 18 133 630 bytes (362 673). Before it, with the strands copied and
/// sorted: 19 546 (390.9) and 21 890 238 bytes (437 805), measured at the
/// change that made the minimizer index one flat table, the sampler block
/// window minima (hashed a block at a time, into a reserved output) and the
/// chainer a banded DP with an unstable greedy sort, the same on either
/// instantiation and lane width of the tile kernel. Before that, the
/// sampler's output growth and whole-read hash array and the stable sort's
/// buffer: 20 372 (407.4) and 27 243 185 bytes (544 864);
/// before the chainer stopped at `max_chains` chains per strand and the
/// sampler dropped its `VecDeque`, 30 235 (604.7) and 28 623 593 bytes
/// (572 472); before `gact_extend` owned one `DpScratch` for all its
/// tiles, 35 276 (705.5) and 116 203 313 bytes (2 324 066 per read).
const LONG_ALLOCS_CEILING: u64 = 19_048;
const LONG_BYTES_CEILING: u64 = 18_133_630;

#[test]
fn long_read_path_stays_within_its_allocation_budget() {
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 200_000,
            chromosomes: 4,
            ..ReferenceParams::default()
        },
        7,
    );
    let index = LongReadIndex::build(genome.flat().codes().to_vec(), MinimizerParams::default());
    let aligner = LongReadAligner::new(&index, LongReadConfig::default());
    let reads =
        ReadSimulator::new(&genome, ReadSimParams::long_read(5_000), 5).simulate_reads(LONG_READS);
    let pass = || {
        reads
            .iter()
            .filter_map(|r| aligner.align(r.seq.codes()))
            .map(|a| a.gact.tiles)
            .sum::<u64>()
    };
    let warm = pass();
    start_counting();
    let tiles = pass();
    let Counted { allocs, bytes, .. } = stop_counting();
    assert_eq!(tiles, warm, "the second pass must repeat the first");
    assert!(tiles >= 20 * LONG_READS as u64, "only {tiles} tiles filled");
    eprintln!(
        "LongReadAligner::align: {:.1} allocations, {:.0} bytes per read ({allocs}, {bytes} in all)",
        allocs as f64 / LONG_READS as f64,
        bytes as f64 / LONG_READS as f64
    );
    assert!(
        allocs <= LONG_ALLOCS_CEILING && bytes <= LONG_BYTES_CEILING,
        "{allocs} allocations, {bytes} bytes over {LONG_READS} reads, \
         budget {LONG_ALLOCS_CEILING} / {LONG_BYTES_CEILING}"
    );
}

/// Heap bytes `LongReadIndex::build` leaves live on the 200 kbp reference of
/// the long-read case (its own reference `Vec` aside), measured at the change
/// that made the minimizer index one flat table: `4 · keys + 1` 16-byte
/// slots and one `Vec` of the repeated keys' positions. 1 947 528 bytes
/// (peak 2 587 640) in 5 allocations. The per-key `HashMap<u64, Vec<u32>>`
/// before it left 2 666 080 bytes live (peak 4 773 856) in 31 114
/// allocations, about one per key.
const LONG_INDEX_LIVE_BYTES: i64 = 1_947_528;
const LONG_INDEX_LIVE_ALLOCS: u64 = 5;

#[test]
fn long_read_index_keeps_one_flat_table() {
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 200_000,
            chromosomes: 4,
            ..ReferenceParams::default()
        },
        7,
    );
    let reference = genome.flat().codes().to_vec();
    start_counting();
    let index = LongReadIndex::build(reference, MinimizerParams::default());
    let Counted {
        allocs, live, peak, ..
    } = stop_counting();
    eprintln!("LongReadIndex::build: {live} bytes live, {peak} at peak, {allocs} allocations");
    assert!(index.minimizers().len() > 30_000);
    assert!(
        live <= LONG_INDEX_LIVE_BYTES && allocs <= LONG_INDEX_LIVE_ALLOCS,
        "{live} bytes live in {allocs} allocations, budget {LONG_INDEX_LIVE_BYTES} / \
         {LONG_INDEX_LIVE_ALLOCS}"
    );
}

/// Allocations and bytes of one `simulate` per Fig. 11 variant (SUs+EUs,
/// +OCRA, +OCRA+HUS, NvWa) on 1 000 synthetic reads, measured at the change
/// that put the event queue on one heap and the unit pools on status words.
/// Before it: 11 725 / 11 585 / 11 243 / 16 344 allocations and 3.9 / 3.7 /
/// 3.6 / 4.3 MB, nearly all of them the event queue's per-cycle buckets and
/// tree nodes and the two vectors of each read-scheduler call. What is left is
/// the run's setup and the doubling growth of vectors that lengthen with
/// simulated time: three times the reads adds 16 to 25 allocations. The
/// bytes are those of the SU table's bucketed residency table (256 KiB for
/// 8 192 blocks, where the open-addressed table it replaced took 512 KiB).
const SIM_CEILINGS: [(u64, u64); 4] = [
    (279, 544_504),
    (265, 457_872),
    (270, 462_620),
    (293, 581_060),
];

#[test]
fn simulator_stays_within_its_allocation_budget() {
    let works = SyntheticWorkloadParams {
        reads: 1000,
        ..SyntheticWorkloadParams::default()
    }
    .generate(1);
    let variants = fig11::ablation_variants();
    assert_eq!(variants.len(), SIM_CEILINGS.len());
    for ((label, scheduling), (allocs_ceiling, bytes_ceiling)) in
        variants.into_iter().zip(SIM_CEILINGS)
    {
        let config = NvwaConfig {
            scheduling,
            ..NvwaConfig::paper()
        };
        start_counting();
        let report = simulate(&config, &works);
        let Counted { allocs, bytes, .. } = stop_counting();
        assert_eq!(report.reads, 1000);
        eprintln!("simulate {label}: {allocs} allocations, {bytes} bytes");
        assert!(
            allocs <= allocs_ceiling && bytes <= bytes_ceiling,
            "{label}: {allocs} allocations, {bytes} bytes, budget {allocs_ceiling} / {bytes_ceiling}"
        );
    }
}

/// Peak live heap of `build_suffix_array` over its output's bytes. Induced
/// sorting keeps its sorted LMS positions, their names and the reduced text
/// inside the output array; what it holds beside it is one type bit per
/// symbol and the bucket arrays of the levels below the top. The prefix
/// doubling it replaced held five `u32` arrays of n + 1 at once, 5.0×.
const SA_PEAK_OVER_OUTPUT: f64 = 2.0;

#[test]
fn suffix_array_build_peaks_within_twice_its_output() {
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 250_000,
            chromosomes: 4,
            ..ReferenceParams::default()
        },
        7,
    );
    let text = FmdIndex::doubled_text(genome.flat().codes());
    start_counting();
    let sa = build_suffix_array(&text);
    let Counted { live, peak, .. } = stop_counting();
    let output = std::mem::size_of_val(&sa[..]) as f64;
    assert_eq!(live as f64, output, "only the output may outlive the build");
    let ratio = peak as f64 / output;
    eprintln!("build_suffix_array: peak live heap {peak} bytes, {ratio:.3}x its output");
    assert!(
        ratio <= SA_PEAK_OVER_OUTPUT,
        "peak live heap {peak} bytes is {ratio:.3}x the {output} output bytes, \
         budget {SA_PEAK_OVER_OUTPUT}x"
    );
}
