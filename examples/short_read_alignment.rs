//! Short-read alignment as a library user would run it: index a reference,
//! align a FASTQ-style batch, and emit SAM-like records — then compare the
//! scheduling ablations on the same workload.
//!
//! ```text
//! cargo run --release --example short_read_alignment
//! ```

use nvwa::align::pipeline::{
    AlignScratch, AlignerConfig, ReferenceIndex, SeedTrace, SoftwareAligner,
};
use nvwa::core::config::{NvwaConfig, SchedulingConfig};
use nvwa::core::system::simulate;
use nvwa::core::units::workload::ReadWork;
use nvwa::genome::fasta::reads_to_fastq;
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};

fn main() {
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 150_000,
            chromosomes: 2,
            ..ReferenceParams::default()
        },
        3,
    );
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 9);
    let reads = sim.simulate_reads(300);
    println!("FASTQ preview:\n{}", &reads_to_fastq(&reads[..2]));

    // Align the batch on the hardware-trace path (the simulator replays
    // the seeding trace), and print SAM-ish records for the first few reads.
    println!("read  flag  chrom  pos     mapq  cigar");
    let mut out = Vec::new();
    let batch = reads.iter().map(|r| (r.id, r.seq.codes()));
    aligner.align_batch(batch, &mut AlignScratch::new(), SeedTrace::Record, &mut out);
    let mut works = Vec::new();
    for (read, outcome) in reads.iter().zip(&out) {
        if let Some(a) = &outcome.alignment {
            let (chrom_idx, offset) = genome.locate(a.flat_pos as usize);
            if read.id < 8 {
                println!(
                    "r{:<4} {:>4}  {:<6} {:<7} {:>4}  {}",
                    a.read_id,
                    if a.is_rc { 16 } else { 0 },
                    genome.chromosomes()[chrom_idx].name,
                    offset + 1,
                    a.mapq,
                    a.cigar
                );
            }
        }
        works.push(ReadWork::from_outcome(read.id, outcome));
    }

    // Run the hardware ablations on exactly this workload.
    println!("\naccelerator ablations on this workload:");
    for (name, sched) in [
        ("SUs+EUs (unscheduled)", SchedulingConfig::baseline()),
        ("NvWa (full scheduling)", SchedulingConfig::nvwa()),
    ] {
        let config = NvwaConfig {
            scheduling: sched,
            ..NvwaConfig::paper()
        };
        let report = simulate(&config, &works);
        println!(
            "  {name}: {:.1} K reads/s (SU {:.0}%, EU {:.0}%, correct alloc {:.0}%)",
            report.kreads_per_sec().unwrap_or(0.0),
            report.su_utilization * 100.0,
            report.eu_utilization * 100.0,
            report.overall_correct_allocation() * 100.0
        );
    }
}
