//! End-to-end accuracy: the paper claims NvWa's computing units are
//! "faithful to the standard read alignment software, which allows us to
//! have no loss of accuracy". In this reproduction the accelerator's
//! functional path *is* the software pipeline (the hardware model only
//! re-times it), so the accuracy contract is: the system's alignments are
//! bit-identical to the software aligner's, and both recover simulated
//! read origins.

use nvwa::align::pipeline::{
    AlignScratch, AlignerConfig, AlignmentOutcome, ReferenceIndex, SeedTrace, SoftwareAligner,
};
use nvwa::core::config::NvwaConfig;
use nvwa::core::system::NvwaSystem;
use nvwa::genome::reads::{Read, Strand};
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};

fn genome() -> ReferenceGenome {
    ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 120_000,
            chromosomes: 3,
            repeat_fraction: 0.25,
            ..ReferenceParams::default()
        },
        2024,
    )
}

/// `reads` aligned as one batch on the traced path.
fn align_all(aligner: &SoftwareAligner, reads: &[Read]) -> Vec<AlignmentOutcome> {
    let mut out = Vec::new();
    let batch = reads.iter().map(|r| (r.id, r.seq.codes()));
    aligner.align_batch(batch, &mut AlignScratch::new(), SeedTrace::Record, &mut out);
    out
}

#[test]
fn accelerator_output_is_bit_identical_to_software() {
    let genome = genome();
    let system = NvwaSystem::build(&genome, &NvwaConfig::small_test());
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());

    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 77);
    let reads = sim.simulate_reads(150);
    let (_, accel_alignments) = system.run_detailed(&reads);
    let sw = align_all(&aligner, &reads);
    for ((read, accel), sw) in reads.iter().zip(&accel_alignments).zip(sw) {
        assert_eq!(accel, &sw.alignment, "read {} diverged", read.id);
    }
}

#[test]
fn most_reads_map_to_their_simulated_origin() {
    let genome = genome();
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 5);
    let reads = sim.simulate_reads(200);

    let mut mapped = 0;
    let mut correct_pos = 0;
    let mut correct_strand = 0;
    for (read, outcome) in reads.iter().zip(align_all(&aligner, &reads)) {
        let Some(a) = outcome.alignment else {
            continue;
        };
        mapped += 1;
        if (a.flat_pos as i64 - read.origin.flat_pos as i64).abs() <= 20 {
            correct_pos += 1;
        }
        if a.is_rc == (read.origin.strand == Strand::Reverse) {
            correct_strand += 1;
        }
    }
    assert!(mapped >= 190, "only {mapped}/200 mapped");
    assert!(
        correct_pos * 100 >= mapped * 90,
        "{correct_pos}/{mapped} at origin"
    );
    assert!(
        correct_strand * 100 >= mapped * 95,
        "{correct_strand}/{mapped} strand"
    );
}

#[test]
fn alignment_scores_are_internally_consistent() {
    let genome = genome();
    let index = ReferenceIndex::build(&genome, 32);
    let config = AlignerConfig::default();
    let aligner = SoftwareAligner::new(&index, config);
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 31);
    for outcome in align_all(&aligner, &sim.simulate_reads(100)) {
        if let Some(a) = outcome.alignment {
            // The reported score always equals the CIGAR's score.
            assert_eq!(a.cigar.score(&config.scoring), a.score);
            // A 101 bp read can never score above 101.
            assert!(a.score <= 101);
            // The transcript consumes no more than the read.
            assert!(a.cigar.query_len() <= 101);
            assert!(a.mapq <= 60);
        }
    }
}

#[test]
fn error_free_reads_score_perfectly() {
    let genome = genome();
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let params = ReadSimParams {
        sub_rate: 0.0,
        ins_rate: 0.0,
        del_rate: 0.0,
        ..ReadSimParams::illumina_101()
    };
    let mut sim = ReadSimulator::new(&genome, params, 8);
    let mut perfect = 0;
    let reads = sim.simulate_reads(80);
    for outcome in align_all(&aligner, &reads) {
        if let Some(a) = outcome.alignment {
            if a.score == 101 {
                perfect += 1;
                assert_eq!(a.cigar.to_string(), "101=");
            }
        }
    }
    assert!(perfect >= 75, "only {perfect}/80 perfect alignments");
}

#[test]
fn workload_profiles_are_consistent_with_alignments() {
    let genome = genome();
    let index = ReferenceIndex::build(&genome, 32);
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
    let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 13);
    let reads = sim.simulate_reads(60);
    for (read, outcome) in reads.iter().zip(align_all(&aligner, &reads)) {
        let p = &outcome.profile;
        // Seeding always probes the index.
        assert!(!p.seeding_trace.is_empty());
        // Hits have consistent geometry.
        for t in &p.hit_tasks {
            assert_eq!(t.hit_len(), t.query_len);
            assert!(t.read_pos.1 as usize <= read.seq.len());
        }
        // Mapped reads imply located candidates.
        if outcome.alignment.is_some() {
            assert!(p.located_hits > 0);
        }
    }
}
