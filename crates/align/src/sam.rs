//! Minimal SAM (Sequence Alignment/Map) output.
//!
//! Enough of the format for the examples and the CLI to emit inspectable
//! alignments: `@HD`/`@SQ` headers and the eleven mandatory fields, with
//! soft-clips derived from the unconsumed read ends.

use std::fmt::Write as _;

use nvwa_genome::reads::Read;
use nvwa_genome::reference::ReferenceGenome;

use crate::cigar::{Cigar, CigarOp};
use crate::pipeline::Alignment;

/// SAM flag bit: read is reverse-complemented.
pub const FLAG_REVERSE: u16 = 0x10;
/// SAM flag bit: read is unmapped.
pub const FLAG_UNMAPPED: u16 = 0x4;

/// Renders the SAM header for a genome.
pub fn header(genome: &ReferenceGenome) -> String {
    let mut out = String::from("@HD\tVN:1.6\tSO:unknown\n");
    for c in genome.chromosomes() {
        let _ = writeln!(out, "@SQ\tSN:{}\tLN:{}", c.name, c.seq.len());
    }
    out.push_str("@PG\tID:nvwa\tPN:nvwa\tVN:0.1.0\n");
    out
}

/// Converts an internal CIGAR to SAM text with soft-clips for the
/// unconsumed read prefix/suffix.
pub fn sam_cigar(cigar: &Cigar, read_len: usize) -> String {
    let consumed = cigar.query_len();
    let clip_total = read_len.saturating_sub(consumed);
    // Without consumed-prefix bookkeeping we place all clipping at the
    // higher-coordinate end unless the alignment is empty.
    let mut out = String::new();
    if cigar.is_empty() {
        return "*".to_string();
    }
    for &(op, len) in cigar.runs() {
        let ch = match op {
            CigarOp::Match => '=',
            CigarOp::Subst => 'X',
            CigarOp::Ins => 'I',
            CigarOp::Del => 'D',
        };
        let _ = write!(out, "{len}{ch}");
    }
    if clip_total > 0 {
        let _ = write!(out, "{clip_total}S");
    }
    out
}

/// Renders one read's alignment (or unmapped record) as a SAM line.
pub fn record(genome: &ReferenceGenome, read: &Read, alignment: Option<&Alignment>) -> String {
    match alignment {
        None => format!(
            "read{}\t{}\t*\t0\t0\t*\t*\t0\t0\t{}\t*",
            read.id, FLAG_UNMAPPED, read.seq
        ),
        Some(a) => {
            let (chrom_idx, offset) = genome.locate(a.flat_pos as usize);
            let seq = if a.is_rc {
                read.seq.revcomp()
            } else {
                read.seq.clone()
            };
            format!(
                "read{}\t{}\t{}\t{}\t{}\t{}\t*\t0\t0\t{}\t*\tAS:i:{}",
                read.id,
                if a.is_rc { FLAG_REVERSE } else { 0 },
                genome.chromosomes()[chrom_idx].name,
                offset + 1,
                a.mapq,
                sam_cigar(&a.cigar, read.seq.len()),
                seq,
                a.score
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{
        AlignScratch, AlignerConfig, ReferenceIndex, SeedTrace, SoftwareAligner,
    };
    use nvwa_genome::reads::{ReadSimParams, ReadSimulator};
    use nvwa_genome::reference::ReferenceParams;

    fn setup() -> (ReferenceGenome, ReferenceIndex) {
        let genome = ReferenceGenome::synthesize(
            &ReferenceParams {
                total_len: 30_000,
                chromosomes: 2,
                ..ReferenceParams::default()
            },
            17,
        );
        let index = ReferenceIndex::build(&genome, 32);
        (genome, index)
    }

    #[test]
    fn header_lists_chromosomes() {
        let (genome, _) = setup();
        let h = header(&genome);
        assert!(h.starts_with("@HD"));
        assert!(h.contains("@SQ\tSN:chr1"));
        assert!(h.contains("@SQ\tSN:chr2"));
    }

    #[test]
    fn mapped_records_have_eleven_plus_fields() {
        let (genome, index) = setup();
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 3);
        let read = sim.simulate_read();
        let mut out = Vec::new();
        let batch = [(read.id, read.seq.codes())];
        aligner.align_batch(batch, &mut AlignScratch::new(), SeedTrace::Record, &mut out);
        let a = out[0].alignment.clone().expect("mapped");
        let line = record(&genome, &read, Some(&a));
        let fields: Vec<&str> = line.split('\t').collect();
        assert!(fields.len() >= 11, "{line}");
        assert!(fields[3].parse::<u64>().unwrap() >= 1, "1-based pos");
        assert_eq!(fields[9].len(), 101);
        assert!(fields.last().unwrap().starts_with("AS:i:"));
    }

    #[test]
    fn unmapped_record_uses_flag_4() {
        let (genome, _) = setup();
        let mut sim = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), 5);
        let read = sim.simulate_read();
        let line = record(&genome, &read, None);
        assert!(line.contains("\t4\t*\t0\t0\t*"));
    }

    #[test]
    fn cigar_gets_soft_clips() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match, 90);
        assert_eq!(sam_cigar(&c, 101), "90=11S");
        assert_eq!(sam_cigar(&Cigar::new(), 101), "*");
    }
}
