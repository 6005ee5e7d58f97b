//! Species profiles for the multi-dataset sensitivity study (Fig. 14).
//!
//! The paper simulates reads with DWGSIM against six NCBI reference genomes.
//! Offline we cannot download them, so each species is represented by a
//! synthesis profile — genome scale, GC content and repeat structure — chosen
//! to produce distinct (but, for second-generation reads, *similar-shaped*)
//! hit-length distributions, which is exactly the property Fig. 14(b) relies
//! on.

use crate::reference::{ReferenceGenome, ReferenceParams};

/// One of the six species of Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Species {
    /// *Homo sapiens* (the NA12878 stand-in).
    HomoSapiens,
    /// *Clitarchus hookeri* (stick insect; large, repeat-rich genome).
    ClitarchusHookeri,
    /// *Zapus hudsonius* (meadow jumping mouse).
    ZapusHudsonius,
    /// *Camelus dromedarius* (dromedary).
    CamelusDromedarius,
    /// *Venustaconcha ellipsiformis* (freshwater mussel).
    VenustaconchaEllipsiformis,
    /// *Caenorhabditis elegans* (nematode; small, compact genome).
    CaenorhabditisElegans,
}

/// The Fig. 14 species in the paper's presentation order.
pub const ALL_SPECIES: [Species; 6] = [
    Species::HomoSapiens,
    Species::ClitarchusHookeri,
    Species::ZapusHudsonius,
    Species::CamelusDromedarius,
    Species::VenustaconchaEllipsiformis,
    Species::CaenorhabditisElegans,
];

impl Species {
    /// Short label used in the paper's figure ("H. s.", "C. h.", …).
    pub fn label(self) -> &'static str {
        match self {
            Species::HomoSapiens => "H. s.",
            Species::ClitarchusHookeri => "C. h.",
            Species::ZapusHudsonius => "Z. h.",
            Species::CamelusDromedarius => "C. d.",
            Species::VenustaconchaEllipsiformis => "V. e.",
            Species::CaenorhabditisElegans => "C. e.",
        }
    }

    /// Full binomial name.
    pub fn name(self) -> &'static str {
        match self {
            Species::HomoSapiens => "Homo sapiens",
            Species::ClitarchusHookeri => "Clitarchus hookeri",
            Species::ZapusHudsonius => "Zapus hudsonius",
            Species::CamelusDromedarius => "Camelus dromedarius",
            Species::VenustaconchaEllipsiformis => "Venustaconcha ellipsiformis",
            Species::CaenorhabditisElegans => "Caenorhabditis elegans",
        }
    }

    /// Stable machine key (snake-cased binomial) used to name tenants in
    /// the serving registry and on the wire.
    pub fn key(self) -> &'static str {
        match self {
            Species::HomoSapiens => "homo_sapiens",
            Species::ClitarchusHookeri => "clitarchus_hookeri",
            Species::ZapusHudsonius => "zapus_hudsonius",
            Species::CamelusDromedarius => "camelus_dromedarius",
            Species::VenustaconchaEllipsiformis => "venustaconcha_ellipsiformis",
            Species::CaenorhabditisElegans => "caenorhabditis_elegans",
        }
    }

    /// Parses a [`Species::key`] back to the species.
    pub fn from_key(key: &str) -> Option<Species> {
        ALL_SPECIES.into_iter().find(|s| s.key() == key)
    }

    /// Synthesis profile scaled for simulation (`scale` multiplies the base
    /// genome length; use 1.0 for tests, larger for evaluation runs).
    ///
    /// The relative genome sizes, GC contents and repeat fractions follow the
    /// real assemblies' broad statistics so the six datasets stress the
    /// accelerator differently.
    pub fn reference_params(self, scale: f64) -> ReferenceParams {
        let (base_len, gc, repeat_fraction) = match self {
            Species::HomoSapiens => (2_000_000, 0.41, 0.45),
            Species::ClitarchusHookeri => (2_600_000, 0.36, 0.60),
            Species::ZapusHudsonius => (1_800_000, 0.42, 0.40),
            Species::CamelusDromedarius => (1_600_000, 0.41, 0.35),
            Species::VenustaconchaEllipsiformis => (1_200_000, 0.35, 0.50),
            Species::CaenorhabditisElegans => (800_000, 0.35, 0.17),
        };
        ReferenceParams {
            total_len: ((base_len as f64) * scale).max(40_000.0) as usize,
            chromosomes: 4,
            gc_content: gc,
            repeat_fraction,
            ..ReferenceParams::default()
        }
    }

    /// Synthesizes this species' reference at the given scale.
    pub fn synthesize(self, scale: f64) -> ReferenceGenome {
        // Seed derived from the species so datasets are stable run to run.
        let seed = 0x5eed_0000 + self as u64;
        let mut genome = ReferenceGenome::synthesize(&self.reference_params(scale), seed);
        genome_rename(&mut genome, self.name());
        genome
    }
}

fn genome_rename(genome: &mut ReferenceGenome, name: &str) {
    // ReferenceGenome has no setter by design; rebuild with the right name.
    *genome = ReferenceGenome::from_chromosomes(name, genome.chromosomes().to_vec());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_species_have_distinct_profiles() {
        let params: Vec<_> = ALL_SPECIES
            .iter()
            .map(|s| s.reference_params(1.0))
            .collect();
        for i in 0..params.len() {
            for j in (i + 1)..params.len() {
                assert_ne!(params[i], params[j], "species {i} and {j} identical");
            }
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Species::HomoSapiens.label(), "H. s.");
        assert_eq!(Species::CaenorhabditisElegans.label(), "C. e.");
    }

    #[test]
    fn keys_round_trip() {
        for s in ALL_SPECIES {
            assert_eq!(Species::from_key(s.key()), Some(s));
        }
        assert_eq!(
            Species::from_key("homo_sapiens"),
            Some(Species::HomoSapiens)
        );
        assert_eq!(Species::from_key("tyrannosaurus_rex"), None);
    }

    #[test]
    fn synthesize_small_scale() {
        let g = Species::CaenorhabditisElegans.synthesize(0.05);
        assert_eq!(g.name(), "Caenorhabditis elegans");
        assert_eq!(g.total_len(), 40_000);
    }

    #[test]
    fn scale_multiplies_length() {
        let p1 = Species::HomoSapiens.reference_params(1.0);
        let p2 = Species::HomoSapiens.reference_params(2.0);
        assert_eq!(p2.total_len, p1.total_len * 2);
    }
}
