//! Dataset registry mirroring Table 2 of the paper.

use crate::shapes;
use gre_pla::{generate_corner, DataHardness, HardnessConfig, SynthCorner};

/// The datasets of Table 2 plus the synthetic corner datasets of §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Amazon book sales popularity (SOSD).
    Books,
    /// Up-sampled Facebook user IDs (SOSD) — contains extreme outliers.
    Fb,
    /// Uniformly sampled OpenStreetMap locations (SOSD) — hardest overall.
    Osm,
    /// Wikipedia edit timestamps (SOSD) — contains duplicate keys.
    Wiki,
    /// Uniformly sampled Tweet IDs with tag COVID-19.
    Covid,
    /// Loci pairs in human chromosomes — locally hardest.
    Genome,
    /// Vote IDs from Stackoverflow.
    Stack,
    /// Partition keys from the WISE survey data.
    Wise,
    /// Repository IDs from libraries.io.
    Libio,
    /// History node IDs in OpenStreetMap.
    History,
    /// Planet IDs in OpenStreetMap — globally hardest (sharp CDF knee).
    Planet,
    /// Synthetic dataset positioned at a hardness-plane corner (§7).
    Synthetic(SynthCorner),
}

impl Dataset {
    /// The ten real datasets shown in the paper's heatmaps, ordered roughly
    /// from easy to difficult (the ordering used on the heatmap x-axis).
    pub const HEATMAP_DATASETS: [Dataset; 10] = [
        Dataset::Stack,
        Dataset::Wise,
        Dataset::Covid,
        Dataset::History,
        Dataset::Libio,
        Dataset::Books,
        Dataset::Planet,
        Dataset::Osm,
        Dataset::Fb,
        Dataset::Genome,
    ];

    /// The four datasets used in the drill-down figures (Fig 3, 5, 6, 8–11, 13):
    /// two easy (covid, libio), the locally hardest (genome) and the globally
    /// hardest (osm).
    pub const DRILLDOWN_DATASETS: [Dataset; 4] = [
        Dataset::Covid,
        Dataset::Libio,
        Dataset::Genome,
        Dataset::Osm,
    ];

    /// All real datasets (everything except the synthetic corners).
    pub const ALL_REAL: [Dataset; 11] = [
        Dataset::Books,
        Dataset::Fb,
        Dataset::Osm,
        Dataset::Wiki,
        Dataset::Covid,
        Dataset::Genome,
        Dataset::Stack,
        Dataset::Wise,
        Dataset::Libio,
        Dataset::History,
        Dataset::Planet,
    ];

    /// Name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Dataset::Books => "books".into(),
            Dataset::Fb => "fb".into(),
            Dataset::Osm => "osm".into(),
            Dataset::Wiki => "wiki".into(),
            Dataset::Covid => "covid".into(),
            Dataset::Genome => "genome".into(),
            Dataset::Stack => "stack".into(),
            Dataset::Wise => "wise".into(),
            Dataset::Libio => "libio".into(),
            Dataset::History => "history".into(),
            Dataset::Planet => "planet".into(),
            Dataset::Synthetic(c) => c.name().into(),
        }
    }

    /// Table 2's description of this dataset.
    pub fn description(&self) -> &'static str {
        match self {
            Dataset::Books => "Amazon book sales popularity",
            Dataset::Fb => "Upsampled Facebook user ID",
            Dataset::Osm => "Uniformly sampled OpenStreetMap locations",
            Dataset::Wiki => "Wikipedia article edit timestamps",
            Dataset::Covid => "Uniformly sampled Tweet ID with tag COVID-19",
            Dataset::Genome => "Loci pairs in human chromosomes",
            Dataset::Stack => "Vote ID from Stackoverflow",
            Dataset::Wise => "Partition key from the WISE data",
            Dataset::Libio => "Repository ID from libraries.io",
            Dataset::History => "History node ID in OpenStreetMap",
            Dataset::Planet => "Planet ID in OpenStreetMap",
            Dataset::Synthetic(_) => "Synthetic hardness-driven dataset (§7)",
        }
    }

    /// Generate `n` keys of this dataset (sorted ascending; strictly
    /// ascending except for wiki, the one dataset with duplicate keys).
    /// Deterministic per seed.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<u64> {
        if n == 0 {
            return Vec::new();
        }
        match self {
            // Easy, near-uniform identifier datasets.
            Dataset::Covid => shapes::uniform(n, 1 << 44, seed ^ 0xC0117D),
            Dataset::Stack => shapes::auto_increment_with_gaps(n, 0.02, 64, seed ^ 0x57AC),
            Dataset::Wise => shapes::uniform(n, 1 << 38, seed ^ 0x317E),
            Dataset::History => shapes::auto_increment_with_gaps(n, 0.10, 512, seed ^ 0x4157),
            Dataset::Libio => shapes::auto_increment_with_gaps(n, 0.05, 2_048, seed ^ 0x11B1),
            // Moderate: a log-normal popularity distribution.
            Dataset::Books => shapes::lognormal(n, 12.0, 1.4, 4096.0, seed ^ 0xB00C),
            // Globally hard: sharp knee in the CDF (Figure 1a).
            Dataset::Planet => shapes::deflected(n, 0.55, 1 << 22, seed ^ 0x914E7),
            // Globally and locally hard: clustered spatial projection.
            Dataset::Osm => shapes::clustered(n, 200, 1 << 56, seed ^ 0x05A1),
            // Locally hard: bumpy short runs (Figure 1b zoomed).
            Dataset::Genome => shapes::bumpy_runs(n, 48, seed ^ 0x6E40),
            // Up-sampled IDs with extreme outliers near the top of the domain.
            Dataset::Fb => shapes::with_outliers(n, 16.min(n / 10).max(1), seed ^ 0xFB),
            // Timestamps with duplicates.
            Dataset::Wiki => shapes::timestamps_with_duplicates(n, 0.25, seed ^ 0x3137),
            Dataset::Synthetic(corner) => generate_corner(*corner, n, seed),
        }
    }

    /// Compute the hardness coordinates of an `n`-key instance of this
    /// dataset (sub-sampled measurement; see
    /// [`DataHardness::compute_sampled`]).
    pub fn hardness(&self, n: usize, seed: u64, config: HardnessConfig) -> DataHardness {
        let mut keys = self.generate(n, seed);
        keys.dedup();
        DataHardness::compute_sampled(&keys, config, 200_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_real_datasets_generate_requested_size() {
        for ds in Dataset::ALL_REAL {
            let keys = ds.generate(4_000, 7);
            assert_eq!(keys.len(), 4_000, "{}", ds.name());
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "{} not sorted",
                ds.name()
            );
            if ds != Dataset::Wiki {
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "{} has unexpected duplicates",
                    ds.name()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in [Dataset::Osm, Dataset::Covid, Dataset::Wiki] {
            assert_eq!(ds.generate(2_000, 3), ds.generate(2_000, 3));
            assert_ne!(ds.generate(2_000, 3), ds.generate(2_000, 4));
        }
    }

    #[test]
    fn wiki_has_duplicates() {
        let wiki = Dataset::Wiki.generate(5_000, 1);
        assert!(wiki.windows(2).any(|w| w[0] == w[1]));
    }

    #[test]
    fn hardness_ordering_matches_the_paper() {
        // The drill-down datasets must be ordered as the paper reports:
        // covid and libio easy, genome locally hardest, osm/planet hard.
        let n = 60_000;
        let cfg = HardnessConfig::default();
        let covid = Dataset::Covid.hardness(n, 1, cfg);
        let libio = Dataset::Libio.hardness(n, 1, cfg);
        let genome = Dataset::Genome.hardness(n, 1, cfg);
        let osm = Dataset::Osm.hardness(n, 1, cfg);
        let planet = Dataset::Planet.hardness(n, 1, cfg);

        assert!(
            genome.local > covid.local && genome.local > libio.local,
            "genome local {} vs covid {} / libio {}",
            genome.local,
            covid.local,
            libio.local
        );
        assert!(
            osm.local > covid.local,
            "osm local {} vs covid {}",
            osm.local,
            covid.local
        );
        assert!(
            planet.global >= covid.global && osm.global >= covid.global,
            "planet {} osm {} covid {}",
            planet.global,
            osm.global,
            covid.global
        );
        // fb's outliers blow up the MSE metric far more than covid's.
        let fb = Dataset::Fb.hardness(n, 1, cfg);
        assert!(fb.single_line_mse > covid.single_line_mse);
    }

    #[test]
    fn profiles_and_names_are_consistent() {
        assert_eq!(Dataset::Osm.name(), "osm");
        assert_eq!(Dataset::Synthetic(SynthCorner::Easy).name(), "syn_easy");
        assert!(Dataset::Genome.description().contains("chromosomes"));
        assert_eq!(Dataset::HEATMAP_DATASETS.len(), 10);
        assert_eq!(Dataset::DRILLDOWN_DATASETS.len(), 4);
    }

    #[test]
    fn empty_generation_is_empty() {
        assert!(Dataset::Covid.generate(0, 1).is_empty());
    }
}
