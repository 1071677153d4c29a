//! How hard is my data? Compute the paper's PLA-based hardness coordinates
//! for the emulated real datasets and the synthetic corner datasets, which is
//! the information a practitioner needs to decide whether a learned index is
//! the right choice (§3.2, §9).
//!
//! Run with `cargo run --release --example hardness_analysis`.

use gre::datasets::Dataset;
use gre::pla::{generate_corner, DataHardness, HardnessConfig, SynthCorner};

fn main() {
    let n = 200_000;
    println!(
        "{:<20} {:>12} {:>12} {:>14}",
        "dataset", "H(eps=32)", "H(eps=4096)", "1-line MSE"
    );
    for ds in Dataset::ALL_REAL {
        let h = ds.hardness(n, 42, HardnessConfig::default());
        println!(
            "{:<20} {:>12} {:>12} {:>14.3e}",
            ds.name(),
            h.local,
            h.global,
            h.single_line_mse
        );
    }
    println!("\nSynthetic corner datasets (Figure 15):");
    for corner in SynthCorner::ALL {
        let keys = generate_corner(corner, n, 42);
        let h = DataHardness::compute_default(&keys);
        println!("{:<20} {:>12} {:>12}", corner.name(), h.local, h.global);
    }
    println!("\nEasy data ⇒ learned indexes win; hard data + heavy writes ⇒ prefer ART/B+tree (Message 3).");
}
