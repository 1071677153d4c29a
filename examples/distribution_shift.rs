//! What happens when the data distribution changes after deployment? (§6.2)
//! Bulk load an easy dataset (covid), then insert keys drawn from the hardest
//! dataset (osm) rescaled into the same domain, and compare against the
//! no-shift baseline.
//!
//! Run with `cargo run --release --example distribution_shift`.

use gre::core::Index;
use gre::datasets::Dataset;
use gre::learned::{Alex, Lipp};
use gre::traditional::Art;
use gre::workloads::{Driver, Scenario, WorkloadBuilder, WriteRatio};

fn main() {
    let n = 200_000;
    let builder = WorkloadBuilder::new(42);
    let covid = Dataset::Covid.generate(n, 42);
    let osm = Dataset::Osm.generate(n, 43);

    let baseline = builder.insert_workload("covid", &covid, WriteRatio::Balanced);
    let shifted = builder.shift_workload("covid->osm", &covid, &osm);

    for name in ["ALEX", "LIPP", "ART"] {
        // A fresh index per run; the result is its one phase's throughput.
        let mops = |scenario: &Scenario| {
            let mut index: Box<dyn Index<u64>> = match name {
                "ALEX" => Box::new(Alex::<u64>::new()),
                "LIPP" => Box::new(Lipp::<u64>::new()),
                _ => Box::new(Art::<u64>::new()),
            };
            Driver::new().run_in_place(scenario, index.as_mut()).phases[0].throughput_mops()
        };
        let (base, shift) = (mops(&baseline), mops(&shifted));
        let change = (shift - base) / base * 100.0;
        println!("{name:<6} baseline {base:.2} Mop/s, covid->osm {shift:.2} Mop/s ({change:+.1}%)");
    }
    println!("Learned indexes feel the shift; traditional indexes barely notice (Message 11).");
}
