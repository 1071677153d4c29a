//! Telemetry overhead budget regression: the instrumented read-only
//! pipeline cell must stay close to the uninstrumented one. The ledger's
//! `telemetry.overhead_share` row measures the overhead itself (see
//! `docs/OBSERVABILITY.md`); this test enforces a loose bound so it stays
//! meaningful-but-stable on noisy shared CI runners — it exists to catch a
//! *regression class* (an accidental lock, syscall, or per-op clock read on
//! the hot path), which shows up as tens of percent, not single digits.

use gre_bench::overhead::telemetry_overhead_probe;
use gre_bench::RunOpts;

#[test]
fn instrumented_throughput_stays_within_budget() {
    let opts = RunOpts::parse(["--quick", "--threads", "4"].iter().map(|s| s.to_string()))
        .expect("valid flags");
    let probe = telemetry_overhead_probe(&opts, 2);
    assert!(
        probe.base_mops > 0.0 && probe.instrumented_mops > 0.0,
        "both runs must complete: {probe:?}"
    );
    let ratio = probe.ratio();
    assert!(
        ratio >= 0.70,
        "telemetry costs more than 30% on the read-only pipeline cell \
         (base {:.3} Mop/s, instrumented {:.3} Mop/s, ratio {ratio:.3}) — \
         something expensive crept onto the hot path",
        probe.base_mops,
        probe.instrumented_mops
    );
}
