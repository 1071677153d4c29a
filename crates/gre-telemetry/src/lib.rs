//! # gre-telemetry
//!
//! Lock-free runtime telemetry for the GRE serving stack, built so the
//! instrumented hot path costs a handful of relaxed atomic operations per
//! *batch* (not per op) and nothing at all when telemetry is not attached:
//!
//! * The static-id metrics registry, read through [`MetricsSnapshot`]:
//!   seven [`CounterId`] counters in per-worker cache-padded stripes, and
//!   concurrent log-linear histograms ([`ShardHistId::ServiceNs`] per
//!   shard, [`GlobalHistId::SessionWindow`] process-wide) that share
//!   [`gre_core::LatencyHistogram`]'s bucket layout and snapshot back into
//!   it. Each instrument is one the layer-tax ledger reads.
//! * [`TraceRing`], a fixed-capacity power-of-two ring of operation spans
//!   ([`SpanRecord`]) with seqlock-style readers, fed by a deterministic
//!   1-in-N sampler.
//!
//! [`Telemetry`] bundles the two with a shared monotonic epoch; the
//! serving layer (`gre-shard`) takes an `Option<Arc<Telemetry>>` and
//! records into it when present. See `docs/OBSERVABILITY.md` for the
//! metric catalog, the ledger row each metric feeds, and measured overhead.

mod metrics;
mod trace;

pub use metrics::{CounterId, GlobalHistId, MetricsSnapshot, ShardHistId, ShardSnapshot};
pub use trace::{SpanRecord, TraceRing};

use metrics::MetricsRegistry;
use trace::Sampler;

use std::time::Instant;

/// Construction-time sizing for [`Telemetry`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Shards served (one row of per-shard histograms each).
    pub shards: usize,
    /// Concurrent writers (one counter stripe each); typically the worker
    /// count plus one stripe for submitters.
    pub writers: usize,
    /// Trace ring capacity in slots; 0 disables span tracing entirely.
    pub trace_capacity: usize,
    /// Trace one in this many operations.
    pub trace_sample_one_in: u64,
}

/// One serving stack's telemetry: metrics registry + optional span tracer,
/// sharing a monotonic epoch so every recorded timestamp is comparable.
#[derive(Debug)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    trace: Option<TraceRing>,
    sampler: Sampler,
    epoch: Instant,
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            metrics: MetricsRegistry::new(config.shards, config.writers),
            trace: (config.trace_capacity > 0).then(|| TraceRing::new(config.trace_capacity)),
            sampler: Sampler::new(config.trace_sample_one_in),
            epoch: Instant::now(),
        }
    }

    /// The metrics registry.
    #[inline]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span tracer, when enabled.
    #[inline]
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// The shared 1-in-N op sampler feeding the tracer.
    #[inline]
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Nanoseconds since this telemetry's construction (the timestamp base
    /// for every span and histogram sample).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Snapshot the metrics registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(trace_capacity: usize) -> TelemetryConfig {
        TelemetryConfig {
            shards: 4,
            writers: 2,
            trace_capacity,
            trace_sample_one_in: 1,
        }
    }

    #[test]
    fn telemetry_bundles_metrics_and_trace() {
        let t = Telemetry::new(config(16));
        assert_eq!(t.metrics().shard_count(), 4);
        assert!(t.trace().is_some());
        t.sampler().claim(1);
        assert_eq!(
            t.sampler().claim(1),
            Some((1, 0)),
            "one in 1 traces every op"
        );
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
        t.metrics().stripe(0).inc(CounterId::OpsCompleted);
        assert_eq!(t.snapshot().counter(CounterId::OpsCompleted), 1);
    }

    #[test]
    fn trace_can_be_disabled() {
        assert!(Telemetry::new(config(0)).trace().is_none());
    }
}
