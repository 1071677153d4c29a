//! # gre-telemetry
//!
//! Lock-free runtime telemetry for the GRE serving stack, built so the
//! instrumented hot path costs a handful of relaxed atomic operations per
//! *batch* (not per op) and nothing at all when telemetry is not attached:
//!
//! * [`metrics`] — the static-id metrics registry: per-worker cache-padded
//!   counter stripes, per-shard gauges, and concurrent log-linear
//!   histograms ([`metrics::AtomicHistogram`]) that share
//!   [`gre_core::latency::LatencyHistogram`]'s bucket layout and snapshot
//!   back into it.
//! * [`trace`] — [`trace::TraceRing`], a fixed-capacity power-of-two ring
//!   of operation spans with seqlock-style readers, fed by a deterministic
//!   1-in-N [`trace::Sampler`].
//!
//! [`Telemetry`] bundles the two with a shared monotonic epoch; the
//! serving layer (`gre-shard`) takes an `Option<Arc<Telemetry>>` and
//! records into it when present. See `docs/OBSERVABILITY.md` for the
//! metric catalog and measured overhead.

pub mod metrics;
pub mod trace;

pub use metrics::{
    AtomicHistogram, CounterId, CounterStripe, GaugeId, GlobalHistId, MetricsRegistry,
    MetricsSnapshot, ShardHistId, ShardScope, ShardSnapshot,
};
pub use trace::{Sampler, SpanRecord, TraceRing};

use std::sync::Arc;
use std::time::Instant;

/// Default trace ring capacity (slots).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Default span sampling period: one traced op per this many submitted ops.
pub const DEFAULT_TRACE_SAMPLE: u64 = 1024;

/// Construction-time sizing for [`Telemetry`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Shards served (one gauge/histogram scope each).
    pub shards: usize,
    /// Concurrent writers (one counter stripe each); typically the worker
    /// count plus one stripe for submitters.
    pub writers: usize,
    /// Trace ring capacity in slots; 0 disables span tracing entirely.
    pub trace_capacity: usize,
    /// Trace one in this many operations.
    pub trace_sample_one_in: u64,
}

impl TelemetryConfig {
    /// Tracing-enabled defaults for `shards` shards and `writers` writers.
    pub fn new(shards: usize, writers: usize) -> TelemetryConfig {
        TelemetryConfig {
            shards,
            writers,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            trace_sample_one_in: DEFAULT_TRACE_SAMPLE,
        }
    }

    /// Disable the span tracer (metrics only).
    pub fn without_trace(mut self) -> TelemetryConfig {
        self.trace_capacity = 0;
        self
    }

    /// Set the trace sampling period (1 = trace everything).
    pub fn trace_sample(mut self, one_in: u64) -> TelemetryConfig {
        self.trace_sample_one_in = one_in.max(1);
        self
    }
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

    /// Telemetry with the tracing-enabled defaults of
    /// [`TelemetryConfig::new`] for `shards` shards and `writers` writers,
    /// wrapped for sharing.
    pub fn shared(shards: usize, writers: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry::new(TelemetryConfig::new(shards, writers)))
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

    #[test]
    fn telemetry_bundles_metrics_and_trace() {
        let t = Telemetry::new(TelemetryConfig::new(4, 2).trace_sample(1));
        assert_eq!(t.metrics().shard_count(), 4);
        assert!(t.trace().is_some());
        assert_eq!(t.sampler().one_in(), 1);
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
        t.metrics().stripe(0).inc(CounterId::OpsCompleted);
        assert_eq!(t.snapshot().counter(CounterId::OpsCompleted), 1);
    }

    #[test]
    fn trace_can_be_disabled() {
        let t = Telemetry::new(TelemetryConfig::new(1, 1).without_trace());
        assert!(t.trace().is_none());
        let shared = Telemetry::shared(2, 2);
        assert!(shared.trace().is_some());
    }
}
