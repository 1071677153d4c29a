//! Snapshot exporters: Prometheus text format and JSON (through
//! [`gre_core::json::JsonWriter`]), plus a strict parser-validator for the
//! Prometheus output (used by the CI smoke checks).
//!
//! All metric names carry a `gre_` namespace prefix. Histograms export as
//! Prometheus *summaries*: `{quantile="..."}` samples plus `_sum`/`_count`,
//! which matches what a scrape of a pre-aggregated histogram should look
//! like (quantiles are computed at snapshot time, not by the server).

use crate::metrics::{CounterId, GaugeId, GlobalHistId, MetricsSnapshot, ShardHistId};
use gre_core::json::JsonWriter;
use gre_core::LatencyHistogram;
use std::fmt::Write as _;

/// Quantiles exported for every histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")];

fn summary(out: &mut String, name: &str, labels: &str, hist: &LatencyHistogram) {
    let comma = if labels.is_empty() { "" } else { "," };
    for (q, qs) in QUANTILES {
        let _ = writeln!(
            out,
            "gre_{name}{{{labels}{comma}quantile=\"{qs}\"}} {}",
            hist.percentile(q)
        );
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(
        out,
        "gre_{name}_sum{braces} {:.0}",
        hist.mean() * hist.count() as f64
    );
    let _ = writeln!(out, "gre_{name}_count{braces} {}", hist.count());
}

/// Render a snapshot in Prometheus text exposition format.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for id in CounterId::ALL {
        let _ = writeln!(out, "# HELP gre_{} {}", id.name(), id.help());
        let _ = writeln!(out, "# TYPE gre_{} counter", id.name());
        let _ = writeln!(out, "gre_{} {}", id.name(), snap.counter(id));
    }
    for id in GaugeId::ALL {
        let _ = writeln!(out, "# TYPE gre_{} gauge", id.name());
        for (s, shard) in snap.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "gre_{}{{shard=\"{s}\"}} {}",
                id.name(),
                shard.gauge(id)
            );
        }
    }
    let _ = writeln!(out, "# TYPE gre_shard_ops_completed counter");
    for (s, shard) in snap.shards.iter().enumerate() {
        let _ = writeln!(
            out,
            "gre_shard_ops_completed{{shard=\"{s}\"}} {}",
            shard.ops_completed
        );
    }
    for id in ShardHistId::ALL {
        let _ = writeln!(out, "# TYPE gre_{} summary", id.name());
        for (s, shard) in snap.shards.iter().enumerate() {
            summary(
                &mut out,
                id.name(),
                &format!("shard=\"{s}\""),
                shard.hist(id),
            );
        }
    }
    for id in GlobalHistId::ALL {
        let _ = writeln!(out, "# TYPE gre_{} summary", id.name());
        summary(&mut out, id.name(), "", snap.global(id));
    }
    out
}

fn json_hist(w: &mut JsonWriter, hist: &LatencyHistogram) {
    w.object(|w| {
        w.key("count").u64(hist.count());
        w.key("mean").f64(hist.mean());
        w.key("p50").u64(hist.percentile(0.5));
        w.key("p99").u64(hist.percentile(0.99));
        w.key("p999").u64(hist.percentile(0.999));
        w.key("max").u64(hist.max());
    });
}

/// Render a snapshot as JSON: `schema_version`, a counters object, one
/// object per shard, then the global histograms.
pub fn json_text(snap: &MetricsSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("schema_version").u64(1);
        w.key("counters").object(|w| {
            for id in CounterId::ALL {
                w.key(id.name()).u64(snap.counter(id));
            }
        });
        w.key("shards").array(|w| {
            for (s, shard) in snap.shards.iter().enumerate() {
                w.object(|w| {
                    w.key("shard").u64(s as u64);
                    for id in GaugeId::ALL {
                        w.key(id.name()).i64(shard.gauge(id));
                    }
                    w.key("ops_completed").u64(shard.ops_completed);
                    for id in ShardHistId::ALL {
                        json_hist(w.key(id.name()), shard.hist(id));
                    }
                });
            }
        });
        for id in GlobalHistId::ALL {
            json_hist(w.key(id.name()), snap.global(id));
        }
    });
    w.finish()
}

/// Strictly validate Prometheus text output: every non-comment line must be
/// `name{labels} value` with a well-formed name, balanced label syntax, and
/// a finite numeric value; every `# TYPE` family must have at least one
/// sample. Returns the number of samples.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed_families: Vec<(&str, usize)> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let fam = it.next().ok_or_else(|| format!("line {ln}: empty TYPE"))?;
            match it.next() {
                Some("counter" | "gauge" | "summary" | "histogram" | "untyped") => {}
                other => return Err(format!("line {ln}: bad metric type {other:?}")),
            }
            typed_families.push((fam, 0));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.find('}') {
            Some(close) => {
                let open = line
                    .find('{')
                    .ok_or_else(|| format!("line {ln}: '}}' without '{{'"))?;
                if open > close {
                    return Err(format!("line {ln}: mismatched braces"));
                }
                for pair in line[open + 1..close].split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {ln}: label without '='"))?;
                    if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {ln}: malformed label {pair:?}"));
                    }
                }
                (&line[..open], line[close + 1..].trim())
            }
            None => {
                let (n, v) = line
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: no value"))?;
                (n, v.trim())
            }
        };
        if name_part.is_empty()
            || !name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {ln}: bad metric name {name_part:?}"));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {ln}: non-numeric value {value_part:?}"))?;
        if !value.is_finite() {
            return Err(format!("line {ln}: non-finite value {value_part:?}"));
        }
        samples += 1;
        // Samples of family F are named F, F_sum, F_count, or F{...}.
        if let Some((_, n)) = typed_families.iter_mut().find(|(fam, _)| {
            name_part == *fam
                || name_part
                    .strip_prefix(fam)
                    .is_some_and(|s| s == "_sum" || s == "_count")
        }) {
            *n += 1;
        }
    }
    if let Some((fam, _)) = typed_families.iter().find(|(_, n)| *n == 0) {
        return Err(format!("family {fam} declared but has no samples"));
    }
    if samples == 0 {
        return Err(String::from("no samples"));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn populated_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new(2, 2);
        reg.stripe(0).add(CounterId::OpsCompleted, 100);
        reg.stripe(1).add(CounterId::GetHits, 60);
        reg.shard(0).gauge_add(GaugeId::QueueDepth, 3);
        reg.shard(1).add_ops_completed(40);
        for v in 1..=100u64 {
            reg.shard(0).hist(ShardHistId::ServiceNs).record(v * 1_000);
            reg.global(GlobalHistId::SessionWindow).record(v % 32);
        }
        reg.snapshot()
    }

    #[test]
    fn prometheus_text_validates_and_carries_values() {
        let text = prometheus_text(&populated_snapshot());
        let samples = validate_prometheus(&text).expect("valid exposition");
        assert!(samples > 30, "got {samples} samples");
        assert!(text.contains("gre_ops_completed 100"));
        assert!(text.contains("gre_shard_queue_depth{shard=\"0\"} 3"));
        assert!(text.contains("gre_shard_ops_completed{shard=\"1\"} 40"));
        assert!(text.contains("gre_service_ns{shard=\"0\",quantile=\"0.99\"}"));
        assert!(text.contains("gre_session_window_count 100"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("").is_err(), "no samples");
        assert!(validate_prometheus("gre_x notanumber").is_err());
        assert!(
            validate_prometheus("gre_x{shard=0} 1").is_err(),
            "unquoted label"
        );
        assert!(validate_prometheus("gre x 1").is_err(), "space in name");
        assert!(
            validate_prometheus("# TYPE gre_y counter\ngre_x 1").is_err(),
            "typed family without samples"
        );
        assert!(validate_prometheus("gre_x{a=\"1\",b=\"2\"} 4.5").is_ok());
    }

    #[test]
    fn json_text_is_structurally_balanced() {
        let json = json_text(&populated_snapshot());
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"ops_completed\": 100"));
        assert!(json.contains("\"session_window\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_text_golden_bytes() {
        let reg = MetricsRegistry::new(1, 1);
        reg.stripe(0).add(CounterId::OpsCompleted, 3);
        reg.shard(0).hist(ShardHistId::ServiceNs).record(1000);
        let json = json_text(&reg.snapshot());
        const EMPTY: &str = r#"{"count": 0, "mean": 0, "p50": 0, "p99": 0, "p999": 0, "max": 0}"#;
        assert!(json.starts_with(
            r#"{"schema_version": 1, "counters": {"ops_submitted": 0, "ops_completed": 3, "#
        ));
        assert!(json.ends_with(&format!(
            r#""recovery_replayed_ops": 0}}, "shards": [{{"shard": 0, "shard_queue_depth": 0, "shard_inflight_ops": 0, "ops_completed": 0, "sub_batch_size": {EMPTY}, "queue_wait_ns": {EMPTY}, "service_ns": {{"count": 1, "mean": 1000, "p50": 1000, "p99": 1000, "p999": 1000, "max": 1000}}}}], "session_window": {EMPTY}, "batch_ops": {EMPTY}}}"#
        )));
    }
}
