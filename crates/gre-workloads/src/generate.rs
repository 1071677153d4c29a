//! Workload builders (§3.3, §4.4, §6.2, §6.3, Appendix E).
//!
//! Each builder takes a dataset's key array and produces a one-phase replay
//! [`Scenario`]: the entries to bulk load plus the timed request stream,
//! replayed once by one closed-loop client ([`Scenario::closed_loop`] fans
//! it out over more). Key selection follows the paper: keys are randomly
//! shuffled, the first half (or all of them for read-only workloads) is bulk
//! loaded, and the remaining keys feed the insert stream while lookups
//! target already-loaded keys.

use crate::scenario::{Phase, Scenario};
use crate::spec::{payload_for, Op, WriteRatio};
use crate::zipf::ScrambledZipf;
use gre_core::{Payload, RangeSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// YCSB workload variants (Appendix E). All three use Zipfian key selection
/// with constant 0.99 and touch only pre-loaded keys (updates, no inserts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbVariant {
    /// 50% lookups / 50% updates.
    A,
    /// 95% lookups / 5% updates.
    B,
    /// 100% lookups.
    C,
}

impl YcsbVariant {
    fn update_fraction(&self) -> f64 {
        match self {
            YcsbVariant::A => 0.5,
            YcsbVariant::B => 0.05,
            YcsbVariant::C => 0.0,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            YcsbVariant::A => "YCSB-A",
            YcsbVariant::B => "YCSB-B",
            YcsbVariant::C => "YCSB-C",
        }
    }
}

/// Builder for all the workloads of the study. Lookup-bearing workloads
/// issue one timed lookup per key (the paper issues 800M lookups over 200M
/// keys, ×4; the scaled-down runs here use ×1).
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    /// RNG seed.
    seed: u64,
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        WorkloadBuilder { seed: 0x6e5e }
    }
}

impl WorkloadBuilder {
    pub fn new(seed: u64) -> Self {
        WorkloadBuilder { seed }
    }

    /// The five-point insert workload axis of the heatmaps (§3.3).
    ///
    /// * Read-Only: bulk load all keys, issue n lookups.
    /// * Read-Intensive/Balanced/Write-Heavy: bulk load a random half, then a
    ///   mixed stream in which inserts eventually add all remaining keys.
    /// * Write-Only: bulk load half, insert the other half.
    pub fn insert_workload(&self, name: &str, keys: &[u64], ratio: WriteRatio) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1a2b);
        let mut shuffled: Vec<u64> = keys.to_vec();
        shuffled.shuffle(&mut rng);

        let full_name = format!("{name}/{}", ratio.label());
        match ratio {
            WriteRatio::ReadOnly => {
                let bulk = sorted_entries(&shuffled);
                let ops = (0..keys.len())
                    .map(|_| Op::Get(shuffled[rng.gen_range(0..shuffled.len())]))
                    .collect();
                self.replay(full_name, bulk, ops)
            }
            _ => {
                let half = shuffled.len() / 2;
                let (loaded, to_insert) = shuffled.split_at(half.max(1));
                let bulk = sorted_entries(loaded);
                let write_frac = ratio.write_fraction();
                // The stream ends when all remaining keys have been inserted;
                // lookups are interleaved to reach the requested ratio.
                let insert_count = to_insert.len();
                let total_ops = if write_frac > 0.0 {
                    (insert_count as f64 / write_frac).round() as usize
                } else {
                    insert_count
                };
                let mut ops = Vec::with_capacity(total_ops);
                let mut inserted = 0usize;
                for i in 0..total_ops {
                    let want_insert = ((i + 1) as f64 * write_frac).round() as usize;
                    if inserted < want_insert && inserted < insert_count {
                        let k = to_insert[inserted];
                        ops.push(Op::Insert(k, payload_for(k)));
                        inserted += 1;
                    } else {
                        // Lookups target keys that are certainly present.
                        let k = loaded[rng.gen_range(0..loaded.len())];
                        ops.push(Op::Get(k));
                    }
                }
                // Make sure every remaining key really gets inserted.
                while inserted < insert_count {
                    let k = to_insert[inserted];
                    ops.push(Op::Insert(k, payload_for(k)));
                    inserted += 1;
                }
                self.replay(full_name, bulk, ops)
            }
        }
    }

    /// Deletion workloads (§4.4): bulk load *all* keys, then issue a
    /// lookup/delete mix until half of the keys have been deleted.
    pub fn delete_workload(&self, name: &str, keys: &[u64], delete_fraction: f64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x3c4d);
        let mut shuffled: Vec<u64> = keys.to_vec();
        shuffled.shuffle(&mut rng);
        let bulk = sorted_entries(&shuffled);
        let to_delete = shuffled.len() / 2;
        let delete_fraction = delete_fraction.clamp(0.0, 1.0);
        let total_ops = if delete_fraction > 0.0 {
            (to_delete as f64 / delete_fraction).round() as usize
        } else {
            keys.len()
        };
        let mut ops = Vec::with_capacity(total_ops);
        let mut deleted = 0usize;
        for i in 0..total_ops {
            let want_deleted = ((i + 1) as f64 * delete_fraction).round() as usize;
            if deleted < want_deleted && deleted < to_delete {
                ops.push(Op::Remove(shuffled[deleted]));
                deleted += 1;
            } else {
                // Look up keys from the not-yet-deleted tail so lookups hit.
                let k = shuffled[rng.gen_range(to_delete.min(shuffled.len() - 1)..shuffled.len())];
                ops.push(Op::Get(k));
            }
        }
        self.replay(
            format!("{name}/delete-{:.0}%", delete_fraction * 100.0),
            bulk,
            ops,
        )
    }

    /// Range-scan workload (§6.3): bulk load everything, issue `num_queries`
    /// scans of `scan_size` keys each from random start keys.
    pub fn range_workload(
        &self,
        name: &str,
        keys: &[u64],
        scan_size: usize,
        num_queries: usize,
    ) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5e6f);
        let bulk = sorted_entries(keys);
        let ops = (0..num_queries)
            .map(|_| {
                Op::Range(RangeSpec::new(
                    keys[rng.gen_range(0..keys.len())],
                    scan_size,
                ))
            })
            .collect();
        self.replay(format!("{name}/scan-{scan_size}"), bulk, ops)
    }

    /// Distribution-shift workload (§6.2): bulk load keys of dataset `x`,
    /// then run a balanced stream whose inserts come from dataset `y`
    /// (rescaled into `x`'s key domain) and whose lookups target keys of `x`.
    pub fn shift_workload(&self, name: &str, x: &[u64], y: &[u64]) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7a8b);
        let bulk = sorted_entries(x);
        let scaled_y = rescale_to_domain(y, x);
        let total_ops = scaled_y.len() * 2;
        let mut ops = Vec::with_capacity(total_ops);
        let mut it = scaled_y.iter();
        for i in 0..total_ops {
            if i % 2 == 0 {
                if let Some(&k) = it.next() {
                    ops.push(Op::Insert(k, payload_for(k)));
                    continue;
                }
            }
            ops.push(Op::Get(x[rng.gen_range(0..x.len())]));
        }
        self.replay(name.to_string(), bulk, ops)
    }

    /// YCSB workload (Appendix E): bulk load everything, Zipfian(0.99)
    /// lookups/updates over the loaded keys, no inserts.
    pub fn ycsb(&self, name: &str, keys: &[u64], variant: YcsbVariant, num_ops: usize) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9cad);
        let bulk = sorted_entries(keys);
        let zipf = ScrambledZipf::new(keys.len(), 0.99);
        let update_frac = variant.update_fraction();
        let ops = (0..num_ops)
            .map(|_| {
                let k = keys[zipf.sample(&mut rng)];
                if rng.gen_bool(update_frac) {
                    Op::Update(k, payload_for(k).wrapping_add(1))
                } else {
                    Op::Get(k)
                }
            })
            .collect();
        self.replay(format!("{name}/{}", variant.name()), bulk, ops)
    }

    /// The one-phase scenario every builder returns: `bulk` loaded, then
    /// `ops` replayed once by one closed-loop client.
    fn replay(&self, name: String, bulk: Vec<(u64, Payload)>, ops: Vec<Op>) -> Scenario {
        let phase = Phase::replay(&name, Arc::new(ops), 1);
        Scenario {
            name,
            seed: self.seed,
            bulk,
            phases: vec![phase],
        }
    }
}

/// Deduplicate, sort and attach payloads to a set of keys for bulk loading.
fn sorted_entries(keys: &[u64]) -> Vec<(u64, Payload)> {
    let mut sorted: Vec<u64> = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.into_iter().map(|k| (k, payload_for(k))).collect()
}

/// Linearly rescale the keys of `src` into the key domain of `dst`,
/// preserving `src`'s distribution shape (used by the shift workload: "the
/// keys of both datasets are scaled to the same domain").
fn rescale_to_domain(src: &[u64], dst: &[u64]) -> Vec<u64> {
    if src.is_empty() || dst.is_empty() {
        return Vec::new();
    }
    let (src_min, src_max) = (min_of(src) as f64, max_of(src) as f64);
    let (dst_min, dst_max) = (min_of(dst) as f64, max_of(dst) as f64);
    let src_span = (src_max - src_min).max(1.0);
    let dst_span = (dst_max - dst_min).max(1.0);
    src.iter()
        .map(|&k| {
            let t = (k as f64 - src_min) / src_span;
            (dst_min + t * dst_span) as u64
        })
        .collect()
}

fn min_of(keys: &[u64]) -> u64 {
    *keys.iter().min().expect("non-empty")
}

fn max_of(keys: &[u64]) -> u64 {
    *keys.iter().max().expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OpSource;
    use gre_core::RequestKind;

    fn keys(n: u64) -> Vec<u64> {
        (1..=n).map(|i| i * 97).collect()
    }

    /// The replayed stream of a builder's one-phase, one-client scenario.
    fn ops(s: &Scenario) -> &[Op] {
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].threads, 1);
        match &s.phases[0].source {
            OpSource::Replay(ops) => ops,
            OpSource::Synthetic { .. } => panic!("builders replay materialized streams"),
        }
    }

    fn write_ops(s: &Scenario) -> usize {
        ops(s).iter().filter(|o| o.is_write()).count()
    }

    fn write_fraction(s: &Scenario) -> f64 {
        write_ops(s) as f64 / ops(s).len() as f64
    }

    #[test]
    fn read_only_bulk_loads_everything() {
        let b = WorkloadBuilder::new(1);
        let w = b.insert_workload("t", &keys(1000), WriteRatio::ReadOnly);
        assert_eq!(w.bulk.len(), 1000);
        assert_eq!(ops(&w).len(), 1000);
        assert!(ops(&w).iter().all(|o| o.kind() == RequestKind::Get));
        // Bulk entries are sorted and unique.
        assert!(w.bulk.windows(2).all(|p| p[0].0 < p[1].0));
    }

    #[test]
    fn mixed_workloads_hit_the_requested_write_fraction() {
        let b = WorkloadBuilder::new(2);
        for ratio in [
            WriteRatio::ReadIntensive,
            WriteRatio::Balanced,
            WriteRatio::WriteHeavy,
        ] {
            let w = b.insert_workload("t", &keys(2000), ratio);
            assert_eq!(w.bulk.len(), 1000);
            let frac = write_fraction(&w);
            assert!(
                (frac - ratio.write_fraction()).abs() < 0.02,
                "{ratio:?}: got {frac}"
            );
            // All remaining keys get inserted exactly once.
            let inserts = ops(&w).iter().filter(|o| o.is_write()).count();
            assert_eq!(inserts, 1000);
        }
    }

    #[test]
    fn write_only_inserts_the_other_half() {
        let b = WorkloadBuilder::new(3);
        let w = b.insert_workload("t", &keys(2000), WriteRatio::WriteOnly);
        assert_eq!(w.bulk.len(), 1000);
        assert_eq!(ops(&w).len(), 1000);
        assert!(ops(&w).iter().all(|o| matches!(o, Op::Insert(_, _))));
        // No inserted key is already in the bulk set.
        let bulk_keys: std::collections::HashSet<u64> = w.bulk.iter().map(|e| e.0).collect();
        for op in ops(&w) {
            if let Op::Insert(k, _) = op {
                assert!(!bulk_keys.contains(k));
            }
        }
    }

    #[test]
    fn delete_workload_removes_half() {
        let b = WorkloadBuilder::new(4);
        let w = b.delete_workload("t", &keys(2000), 0.5);
        assert_eq!(w.bulk.len(), 2000);
        let removes = ops(&w)
            .iter()
            .filter(|o| matches!(o, Op::Remove(_)))
            .count();
        assert_eq!(removes, 1000);
        assert!((write_fraction(&w) - 0.5).abs() < 0.02);
        // Deleted keys are unique.
        let mut deleted: Vec<u64> = ops(&w)
            .iter()
            .filter_map(|o| match o {
                Op::Remove(k) => Some(*k),
                _ => None,
            })
            .collect();
        deleted.sort_unstable();
        deleted.dedup();
        assert_eq!(deleted.len(), 1000);
    }

    #[test]
    fn delete_workload_read_only_point() {
        let b = WorkloadBuilder::new(4);
        let w = b.delete_workload("t", &keys(500), 0.0);
        assert!(ops(&w).iter().all(|o| !o.is_write()));
    }

    #[test]
    fn range_workload_shape() {
        let b = WorkloadBuilder::new(5);
        let w = b.range_workload("t", &keys(1000), 100, 50);
        assert_eq!(ops(&w).len(), 50);
        assert!(ops(&w)
            .iter()
            .all(|o| matches!(o, Op::Range(RangeSpec { count: 100, .. }))));
        assert_eq!(w.bulk.len(), 1000);
    }

    #[test]
    fn shift_workload_rescales_into_target_domain() {
        let b = WorkloadBuilder::new(6);
        let x = keys(1000); // domain ~ [97, 97000]
        let y: Vec<u64> = (1..=500u64).map(|i| i * 1_000_000).collect();
        let w = b.shift_workload("covid->osm", &x, &y);
        let x_max = *x.iter().max().unwrap();
        for op in ops(&w) {
            if let Op::Insert(k, _) = op {
                assert!(*k <= x_max + 1);
            }
        }
        let inserts = ops(&w).iter().filter(|o| o.is_write()).count();
        assert_eq!(inserts, 500);
        assert!((write_fraction(&w) - 0.5).abs() < 0.02);
    }

    #[test]
    fn ycsb_variants_have_expected_update_shares() {
        let b = WorkloadBuilder::new(7);
        let ks = keys(5000);
        let a = b.ycsb("t", &ks, YcsbVariant::A, 10_000);
        let c = b.ycsb("t", &ks, YcsbVariant::C, 10_000);
        assert!((write_fraction(&a) - 0.5).abs() < 0.05);
        assert_eq!(write_ops(&c), 0);
        // YCSB touches only loaded keys.
        let loaded: std::collections::HashSet<u64> = ks.iter().copied().collect();
        for op in ops(&a) {
            match op {
                Op::Get(k) | Op::Update(k, _) => assert!(loaded.contains(k)),
                _ => panic!("unexpected op in YCSB"),
            }
        }
    }

    #[test]
    fn rescale_handles_empty_inputs() {
        assert!(rescale_to_domain(&[], &[1, 2]).is_empty());
        assert!(rescale_to_domain(&[1, 2], &[]).is_empty());
    }
}
