//! Exhaustive Bucketing (Algorithm 2 with the §IV-D candidate optimization).
//!
//! Exhaustive Bucketing considers bucket configurations of every size,
//! scores each with the full N×N expected-waste table
//! ([`crate::cost::exhaustive_cost`]) and keeps the cheapest. Enumerating all
//! `C(N, k)` break-point subsets would be exponential, so §IV-D replaces the
//! `combinations(k, L)` call with a *value-space grid*: for a `b`-bucket
//! configuration the candidate break values are `v_max · i / b`
//! (`i = 1..b-1`), each mapped to the closest record strictly below it, with
//! duplicates and empty mappings dropped. One configuration per bucket count,
//! bucket count capped at 10 (§V-A: "the number of buckets rarely exceeds 10
//! at any given time").

use crate::bucket::BucketSet;
use crate::cost::{exhaustive_cost, exhaustive_cost_with, ExhaustiveScratch, PrefixStats};
use crate::partition::Partitioner;
use crate::record::ScalarRecord;

/// Bucket-count cap used in all paper experiments (§V-A).
const PAPER_MAX_BUCKETS: usize = 10;

/// The Exhaustive Bucketing partitioner.
///
/// # Examples
///
/// ```
/// use tora_alloc::cost::PrefixStats;
/// use tora_alloc::exhaustive::ExhaustiveBucketing;
/// use tora_alloc::partition::Partitioner;
/// use tora_alloc::record::RecordList;
///
/// let records: RecordList = (0..20)
///     .map(|i| (if i % 2 == 0 { 200.0 } else { 2000.0 }, 1.0 + i as f64))
///     .collect();
/// let stats = PrefixStats::from_records(records.sorted());
/// let breaks = ExhaustiveBucketing::new().partition(records.sorted(), &stats);
/// // The two well-separated memory clusters get their own buckets.
/// assert_eq!(breaks, vec![9]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveBucketing {
    max_buckets: usize,
    faithful: bool,
}

impl Default for ExhaustiveBucketing {
    fn default() -> Self {
        ExhaustiveBucketing {
            max_buckets: PAPER_MAX_BUCKETS,
            faithful: false,
        }
    }
}

impl ExhaustiveBucketing {
    /// The paper's configuration (at most 10 buckets), scored with the
    /// prefix-sum fast kernel (production default). Output-identical to
    /// [`Self::faithful`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's per-configuration costing: materialize a [`BucketSet`]
    /// per bucket count and score it with [`exhaustive_cost`]. Use this to
    /// reproduce Table I's compute-cost measurements.
    pub fn faithful() -> Self {
        ExhaustiveBucketing {
            faithful: true,
            ..Self::default()
        }
    }

    /// Ablation constructor: cap configurations at `max_buckets` (≥ 1).
    pub fn with_max_buckets(max_buckets: usize) -> Self {
        assert!(max_buckets >= 1, "need at least one bucket");
        ExhaustiveBucketing {
            max_buckets,
            faithful: false,
        }
    }

    /// The §IV-D grid for a `b`-bucket configuration over `records`:
    /// break *indices* after mapping each `v_max·i/b` to the closest record
    /// strictly below it, deduplicated.
    pub fn grid_breaks(records: &[ScalarRecord], b: usize) -> Vec<usize> {
        let mut breaks = Vec::new();
        Self::grid_breaks_into(records, b, &mut breaks);
        breaks
    }

    /// [`Self::grid_breaks`] writing into a caller-owned buffer, so the
    /// b = 2..=10 configuration loop reuses one allocation.
    fn grid_breaks_into(records: &[ScalarRecord], b: usize, breaks: &mut Vec<usize>) {
        debug_assert!(b >= 2);
        breaks.clear();
        let n = records.len();
        if n < 2 {
            return;
        }
        let v_max = records[n - 1].value;
        if v_max <= 0.0 {
            return;
        }
        // Reuse RecordList's strictly-below search without copying: a local
        // binary search over the sorted slice.
        let closest_below = |target: f64| -> Option<usize> {
            let idx = records.partition_point(|r| r.value < target);
            idx.checked_sub(1)
        };
        breaks.extend((1..b).filter_map(|i| closest_below(v_max * i as f64 / b as f64)));
        breaks.sort_unstable();
        breaks.dedup();
        // A break at the final index would empty the last bucket; the strict
        // "< target < v_max" mapping already prevents it, assert in debug.
        debug_assert!(breaks.last().is_none_or(|&e| e < n - 1));
    }

    /// The paper's costing loop: a fresh [`BucketSet`] per bucket count,
    /// scored with the canonical [`exhaustive_cost`].
    fn partition_faithful(&self, records: &[ScalarRecord]) -> Vec<usize> {
        let n = records.len();
        // b = 1: the single-bucket configuration.
        let mut best_breaks = Vec::new();
        let mut best_cost = exhaustive_cost(&BucketSet::single(records));
        for b in 2..=self.max_buckets.min(n) {
            let breaks = Self::grid_breaks(records, b);
            if breaks.is_empty() {
                continue; // grid collapsed (e.g. all values equal)
            }
            let set = BucketSet::from_breaks(records, &breaks);
            let cost = exhaustive_cost(&set);
            if cost < best_cost {
                best_cost = cost;
                best_breaks = breaks;
            }
        }
        best_breaks
    }

    /// The fast costing loop: per-configuration bucket statistics are O(1)
    /// queries on the caller's prefix cache and the scoring table reuses one
    /// scratch space — no `BucketSet` is materialized until the winning
    /// configuration is rebuilt by the caller.
    fn partition_fast(&self, records: &[ScalarRecord], stats: &PrefixStats) -> Vec<usize> {
        let n = records.len();
        let mut scratch = ExhaustiveScratch::new();
        let mut candidate = Vec::new();
        // b = 1: the single-bucket configuration.
        let mut best_breaks = Vec::new();
        let mut best_cost = exhaustive_cost_with(records, stats, &[], &mut scratch);
        for b in 2..=self.max_buckets.min(n) {
            Self::grid_breaks_into(records, b, &mut candidate);
            if candidate.is_empty() {
                continue; // grid collapsed (e.g. all values equal)
            }
            let cost = exhaustive_cost_with(records, stats, &candidate, &mut scratch);
            if cost < best_cost {
                best_cost = cost;
                best_breaks.clear();
                best_breaks.extend_from_slice(&candidate);
            }
        }
        best_breaks
    }
}

impl Partitioner for ExhaustiveBucketing {
    fn name(&self) -> &'static str {
        if self.faithful {
            "exhaustive-bucketing-faithful"
        } else {
            "exhaustive-bucketing"
        }
    }

    fn partition(&self, records: &[ScalarRecord], stats: &PrefixStats) -> Vec<usize> {
        if records.len() <= 1 {
            return Vec::new();
        }
        if self.faithful {
            self.partition_faithful(records)
        } else {
            self.partition_fast(records, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::breaks_of;
    use crate::record::RecordList;

    fn list(values: &[f64]) -> RecordList {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64))
            .collect()
    }

    #[test]
    fn trivial_lists() {
        let eb = ExhaustiveBucketing::new();
        assert!(breaks_of(&eb, &[]).is_empty());
        let l = list(&[4.0]);
        assert!(breaks_of(&eb, l.sorted()).is_empty());
    }

    #[test]
    fn identical_values_collapse_to_one_bucket() {
        let eb = ExhaustiveBucketing::new();
        let l: RecordList = (0..30).map(|i| (9.0, (i + 1) as f64)).collect();
        assert!(breaks_of(&eb, l.sorted()).is_empty());
    }

    #[test]
    fn grid_break_values_map_strictly_below() {
        // values 1..=10, v_max = 10, b = 2 → candidate 5.0 → closest below
        // is value 4 at index 3.
        let l = list(&(1..=10).map(|v| v as f64).collect::<Vec<_>>());
        let breaks = ExhaustiveBucketing::grid_breaks(l.sorted(), 2);
        assert_eq!(breaks, vec![3]);
        // b = 5 → candidates 2,4,6,8 → indices of 1,3,5,7 → [0,2,4,6]
        let breaks = ExhaustiveBucketing::grid_breaks(l.sorted(), 5);
        assert_eq!(breaks, vec![0, 2, 4, 6]);
    }

    #[test]
    fn grid_dedups_collapsed_candidates() {
        // Heavily skewed data: most grid points fall in the empty value range
        // and map to the same record.
        let l = list(&[1.0, 1.1, 1.2, 100.0]);
        let breaks = ExhaustiveBucketing::grid_breaks(l.sorted(), 10);
        let mut sorted = breaks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(breaks, sorted, "breaks must be sorted and unique");
        assert!(breaks.iter().all(|&e| e < 3));
    }

    #[test]
    fn separated_clusters_get_separated_buckets() {
        let mut values: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        values.extend((0..10).map(|i| 900.0 + i as f64));
        let l = list(&values);
        let eb = ExhaustiveBucketing::new();
        let breaks = breaks_of(&eb, l.sorted());
        assert!(!breaks.is_empty(), "clusters should be split");
        let set = BucketSet::from_breaks(l.sorted(), &breaks);
        set.check_invariants(l.sorted()).unwrap();
        // The cut must land in the gap: some bucket boundary between 109 and 900.
        assert!(
            breaks
                .iter()
                .any(|&e| (100.0..900.0).contains(&l.sorted()[e].value)),
            "breaks {breaks:?}"
        );
    }

    #[test]
    fn respects_bucket_cap() {
        // 40 well-separated clusters but a cap of 3 buckets.
        let values: Vec<f64> = (0..40).map(|i| (i as f64 + 1.0) * 1000.0).collect();
        let l = list(&values);
        let eb = ExhaustiveBucketing::with_max_buckets(3);
        let breaks = breaks_of(&eb, l.sorted());
        assert!(breaks.len() < 3, "breaks {breaks:?}");
    }

    #[test]
    fn chooses_no_worse_than_single_bucket() {
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) * 500.0 + 1.0
        };
        for n in [2usize, 5, 17, 64] {
            let values: Vec<f64> = (0..n).map(|_| next()).collect();
            let l = list(&values);
            let eb = ExhaustiveBucketing::new();
            let breaks = breaks_of(&eb, l.sorted());
            let chosen = exhaustive_cost(&BucketSet::from_breaks(l.sorted(), &breaks));
            let single = exhaustive_cost(&BucketSet::single(l.sorted()));
            assert!(chosen <= single + 1e-9, "n={n}: {chosen} vs {single}");
        }
    }

    #[test]
    fn fast_and_faithful_modes_produce_identical_partitions() {
        let eb = ExhaustiveBucketing::new();
        let eb_f = ExhaustiveBucketing::faithful();
        let mut state = 0xBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) * 2000.0 + 1.0
        };
        for n in [2usize, 3, 5, 16, 41, 150] {
            let values: Vec<f64> = (0..n).map(|_| next()).collect();
            let l = list(&values);
            assert_eq!(
                breaks_of(&eb, l.sorted()),
                breaks_of(&eb_f, l.sorted()),
                "n={n}"
            );
        }
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(ExhaustiveBucketing::new().name(), "exhaustive-bucketing");
        assert_eq!(
            ExhaustiveBucketing::faithful().name(),
            "exhaustive-bucketing-faithful"
        );
        assert!(ExhaustiveBucketing::faithful().faithful);
        assert!(!ExhaustiveBucketing::new().faithful);
        assert!(!ExhaustiveBucketing::with_max_buckets(3).faithful);
    }

    #[test]
    fn zero_valued_records_stay_single_bucket() {
        let l: RecordList = (0..5).map(|i| (0.0, (i + 1) as f64)).collect();
        let eb = ExhaustiveBucketing::new();
        assert!(breaks_of(&eb, l.sorted()).is_empty());
    }
}
