//! K-means bucketing: the clustering half of Phung et al. \[11\].
//!
//! The paper's Quantized Bucketing comparator descends from "Not all tasks
//! are created equal" (Phung et al., WORKS 2021), which evaluated *both*
//! quantile- and k-means-based clustering of task resource records. The
//! quantile variant is the one benchmarked in §V; this module supplies the
//! k-means variant as an extension algorithm so the ablation harness can
//! compare all three clustering rules (value-grid, quantile, k-means) behind
//! the same [`crate::policy::BucketingEstimator`] machinery.
//!
//! This is classic 1-D Lloyd's algorithm with significance-weighted
//! centroids and deterministic quantile seeding; `k` is selected by the same
//! expected-waste cost the other bucketing algorithms use, so the only
//! experimental variable is the clustering rule itself.

use crate::bucket::BucketSet;
use crate::cost::{exhaustive_cost, PrefixStats};
use crate::partition::Partitioner;
use crate::record::ScalarRecord;

/// The k-means bucketing partitioner: up to 10 clusters (the same cap as
/// Exhaustive Bucketing), at most 50 Lloyd iterations per `k`.
#[derive(Debug, Clone, Copy, Default)]
pub struct KMeansBucketing;

impl KMeansBucketing {
    const MAX_CLUSTERS: usize = 10;
    const MAX_ITERATIONS: usize = 50;

    /// The partitioner.
    pub fn new() -> Self {
        KMeansBucketing
    }

    /// Run weighted 1-D Lloyd's algorithm for exactly `k` clusters over the
    /// sorted records. Returns bucket end indices (excluding the final one),
    /// or `None` when the data cannot support `k` distinct clusters.
    fn lloyd(&self, records: &[ScalarRecord], k: usize) -> Option<Vec<usize>> {
        let n = records.len();
        if k == 0 || k > n {
            return None;
        }
        if k == 1 {
            return Some(Vec::new());
        }
        // Deterministic seeding: quantile-spaced centroids.
        let mut centroids: Vec<f64> = (0..k)
            .map(|i| {
                let idx = ((i as f64 + 0.5) / k as f64 * n as f64) as usize;
                records[idx.min(n - 1)].value
            })
            .collect();
        centroids.dedup();
        if centroids.len() < k {
            return None; // not enough distinct values for k clusters
        }

        // In 1-D with sorted data, an assignment is a set of boundaries:
        // record i belongs to the centroid nearest its value.
        let mut boundaries = vec![0usize; k - 1];
        for _ in 0..Self::MAX_ITERATIONS {
            // Assignment step: boundary between cluster j and j+1 is the
            // midpoint of their centroids.
            let mut new_boundaries = Vec::with_capacity(k - 1);
            for j in 0..k - 1 {
                let mid = (centroids[j] + centroids[j + 1]) / 2.0;
                new_boundaries.push(records.partition_point(|r| r.value < mid));
            }
            // Update step: weighted centroid of each segment.
            let mut new_centroids = Vec::with_capacity(k);
            let mut start = 0usize;
            for j in 0..k {
                let end = if j < k - 1 { new_boundaries[j] } else { n };
                if start >= end {
                    // Empty cluster: keep its old centroid so it can attract
                    // members next iteration.
                    new_centroids.push(centroids[j]);
                } else {
                    let seg = &records[start..end];
                    let sig: f64 = seg.iter().map(|r| r.sig).sum();
                    let wsum: f64 = seg.iter().map(|r| r.value * r.sig).sum();
                    new_centroids.push(wsum / sig);
                }
                start = end;
            }
            let converged = new_boundaries == boundaries && new_centroids == centroids;
            boundaries = new_boundaries;
            centroids = new_centroids;
            if converged {
                break;
            }
        }

        // Convert segment boundaries to inclusive end indices, dropping
        // empty segments.
        let mut ends: Vec<usize> = boundaries
            .iter()
            .filter(|&&b| b > 0 && b < n)
            .map(|&b| b - 1)
            .collect();
        ends.sort_unstable();
        ends.dedup();
        Some(ends)
    }
}

impl Partitioner for KMeansBucketing {
    fn name(&self) -> &'static str {
        "kmeans-bucketing"
    }

    fn partition(&self, records: &[ScalarRecord], _stats: &PrefixStats) -> Vec<usize> {
        let n = records.len();
        if n <= 1 {
            return Vec::new();
        }
        let mut best_breaks = Vec::new();
        let mut best_cost = exhaustive_cost(&BucketSet::single(records));
        for k in 2..=Self::MAX_CLUSTERS.min(n) {
            let Some(breaks) = self.lloyd(records, k) else {
                continue;
            };
            if breaks.is_empty() {
                continue;
            }
            let cost = exhaustive_cost(&BucketSet::from_breaks(records, &breaks));
            if cost < best_cost {
                best_cost = cost;
                best_breaks = breaks;
            }
        }
        best_breaks
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
    fn trivial_inputs() {
        let km = KMeansBucketing::new();
        assert!(breaks_of(&km, &[]).is_empty());
        let one = list(&[5.0]);
        assert!(breaks_of(&km, one.sorted()).is_empty());
        let same = list(&[7.0; 20]);
        assert!(breaks_of(&km, same.sorted()).is_empty());
    }

    #[test]
    fn two_clusters_found_at_the_gap() {
        let mut values: Vec<f64> = (0..15).map(|i| 100.0 + i as f64).collect();
        values.extend((0..15).map(|i| 5000.0 + i as f64));
        let l = list(&values);
        let km = KMeansBucketing::new();
        let breaks = breaks_of(&km, l.sorted());
        assert!(breaks.contains(&14), "breaks {breaks:?}");
        let set = BucketSet::from_breaks(l.sorted(), &breaks);
        set.check_invariants(l.sorted()).unwrap();
    }

    #[test]
    fn lloyd_exact_k_on_three_clusters() {
        let mut values = Vec::new();
        for center in [10.0, 100.0, 1000.0] {
            for i in 0..10 {
                values.push(center + i as f64 * 0.1);
            }
        }
        let l = list(&values);
        let km = KMeansBucketing::new();
        let breaks = km.lloyd(l.sorted(), 3).unwrap();
        assert_eq!(breaks, vec![9, 19]);
    }

    #[test]
    fn lloyd_rejects_impossible_k() {
        let l = list(&[1.0, 2.0]);
        let km = KMeansBucketing::new();
        assert!(km.lloyd(l.sorted(), 5).is_none());
        assert_eq!(km.lloyd(l.sorted(), 1), Some(vec![]));
    }

    #[test]
    fn respects_cluster_cap() {
        // Sixteen tight, widely spaced groups want more than the 10-cluster
        // cap allows.
        let values: Vec<f64> = (0..16)
            .flat_map(|g| (0..5).map(move |i| 1000.0 * 2f64.powi(g) + i as f64))
            .collect();
        let l = list(&values);
        let breaks = breaks_of(&KMeansBucketing::new(), l.sorted());
        assert!(!breaks.is_empty() && breaks.len() < 10, "{breaks:?}");
    }

    #[test]
    fn chosen_cost_no_worse_than_single_bucket() {
        let mut state = 0xBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64) * 2000.0 + 1.0
        };
        for n in [3usize, 10, 40, 100] {
            let values: Vec<f64> = (0..n).map(|_| next()).collect();
            let l = list(&values);
            let km = KMeansBucketing::new();
            let breaks = breaks_of(&km, l.sorted());
            let chosen = exhaustive_cost(&BucketSet::from_breaks(l.sorted(), &breaks));
            let single = exhaustive_cost(&BucketSet::single(l.sorted()));
            assert!(chosen <= single + 1e-9, "n={n}");
        }
    }

    #[test]
    fn works_behind_the_bucketing_estimator() {
        use crate::estimator::ValueEstimator;
        use crate::policy::BucketingEstimator;
        let mut est = BucketingEstimator::new(KMeansBucketing::new());
        for i in 0..20 {
            est.observe(100.0 + i as f64, (i + 1) as f64);
        }
        for i in 0..20 {
            est.observe(900.0 + i as f64, (21 + i) as f64);
        }
        let first = est.first(0.0).unwrap();
        assert!(first >= 100.0);
        let retry = est.retry(first, 0.5).unwrap();
        assert!(retry > first);
        assert_eq!(est.name(), "kmeans-bucketing");
    }
}
