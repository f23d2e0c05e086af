//! Greedy Bucketing (Algorithm 1).
//!
//! Greedy Bucketing asks, for a (sub)interval of the sorted record list:
//! *should it be broken into exactly two buckets, and if so where?* It scans
//! every candidate break point, scores each with the two-bucket expected
//! waste model ([`crate::cost::greedy_cost`]), and keeps the minimum. If the
//! best "break" is the interval's end (one bucket), it stops; otherwise it
//! recurses into both halves, accumulating break points.
//!
//! Two scan strategies are provided, with identical output:
//!
//! * **Prefix** (default): the caller's [`PrefixStats`] cache, which the
//!   estimator keeps up to date across rebucketings, answers every
//!   interval's statistics in O(1), so each scan is O(len) with no
//!   per-interval re-accumulation. This is the production mode.
//! * **Faithful** ([`GreedyBucketing::faithful`]): each candidate's cost
//!   re-walks the interval, exactly like the paper's `compute_greedy_cost` —
//!   O(len²) per scan. This reproduces Table I's measured growth
//!   (GB ≈ 0.44 s at 5000 records) and is what Table I times.

use crate::cost::{greedy_cost, PrefixStats};
use crate::partition::Partitioner;
use crate::record::ScalarRecord;

/// The Greedy Bucketing partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBucketing {
    /// Re-walk the interval per candidate (the paper's cost) instead of
    /// reading the prefix-sum cache.
    faithful: bool,
}

impl GreedyBucketing {
    /// The paper's algorithm with the prefix-sum fast scan (production
    /// default). Output-identical to [`Self::faithful`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's per-candidate scan cost — O(len²) per interval. Use this
    /// to reproduce Table I's compute-cost measurements.
    pub fn faithful() -> Self {
        GreedyBucketing { faithful: true }
    }

    /// Find the best break for `records[lo..=hi]`. Returns `(break, cost)`;
    /// `break == hi` means "keep one bucket". `stats` is only consulted by
    /// the prefix scan.
    fn best_break(
        &self,
        records: &[ScalarRecord],
        stats: &PrefixStats,
        lo: usize,
        hi: usize,
    ) -> (usize, f64) {
        if self.faithful {
            best_break_faithful(records, lo, hi)
        } else {
            best_break_prefix(records, stats, lo, hi)
        }
    }
}

/// Paper-faithful scan: `compute_greedy_cost` re-walks the interval per
/// candidate.
fn best_break_faithful(records: &[ScalarRecord], lo: usize, hi: usize) -> (usize, f64) {
    let mut min_cost = f64::INFINITY;
    let mut break_idx = hi;
    for i in lo..=hi {
        let cost = greedy_cost(records, lo, i, hi);
        if cost < min_cost {
            min_cost = cost;
            break_idx = i;
        }
    }
    (break_idx, min_cost)
}

/// Prefix-cache scan: the caller's [`PrefixStats`] answers every interval
/// query in O(1), so no per-interval accumulation pass is needed.
fn best_break_prefix(
    records: &[ScalarRecord],
    stats: &PrefixStats,
    lo: usize,
    hi: usize,
) -> (usize, f64) {
    let total_sig = stats.sig(lo, hi);
    let total_wsum = stats.wsum(lo, hi);
    let rep_hi = records[hi].value;

    let mut min_cost = f64::INFINITY;
    let mut break_idx = hi;
    for (i, rec) in records.iter().enumerate().take(hi + 1).skip(lo) {
        let cost = if i == hi {
            rep_hi - total_wsum / total_sig
        } else {
            let low_sig = stats.sig(lo, i);
            let high_sig = stats.sig(i + 1, hi);
            let v_lo = stats.wsum(lo, i) / low_sig;
            let v_hi = stats.wsum(i + 1, hi) / high_sig;
            two_bucket_cost(total_sig, low_sig, high_sig, v_lo, v_hi, rec.value, rep_hi)
        };
        if cost < min_cost {
            min_cost = cost;
            break_idx = i;
        }
    }
    (break_idx, min_cost)
}

/// The §IV-B four-case two-bucket expected waste, from precomputed interval
/// statistics.
#[inline]
fn two_bucket_cost(
    total_sig: f64,
    low_sig: f64,
    high_sig: f64,
    v_lo: f64,
    v_hi: f64,
    rep_lo: f64,
    rep_hi: f64,
) -> f64 {
    let p_lo = low_sig / total_sig;
    let p_hi = high_sig / total_sig;
    p_lo * p_lo * (rep_lo - v_lo)
        + p_lo * p_hi * (rep_hi - v_lo)
        + p_hi * p_lo * (rep_lo + rep_hi - v_hi)
        + p_hi * p_hi * (rep_hi - v_hi)
}

impl Partitioner for GreedyBucketing {
    fn name(&self) -> &'static str {
        if self.faithful {
            "greedy-bucketing-faithful"
        } else {
            "greedy-bucketing"
        }
    }

    /// Algorithm 1, iteratively (an explicit work stack replaces the paper's
    /// recursion so adversarial inputs cannot overflow the call stack).
    fn partition(&self, records: &[ScalarRecord], stats: &PrefixStats) -> Vec<usize> {
        let n = records.len();
        if n <= 1 {
            return Vec::new();
        }
        let mut ends: Vec<usize> = Vec::new();
        let mut stack = vec![(0usize, n - 1)];
        while let Some((lo, hi)) = stack.pop() {
            if lo == hi {
                ends.push(hi);
                continue;
            }
            let (brk, _cost) = self.best_break(records, stats, lo, hi);
            if brk == hi {
                ends.push(hi);
            } else {
                stack.push((lo, brk));
                stack.push((brk + 1, hi));
            }
        }
        ends.sort_unstable();
        debug_assert_eq!(ends.last(), Some(&(n - 1)));
        ends.pop(); // the final bucket's end is implicit
        ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketSet;
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
    fn empty_and_singleton_lists_produce_no_breaks() {
        let gb = GreedyBucketing::new();
        assert!(breaks_of(&gb, &[]).is_empty());
        let l = list(&[5.0]);
        assert!(breaks_of(&gb, l.sorted()).is_empty());
    }

    #[test]
    fn identical_values_stay_in_one_bucket() {
        let gb = GreedyBucketing::new();
        let l: RecordList = (0..20).map(|i| (7.0, (i + 1) as f64)).collect();
        assert!(breaks_of(&gb, l.sorted()).is_empty());
    }

    #[test]
    fn two_well_separated_clusters_split_at_the_gap() {
        let gb = GreedyBucketing::new();
        let mut values: Vec<f64> = (0..10).map(|i| 10.0 + i as f64 * 0.1).collect();
        values.extend((0..10).map(|i| 1000.0 + i as f64 * 0.1));
        let l = list(&values);
        let breaks = breaks_of(&gb, l.sorted());
        // The gap is between sorted indices 9 and 10.
        assert!(breaks.contains(&9), "breaks {breaks:?} should include 9");
        let set = BucketSet::from_breaks(l.sorted(), &breaks);
        set.check_invariants(l.sorted()).unwrap();
    }

    #[test]
    fn three_clusters_found_recursively() {
        let gb = GreedyBucketing::new();
        let mut values = Vec::new();
        for center in [10.0, 500.0, 5000.0] {
            for i in 0..8 {
                values.push(center + i as f64 * 0.01);
            }
        }
        let l = list(&values);
        let breaks = breaks_of(&gb, l.sorted());
        assert!(breaks.contains(&7), "missing first gap: {breaks:?}");
        assert!(breaks.contains(&15), "missing second gap: {breaks:?}");
    }

    #[test]
    fn all_scan_modes_produce_identical_partitions() {
        let gb_p = GreedyBucketing::new();
        let gb_f = GreedyBucketing::faithful();
        // Deterministic pseudo-random values.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 1000.0
        };
        for n in [2usize, 3, 7, 20, 64, 133] {
            let values: Vec<f64> = (0..n).map(|_| next()).collect();
            let l = list(&values);
            let faithful = breaks_of(&gb_f, l.sorted());
            assert_eq!(breaks_of(&gb_p, l.sorted()), faithful, "prefix, n = {n}");
        }
    }

    #[test]
    fn breaks_are_valid_bucket_set_inputs() {
        let gb = GreedyBucketing::new();
        let values: Vec<f64> = (0..50).map(|i| ((i * 37) % 100) as f64 + 1.0).collect();
        let l = list(&values);
        let breaks = breaks_of(&gb, l.sorted());
        let set = BucketSet::from_breaks(l.sorted(), &breaks);
        set.check_invariants(l.sorted()).unwrap();
    }

    #[test]
    fn best_break_single_element_interval() {
        let l = list(&[3.0, 9.0]);
        let gb = GreedyBucketing::new();
        let stats = PrefixStats::from_records(l.sorted());
        let (brk, cost) = gb.best_break(l.sorted(), &stats, 0, 0);
        assert_eq!(brk, 0);
        assert!(cost.abs() < 1e-12); // singleton bucket: rep == mean
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(GreedyBucketing::new().name(), "greedy-bucketing");
        assert_eq!(
            GreedyBucketing::faithful().name(),
            "greedy-bucketing-faithful"
        );
        assert!(GreedyBucketing::faithful().faithful);
        assert!(!GreedyBucketing::new().faithful);
    }
}
