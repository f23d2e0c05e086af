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
//!   per-interval re-accumulation. This is the production mode. The scan
//!   scores candidates in chunks of 64: a branch-free loop writes a chunk's
//!   costs into a stack buffer (it vectorizes, so the four divisions per
//!   candidate run packed), then a sequential pass keeps the first strict
//!   minimum, and the one-bucket case `i == hi` is scored last. Each cost
//!   uses the operations of a one-at-a-time scan in the same order — no
//!   fused multiply-add, reciprocal multiply or reassociation — so the
//!   chunked scan's break and cost are bit for bit the scalar scan's.
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

/// Candidates scored per chunk of the prefix scan.
const CHUNK: usize = 64;

/// Prefix-cache scan: the caller's [`PrefixStats`] answers every interval
/// query in O(1), so no per-interval accumulation pass is needed.
///
/// Candidates `lo..hi` are scored [`CHUNK`] at a time, as the module docs
/// describe; each cost is the expression [`PrefixStats::sig`],
/// [`PrefixStats::wsum`] and [`two_bucket_cost`] give one candidate at a
/// time, in the same operation order, so the result is bit for bit that of
/// a plain loop over `lo..=hi`.
fn best_break_prefix(
    records: &[ScalarRecord],
    stats: &PrefixStats,
    lo: usize,
    hi: usize,
) -> (usize, f64) {
    let (cum_sig, cum_wsum) = stats.cumulative();
    let (sig_lo, sig_hi) = (cum_sig[lo], cum_sig[hi + 1]);
    let (wsum_lo, wsum_hi) = (cum_wsum[lo], cum_wsum[hi + 1]);
    let total_sig = sig_hi - sig_lo;
    let rep_hi = records[hi].value;

    let mut min_cost = f64::INFINITY;
    let mut break_idx = hi;
    let mut buf = [0.0; CHUNK];
    let mut start = lo;
    while start < hi {
        let len = CHUNK.min(hi - start);
        let costs = &mut buf[..len];
        // Candidate i = start + k splits at cum_*[i + 1].
        let sigs = &cum_sig[start + 1..start + 1 + len];
        let wsums = &cum_wsum[start + 1..start + 1 + len];
        let reps = &records[start..start + len];
        for (((cost, &sig), &wsum), rec) in costs.iter_mut().zip(sigs).zip(wsums).zip(reps) {
            let low_sig = sig - sig_lo;
            let high_sig = sig_hi - sig;
            let v_lo = (wsum - wsum_lo) / low_sig;
            let v_hi = (wsum_hi - wsum) / high_sig;
            *cost = two_bucket_cost(total_sig, low_sig, high_sig, v_lo, v_hi, rec.value, rep_hi);
        }
        for (k, &cost) in costs.iter().enumerate() {
            if cost < min_cost {
                min_cost = cost;
                break_idx = start + k;
            }
        }
        start += len;
    }
    let one_bucket = rep_hi - (wsum_hi - wsum_lo) / total_sig;
    if one_bucket < min_cost {
        min_cost = one_bucket;
        break_idx = hi;
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

    /// The plain scan, one candidate at a time: the reference the chunked
    /// scan must match bit for bit.
    fn best_break_scalar(
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

    /// `(break, cost bits)` of every interval `[lo, hi]` of `l`, by `scan`.
    fn all_intervals(
        l: &RecordList,
        scan: fn(&[ScalarRecord], &PrefixStats, usize, usize) -> (usize, f64),
    ) -> Vec<(usize, u64)> {
        let records = l.sorted();
        let stats = PrefixStats::from_records(records);
        let n = records.len();
        (0..n)
            .flat_map(|lo| (lo..n).map(move |hi| (lo, hi)))
            .map(|(lo, hi)| {
                let (brk, cost) = scan(records, &stats, lo, hi);
                (brk, cost.to_bits())
            })
            .collect()
    }

    #[test]
    fn chunked_scan_matches_the_scalar_scan_bit_for_bit() {
        // Sizes around the chunk width, so intervals start, end and straddle
        // at chunk edges. A third of the values repeat, so costs tie.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in [1usize, 63, 64, 65, 128, 129, 200] {
            let l: RecordList = (0..n)
                .map(|_| {
                    let r = next();
                    let value = if r % 3 == 0 {
                        (r % 5) as f64 * 100.0
                    } else {
                        (r % 100_000) as f64 / 7.0
                    };
                    (value, (next() % 1000 + 1) as f64)
                })
                .collect();
            assert_eq!(
                all_intervals(&l, best_break_prefix),
                all_intervals(&l, best_break_scalar),
                "n = {n}"
            );
        }
    }

    #[test]
    fn chunked_scan_breaks_ties_at_the_first_index() {
        // Equal nonzero values: the scans must agree bit for bit.
        let l: RecordList = (0..150).map(|i| (7.5, (i % 4 + 1) as f64)).collect();
        assert_eq!(
            all_intervals(&l, best_break_prefix),
            all_intervals(&l, best_break_scalar)
        );
        // All-zero values: every candidate, one bucket included, costs
        // exactly 0, so the first candidate of each interval must win.
        let l: RecordList = (0..150).map(|i| (0.0, (i + 1) as f64)).collect();
        let stats = PrefixStats::from_records(l.sorted());
        for lo in 0..150 {
            for hi in lo..150 {
                let (brk, cost) = best_break_prefix(l.sorted(), &stats, lo, hi);
                assert_eq!((brk, cost.to_bits()), (lo, 0), "[{lo}, {hi}]");
            }
        }
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
