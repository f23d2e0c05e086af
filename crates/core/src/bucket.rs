//! Buckets and bucket sets: the shared state of the bucketing approach.
//!
//! §IV-A: the allocator sorts completed-task records by value and partitions
//! them into contiguous *buckets*. Each bucket reduces to
//!
//! * a **representative value** — the maximum value of its records (what a
//!   task allocated from this bucket receives), and
//! * a **probability value** — the bucket's share of total *significance*
//!   (recency-weighted record mass), used to sample the bucket a new task is
//!   allocated from.
//!
//! We additionally keep each bucket's significance-weighted mean value, which
//! both Greedy and Exhaustive Bucketing use as the estimate of where inside a
//! bucket the next task's consumption will land (`v_lo`, `v_hi`, `v_i`).

use crate::cost::PrefixStats;
use crate::record::ScalarRecord;
use serde::{Deserialize, Serialize};

/// One bucket of a partitioned record list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// Representative value: max of the member records (§IV-A).
    pub rep: f64,
    /// Probability of choosing this bucket: its significance share (§IV-A).
    pub prob: f64,
    /// Significance-weighted mean of member values — the algorithms' estimate
    /// of a task landing in this bucket (`v_i` in §IV-C).
    pub wmean: f64,
    /// Number of member records.
    pub count: usize,
    /// Total significance of member records.
    pub sig_sum: f64,
}

/// A partition of a sorted record list into contiguous buckets.
///
/// Break points are stored as *inclusive end indices* of every bucket except
/// the last (which implicitly ends at the last record). E.g. with 10 records,
/// `breaks = [3, 6]` produces buckets over indices `[0..=3]`, `[4..=6]`,
/// `[7..=9]`.
///
/// # Examples
///
/// ```
/// use tora_alloc::record::RecordList;
/// use tora_alloc::bucket::BucketSet;
///
/// // Two clusters of completed-task memory records (value, significance).
/// let records: RecordList = [(200.0, 1.0), (210.0, 2.0), (800.0, 3.0), (820.0, 4.0)]
///     .into_iter()
///     .collect();
/// let set = BucketSet::from_breaks(records.sorted(), &[1]);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.buckets()[0].rep, 210.0);          // bucket max
/// assert_eq!(set.buckets()[1].rep, 820.0);
/// assert!((set.buckets()[1].prob - 0.7).abs() < 1e-12); // significance share
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BucketSet {
    buckets: Vec<Bucket>,
}

impl BucketSet {
    /// Partition `records` (sorted ascending by value) at the given break
    /// indices (strictly increasing, each `< records.len() - 1`).
    ///
    /// # Panics
    /// If `records` is empty, breaks are out of range, or not strictly
    /// increasing. Debug builds also assert the records are sorted.
    pub fn from_breaks(records: &[ScalarRecord], breaks: &[usize]) -> Self {
        assert!(!records.is_empty(), "cannot bucket an empty record list");
        let total_sig: f64 = records.iter().map(|r| r.sig).sum();
        let mut set = BucketSet::default();
        set.fill(records, total_sig, breaks, 0);
        set
    }

    /// Re-partition in place after a rebucket in which only the records from
    /// index `first` on changed; `stats` is the prefix cache over the new
    /// `records`. A bucket lying wholly below `first` whose range is
    /// unchanged keeps its sums and only has its probability recomputed;
    /// every other bucket is re-summed. The result is bit-identical to
    /// [`from_breaks`](Self::from_breaks), whose summation it shares, and
    /// `first = 0` re-sums every bucket.
    ///
    /// # Panics
    /// As [`from_breaks`](Self::from_breaks).
    pub fn rebuild(
        &mut self,
        records: &[ScalarRecord],
        stats: &PrefixStats,
        breaks: &[usize],
        first: usize,
    ) {
        assert!(!records.is_empty(), "cannot bucket an empty record list");
        debug_assert_eq!(stats.len(), records.len(), "stale PrefixStats");
        // The cache's last entry is the same sequential sum `from_breaks`
        // takes over the whole list.
        let total_sig = stats.sig(0, records.len() - 1);
        self.fill(records, total_sig, breaks, first);
    }

    /// The summation shared by [`from_breaks`](Self::from_breaks) and
    /// [`rebuild`](Self::rebuild): bucket `i` of the new partition reuses
    /// the sums of the bucket at position `i` before the call when both
    /// cover the same records below `first`, and re-sums its members
    /// otherwise.
    fn fill(&mut self, records: &[ScalarRecord], total_sig: f64, breaks: &[usize], first: usize) {
        debug_assert!(
            records.windows(2).all(|w| w[0].value <= w[1].value),
            "records must be sorted by value"
        );
        let n = records.len();
        let mut start = 0usize;
        // First record of the old bucket at the current position.
        let mut old_start = 0usize;
        let mut prev_break: Option<usize> = None;
        for (i, &b) in breaks.iter().chain(std::iter::once(&(n - 1))).enumerate() {
            if let Some(p) = prev_break {
                assert!(b > p, "break indices must be strictly increasing");
            }
            assert!(b < n, "break index {b} out of range for {n} records");
            prev_break = Some(b);
            let old = self.buckets.get(i).copied();
            let bucket = match old {
                Some(kept) if b < first && old_start == start && kept.count == b + 1 - start => {
                    Bucket {
                        prob: kept.sig_sum / total_sig,
                        ..kept
                    }
                }
                _ => sum_bucket(&records[start..=b], total_sig),
            };
            match old {
                Some(old) => {
                    old_start += old.count;
                    self.buckets[i] = bucket;
                }
                None => self.buckets.push(bucket),
            }
            start = b + 1;
        }
        self.buckets.truncate(breaks.len() + 1);
    }

    /// A single bucket containing every record.
    pub fn single(records: &[ScalarRecord]) -> Self {
        Self::from_breaks(records, &[])
    }

    /// The buckets, ordered by increasing representative value.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the set holds no buckets (only true for the `Default` value;
    /// `from_breaks` always yields at least one bucket).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Sample a bucket index according to the probability values, using a
    /// uniform draw `u ∈ [0, 1)`.
    ///
    /// Taking the draw (instead of an RNG) keeps this pure and testable; the
    /// policy layer supplies randomness.
    pub fn sample(&self, u: f64) -> Option<usize> {
        self.sample_above(f64::NEG_INFINITY, u)
    }

    /// Sample among buckets with `rep > floor`, renormalizing their
    /// probabilities — the retry rule of §IV-A ("only considers buckets that
    /// have the representative values greater than that of the previously
    /// chosen bucket"). Returns `None` when no bucket qualifies.
    pub fn sample_above(&self, floor: f64, u: f64) -> Option<usize> {
        let first = self.buckets.partition_point(|b| b.rep <= floor);
        if first == self.buckets.len() {
            return None;
        }
        let total: f64 = self.buckets[first..].iter().map(|b| b.prob).sum();
        if total <= 0.0 {
            // Degenerate weights: fall back to the highest bucket.
            return Some(self.buckets.len() - 1);
        }
        let mut acc = 0.0;
        let target = u.clamp(0.0, 1.0 - f64::EPSILON) * total;
        for (i, b) in self.buckets.iter().enumerate().skip(first) {
            acc += b.prob;
            if target < acc {
                return Some(i);
            }
        }
        Some(self.buckets.len() - 1)
    }

    /// Validate the §IV-A invariants; returns an error string describing the
    /// first violation. Used by tests and debug assertions.
    pub fn check_invariants(&self, records: &[ScalarRecord]) -> Result<(), String> {
        if self.buckets.is_empty() {
            return Err("bucket set is empty".into());
        }
        let count: usize = self.buckets.iter().map(|b| b.count).sum();
        if count != records.len() {
            return Err(format!(
                "bucket member count {count} != record count {}",
                records.len()
            ));
        }
        let prob_sum: f64 = self.buckets.iter().map(|b| b.prob).sum();
        if (prob_sum - 1.0).abs() > 1e-9 {
            return Err(format!("probabilities sum to {prob_sum}, not 1"));
        }
        for w in self.buckets.windows(2) {
            if w[0].rep > w[1].rep {
                return Err(format!(
                    "representatives not non-decreasing: {} > {}",
                    w[0].rep, w[1].rep
                ));
            }
        }
        for b in &self.buckets {
            if b.wmean > b.rep + 1e-9 {
                return Err(format!("bucket mean {} exceeds rep {}", b.wmean, b.rep));
            }
            if b.prob < 0.0 {
                return Err(format!("negative probability {}", b.prob));
            }
            if b.count == 0 {
                return Err("empty bucket".into());
            }
        }
        if let (Some(last), Some(max)) = (
            self.buckets.last(),
            records
                .iter()
                .map(|r| r.value)
                .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.max(v)))),
        ) {
            if (last.rep - max).abs() > 1e-12 {
                return Err(format!(
                    "top representative {} != max record value {max}",
                    last.rep
                ));
            }
        }
        Ok(())
    }
}

/// A bucket over `members` (non-empty), its significance and weighted
/// sums accumulated in one loop, each in its own sequential order.
fn sum_bucket(members: &[ScalarRecord], total_sig: f64) -> Bucket {
    let mut sig_sum = 0.0;
    let mut wsum = 0.0;
    for r in members {
        sig_sum += r.sig;
        wsum += r.value * r.sig;
    }
    Bucket {
        rep: members.last().expect("non-empty bucket").value,
        prob: sig_sum / total_sig,
        wmean: wsum / sig_sum,
        count: members.len(),
        sig_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordList;

    fn records(values: &[f64]) -> RecordList {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64))
            .collect()
    }

    #[test]
    fn single_bucket_covers_everything() {
        let l = records(&[1.0, 2.0, 3.0]);
        let set = BucketSet::single(l.sorted());
        assert_eq!(set.len(), 1);
        let b = set.buckets()[0];
        assert_eq!(b.rep, 3.0);
        assert_eq!(b.prob, 1.0);
        assert_eq!(b.count, 3);
        set.check_invariants(l.sorted()).unwrap();
    }

    #[test]
    fn from_breaks_partitions_and_weights() {
        // Sorted values 1,2,3,4 with sigs 1,2,3,4. Break after index 1:
        // bucket A = {1,2} (sig 3), bucket B = {3,4} (sig 7).
        let mut l = RecordList::new();
        for (v, s) in [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)] {
            l.observe(v, s);
        }
        l.commit();
        let set = BucketSet::from_breaks(l.sorted(), &[1]);
        assert_eq!(set.len(), 2);
        let a = set.buckets()[0];
        let b = set.buckets()[1];
        assert_eq!(a.rep, 2.0);
        assert_eq!(b.rep, 4.0);
        assert!((a.prob - 0.3).abs() < 1e-12);
        assert!((b.prob - 0.7).abs() < 1e-12);
        // weighted means: A = (1*1+2*2)/3 = 5/3; B = (3*3+4*4)/7 = 25/7
        assert!((a.wmean - 5.0 / 3.0).abs() < 1e-12);
        assert!((b.wmean - 25.0 / 7.0).abs() < 1e-12);
        set.check_invariants(l.sorted()).unwrap();
    }

    #[test]
    fn sample_respects_probability_mass() {
        let mut l = RecordList::new();
        for (v, s) in [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)] {
            l.observe(v, s);
        }
        l.commit();
        let set = BucketSet::from_breaks(l.sorted(), &[1]); // probs 0.3 / 0.7
        assert_eq!(set.sample(0.0), Some(0));
        assert_eq!(set.sample(0.29), Some(0));
        assert_eq!(set.sample(0.31), Some(1));
        assert_eq!(set.sample(0.999), Some(1));
    }

    #[test]
    fn sample_above_filters_and_renormalizes() {
        let mut l = RecordList::new();
        for (v, s) in [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)] {
            l.observe(v, s);
        }
        l.commit();
        let set = BucketSet::from_breaks(l.sorted(), &[0, 1]); // reps 1,2,4
                                                               // floor = 1.0 excludes only the first bucket.
        assert_eq!(set.sample_above(1.0, 0.0), Some(1));
        assert_eq!(set.sample_above(1.0, 0.99), Some(2));
        // floor = max rep: nothing above.
        assert_eq!(set.sample_above(4.0, 0.5), None);
        // floor below everything behaves like sample().
        assert_eq!(set.sample_above(0.0, 0.0), set.sample(0.0));
    }

    #[test]
    fn every_record_in_exactly_one_bucket() {
        let l = records(&[5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 9.0, 7.0, 8.0, 10.0]);
        for breaks in [vec![], vec![4], vec![2, 6], vec![0, 1, 2, 3, 4, 5, 6, 7, 8]] {
            let set = BucketSet::from_breaks(l.sorted(), &breaks);
            assert_eq!(set.len(), breaks.len() + 1);
            set.check_invariants(l.sorted()).unwrap();
        }
    }

    #[test]
    fn rebuild_re_sums_every_bucket_not_wholly_below_the_change() {
        let before = records(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut set = BucketSet::from_breaks(before.sorted(), &[1, 2]);
        // 2.5 lands at index 2: bucket [0..=1] is untouched, while bucket
        // [2..=2] keeps its range but now holds the new record.
        let mut after = before.clone();
        after.observe(2.5, 6.0);
        let first = after.commit().unwrap();
        assert_eq!(first, 2);
        let records = after.sorted();
        let stats = PrefixStats::from_records(records);
        for breaks in [vec![1, 2], vec![0, 1, 2, 3], vec![3]] {
            set.rebuild(records, &stats, &breaks, first);
            assert_eq!(set, BucketSet::from_breaks(records, &breaks), "{breaks:?}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_breaks_rejected() {
        let l = records(&[1.0, 2.0, 3.0]);
        BucketSet::from_breaks(l.sorted(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "empty record list")]
    fn empty_records_rejected() {
        BucketSet::from_breaks(&[], &[]);
    }

    #[test]
    fn singleton_buckets_have_rep_equal_mean() {
        let l = records(&[1.0, 2.0, 3.0]);
        let set = BucketSet::from_breaks(l.sorted(), &[0, 1]);
        for b in set.buckets() {
            assert_eq!(b.rep, b.wmean);
            assert_eq!(b.count, 1);
        }
    }
}
