//! Per-resource scalar record storage for the bucketing algorithms.
//!
//! The bucketing manager keeps, per task category and per resource kind, a
//! list of `(value, significance)` pairs from completed tasks (§IV-A). The
//! algorithms operate on the records *sorted by value*; [`RecordList`]
//! maintains that order with **amortized batch ingestion**: observations land
//! in a pending buffer in O(1) and are folded into the sorted list in one
//! merge pass when a consumer next needs the order
//! ([`RecordList::commit`]). Aggregates that don't need the order —
//! [`RecordList::min_value`], [`RecordList::max_value`] — are maintained as
//! running caches and stay O(1) regardless of pending state.

use serde::{Deserialize, Serialize};

/// One observation of a task's peak consumption of a single resource.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalarRecord {
    /// Peak consumption (units depend on the resource kind).
    pub value: f64,
    /// Significance weight; §V-A sets it to the task id (we use id + 1 so
    /// every record carries positive weight).
    pub sig: f64,
}

impl ScalarRecord {
    /// A record with the given value and significance.
    pub fn new(value: f64, sig: f64) -> Self {
        debug_assert!(value.is_finite() && value >= 0.0, "record value invalid");
        debug_assert!(sig.is_finite() && sig > 0.0, "significance must be > 0");
        ScalarRecord { value, sig }
    }
}

/// A list of scalar records kept sorted by value (ties keep insertion order
/// among equals, which does not affect any bucketing computation).
///
/// Observations accumulate in a pending batch; order-dependent accessors
/// ([`sorted`](Self::sorted), [`quantile`](Self::quantile),
/// [`closest_below`](Self::closest_below)) require the batch to be folded in
/// first via [`commit`](Self::commit). The lazy-rebucket estimators call
/// `commit` once per rebucket, turning N sorted inserts into one merge, and
/// recompute their prefix sums and buckets only from the index it returns.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecordList {
    sorted: Vec<ScalarRecord>,
    /// Observations not yet merged into `sorted`.
    pending: Vec<ScalarRecord>,
    /// Running min/max value over `sorted` and `pending` (NaN when empty).
    min_value: f64,
    max_value: f64,
}

impl RecordList {
    /// An empty list.
    pub fn new() -> Self {
        RecordList {
            sorted: Vec::new(),
            pending: Vec::new(),
            min_value: f64::NAN,
            max_value: f64::NAN,
        }
    }

    /// Number of records, including uncommitted pending observations.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.pending.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty() && self.pending.is_empty()
    }

    /// Number of observations waiting in the pending batch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Buffer a record in O(1); it joins the sorted order at the next
    /// [`commit`](Self::commit).
    pub fn push(&mut self, record: ScalarRecord) {
        if self.min_value.is_nan() || record.value < self.min_value {
            self.min_value = record.value;
        }
        if self.max_value.is_nan() || record.value > self.max_value {
            self.max_value = record.value;
        }
        self.pending.push(record);
    }

    /// Buffer a `(value, sig)` pair.
    pub fn observe(&mut self, value: f64, sig: f64) {
        self.push(ScalarRecord::new(value, sig));
    }

    /// Fold the pending batch into the sorted list: sort the batch, then
    /// place it back-to-front, each record found by a galloping binary
    /// search after the committed records of equal value and the committed
    /// records above it moved up in one block. Every committed record moves
    /// at most once.
    ///
    /// Returns the first index at which the sorted list changed — every
    /// record below it is where it was — or `None` when nothing was
    /// pending. Ties keep insertion order (pending records were observed
    /// later, so they land after equal-valued sorted ones).
    pub fn commit(&mut self) -> Option<usize> {
        if self.pending.is_empty() {
            return None;
        }
        // Stable sort keeps insertion order among equal pending values.
        self.pending
            .sort_by(|a, b| a.value.partial_cmp(&b.value).expect("finite record values"));
        let old_len = self.sorted.len();
        self.sorted.resize(
            old_len + self.pending.len(),
            ScalarRecord {
                value: 0.0,
                sig: 0.0,
            },
        );
        // `end` is one past the last committed record not yet moved.
        let mut end = old_len;
        for (j, rec) in self.pending.iter().enumerate().rev() {
            let pos = upper_bound_before(&self.sorted[..end], rec.value);
            // Pending records 0..=j all land below sorted[pos..end].
            self.sorted.copy_within(pos..end, pos + j + 1);
            self.sorted[pos + j] = *rec;
            end = pos;
        }
        self.pending.clear();
        Some(end)
    }

    /// The records, sorted ascending by value.
    ///
    /// # Panics
    /// If observations are pending — call [`commit`](Self::commit) first.
    pub fn sorted(&self) -> &[ScalarRecord] {
        assert!(
            self.pending.is_empty(),
            "RecordList::sorted with {} uncommitted observations; call commit() first",
            self.pending.len()
        );
        &self.sorted
    }

    /// Largest observed value, if any (O(1), pending included).
    pub fn max_value(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.max_value)
        }
    }

    /// Smallest observed value, if any (O(1), pending included).
    pub fn min_value(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.min_value)
        }
    }

    /// The value at the given quantile `q ∈ [0, 1]` by *record count*
    /// (nearest-rank on the sorted list). `None` when empty.
    ///
    /// # Panics
    /// If observations are pending — call [`commit`](Self::commit) first.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(sorted[idx].value)
    }

    /// Index of the record closest to `target` from below: the largest index
    /// `i` such that `sorted[i].value < target`. `None` when every record is
    /// ≥ `target`.
    ///
    /// This is the mapping step of the Exhaustive Bucketing candidate grid
    /// (§IV-D step 2: "map its value to the closest record that has a lower
    /// value than it").
    ///
    /// # Panics
    /// If observations are pending — call [`commit`](Self::commit) first.
    pub fn closest_below(&self, target: f64) -> Option<usize> {
        let idx = self.sorted().partition_point(|r| r.value < target);
        idx.checked_sub(1)
    }
}

/// The number of leading records in `sorted` with `value <= target` — the
/// index after every equal value — found by galloping back from the end and
/// then binary searching the bracket. A batch inserted back-to-front lands a
/// short way below the previous insertion, so the probes stay near records
/// just touched instead of striding across the whole list.
fn upper_bound_before(sorted: &[ScalarRecord], target: f64) -> usize {
    // Every record in sorted[hi..] is above `target`.
    let mut hi = sorted.len();
    let mut step = 1;
    while hi > 0 {
        let probe = hi.saturating_sub(step);
        if sorted[probe].value <= target {
            return probe + 1 + sorted[probe + 1..hi].partition_point(|r| r.value <= target);
        }
        hi = probe;
        step *= 2;
    }
    0
}

impl FromIterator<(f64, f64)> for RecordList {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut list = RecordList::new();
        for (value, sig) in iter {
            list.observe(value, sig);
        }
        list.commit();
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(values: &[f64]) -> RecordList {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64))
            .collect()
    }

    #[test]
    fn stays_sorted_under_arbitrary_insertion() {
        let l = list(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let values: Vec<f64> = l.sorted().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(l.min_value(), Some(1.0));
        assert_eq!(l.max_value(), Some(5.0));
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn aggregates_are_live_before_commit() {
        // The running caches answer without a merge.
        let mut l = RecordList::new();
        l.observe(10.0, 1.0);
        l.observe(2.0, 3.0);
        assert_eq!(l.pending_len(), 2);
        assert_eq!(l.len(), 2);
        assert_eq!(l.min_value(), Some(2.0));
        assert_eq!(l.max_value(), Some(10.0));
        assert_eq!(l.commit(), Some(0));
        assert_eq!(l.pending_len(), 0);
        assert_eq!(l.commit(), None, "second commit is a no-op");
        assert_eq!(l.sorted().len(), 2);
    }

    #[test]
    fn commit_interleaves_batches_correctly() {
        let mut l = RecordList::new();
        for v in [5.0, 1.0, 9.0] {
            l.observe(v, 1.0);
        }
        l.commit();
        for v in [7.0, 0.5, 9.5, 3.0] {
            l.observe(v, 2.0);
        }
        l.commit();
        let values: Vec<f64> = l.sorted().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![0.5, 1.0, 3.0, 5.0, 7.0, 9.0, 9.5]);
    }

    #[test]
    fn commit_keeps_tie_order_by_insertion() {
        // Equal values: earlier-committed records stay first, pending ones
        // keep their relative order after them.
        let mut l = RecordList::new();
        l.observe(2.0, 1.0);
        l.observe(2.0, 2.0);
        l.commit();
        l.observe(2.0, 3.0);
        l.observe(2.0, 4.0);
        l.commit();
        let sigs: Vec<f64> = l.sorted().iter().map(|r| r.sig).collect();
        assert_eq!(sigs, vec![1.0, 2.0, 3.0, 4.0]);
    }

    /// Commit `batch` into `l`, returning the index `commit` reports.
    fn commit_batch(l: &mut RecordList, batch: &[f64]) -> Option<usize> {
        for &v in batch {
            l.observe(v, 1.0);
        }
        l.commit()
    }

    #[test]
    fn commit_into_an_empty_list_changes_from_zero() {
        let mut l = RecordList::new();
        assert_eq!(commit_batch(&mut l, &[3.0, 1.0]), Some(0));
    }

    #[test]
    fn commit_below_every_record_changes_from_zero() {
        let mut l = list(&[5.0, 6.0, 7.0]);
        assert_eq!(commit_batch(&mut l, &[2.0, 1.0]), Some(0));
        let values: Vec<f64> = l.sorted().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![1.0, 2.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn commit_above_every_record_changes_from_the_old_end() {
        let mut l = list(&[5.0, 6.0, 7.0]);
        assert_eq!(commit_batch(&mut l, &[9.0, 8.0]), Some(3));
        let values: Vec<f64> = l.sorted().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn commit_of_equal_values_changes_after_the_committed_ones() {
        let mut l = list(&[5.0, 6.0, 6.0, 7.0]);
        assert_eq!(commit_batch(&mut l, &[6.0]), Some(3));
        let sigs: Vec<f64> = l.sorted().iter().map(|r| r.sig).collect();
        assert_eq!(sigs, vec![1.0, 2.0, 3.0, 1.0, 4.0]);
    }

    #[test]
    fn a_second_commit_reports_no_change() {
        let mut l = RecordList::new();
        assert_eq!(commit_batch(&mut l, &[4.0]), Some(0));
        assert_eq!(l.commit(), None);
    }

    #[test]
    #[should_panic(expected = "uncommitted")]
    fn sorted_rejects_uncommitted_state() {
        let mut l = RecordList::new();
        l.observe(1.0, 1.0);
        let _ = l.sorted();
    }

    #[test]
    fn empty_list_yields_none() {
        let l = RecordList::new();
        assert!(l.is_empty());
        assert_eq!(l.max_value(), None);
        assert_eq!(l.min_value(), None);
        assert_eq!(l.quantile(0.5), None);
        assert_eq!(l.closest_below(10.0), None);
    }

    #[test]
    fn quantile_nearest_rank() {
        let l = list(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(l.quantile(0.0), Some(10.0));
        assert_eq!(l.quantile(0.25), Some(10.0));
        assert_eq!(l.quantile(0.5), Some(20.0));
        assert_eq!(l.quantile(0.75), Some(30.0));
        assert_eq!(l.quantile(1.0), Some(40.0));
    }

    #[test]
    fn closest_below_is_strictly_lower() {
        let l = list(&[10.0, 20.0, 30.0]);
        assert_eq!(l.closest_below(5.0), None);
        assert_eq!(l.closest_below(10.0), None); // strict: no value < 10
        assert_eq!(l.closest_below(10.1), Some(0));
        assert_eq!(l.closest_below(25.0), Some(1));
        assert_eq!(l.closest_below(1000.0), Some(2));
    }

    #[test]
    fn duplicate_values_all_kept() {
        let mut l = RecordList::new();
        for i in 0..4 {
            l.observe(2.0, (i + 1) as f64);
        }
        l.commit();
        assert_eq!(l.len(), 4);
        assert_eq!(l.quantile(0.5), Some(2.0));
    }
}
