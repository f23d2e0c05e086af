//! The shared prediction/retry policy of the bucketing approach.
//!
//! §IV-A: all bucketing algorithms share the same prediction machinery —
//! sample a bucket by probability and allocate its representative; on
//! resource exhaustion consider only strictly-higher buckets (renormalized);
//! past the top bucket, double until success. They differ only in the
//! [`Partitioner`] that cuts the record list.
//!
//! Recomputation is *lazy*: observations mark the cached [`BucketSet`] dirty
//! and the next prediction rebuilds it. This implements the batching
//! discussed under Table I ("a sequence of completed tasks can be batched
//! into a large update if there's no ready tasks in-between"). A
//! paper-worst-case mode (`recompute_always`) forces a rebuild per
//! prediction, which is what Table I times.
//!
//! A rebuild redoes only what the new records changed. The pending batch is
//! merged into the sorted list, which reports the first index it touched;
//! the estimator's [`PrefixStats`] are rewritten from that index on, and
//! buckets lying wholly below it keep their sums. The partitioner still
//! scans the whole list, reading the kept cache.
//!
//! At paper scale the rebuild cadence is exact: every observation makes the
//! next prediction rebucket. Past [`EXACT_REBUCKET_LIMIT`] records the
//! per-observation rebuild would turn the whole run O(n²) (each rebuild
//! still re-partitions the full record list), so rebuilds switch to
//! *geometric batching*: a rebuild is deferred until the pending batch
//! reaches `1/`[`REBUCKET_BATCH_DIVISOR`] of the list, bounding total
//! rebuild work at O(n log n) while predictions between rebuilds serve the
//! cached bucket set in O(1). Every paper workflow keeps each category far
//! below the limit, so seed-scale runs are bit-identical to the
//! always-exact cadence; the batching only engages on million-task runs,
//! where the paper's own Table I argument (batch completed tasks into one
//! large update) justifies it.
//!
//! Each rebuild bumps a monotone *version*; [`ValueEstimator::take_rebucket`]
//! reports it (with the new configuration's size and §IV-C expected waste)
//! to the decision-tracing layer. The bookkeeping on the prediction hot path
//! is a counter increment and a flag — the [`RebucketInfo`] itself is only
//! materialized when somebody asks.

use crate::bucket::BucketSet;
use crate::cost::PrefixStats;
use crate::estimator::{double_allocation, Prediction, RebucketInfo, ValueEstimator};
use crate::partition::Partitioner;
use crate::record::RecordList;
use crate::task::TaskContext;

/// Record count at or below which every observation still triggers an
/// immediate rebucket on the next prediction (the paper's exact cadence).
/// Chosen above the largest per-category record count any seed-scale
/// workflow produces (TopEFT `processing`, 3994 tasks), so the golden and
/// differential suites never see a deferred rebuild.
pub const EXACT_REBUCKET_LIMIT: usize = 4096;

/// Past the exactness limit, a rebuild waits until the pending batch holds
/// at least `len / REBUCKET_BATCH_DIVISOR` observations: rebuild gaps grow
/// linearly with the list, so the number of rebuilds over n observations is
/// O(divisor · log n) and total rebuild work is O(n log n).
pub const REBUCKET_BATCH_DIVISOR: usize = 64;

/// A [`ValueEstimator`] built from any bucketing [`Partitioner`].
///
/// # Examples
///
/// ```
/// use tora_alloc::estimator::ValueEstimator;
/// use tora_alloc::exhaustive::ExhaustiveBucketing;
/// use tora_alloc::policy::BucketingEstimator;
///
/// let mut est = BucketingEstimator::new(ExhaustiveBucketing::new());
/// for i in 0..20 {
///     est.observe(300.0 + i as f64, 1.0 + i as f64);
/// }
/// let first = est.first(0.4).unwrap();      // a bucket representative
/// assert!(first >= 300.0 && first <= 319.0);
/// let retry = est.retry(first, 0.4).unwrap(); // §IV-A escalation
/// assert!(retry > first);
/// ```
#[derive(Debug, Clone)]
pub struct BucketingEstimator<P> {
    partitioner: P,
    records: RecordList,
    /// Prefix sums over `records.sorted()` as of the last rebuild.
    stats: PrefixStats,
    cached: BucketSet,
    dirty: bool,
    recompute_always: bool,
    /// Monotone rebuild counter (0 = never rebuilt).
    version: u64,
    /// A rebuild happened since the last [`ValueEstimator::take_rebucket`].
    rebucket_pending: bool,
}

impl<P: Partitioner> BucketingEstimator<P> {
    /// Wrap a partitioner with the shared bucketing policy.
    pub fn new(partitioner: P) -> Self {
        BucketingEstimator {
            partitioner,
            records: RecordList::new(),
            stats: PrefixStats::new(),
            cached: BucketSet::default(),
            dirty: false,
            recompute_always: false,
            version: 0,
            rebucket_pending: false,
        }
    }

    /// Force a full bucketing-state recomputation on every prediction, from
    /// the first record on — the worst case Table I measures.
    pub fn recompute_always(mut self) -> Self {
        self.recompute_always = true;
        self
    }

    /// The records observed so far.
    pub fn records(&self) -> &RecordList {
        &self.records
    }

    /// The current bucket set, recomputing if stale. `None` when no records
    /// exist.
    ///
    /// Past [`EXACT_REBUCKET_LIMIT`] records a dirty state may serve the
    /// cached (slightly stale) set until the pending batch is large enough —
    /// see the module docs on geometric batching.
    fn bucket_set(&mut self) -> Option<&BucketSet> {
        self.bucket_set_inner(false)
    }

    /// Whether a dirty state is due for an actual rebuild under the
    /// geometric-batching cadence.
    fn rebuild_due(&self) -> bool {
        let n = self.records.len();
        n <= EXACT_REBUCKET_LIMIT || self.records.pending_len() * REBUCKET_BATCH_DIVISOR >= n
    }

    fn bucket_set_inner(&mut self, force: bool) -> Option<&BucketSet> {
        if self.records.is_empty() {
            return None;
        }
        let rebuild = self.recompute_always
            || self.cached.is_empty()
            || (self.dirty && (force || self.rebuild_due()));
        if rebuild {
            // Fold the pending observation batch into the sorted list in one
            // merge — the amortization that replaces per-observe sorted
            // inserts. Nothing below the first index it touched changed.
            let changed = self.records.commit();
            let first = if self.recompute_always {
                0
            } else {
                changed.unwrap_or(self.stats.len())
            };
            let records = self.records.sorted();
            self.stats.update_from(records, first);
            let breaks = self.partitioner.partition(records, &self.stats);
            self.cached.rebuild(records, &self.stats, &breaks, first);
            self.dirty = false;
            self.version += 1;
            self.rebucket_pending = true;
        }
        Some(&self.cached)
    }

    /// The number of bucketing-state rebuilds so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The partitioner in use.
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Describe the current (fresh) bucketing state.
    fn info(&self) -> RebucketInfo {
        RebucketInfo {
            version: self.version,
            n_buckets: self.cached.len(),
            n_records: self.records.len(),
            cost: crate::cost::exhaustive_cost(&self.cached),
        }
    }
}

impl<P: Partitioner> ValueEstimator for BucketingEstimator<P> {
    fn name(&self) -> &'static str {
        self.partitioner.name()
    }

    fn observe(&mut self, value: f64, sig: f64) {
        self.records.observe(value, sig);
        self.dirty = true;
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn predict_first(&mut self, _ctx: &TaskContext, u: f64) -> Option<Prediction> {
        let set = self.bucket_set()?;
        let idx = set.sample(u)?;
        Some(Prediction::bucket(set.buckets()[idx].rep, idx))
    }

    fn predict_retry(&mut self, _ctx: &TaskContext, prev: f64, u: f64) -> Option<Prediction> {
        let set = self.bucket_set()?;
        match set.sample_above(prev, u) {
            Some(idx) => Some(Prediction::bucket(set.buckets()[idx].rep, idx)),
            // Previous allocation was at or above the top representative:
            // §IV-A doubling fallback.
            None => Some(Prediction::doubling(
                double_allocation(prev).max(prev * 2.0),
            )),
        }
    }

    fn rebucket(&mut self) -> Option<RebucketInfo> {
        // The explicit API forces a rebuild even when geometric batching
        // would defer it: the caller asked for a fresh state.
        self.bucket_set_inner(true)?;
        // The explicit call reports the state itself; nothing further is
        // pending for the tracing layer.
        self.rebucket_pending = false;
        Some(self.info())
    }

    fn snapshot(&self) -> Option<BucketSet> {
        if self.cached.is_empty() {
            return None;
        }
        Some(self.cached.clone())
    }

    fn take_rebucket(&mut self) -> Option<RebucketInfo> {
        if !self.rebucket_pending {
            return None;
        }
        self.rebucket_pending = false;
        Some(self.info())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveBucketing;
    use crate::greedy::GreedyBucketing;

    fn bimodal_estimator() -> BucketingEstimator<ExhaustiveBucketing> {
        let mut est = BucketingEstimator::new(ExhaustiveBucketing::new());
        // Two clear clusters: ~100 and ~1000.
        for i in 0..20 {
            est.observe(100.0 + i as f64, (i + 1) as f64);
        }
        for i in 0..20 {
            est.observe(1000.0 + i as f64, (21 + i) as f64);
        }
        est
    }

    #[test]
    fn empty_estimator_predicts_nothing() {
        let mut est = BucketingEstimator::new(GreedyBucketing::new());
        assert!(est.is_empty());
        assert_eq!(est.first(0.5), None);
        assert_eq!(est.retry(4.0, 0.5), None);
        assert!(est.bucket_set().is_none());
        assert!(est.rebucket().is_none());
        assert!(est.snapshot().is_none());
        assert!(est.take_rebucket().is_none());
    }

    #[test]
    fn predictions_are_bucket_representatives() {
        let mut est = bimodal_estimator();
        let reps: Vec<f64> = est
            .bucket_set()
            .unwrap()
            .buckets()
            .iter()
            .map(|b| b.rep)
            .collect();
        let ctx = TaskContext::from(crate::task::CategoryId(0));
        for u in [0.0, 0.1, 0.5, 0.9, 0.999] {
            let p = est.predict_first(&ctx, u).unwrap();
            assert!(
                reps.contains(&p.value),
                "allocation {} not a representative",
                p.value
            );
            // The bucket index in the provenance points at the sampled rep.
            match p.source {
                crate::estimator::AllocSource::Bucket { idx } => {
                    assert_eq!(reps[idx], p.value);
                }
                other => panic!("expected bucket source, got {other:?}"),
            }
        }
    }

    #[test]
    fn retry_moves_strictly_upward() {
        let mut est = bimodal_estimator();
        let first = est.first(0.0).unwrap();
        let next = est.retry(first, 0.5).unwrap();
        assert!(next > first);
        // Retrying from the top representative must double.
        let top = est.bucket_set().unwrap().buckets().last().unwrap().rep;
        let ctx = TaskContext::from(crate::task::CategoryId(0));
        let doubled = est.predict_retry(&ctx, top, 0.5).unwrap();
        assert_eq!(doubled.value, top * 2.0);
        assert_eq!(doubled.source, crate::estimator::AllocSource::Doubling);
    }

    #[test]
    fn retry_chain_terminates_above_any_demand() {
        let mut est = bimodal_estimator();
        let demand = 1e7;
        let mut alloc = est.first(0.42).unwrap();
        let mut steps = 0;
        while alloc < demand {
            alloc = est.retry(alloc, 0.42).unwrap();
            steps += 1;
            assert!(steps < 64, "retry chain did not terminate");
        }
        assert!(alloc >= demand);
    }

    #[test]
    fn lazy_recompute_batches_observations() {
        let mut est = bimodal_estimator();
        let set_before = est.bucket_set().unwrap().clone();
        // Many observations, no prediction in between: one rebuild at the end.
        for i in 0..100 {
            est.observe(500.0, (41 + i) as f64);
        }
        assert!(est.dirty);
        let v = est.version();
        let _ = est.first(0.3);
        assert!(!est.dirty);
        assert_eq!(est.version(), v + 1);
        let set_after = est.bucket_set().unwrap().clone();
        assert_ne!(set_before, set_after);
    }

    #[test]
    fn cadence_is_exact_at_paper_scale() {
        // Below the exactness limit every observe → predict pair rebuilds,
        // exactly the pre-batching behaviour the golden suites pin.
        let mut est = BucketingEstimator::new(GreedyBucketing::new());
        for i in 0..200u64 {
            est.observe(100.0 + (i % 13) as f64 * 50.0, (i + 1) as f64);
            let _ = est.first(0.4);
            assert_eq!(est.version(), i + 1, "rebuild per observation");
        }
    }

    #[test]
    fn geometric_batching_defers_rebuilds_past_the_exact_limit() {
        let mut est = BucketingEstimator::new(GreedyBucketing::new());
        for i in 0..=EXACT_REBUCKET_LIMIT {
            est.observe(100.0 + (i % 97) as f64, (i + 1) as f64);
        }
        let _ = est.first(0.5);
        let v = est.version();
        // A single pending record is below the batching threshold: the
        // prediction serves the cached set without rebuilding.
        est.observe(5.0, 1e6);
        let _ = est.first(0.5);
        assert_eq!(est.version(), v, "one pending record must not rebuild");
        assert!(est.dirty, "deferred state stays dirty");
        // A full batch triggers the rebuild.
        for i in 0..EXACT_REBUCKET_LIMIT / REBUCKET_BATCH_DIVISOR + 2 {
            est.observe(50.0, (i + 1) as f64);
        }
        let _ = est.first(0.5);
        assert_eq!(est.version(), v + 1, "batched rebuild fires");
        // The explicit rebucket API always forces freshness.
        est.observe(25.0, 1.0);
        assert_eq!(est.rebucket().unwrap().version, v + 2);
    }

    #[test]
    fn recompute_always_still_correct() {
        let mut a = bimodal_estimator();
        let mut b = bimodal_estimator().recompute_always();
        for u in [0.0, 0.25, 0.5, 0.75] {
            assert_eq!(a.first(u), b.first(u));
        }
    }

    #[test]
    fn significance_shift_follows_phases() {
        // Phase 1: small tasks with low significance. Phase 2: large tasks
        // with much higher significance. The high bucket must carry most of
        // the probability, so a mid-range draw allocates large.
        let mut est = BucketingEstimator::new(ExhaustiveBucketing::new());
        for i in 0..50 {
            est.observe(100.0 + (i % 5) as f64, (i + 1) as f64);
        }
        for i in 0..50 {
            est.observe(900.0 + (i % 5) as f64, (51 + i) as f64);
        }
        let set = est.bucket_set().unwrap();
        let top = set.buckets().last().unwrap();
        assert!(
            top.prob > 0.6,
            "recent large phase should dominate: prob {}",
            top.prob
        );
    }

    #[test]
    fn single_record_allocates_exactly_it() {
        let mut est = BucketingEstimator::new(GreedyBucketing::new());
        est.observe(306.0, 1.0);
        assert_eq!(est.first(0.7), Some(306.0));
        assert_eq!(est.retry(306.0, 0.7), Some(612.0));
    }

    #[test]
    fn names_flow_through() {
        let est = BucketingEstimator::new(GreedyBucketing::new());
        assert_eq!(est.name(), "greedy-bucketing");
        let est = BucketingEstimator::new(ExhaustiveBucketing::new());
        assert_eq!(est.name(), "exhaustive-bucketing");
    }

    #[test]
    fn snapshot_is_read_only_and_may_lag() {
        let mut est = bimodal_estimator();
        // Nothing computed yet: snapshot has nothing to show.
        assert!(est.snapshot().is_none());
        let _ = est.first(0.5);
        let fresh = est.snapshot().expect("state exists after a prediction");
        // New observations do NOT refresh the read-only view...
        est.observe(5000.0, 100.0);
        assert_eq!(est.snapshot().unwrap(), fresh);
        // ...an explicit rebucket does.
        let info = est.rebucket().unwrap();
        assert_eq!(info.n_records, 41);
        assert_ne!(est.snapshot().unwrap(), fresh);
    }

    #[test]
    fn take_rebucket_drains_once_per_rebuild() {
        let mut est = bimodal_estimator();
        assert!(est.take_rebucket().is_none()); // nothing computed yet
        let _ = est.first(0.5);
        let info = est.take_rebucket().expect("first build pending");
        assert_eq!(info.version, 1);
        assert_eq!(info.n_records, 40);
        assert!(info.n_buckets >= 2, "bimodal data should split");
        assert!(info.cost >= 0.0);
        // Drained: no duplicate notice.
        assert!(est.take_rebucket().is_none());
        // A prediction without new records does not rebuild.
        let _ = est.first(0.9);
        assert!(est.take_rebucket().is_none());
        // New records + prediction → a new pending notice.
        est.observe(450.0, 41.0);
        let _ = est.first(0.2);
        assert_eq!(est.take_rebucket().unwrap().version, 2);
    }

    #[test]
    fn explicit_rebucket_clears_pending_notice() {
        let mut est = bimodal_estimator();
        let info = est.rebucket().unwrap();
        assert_eq!(info.version, 1);
        // The explicit call already reported this rebuild.
        assert!(est.take_rebucket().is_none());
        // Rebucket without new data is idempotent (no recompute).
        assert_eq!(est.rebucket().unwrap().version, 1);
    }
}
