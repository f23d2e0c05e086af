//! The partitioner abstraction shared by the bucketing family.
//!
//! Greedy Bucketing, Exhaustive Bucketing and Quantized Bucketing differ
//! *only* in how they cut a sorted record list into buckets (§IV-A: the
//! algorithms "only diverge on how to update the internal bucketing states
//! and share the resource prediction approach"). A [`Partitioner`] computes
//! the cut; [`crate::policy::BucketingEstimator`] layers the shared
//! probabilistic prediction/retry behaviour on top.

use crate::cost::PrefixStats;
use crate::record::ScalarRecord;

/// Computes bucket break points for a sorted record list.
pub trait Partitioner: Send {
    /// Stable algorithm name.
    fn name(&self) -> &'static str;

    /// Break indices for `records` (sorted ascending by value): strictly
    /// increasing inclusive end-indices of every bucket except the last.
    /// An empty vector means a single bucket. Must be valid input for
    /// [`crate::bucket::BucketSet::from_breaks`].
    ///
    /// `stats` is the caller's prefix-sum cache over exactly `records`; the
    /// estimator keeps it across rebucketings, so a partitioner reads it
    /// rather than building its own.
    fn partition(&self, records: &[ScalarRecord], stats: &PrefixStats) -> Vec<usize>;
}

impl<P: Partitioner + ?Sized> Partitioner for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn partition(&self, records: &[ScalarRecord], stats: &PrefixStats) -> Vec<usize> {
        (**self).partition(records, stats)
    }
}

/// `partitioner`'s breaks for `records` over a freshly built prefix cache.
#[cfg(test)]
pub(crate) fn breaks_of<P: Partitioner + ?Sized>(
    partitioner: &P,
    records: &[ScalarRecord],
) -> Vec<usize> {
    partitioner.partition(records, &PrefixStats::from_records(records))
}
