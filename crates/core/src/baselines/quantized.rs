//! Quantized Bucketing — the quantile-clustering strategy of Phung et
//! al. \[11\], used as the third informed comparator in §V-A.
//!
//! The record list is split at a fixed quantile (the 50th percentile in the
//! paper's configuration — §V-B: "it separates the buckets at the 50th
//! quantile, which reduces the number of retries on average"). The first
//! allocation is the low bucket's representative (the quantile value); a
//! failure escalates to the high bucket's representative (the max seen), and
//! past that doubles. The low-first policy trades frequent-but-cheap failed
//! allocations for small internal fragmentation, which is why Fig. 6 shows
//! this algorithm with the largest failed-allocation share and why it
//! excels on the outlier-heavy Exponential workflow.

use crate::estimator::{double_allocation, Prediction, ValueEstimator};
use crate::record::RecordList;
use crate::task::TaskContext;

/// Quantile-split bucketing with deterministic low-first allocation.
#[derive(Debug, Clone)]
pub struct QuantizedBucketing {
    quantile: f64,
    records: RecordList,
}

impl QuantizedBucketing {
    /// The paper's configuration: split at the 50th percentile.
    pub fn new() -> Self {
        Self::with_quantile(0.5)
    }

    /// Ablation constructor: split at an arbitrary quantile in `(0, 1]`.
    pub fn with_quantile(quantile: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile <= 1.0,
            "quantile must be in (0, 1]"
        );
        QuantizedBucketing {
            quantile,
            records: RecordList::new(),
        }
    }

    /// The split quantile.
    pub fn quantile(&self) -> f64 {
        self.quantile
    }

    /// The current low-bucket representative (the quantile value).
    fn low_rep(&self) -> Option<f64> {
        self.records.quantile(self.quantile)
    }

    /// The current high-bucket representative (the max value).
    fn high_rep(&self) -> Option<f64> {
        self.records.max_value()
    }
}

impl Default for QuantizedBucketing {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueEstimator for QuantizedBucketing {
    fn name(&self) -> &'static str {
        "quantized-bucketing"
    }

    fn observe(&mut self, value: f64, sig: f64) {
        self.records.observe(value, sig);
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn predict_first(&mut self, _ctx: &TaskContext, _u: f64) -> Option<Prediction> {
        // The quantile needs the sorted order; fold any pending batch first.
        self.records.commit();
        // The low bucket's representative: the quantile value itself.
        self.low_rep().map(Prediction::point)
    }

    fn predict_retry(&mut self, _ctx: &TaskContext, prev: f64, _u: f64) -> Option<Prediction> {
        let high = self.high_rep()?;
        if prev < high {
            Some(Prediction::point(high))
        } else {
            Some(Prediction::doubling(
                double_allocation(prev).max(prev * 2.0),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(q: &mut QuantizedBucketing, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            q.observe(v, (i + 1) as f64);
        }
    }

    #[test]
    fn empty_has_no_prediction() {
        let mut q = QuantizedBucketing::new();
        assert_eq!(q.first(0.1), None);
        assert_eq!(q.retry(5.0, 0.1), None);
    }

    #[test]
    fn first_allocation_is_median() {
        let mut q = QuantizedBucketing::new();
        feed(&mut q, &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(q.first(0.9), Some(20.0)); // nearest-rank p50 of 4 values
        assert_eq!(q.low_rep(), Some(20.0));
        assert_eq!(q.high_rep(), Some(40.0));
    }

    #[test]
    fn retry_escalates_median_then_max_then_doubles() {
        let mut q = QuantizedBucketing::new();
        feed(&mut q, &[10.0, 20.0, 30.0, 40.0]);
        let first = q.first(0.0).unwrap();
        let second = q.retry(first, 0.0).unwrap();
        let third = q.retry(second, 0.0).unwrap();
        assert_eq!(first, 20.0);
        assert_eq!(second, 40.0);
        assert_eq!(third, 80.0);
    }

    #[test]
    fn outliers_do_not_inflate_first_allocation() {
        // The §V-B rationale: the occasional huge task must not drag every
        // allocation up the way Max Seen does.
        let mut q = QuantizedBucketing::new();
        feed(&mut q, &[10.0; 99]);
        q.observe(100000.0, 100.0);
        assert_eq!(q.first(0.0), Some(10.0));
    }

    #[test]
    fn custom_quantile() {
        let mut q = QuantizedBucketing::with_quantile(0.75);
        feed(&mut q, &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(q.first(0.0), Some(30.0));
        assert_eq!(q.quantile(), 0.75);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn zero_quantile_rejected() {
        QuantizedBucketing::with_quantile(0.0);
    }
}
