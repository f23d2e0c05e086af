//! Feature-conditioned first allocation (*Ponder*-style, arXiv:2408.00047).
//!
//! The paper's bucketing manager keys every resource state on the task's
//! category alone (§IV-D). Ponder's observation is that pre-run task
//! features — input sizes above all — predict peak consumption far better
//! than category membership, because a category mixes small and large
//! inputs. [`FeatureBinned`] conditions on [`TaskFeatures::input_signal`]:
//! the `[0, 1]` signal range is cut into [`FeatureBinned::BINS`] equal bins,
//! each bin keeps its own running peak maximum, and a prediction answers
//! from the task's bin (times a small headroom factor) whenever the bin has
//! enough support.
//!
//! Two fallback rules keep the estimator safe where the feature is
//! uninformative:
//!
//! 1. **Low support** — a bin with fewer than 4 observations
//!    answers from the *category state* (the global running max over all
//!    bins) instead, exactly what a category-global algorithm would know.
//! 2. **Category floor** — a bin prediction is clamped from below by the
//!    smallest observed peak, so feature-conditioning can specialize
//!    *within* the category's observed range but never extrapolate under
//!    it. The property suite pins this invariant.
//!
//! Retries ignore the feature (a kill means the sub-state was wrong) and
//! escalate through the category maximum, then doubling.

use crate::estimator::{double_allocation, Prediction, ValueEstimator};
use crate::task::{TaskContext, TaskFeatures};

/// Running support and peak maximum of one feature bin.
#[derive(Debug, Clone, Copy, Default)]
struct BinState {
    count: usize,
    max: f64,
}

/// A feature-conditioned estimator for one (category, resource) state.
#[derive(Debug, Clone)]
pub struct FeatureBinned {
    bins: [BinState; Self::BINS],
    global: BinState,
    min_seen: f64,
}

impl FeatureBinned {
    /// Number of equal-width bins over the `[0, 1]` input-signal range.
    pub const BINS: usize = 8;

    /// Minimum per-bin observations before the sub-state answers.
    const MIN_SUPPORT: usize = 4;

    /// Multiplicative headroom over a bin's running maximum.
    const HEADROOM: f64 = 1.05;

    /// An empty estimator (support 4, 5% headroom).
    pub fn new() -> Self {
        FeatureBinned {
            bins: [BinState::default(); Self::BINS],
            global: BinState::default(),
            min_seen: f64::INFINITY,
        }
    }

    /// The bin index a signal falls into.
    fn bin_of(signal: f64) -> usize {
        let clamped = signal.clamp(0.0, 1.0);
        ((clamped * Self::BINS as f64) as usize).min(Self::BINS - 1)
    }

    /// The category floor: the smallest peak observed so far.
    pub fn floor(&self) -> Option<f64> {
        (self.global.count > 0).then_some(self.min_seen)
    }
}

impl Default for FeatureBinned {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueEstimator for FeatureBinned {
    fn name(&self) -> &'static str {
        "feature-binned"
    }

    fn observe(&mut self, value: f64, sig: f64) {
        // Featureless ingestion (oplog replays of pre-feature records):
        // only the category state learns.
        let _ = sig;
        self.global.count += 1;
        self.global.max = self.global.max.max(value);
        self.min_seen = self.min_seen.min(value);
    }

    fn observe_ctx(&mut self, features: &TaskFeatures, value: f64, sig: f64) {
        self.observe(value, sig);
        let bin = &mut self.bins[Self::bin_of(features.input_signal)];
        bin.count += 1;
        bin.max = bin.max.max(value);
    }

    fn len(&self) -> usize {
        self.global.count
    }

    fn predict_first(&mut self, ctx: &TaskContext, _u: f64) -> Option<Prediction> {
        if self.global.count == 0 {
            return None;
        }
        let idx = Self::bin_of(ctx.features.input_signal);
        let bin = self.bins[idx];
        if bin.count >= Self::MIN_SUPPORT {
            // Rule 2: never below the category floor.
            let value = (bin.max * Self::HEADROOM).max(self.min_seen);
            Some(Prediction::feature_bin(value, idx))
        } else {
            // Rule 1: low support falls back to the category state.
            Some(Prediction::point(self.global.max * Self::HEADROOM))
        }
    }

    fn predict_retry(&mut self, _ctx: &TaskContext, prev: f64, _u: f64) -> Option<Prediction> {
        if self.global.count == 0 {
            return None;
        }
        // The sub-state under-predicted; escalate through the category max,
        // then geometrically.
        let category_max = self.global.max * Self::HEADROOM;
        if prev < category_max {
            Some(Prediction::point(category_max))
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
    use crate::task::CategoryId;

    fn ctx(signal: f64) -> TaskContext {
        TaskContext::new(CategoryId(0), TaskFeatures::with_input_signal(signal))
    }

    #[test]
    fn empty_has_no_prediction() {
        let mut fb = FeatureBinned::new();
        assert!(fb.predict_first(&ctx(0.5), 0.3).is_none());
        assert!(fb.predict_retry(&ctx(0.5), 10.0, 0.3).is_none());
        assert!(fb.floor().is_none());
    }

    #[test]
    fn bins_partition_the_signal_range() {
        assert_eq!(FeatureBinned::bin_of(0.0), 0);
        assert_eq!(FeatureBinned::bin_of(1.0), FeatureBinned::BINS - 1);
        assert_eq!(FeatureBinned::bin_of(-3.0), 0);
        assert_eq!(FeatureBinned::bin_of(7.0), FeatureBinned::BINS - 1);
        // 0.5 lands exactly on the boundary of the upper half.
        assert_eq!(FeatureBinned::bin_of(0.5), FeatureBinned::BINS / 2);
    }

    #[test]
    fn supported_bin_specializes_below_the_category_max() {
        let mut fb = FeatureBinned::new();
        // Small-input mode near signal 0.2 peaks ~100; large-input mode
        // near 0.8 peaks ~1000.
        for i in 0..10 {
            fb.observe_ctx(&TaskFeatures::with_input_signal(0.2), 100.0 + i as f64, 1.0);
            fb.observe_ctx(
                &TaskFeatures::with_input_signal(0.8),
                1000.0 + i as f64,
                1.0,
            );
        }
        let small = fb.predict_first(&ctx(0.2), 0.5).unwrap();
        let large = fb.predict_first(&ctx(0.8), 0.5).unwrap();
        assert!(matches!(
            small.source,
            crate::estimator::AllocSource::FeatureBin { .. }
        ));
        // The small bin answers near its own max, far under the global max.
        assert!(small.value < 200.0, "small bin over-allocated: {small:?}");
        assert!(
            large.value >= 1009.0,
            "large bin under-allocated: {large:?}"
        );
        // A bin with no support falls back to the category state.
        let unseen = fb.predict_first(&ctx(0.5), 0.5).unwrap();
        assert_eq!(unseen.source, crate::estimator::AllocSource::Point);
        assert!(unseen.value >= 1009.0);
    }

    #[test]
    fn low_support_falls_back_until_threshold() {
        let mut fb = FeatureBinned::new();
        for i in 0..FeatureBinned::MIN_SUPPORT {
            fb.observe_ctx(&TaskFeatures::with_input_signal(0.9), 500.0, (i + 1) as f64);
            fb.observe_ctx(&TaskFeatures::with_input_signal(0.1), 50.0, (i + 1) as f64);
            let p = fb.predict_first(&ctx(0.1), 0.0).unwrap();
            if i + 1 < FeatureBinned::MIN_SUPPORT {
                assert_eq!(p.source, crate::estimator::AllocSource::Point, "i={i}");
            } else {
                assert!(
                    matches!(p.source, crate::estimator::AllocSource::FeatureBin { .. }),
                    "i={i}"
                );
            }
        }
    }

    #[test]
    fn predictions_never_drop_below_the_category_floor() {
        let mut fb = FeatureBinned::new();
        // A bin full of tiny peaks, but the category's smallest peak is
        // larger: the clamp keeps the bin from extrapolating under it.
        for _ in 0..8 {
            fb.observe_ctx(&TaskFeatures::with_input_signal(0.3), 10.0, 1.0);
        }
        let floor = fb.floor().unwrap();
        let p = fb.predict_first(&ctx(0.3), 0.0).unwrap();
        assert!(p.value >= floor);
    }

    #[test]
    fn retry_escalates_through_category_max_then_doubles() {
        let mut fb = FeatureBinned::new();
        for _ in 0..8 {
            fb.observe_ctx(&TaskFeatures::with_input_signal(0.2), 100.0, 1.0);
            fb.observe_ctx(&TaskFeatures::with_input_signal(0.8), 1000.0, 1.0);
        }
        let first = fb.predict_first(&ctx(0.2), 0.0).unwrap().value;
        let second = fb.predict_retry(&ctx(0.2), first, 0.0).unwrap().value;
        let third = fb.predict_retry(&ctx(0.2), second, 0.0).unwrap().value;
        assert!(second > first);
        assert_eq!(second, 1000.0 * FeatureBinned::HEADROOM);
        assert_eq!(third, second * 2.0);
    }

    #[test]
    fn featureless_observe_only_feeds_the_category_state() {
        let mut fb = FeatureBinned::new();
        for _ in 0..10 {
            fb.observe(400.0, 1.0);
        }
        assert_eq!(fb.len(), 10);
        assert_eq!(fb.bins[FeatureBinned::bin_of(0.0)].count, 0);
        let p = fb.predict_first(&ctx(0.0), 0.0).unwrap();
        assert_eq!(p.source, crate::estimator::AllocSource::Point);
    }
}
