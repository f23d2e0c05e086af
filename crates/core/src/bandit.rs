//! A semi-bandit allocation policy over a geometric arm grid
//! (*Optimal Resource Allocation with Semi-Bandit Feedback*,
//! arXiv:1406.3840).
//!
//! The allocation problem maps onto the semi-bandit setting naturally: the
//! arms are candidate allocation levels, a round is one task, and the loss
//! of an arm is the waste it would have produced on that task. Because a
//! completed task reveals its exact peak, the loss of *every* arm on the
//! grid is computable from one observation (the semi-bandit advantage over
//! strict bandit feedback: the whole component-wise loss vector is
//! revealed), so the policy does full-information updates while still
//! exploring with the allocator's uniform draw.
//!
//! Concretely, [`SemiBandit`] keeps [`SemiBandit::ARMS`] levels on the
//! geometric grid `capacity / 2^j`. For an observed peak `c`, arm level `L`
//! incurs
//!
//! * `(L − c) / capacity` when the task fits (`L ≥ c`) — fragmentation, and
//! * `L / capacity + retry_penalty` when it does not — the whole attempt is
//!   wasted, plus a fixed penalty for the kill/retry cycle.
//!
//! Losses are exponentially decayed (weight `decay` per round), so the
//! policy tracks drifting workloads the way the decayed feedback windows
//! do. Arm statistics are kept per DAG *phase* (depth bucket, from
//! [`crate::task::TaskFeatures::depth`]) with a category-global table as the
//! low-support fallback, so pipeline stages with different profiles learn
//! separate optima. Selection is ε-greedy driven entirely by the caller's
//! uniform draw — the policy consumes no RNG of its own, which keeps the
//! allocator's thread-count byte parity intact.

use crate::estimator::{double_allocation, Prediction, ValueEstimator};
use crate::task::{TaskContext, TaskFeatures};

/// Decayed loss statistics for one arm table (one phase, or global).
#[derive(Debug, Clone, Copy)]
struct ArmTable {
    loss: [f64; SemiBandit::ARMS],
    weight: f64,
    rounds: usize,
}

impl ArmTable {
    fn new() -> Self {
        ArmTable {
            loss: [0.0; SemiBandit::ARMS],
            weight: 0.0,
            rounds: 0,
        }
    }

    fn update(&mut self, levels: &[f64; SemiBandit::ARMS], capacity: f64, peak: f64, decay: f64) {
        for (slot, level) in self.loss.iter_mut().zip(levels) {
            let loss = if *level >= peak {
                (*level - peak) / capacity
            } else {
                *level / capacity + SemiBandit::RETRY_PENALTY
            };
            *slot = *slot * decay + loss;
        }
        self.weight = self.weight * decay + 1.0;
        self.rounds += 1;
    }

    /// The arm with the lowest decayed mean loss; ties go to the lower
    /// index (the larger, safer allocation).
    fn best(&self) -> usize {
        let mut best = 0;
        let mut best_loss = f64::INFINITY;
        for (idx, loss) in self.loss.iter().enumerate() {
            if *loss < best_loss {
                best_loss = *loss;
                best = idx;
            }
        }
        best
    }
}

/// A semi-bandit estimator for one (category, resource) state.
#[derive(Debug, Clone)]
pub struct SemiBandit {
    capacity: f64,
    levels: [f64; Self::ARMS],
    phases: [ArmTable; Self::PHASES],
    global: ArmTable,
    observed: usize,
    epsilon: f64,
    decay: f64,
}

impl SemiBandit {
    /// Arms on the geometric grid: `capacity / 2^j`, `j = 0..ARMS`.
    pub const ARMS: usize = 7;

    /// Depth buckets: depths `0, 1, 2` and `3+` learn separate tables.
    const PHASES: usize = 4;

    /// Exploration rate of the ε-greedy selection.
    pub const EPSILON: f64 = 0.1;

    /// Per-round exponential decay of the loss statistics.
    const DECAY: f64 = 0.98;

    /// Fixed extra loss for an arm that would not have fit the task.
    const RETRY_PENALTY: f64 = 0.25;

    /// Rounds a phase table needs before it answers instead of the global.
    const MIN_ROUNDS: usize = 8;

    /// A policy over one resource axis with the worker's capacity of it.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        let mut levels = [0.0; Self::ARMS];
        for (j, level) in levels.iter_mut().enumerate() {
            *level = capacity / (1u64 << j) as f64;
        }
        SemiBandit {
            capacity,
            levels,
            phases: [ArmTable::new(); Self::PHASES],
            global: ArmTable::new(),
            observed: 0,
            epsilon: Self::EPSILON,
            decay: Self::DECAY,
        }
    }

    /// The phase bucket a DAG depth maps to.
    fn phase_of(depth: u32) -> usize {
        (depth as usize).min(Self::PHASES - 1)
    }

    /// The table that should answer for `depth`: its phase table once it
    /// has seen enough rounds, the global table before that.
    fn table_for(&self, depth: u32) -> &ArmTable {
        let phase = &self.phases[Self::phase_of(depth)];
        if phase.rounds >= Self::MIN_ROUNDS {
            phase
        } else {
            &self.global
        }
    }
}

impl ValueEstimator for SemiBandit {
    fn name(&self) -> &'static str {
        "semi-bandit"
    }

    fn observe(&mut self, value: f64, sig: f64) {
        // Featureless ingestion: update the global table only.
        let _ = sig;
        let (levels, capacity, decay) = (self.levels, self.capacity, self.decay);
        self.global.update(&levels, capacity, value, decay);
        self.observed += 1;
    }

    fn observe_ctx(&mut self, features: &TaskFeatures, value: f64, sig: f64) {
        self.observe(value, sig);
        let (levels, capacity, decay) = (self.levels, self.capacity, self.decay);
        self.phases[Self::phase_of(features.depth)].update(&levels, capacity, value, decay);
    }

    fn len(&self) -> usize {
        self.observed
    }

    fn predict_first(&mut self, ctx: &TaskContext, u: f64) -> Option<Prediction> {
        if self.observed == 0 {
            return None;
        }
        let idx = if u < self.epsilon {
            // Exploration reuses the draw itself: `u / ε` is uniform again,
            // so no additional RNG consumption.
            (((u / self.epsilon) * Self::ARMS as f64) as usize).min(Self::ARMS - 1)
        } else {
            self.table_for(ctx.features.depth).best()
        };
        Some(Prediction::arm(self.levels[idx], idx))
    }

    fn predict_retry(&mut self, _ctx: &TaskContext, prev: f64, _u: f64) -> Option<Prediction> {
        if self.observed == 0 {
            return None;
        }
        // The smallest arm strictly above the failed allocation; past the
        // top arm (the capacity), double.
        match self
            .levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, level)| **level > prev)
        {
            Some((idx, level)) => Some(Prediction::arm(*level, idx)),
            None => Some(Prediction::doubling(
                double_allocation(prev).max(prev * 2.0),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::CategoryId;

    fn ctx(depth: u32) -> TaskContext {
        TaskContext::new(
            CategoryId(0),
            TaskFeatures {
                input_signal: 0.0,
                depth,
            },
        )
    }

    #[test]
    fn empty_has_no_prediction() {
        let mut sb = SemiBandit::new(1024.0);
        assert!(sb.predict_first(&ctx(0), 0.5).is_none());
        assert!(sb.predict_retry(&ctx(0), 8.0, 0.5).is_none());
    }

    #[test]
    fn levels_are_a_geometric_grid() {
        let sb = SemiBandit::new(1024.0);
        assert_eq!(sb.levels[0], 1024.0);
        assert_eq!(sb.levels[1], 512.0);
        assert_eq!(sb.levels[SemiBandit::ARMS - 1], 16.0);
    }

    #[test]
    fn exploitation_converges_to_the_cheapest_fitting_arm() {
        // Peaks ~100 on a 1024 machine: arm 128 (idx 3) fits with the least
        // fragmentation, so exploitation (u past ε) must pick it.
        let mut sb = SemiBandit::new(1024.0);
        for _ in 0..50 {
            sb.observe_ctx(&TaskFeatures::default(), 100.0, 1.0);
        }
        let p = sb.predict_first(&ctx(0), 0.5).unwrap();
        assert_eq!(p.value, 128.0, "{p:?}");
        assert_eq!(p.source, crate::estimator::AllocSource::Arm { idx: 3 });
    }

    #[test]
    fn exploration_spreads_over_the_grid_without_extra_rng() {
        let mut sb = SemiBandit::new(1024.0);
        sb.observe_ctx(&TaskFeatures::default(), 100.0, 1.0);
        // Draws inside [0, ε) map onto distinct arms deterministically.
        let low = sb.predict_first(&ctx(0), 0.0).unwrap();
        let high = sb.predict_first(&ctx(0), 0.0999).unwrap();
        assert_eq!(low.source, crate::estimator::AllocSource::Arm { idx: 0 });
        assert_eq!(
            high.source,
            crate::estimator::AllocSource::Arm {
                idx: SemiBandit::ARMS - 1
            }
        );
    }

    #[test]
    fn phases_learn_separate_optima() {
        // Depth-0 tasks peak ~30, depth-3 tasks peak ~500. After warmup the
        // two phases must pick different arms.
        let mut sb = SemiBandit::new(1024.0);
        for _ in 0..SemiBandit::MIN_ROUNDS + 4 {
            sb.observe_ctx(&TaskFeatures::default().at_depth(0), 30.0, 1.0);
            sb.observe_ctx(&TaskFeatures::default().at_depth(3), 500.0, 1.0);
        }
        let shallow = sb.predict_first(&ctx(0), 0.9).unwrap().value;
        let deep = sb.predict_first(&ctx(3), 0.9).unwrap().value;
        assert_eq!(shallow, 32.0, "shallow phase");
        assert_eq!(deep, 512.0, "deep phase");
    }

    #[test]
    fn low_support_phase_answers_from_the_global_table() {
        let mut sb = SemiBandit::new(1024.0);
        for _ in 0..20 {
            sb.observe_ctx(&TaskFeatures::default().at_depth(0), 100.0, 1.0);
        }
        // Depth 2 never observed: the global table (dominated by the
        // depth-0 rounds) answers.
        let unseen = sb.predict_first(&ctx(2), 0.9).unwrap();
        let seen = sb.predict_first(&ctx(0), 0.9).unwrap();
        assert_eq!(unseen.value, seen.value);
    }

    #[test]
    fn retry_climbs_the_grid_then_doubles() {
        let mut sb = SemiBandit::new(1024.0);
        sb.observe_ctx(&TaskFeatures::default(), 100.0, 1.0);
        let r1 = sb.predict_retry(&ctx(0), 128.0, 0.5).unwrap();
        assert_eq!(r1.value, 256.0);
        let r2 = sb.predict_retry(&ctx(0), 1024.0, 0.5).unwrap();
        assert_eq!(r2.value, 2048.0);
        assert_eq!(r2.source, crate::estimator::AllocSource::Doubling);
        // Strict escalation holds between grid points too.
        let r3 = sb.predict_retry(&ctx(0), 100.0, 0.5).unwrap();
        assert!(r3.value > 100.0);
        assert_eq!(r3.value, 128.0);
    }

    #[test]
    fn decay_tracks_workload_drift() {
        // A long small phase then a long large phase: the decayed losses
        // must forget the small optimum and move up the grid.
        let mut sb = SemiBandit::new(1024.0);
        for _ in 0..100 {
            sb.observe_ctx(&TaskFeatures::default(), 20.0, 1.0);
        }
        assert_eq!(sb.predict_first(&ctx(0), 0.9).unwrap().value, 32.0);
        for _ in 0..200 {
            sb.observe_ctx(&TaskFeatures::default(), 400.0, 1.0);
        }
        assert_eq!(sb.predict_first(&ctx(0), 0.9).unwrap().value, 512.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        SemiBandit::new(0.0);
    }
}
