//! Fault-aware allocation feedback (off by default).
//!
//! The paper's estimators learn from *observed consumption* only (§III–IV):
//! a crashed or timed-out attempt never completes, so it teaches the
//! allocator nothing — on a flaky pool the predictions stay exactly as
//! tight as on a healthy one, and every lost attempt repeats the same
//! too-optimistic bet. This module closes that loop. The execution engine
//! reports every attempt outcome back through
//! [`Allocator::observe_outcome`](crate::allocator::Allocator::observe_outcome);
//! a [`FaultPolicy`] turns the windowed crash/timeout rate into two
//! multiplicative adjustments:
//!
//! * a **padding factor** on steady-state first predictions, growing from
//!   `1` (no observed faults) towards [`FaultPolicy::max_padding`] as the
//!   fault rate approaches `1` — pay a little waste up front to lose fewer
//!   attempts;
//! * an **escalation bias** on retry predictions, raising exhausted axes
//!   more aggressively when the pool is hostile — fewer kill/retry rounds
//!   per task.
//!
//! Both factors are exactly `1.0` when the policy is absent, the window has
//! too few samples, or no faults were observed, so a fault-free run is
//! byte-identical with the feedback loop compiled in but idle. The policy
//! consumes no randomness.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// The outcome of one task attempt, as reported by the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttemptFeedback {
    /// The attempt completed.
    Success,
    /// The attempt died with its worker (abrupt departure, rack outage).
    Crash,
    /// The attempt was killed at the straggler timeout.
    Straggler,
    /// The attempt was killed for exceeding its allocation.
    Exhaustion,
}

impl AttemptFeedback {
    /// Whether the outcome is an *infrastructure* fault (crash or timeout).
    /// Exhaustion is an allocation mistake, not a fault: it already has its
    /// own feedback path (`predict_retry`), so it does not move the
    /// windowed fault rate.
    pub fn is_fault(&self) -> bool {
        matches!(self, AttemptFeedback::Crash | AttemptFeedback::Straggler)
    }

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            AttemptFeedback::Success => "success",
            AttemptFeedback::Crash => "crash",
            AttemptFeedback::Straggler => "straggler",
            AttemptFeedback::Exhaustion => "exhaustion",
        }
    }
}

impl fmt::Display for AttemptFeedback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Tuning knobs of the fault-feedback loop. Absent by default: an
/// allocator without a policy treats [`observe_outcome`] reports as pure
/// telemetry and never changes a prediction.
///
/// [`observe_outcome`]: crate::allocator::Allocator::observe_outcome
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPolicy {
    /// Number of most-recent attempt outcomes the fault rate is computed
    /// over.
    pub window: usize,
    /// Padding factor applied to first predictions at fault rate `1`
    /// (linear in between; `1.0` disables padding).
    pub max_padding: f64,
    /// Extra escalation applied to retry predictions: exhausted axes are
    /// raised by `1 + escalation_bias × rate` (`0.0` disables).
    pub escalation_bias: f64,
    /// Outcomes required in the window before the rate is trusted; below
    /// this the rate reads as `0` and both factors stay at `1`.
    pub min_samples: usize,
    /// Per-outcome exponential decay of the windowed rate: each new outcome
    /// multiplies all prior weights by `decay` before adding itself with
    /// weight `1`. `1.0` weighs every held outcome equally; values below `1`
    /// favour recent outcomes, so the padding tracks fault *bursts* instead
    /// of the long-run average. Must lie in `(0, 1]`.
    pub decay: f64,
    /// Decayed per-rack crash rate at or above which a rack is reported in
    /// [`FeedbackState::avoided_racks`] and deprioritized at placement.
    /// Must be positive.
    pub rack_crash_threshold: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            window: 64,
            max_padding: 1.5,
            escalation_bias: 1.0,
            min_samples: 8,
            decay: 0.95,
            rack_crash_threshold: 0.5,
        }
    }
}

impl FaultPolicy {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("fault policy window must be >= 1".to_string());
        }
        if self.min_samples == 0 {
            return Err("fault policy min_samples must be >= 1".to_string());
        }
        if !(self.max_padding.is_finite() && self.max_padding >= 1.0) {
            return Err(format!(
                "fault policy max_padding must be >= 1, got {}",
                self.max_padding
            ));
        }
        if !(self.escalation_bias.is_finite() && self.escalation_bias >= 0.0) {
            return Err(format!(
                "fault policy escalation_bias must be >= 0, got {}",
                self.escalation_bias
            ));
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err(format!(
                "fault policy decay must be in (0, 1], got {}",
                self.decay
            ));
        }
        if !(self.rack_crash_threshold.is_finite() && self.rack_crash_threshold > 0.0) {
            return Err(format!(
                "fault policy rack_crash_threshold must be > 0, got {}",
                self.rack_crash_threshold
            ));
        }
        Ok(())
    }

    /// Padding factor on first predictions at the given fault rate.
    pub fn padding(&self, rate: f64) -> f64 {
        1.0 + (self.max_padding - 1.0) * rate
    }

    /// Escalation factor on retry predictions at the given fault rate.
    pub fn escalation(&self, rate: f64) -> f64 {
        1.0 + self.escalation_bias * rate
    }
}

/// A bounded FIFO of recent attempt outcomes, from which the fault rate
/// is computed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackWindow {
    capacity: usize,
    outcomes: VecDeque<AttemptFeedback>,
    faults: usize,
}

impl FeedbackWindow {
    /// An empty window holding at most `capacity` outcomes.
    pub fn new(capacity: usize) -> Self {
        FeedbackWindow {
            capacity: capacity.max(1),
            outcomes: VecDeque::new(),
            faults: 0,
        }
    }

    /// Record one outcome, evicting the oldest beyond capacity.
    pub fn push(&mut self, outcome: AttemptFeedback) {
        if self.outcomes.len() == self.capacity {
            if let Some(old) = self.outcomes.pop_front() {
                if old.is_fault() {
                    self.faults -= 1;
                }
            }
        }
        if outcome.is_fault() {
            self.faults += 1;
        }
        self.outcomes.push_back(outcome);
    }

    /// Outcomes currently held.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no outcome was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Fraction of held outcomes that were faults (crash/straggler), or
    /// `0.0` while fewer than `min_samples` outcomes are held.
    pub fn fault_rate(&self, min_samples: usize) -> f64 {
        if self.outcomes.len() < min_samples.max(1) {
            return 0.0;
        }
        self.faults as f64 / self.outcomes.len() as f64
    }
}

/// A bounded FIFO of recent attempt outcomes with *exponential decay*: the
/// newest outcome has weight `1`, the one before it `decay`, then `decay²`,
/// and so on. `decay = 1.0` reduces exactly to [`FeedbackWindow`]'s plain
/// fraction. The decayed counts are maintained incrementally (O(1) push),
/// so the hot path never walks the window.
#[derive(Debug, Clone, PartialEq)]
struct DecayWindow {
    capacity: usize,
    decay: f64,
    outcomes: VecDeque<AttemptFeedback>,
    weighted_total: f64,
    weighted_faults: f64,
}

impl DecayWindow {
    /// An empty window holding at most `capacity` outcomes.
    pub fn new(capacity: usize, decay: f64) -> Self {
        DecayWindow {
            capacity: capacity.max(1),
            decay: if decay.is_finite() && decay > 0.0 && decay <= 1.0 {
                decay
            } else {
                1.0
            },
            outcomes: VecDeque::new(),
            weighted_total: 0.0,
            weighted_faults: 0.0,
        }
    }

    /// Record one outcome, evicting (and un-weighting) the oldest beyond
    /// capacity.
    pub fn push(&mut self, outcome: AttemptFeedback) {
        if self.outcomes.len() == self.capacity {
            if let Some(old) = self.outcomes.pop_front() {
                // The oldest of k outcomes carries weight decay^(k-1).
                let w = self.decay.powi(self.capacity as i32 - 1);
                self.weighted_total = (self.weighted_total - w).max(0.0);
                if old.is_fault() {
                    self.weighted_faults = (self.weighted_faults - w).max(0.0);
                }
            }
        }
        self.weighted_total = self.weighted_total * self.decay + 1.0;
        self.weighted_faults *= self.decay;
        if outcome.is_fault() {
            self.weighted_faults += 1.0;
        }
        self.outcomes.push_back(outcome);
    }

    /// Outcomes currently held (raw count, not decayed weight).
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no outcome was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Decay-weighted fraction of held outcomes that were faults, or `0.0`
    /// while fewer than `min_samples` outcomes are held.
    pub fn fault_rate(&self, min_samples: usize) -> f64 {
        if self.outcomes.len() < min_samples.max(1) || self.weighted_total <= 0.0 {
            return 0.0;
        }
        (self.weighted_faults / self.weighted_total).clamp(0.0, 1.0)
    }
}

/// The allocator's unified feedback history: one decayed window per
/// category, one global, and one per rack. Every success/crash/straggler
/// signal flows through
/// [`Allocator::observe_outcome`](crate::allocator::Allocator::observe_outcome)
/// into here, so the fault-padding layer, the learned estimators and the
/// rack-avoidance placement all read the *same* history.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackState {
    capacity: usize,
    decay: f64,
    global: DecayWindow,
    categories: std::collections::BTreeMap<crate::task::CategoryId, DecayWindow>,
    racks: std::collections::BTreeMap<u32, DecayWindow>,
}

impl FeedbackState {
    /// Empty state with the policy's window/decay knobs (or the defaults
    /// when no policy is configured — outcomes are then pure telemetry).
    pub fn new(policy: Option<&FaultPolicy>) -> Self {
        let defaults = FaultPolicy::default();
        let p = policy.unwrap_or(&defaults);
        FeedbackState {
            capacity: p.window.max(1),
            decay: p.decay,
            global: DecayWindow::new(p.window, p.decay),
            categories: std::collections::BTreeMap::new(),
            racks: std::collections::BTreeMap::new(),
        }
    }

    /// Record one attempt outcome for `category`, attributed to `rack`
    /// when the attempt ran on a known worker.
    pub fn observe(
        &mut self,
        category: crate::task::CategoryId,
        outcome: AttemptFeedback,
        rack: Option<u32>,
    ) {
        self.global.push(outcome);
        self.categories
            .entry(category)
            .or_insert_with(|| DecayWindow::new(self.capacity, self.decay))
            .push(outcome);
        if let Some(rack) = rack {
            self.racks
                .entry(rack)
                .or_insert_with(|| DecayWindow::new(self.capacity, self.decay))
                .push(outcome);
        }
    }

    /// Decayed fault rate over every outcome (all categories pooled).
    pub fn global_rate(&self, min_samples: usize) -> f64 {
        self.global.fault_rate(min_samples)
    }

    /// Decayed fault rate of one category; categories that never reported
    /// read as `0`.
    pub fn category_rate(&self, category: crate::task::CategoryId, min_samples: usize) -> f64 {
        self.categories
            .get(&category)
            .map_or(0.0, |w| w.fault_rate(min_samples))
    }

    /// Samples recorded for one category (raw count).
    pub fn category_len(&self, category: crate::task::CategoryId) -> usize {
        self.categories.get(&category).map_or(0, |w| w.len())
    }

    /// Racks whose decayed crash rate meets
    /// [`FaultPolicy::rack_crash_threshold`] at sufficient support, in
    /// ascending rack order. Empty at zero observed faults, so placement
    /// avoidance is exactly inert on a healthy pool.
    pub fn avoided_racks(&self, policy: &FaultPolicy) -> Vec<u32> {
        self.racks
            .iter()
            .filter(|(_, w)| w.fault_rate(policy.min_samples) >= policy.rack_crash_threshold)
            .map(|(rack, _)| *rack)
            .collect()
    }

    /// Total outcomes recorded (raw global count).
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// Whether no outcome was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::CategoryId;

    #[test]
    fn factors_are_identity_at_zero_rate() {
        let policy = FaultPolicy::default();
        policy.validate().unwrap();
        assert_eq!(policy.padding(0.0), 1.0);
        assert_eq!(policy.escalation(0.0), 1.0);
        assert_eq!(policy.padding(1.0), policy.max_padding);
        assert!(policy.escalation(0.5) > 1.0);
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let p = FaultPolicy {
            window: 0,
            ..FaultPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPolicy {
            max_padding: 0.5,
            ..FaultPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPolicy {
            escalation_bias: -1.0,
            ..FaultPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPolicy {
            min_samples: 0,
            ..FaultPolicy::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn window_rate_respects_min_samples_and_eviction() {
        let mut w = FeedbackWindow::new(4);
        assert!(w.is_empty());
        w.push(AttemptFeedback::Crash);
        w.push(AttemptFeedback::Straggler);
        // Two samples, min 3: rate not yet trusted.
        assert_eq!(w.fault_rate(3), 0.0);
        w.push(AttemptFeedback::Success);
        assert!((w.fault_rate(3) - 2.0 / 3.0).abs() < 1e-12);
        w.push(AttemptFeedback::Success);
        w.push(AttemptFeedback::Success); // evicts the first crash
        assert_eq!(w.len(), 4);
        assert!((w.fault_rate(1) - 0.25).abs() < 1e-12);
        // Exhaustion is not a fault.
        let mut w = FeedbackWindow::new(8);
        for _ in 0..8 {
            w.push(AttemptFeedback::Exhaustion);
        }
        assert_eq!(w.fault_rate(1), 0.0);
    }

    #[test]
    fn feedback_serde_and_labels() {
        for (outcome, label) in [
            (AttemptFeedback::Success, "success"),
            (AttemptFeedback::Crash, "crash"),
            (AttemptFeedback::Straggler, "straggler"),
            (AttemptFeedback::Exhaustion, "exhaustion"),
        ] {
            assert_eq!(outcome.label(), label);
            assert_eq!(format!("{outcome}"), label);
            let json = serde_json::to_string(&outcome).unwrap();
            let back: AttemptFeedback = serde_json::from_str(&json).unwrap();
            assert_eq!(back, outcome);
        }
    }

    #[test]
    fn default_policy_round_trips_through_json() {
        let policy = FaultPolicy::default();
        let json = serde_json::to_string(&policy).unwrap();
        let back: FaultPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, policy);
        back.validate().unwrap();
    }

    #[test]
    fn validation_rejects_out_of_range_decay_and_rack_threshold() {
        for decay in [0.0, 1.5, f64::NAN] {
            let p = FaultPolicy {
                decay,
                ..FaultPolicy::default()
            };
            let err = p.validate().unwrap_err();
            assert!(err.contains("decay"), "decay {decay}: {err}");
        }
        for rack_crash_threshold in [0.0, -0.5] {
            let p = FaultPolicy {
                rack_crash_threshold,
                ..FaultPolicy::default()
            };
            let err = p.validate().unwrap_err();
            assert!(
                err.contains("rack_crash_threshold"),
                "threshold {rack_crash_threshold}: {err}"
            );
        }
        let full = FaultPolicy {
            decay: 1.0,
            ..FaultPolicy::default()
        };
        full.validate().unwrap();
    }

    #[test]
    fn decay_one_matches_the_plain_window() {
        let mut plain = FeedbackWindow::new(4);
        let mut decayed = DecayWindow::new(4, 1.0);
        let seq = [
            AttemptFeedback::Crash,
            AttemptFeedback::Success,
            AttemptFeedback::Straggler,
            AttemptFeedback::Success,
            AttemptFeedback::Success,
            AttemptFeedback::Crash,
        ];
        for outcome in seq {
            plain.push(outcome);
            decayed.push(outcome);
            assert!(
                (plain.fault_rate(1) - decayed.fault_rate(1)).abs() < 1e-12,
                "decay=1 must reduce to the plain fraction"
            );
        }
        assert_eq!(plain.len(), decayed.len());
    }

    #[test]
    fn decay_weights_recent_outcomes_more() {
        // Same multiset of outcomes, opposite orders: a recent fault burst
        // must read hotter than an old one.
        let mut recent_faults = DecayWindow::new(16, 0.8);
        let mut old_faults = DecayWindow::new(16, 0.8);
        for _ in 0..4 {
            recent_faults.push(AttemptFeedback::Success);
            old_faults.push(AttemptFeedback::Crash);
        }
        for _ in 0..4 {
            recent_faults.push(AttemptFeedback::Crash);
            old_faults.push(AttemptFeedback::Success);
        }
        assert!(recent_faults.fault_rate(1) > 0.5);
        assert!(old_faults.fault_rate(1) < 0.5);
        assert!(recent_faults.fault_rate(1) > old_faults.fault_rate(1));
    }

    #[test]
    fn decayed_eviction_keeps_counts_consistent() {
        let mut w = DecayWindow::new(4, 0.9);
        // Push far past capacity; the rate must stay in [0, 1] and settle
        // to 0 once faults age out entirely.
        for _ in 0..4 {
            w.push(AttemptFeedback::Crash);
        }
        assert!(w.fault_rate(1) > 0.99);
        for _ in 0..8 {
            w.push(AttemptFeedback::Success);
            let r = w.fault_rate(1);
            assert!((0.0..=1.0).contains(&r), "rate out of range: {r}");
        }
        assert!(
            w.fault_rate(1) < 1e-9,
            "faults fully evicted, up to float residue: {}",
            w.fault_rate(1)
        );
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn feedback_state_keeps_categories_and_racks_apart() {
        let policy = FaultPolicy {
            min_samples: 2,
            ..FaultPolicy::default()
        };
        let mut state = FeedbackState::new(Some(&policy));
        assert!(state.is_empty());
        // Category 0 on rack 1 is healthy; category 1 on rack 2 crashes.
        for _ in 0..8 {
            state.observe(CategoryId(0), AttemptFeedback::Success, Some(1));
            state.observe(CategoryId(1), AttemptFeedback::Crash, Some(2));
        }
        assert_eq!(state.len(), 16);
        assert_eq!(state.category_rate(CategoryId(0), policy.min_samples), 0.0);
        assert!(state.category_rate(CategoryId(1), policy.min_samples) > 0.99);
        // An unseen category reads as healthy.
        assert_eq!(state.category_rate(CategoryId(9), policy.min_samples), 0.0);
        assert_eq!(state.racks[&1].fault_rate(policy.min_samples), 0.0);
        assert!(state.racks[&2].fault_rate(policy.min_samples) > 0.99);
        assert_eq!(state.avoided_racks(&policy), vec![2]);
        // The pooled global rate sits between the two.
        let g = state.global_rate(policy.min_samples);
        assert!(g > 0.2 && g < 0.8, "global rate {g}");
    }

    #[test]
    fn avoidance_is_inert_without_faults_or_support() {
        let policy = FaultPolicy::default();
        let mut state = FeedbackState::new(Some(&policy));
        for _ in 0..100 {
            state.observe(CategoryId(0), AttemptFeedback::Success, Some(0));
        }
        assert!(state.avoided_racks(&policy).is_empty());
        // A few crashes below min_samples still avoid nothing.
        let mut state = FeedbackState::new(Some(&policy));
        for _ in 0..policy.min_samples - 1 {
            state.observe(CategoryId(0), AttemptFeedback::Crash, Some(3));
        }
        assert!(state.avoided_racks(&policy).is_empty());
    }
}
