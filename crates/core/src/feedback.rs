//! Fault-aware allocation feedback (off by default).
//!
//! The paper's estimators learn from *observed consumption* only (§III–IV):
//! a crashed or timed-out attempt never completes, so it teaches the
//! allocator nothing — on a flaky pool the predictions stay exactly as
//! tight as on a healthy one, and every lost attempt repeats the same
//! too-optimistic bet. This module closes that loop. The execution engine
//! reports every attempt outcome back through
//! [`Allocator::observe_outcome`](crate::allocator::Allocator::observe_outcome)
//! into decayed windows (one global, one per category, one per rack). With
//! a [`FaultPolicy`] switched on, the windowed crash/timeout rate becomes two multiplicative
//! adjustments:
//!
//! * a **padding factor** on steady-state first predictions, growing from
//!   `1` (no observed faults) towards `MAX_PADDING` as the fault rate
//!   approaches `1` — pay a little waste up front to lose fewer attempts;
//! * an **escalation bias** on retry predictions, raising exhausted axes
//!   by `1 + ESCALATION_BIAS × rate` when the pool is hostile — fewer
//!   kill/retry rounds per task.
//!
//! Racks whose decayed crash rate reaches `RACK_CRASH_THRESHOLD` are
//! reported for placement avoidance. The six numbers are fixed constants
//! (DESIGN.md §5e), like the paper's own exploratory probe and bucket cap.
//!
//! Both factors are exactly `1.0` when the policy is absent, the window has
//! too few samples, or no faults were observed, so a fault-free run is
//! byte-identical with the feedback loop compiled in but idle. The policy
//! consumes no randomness.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

use crate::task::CategoryId;

/// Most-recent attempt outcomes each window holds.
const WINDOW: usize = 64;
/// Padding factor on first predictions at fault rate `1` (linear below).
const MAX_PADDING: f64 = 1.5;
/// Retry predictions raise exhausted axes by `1 + ESCALATION_BIAS × rate`.
const ESCALATION_BIAS: f64 = 1.0;
/// Outcomes a window must hold before its rate is trusted; below this the
/// rate reads as `0` and both factors stay at `1`.
const MIN_SAMPLES: usize = 8;
/// Per-outcome decay of the windowed rate: each new outcome multiplies all
/// prior weights by `DECAY`, so the padding tracks fault *bursts* rather
/// than the long-run average.
const DECAY: f64 = 0.95;
/// Decayed per-rack crash rate at or above which a rack is avoided at
/// placement.
const RACK_CRASH_THRESHOLD: f64 = 0.5;

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
}

/// The fault-feedback switch. Absent by default: an allocator without a
/// policy treats [`observe_outcome`] reports as pure telemetry and never
/// changes a prediction. The policy carries no settings; its factors read
/// the module's fixed constants.
///
/// [`observe_outcome`]: crate::allocator::Allocator::observe_outcome
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPolicy {}

impl FaultPolicy {
    /// Padding factor on first predictions at the given fault rate.
    pub fn padding(&self, rate: f64) -> f64 {
        1.0 + (MAX_PADDING - 1.0) * rate
    }

    /// Escalation factor on retry predictions at the given fault rate.
    pub fn escalation(&self, rate: f64) -> f64 {
        1.0 + ESCALATION_BIAS * rate
    }
}

/// A bounded FIFO of recent attempt outcomes with *exponential decay*: the
/// newest outcome has weight `1`, the one before it `decay`, then `decay²`,
/// and so on; `decay = 1.0` is the plain fault fraction. The decayed counts
/// are maintained incrementally (O(1) push), so the hot path never walks
/// the window.
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
    fn new(capacity: usize, decay: f64) -> Self {
        DecayWindow {
            capacity,
            decay,
            outcomes: VecDeque::new(),
            weighted_total: 0.0,
            weighted_faults: 0.0,
        }
    }

    /// Record one outcome, evicting (and un-weighting) the oldest beyond
    /// capacity.
    fn push(&mut self, outcome: AttemptFeedback) {
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
    fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Decay-weighted fraction of held outcomes that were faults, or `0.0`
    /// while fewer than `min_samples` outcomes are held.
    fn fault_rate(&self, min_samples: usize) -> f64 {
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
pub(crate) struct FeedbackState {
    global: DecayWindow,
    categories: BTreeMap<CategoryId, DecayWindow>,
    racks: BTreeMap<u32, DecayWindow>,
    /// Racks whose window's rate meets `RACK_CRASH_THRESHOLD`, ascending.
    /// A rack's rate moves only when its own window is pushed, so `observe`
    /// keeps this current and dispatch reads it without walking `racks`.
    avoided: Vec<u32>,
}

impl FeedbackState {
    /// Empty state.
    pub(crate) fn new() -> Self {
        FeedbackState {
            global: DecayWindow::new(WINDOW, DECAY),
            categories: BTreeMap::new(),
            racks: BTreeMap::new(),
            avoided: Vec::new(),
        }
    }

    /// Record one attempt outcome for `category`, attributed to `rack`
    /// when the attempt ran on a known worker.
    pub(crate) fn observe(
        &mut self,
        category: CategoryId,
        outcome: AttemptFeedback,
        rack: Option<u32>,
    ) {
        self.global.push(outcome);
        self.categories
            .entry(category)
            .or_insert_with(|| DecayWindow::new(WINDOW, DECAY))
            .push(outcome);
        if let Some(rack) = rack {
            let window = self
                .racks
                .entry(rack)
                .or_insert_with(|| DecayWindow::new(WINDOW, DECAY));
            window.push(outcome);
            let hot = window.fault_rate(MIN_SAMPLES) >= RACK_CRASH_THRESHOLD;
            match (self.avoided.binary_search(&rack), hot) {
                (Err(at), true) => self.avoided.insert(at, rack),
                (Ok(at), false) => {
                    self.avoided.remove(at);
                }
                _ => {}
            }
        }
    }

    /// Decayed fault rate over every outcome (all categories pooled).
    pub(crate) fn global_rate(&self) -> f64 {
        self.global.fault_rate(MIN_SAMPLES)
    }

    /// Decayed fault rate of one category; categories that never reported
    /// read as `0`.
    pub(crate) fn category_rate(&self, category: CategoryId) -> f64 {
        self.categories
            .get(&category)
            .map_or(0.0, |w| w.fault_rate(MIN_SAMPLES))
    }

    /// The fault rate driving policy factors for `category`: the category's
    /// own window once it holds `MIN_SAMPLES` outcomes, the pooled global
    /// window before that (a sparse category should not read as fault-free
    /// while the pool burns).
    pub(crate) fn effective_rate(&self, category: CategoryId) -> f64 {
        let held = self.categories.get(&category).map_or(0, |w| w.len());
        if held >= MIN_SAMPLES {
            self.category_rate(category)
        } else {
            self.global_rate()
        }
    }

    /// Racks whose decayed crash rate meets `RACK_CRASH_THRESHOLD` at
    /// sufficient support, in ascending rack order. Empty at zero observed
    /// faults, so placement avoidance is exactly inert on a healthy pool.
    pub(crate) fn avoided_racks(&self) -> &[u32] {
        &self.avoided
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_identity_at_zero_rate() {
        let policy = FaultPolicy::default();
        assert_eq!(policy.padding(0.0), 1.0);
        assert_eq!(policy.escalation(0.0), 1.0);
        assert_eq!(policy.padding(1.0), MAX_PADDING);
        assert!(policy.escalation(0.5) > 1.0);
    }

    #[test]
    fn feedback_serde_round_trips() {
        for outcome in [
            AttemptFeedback::Success,
            AttemptFeedback::Crash,
            AttemptFeedback::Straggler,
            AttemptFeedback::Exhaustion,
        ] {
            let json = serde_json::to_string(&outcome).unwrap();
            let back: AttemptFeedback = serde_json::from_str(&json).unwrap();
            assert_eq!(back, outcome);
        }
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
        let mut state = FeedbackState::new();
        assert_eq!(state.global.len(), 0);
        // Category 0 on rack 1 is healthy; category 1 on rack 2 crashes.
        for _ in 0..8 {
            state.observe(CategoryId(0), AttemptFeedback::Success, Some(1));
            state.observe(CategoryId(1), AttemptFeedback::Crash, Some(2));
        }
        assert_eq!(state.global.len(), 16);
        assert_eq!(state.category_rate(CategoryId(0)), 0.0);
        assert!(state.category_rate(CategoryId(1)) > 0.99);
        // An unseen category reads as healthy.
        assert_eq!(state.category_rate(CategoryId(9)), 0.0);
        assert_eq!(state.racks[&1].fault_rate(MIN_SAMPLES), 0.0);
        assert!(state.racks[&2].fault_rate(MIN_SAMPLES) > 0.99);
        assert_eq!(state.avoided_racks(), [2]);
        // The pooled global rate sits between the two.
        let g = state.global_rate();
        assert!(g > 0.2 && g < 0.8, "global rate {g}");
    }

    #[test]
    fn avoidance_is_inert_without_faults_or_support() {
        let mut state = FeedbackState::new();
        for _ in 0..100 {
            state.observe(CategoryId(0), AttemptFeedback::Success, Some(0));
        }
        assert!(state.avoided_racks().is_empty());
        // A few crashes below MIN_SAMPLES still avoid nothing.
        let mut state = FeedbackState::new();
        for _ in 0..MIN_SAMPLES - 1 {
            state.observe(CategoryId(0), AttemptFeedback::Crash, Some(3));
        }
        assert!(state.avoided_racks().is_empty());
    }
}
