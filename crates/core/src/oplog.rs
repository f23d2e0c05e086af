//! A replayable journal of allocator inputs.
//!
//! Allocator state cannot be serialized directly: estimators are
//! `Box<dyn ValueEstimator>` trait objects with internal pending buffers and
//! lazy rebucket counters, and each shard holds a `StdRng` mid-stream. What
//! *can* be captured exactly is the input sequence — every observation,
//! prediction and rebucket sweep the allocator has been asked for. Because
//! the allocator is deterministic in `(algorithm, config, seed, input
//! sequence)`, replaying an [`AllocLog`] through a freshly built allocator
//! reproduces the original byte for byte: same estimator contents, same
//! rebucket versions, same RNG positions, same feedback window.
//!
//! This is the snapshot format `tora serve` persists per tenant: an op log
//! plus the builder inputs is a complete, restartable description of a
//! tenant's allocator, regardless of which estimator algorithm backs it.
//!
//! Predictions are journaled too — not for their answers (those are
//! recomputed) but because steady-state predictions consume RNG draws, and
//! a replay that skipped them would leave the RNG stream in the wrong
//! position for every draw that follows.

use crate::allocator::{AllocationDecision, Allocator};
use crate::feedback::AttemptFeedback;
use crate::resources::{ResourceMask, ResourceVector};
use crate::task::{CategoryId, ResourceRecord, TaskContext};
use crate::trace::EventSink;
use serde::{Deserialize, Serialize};

/// One allocator input: everything that can move allocator state.
///
/// The variants mirror the mutating half of the [`Allocator`] API. Read-only
/// calls (`snapshot`, `records_for`, …) are not journaled — they cannot
/// change what a later call returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AllocOp {
    /// [`Allocator::observe`] — a completed task's resource record.
    Observe {
        /// The record as it was ingested.
        record: ResourceRecord,
    },
    /// [`Allocator::predict_first`] once per context, in request order. A
    /// single prediction is a batch of one; journaling the batch shape
    /// (rather than flattening) keeps the log a faithful transcript of the
    /// requests while producing the identical draw sequence either way.
    PredictFirstBatch {
        /// Requested task contexts, in request order. The feature vectors
        /// matter: a feature-conditioned estimator answers differently per
        /// context, so a replay must present the same ones. A bare-category
        /// request journals as a context with default features.
        contexts: Vec<TaskContext>,
    },
    /// [`Allocator::predict_retry`] — a retry after a kill.
    PredictRetry {
        /// The killed task's context.
        context: TaskContext,
        /// The allocation the previous attempt ran under.
        prev: ResourceVector,
        /// The dimensions that attempt exhausted.
        exhausted: ResourceMask,
    },
    /// [`Allocator::observe_outcome`] — fault-feedback telemetry.
    ObserveOutcome {
        /// The category the outcome belongs to.
        category: CategoryId,
        /// The attempt outcome.
        outcome: AttemptFeedback,
        /// The rack the attempt ran on, when known (feeds rack avoidance).
        #[serde(default)]
        rack: Option<u32>,
    },
    /// [`Allocator::rebucket_all`] — a full rebucket sweep.
    RebucketAll,
}

impl AllocOp {
    /// Apply this op to `allocator` and return what the allocator returned
    /// — the one dispatch shared by live callers and [`AllocLog::replay`].
    pub fn apply<S: EventSink>(&self, allocator: &mut Allocator<S>) -> Applied {
        match self {
            AllocOp::Observe { record } => {
                allocator.observe(record);
                Applied::Observed
            }
            AllocOp::PredictFirstBatch { contexts } => Applied::Decisions(
                contexts
                    .iter()
                    .map(|&ctx| allocator.predict_first(ctx))
                    .collect(),
            ),
            AllocOp::PredictRetry {
                context,
                prev,
                exhausted,
            } => Applied::Decision(allocator.predict_retry(*context, prev, exhausted)),
            AllocOp::ObserveOutcome {
                category,
                outcome,
                rack,
            } => {
                allocator.observe_outcome(*category, *outcome, *rack);
                Applied::Observed
            }
            AllocOp::RebucketAll => Applied::Rebucketed(allocator.rebucket_all().len() as u64),
        }
    }
}

/// What [`AllocOp::apply`] produced, by op shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// `Observe` / `ObserveOutcome`: input ingested, nothing returned.
    Observed,
    /// `PredictFirstBatch`: one decision per context, in request order.
    Decisions(Vec<AllocationDecision>),
    /// `PredictRetry`: the escalated decision.
    Decision(AllocationDecision),
    /// `RebucketAll`: the number of (category, axis) pairs rebucketed.
    Rebucketed(u64),
}

/// An append-only journal of [`AllocOp`]s, replayable onto a freshly built
/// allocator to reproduce the recorded state exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AllocLog {
    /// The journaled operations, oldest first.
    pub ops: Vec<AllocOp>,
}

impl AllocLog {
    /// An empty journal.
    pub fn new() -> Self {
        AllocLog::default()
    }

    /// Append one operation.
    pub fn push(&mut self, op: AllocOp) {
        self.ops.push(op);
    }

    /// Number of journaled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Apply every journaled operation to `allocator`, in order.
    ///
    /// `allocator` must be freshly built with the same algorithm, config and
    /// seed as the journaled one — replay makes no attempt to verify this.
    /// Prediction results are recomputed and discarded — the point of
    /// replaying them is their RNG consumption, not their answers.
    pub fn replay<S: EventSink>(&self, allocator: &mut Allocator<S>) {
        for op in &self.ops {
            op.apply(allocator);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{AlgorithmKind, Allocator};
    use crate::task::TaskSpec;

    fn record(id: u64, category: u32, cores: f64) -> ResourceRecord {
        let peak = ResourceVector::new(cores, 100.0 * cores, 10.0 * cores);
        ResourceRecord::from_task(&TaskSpec::new(id, category, peak, 5.0))
    }

    /// Drive an allocator while journaling, replay the journal onto a fresh
    /// allocator, and check both answer identically afterwards — including
    /// draws, which only match if the RNG positions match.
    #[test]
    fn replay_reproduces_state_byte_identically() {
        let mut log = AllocLog::new();
        let mut live = Allocator::new(AlgorithmKind::GreedyBucketing, 7);
        let mut apply = |op: AllocOp| {
            op.apply(&mut live);
            log.push(op);
        };
        for i in 0..30u64 {
            let r = record(i, (i % 3) as u32, 1.0 + (i % 5) as f64);
            apply(AllocOp::Observe { record: r });
        }
        apply(AllocOp::PredictFirstBatch {
            contexts: (0..6)
                .map(|i| TaskContext::from(CategoryId(i % 3)))
                .collect(),
        });
        apply(AllocOp::RebucketAll);
        apply(AllocOp::PredictRetry {
            context: TaskContext::from(CategoryId(1)),
            prev: ResourceVector::new(1.0, 100.0, 10.0),
            exhausted: ResourceMask::only(crate::resources::ResourceKind::MemoryMb),
        });
        apply(AllocOp::ObserveOutcome {
            category: CategoryId(0),
            outcome: AttemptFeedback::Crash,
            rack: Some(2),
        });

        let mut restored = Allocator::new(AlgorithmKind::GreedyBucketing, 7);
        log.replay(&mut restored);

        // Identical state ⇒ identical future behavior: compare the next
        // predictions (draw-consuming) and a rebucket sweep.
        let probe = AllocOp::PredictFirstBatch {
            contexts: (0..9)
                .map(|i| TaskContext::from(CategoryId(i % 3)))
                .collect(),
        };
        assert_eq!(
            format!("{:?}", probe.apply(&mut live)),
            format!("{:?}", probe.apply(&mut restored)),
            "predictions diverged after replay"
        );
        assert_eq!(
            format!("{:?}", live.rebucket_all()),
            format!("{:?}", restored.rebucket_all()),
            "rebucket state diverged after replay"
        );
        assert_eq!(live.windowed_fault_rate(), restored.windowed_fault_rate());
    }

    #[test]
    fn log_round_trips_through_json() {
        let mut log = AllocLog::new();
        log.push(AllocOp::Observe {
            record: record(3, 1, 2.0),
        });
        log.push(AllocOp::PredictFirstBatch {
            contexts: vec![
                TaskContext::from(CategoryId(0)),
                TaskContext::new(
                    CategoryId(1),
                    crate::task::TaskFeatures::with_input_signal(0.75).at_depth(3),
                ),
            ],
        });
        log.push(AllocOp::PredictRetry {
            context: TaskContext::from(CategoryId(0)),
            prev: ResourceVector::new(1.0, 100.0, 10.0),
            exhausted: ResourceMask::only(crate::resources::ResourceKind::Cores),
        });
        log.push(AllocOp::ObserveOutcome {
            category: CategoryId(2),
            outcome: AttemptFeedback::Straggler,
            rack: None,
        });
        log.push(AllocOp::RebucketAll);
        let json = serde_json::to_string(&log).unwrap();
        let back: AllocLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }

    /// Outcome ops journaled before rack attribution existed still parse.
    #[test]
    fn outcome_without_rack_field_still_parses() {
        let json = r#"{"ops":[{"ObserveOutcome":{"category":1,"outcome":"Crash"}}]}"#;
        let log: AllocLog = serde_json::from_str(json).unwrap();
        assert_eq!(
            log.ops,
            vec![AllocOp::ObserveOutcome {
                category: CategoryId(1),
                outcome: AttemptFeedback::Crash,
                rack: None,
            }]
        );
    }
}
