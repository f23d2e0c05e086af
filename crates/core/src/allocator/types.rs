//! Allocator configuration surface: algorithm selection, exploratory
//! policy, and the [`AllocationDecision`] provenance type.

use crate::bandit::SemiBandit;
use crate::baselines::{MaxSeen, QuantizedBucketing, Tovar, WholeMachine};
use crate::estimator::ValueEstimator;
use crate::exhaustive::ExhaustiveBucketing;
use crate::featurebin::FeatureBinned;
use crate::greedy::GreedyBucketing;
use crate::kmeans::KMeansBucketing;
use crate::policy::BucketingEstimator;
use crate::resources::{ResourceKind, ResourceVector, WorkerSpec};
use crate::trace::{AxisProvenance, PredictKind};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// The seven allocation algorithms evaluated in §V, plus the learned and
/// clustering extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Naive baseline: a full worker per task.
    WholeMachine,
    /// Histogram-rounded running maximum.
    MaxSeen,
    /// Tovar et al. job sizing, minimum-waste objective.
    MinWaste,
    /// Tovar et al. job sizing, maximum-throughput objective.
    MaxThroughput,
    /// Phung et al. quantile bucketing (median split).
    QuantizedBucketing,
    /// This paper: Greedy Bucketing (Algorithm 1).
    GreedyBucketing,
    /// This paper: Exhaustive Bucketing (Algorithm 2).
    ExhaustiveBucketing,
    /// Extension: k-means clustering behind the shared bucketing policy —
    /// the other clustering rule of Phung et al. \[11\]. Not part of the
    /// paper's evaluated set.
    KMeansBucketing,
    /// Extension: Ponder-style feature-conditioned estimation — per
    /// input-signal-bin sub-states with category-state fallback under low
    /// support ([`FeatureBinned`]). Not part of the paper's evaluated set.
    FeatureBinned,
    /// Extension: semi-bandit allocation — a decayed-loss arm per
    /// allocation size on a geometric grid, tables keyed by DAG phase
    /// ([`SemiBandit`]). Not part of the paper's evaluated set.
    SemiBandit,
}

impl AlgorithmKind {
    /// The seven algorithms of Figures 5 and 6, in the paper's order.
    pub const PAPER_SET: [AlgorithmKind; 7] = [
        AlgorithmKind::WholeMachine,
        AlgorithmKind::MaxSeen,
        AlgorithmKind::MinWaste,
        AlgorithmKind::MaxThroughput,
        AlgorithmKind::QuantizedBucketing,
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
    ];

    /// Every algorithm: the paper set, then the extensions.
    pub const ALL: [AlgorithmKind; 10] = [
        AlgorithmKind::WholeMachine,
        AlgorithmKind::MaxSeen,
        AlgorithmKind::MinWaste,
        AlgorithmKind::MaxThroughput,
        AlgorithmKind::QuantizedBucketing,
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::KMeansBucketing,
        AlgorithmKind::FeatureBinned,
        AlgorithmKind::SemiBandit,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmKind::WholeMachine => "whole-machine",
            AlgorithmKind::MaxSeen => "max-seen",
            AlgorithmKind::MinWaste => "min-waste",
            AlgorithmKind::MaxThroughput => "max-throughput",
            AlgorithmKind::QuantizedBucketing => "quantized-bucketing",
            AlgorithmKind::GreedyBucketing => "greedy-bucketing",
            AlgorithmKind::ExhaustiveBucketing => "exhaustive-bucketing",
            AlgorithmKind::KMeansBucketing => "kmeans-bucketing",
            AlgorithmKind::FeatureBinned => "feature-binned",
            AlgorithmKind::SemiBandit => "semi-bandit",
        }
    }

    /// Whether this is one of the paper's two novel bucketing algorithms
    /// (they use the conservative exploratory mode; comparators use the
    /// whole-machine exploratory mode, §V-C).
    pub fn is_novel_bucketing(self) -> bool {
        matches!(
            self,
            AlgorithmKind::GreedyBucketing
                | AlgorithmKind::ExhaustiveBucketing
                | AlgorithmKind::KMeansBucketing
        )
    }

    /// Whether this algorithm uses the conservative exploratory mode: the
    /// paper's novel bucketing pair plus the learned extensions, which are
    /// likewise online and prior-free and would forfeit their win to
    /// whole-machine exploration.
    pub fn conservative_exploration(self) -> bool {
        self.is_novel_bucketing()
            || matches!(
                self,
                AlgorithmKind::FeatureBinned | AlgorithmKind::SemiBandit
            )
    }

    /// Construct the estimator for one resource dimension of one category.
    pub fn build_estimator(
        self,
        kind: ResourceKind,
        machine: &WorkerSpec,
    ) -> Box<dyn ValueEstimator> {
        let capacity = machine.capacity[kind];
        match self {
            AlgorithmKind::WholeMachine => Box::new(WholeMachine::new(capacity)),
            AlgorithmKind::MaxSeen => {
                let granularity = match kind {
                    ResourceKind::Cores | ResourceKind::Gpus => MaxSeen::CORES_GRANULARITY,
                    ResourceKind::MemoryMb | ResourceKind::DiskMb => {
                        MaxSeen::MEMORY_DISK_GRANULARITY
                    }
                    // Time limits round to the minute.
                    ResourceKind::TimeS => 60.0,
                };
                Box::new(MaxSeen::new(granularity))
            }
            AlgorithmKind::MinWaste => Box::new(Tovar::min_waste(capacity)),
            AlgorithmKind::MaxThroughput => Box::new(Tovar::max_throughput(capacity)),
            AlgorithmKind::QuantizedBucketing => Box::new(QuantizedBucketing::new()),
            AlgorithmKind::GreedyBucketing => {
                Box::new(BucketingEstimator::new(GreedyBucketing::new()))
            }
            AlgorithmKind::ExhaustiveBucketing => {
                Box::new(BucketingEstimator::new(ExhaustiveBucketing::new()))
            }
            AlgorithmKind::KMeansBucketing => {
                Box::new(BucketingEstimator::new(KMeansBucketing::new()))
            }
            AlgorithmKind::FeatureBinned => Box::new(FeatureBinned::new()),
            AlgorithmKind::SemiBandit => Box::new(SemiBandit::new(capacity)),
        }
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a category is allocated before enough records exist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExploratoryPolicy {
    /// §V-A: allocate a small fixed probe (1 core, 1 GB memory, 1 GB disk in
    /// the paper), doubling exhausted dimensions on failure.
    Conservative {
        /// The probe allocation.
        probe: ResourceVector,
    },
    /// §V-C: allocate a whole worker until enough records exist.
    WholeMachine,
}

impl ExploratoryPolicy {
    /// The paper's conservative probe: 1 core, 1 GB memory, 1 GB disk.
    pub fn paper_conservative() -> Self {
        ExploratoryPolicy::Conservative {
            probe: ResourceVector::new(1.0, 1024.0, 1024.0),
        }
    }
}

/// Allocator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocatorConfig {
    /// Worker shape allocations are clamped to.
    pub machine: WorkerSpec,
    /// Resource kinds under management (default: cores, memory, disk).
    pub managed: Vec<ResourceKind>,
    /// Records required per category before leaving exploratory mode
    /// (10 in §V-A).
    pub exploratory_records: usize,
    /// Exploratory behaviour; `None` selects the paper's per-algorithm
    /// default (conservative for bucketing, whole machine for comparators).
    pub exploratory: Option<ExploratoryPolicy>,
    /// Ablation switch: feed every estimator a significance of 1 instead of
    /// the task id, disabling the §IV-A recency weighting.
    pub uniform_significance: bool,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        AllocatorConfig {
            machine: WorkerSpec::paper_default(),
            managed: ResourceKind::STANDARD.to_vec(),
            exploratory_records: 10,
            exploratory: None,
            uniform_significance: false,
        }
    }
}

/// Builds one estimator per (resource kind, worker shape); lets ablation
/// harnesses run non-default algorithm variants (e.g. Exhaustive Bucketing
/// with a different bucket cap) through the full allocator machinery.
pub type EstimatorFactory =
    Box<dyn Fn(ResourceKind, &WorkerSpec) -> Box<dyn ValueEstimator> + Send>;

/// A predicted allocation together with how it was derived.
///
/// Dereferences to the underlying [`ResourceVector`], so existing callers
/// that only want the allocation keep working unchanged:
///
/// ```
/// use tora_alloc::allocator::{AlgorithmKind, Allocator};
/// use tora_alloc::task::CategoryId;
///
/// let mut a = Allocator::new(AlgorithmKind::GreedyBucketing, 1);
/// let decision = a.predict_first(CategoryId(0));
/// assert_eq!(decision.memory_mb(), 1024.0); // deref to ResourceVector
/// assert_eq!(decision.kind, tora_alloc::trace::PredictKind::Explore);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationDecision {
    /// The allocation to reserve (clamped to worker capacity).
    pub alloc: ResourceVector,
    /// Which prediction path produced it.
    pub kind: PredictKind,
    /// Per-axis derivation, in managed-axis order. Empty for exploratory
    /// predictions (every managed axis is the probe).
    pub provenance: Vec<AxisProvenance>,
    /// True when the attempt exhausted some dimension but no exhausted axis
    /// could be raised above its previous allocation (everything was already
    /// at machine capacity). Retrying such a decision reproduces the same
    /// kill: the task does not fit the machine and must be dead-lettered,
    /// not retried forever.
    #[serde(default)]
    pub infeasible: bool,
}

impl AllocationDecision {
    /// The provenance entry for one axis, if the axis is managed.
    pub fn axis(&self, kind: ResourceKind) -> Option<&AxisProvenance> {
        self.provenance.iter().find(|p| p.resource == kind)
    }

    /// Discard the provenance, keeping the allocation.
    pub fn into_alloc(self) -> ResourceVector {
        self.alloc
    }
}

impl Deref for AllocationDecision {
    type Target = ResourceVector;
    fn deref(&self) -> &ResourceVector {
        &self.alloc
    }
}

impl PartialEq<ResourceVector> for AllocationDecision {
    fn eq(&self, other: &ResourceVector) -> bool {
        self.alloc == *other
    }
}

impl From<AllocationDecision> for ResourceVector {
    fn from(d: AllocationDecision) -> ResourceVector {
        d.alloc
    }
}

impl fmt::Display for AllocationDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.alloc)
    }
}
