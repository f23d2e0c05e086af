//! Analytic serial replay: the fast path for metric computation.
//!
//! Because Absolute Workflow Efficiency is independent of the worker pool
//! (§II-C), the figure-level experiments do not need the full event engine:
//! replaying the task stream *serially* — predict, enforce, retry until
//! success, observe — produces the same accounting the paper measures, in
//! microseconds instead of a full pool simulation. The integration tests
//! cross-check replay against [`crate::engine`] runs.

use crate::enforcement::EnforcementModel;
use tora_alloc::allocator::{AlgorithmKind, Allocator, AllocatorConfig};
use tora_alloc::task::ResourceRecord;
use tora_metrics::{AttemptOutcome, TaskOutcome, WorkflowMetrics};
use tora_workloads::Workflow;

/// Maximum attempts per task before the replay declares the configuration
/// broken (a correct allocator doubles its way to the machine cap in well
/// under this many steps).
const MAX_ATTEMPTS: usize = 64;

/// Serially replay `workflow` under `algorithm`.
pub fn replay(
    workflow: &Workflow,
    algorithm: AlgorithmKind,
    enforcement: EnforcementModel,
    seed: u64,
) -> WorkflowMetrics {
    let config = AllocatorConfig {
        machine: workflow.worker,
        ..AllocatorConfig::default()
    };
    let mut allocator = Allocator::with_config(algorithm, config, seed);
    replay_on(&mut allocator, workflow, enforcement)
}

/// Serially replay `workflow` through an allocator the caller built — a
/// non-default [`AllocatorConfig`] or a custom estimator factory. Each task
/// is predicted, judged, retried until it fits and then observed, in
/// submission order.
///
/// # Panics
///
/// When a task fails `MAX_ATTEMPTS` (64) times: the allocator never grows
/// a retry to fit it.
pub fn replay_on(
    allocator: &mut Allocator,
    workflow: &Workflow,
    enforcement: EnforcementModel,
) -> WorkflowMetrics {
    let mut metrics = WorkflowMetrics::new();
    for task in &workflow.tasks {
        let mut attempts = Vec::new();
        let mut alloc = allocator.predict_first(task.context()).into_alloc();
        loop {
            let verdict = enforcement.judge(task, &alloc);
            if verdict.success {
                attempts.push(AttemptOutcome::success(alloc, verdict.charged_time_s));
                break;
            }
            attempts.push(AttemptOutcome::failure(alloc, verdict.charged_time_s));
            assert!(
                attempts.len() < MAX_ATTEMPTS,
                "{}: allocation never converged (alloc {alloc}, peak {})",
                task.id,
                task.peak
            );
            alloc = allocator
                .predict_retry(task.context(), &alloc, &verdict.exhausted)
                .into_alloc();
        }
        metrics.push(TaskOutcome {
            task: task.id,
            category: task.category,
            peak: task.peak,
            duration_s: task.duration_s,
            attempts,
        });
        allocator.observe(&ResourceRecord::from_task(task));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use tora_alloc::resources::ResourceKind;
    use tora_workloads::synthetic::SyntheticKind;
    use tora_workloads::PaperWorkflow;

    #[test]
    fn replay_completes_every_task_for_every_algorithm() {
        let wf = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(5)
            .tasks(300)
            .materialize()
            .unwrap();
        for alg in AlgorithmKind::PAPER_SET {
            let m = replay(&wf, alg, EnforcementModel::LinearRamp, 1);
            assert_eq!(m.len(), wf.len(), "{alg}");
            for kind in ResourceKind::STANDARD {
                let awe = m.awe(kind).unwrap();
                assert!(awe > 0.0 && awe <= 1.0, "{alg}/{kind}: AWE {awe}");
            }
        }
    }

    #[test]
    fn oracle_style_bound_holds() {
        // No algorithm can beat AWE = 1; whole machine is the floor among
        // sensible ones on memory for these workloads.
        let wf = SyntheticKind::Normal
            .catalog_workflow()
            .spec(8)
            .tasks(400)
            .materialize()
            .unwrap();
        let wm = replay(
            &wf,
            AlgorithmKind::WholeMachine,
            EnforcementModel::LinearRamp,
            1,
        );
        let eb = replay(
            &wf,
            AlgorithmKind::ExhaustiveBucketing,
            EnforcementModel::LinearRamp,
            1,
        );
        let k = ResourceKind::MemoryMb;
        assert!(eb.awe(k).unwrap() > wm.awe(k).unwrap());
    }

    #[test]
    fn enforcement_model_changes_only_failure_charging() {
        let wf = SyntheticKind::Exponential
            .catalog_workflow()
            .spec(2)
            .tasks(300)
            .materialize()
            .unwrap();
        let ramp = replay(
            &wf,
            AlgorithmKind::QuantizedBucketing,
            EnforcementModel::LinearRamp,
            3,
        );
        let instant = replay(
            &wf,
            AlgorithmKind::QuantizedBucketing,
            EnforcementModel::InstantPeak,
            3,
        );
        // Same retries (verdicts agree), ...
        assert_eq!(ramp.total_retries(), instant.total_retries());
        // ...but instant-peak charges failures more, so waste is ≥ ramp's.
        let k = ResourceKind::MemoryMb;
        assert!(instant.waste(k).failed_allocation >= ramp.waste(k).failed_allocation);
        assert!(instant.awe(k).unwrap() <= ramp.awe(k).unwrap());
    }

    #[test]
    fn topeft_disk_is_near_perfect_for_bucketing() {
        // §V-C: constant 306 MB disk → bucketing algorithms reach ≈100%
        // disk efficiency in the steady state.
        let wf = PaperWorkflow::TopEft.build(1);
        let m = replay(
            &wf,
            AlgorithmKind::ExhaustiveBucketing,
            EnforcementModel::LinearRamp,
            1,
        );
        let awe = m.awe(ResourceKind::DiskMb).unwrap();
        assert!(awe > 0.9, "TopEFT disk AWE {awe}");
    }

    #[test]
    fn colmena_disk_is_poor_for_comparators_even_serially() {
        // §V-C: ~10 MB disk usage. The comparators explore with a whole
        // worker (64 GB disk), and Max Seen's 250 MB rounding keeps even
        // its steady state at ≈4% — single-digit efficiency already in a
        // serial replay. (The bucketing algorithms only drop to single
        // digits under *concurrent* exploration, where hundreds of in-flight
        // tasks hold the 1 GB probe — covered by the engine tests.)
        let wf = PaperWorkflow::ColmenaXtb.build(1);
        for alg in [
            AlgorithmKind::WholeMachine,
            AlgorithmKind::MaxSeen,
            AlgorithmKind::MinWaste,
            AlgorithmKind::MaxThroughput,
        ] {
            let m = replay(&wf, alg, EnforcementModel::LinearRamp, 1);
            let awe = m.awe(ResourceKind::DiskMb).unwrap();
            assert!(awe < 0.12, "{alg}: ColmenaXTB disk AWE {awe}");
        }
    }

    #[test]
    #[should_panic(expected = "allocation never converged")]
    fn bails_out_when_a_task_can_never_fit() {
        // A task bigger than the machine violates §II-B assumption 4: every
        // retry escalates to the full worker and still dies, so the replay
        // must fail loudly at MAX_ATTEMPTS instead of spinning forever.
        // `Workflow::new` would reject the task, so build the struct raw.
        use tora_alloc::resources::{ResourceVector, WorkerSpec};
        use tora_alloc::task::TaskSpec;
        let worker = WorkerSpec::paper_default();
        let over = ResourceVector::new(1.0, 2.0 * worker.capacity.memory_mb(), 10.0);
        let wf = Workflow {
            name: "impossible".into(),
            categories: vec!["main".into()],
            tasks: vec![TaskSpec::new(0, 0, over, 30.0)],
            worker,
            dependencies: Vec::new(),
        };
        let _ = replay(
            &wf,
            AlgorithmKind::ExhaustiveBucketing,
            EnforcementModel::LinearRamp,
            1,
        );
    }

    #[test]
    fn replay_on_a_factory_allocator_matches_replay() {
        // The factory ablation rows rely on this: wrapping an algorithm's
        // own estimators in a factory, under the probe that algorithm
        // defaults to, replays identically to `replay`.
        use tora_alloc::allocator::{EstimatorFactory, ExploratoryPolicy};
        let wf = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(4)
            .tasks(300)
            .materialize()
            .unwrap();
        let algorithm = AlgorithmKind::ExhaustiveBucketing;
        let factory: EstimatorFactory =
            Box::new(move |kind, machine| algorithm.build_estimator(kind, machine));
        let config = AllocatorConfig {
            machine: wf.worker,
            exploratory: Some(ExploratoryPolicy::paper_conservative()),
            ..AllocatorConfig::default()
        };
        let mut allocator = Allocator::with_factory("eb-factory", factory, config, 9);
        let via_factory = replay_on(&mut allocator, &wf, EnforcementModel::LinearRamp);
        let reference = replay(&wf, algorithm, EnforcementModel::LinearRamp, 9);
        assert_eq!(
            serde_json::to_string(&via_factory).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "allocation never converged")]
    fn a_retry_that_never_grows_panics_instead_of_looping() {
        // An estimator that breaks the "retry strictly bigger" contract: it
        // answers every retry with the allocation that just died.
        use tora_alloc::allocator::{EstimatorFactory, ExploratoryPolicy};
        use tora_alloc::task::TaskContext;
        use tora_alloc::{Prediction, ValueEstimator};
        struct Stuck;
        impl ValueEstimator for Stuck {
            fn name(&self) -> &'static str {
                "stuck"
            }
            fn observe(&mut self, _value: f64, _sig: f64) {}
            fn len(&self) -> usize {
                0
            }
            fn predict_first(&mut self, _ctx: &TaskContext, _u: f64) -> Option<Prediction> {
                Some(Prediction::point(1.0))
            }
            fn predict_retry(
                &mut self,
                _ctx: &TaskContext,
                prev: f64,
                _u: f64,
            ) -> Option<Prediction> {
                Some(Prediction::point(prev))
            }
        }
        let wf = SyntheticKind::Normal
            .catalog_workflow()
            .spec(3)
            .tasks(20)
            .materialize()
            .unwrap();
        let factory: EstimatorFactory = Box::new(|_, _| Box::new(Stuck));
        let config = AllocatorConfig {
            machine: wf.worker,
            exploratory: Some(ExploratoryPolicy::paper_conservative()),
            exploratory_records: 0,
            ..AllocatorConfig::default()
        };
        let mut allocator = Allocator::with_factory("stuck", factory, config, 1);
        let _ = replay_on(&mut allocator, &wf, EnforcementModel::LinearRamp);
    }

    #[test]
    fn deterministic_given_seed() {
        let wf = SyntheticKind::Uniform
            .catalog_workflow()
            .spec(6)
            .tasks(200)
            .materialize()
            .unwrap();
        let a = replay(
            &wf,
            AlgorithmKind::GreedyBucketing,
            EnforcementModel::LinearRamp,
            5,
        );
        let b = replay(
            &wf,
            AlgorithmKind::GreedyBucketing,
            EnforcementModel::LinearRamp,
            5,
        );
        assert_eq!(a.awe(ResourceKind::MemoryMb), b.awe(ResourceKind::MemoryMb));
    }
}
