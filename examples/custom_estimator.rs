//! Extending the allocator: plug a custom estimator into the framework.
//!
//! The paper's architecture (§IV-A) cleanly separates the *bucketing
//! manager* from the scheduler, so new allocation strategies drop in behind
//! the same two operations (observe a record, answer an allocation request).
//! This example implements a naive "p95 + 20% headroom" estimator, runs it
//! through the full allocator/simulator machinery via
//! [`Allocator::with_factory`], and compares it against Exhaustive
//! Bucketing. It also demonstrates managing a *fourth* resource axis (GPUs)
//! — the extensibility called out in §VII.

use tora::alloc::allocator::EstimatorFactory;
use tora::alloc::{Prediction, RecordList, ValueEstimator};
use tora::metrics::{pct, Table};
use tora::prelude::*;
use tora::sim::replay_on;

/// Allocate the 95th percentile of observed values plus 20% headroom;
/// double on failure.
struct P95Headroom {
    records: RecordList,
}

impl P95Headroom {
    fn new() -> Self {
        P95Headroom {
            records: RecordList::new(),
        }
    }
}

impl ValueEstimator for P95Headroom {
    fn name(&self) -> &'static str {
        "p95-headroom"
    }

    fn observe(&mut self, value: f64, sig: f64) {
        self.records.observe(value, sig);
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn predict_first(&mut self, _ctx: &TaskContext, _u: f64) -> Option<Prediction> {
        // A deterministic point estimate — the provenance shows up in
        // traced runs as `AllocSource::Point`. Quantiles need the sorted
        // order, so fold any pending observations first.
        self.records.commit();
        self.records
            .quantile(0.95)
            .map(|v| Prediction::point(v * 1.2))
    }

    fn predict_retry(&mut self, _ctx: &TaskContext, prev: f64, _u: f64) -> Option<Prediction> {
        if self.records.is_empty() {
            None
        } else {
            Some(Prediction::doubling(prev * 2.0))
        }
    }
}

fn main() {
    let workflow = PaperWorkflow::Normal
        .spec(5)
        .tasks(600)
        .materialize()
        .unwrap();

    let factory: EstimatorFactory = Box::new(|_kind, _machine| Box::new(P95Headroom::new()));
    let config = AllocatorConfig {
        exploratory: Some(ExploratoryPolicy::paper_conservative()),
        ..AllocatorConfig::default()
    };
    let mut custom = Allocator::with_factory("p95-headroom", factory, config, 5);

    // The same serial replay `tora_sim::replay` runs, over the custom
    // allocator.
    let enforcement = EnforcementModel::LinearRamp;
    let metrics = replay_on(&mut custom, &workflow, enforcement, WorkflowMetrics::new());

    let reference = replay(
        &workflow,
        AlgorithmKind::ExhaustiveBucketing,
        enforcement,
        5,
        WorkflowMetrics::new(),
    );

    let mut table = Table::new(
        "custom estimator vs Exhaustive Bucketing (serial replay)",
        &["allocator", "cores AWE", "memory AWE", "retries"],
    );
    for (name, m) in [
        ("p95-headroom", &metrics),
        ("exhaustive-bucketing", &reference),
    ] {
        table.row(&[
            name.to_string(),
            pct(m.awe(ResourceKind::Cores).unwrap()),
            pct(m.awe(ResourceKind::MemoryMb).unwrap()),
            m.total_retries().to_string(),
        ]);
    }
    print!("{}", table.render());

    // Extensibility: manage the GPU axis too. Build a workflow where tasks
    // consume 1 GPU and let the allocator manage all four dimensions.
    let worker = WorkerSpec::new(
        ResourceVector::new(16.0, 65536.0, 65536.0).with(tora::alloc::ResourceKind::Gpus, 4.0),
    );
    let mut gpu_alloc = Allocator::with_config(
        AlgorithmKind::ExhaustiveBucketing,
        AllocatorConfig {
            machine: worker,
            managed: vec![
                ResourceKind::Cores,
                ResourceKind::MemoryMb,
                ResourceKind::DiskMb,
                ResourceKind::Gpus,
            ],
            ..AllocatorConfig::default()
        },
        5,
    );
    for id in 0..50u64 {
        let peak = ResourceVector::new(1.0, 500.0, 100.0).with(ResourceKind::Gpus, 1.0);
        gpu_alloc.observe(&ResourceRecord::from_task(&TaskSpec::new(
            id, 0, peak, 30.0,
        )));
    }
    let next = gpu_alloc.predict_first(CategoryId(0));
    println!(
        "\nfour-axis allocation with GPUs managed: {next} + {} gpus",
        next.gpus()
    );
}
