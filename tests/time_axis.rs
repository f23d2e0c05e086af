//! The §VII "additional resource types" extension, exercised end-to-end:
//! managing the wall-time axis (`t_a` of the paper's allocation 4-tuple)
//! with the same bucketing machinery as the spatial dimensions.

use tora::alloc::allocator::AllocatorConfig;
use tora::prelude::*;
use tora::sim::replay_on;

fn time_managed_config(workflow: &Workflow) -> AllocatorConfig {
    // The paper's probe plus a 1-hour default wall-time limit (what batch
    // systems typically grant unqualified jobs).
    let probe = ResourceVector::new(1.0, 1024.0, 1024.0).with(ResourceKind::TimeS, 3600.0);
    AllocatorConfig {
        machine: workflow.worker,
        managed: vec![
            ResourceKind::Cores,
            ResourceKind::MemoryMb,
            ResourceKind::DiskMb,
            ResourceKind::TimeS,
        ],
        exploratory: Some(ExploratoryPolicy::Conservative { probe }),
        ..AllocatorConfig::default()
    }
}

#[test]
fn time_axis_is_learned_and_enforced() {
    let wf = SyntheticKind::Normal
        .catalog_workflow()
        .spec(11)
        .tasks(400)
        .materialize()
        .unwrap();
    let config = time_managed_config(&wf);
    let mut allocator = Allocator::with_config(AlgorithmKind::ExhaustiveBucketing, config, 11);
    let metrics = replay_on(
        &mut allocator,
        &wf,
        EnforcementModel::LinearRamp,
        WorkflowMetrics::new(),
    );
    assert_eq!(metrics.len(), wf.len());
    // The time dimension now has meaningful efficiency: allocated wall time
    // tracks actual durations instead of the 10^7-second machine cap.
    let awe = metrics.awe(ResourceKind::TimeS).unwrap();
    assert!(
        awe > 0.05,
        "time-limit efficiency should be substantial, got {awe}"
    );
    // And some tasks were killed for outliving their time allocation
    // (probabilistic bucket sampling under-allocates occasionally).
    assert!(metrics.total_retries() > 0);
    // All spatial accounting is still consistent.
    for kind in [
        ResourceKind::Cores,
        ResourceKind::MemoryMb,
        ResourceKind::DiskMb,
    ] {
        let a = metrics.total_allocation(kind);
        let c = metrics.total_consumption(kind);
        let w = metrics.waste(kind);
        assert!((a - (c + w.total())).abs() <= 1e-6 * a.max(1.0), "{kind}");
    }
}

#[test]
fn unmanaged_time_axis_never_fails_tasks() {
    // The default configuration leaves time unmanaged: the allocation gets
    // the machine's (huge) time capacity, so no task is ever killed for
    // time.
    let wf = SyntheticKind::Normal
        .catalog_workflow()
        .spec(12)
        .tasks(200)
        .materialize()
        .unwrap();
    let metrics = replay(
        &wf,
        AlgorithmKind::WholeMachine,
        EnforcementModel::LinearRamp,
        12,
        WorkflowMetrics::new(),
    );
    assert_eq!(metrics.total_retries(), 0);
    let awe = metrics.awe(ResourceKind::TimeS).unwrap();
    assert!(
        awe < 0.01,
        "unmanaged time AWE is tiny by design, got {awe}"
    );
}

#[test]
fn time_managed_beats_unmanaged_on_time_efficiency() {
    let wf = SyntheticKind::Uniform
        .catalog_workflow()
        .spec(13)
        .tasks(400)
        .materialize()
        .unwrap();
    let mut allocator = Allocator::with_config(
        AlgorithmKind::ExhaustiveBucketing,
        time_managed_config(&wf),
        13,
    );
    let managed = replay_on(
        &mut allocator,
        &wf,
        EnforcementModel::LinearRamp,
        WorkflowMetrics::new(),
    );
    let unmanaged = replay(
        &wf,
        AlgorithmKind::ExhaustiveBucketing,
        EnforcementModel::LinearRamp,
        13,
        WorkflowMetrics::new(),
    );
    let m = managed.awe(ResourceKind::TimeS).unwrap();
    let u = unmanaged.awe(ResourceKind::TimeS).unwrap();
    assert!(m > 10.0 * u, "managed {m} should dwarf unmanaged {u}");
    // The spatial dimensions stay in the same ballpark (time retries cost
    // some memory waste, but not catastrophically).
    let mem_managed = managed.awe(ResourceKind::MemoryMb).unwrap();
    let mem_unmanaged = unmanaged.awe(ResourceKind::MemoryMb).unwrap();
    assert!(
        mem_managed > mem_unmanaged * 0.5,
        "managed {mem_managed} vs unmanaged {mem_unmanaged}"
    );
}

#[test]
fn engine_supports_time_management_too() {
    // Through the full engine: time allocations are enforcement limits, not
    // reservations, so they must not serialize the pool.
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(14)
        .tasks(200)
        .materialize()
        .unwrap();
    // (The engine uses the default allocator config; this test verifies the
    // unmanaged path keeps time out of packing: with 10 workers and
    // machine-cap time allocations, tasks still run concurrently.)
    let config = SimConfig {
        churn: ChurnConfig::fixed(10),
        ..SimConfig::default()
    };
    let (res, series) = Simulation::new(&wf, AlgorithmKind::MaxSeen, config)
        .with_sink(UtilizationSeries::new())
        .run_traced();
    assert_eq!(res.metrics.len(), wf.len());
    assert!(
        series.peak_running() > 10,
        "time axis must not serialize placement (peak {})",
        series.peak_running()
    );
}
