//! The zero-cost claim of the tracing layer, made testable: with the
//! default [`NoopSink`], not a single [`AllocEvent`] is ever *constructed*
//! (every construction site is guarded by `S::ENABLED`), so the global
//! construction counter must not move across an entire untraced run.
//!
//! This lives in its own test binary on purpose: the counter is
//! process-global, so it can only be asserted on when no traced test runs
//! concurrently — and the two phases below must run in this order, in one
//! test function.
//!
//! Per-task outcome rows are opt-in in the same spirit: a default run keeps
//! running sums only, which the second test pins.

use tora::alloc::trace::events_constructed;
use tora::prelude::*;
use tora::workloads::synthetic::SyntheticKind;

#[test]
fn noop_sink_constructs_no_events() {
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(4)
        .tasks(150)
        .materialize()
        .unwrap();
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 4,
            min: 2,
            max: 8,
            mean_interval_s: Some(15.0),
        },
        seed: 5,
        ..SimConfig::default()
    };

    // Phase 1: untraced runs — engine, replay and a bare allocator — must
    // leave the counter untouched.
    let before = events_constructed();
    let res = simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    assert_eq!(res.metrics.len(), wf.len());
    let _ = replay(
        &wf,
        AlgorithmKind::GreedyBucketing,
        EnforcementModel::LinearRamp,
        1,
        WorkflowMetrics::new(),
    );
    let mut allocator = Allocator::new(AlgorithmKind::MaxSeen, 3);
    let first = allocator.predict_first(CategoryId(0));
    allocator.predict_retry(
        CategoryId(0),
        &first.alloc,
        &ResourceMask::only(ResourceKind::MemoryMb),
    );
    assert_eq!(
        events_constructed(),
        before,
        "NoopSink run constructed trace events"
    );

    // Phase 2: the same workload with a real sink constructs plenty —
    // proving the counter actually observes the construction sites.
    let (traced, (trace, _events)) =
        Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
            .with_sink((TraceStats::new(), MemorySink::new()))
            .run_traced();
    assert!(
        events_constructed() > before,
        "traced run constructed no events"
    );
    assert!(trace.overall.total() > 0);
    traced.stats.reconcile(&trace).unwrap();
}

#[test]
fn default_runs_keep_no_task_rows() {
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(4)
        .tasks(150)
        .materialize()
        .unwrap();
    let config = SimConfig {
        seed: 5,
        ..SimConfig::default()
    };
    let algorithm = AlgorithmKind::ExhaustiveBucketing;
    let plain = simulate(&wf, algorithm, config);
    assert_eq!(plain.metrics.len(), wf.len());
    assert!(plain.metrics.outcomes().is_none(), "engine kept rows");
    let replayed = replay(
        &wf,
        algorithm,
        EnforcementModel::LinearRamp,
        1,
        WorkflowMetrics::new(),
    );
    assert!(replayed.outcomes().is_none(), "replay kept rows");

    // Asking for rows keeps one per task and moves no sum by a bit.
    let kept = Simulation::new(&wf, algorithm, config)
        .keep_outcomes()
        .run();
    assert_eq!(kept.metrics.outcomes().map(<[_]>::len), Some(wf.len()));
    assert_eq!(kept.stats, plain.stats);
    for kind in ResourceKind::ALL {
        let bits = |m: &WorkflowMetrics| m.total_allocation(kind).to_bits();
        assert_eq!(bits(&kept.metrics), bits(&plain.metrics), "{kind}");
    }
}
