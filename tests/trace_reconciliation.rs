//! Cross-check the allocator's event stream against the engine's own
//! bookkeeping: the two count the same run from opposite sides, so every
//! tally must match exactly — overall and per category. This is the
//! correctness contract behind `tora simulate --events`.

use tora::prelude::*;
use tora::workloads::synthetic::SyntheticKind;

fn traced_run(
    wf: &Workflow,
    algorithm: AlgorithmKind,
    config: SimConfig,
) -> (SimResult, TraceStats, MemorySink) {
    let sink = (TraceStats::new(), MemorySink::new());
    let (result, (trace, events)) = Simulation::new(wf, algorithm, config)
        .with_sink(sink)
        .run_traced();
    (result, trace, events)
}

#[test]
fn trace_reconciles_for_every_algorithm() {
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(11)
        .tasks(150)
        .materialize()
        .unwrap();
    for alg in AlgorithmKind::PAPER_SET {
        let (result, trace, _) = traced_run(&wf, alg, SimConfig::default());
        result
            .stats
            .reconcile(&trace)
            .unwrap_or_else(|errs| panic!("{alg}: {errs:?}"));
    }
}

#[test]
fn trace_reconciles_under_churn_and_preemption() {
    let wf = SyntheticKind::Exponential
        .catalog_workflow()
        .spec(7)
        .tasks(200)
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
    let (result, trace, _) = traced_run(&wf, AlgorithmKind::GreedyBucketing, config);
    assert!(
        result.stats.preemptions > 0,
        "config should force preemptions"
    );
    result.stats.reconcile(&trace).unwrap();
    // Preemptions never reach the allocator: a resubmitted attempt reuses
    // its pinned allocation, so no extra Predict events appear.
    assert_eq!(trace.overall.retry, result.stats.failures);
    assert_eq!(trace.overall.observe, result.stats.completions);
}

#[test]
fn per_category_counts_are_exact() {
    // Multi-category workflow: every category's slice of the event stream
    // must match the engine's per-category tally on its own.
    let wf = tora::workloads::PaperWorkflow::ColmenaXtb.build(3);
    let (result, trace, events) = traced_run(
        &wf,
        AlgorithmKind::ExhaustiveBucketing,
        SimConfig::default(),
    );
    result.stats.reconcile(&trace).unwrap();
    assert!(trace.by_category.len() > 1, "expected several categories");
    for (id, tally) in &trace.by_category {
        let engine = result
            .stats
            .category(CategoryId(*id))
            .unwrap_or_else(|| panic!("engine never saw category {id}"));
        assert_eq!(
            engine.predictions_first,
            tally.predictions_first(),
            "cat {id}"
        );
        assert_eq!(engine.predictions_retry, tally.retry, "cat {id}");
        assert_eq!(engine.observations, tally.observe, "cat {id}");
        assert_eq!(engine.escalations, tally.escalate, "cat {id}");
        // The raw event stream agrees with the counting sink.
        let streamed = events
            .events
            .iter()
            .filter(|e| e.category() == CategoryId(*id))
            .count() as u64;
        assert_eq!(streamed, tally.total(), "cat {id}");
    }
}

#[test]
fn reconcile_flags_a_tampered_tally() {
    let wf = SyntheticKind::Normal
        .catalog_workflow()
        .spec(2)
        .tasks(100)
        .materialize()
        .unwrap();
    let (result, trace, _) = traced_run(&wf, AlgorithmKind::MaxSeen, SimConfig::default());
    let mut stats = result.stats.clone();
    stats.calls.observations += 1;
    let errs = stats.reconcile(&trace).unwrap_err();
    assert!(errs.iter().any(|e| e.contains("observations")), "{errs:?}");
}

#[test]
fn traced_and_untraced_runs_agree() {
    // Attaching a sink must not perturb the simulation itself: identical
    // seeds produce identical metrics with and without tracing.
    let wf = SyntheticKind::Uniform
        .catalog_workflow()
        .spec(9)
        .tasks(120)
        .materialize()
        .unwrap();
    let config = SimConfig {
        seed: 13,
        ..SimConfig::default()
    };
    let plain = simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    let (traced, trace, _) = traced_run(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    assert_eq!(
        plain.metrics.awe(ResourceKind::MemoryMb),
        traced.metrics.awe(ResourceKind::MemoryMb)
    );
    assert_eq!(plain.makespan_s, traced.makespan_s);
    assert_eq!(plain.stats, traced.stats);
    traced.stats.reconcile(&trace).unwrap();
}
