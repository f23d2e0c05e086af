//! Differential suite: the event engine against the analytic replay.
//!
//! `replay` processes tasks strictly serially — predict, enforce, retry
//! until success, observe. The engine reproduces exactly that schedule when
//! an application driver feeds it one task at a time over a fixed
//! single-worker pool: every allocator call then happens in the same order
//! with the same inputs, so the resulting [`WorkflowMetrics`] must be
//! byte-identical, for every algorithm — both sides keep their per-task
//! rows, so every attempt is compared. This pins the two execution paths
//! together far more tightly than the aggregate-identity checks in
//! `accounting.rs` — any divergence in retry logic, charging, or RNG
//! consumption shows up as a JSON diff.

use tora::prelude::*;

const SEEDS: [u64; 3] = [1, 7, 23];

/// Feeds the engine one task per completion: task 0 at start, task k+1 when
/// task k completes. With a single worker this makes the engine's allocator
/// call sequence identical to the serial replay's.
struct SerialDriver {
    tasks: Vec<TaskSpec>,
    next: usize,
}

impl Driver for SerialDriver {
    fn on_start(&mut self, api: &mut SubmitApi) {
        if let Some(t) = self.tasks.first() {
            api.submit_featured(t.category.0, t.features, t.peak, t.duration_s, Vec::new());
        }
        self.next = 1;
    }

    fn on_task_complete(&mut self, _task: &TaskSpec, api: &mut SubmitApi) {
        if let Some(t) = self.tasks.get(self.next) {
            api.submit_featured(t.category.0, t.features, t.peak, t.duration_s, Vec::new());
        }
        self.next += 1;
    }
}

/// Run `wf` through the engine serially and return the metrics, per-task
/// rows included, as JSON.
fn engine_serial_json(
    wf: &Workflow,
    algorithm: AlgorithmKind,
    seed: u64,
    fault_policy: Option<FaultPolicy>,
) -> String {
    let driver = Box::new(SerialDriver {
        tasks: wf.tasks.clone(),
        next: 0,
    });
    let config = SimConfig {
        churn: ChurnConfig::fixed(1),
        faults: FaultPlan::none(),
        fault_policy,
        seed,
        ..SimConfig::default()
    };
    let result = Simulation::with_driver(driver, wf.worker, algorithm, config)
        .keep_outcomes()
        .run();
    assert_eq!(result.metrics.len(), wf.len(), "{algorithm} seed {seed}");
    serde_json::to_string(&result.metrics).expect("metrics serialize")
}

#[test]
fn engine_matches_replay_for_every_algorithm_and_seed() {
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(3)
        .tasks(120)
        .materialize()
        .unwrap();
    for algorithm in AlgorithmKind::ALL {
        for seed in SEEDS {
            let replayed = tora::sim::replay(
                &wf,
                algorithm,
                EnforcementModel::default(),
                seed,
                WorkflowMetrics::with_rows(),
            );
            let want = serde_json::to_string(&replayed).expect("metrics serialize");
            let got = engine_serial_json(&wf, algorithm, seed, None);
            assert_eq!(got, want, "{algorithm} seed {seed}: engine vs replay");
        }
    }
}

#[test]
fn fault_policy_with_zero_observed_faults_changes_nothing() {
    // The feedback channel compiled in (policy set) but never fed — the
    // fault plan is all-zero, so `observe_outcome` is never called and the
    // padding/escalation factors stay exactly 1.0. Metrics must remain
    // byte-identical to both the bare engine and the replay.
    let wf = SyntheticKind::Exponential
        .catalog_workflow()
        .spec(9)
        .tasks(120)
        .materialize()
        .unwrap();
    for algorithm in AlgorithmKind::ALL {
        for seed in SEEDS {
            let bare = engine_serial_json(&wf, algorithm, seed, None);
            let with_policy =
                engine_serial_json(&wf, algorithm, seed, Some(FaultPolicy::default()));
            assert_eq!(bare, with_policy, "{algorithm} seed {seed}: policy no-op");
            let replayed = tora::sim::replay(
                &wf,
                algorithm,
                EnforcementModel::default(),
                seed,
                WorkflowMetrics::with_rows(),
            );
            let want = serde_json::to_string(&replayed).expect("metrics serialize");
            assert_eq!(
                with_policy, want,
                "{algorithm} seed {seed}: policy vs replay"
            );
        }
    }
}

/// Run a multi-category workflow through the engine under backfill
/// scheduling (so dispatch scans whole queues, not single tasks), heavy
/// faults and fault feedback, and check what must hold of any such run: the
/// engine's counters reconcile with the allocator's trace, and every
/// submitted task either completed or was dead-lettered. Returns the stats
/// JSON.
fn check_faulty_backfill_run(wf: &Workflow, algorithm: AlgorithmKind, seed: u64) -> String {
    let config = SimConfig {
        churn: ChurnConfig::fixed(4),
        queue_policy: QueuePolicy::FifoBackfill,
        faults: FaultPlan::named("heavy").expect("preset exists"),
        fault_policy: Some(FaultPolicy::default()),
        seed,
        ..SimConfig::default()
    };
    let (result, trace) = Simulation::new(wf, algorithm, config)
        .with_sink(TraceStats::new())
        .run_traced();
    let label = format!("{algorithm} on {} seed {seed}", wf.name);
    assert!(
        trace.overall.predictions_first() > 0,
        "{label}: trace empty"
    );
    result
        .stats
        .reconcile(&trace)
        .unwrap_or_else(|errs| panic!("{label}: {errs:?}"));
    let stats = &result.stats;
    let dead = stats.faults.dead_lettered;
    assert!(stats.submitted >= wf.len() as u64, "{label}: tasks lost");
    assert_eq!(
        stats.completions + dead,
        stats.submitted,
        "{label}: conservation"
    );
    assert_eq!(result.metrics.dead_lettered_count() as u64, dead, "{label}");
    serde_json::to_string(&result.stats).expect("stats serialize")
}

#[test]
fn backfill_under_heavy_faults_reconciles_and_conserves() {
    let wf = PaperWorkflow::ColmenaXtb
        .spec(5)
        .category_tasks(vec![60, 60])
        .materialize()
        .unwrap();
    for algorithm in AlgorithmKind::ALL {
        for seed in SEEDS {
            check_faulty_backfill_run(&wf, algorithm, seed);
        }
    }
}

#[test]
fn dag_shapes_under_heavy_faults_reconcile_and_conserve() {
    // Dependency gating holds tasks back, so backfill queues form
    // differently and the dead-letter cascade (heavy faults) rides the
    // dependency edges.
    let shaped = [
        PaperWorkflow::ColmenaXtb
            .spec(5)
            .dag_shape(DagShape::diamond(3, 6).with_loopback(2))
            .materialize()
            .unwrap(),
        PaperWorkflow::ColmenaXtb
            .spec(5)
            .dag_shape(DagShape::random_layered(4, 5).with_loopback(1))
            .materialize()
            .unwrap(),
    ];
    for wf in &shaped {
        assert!(wf.has_dependencies());
        for algorithm in AlgorithmKind::ALL {
            let stats = check_faulty_backfill_run(wf, algorithm, 7);
            assert!(
                stats.contains("\"critical_path\":{"),
                "{algorithm} on {}: critical-path stats missing",
                wf.name
            );
        }
    }
}

#[test]
fn differential_parity_extends_to_production_shaped_traces() {
    // The synthetic distributions exercise the bucketing math; the
    // production-shaped traces exercise multi-category learning. Same
    // parity requirement, smaller algorithm set to keep the suite quick.
    let wf = PaperWorkflow::ColmenaXtb.build(11);
    for algorithm in [
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::MaxSeen,
    ] {
        let replayed = tora::sim::replay(
            &wf,
            algorithm,
            EnforcementModel::default(),
            11,
            WorkflowMetrics::with_rows(),
        );
        let want = serde_json::to_string(&replayed).expect("metrics serialize");
        let got = engine_serial_json(&wf, algorithm, 11, Some(FaultPolicy::default()));
        assert_eq!(got, want, "{algorithm}: production trace parity");
    }
}
