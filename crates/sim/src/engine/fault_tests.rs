//! Fault-injection tests: crashes, stragglers, budgets, dead-lettering,
//! replay, rack correlation and checkpoint/restart.

use super::*;
use crate::log::EventLog;
use tora_workloads::synthetic::SyntheticKind;

fn small(kind: SyntheticKind) -> Workflow {
    kind.catalog_workflow()
        .spec(42)
        .tasks(200)
        .materialize()
        .unwrap()
}

/// A run that keeps per-task rows, so a JSON comparison of its metrics
/// covers every task's attempts.
fn simulate_rows(wf: &Workflow, algorithm: AlgorithmKind, config: SimConfig) -> SimResult {
    Simulation::new(wf, algorithm, config).keep_outcomes().run()
}

fn assert_conserved(res: &SimResult, total: usize) {
    let dead = res.stats.faults.dead_lettered;
    assert_eq!(
        res.stats.submitted,
        res.stats.completions + dead,
        "conservation: submitted = completed + dead-lettered"
    );
    assert_eq!(res.stats.submitted as usize, total);
    assert_eq!(res.metrics.len() as u64, res.stats.completions);
    assert_eq!(res.metrics.dead_lettered_count() as u64, dead);
}

#[test]
fn zero_rate_fault_plan_reproduces_fault_free_run() {
    let wf = small(SyntheticKind::Bimodal);
    let config = SimConfig {
        churn: ChurnConfig::paper_like(),
        seed: 7,
        ..SimConfig::default()
    };
    let with_plan = SimConfig {
        faults: FaultPlan::none(),
        ..config
    };
    let a = simulate_rows(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    let b = simulate_rows(&wf, AlgorithmKind::ExhaustiveBucketing, with_plan);
    assert_eq!(
        serde_json::to_string(&a.metrics).unwrap(),
        serde_json::to_string(&b.metrics).unwrap()
    );
    assert_eq!(a.makespan_s, b.makespan_s);
    assert!(!a.stats.faults.any());
}

#[test]
fn crash_plan_conserves_tasks_and_logs_consistently() {
    let wf = small(SyntheticKind::Uniform);
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 6,
            min: 3,
            max: 10,
            mean_interval_s: Some(15.0),
        },
        faults: FaultPlan::named("crashes").unwrap(),
        seed: 13,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, wf.len());
    assert!(res.stats.faults.worker_crashes > 0, "no crash fired");
    assert!(res.stats.faults.crashed_attempts > 0, "no attempt lost");
    log.check_consistency().unwrap();
}

#[test]
fn straggler_plan_slows_and_kills_attempts() {
    let wf = small(SyntheticKind::Normal);
    let config = SimConfig {
        faults: FaultPlan {
            straggler_rate: 0.3,
            straggler_multiplier: 10.0,
            straggler_timeout_s: 120.0,
            max_attempts: 8,
            ..FaultPlan::none()
        },
        seed: 3,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::MaxSeen, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, wf.len());
    let f = &res.stats.faults;
    assert!(
        f.straggler_kills > 0 || f.stragglers_slow > 0,
        "30% straggler rate drew nothing: {f:?}"
    );
    // Drag waste is attributed to faults, not to the allocator.
    let attributed = res
        .metrics
        .attributed_waste(tora_alloc::resources::ResourceKind::MemoryMb);
    if f.stragglers_slow > 0 || f.straggler_kills > 0 {
        assert!(attributed.fault_induced > 0.0, "{attributed:?}");
    }
    log.check_consistency().unwrap();
}

#[test]
fn record_dropout_starves_learning_but_not_completion() {
    let wf = small(SyntheticKind::Exponential);
    let config = SimConfig {
        faults: FaultPlan {
            record_dropout_rate: 0.4,
            ..FaultPlan::none()
        },
        seed: 21,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_eq!(res.metrics.len(), wf.len(), "dropout must not lose tasks");
    assert!(res.stats.faults.record_drops > 0);
    // Observations + drops covers every completion.
    assert_eq!(
        res.stats.calls.observations + res.stats.faults.record_drops,
        res.stats.completions
    );
    log.check_consistency().unwrap();
}

#[test]
fn flaky_dispatch_backs_off_and_conserves() {
    let wf = small(SyntheticKind::Bimodal);
    let config = SimConfig {
        faults: FaultPlan::named("flaky-dispatch").unwrap(),
        seed: 2,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::MaxSeen, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, wf.len());
    assert!(
        res.stats.faults.dispatch_failures > 0,
        "25% rate drew nothing"
    );
    // Failed dispatches are not real dispatches.
    assert!(res.stats.dispatches >= res.stats.completions);
    log.check_consistency().unwrap();
}

#[test]
fn attempt_budget_dead_letters_instead_of_spinning() {
    // With a budget of one attempt, any first-attempt kill is terminal.
    let wf = small(SyntheticKind::Bimodal);
    let config = SimConfig {
        faults: FaultPlan {
            max_attempts: 1,
            ..FaultPlan::none()
        },
        seed: 5,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, wf.len());
    let dead = res.stats.faults.dead_lettered;
    assert!(dead > 0, "exploratory kills should exist under EB");
    assert_eq!(res.stats.faults.capped_retries, dead);
    assert!(res
        .metrics
        .dead_letters()
        .iter()
        .all(|l| l.cause == DeadLetterCause::AttemptsExhausted));
    // No completed task has more than one attempt.
    assert!(res.metrics.attempts_histogram().len() <= 1);
    log.check_consistency().unwrap();
}

#[test]
fn shrunken_pool_dead_letters_unplaceable_tasks() {
    // Every worker is a quarter of the base shape, so a whole-machine
    // allocation can never be placed; the unplaceable-rounds budget must
    // dead-letter the stranded tasks instead of hanging the run.
    use tora_alloc::resources::ResourceVector;
    use tora_alloc::task::TaskSpec;
    let peak = ResourceVector::new(8.0, 32768.0, 1000.0);
    let tasks: Vec<TaskSpec> = (0..4).map(|i| TaskSpec::new(i, 0, peak, 30.0)).collect();
    let wf = Workflow::new(
        "stranded",
        vec!["t".into()],
        tasks,
        tora_alloc::resources::WorkerSpec::paper_default(),
    );
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 3,
            min: 3,
            max: 3,
            mean_interval_s: Some(5.0),
        },
        worker_mix: Some(WorkerMix {
            large_fraction: 1.0,
            scale: 0.25,
        }),
        faults: FaultPlan {
            max_unplaceable_rounds: 2,
            ..FaultPlan::none()
        },
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::WholeMachine, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, 4);
    assert_eq!(res.stats.faults.dead_lettered, 4);
    assert!(res
        .metrics
        .dead_letters()
        .iter()
        .all(|l| l.cause == DeadLetterCause::Unplaceable));
    log.check_consistency().unwrap();
}

#[test]
fn dead_letter_cascades_to_dependents() {
    // 0 → 1 → 2; task 0 can never be placed, so 1 and 2 are doomed too.
    use tora_alloc::resources::ResourceVector;
    use tora_alloc::task::TaskSpec;
    let big = ResourceVector::new(8.0, 32768.0, 1000.0);
    let smallp = ResourceVector::new(1.0, 100.0, 10.0);
    let tasks = vec![
        TaskSpec::new(0, 0, big, 30.0),
        TaskSpec::new(1, 1, smallp, 10.0),
        TaskSpec::new(2, 1, smallp, 10.0),
    ];
    let wf = Workflow::new(
        "chain",
        vec!["big".into(), "small".into()],
        tasks,
        tora_alloc::resources::WorkerSpec::paper_default(),
    )
    .with_dependencies(vec![vec![], vec![0], vec![1]]);
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 2,
            min: 2,
            max: 2,
            mean_interval_s: Some(5.0),
        },
        worker_mix: Some(WorkerMix {
            large_fraction: 1.0,
            scale: 0.25,
        }),
        faults: FaultPlan {
            max_unplaceable_rounds: 1,
            ..FaultPlan::none()
        },
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::WholeMachine, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, 3);
    assert_eq!(res.stats.faults.dead_lettered, 3);
    let causes: Vec<DeadLetterCause> = res.metrics.dead_letters().iter().map(|l| l.cause).collect();
    assert_eq!(
        causes
            .iter()
            .filter(|c| **c == DeadLetterCause::Unplaceable)
            .count(),
        1
    );
    assert_eq!(
        causes
            .iter()
            .filter(|c| **c == DeadLetterCause::DependencyDeadLettered)
            .count(),
        2
    );
    log.check_consistency().unwrap();
}

#[test]
fn heavy_chaos_is_deterministic_given_seed() {
    let wf = small(SyntheticKind::Bimodal);
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 5,
            min: 2,
            max: 9,
            mean_interval_s: Some(12.0),
        },
        faults: FaultPlan::named("heavy").unwrap(),
        seed: 77,
        ..SimConfig::default()
    };
    let a = simulate_rows(&wf, AlgorithmKind::GreedyBucketing, config);
    let b = simulate_rows(&wf, AlgorithmKind::GreedyBucketing, config);
    assert_conserved(&a, wf.len());
    assert_eq!(a.stats, b.stats);
    assert_eq!(
        serde_json::to_string(&a.metrics).unwrap(),
        serde_json::to_string(&b.metrics).unwrap()
    );
    let ra = crate::faults::FaultReport::from_result(&a, &config, "greedy-bucketing");
    let rb = crate::faults::FaultReport::from_result(&b, &config, "greedy-bucketing");
    assert_eq!(ra.to_json(), rb.to_json());
    assert!(ra.conservation_ok);
}

#[test]
fn rack_crashes_down_correlated_workers_and_conserve() {
    // Fixed 8-worker pool over 4 racks: round-robin puts exactly two
    // workers in every rack, so the first rack crash (nothing else
    // removes workers here) must take out two workers at once.
    let wf = small(SyntheticKind::Bimodal);
    let config = SimConfig {
        churn: ChurnConfig::fixed(8),
        faults: FaultPlan {
            rack_crash_mean_interval_s: Some(20.0),
            rack_count: 4,
            max_attempts: 10,
            ..FaultPlan::none()
        },
        seed: 11,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, wf.len());
    let f = &res.stats.faults;
    assert!(f.rack_crashes > 0, "no rack crash fired: {f:?}");
    assert!(
        f.worker_crashes > f.rack_crashes,
        "rack crashes were not correlated: {f:?}"
    );
    log.check_consistency().unwrap();
    let crashed = log.count(|e| matches!(e, crate::log::SimEvent::WorkerCrashed { .. }));
    assert_eq!(crashed as u64, f.worker_crashes);
}

#[test]
fn replay_readmits_dead_letters_after_pool_recovery() {
    // Flaky dispatch with a one-retry budget produces
    // DispatchRetriesExhausted dead letters; every churn join above the
    // capacity threshold pulls them back for another round.
    let wf = small(SyntheticKind::Bimodal);
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 5,
            min: 2,
            max: 10,
            mean_interval_s: Some(8.0),
        },
        faults: FaultPlan {
            dispatch_failure_rate: 0.35,
            dispatch_backoff_s: 1.0,
            max_dispatch_retries: 1,
            replay_capacity_fraction: 0.5,
            max_replay_rounds: 3,
            ..FaultPlan::none()
        },
        seed: 17,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::MaxSeen, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_conserved(&res, wf.len());
    let f = &res.stats.faults;
    assert!(f.replayed > 0, "no dead letter was replayed: {f:?}");
    assert!(f.replay_successes > 0, "replay recovered nothing: {f:?}");
    assert!(f.replay_successes <= f.replayed);
    log.check_consistency().unwrap();
    let replay_events = log.count(|e| matches!(e, crate::log::SimEvent::TaskReplayed { .. }));
    assert_eq!(replay_events as u64, f.replayed);
}

#[test]
fn fault_policy_reports_every_terminal_attempt_outcome() {
    let wf = small(SyntheticKind::Bimodal);
    let config = SimConfig {
        faults: FaultPlan {
            straggler_rate: 0.2,
            straggler_multiplier: 8.0,
            straggler_timeout_s: 100.0,
            max_attempts: 8,
            ..FaultPlan::none()
        },
        fault_policy: Some(FaultPolicy::default()),
        seed: 3,
        ..SimConfig::default()
    };
    let res = simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    assert_conserved(&res, wf.len());
    assert!(res.stats.calls.feedback > 0);
    // Success per completion, Exhaustion per resource kill, Straggler
    // per watchdog kill, Crash per crashed attempt — nothing else.
    assert_eq!(
        res.stats.calls.feedback,
        res.stats.completions
            + res.stats.failures
            + res.stats.faults.straggler_kills
            + res.stats.faults.crashed_attempts
    );
}

#[test]
fn fault_policy_without_faults_is_a_strict_no_op() {
    // The fault-feedback channel must be invisible while the plan is
    // inactive: identical metrics, identical makespan, zero feedback.
    let wf = small(SyntheticKind::Exponential);
    let base = SimConfig {
        churn: ChurnConfig::paper_like(),
        seed: 21,
        ..SimConfig::default()
    };
    let with_policy = SimConfig {
        fault_policy: Some(FaultPolicy::default()),
        ..base
    };
    let a = simulate_rows(&wf, AlgorithmKind::GreedyBucketing, base);
    let b = simulate_rows(&wf, AlgorithmKind::GreedyBucketing, with_policy);
    assert_eq!(
        serde_json::to_string(&a.metrics).unwrap(),
        serde_json::to_string(&b.metrics).unwrap()
    );
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(b.stats.calls.feedback, 0);
}

// ---- checkpoint/restart ------------------------------------------------

/// A crash-heavy plan with checkpointing at the given fraction.
fn crashy_plan(fraction: f64) -> FaultPlan {
    FaultPlan {
        crash_mean_interval_s: Some(25.0),
        max_attempts: 12,
        checkpointed_fraction: fraction,
        ..FaultPlan::none()
    }
}

#[test]
fn zero_checkpoint_fraction_is_byte_inert() {
    // `checkpointed_fraction: 0.0` must leave a crashing run byte-identical
    // to one whose plan never heard of checkpointing (the field's default):
    // no salvage counters, no banked work, no perturbed stream.
    let wf = small(SyntheticKind::Uniform);
    let base_plan = FaultPlan {
        crash_mean_interval_s: Some(25.0),
        max_attempts: 12,
        ..FaultPlan::none()
    };
    let run = |faults: FaultPlan| {
        let config = SimConfig {
            churn: ChurnConfig::fixed(6),
            faults,
            seed: 19,
            ..SimConfig::default()
        };
        simulate_rows(&wf, AlgorithmKind::ExhaustiveBucketing, config)
    };
    let a = run(base_plan);
    let b = run(crashy_plan(0.0));
    assert!(a.stats.faults.crashed_attempts > 0, "no crash fired");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(
        serde_json::to_string(&a.metrics).unwrap(),
        serde_json::to_string(&b.metrics).unwrap()
    );
    assert_eq!(a.stats.faults.checkpointed_attempts, 0);
    assert_eq!(a.stats.salvaged_work_s, 0.0);
}

#[test]
fn checkpointing_salvages_work_deterministically_and_conserves() {
    let wf = small(SyntheticKind::Uniform);
    let config = SimConfig {
        churn: ChurnConfig::fixed(6),
        faults: crashy_plan(0.5),
        seed: 19,
        ..SimConfig::default()
    };
    let run = || {
        Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
            .keep_outcomes()
            .with_sink(EventLog::new())
            .run_traced()
    };
    let (a, log) = run();
    let (b, _) = run();
    assert_conserved(&a, wf.len());
    assert_eq!(a.stats, b.stats);
    let f = &a.stats.faults;
    assert!(f.crashed_attempts > 0, "no crash fired: {f:?}");
    assert!(f.checkpointed_attempts > 0, "no attempt salvaged: {f:?}");
    assert!(f.checkpointed_attempts <= f.crashed_attempts);
    assert!(a.stats.salvaged_work_s > 0.0);
    // The stats total is exactly the per-attempt salvage over every
    // outcome and dead letter.
    let rows = a.metrics.outcomes().expect("rows kept");
    let per_attempt: f64 = rows
        .iter()
        .map(|o| o.salvaged_s())
        .chain(
            a.metrics
                .dead_letters()
                .iter()
                .map(|l| l.attempts.iter().map(|at| at.salvaged_s).sum::<f64>()),
        )
        .sum();
    assert!(
        (a.stats.salvaged_work_s - per_attempt).abs() < 1e-9,
        "{} vs {per_attempt}",
        a.stats.salvaged_work_s
    );
    // Checkpoint events appear in the log, one per salvaged attempt.
    log.check_consistency().unwrap();
    let ckpt = log.count(|e| matches!(e, crate::log::SimEvent::TaskCheckpointed { .. }));
    assert_eq!(ckpt as u64, f.checkpointed_attempts);
    // Outcomes remain internally consistent under salvage accounting.
    for o in rows {
        o.check().unwrap();
    }
}

#[test]
fn full_checkpoint_resumes_exactly_where_the_crash_left_off() {
    // With fraction 1.0, no stragglers and a whole-machine allocator (no
    // enforcement kills), every retry runs exactly the remaining duration:
    // the successful attempt's charged time plus everything salvaged adds
    // back up to the task's nominal duration.
    let wf = small(SyntheticKind::Normal);
    let config = SimConfig {
        churn: ChurnConfig::fixed(5),
        faults: crashy_plan(1.0),
        seed: 29,
        ..SimConfig::default()
    };
    let res = simulate_rows(&wf, AlgorithmKind::WholeMachine, config);
    assert_conserved(&res, wf.len());
    assert!(
        res.stats.faults.checkpointed_attempts > 0,
        "no salvage: {:?}",
        res.stats.faults
    );
    for o in res.metrics.outcomes().expect("rows kept") {
        let spec_duration = o.duration_s;
        let salvaged = o.salvaged_s();
        let last = o.attempts.last().expect("completed task has attempts");
        assert!(last.success);
        assert!(
            (last.charged_time_s - (spec_duration - salvaged)).abs() < 1e-9,
            "task {}: charged {} vs duration {} - salvaged {}",
            o.task.0,
            last.charged_time_s,
            spec_duration,
            salvaged
        );
    }
}

#[test]
fn checkpointing_reduces_fault_waste_under_crashes() {
    // Salvaged progress shortens retries, so the crash-induced waste and
    // the makespan should both improve versus the same run without
    // checkpointing (aggregate property for this seed/config).
    let wf = small(SyntheticKind::Uniform);
    let run = |fraction: f64| {
        let config = SimConfig {
            // Churn must replace crashed workers: a churn-less fixed pool
            // drains to zero under the crash process, every task strands,
            // and both waste figures degenerate to 0 (no completed task to
            // attribute waste to), making the comparison vacuous.
            churn: ChurnConfig {
                initial: 6,
                min: 6,
                max: 6,
                mean_interval_s: Some(5.0),
            },
            faults: crashy_plan(fraction),
            seed: 19,
            ..SimConfig::default()
        };
        simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config)
    };
    let off = run(0.0);
    let on = run(1.0);
    assert!(on.stats.salvaged_work_s > 0.0);
    assert!(!off.metrics.is_empty(), "the scenario must complete tasks");
    let k = tora_alloc::resources::ResourceKind::MemoryMb;
    let waste_off = off.metrics.attributed_waste(k).fault_induced;
    let waste_on = on.metrics.attributed_waste(k).fault_induced;
    assert!(
        waste_on < waste_off,
        "salvage should cut crash waste: {waste_on} vs {waste_off}"
    );
}

#[test]
fn unpulled_tail_sweep_matches_the_materializing_sweep() {
    // The stranded sweep must produce the same dead-letter stream whether
    // the streaming tail was materialized first (the old behavior) or
    // dead-lettered directly by id range (the cheap path): same ids, same
    // categories, same accounting, same log events.
    use tora_workloads::PaperWorkflow;
    let spec = PaperWorkflow::TopEft
        .spec(11)
        .category_tasks(vec![5, 30, 3]);
    let config = SimConfig {
        faults: FaultPlan::named("light").unwrap(),
        ..SimConfig::default()
    };
    let sweep_after_pulling = |pulled: usize| {
        let source = spec.stream().unwrap();
        let mut sim = Simulation::from_source(source, AlgorithmKind::ExhaustiveBucketing, config)
            .with_sink(EventLog::new());
        if pulled > 0 {
            sim.ensure_spec(pulled - 1);
        }
        sim.sweep_stranded();
        assert_eq!(sim.dead_lettered, 38);
        assert_eq!(sim.stats.submitted, 38);
        assert_eq!(sim.stats.faults.dead_lettered, 38);
        (
            serde_json::to_string(&sim.result_metrics).unwrap(),
            serde_json::to_string(sim.allocator.sink()).unwrap(),
        )
    };
    let materialized_first = sweep_after_pulling(38);
    let pulled_none = sweep_after_pulling(0);
    let pulled_some = sweep_after_pulling(7);
    assert_eq!(materialized_first, pulled_none);
    assert_eq!(materialized_first, pulled_some);
}

#[test]
fn replay_on_a_dag_conserves_tasks_and_rows_still_retire() {
    // Flaky dispatch with a one-retry budget dead-letters ready tasks
    // (DispatchRetriesExhausted), their dependents cascade after them, and
    // churn joins replay the dead letters. A dead-lettered row must stay in
    // the table (replay reads it back) while completed prefixes around it
    // retire; a table that retired dead letters too would hand replay a
    // row that is gone.
    use crate::scheduler::QueuePolicy;
    use tora_workloads::DagShape;
    for queue_policy in [QueuePolicy::Fifo, QueuePolicy::FifoBackfill] {
        let source = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(5)
            .dag_shape(DagShape::random_layered(32, 3))
            .stream()
            .unwrap();
        let total = source.total_tasks();
        let config = SimConfig {
            churn: ChurnConfig {
                initial: 5,
                min: 2,
                max: 10,
                mean_interval_s: Some(8.0),
            },
            faults: FaultPlan {
                dispatch_failure_rate: 0.35,
                dispatch_backoff_s: 1.0,
                max_dispatch_retries: 1,
                replay_capacity_fraction: 0.5,
                max_replay_rounds: 3,
                ..FaultPlan::none()
            },
            queue_policy,
            seed: 17,
            ..SimConfig::default()
        };
        let mut sim = Simulation::from_source(source, AlgorithmKind::MaxSeen, config)
            .with_sink(EventLog::new());
        sim.run_events();
        let stats = &sim.stats;
        let dead = stats.faults.dead_lettered;
        assert_eq!(stats.submitted as usize, total, "{queue_policy:?}");
        assert_eq!(
            stats.submitted,
            stats.completions + dead,
            "{queue_policy:?}"
        );
        assert_eq!(sim.completed + sim.dead_lettered, total, "{queue_policy:?}");
        assert!(stats.faults.replayed > 0, "{queue_policy:?}: no replay");
        assert!(
            stats.faults.replay_successes > 0,
            "{queue_policy:?}: replay recovered nothing"
        );
        assert!(
            sim.tasks.base() > 0 && sim.tasks.live() < total,
            "{queue_policy:?}: no row retired ({} live of {total})",
            sim.tasks.live()
        );
        sim.allocator.sink().check_consistency().unwrap();
    }
}
