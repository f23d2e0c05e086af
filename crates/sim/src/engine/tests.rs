//! Core engine tests: completion, determinism, churn, scheduling policies,
//! dependencies and runtime task generation.

use super::*;
use crate::log::EventLog;
use crate::stats::UtilizationSeries;
use tora_alloc::resources::ResourceKind;
use tora_alloc::trace::{AllocEvent, JsonlSink};
use tora_workloads::synthetic::SyntheticKind;
use tora_workloads::PaperWorkflow;

fn small(kind: SyntheticKind) -> Workflow {
    kind.catalog_workflow()
        .spec(42)
        .tasks(200)
        .materialize()
        .unwrap()
}

#[test]
fn every_task_completes_exactly_once() {
    let wf = small(SyntheticKind::Bimodal);
    let res = Simulation::new(
        &wf,
        AlgorithmKind::ExhaustiveBucketing,
        SimConfig::default(),
    )
    .keep_outcomes()
    .run();
    assert_eq!(res.metrics.len(), wf.len());
    let rows = res.metrics.outcomes().expect("rows kept");
    let mut ids: Vec<u64> = rows.iter().map(|o| o.task.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), wf.len());
    assert!(res.makespan_s > 0.0);
    assert!(res.stats.dispatches >= wf.len() as u64);
}

#[test]
fn whole_machine_never_retries() {
    let wf = small(SyntheticKind::Normal);
    let res = simulate(&wf, AlgorithmKind::WholeMachine, SimConfig::default());
    assert_eq!(res.metrics.total_retries(), 0);
    assert_eq!(res.stats.dispatches, wf.len() as u64);
    // And its memory efficiency is terrible (≈ 4 GB / 64 GB).
    let awe = res.metrics.awe(ResourceKind::MemoryMb).unwrap();
    assert!(awe < 0.15, "whole machine AWE {awe}");
}

#[test]
fn bucketing_beats_whole_machine_on_memory() {
    let wf = small(SyntheticKind::Normal);
    let base = simulate(&wf, AlgorithmKind::WholeMachine, SimConfig::default());
    let eb = simulate(
        &wf,
        AlgorithmKind::ExhaustiveBucketing,
        SimConfig::default(),
    );
    let k = ResourceKind::MemoryMb;
    assert!(
        eb.metrics.awe(k).unwrap() > 2.0 * base.metrics.awe(k).unwrap(),
        "EB {:?} vs WM {:?}",
        eb.metrics.awe(k),
        base.metrics.awe(k)
    );
}

#[test]
fn churn_preserves_completion_and_accounting() {
    let wf = small(SyntheticKind::Uniform);
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 5,
            min: 2,
            max: 8,
            mean_interval_s: Some(20.0),
        },
        ..SimConfig::default()
    };
    let res = simulate(&wf, AlgorithmKind::GreedyBucketing, config);
    assert_eq!(res.metrics.len(), wf.len());
    assert!(res.worker_range.0 >= 2);
    assert!(res.worker_range.1 <= 8);
    // With leaves happening, some preemptions are expected (not
    // guaranteed, but overwhelmingly likely for this seed/config).
    assert!(res.stats.preemptions > 0, "no preemption observed");
    assert!(res.preempted_alloc_time.iter().all(|(_, v)| v >= 0.0));
}

#[test]
fn deterministic_given_seed() {
    let wf = small(SyntheticKind::Exponential);
    let config = SimConfig {
        churn: ChurnConfig::paper_like(),
        seed: 9,
        ..SimConfig::default()
    };
    let a = simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    let b = simulate(&wf, AlgorithmKind::ExhaustiveBucketing, config);
    assert_eq!(
        a.metrics.awe(ResourceKind::MemoryMb),
        b.metrics.awe(ResourceKind::MemoryMb)
    );
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(a.stats.preemptions, b.stats.preemptions);
}

#[test]
fn awe_is_worker_count_independent_without_failures() {
    // With Whole Machine (no retries, fixed allocation), AWE must be
    // identical across pool sizes — the §II-C independence claim in its
    // purest form.
    let wf = small(SyntheticKind::Bimodal);
    let awe = |n: usize| {
        let config = SimConfig {
            churn: ChurnConfig::fixed(n),
            ..SimConfig::default()
        };
        simulate(&wf, AlgorithmKind::WholeMachine, config)
            .metrics
            .awe(ResourceKind::MemoryMb)
            .unwrap()
    };
    let a = awe(5);
    let b = awe(40);
    assert!((a - b).abs() < 1e-12, "{a} vs {b}");
}

#[test]
fn makespan_shrinks_with_more_workers() {
    let wf = small(SyntheticKind::Normal);
    let run = |n: usize| {
        let config = SimConfig {
            churn: ChurnConfig::fixed(n),
            ..SimConfig::default()
        };
        simulate(&wf, AlgorithmKind::MaxSeen, config).makespan_s
    };
    assert!(run(40) < run(4), "more workers should finish sooner");
}

#[test]
fn event_log_is_consistent_under_churn() {
    let wf = small(SyntheticKind::Bimodal);
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
    let sink = (EventLog::new(), JsonlSink::new(Vec::new()));
    let (res, (log, jsonl)) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(sink)
        .run_traced();
    log.check_consistency().unwrap();
    // Dispatch count in the log matches the engine's counter.
    let dispatched = log.count(|e| matches!(e, crate::log::SimEvent::TaskDispatched { .. }));
    assert_eq!(dispatched as u64, res.stats.dispatches);
    let completed = log.count(|e| matches!(e, crate::log::SimEvent::TaskCompleted { .. }));
    assert_eq!(completed, wf.len());
    let killed = log.count(|e| matches!(e, crate::log::SimEvent::TaskKilled { .. }));
    assert_eq!(killed, res.metrics.total_retries());
    let preempted = log.count(|e| matches!(e, crate::log::SimEvent::TaskPreempted { .. }));
    assert_eq!(preempted as u64, res.stats.preemptions);
    assert_eq!(dispatched, completed + killed + preempted);
    // The event file reads back as the same log, decisions between.
    let written = jsonl.written() as usize;
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    let (parsed, decisions) = crate::log::EventLog::from_jsonl(&text).unwrap();
    assert_eq!(parsed, log);
    assert_eq!(decisions.len(), written - log.len());
    assert_eq!(
        decisions
            .iter()
            .filter(|e| matches!(e, AllocEvent::Observe { .. }))
            .count(),
        wf.len()
    );
}

#[test]
fn utilization_series_is_sane() {
    let wf = small(SyntheticKind::Normal);
    let (_, series) = Simulation::new(&wf, AlgorithmKind::MaxSeen, SimConfig::default())
        .with_sink(UtilizationSeries::new())
        .run_traced();
    assert!(!series.is_empty());
    for s in series.samples() {
        for kind in tora_alloc::resources::ResourceKind::STANDARD {
            if let Some(u) = s.utilization(kind) {
                assert!((0.0..=1.0 + 1e-9).contains(&u), "{kind}: {u}");
            }
        }
        assert!(s.workers >= 1);
    }
    assert!(series.peak_running() >= 1);
    let mean = series
        .mean_utilization(tora_alloc::resources::ResourceKind::Cores)
        .unwrap();
    assert!(mean > 0.0 && mean <= 1.0);
}

#[test]
fn all_queue_policies_complete_the_workflow() {
    let wf = small(SyntheticKind::Bimodal);
    for policy in crate::scheduler::QueuePolicy::ALL {
        let config = SimConfig {
            queue_policy: policy,
            seed: 3,
            ..SimConfig::default()
        };
        let res = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
            .keep_outcomes()
            .run();
        assert_eq!(res.metrics.len(), wf.len(), "{}", policy.label());
        for o in res.metrics.outcomes().expect("rows kept") {
            o.check().unwrap();
        }
    }
}

#[test]
fn backfill_is_no_slower_than_fifo() {
    // Letting small tasks around a blocked head usually helps, but a
    // backfilled task can also delay the critical path, so the property
    // only holds in aggregate: compare mean makespan across seeds
    // rather than any single draw.
    let mut fifo_total = 0.0;
    let mut backfill_total = 0.0;
    let wf = small(SyntheticKind::Exponential);
    for seed in 0..8u64 {
        let run = |policy| {
            let config = SimConfig {
                queue_policy: policy,
                churn: ChurnConfig::fixed(4),
                seed: 11 + seed,
                ..SimConfig::default()
            };
            simulate(&wf, AlgorithmKind::MaxSeen, config).makespan_s
        };
        fifo_total += run(crate::scheduler::QueuePolicy::Fifo);
        backfill_total += run(crate::scheduler::QueuePolicy::FifoBackfill);
    }
    assert!(
        backfill_total <= fifo_total * 1.05,
        "mean backfill makespan {backfill_total} should not trail fifo {fifo_total}"
    );
}

#[test]
fn dependencies_gate_execution_order() {
    // A diamond: 0 → {1, 2} → 3. Completion order must respect it.
    use tora_alloc::resources::ResourceVector;
    use tora_alloc::task::TaskSpec;
    let peak = ResourceVector::new(1.0, 100.0, 10.0);
    let tasks: Vec<TaskSpec> = (0..4)
        .map(|i| TaskSpec::new(i, 0, peak, 10.0 + i as f64))
        .collect();
    let wf = Workflow::new(
        "diamond",
        vec!["t".into()],
        tasks,
        tora_alloc::resources::WorkerSpec::paper_default(),
    )
    .with_dependencies(vec![vec![], vec![0], vec![0], vec![1, 2]]);
    let config = SimConfig::default();
    let (res, log) = Simulation::new(&wf, AlgorithmKind::WholeMachine, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_eq!(res.metrics.len(), 4);
    log.check_consistency().unwrap();
    // Extract completion times per task id.
    let mut done = std::collections::HashMap::new();
    for e in log.entries() {
        if let crate::log::SimEvent::TaskCompleted { task, .. } = e.event {
            done.insert(task.0, e.time_s);
        }
    }
    assert!(done[&0] <= done[&1] && done[&0] <= done[&2]);
    assert!(done[&1] <= done[&3] && done[&2] <= done[&3]);
    // Dispatches of dependents happen after predecessors complete.
    let mut dispatched = std::collections::HashMap::new();
    for e in log.entries() {
        if let crate::log::SimEvent::TaskDispatched { task, .. } = e.event {
            dispatched.entry(task.0).or_insert(e.time_s);
        }
    }
    assert!(dispatched[&3] >= done[&1].max(done[&2]));
}

#[test]
fn dag_workflow_completes_with_retries_and_churn() {
    let wf = PaperWorkflow::TopEft
        .spec(3)
        .category_tasks(vec![20, 160, 12])
        .dag()
        .materialize()
        .unwrap();
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 4,
            min: 3,
            max: 8,
            mean_interval_s: Some(20.0),
        },
        seed: 3,
        ..SimConfig::default()
    };
    let (res, log) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(EventLog::new())
        .run_traced();
    assert_eq!(res.metrics.len(), wf.len());
    log.check_consistency().unwrap();
}

#[test]
fn heterogeneous_pool_hosts_more_concurrent_tasks() {
    let wf = small(SyntheticKind::Normal);
    let base = SimConfig {
        churn: ChurnConfig::fixed(6),
        seed: 5,
        ..SimConfig::default()
    };
    let mixed = SimConfig {
        worker_mix: Some(WorkerMix {
            large_fraction: 0.5,
            scale: 4.0,
        }),
        ..base
    };
    let run = |config| {
        Simulation::new(&wf, AlgorithmKind::MaxSeen, config)
            .keep_outcomes()
            .with_sink(UtilizationSeries::new())
            .run_traced()
    };
    let (plain, plain_series) = run(base);
    let (big, big_series) = run(mixed);
    assert_eq!(plain.metrics.len(), wf.len());
    assert_eq!(big.metrics.len(), wf.len());
    // Scaled workers host more attempts at once and finish sooner.
    let plain_peak = plain_series.peak_running();
    let big_peak = big_series.peak_running();
    assert!(big_peak > plain_peak, "{big_peak} vs {plain_peak}");
    assert!(big.makespan_s < plain.makespan_s);
    // AWE accounting is unaffected by where tasks run.
    for o in big.metrics.outcomes().expect("rows kept") {
        o.check().unwrap();
    }
}

#[test]
fn worker_mix_validation() {
    assert!(WorkerMix {
        large_fraction: 0.3,
        scale: 2.0
    }
    .validate()
    .is_ok());
    assert!(WorkerMix {
        large_fraction: 1.5,
        scale: 2.0
    }
    .validate()
    .is_err());
    // Sub-unit scales are legal: they model workers smaller than the
    // workflow's base shape (shrinking-pool scenarios).
    assert!(WorkerMix {
        large_fraction: 0.5,
        scale: 0.5
    }
    .validate()
    .is_ok());
    assert!(WorkerMix {
        large_fraction: 0.5,
        scale: 0.0
    }
    .validate()
    .is_err());
}

#[test]
fn arrival_model_validation() {
    assert!(ArrivalModel::Batch.validate().is_ok());
    assert!(ArrivalModel::Poisson {
        mean_interval_s: 1.5
    }
    .validate()
    .is_ok());
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(
            ArrivalModel::Poisson {
                mean_interval_s: bad
            }
            .validate()
            .is_err(),
            "mean interval {bad} accepted"
        );
    }
}

#[test]
#[should_panic(expected = "bad mean_interval_s 0")]
fn bad_arrival_interval_is_refused_at_construction() {
    let config = SimConfig {
        arrival: ArrivalModel::Poisson {
            mean_interval_s: 0.0,
        },
        ..SimConfig::default()
    };
    // Building the engine must refuse the config; it is never run.
    let _ = Simulation::new(
        &small(SyntheticKind::Bimodal),
        AlgorithmKind::ExhaustiveBucketing,
        config,
    );
}

#[test]
fn poisson_arrivals_are_cumulative_sums_of_the_arrival_stream() {
    // Each arrival schedules the next as it fires, so the arrival times
    // must be exactly the running sums of the dedicated stream's draws, as
    // if the whole schedule had been laid out at time zero.
    let wf = small(SyntheticKind::Bimodal);
    let mean_interval_s = 0.7;
    let config = SimConfig {
        arrival: ArrivalModel::Poisson { mean_interval_s },
        seed: 11,
        ..SimConfig::default()
    };
    let (_, log) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(EventLog::new())
        .run_traced();
    let submitted: Vec<(u64, f64)> = log
        .entries()
        .iter()
        .filter_map(|e| match e.event {
            SimEvent::TaskSubmitted { task } => Some((task.0, e.time_s)),
            _ => None,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0A88_17E5);
    let mut t = SimTime::ZERO;
    let expected: Vec<(u64, f64)> = (0..wf.len() as u64)
        .map(|id| {
            t = t + exponential_interval_s(&mut rng, mean_interval_s).max(0.0);
            (id, t.seconds())
        })
        .collect();
    assert_eq!(submitted, expected);
}

/// A two-phase steering driver: submit `n` probe tasks, then — once all
/// probes are done — submit one downstream task per probe whose memory
/// depends on the probe's "result".
struct TwoPhase {
    probes: usize,
    probe_done: usize,
    submitted_phase2: bool,
}

impl Driver for TwoPhase {
    fn on_start(&mut self, api: &mut SubmitApi) {
        use tora_alloc::resources::ResourceVector;
        for i in 0..self.probes {
            api.submit(0, ResourceVector::new(1.0, 300.0 + i as f64, 50.0), 20.0);
        }
    }

    fn on_task_complete(&mut self, task: &TaskSpec, api: &mut SubmitApi) {
        use tora_alloc::resources::ResourceVector;
        if task.category.0 == 0 {
            self.probe_done += 1;
            if self.probe_done == self.probes && !self.submitted_phase2 {
                self.submitted_phase2 = true;
                // Steering: the application reacts to phase-1 results.
                for i in 0..self.probes {
                    api.submit(1, ResourceVector::new(2.0, 900.0 + i as f64, 80.0), 40.0);
                }
            }
        }
    }
}

#[test]
fn driver_generates_tasks_at_runtime() {
    let driver = Box::new(TwoPhase {
        probes: 30,
        probe_done: 0,
        submitted_phase2: false,
    });
    let config = SimConfig {
        churn: ChurnConfig::fixed(5),
        seed: 4,
        ..SimConfig::default()
    };
    let sim = Simulation::with_driver(
        driver,
        tora_alloc::resources::WorkerSpec::paper_default(),
        AlgorithmKind::ExhaustiveBucketing,
        config,
    );
    let (res, log) = sim.with_sink(EventLog::new()).run_traced();
    // 30 probes + 30 steered tasks, all completed.
    assert_eq!(res.metrics.len(), 60);
    log.check_consistency().unwrap();
    // Phase-2 tasks were only dispatched after the last probe finished.
    let mut last_probe_done = 0.0f64;
    let mut first_phase2_dispatch = f64::INFINITY;
    for e in log.entries() {
        match e.event {
            crate::log::SimEvent::TaskCompleted { task, .. } if task.0 < 30 => {
                last_probe_done = last_probe_done.max(e.time_s);
            }
            crate::log::SimEvent::TaskDispatched { task, .. } if task.0 >= 30 => {
                first_phase2_dispatch = first_phase2_dispatch.min(e.time_s);
            }
            _ => {}
        }
    }
    assert!(first_phase2_dispatch >= last_probe_done);
    // Both categories were learned independently.
    assert_eq!(res.metrics.filter_category(CategoryId(1)).len(), 30);
}

#[test]
fn driver_submissions_can_depend_on_running_tasks() {
    struct Chained;
    impl Driver for Chained {
        fn on_start(&mut self, api: &mut SubmitApi) {
            use tora_alloc::resources::ResourceVector;
            let peak = ResourceVector::new(1.0, 100.0, 10.0);
            let a = api.submit(0, peak, 10.0);
            let b = api.submit_with_deps(0, peak, 10.0, vec![a]);
            let _c = api.submit_with_deps(0, peak, 10.0, vec![a, b]);
        }
        fn on_task_complete(&mut self, _: &TaskSpec, _: &mut SubmitApi) {}
    }
    let (res, log) = Simulation::with_driver(
        Box::new(Chained),
        tora_alloc::resources::WorkerSpec::paper_default(),
        AlgorithmKind::WholeMachine,
        SimConfig::default(),
    )
    .with_sink(EventLog::new())
    .run_traced();
    assert_eq!(res.metrics.len(), 3);
    log.check_consistency().unwrap();
}

#[test]
fn production_workflows_run_end_to_end() {
    for wf in [PaperWorkflow::ColmenaXtb, PaperWorkflow::TopEft] {
        let built = wf.build(3);
        let res = simulate(
            &built,
            AlgorithmKind::ExhaustiveBucketing,
            SimConfig::default(),
        );
        assert_eq!(res.metrics.len(), built.len(), "{}", built.name);
    }
}

#[test]
fn completed_rows_retire_so_the_table_follows_the_live_window() {
    // A streamed flat run keeps only the rows between the oldest
    // unfinished task and the newest pulled one: Poisson arrivals and a
    // 20–50 worker pool hold that window to about 1,400 rows, so the
    // table's high-water mark stays far below the task count, and every
    // row has retired once every task has completed.
    const TASKS: usize = 100_000;
    let source = PaperWorkflow::Bimodal
        .spec(42)
        .tasks(TASKS)
        .stream()
        .unwrap();
    let mut sim = Simulation::from_source(
        source,
        AlgorithmKind::ExhaustiveBucketing,
        SimConfig::paper_like(42),
    );
    sim.run_events();
    assert_eq!(sim.completed, TASKS);
    assert!(
        sim.tasks.peak_live() <= 4_096,
        "{} rows live at once out of {TASKS}",
        sim.tasks.peak_live()
    );
    assert_eq!(sim.tasks.live(), 0, "completed rows left in the table");
    assert_eq!(sim.tasks.len(), TASKS);
}

#[test]
fn a_dependency_that_already_retired_counts_as_completed() {
    // With arrivals slower than the tasks run, a pipeline stage is pulled
    // after its predecessor has completed and retired; intake must read
    // the retired dependency as resolved, not look its row up.
    use tora_workloads::DagShape;
    let source = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(42)
        .dag_shape(DagShape::pipeline(200))
        .stream()
        .unwrap();
    let config = SimConfig {
        arrival: ArrivalModel::Poisson {
            mean_interval_s: 3_600.0,
        },
        ..SimConfig::paper_like(42)
    };
    let mut sim = Simulation::from_source(source, AlgorithmKind::ExhaustiveBucketing, config);
    sim.run_events();
    assert_eq!(sim.completed, 200);
    assert_eq!(sim.tasks.live(), 0);
}
