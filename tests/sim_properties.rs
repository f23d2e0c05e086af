//! Property-based tests of the simulation engine: conservation laws and log
//! consistency must hold for *any* configuration.

use proptest::prelude::*;
use tora::prelude::*;

fn arb_churn() -> impl Strategy<Value = ChurnConfig> {
    (
        1usize..6,
        1usize..4,
        0usize..10,
        prop::option::of(5.0f64..40.0),
    )
        .prop_map(|(initial, min, extra, interval)| {
            let max = min + extra;
            let initial = initial.clamp(1, max);
            let mean_interval_s = if initial < min {
                // Ramp-up requires churn to be enabled.
                Some(interval.unwrap_or(15.0))
            } else {
                interval
            };
            ChurnConfig {
                initial,
                min,
                max,
                mean_interval_s,
            }
        })
}

/// Aggressive but always-valid fault plans: frequent crashes (correlated
/// ones included), plenty of stragglers, lossy records, flaky dispatch —
/// with the resilience budgets enabled so every run must still terminate,
/// and dead-letter replay sometimes armed.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    let base = (
        prop::option::of(10.0f64..120.0),
        0.0f64..0.4,
        0.0f64..0.4,
        0.0f64..0.4,
        1usize..8,
        1usize..6,
    );
    // Correlated-crash and replay knobs are each both-or-neither pairs
    // (enforced by `FaultPlan::validate`), so generate them as options.
    let extras = (
        prop::option::of((20.0f64..200.0, 2u32..6)),
        prop::option::of((0.1f64..=1.0, 1usize..4)),
        0.0f64..=1.0,
    );
    (base, extras).prop_map(
        |(
            (crash, straggler, dropout, dispatch, max_attempts, unplaceable),
            (rack, replay, checkpoint),
        )| {
            FaultPlan {
                crash_mean_interval_s: crash,
                straggler_rate: straggler,
                straggler_multiplier: 6.0,
                straggler_timeout_s: 200.0,
                record_dropout_rate: dropout,
                dispatch_failure_rate: dispatch,
                dispatch_backoff_s: 1.5,
                max_dispatch_retries: 4,
                max_attempts,
                max_unplaceable_rounds: unplaceable,
                rack_crash_mean_interval_s: rack.map(|(interval, _)| interval),
                rack_count: rack.map_or(0, |(_, count)| count),
                replay_capacity_fraction: replay.map_or(0.0, |(fraction, _)| fraction),
                max_replay_rounds: replay.map_or(0, |(_, rounds)| rounds),
                checkpointed_fraction: checkpoint,
            }
        },
    )
}

/// Any generated DAG shape with any loop-back bound (0 disables it);
/// degenerate dimensions are included on purpose — the constructors clamp
/// them so every shape keeps at least one edge.
fn arb_dag_shape() -> impl Strategy<Value = DagShape> {
    let kind = (0u32..4, 0u32..6, 0u32..6).prop_map(|(k, w, d)| match k {
        0 => DagShape::fan_out_fan_in(w),
        1 => DagShape::pipeline(d),
        2 => DagShape::diamond(w, d),
        _ => DagShape::random_layered(w, d),
    });
    (kind, 0u32..4).prop_map(|(shape, max)| shape.with_loopback(max))
}

fn arb_arrival() -> impl Strategy<Value = ArrivalModel> {
    prop_oneof![
        Just(ArrivalModel::Batch),
        (0.1f64..5.0).prop_map(|m| ArrivalModel::Poisson { mean_interval_s: m }),
    ]
}

fn arb_policy() -> impl Strategy<Value = QueuePolicy> {
    prop::sample::select(QueuePolicy::ALL.to_vec())
}

fn arb_algorithm() -> impl Strategy<Value = AlgorithmKind> {
    prop::sample::select(vec![
        AlgorithmKind::WholeMachine,
        AlgorithmKind::MaxSeen,
        AlgorithmKind::MinWaste,
        AlgorithmKind::MaxThroughput,
        AlgorithmKind::QuantizedBucketing,
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::KMeansBucketing,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_conserves_tasks_under_arbitrary_configs(
        churn in arb_churn(),
        arrival in arb_arrival(),
        policy in arb_policy(),
        algorithm in arb_algorithm(),
        n in 20usize..70,
        seed in 0u64..1000,
        instant in any::<bool>(),
    ) {
        let wf = SyntheticKind::Bimodal.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let config = SimConfig {
            churn,
            arrival,
            queue_policy: policy,
            enforcement: if instant {
                EnforcementModel::InstantPeak
            } else {
                EnforcementModel::LinearRamp
            },
            ..SimConfig::paper_like(seed)
        };
        let (res, (log, series)) = Simulation::new(&wf, algorithm, config)
            .keep_outcomes()
            .with_sink((EventLog::new(), UtilizationSeries::new()))
            .run_traced();

        // Every task completes exactly once.
        prop_assert_eq!(res.metrics.len(), n);
        let rows = res.metrics.outcomes().expect("rows kept");
        let mut ids: Vec<u64> = rows.iter().map(|o| o.task.0).collect();
        ids.sort_unstable();
        prop_assert!(ids.iter().enumerate().all(|(i, &id)| id == i as u64));

        // Structural integrity of every outcome.
        for o in rows {
            prop_assert!(o.check().is_ok(), "{:?}", o.check());
        }

        // Accounting identity per dimension.
        for kind in [ResourceKind::Cores, ResourceKind::MemoryMb, ResourceKind::DiskMb] {
            let a = res.metrics.total_allocation(kind);
            let c = res.metrics.total_consumption(kind);
            let w = res.metrics.waste(kind);
            prop_assert!((a - (c + w.total())).abs() <= 1e-6 * a.max(1.0));
        }

        // The event log obeys its conservation laws and matches the counters.
        prop_assert!(log.check_consistency().is_ok(), "{:?}", log.check_consistency());
        let dispatched = log.count(|e| matches!(e, SimEvent::TaskDispatched { .. }));
        prop_assert_eq!(dispatched as u64, res.stats.dispatches);

        // Utilization stays within physical bounds.
        for s in series.samples() {
            for kind in [ResourceKind::Cores, ResourceKind::MemoryMb, ResourceKind::DiskMb] {
                if let Some(u) = s.utilization(kind) {
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
                }
            }
        }

        // Worker band respected (ramp-up may start below min).
        prop_assert!(res.worker_range.0 >= churn.initial.min(churn.min));
        prop_assert!(res.worker_range.1 <= churn.max.max(churn.initial));

        // Makespan is positive and finite.
        prop_assert!(res.makespan_s.is_finite() && res.makespan_s > 0.0);
    }

    #[test]
    fn every_task_reaches_a_terminal_state_under_faults(
        churn in arb_churn(),
        algorithm in arb_algorithm(),
        plan in arb_fault_plan(),
        n in 20usize..60,
        seed in 0u64..1000,
    ) {
        let wf = SyntheticKind::Bimodal.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let config = SimConfig {
            churn,
            faults: plan,
            ..SimConfig::paper_like(seed)
        };
        let (res, ((trace, _events), log)) = Simulation::new(&wf, algorithm, config)
            .with_sink(((TraceStats::new(), MemorySink::new()), EventLog::new()))
            .run_traced();

        // Conservation: every submitted task either completed or was
        // dead-lettered — nothing is lost, duplicated, or stuck forever.
        let dead = res.metrics.dead_lettered_count() as u64;
        prop_assert_eq!(res.stats.submitted, n as u64);
        prop_assert_eq!(res.stats.completions + dead, n as u64);
        prop_assert_eq!(res.metrics.len() + dead as usize, n);

        // Dead letters carry a cause and a consistent attempt history.
        for dl in res.metrics.dead_letters() {
            prop_assert!(dl.check().is_ok(), "{:?}", dl.check());
        }

        // Engine counters reconcile against the allocator's trace and the
        // event log balances, faults included.
        prop_assert!(
            res.stats.reconcile(&trace).is_ok(),
            "{:?}",
            res.stats.reconcile(&trace)
        );
        prop_assert!(log.check_consistency().is_ok(), "{:?}", log.check_consistency());

        // Attempt budgets are honoured: no task record exceeds max_attempts.
        let cap = config.faults.max_attempts;
        if cap > 0 {
            let most = res.metrics.attempts_histogram().len();
            prop_assert!(most <= cap, "{} attempts", most);
            for dl in res.metrics.dead_letters() {
                prop_assert!(dl.attempts.len() <= cap, "{} attempts", dl.attempts.len());
            }
        }
    }

    #[test]
    fn correlated_crashes_conserve_tasks(
        churn in arb_churn(),
        algorithm in arb_algorithm(),
        rack_interval in 15.0f64..90.0,
        rack_count in 2u32..6,
        n in 20usize..50,
        seed in 0u64..1000,
    ) {
        // A whole rack goes down at once: the blast radius is larger than a
        // single crash, but conservation and log integrity must not care.
        let plan = FaultPlan {
            rack_crash_mean_interval_s: Some(rack_interval),
            rack_count,
            max_attempts: 8,
            max_unplaceable_rounds: 4,
            ..FaultPlan::none()
        };
        plan.validate().expect("plan valid by construction");
        let wf = SyntheticKind::Bimodal.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let config = SimConfig {
            churn,
            faults: plan,
            ..SimConfig::paper_like(seed)
        };
        let (res, log) = Simulation::new(&wf, algorithm, config)
            .with_sink(EventLog::new())
            .run_traced();

        let dead = res.stats.faults.dead_lettered;
        prop_assert_eq!(res.stats.submitted, n as u64);
        prop_assert_eq!(res.stats.completions + dead, n as u64);
        prop_assert_eq!(res.metrics.len() as u64 + dead, n as u64);

        // Every rack crash takes out at least the struck worker, so the
        // per-worker casualty count dominates the event count.
        let faults = &res.stats.faults;
        prop_assert!(faults.worker_crashes >= faults.rack_crashes);

        prop_assert!(log.check_consistency().is_ok(), "{:?}", log.check_consistency());
        let crashed = log.count(|e| matches!(e, SimEvent::WorkerCrashed { .. }));
        prop_assert_eq!(crashed as u64, faults.worker_crashes);
    }

    #[test]
    fn replayed_tasks_still_reach_terminal_states(
        algorithm in arb_algorithm(),
        fraction in 0.2f64..0.8,
        rounds in 1usize..4,
        n in 20usize..50,
        seed in 0u64..1000,
    ) {
        // Flaky dispatch with a tiny retry budget dead-letters tasks early;
        // churn then recovers the pool and replay re-admits them. However
        // many replay cycles a task goes through, it must still end in
        // exactly one terminal state and the books must balance.
        let plan = FaultPlan {
            dispatch_failure_rate: 0.35,
            dispatch_backoff_s: 1.0,
            max_dispatch_retries: 1,
            max_attempts: 8,
            max_unplaceable_rounds: 2,
            replay_capacity_fraction: fraction,
            max_replay_rounds: rounds,
            ..FaultPlan::none()
        };
        plan.validate().expect("plan valid by construction");
        let wf = SyntheticKind::Bimodal.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let config = SimConfig {
            churn: ChurnConfig {
                initial: 5,
                min: 2,
                max: 10,
                mean_interval_s: Some(8.0),
            },
            faults: plan,
            ..SimConfig::paper_like(seed)
        };
        let (res, log) = Simulation::new(&wf, algorithm, config)
            .with_sink(EventLog::new())
            .run_traced();

        // Conservation holds on the *final* dead-letter count: a replayed
        // task that completes leaves the dead-letter channel for good.
        let dead = res.stats.faults.dead_lettered;
        prop_assert_eq!(res.stats.completions + dead, n as u64);
        prop_assert_eq!(res.metrics.len() as u64 + dead, n as u64);
        prop_assert!(res.stats.faults.replay_successes <= res.stats.faults.replayed);

        // The log validates the full dead-letter/replay lifecycle: no task
        // is dispatched while dead, replayed without being dead, or left
        // without a terminal state.
        prop_assert!(log.check_consistency().is_ok(), "{:?}", log.check_consistency());
        let replayed = log.count(|e| matches!(e, SimEvent::TaskReplayed { .. }));
        prop_assert_eq!(replayed as u64, res.stats.faults.replayed);
    }

    #[test]
    fn engine_is_deterministic_in_its_seed(
        seed in 0u64..500,
        n in 20usize..50,
    ) {
        let wf = SyntheticKind::Uniform.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let config = SimConfig::paper_like(seed);
        let run = || {
            Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
                .with_sink(EventLog::new())
                .run_traced()
        };
        let (a, log_a) = run();
        let (b, log_b) = run();
        prop_assert_eq!(a.makespan_s, b.makespan_s);
        prop_assert_eq!(a.stats.dispatches, b.stats.dispatches);
        prop_assert_eq!(log_a, log_b);
    }

    #[test]
    fn generated_dags_always_validate(
        shape in arb_dag_shape(),
        seed in 0u64..1000,
    ) {
        // Workflow::validate rejects self-deps, forward deps, and ragged
        // dependency lists; every generated shape must clear it, and the
        // loop-back guard must never instantiate more than its max.
        let spec = SyntheticKind::Bimodal.catalog_workflow().spec(seed).dag_shape(shape);
        let wf = spec.materialize().unwrap();
        prop_assert!(wf.validate().is_ok(), "{:?}", wf.validate());
        prop_assert!(wf.has_dependencies());

        let max = shape.structure(seed).node_count();
        let structure = shape.structure(seed);
        prop_assert_eq!(structure.total_tasks(), wf.len());
        for node in 0..max {
            // The guard bound: iterations are extra instances beyond the
            // first, and the strategy caps the shape's loopback at 3.
            prop_assert!(structure.iterations_of(node) <= 3);
        }

        // The streaming source declares the same structure it generates.
        let source = spec.stream().unwrap();
        let window = source.dependency_window();
        prop_assert!(window >= 1);
        for t in 0..wf.len() {
            let deps = source.deps_of(t);
            prop_assert_eq!(&deps[..], wf.deps_of(t));
            for &d in &deps {
                prop_assert!((t as u64 - d) as usize <= window);
            }
        }
    }

    #[test]
    fn dag_conservation_counts_instantiated_iterations_under_faults(
        shape in arb_dag_shape(),
        churn in arb_churn(),
        algorithm in arb_algorithm(),
        plan in arb_fault_plan(),
        seed in 0u64..1000,
    ) {
        // Loop-back iterations instantiate fresh tasks, so the conservation
        // identity counts the *expanded* total — and a fault-killed input
        // must cascade its dependents into the dead-letter channel rather
        // than strand them.
        let wf = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(seed)
            .dag_shape(shape)
            .materialize()
            .unwrap();
        let n = wf.len() as u64;
        let config = SimConfig {
            churn,
            faults: plan,
            ..SimConfig::paper_like(seed)
        };
        let (res, log) = Simulation::new(&wf, algorithm, config)
            .with_sink(EventLog::new())
            .run_traced();

        let dead = res.metrics.dead_lettered_count() as u64;
        prop_assert_eq!(res.stats.submitted, n);
        prop_assert_eq!(res.stats.completions + dead, n);
        prop_assert_eq!(res.metrics.len() as u64 + dead, n);
        for dl in res.metrics.dead_letters() {
            prop_assert!(dl.check().is_ok(), "{:?}", dl.check());
        }
        prop_assert!(log.check_consistency().is_ok(), "{:?}", log.check_consistency());

        // Structured runs always surface critical-path stats, and the
        // submit-time bound is positive.
        let cp = res.stats.critical_path.expect("structured run has cp stats");
        prop_assert!(cp.longest_path_s > 0.0);
        prop_assert!(cp.longest_path_tasks >= 1);
    }

    #[test]
    fn stats_lifecycle_counters_fold_from_the_event_log(
        churn in arb_churn(),
        algorithm in arb_algorithm(),
        plan in arb_fault_plan(),
        shape in prop::option::of(arb_dag_shape()),
        n in 20usize..60,
        seed in 0u64..1000,
    ) {
        // Every lifecycle counter in the engine's stats is the fold of the
        // events it emitted; only the allocator-call tally and the
        // critical-path summary are counted elsewhere. DAG shapes bring in
        // cascaded dead letters of tasks that never arrived.
        let spec = SyntheticKind::Bimodal.catalog_workflow().spec(seed);
        let wf = match shape {
            Some(shape) => spec.dag_shape(shape),
            None => spec.tasks(n),
        }
        .materialize()
        .unwrap();
        let config = SimConfig {
            churn,
            faults: plan,
            ..SimConfig::paper_like(seed)
        };
        let (res, log) = Simulation::new(&wf, algorithm, config)
            .with_sink(EventLog::new())
            .run_traced();
        let mut folded = SimStats::default();
        for entry in log.entries() {
            folded.apply(&entry.event);
        }
        let counted = SimStats {
            calls: Default::default(),
            by_category: Vec::new(),
            critical_path: None,
            ..res.stats.clone()
        };
        prop_assert_eq!(folded, counted);
    }

    #[test]
    fn attached_sinks_leave_the_run_unchanged(
        churn in arb_churn(),
        algorithm in arb_algorithm(),
        plan in arb_fault_plan(),
        n in 20usize..60,
        seed in 0u64..1000,
    ) {
        // Logging and utilization tracking are observers: the result and
        // the fault report are byte-identical with or without them.
        let wf = SyntheticKind::Bimodal.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let config = SimConfig {
            churn,
            faults: plan,
            ..SimConfig::paper_like(seed)
        };
        let bytes = |result: &SimResult| {
            (
                serde_json::to_string(result).expect("result serializes"),
                FaultReport::from_result(result, &config, algorithm.label()).to_json(),
            )
        };
        let plain = Simulation::new(&wf, algorithm, config).run();
        let (observed, _) = Simulation::new(&wf, algorithm, config)
            .with_sink((EventLog::new(), UtilizationSeries::new()))
            .run_traced();
        prop_assert_eq!(bytes(&plain), bytes(&observed));
    }
}
