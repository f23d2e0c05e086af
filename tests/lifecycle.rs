//! The task lifecycle contract, exercised through the public API.
//!
//! Two layers of assurance:
//!
//! 1. the legal-transition table is spelled out pair by pair and compared
//!    against [`TaskPhase::can_advance`] exhaustively, so an accidental edit
//!    to the machine shows up as a diff against intent;
//! 2. proptests drive the *engine* through hostile fault plans (crashes,
//!    racks, stragglers, flaky dispatch, replay, checkpointing). The engine
//!    `expect`s every lifecycle transition it requests, so an illegal
//!    transition anywhere in a run is a panic — each completed run is a
//!    proof that the engine never steps outside the table.

use proptest::prelude::*;
use tora::prelude::*;

/// The intended machine, pair by pair (deliberately redundant with
/// `TaskPhase::successors`).
const LEGAL: [(TaskPhase, TaskPhase); 11] = [
    (TaskPhase::Pending, TaskPhase::Ready),
    (TaskPhase::Pending, TaskPhase::DeadLettered),
    (TaskPhase::Ready, TaskPhase::Running),
    (TaskPhase::Ready, TaskPhase::Requeued),
    (TaskPhase::Ready, TaskPhase::DeadLettered),
    (TaskPhase::Requeued, TaskPhase::Ready),
    (TaskPhase::Requeued, TaskPhase::DeadLettered),
    (TaskPhase::Running, TaskPhase::Ready),
    (TaskPhase::Running, TaskPhase::Completed),
    (TaskPhase::Running, TaskPhase::DeadLettered),
    (TaskPhase::DeadLettered, TaskPhase::Ready),
];

#[test]
fn transition_table_is_exactly_the_declared_pairs() {
    for from in TaskPhase::ALL {
        for to in TaskPhase::ALL {
            assert_eq!(
                from.can_advance(to),
                LEGAL.contains(&(from, to)),
                "{from:?} -> {to:?}"
            );
        }
    }
}

#[test]
fn terminal_phases_are_completed_and_dead_lettered_only() {
    for phase in TaskPhase::ALL {
        assert_eq!(
            phase.is_terminal(),
            matches!(phase, TaskPhase::Completed | TaskPhase::DeadLettered),
            "{phase:?}"
        );
    }
    // Completed is absorbing; the dead-letter channel re-admits only to the
    // ready queue (replay).
    assert!(TaskPhase::Completed.successors().is_empty());
    assert_eq!(TaskPhase::DeadLettered.successors(), &[TaskPhase::Ready]);
}

#[test]
fn illegal_transition_reports_both_endpoints() {
    let err = IllegalTransition {
        from: TaskPhase::Completed,
        to: TaskPhase::Running,
    };
    let msg = err.to_string();
    assert!(
        msg.contains("Completed") && msg.contains("Running"),
        "{msg}"
    );
}

/// Hostile but always-terminating fault plans, checkpointing included.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop::option::of(10.0f64..80.0),
        0.0f64..0.4,
        0.0f64..0.4,
        1usize..6,
        prop::option::of((25.0f64..150.0, 2u32..5)),
        prop::option::of((0.2f64..=1.0, 1usize..3)),
        0.0f64..=1.0,
    )
        .prop_map(
            |(crash, straggler, dispatch, max_attempts, rack, replay, checkpoint)| FaultPlan {
                crash_mean_interval_s: crash,
                straggler_rate: straggler,
                straggler_multiplier: 5.0,
                straggler_timeout_s: 150.0,
                dispatch_failure_rate: dispatch,
                dispatch_backoff_s: 1.0,
                max_dispatch_retries: 3,
                max_attempts,
                max_unplaceable_rounds: 3,
                rack_crash_mean_interval_s: rack.map(|(interval, _)| interval),
                rack_count: rack.map_or(0, |(_, count)| count),
                replay_capacity_fraction: replay.map_or(0.0, |(fraction, _)| fraction),
                max_replay_rounds: replay.map_or(0, |(_, rounds)| rounds),
                checkpointed_fraction: checkpoint,
                ..FaultPlan::none()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any legal walk that reaches `Completed` can never leave it, and the
    /// only path back from `DeadLettered` is the replay edge.
    #[test]
    fn random_legal_walks_respect_the_absorbing_states(
        steps in prop::collection::vec(0usize..TaskPhase::ALL.len(), 1..40),
    ) {
        let mut phase = TaskPhase::Pending;
        for step in steps {
            let to = TaskPhase::ALL[step];
            if phase.can_advance(to) {
                prop_assert!(LEGAL.contains(&(phase, to)));
                phase = to;
            } else {
                prop_assert!(!LEGAL.contains(&(phase, to)));
            }
            if phase == TaskPhase::Completed {
                // Absorbing: every further request must be rejected.
                for to in TaskPhase::ALL {
                    prop_assert!(!phase.can_advance(to));
                }
                break;
            }
        }
    }

    /// The engine requests every transition through the checked machine and
    /// `expect`s the result, so a run that finishes *is* the property: no
    /// reachable engine state asks for an illegal transition. Conservation
    /// then pins down that every task ended in exactly one terminal phase.
    #[test]
    fn engine_never_requests_an_illegal_transition(
        plan in arb_fault_plan(),
        n in 20usize..50,
        seed in 0u64..1000,
        poisson in any::<bool>(),
    ) {
        plan.validate().expect("plan valid by construction");
        let wf = SyntheticKind::Bimodal.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let config = SimConfig {
            churn: ChurnConfig {
                initial: 4,
                min: 2,
                max: 8,
                mean_interval_s: Some(10.0),
            },
            arrival: if poisson {
                ArrivalModel::Poisson { mean_interval_s: 0.8 }
            } else {
                ArrivalModel::Batch
            },
            faults: plan,
            ..SimConfig::paper_like(seed)
        };
        let (res, log) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
            .with_sink(EventLog::new())
            .run_traced();

        // One terminal phase per task, nothing lost or duplicated.
        let dead = res.metrics.dead_lettered_count() as u64;
        prop_assert_eq!(res.stats.submitted, n as u64);
        prop_assert_eq!(res.stats.completions + dead, n as u64);

        // The event log's lifecycle invariants agree (dispatch-while-dead,
        // replay-while-alive, double completion all fail consistency).
        prop_assert!(log.check_consistency().is_ok(), "{:?}", log.check_consistency());
    }
}
