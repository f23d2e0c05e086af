//! Streaming ≡ materialized: how a workload is generated must not change
//! physics.
//!
//! Every run enters the engine through one [`TaskSource`] intake.
//! `Simulation::from_source` over [`WorkloadSpec::stream`] generates specs
//! lazily; `Simulation::new` streams the same workload, already
//! materialized, through a `WorkflowSource`. Because the catalog sources
//! share the per-family samplers and RNG streams with
//! [`WorkloadSpec::materialize`], the two runs must be *byte-identical* —
//! same metrics, same stats, same event file (allocator decisions and
//! engine events, interleaved), same fault report — for every catalog workflow, generated DAG shape and the
//! Coffea `dag()` trace, at any seed.

use tora::prelude::*;

const SEEDS: [u64; 3] = [1, 7, 42];

/// Scaled-down per-family counts: parity is scale-independent and the full
/// paper counts make a debug-mode 21-run matrix take minutes.
fn scaled_spec(wf: PaperWorkflow, seed: u64) -> WorkloadSpec {
    let spec = wf.spec(seed);
    match wf {
        PaperWorkflow::ColmenaXtb => spec.category_tasks(vec![40, 160]),
        PaperWorkflow::TopEft => spec.category_tasks(vec![40, 400, 25]),
        _ => spec.tasks(200),
    }
}

/// Run one engine to completion and serialize everything observable, the
/// per-task outcome rows included, and the event file: allocator decisions
/// and engine events in the order they interleave.
fn fingerprint(sim: Simulation, config: &SimConfig) -> (String, String, String) {
    let (result, sink) = sim
        .keep_outcomes()
        .with_sink(JsonlSink::new(Vec::new()))
        .run_traced();
    let report = FaultReport::from_result(&result, config, "exhaustive-bucketing").to_json();
    let result_json = serde_json::to_string(&result).expect("result serializes");
    let events = String::from_utf8(sink.into_inner().expect("in-memory writes")).unwrap();
    (result_json, report, events)
}

fn config_for(seed: u64) -> SimConfig {
    let mut config = SimConfig::paper_like(seed);
    config.faults = FaultPlan::named("light").expect("preset exists");
    config
}

#[test]
fn streaming_and_materialized_runs_are_byte_identical() {
    for wf in PaperWorkflow::ALL {
        for seed in SEEDS {
            let config = config_for(seed);
            let spec = scaled_spec(wf, seed);
            let materialized = spec.materialize().expect("catalog spec is valid");
            let source = spec.stream().expect("catalog workflows stream");

            let from_workflow = fingerprint(
                Simulation::new(&materialized, AlgorithmKind::ExhaustiveBucketing, config),
                &config,
            );
            let from_stream = fingerprint(
                Simulation::from_source(source, AlgorithmKind::ExhaustiveBucketing, config),
                &config,
            );

            assert_eq!(
                from_workflow.0,
                from_stream.0,
                "{} seed {seed}: SimResult diverged",
                wf.name()
            );
            assert_eq!(
                from_workflow.1,
                from_stream.1,
                "{} seed {seed}: fault report diverged",
                wf.name()
            );
            assert_eq!(
                from_workflow.2,
                from_stream.2,
                "{} seed {seed}: event file diverged",
                wf.name()
            );
        }
    }
}

/// Generated DAG shapes stream too (ISSUE 9 closes the ROADMAP follow-on
/// that DAG specs could not): the source's bounded dependency-lookahead
/// window lets the engine wire dependencies and resolve dead-letter
/// cascades lazily, and the result must still be byte-identical to the
/// materialized run — including the critical-path stats. The Coffea
/// `dag()` trace, whose dependency lists reach back across whole stages,
/// streams as its built `WorkflowSource`. Heavy faults make the cascade
/// path actually fire; slow arrivals on a small pool make it reach tasks
/// not yet pulled, through the source's lookahead window.
#[test]
fn dag_shapes_stream_byte_identically() {
    let shapes = [
        DagShape::diamond(3, 5).with_loopback(2),
        DagShape::fan_out_fan_in(12),
        DagShape::pipeline(9).with_loopback(3),
        DagShape::random_layered(4, 4).with_loopback(1),
    ];
    for seed in SEEDS {
        let coffea = PaperWorkflow::TopEft
            .spec(seed)
            .category_tasks(vec![20, 160, 12])
            .dag();
        let specs = shapes.map(|shape| PaperWorkflow::Bimodal.spec(seed).dag_shape(shape));
        for (spec, slow) in specs
            .into_iter()
            .chain([coffea])
            .flat_map(|spec| [(spec.clone(), false), (spec, true)])
        {
            let mut config = config_for(seed);
            config.faults = FaultPlan::named("heavy").expect("preset exists");
            if slow {
                config.arrival = ArrivalModel::Poisson {
                    mean_interval_s: 80.0,
                };
                config.churn = ChurnConfig::fixed(3);
            }
            let materialized = spec.materialize().expect("DAG spec is valid");
            assert!(materialized.has_dependencies());
            let source = spec.stream().expect("DAG specs stream");
            assert!(source.dependency_window() >= 1);

            let from_workflow = fingerprint(
                Simulation::new(&materialized, AlgorithmKind::ExhaustiveBucketing, config),
                &config,
            );
            let from_stream = fingerprint(
                Simulation::from_source(source, AlgorithmKind::ExhaustiveBucketing, config),
                &config,
            );
            assert_eq!(
                from_workflow, from_stream,
                "{spec:?}: streamed DAG diverged"
            );
            assert!(
                from_workflow.0.contains("critical_path"),
                "{spec:?}: critical-path stats missing"
            );
            if slow {
                assert!(
                    from_workflow.2.contains(r#""unarrived":true"#),
                    "{spec:?}: no cascade reached an unpulled task"
                );
            }
        }
    }
}

/// The feature-conditioned comparators read the per-task feature vector
/// (input-size signal + DAG depth), which is minted on both the streaming
/// and the materialized path — by the catalog source and by
/// `with_dependencies` respectively. Any drift between the two minting
/// paths would move their predictions, so pin byte-identity for both new
/// algorithms across seeds and DAG shapes.
#[test]
fn feature_conditioned_comparators_stream_byte_identically() {
    let shapes = [
        DagShape::diamond(3, 5).with_loopback(2),
        DagShape::random_layered(4, 4).with_loopback(1),
    ];
    for algorithm in [AlgorithmKind::FeatureBinned, AlgorithmKind::SemiBandit] {
        for seed in SEEDS {
            for shape in shapes {
                let mut config = config_for(seed);
                config.faults = FaultPlan::named("heavy").expect("preset exists");
                let spec = PaperWorkflow::Bimodal.spec(seed).dag_shape(shape);
                let materialized = spec.materialize().expect("shaped spec is valid");
                let source = spec.stream().expect("generated DAG shapes stream");
                let from_workflow =
                    fingerprint(Simulation::new(&materialized, algorithm, config), &config);
                let from_stream =
                    fingerprint(Simulation::from_source(source, algorithm, config), &config);
                assert_eq!(
                    from_workflow, from_stream,
                    "{algorithm} {shape:?} seed {seed}: diverged"
                );
            }
        }
    }
}

/// The Batch arrival model exercises the bulk `ensure_spec` path (every
/// task pulled during `schedule_arrivals`); pin it separately from the
/// Poisson default above.
#[test]
fn batch_arrivals_stream_identically() {
    let mut config = config_for(3);
    config.arrival = ArrivalModel::Batch;
    let spec = scaled_spec(PaperWorkflow::TopEft, 3);
    let materialized = spec.materialize().unwrap();
    let source = spec.stream().unwrap();
    let a = fingerprint(
        Simulation::new(&materialized, AlgorithmKind::GreedyBucketing, config),
        &config,
    );
    let b = fingerprint(
        Simulation::from_source(source, AlgorithmKind::GreedyBucketing, config),
        &config,
    );
    assert_eq!(a, b);
}
