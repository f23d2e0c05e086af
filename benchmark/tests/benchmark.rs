//! The benchmark's own checks: declared metrics, a transparent timing
//! wrapper, sink tallies that match the engine's, and every workload
//! passing its output checks at a reduced size.

use std::path::Path;
use tora::prelude::*;
use tora_benchmark::alloc::AllocCounts;
use tora_benchmark::trace::Tracer;
use tora_benchmark::{run_rep, sim, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Every workload, small enough for a debug-build test.
fn reduced() -> [Workload; 4] {
    [
        Workload::SimFlat { tasks: 2_000 },
        Workload::SimDag {
            width: 16,
            depth: 40,
        },
        Workload::ServeClosedLoop {
            tasks_per_tenant: 300,
            snapshot_at: 256,
            restore: true,
        },
        Workload::ServePredictBurst {
            warm_tasks: 300,
            requests: 50,
        },
    ]
}

/// `field` of every entry of the `list` in `BENCHMARK.json`.
fn declared(list: &str, field: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|m| m.get(field).and_then(|v| v.as_str()).unwrap().to_string())
        .collect()
}

#[test]
fn emitted_metrics_are_the_declared_ones() {
    for (list, emitted) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<&str> = emitted.iter().map(|(n, _)| *n).collect();
        let units: Vec<&str> = emitted.iter().map(|(_, u)| *u).collect();
        assert_eq!(names, declared(list, "name"), "{list}");
        assert_eq!(units, declared(list, "unit"), "{list}");
    }
    assert_eq!(WORKLOADS.to_vec(), declared("workloads", "name"));
}

#[test]
fn the_timing_source_is_transparent() {
    for workload in &reduced()[..2] {
        let spec = sim::spec(*workload, 5);
        let bare =
            Simulation::from_source(spec.workload.stream().unwrap(), spec.algorithm, spec.config)
                .run();
        let untraced = sim::run(*workload, 5, None);
        let traced = sim::run(
            *workload,
            5,
            Some(&mut Tracer::new(std::time::Instant::now())),
        );
        assert_eq!(untraced.digest, sim::digest(&bare), "{}", workload.name());
        assert_eq!(traced.digest, untraced.digest, "{}", workload.name());
    }
}

#[test]
fn sink_tallies_equal_the_engine_calls() {
    for workload in &reduced()[..2] {
        let spec = sim::spec(*workload, 9);
        let (result, counts) =
            Simulation::from_source(spec.workload.stream().unwrap(), spec.algorithm, spec.config)
                .with_sink(AllocCounts::default())
                .run_traced();
        let calls = result.stats.calls;
        let name = workload.name();
        assert_eq!(
            calls.predictions_first,
            counts.predict_first + counts.predict_explore,
            "{name}"
        );
        assert_eq!(calls.predictions_retry, counts.predict_retry, "{name}");
        assert_eq!(calls.observations, counts.observe, "{name}");
        assert_eq!(calls.escalations, counts.escalate, "{name}");
        assert_eq!(calls.feedback, counts.feedback, "{name}");
    }
    // The fault workload exercises the feedback channel and retries.
    let spec = sim::spec(reduced()[1], 9);
    let result =
        Simulation::from_source(spec.workload.stream().unwrap(), spec.algorithm, spec.config).run();
    assert!(result.stats.calls.feedback > 0);
}

#[test]
fn every_workload_passes_its_output_checks() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("every-workload");
    std::fs::create_dir_all(&dir).unwrap();
    for workload in reduced() {
        let name = workload.name();
        let untraced = run_rep(workload, 3, false, &dir);
        assert!(untraced.errors.is_empty(), "{name}: {:?}", untraced.errors);
        assert_eq!(untraced.failed, 0, "{name}");
        assert!(untraced.ops > 0 && untraced.wall_s > 0.0, "{name}");
        assert!(untraced.latency_samples > 0, "{name}");
        assert!(
            untraced.layers.is_empty(),
            "{name}: untraced runs carry no layers"
        );

        let traced = run_rep(workload, 3, true, &dir);
        assert!(traced.errors.is_empty(), "{name}: {:?}", traced.errors);
        assert_eq!(
            traced.digest, untraced.digest,
            "{name}: tracing changed outputs"
        );
        let names: Vec<&str> = traced.layers.iter().map(|(n, _)| n.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "{name}");
        assert!(!traced.boundaries.is_empty(), "{name}");
        assert!(dir.join(format!("spans-{name}.jsonl")).exists(), "{name}");
    }
}
