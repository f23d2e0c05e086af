//! The simulator workloads: `sim-flat-1m` and `sim-dag-faults`.

use crate::alloc::{self, AllocCounts};
use crate::stats::{Fnv64, Samples};
use crate::trace::{CompletionClock, TimedSource, Tracer, COMPLETION_BLOCK, NO_SPAN};
use crate::{ratio, repeat_setup, Layers, Rep, Workload, THREADS};
use std::sync::mpsc;
use std::time::Instant;
use tora::prelude::*;

/// Everything a simulator repetition is built from.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// The workload generator.
    pub workload: WorkloadSpec,
    /// The allocation algorithm.
    pub algorithm: AlgorithmKind,
    /// Engine configuration, seeded and with [`THREADS`] threads.
    pub config: SimConfig,
    /// Consecutive completions behind one `latency_p50_us` sample, a
    /// multiple of [`COMPLETION_BLOCK`]. `latency_p99_us` always uses single
    /// blocks, so that more than ten lie beyond it.
    pub median_window: usize,
}

/// The spec of a simulator workload.
///
/// # Panics
/// If `workload` is a serve workload.
pub fn spec(workload: Workload, seed: u64) -> SimSpec {
    let mut config = SimConfig::paper_like(seed);
    config.threads = THREADS;
    match workload {
        Workload::SimFlat { tasks } => SimSpec {
            workload: PaperWorkflow::Bimodal.spec(seed).tasks(tasks),
            algorithm: AlgorithmKind::ExhaustiveBucketing,
            config,
            median_window: COMPLETION_BLOCK,
        },
        Workload::SimDag { width, depth } => {
            // Unbounded budgets: under `light`'s own, one task in most seeds
            // exhausts its attempts and its dead letter cascades through the
            // layered DAG, so no two seeds would measure comparable runs.
            config.faults = FaultPlan {
                max_attempts: 0,
                max_dispatch_retries: 0,
                max_unplaceable_rounds: 0,
                ..FaultPlan::named("light").expect("`light` is a preset")
            };
            config.fault_policy = Some(FaultPolicy::default());
            config.queue_policy = QueuePolicy::FifoBackfill;
            SimSpec {
                workload: PaperWorkflow::ColmenaXtb
                    .spec(seed)
                    .dag_shape(DagShape::random_layered(width, depth)),
                algorithm: AlgorithmKind::GreedyBucketing,
                config,
                // Completions come in bursts that cost about 1.5 µs per task,
                // between dispatch rounds that cost 10–100 µs per task. A
                // block of 64 falls inside a burst a little over half the
                // time, so the median block sits on the edge between the two
                // and moved by 30% from run to run; windows of 512 (about
                // five layers) each span several rounds.
                median_window: 8 * COMPLETION_BLOCK,
            }
        }
        _ => panic!("{} is not a simulator workload", workload.name()),
    }
}

fn stream(spec: &SimSpec) -> Box<dyn TaskSource> {
    spec.workload
        .stream()
        .expect("benchmark workloads are valid and streamable")
}

/// The digest of a simulation's outputs: the `SimStats` JSON, the makespan,
/// per-axis AWE and the retry count.
pub fn digest(result: &SimResult) -> String {
    let mut h = Fnv64::default();
    let stats = serde_json::to_string(&result.stats).expect("SimStats serializes");
    h.write(stats.as_bytes());
    h.write(&result.makespan_s.to_bits().to_le_bytes());
    for kind in ResourceKind::ALL {
        let awe = result.metrics.awe(kind).map_or(u64::MAX, f64::to_bits);
        h.write(&awe.to_le_bytes());
    }
    h.write(&(result.metrics.total_retries() as u64).to_le_bytes());
    format!("{:016x}", h.finish())
}

/// One repetition. Untraced, it times set-up and the run and stamps every
/// [`COMPLETION_BLOCK`]th completion. With a tracer, it instead times the
/// workload source and counts allocator events, then replays the task
/// stream through a fresh allocator.
pub fn run(workload: Workload, seed: u64, tracer: Option<&mut Tracer>) -> Rep {
    let spec = spec(workload, seed);
    let total = spec
        .workload
        .category_counts()
        .map_or(0, |c| c.iter().sum());
    let start = Instant::now();
    let mut tracer = tracer.map(|t| {
        let root = t.open("sim.run", start, NO_SPAN);
        (t, root)
    });
    let trace = tracer.as_ref().map(|(t, root)| (t.epoch(), *root));
    let ((sim, log), setup_s) = repeat_setup(trace.is_some(), || {
        let (done, log) = mpsc::channel();
        let source = TimedSource::new(stream(&spec), trace, done);
        let sim = Simulation::from_source(Box::new(source), spec.algorithm, spec.config);
        (sim, log)
    });

    let run_start = Instant::now();
    let (result, counts, mut blocks) = if tracer.is_some() {
        let (result, counts) = sim.with_sink(AllocCounts::default()).run_traced();
        (result, counts, Samples::default())
    } else {
        let (result, clock) = sim.with_sink(CompletionClock::default()).run_traced();
        (result, AllocCounts::default(), clock.into_blocks())
    };
    let run_end = Instant::now();
    let source_tracer = log
        .recv()
        .expect("the engine drops its source when the run ends");

    let mut rep = finish(&spec, &result, total, &mut blocks);
    rep.setup_s = setup_s;
    rep.wall_s = (run_end - run_start).as_secs_f64();
    if let Some((tracer, root)) = tracer.as_mut() {
        tracer.close(*root, "sim.run", start, run_end);
        if let Some(t) = source_tracer {
            tracer.absorb(t);
        }
        alloc::replay(
            stream(&spec),
            spec.algorithm,
            spec.config.seed,
            spec.config.fault_policy,
            tracer,
        );
        rep.layers = layers(tracer, &result, &counts, rep.wall_s).into_vec();
    }
    rep
}

/// The end-to-end part of a repetition and its output checks. Latency is
/// per completed task, from blocks of [`COMPLETION_BLOCK`] completions
/// (windows of `spec.median_window` for the median).
fn finish(spec: &SimSpec, result: &SimResult, total: usize, blocks: &mut Samples) -> Rep {
    let mut windows = blocks.sums(spec.median_window / COMPLETION_BLOCK);
    let stats = &result.stats;
    let report = FaultReport::from_result(result, &spec.config, spec.algorithm.label());
    let mut errors = Vec::new();
    if stats.submitted != total as u64 {
        errors.push(format!("submitted {} of {total} tasks", stats.submitted));
    }
    if !report.conservation_ok {
        errors.push(format!(
            "conservation: submitted {} != completed {} + dead-lettered {}",
            stats.submitted, stats.completions, stats.faults.dead_lettered
        ));
    }
    Rep {
        ops: stats.completions,
        attempted: stats.submitted,
        failed: stats.faults.dead_lettered,
        latency_p50_us: windows.quantile_ns(0.5) / spec.median_window as f64 / 1e3,
        latency_p99_us: blocks.quantile_ns(0.99) / COMPLETION_BLOCK as f64 / 1e3,
        latency_samples: blocks.len() as u64,
        digest: digest(result),
        errors,
        ..Rep::default()
    }
}

fn layers(tracer: &mut Tracer, result: &SimResult, counts: &AllocCounts, wall_s: f64) -> Layers {
    let stats = &result.stats;
    let mut l = Layers::default();
    l.set(
        "workloads.next_task_ns",
        tracer.mean_ns("workloads.next_task"),
    );
    l.set("workloads.deps_of_ns", tracer.mean_ns("workloads.deps_of"));
    l.set(
        "workloads.tasks_pulled",
        tracer.count("workloads.next_task") as f64,
    );
    let engine_s =
        wall_s - tracer.busy_s("workloads.next_task") - tracer.busy_s("workloads.deps_of");
    l.set("sim.engine_s", engine_s);
    l.set("sim.dispatches", stats.dispatches as f64);
    l.set(
        "sim.dispatch_success_ratio",
        ratio(stats.completions as f64, stats.dispatches as f64),
    );
    l.set("sim.kills", stats.failures as f64);
    l.set("sim.preemptions", stats.preemptions as f64);
    l.set("sim.dead_lettered", stats.faults.dead_lettered as f64);
    counts.report(stats.submitted, &mut l);
    alloc::report_replay(tracer, &mut l);
    l.set("sim.self_s_est", engine_s - tracer.busy_s("alloc.replay"));
    l
}
