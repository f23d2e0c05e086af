//! `tora-benchmark`: end-to-end and per-layer measurements of the
//! simulator and of `tora serve`, driven from outside through the public
//! functions of each layer.
//!
//! A run repeats one [`Workload`] in fresh child processes ([`run_rep`] is
//! one repetition) and reports medians and quartiles of the end-to-end
//! metrics ([`END_TO_END`]). A traced repetition also reports the per-layer
//! metrics ([`PER_LAYER`]). See `README.md` for what each workload stresses
//! and which end-to-end metric each layer metric should move.

pub mod alloc;
pub mod compare;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Allocator worker threads, pinned so results do not depend on the
/// machine's detected parallelism. One, because on a 2-vCPU virtual machine
/// two threads doubled `serve-predict-burst` latency and widened its
/// run-to-run spread 2–4×: every batched predict then has to wake the idle
/// second vCPU (see README.md, "Findings").
pub const THREADS: usize = 1;

/// The workload names, in run order.
pub const WORKLOADS: [&str; 4] = [
    "sim-flat-1m",
    "sim-dag-faults",
    "serve-closed-loop",
    "serve-predict-burst",
];

/// End-to-end metrics, reported on every workload: `(name, unit)`.
///
/// An *op* is a task for the simulator workloads and a request for the
/// serve workloads. Simulator latency is the engine's wall time per
/// completed task, one sample per block of [`trace::COMPLETION_BLOCK`]
/// consecutive completions (per [`sim::SimSpec::median_window`] for the
/// median); serve latency is one request's decode, handling and response
/// encoding.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced repetition: `(name, unit)`. A layer a
/// workload does not run through reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.next_task_ns", "ns"),
    ("workloads.deps_of_ns", "ns"),
    ("workloads.tasks_pulled", "count"),
    ("sim.engine_s", "s"),
    ("sim.self_s_est", "s"),
    ("sim.dispatches", "count"),
    ("sim.dispatch_success_ratio", "ratio"),
    ("sim.kills", "count"),
    ("sim.preemptions", "count"),
    ("sim.dead_lettered", "count"),
    ("alloc.predict_first", "count"),
    ("alloc.predict_explore", "count"),
    ("alloc.predict_retry", "count"),
    ("alloc.observe", "count"),
    ("alloc.escalate", "count"),
    ("alloc.feedback", "count"),
    ("alloc.rebucket", "count"),
    ("alloc.rebucket_records", "count"),
    ("alloc.first_fit_ratio", "ratio"),
    ("alloc.predicts_per_task", "ratio"),
    ("alloc.predict_first_ns", "ns"),
    ("alloc.predict_first_p99_ns", "ns"),
    ("alloc.predict_retry_ns", "ns"),
    ("alloc.observe_ns", "ns"),
    ("alloc.replay_s", "s"),
    ("serve.decode_ns", "ns"),
    ("serve.handle_ns", "ns"),
    ("serve.handle_p99_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.handle_ns.submit", "ns"),
    ("serve.handle_ns.complete", "ns"),
    ("serve.handle_ns.fault", "ns"),
    ("serve.handle_ns.predict", "ns"),
    ("serve.response_bytes", "bytes"),
    ("serve.grants_per_request", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.journal_ops", "count"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.snapshot_ms", "ms"),
    ("serve.snapshot_parse_s", "s"),
    ("serve.restore_s", "s"),
    ("serve.restore_replay_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// One benchmark workload at a given size. [`Workload::full`] gives the
/// sizes the benchmark runs; tests build smaller ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `sim-flat-1m`: bimodal, streamed, exhaustive bucketing, paper-like
    /// pool and arrivals, FIFO, no faults.
    SimFlat {
        /// Tasks streamed.
        tasks: usize,
    },
    /// `sim-dag-faults`: colmena-xtb as a random layered DAG, greedy
    /// bucketing, the `light` fault rates with unbounded retry budgets and
    /// fault feedback, FIFO backfill.
    SimDag {
        /// Nodes per layer.
        width: u32,
        /// Layers.
        depth: u32,
    },
    /// `serve-closed-loop`: four tenants driven by one closed-loop client.
    ServeClosedLoop {
        /// Tasks per tenant.
        tasks_per_tenant: usize,
        /// Timed request number at which the client sends a `Snapshot`.
        snapshot_at: u64,
        /// Whether to time `Session::restore` on the snapshot and check the
        /// restored state. The restore runs outside the timed part and its
        /// quadratic parse dominates a repetition, so a run checks it once.
        restore: bool,
    },
    /// `serve-predict-burst`: one warmed tenant answering batched predicts.
    ServePredictBurst {
        /// Submit+Complete pairs that warm the tenant during set-up.
        warm_tasks: usize,
        /// Timed `Predict` requests.
        requests: usize,
    },
}

impl Workload {
    /// The full-size workload called `name`.
    pub fn full(name: &str) -> Option<Self> {
        Some(match name {
            "sim-flat-1m" => Workload::SimFlat { tasks: 1_000_000 },
            "sim-dag-faults" => Workload::SimDag {
                width: 96,
                depth: 1000,
            },
            "serve-closed-loop" => Workload::ServeClosedLoop {
                tasks_per_tenant: 20_000,
                snapshot_at: 2048,
                restore: true,
            },
            "serve-predict-burst" => Workload::ServePredictBurst {
                warm_tasks: 20_000,
                requests: 10_000,
            },
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::SimFlat { .. } => WORKLOADS[0],
            Workload::SimDag { .. } => WORKLOADS[1],
            Workload::ServeClosedLoop { .. } => WORKLOADS[2],
            Workload::ServePredictBurst { .. } => WORKLOADS[3],
        }
    }

    /// Whether this is the size the benchmark runs (pinned digests apply).
    pub fn is_full(&self) -> bool {
        Workload::full(self.name()) == Some(self.with_restore(true))
    }

    /// This workload with the restore check on or off (only
    /// `serve-closed-loop` has one).
    pub fn with_restore(mut self, on: bool) -> Self {
        if let Workload::ServeClosedLoop { restore, .. } = &mut self {
            *restore = on;
        }
        self
    }
}

/// What one repetition measured. A child process prints it as one JSON line.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Rep {
    /// Seconds spent building the inputs and the system under test.
    pub setup_s: f64,
    /// Seconds of the timed part.
    pub wall_s: f64,
    /// Ops completed in the timed part (tasks or requests).
    pub ops: u64,
    /// Ops attempted over the whole repetition.
    pub attempted: u64,
    /// Ops that failed: dead-lettered or dropped tasks, error responses.
    pub failed: u64,
    /// Median op latency in microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile op latency in microseconds.
    pub latency_p99_us: f64,
    /// Latency samples behind the two percentiles.
    pub latency_samples: u64,
    /// Peak resident set size of the process, in MB.
    pub peak_rss_mb: f64,
    /// FNV-64 of the outputs, as 16 hex digits.
    pub digest: String,
    /// Output checks that failed, one line each.
    pub errors: Vec<String>,
    /// Per-layer metrics (traced repetitions only), in [`PER_LAYER`] order.
    pub layers: Vec<(String, f64)>,
    /// Per-boundary counts and timings (traced repetitions only).
    pub boundaries: Vec<trace::BoundaryRow>,
}

impl Rep {
    /// Ops per second of the timed part.
    pub fn throughput_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// The end-to-end metric `name` of this repetition.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "throughput_per_s" => self.throughput_per_s(),
            "latency_p50_us" => self.latency_p50_us,
            "latency_p99_us" => self.latency_p99_us,
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            _ => panic!("unknown end-to-end metric `{name}`"),
        }
    }
}

/// One workload's part of a run file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// Workload name.
    pub name: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Ops attempted over all repetitions.
    pub attempted: u64,
    /// Ops failed over all repetitions.
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// The outputs' digest, the same for every repetition of one seed.
    pub digest: String,
    /// Latency samples behind each repetition's percentiles.
    pub latency_samples: u64,
    /// The end-to-end metrics over the repetitions.
    pub metrics: Vec<stats::Summary>,
}

/// `run-<seed>.json`: what `run` measured, the input of `compare`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFile {
    /// Workload seed.
    pub seed: u64,
    /// Seconds each workload was measured for.
    pub seconds: u64,
    /// Processors available to the run.
    pub nproc: usize,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadRun>,
}

/// Per-layer values being filled in; every [`PER_LAYER`] metric starts at 0.
#[derive(Debug, Clone)]
pub struct Layers(Vec<(String, f64)>);

impl Default for Layers {
    fn default() -> Self {
        Layers(
            PER_LAYER
                .iter()
                .map(|(name, _)| (name.to_string(), 0.0))
                .collect(),
        )
    }
}

impl Layers {
    /// Set metric `name`.
    ///
    /// # Panics
    /// If `name` is not in [`PER_LAYER`]: the runner would emit a metric
    /// the benchmark does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric"));
        slot.1 = value;
    }

    /// The values, in [`PER_LAYER`] order.
    pub fn into_vec(self) -> Vec<(String, f64)> {
        self.0
    }
}

/// Set-ups per untraced repetition, unless they take longer than
/// [`SETUP_BUDGET_S`] in all.
const SETUPS: usize = 25;

/// Seconds of repeated set-up after which a repetition stops repeating it.
const SETUP_BUDGET_S: f64 = 0.1;

/// Run `setup` several times, keeping the last result, and return it with
/// the median set-up time in seconds: a single set-up of a few
/// microseconds is too noisy to compare between commits. A traced
/// repetition sets up once, so its spans describe one set-up.
pub fn repeat_setup<T>(traced: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    loop {
        let start = std::time::Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        if traced || times.len() >= SETUPS || times.iter().sum::<f64>() >= SETUP_BUDGET_S {
            return (value, stats::quartiles(&times).1);
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Where runs, traces and scratch files go: `$CARGO_TARGET_DIR/benchmark`,
/// else `target/benchmark` under the working directory.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

/// Run one repetition of `workload` in this process. `dir` receives the
/// serve snapshot file of the restore check and, for a traced repetition,
/// the raw spans as `spans-<workload>.jsonl`.
pub fn run_rep(workload: Workload, seed: u64, traced: bool, dir: &Path) -> Rep {
    let mut tracer = traced.then(|| trace::Tracer::new(std::time::Instant::now()));
    let mut rep = match workload {
        Workload::SimFlat { .. } | Workload::SimDag { .. } => {
            sim::run(workload, seed, tracer.as_mut())
        }
        Workload::ServeClosedLoop { .. } | Workload::ServePredictBurst { .. } => {
            serve::run(workload, seed, tracer.as_mut(), dir)
        }
    };
    if let Some(mut tracer) = tracer {
        rep.boundaries = tracer.boundary_table();
        let path = dir.join(format!("spans-{}.jsonl", workload.name()));
        if let Err(e) = tracer.write_spans(&path) {
            rep.errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    if workload.is_full() && seed == PINNED_SEED {
        match pinned_digest(workload.name()) {
            Some(pinned) if pinned == rep.digest => {}
            Some(pinned) => rep.errors.push(format!(
                "digest {} differs from the pinned {pinned} for seed {PINNED_SEED}",
                rep.digest
            )),
            None => rep.errors.push(format!(
                "baseline.json pins no digest for {}",
                workload.name()
            )),
        }
    }
    rep
}

/// The seed whose full-size output digests are pinned.
pub const PINNED_SEED: u64 = 42;

/// The pinned digest of `workload` at [`PINNED_SEED`], from `baseline.json`.
pub fn pinned_digest(workload: &str) -> Option<String> {
    let baseline = serde_json::parse_value(include_str!("../baseline.json"))
        .expect("baseline.json is valid JSON");
    baseline
        .get("digests")?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}
