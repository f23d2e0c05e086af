//! The discrete-event workflow engine.
//!
//! Reproduces the execution loop of Figure 1: ready tasks are allocated at
//! dispatch time (the moment the paper's contribution acts), placed
//! first-fit on opportunistic workers, killed when they over-consume, and
//! retried with a bigger allocation. Completed tasks report their resource
//! records back to the allocator. Workers may join and leave mid-run; a
//! departing worker preempts its tasks, which are resubmitted with their
//! current allocation (preemption is an infrastructure artifact, not an
//! allocation failure, so it does not enter the §II-C waste metric — the
//! result reports it separately).
//!
//! # Architecture
//!
//! The engine is layered; each layer owns one concern and this module only
//! orchestrates:
//!
//! | module      | owns |
//! |-------------|------|
//! | [`lifecycle`] | the typed per-task state machine ([`TaskPhase`]) and per-task bookkeeping |
//! | `queue`     | the `(time, seq)` min-heap of pending events, with deterministic tie-breaking |
//! | `dispatch`  | allocation at dispatch time, placement, flaky-dispatch backoff, attempt completion |
//! | `faults`    | crash / rack-crash / straggler injection and checkpoint salvage |
//! | `churn`     | pool evolution and preemption |
//! | `replay`    | the dead-letter channel and its replay path |
//!
//! Every task transition is driven through [`lifecycle::TaskPhase`]'s legal-
//! successor table; an illegal transition is an engine bug and fails fast.

mod arena;
mod churn;
mod critical;
mod dispatch;
mod faults;
pub mod lifecycle;
mod queue;
mod replay;

#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod tests;

pub use lifecycle::{IllegalTransition, TaskPhase};

use self::arena::{AttemptArena, RunArena, RunId};
use self::critical::CriticalPath;
use self::lifecycle::TaskState;
use self::queue::{Event, EventQueue};
use crate::enforcement::EnforcementModel;
use crate::faults::FaultPlan;
use crate::log::SimEvent;
use crate::sampling::exponential_interval_s;
use crate::scheduler::QueuePolicy;
use crate::stats::SimStats;
use crate::time::SimTime;
use crate::workers::{ChurnConfig, WorkerId, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};
use tora_alloc::allocator::{AlgorithmKind, Allocator, AllocatorConfig};
use tora_alloc::feedback::{AttemptFeedback, FaultPolicy};
use tora_alloc::resources::{ResourceVector, WorkerSpec};
use tora_alloc::task::CategoryId;
use tora_alloc::task::{TaskFeatures, TaskSpec};
use tora_alloc::trace::{EventSink, NoopSink};
use tora_metrics::{DeadLetterCause, WorkflowMetrics};
use tora_workloads::{TaskSource, Workflow, WorkflowSource};

/// How the dynamic workflow generates (submits) its tasks over time.
///
/// Dynamic workflow systems generate tasks *at runtime* (§I) — the manager
/// rarely sees the whole workload at once. The arrival model bounds how many
/// tasks can pile up in exploratory mode before the first records return.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalModel {
    /// Every task is ready at time zero (a static batch — the worst case for
    /// the exploratory phase).
    #[default]
    Batch,
    /// Tasks are generated with exponential inter-arrival times of the given
    /// mean, in submission order.
    Poisson {
        /// Mean seconds between submissions.
        mean_interval_s: f64,
    },
}

impl ArrivalModel {
    /// Validate the arrival parameters: a Poisson mean interval must be
    /// finite and positive.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalModel::Poisson { mean_interval_s }
                if !(mean_interval_s.is_finite() && mean_interval_s > 0.0) =>
            {
                Err(format!("bad mean_interval_s {mean_interval_s}"))
            }
            _ => Ok(()),
        }
    }
}

/// Optional heterogeneous pool: a fraction of joining workers are scaled-up
/// nodes (opportunistic pools frequently mix slot sizes). Spatial capacity is
/// multiplied; the wall-time axis is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerMix {
    /// Probability that a joining worker is a large one.
    pub large_fraction: f64,
    /// Spatial capacity multiplier of the mixed-in workers (> 0; values
    /// below 1 model workers *smaller* than the workflow's base shape, which
    /// is how a shrinking pool strands over-sized allocations).
    pub scale: f64,
}

impl WorkerMix {
    /// Validate the mix parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.large_fraction) {
            return Err(format!("bad large_fraction {}", self.large_fraction));
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!("bad scale {}", self.scale));
        }
        Ok(())
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// How failed attempts are timed.
    pub enforcement: EnforcementModel,
    /// Worker pool evolution.
    pub churn: ChurnConfig,
    /// Heterogeneous pool mix (`None` = every worker matches the workflow's
    /// base shape).
    pub worker_mix: Option<WorkerMix>,
    /// Task submission process.
    pub arrival: ArrivalModel,
    /// Ready-queue scheduling policy.
    pub queue_policy: QueuePolicy,
    /// RNG seed (drives the allocator's bucket sampling, arrivals and the
    /// churn).
    pub seed: u64,
    /// Fault-injection plan (crashes, stragglers, lost records, flaky
    /// dispatch) plus the resilience budgets bounding them. The default
    /// [`FaultPlan::none`] reproduces fault-free behaviour exactly.
    #[serde(default)]
    pub faults: FaultPlan,
    /// Fault-feedback policy for the embedded allocator: when set, attempt
    /// outcomes are reported back and the allocator pads/escalates its
    /// predictions from the windowed fault rate. `None` (the default)
    /// compiles the channel out of the decision path entirely.
    #[serde(default)]
    pub fault_policy: Option<FaultPolicy>,
    /// Ignored: the engine is serial (DESIGN.md §5h). Still parsed and
    /// serialized, so saved configs keep their bytes; kept for one release
    /// so existing struct literals still compile.
    #[deprecated(note = "ignored; the engine is serial, so drop the field")]
    #[serde(default)]
    pub threads: usize,
}

impl Default for SimConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        SimConfig {
            enforcement: EnforcementModel::default(),
            churn: ChurnConfig::fixed(20),
            worker_mix: None,
            arrival: ArrivalModel::Batch,
            queue_policy: QueuePolicy::Fifo,
            seed: 0,
            faults: FaultPlan::none(),
            fault_policy: None,
            threads: 0,
        }
    }
}

impl SimConfig {
    /// The paper-like setting: opportunistic 20–50 worker pool with ramp-up
    /// and runtime task generation.
    #[allow(deprecated)]
    pub fn paper_like(seed: u64) -> Self {
        SimConfig {
            enforcement: EnforcementModel::default(),
            churn: ChurnConfig::paper_like(),
            worker_mix: None,
            arrival: ArrivalModel::Poisson {
                mean_interval_s: 1.5,
            },
            queue_policy: QueuePolicy::Fifo,
            seed,
            faults: FaultPlan::none(),
            fault_policy: None,
            threads: 0,
        }
    }
}

/// Aggregate result of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// §II-C metrics over every completed task.
    pub metrics: WorkflowMetrics,
    /// Wall-clock length of the run in simulated seconds.
    pub makespan_s: f64,
    /// Allocation·time lost to preempted attempts, per dimension (not part
    /// of the paper's waste metric; reported for completeness).
    pub preempted_alloc_time: ResourceVector,
    /// Smallest and largest pool size observed.
    pub worker_range: (usize, usize),
    /// Engine-side tally of dispatches, completions, failures, preemptions,
    /// faults and allocator calls — the reconciliation counterpart of the
    /// allocator's own [`tora_alloc::trace::TraceStats`].
    pub stats: SimStats,
}

/// A dynamic-workflow application driver (Fig. 1's application layer).
///
/// The defining property of the paper's workflow class is that "tasks'
/// definitions and dependencies are generated and inferred at runtime" (§I).
/// A driver is the application side of that loop: it submits an initial
/// batch of tasks and reacts to every completion — possibly submitting more
/// work based on the results (Colmena's steering, Coffea's
/// partition-then-accumulate). Driver-submitted tasks become ready
/// immediately (subject to their dependencies); a [`TaskSource`] is the
/// degenerate driver that submits everything on its arrival schedule.
pub trait Driver: Send {
    /// Called once at time zero.
    fn on_start(&mut self, api: &mut SubmitApi);
    /// Called after each task completes successfully.
    fn on_task_complete(&mut self, task: &TaskSpec, api: &mut SubmitApi);
}

/// The submission handle a [`Driver`] writes new tasks through.
pub struct SubmitApi {
    submissions: Vec<(u32, TaskFeatures, ResourceVector, f64, Vec<u64>)>,
    next_id: u64,
}

impl SubmitApi {
    /// Submit an independent task; returns its id.
    pub fn submit(&mut self, category: u32, peak: ResourceVector, duration_s: f64) -> u64 {
        self.submit_with_deps(category, peak, duration_s, Vec::new())
    }

    /// Submit a task depending on earlier task ids; returns its id.
    ///
    /// # Panics
    /// If a dependency id is not strictly smaller than the new task's id.
    fn submit_with_deps(
        &mut self,
        category: u32,
        peak: ResourceVector,
        duration_s: f64,
        deps: Vec<u64>,
    ) -> u64 {
        self.submit_featured(category, TaskFeatures::default(), peak, duration_s, deps)
    }

    /// Submit a task carrying a pre-run feature vector, for
    /// feature-conditioned allocators; returns its id.
    ///
    /// # Panics
    /// If a dependency id is not strictly smaller than the new task's id.
    pub fn submit_featured(
        &mut self,
        category: u32,
        features: TaskFeatures,
        peak: ResourceVector,
        duration_s: f64,
        deps: Vec<u64>,
    ) -> u64 {
        let id = self.next_id;
        assert!(
            deps.iter().all(|&d| d < id),
            "dependencies must reference earlier tasks"
        );
        self.next_id += 1;
        self.submissions
            .push((category, features, peak, duration_s, deps));
        id
    }
}

/// The engine.
///
/// Generic over an [`EventSink`] so a run can be traced end to end: with a
/// non-default sink (see [`Simulation::with_sink`]) the embedded allocator
/// emits an [`tora_alloc::trace::AllocEvent`] for every decision it makes,
/// and the engine hands the sink every lifecycle [`SimEvent`] it folds into
/// [`SimStats`] — so an [`crate::EventLog`] or a
/// [`crate::UtilizationSeries`] is just a sink. The default [`NoopSink`]
/// compiles the forwarding out.
pub struct Simulation<S: EventSink = NoopSink> {
    worker: WorkerSpec,
    specs: Vec<TaskSpec>,
    /// The run's task generator: specs are pulled on demand (just before
    /// each arrival fires), so a million-task workload never sits fully
    /// materialized ahead of the event horizon. Driver runs hold an empty
    /// one.
    source: Box<dyn TaskSource>,
    /// Total the source will yield; `specs` grows toward it lazily.
    source_total: usize,
    /// The source's bounded dependency lookahead (`0` = dependency-free).
    /// A dead-letter first pulls this span past the dying task so every
    /// potential dependent exists before the cascade, which then dooms them
    /// all at the dying task's own sim time.
    source_window: usize,
    /// Incremental critical-path tracker; present iff the workload carries
    /// dependency structure.
    cp: Option<CriticalPath>,
    driver: Option<Box<dyn Driver>>,
    allocator: Allocator<S>,
    config: SimConfig,
    pool: WorkerPool,
    churn_rng: StdRng,
    /// Dedicated Poisson-arrival stream, drawn one gap per arrival as each
    /// arrival fires.
    arrival_rng: StdRng,
    /// Dedicated fault stream: a plan of all-zero rates draws nothing, so
    /// the churn/arrival/allocator streams are never perturbed.
    fault_rng: StdRng,
    events: EventQueue,
    dispatch_ids: u64,
    /// In-flight attempts, slab-allocated with generational handles so a
    /// stale `Finish` event (preemption, crash) is recognized in O(1).
    running: RunArena,
    /// Live attempts per worker — the departure/crash victim index. Victims
    /// are still ordered by dispatch number, so slot reuse is invisible.
    running_by_worker: HashMap<WorkerId, Vec<(u64, RunId)>>,
    /// Attempt histories for every task, chained through one shared slab.
    attempt_arena: AttemptArena,
    /// Ready queue entries are `(task, queue_token)`; a dead-letter bumps
    /// the task's token instead of scanning the queue, and stale entries
    /// are dropped lazily at dispatch time.
    ready: VecDeque<(usize, u32)>,
    tasks: Vec<TaskState>,
    dependents: Vec<Vec<usize>>,
    /// Dead-lettered tasks with a replayable cause, kept in task order so
    /// replay re-admission scans only genuine candidates.
    replay_candidates: BTreeSet<usize>,
    completed: usize,
    /// Tasks abandoned to the dead-letter channel (terminal, like
    /// completion: the run ends when `completed + dead_lettered` covers
    /// every task).
    dead_lettered: usize,
    now: SimTime,
    result_metrics: WorkflowMetrics,
    preempted_alloc_time: ResourceVector,
    worker_range: (usize, usize),
    stats: SimStats,
    /// Bumped on every observation; invalidates unpinned cached predictions.
    alloc_epoch: u64,
    /// Lifetime count of workers that ever joined (including the initial
    /// pool); drives the deterministic round-robin rack assignment.
    joined_workers: u64,
    /// Largest pool size ever observed; the reference point for the
    /// dead-letter replay capacity threshold.
    peak_workers: usize,
}

impl Simulation {
    /// Build an engine for one materialized workflow and algorithm: a run
    /// over the workflow's [`WorkflowSource`].
    pub fn new(workflow: &Workflow, algorithm: AlgorithmKind, config: SimConfig) -> Self {
        Self::from_source(
            Box::new(WorkflowSource::new(workflow.clone())),
            algorithm,
            config,
        )
    }

    /// Build an engine for the workload a [`TaskSource`] yields — every
    /// run's way in. Specs are pulled on demand as their arrivals fire, so
    /// generation overlaps simulation and the engine's footprint stays
    /// bounded by what has actually arrived.
    pub fn from_source(
        source: Box<dyn TaskSource>,
        algorithm: AlgorithmKind,
        config: SimConfig,
    ) -> Self {
        let worker = source.worker();
        config.churn.validate().expect("invalid churn config");
        config.faults.validate().expect("invalid fault plan");
        config.arrival.validate().expect("invalid arrival model");
        let alloc_config = AllocatorConfig {
            machine: worker,
            ..AllocatorConfig::default()
        };
        if let Some(mix) = config.worker_mix {
            mix.validate().expect("invalid worker mix");
        }
        let mut allocator = Allocator::with_config(algorithm, alloc_config, config.seed);
        allocator.set_fault_policy(config.fault_policy);
        let mut churn_rng = StdRng::seed_from_u64(config.seed ^ 0xC4_0A17);
        let mut pool = WorkerPool::new();
        let mut joined_workers = 0u64;
        for _ in 0..config.churn.initial {
            let spec = Self::sample_worker_spec(worker, &config, &mut churn_rng);
            let spec = Self::assign_rack(spec, config.faults.rack_count, joined_workers);
            joined_workers += 1;
            pool.join(spec);
        }
        let initial_workers = config.churn.initial;
        let source_total = source.total_tasks();
        let source_window = source.dependency_window();
        Simulation {
            worker,
            specs: Vec::with_capacity(source_total.min(1 << 20)),
            source,
            source_total,
            source_window,
            cp: (source_window > 0).then(CriticalPath::new),
            driver: None,
            allocator,
            config,
            pool,
            churn_rng,
            arrival_rng: StdRng::seed_from_u64(config.seed ^ 0x0A88_17E5),
            fault_rng: StdRng::seed_from_u64(config.seed ^ 0x00FA_0175),
            events: EventQueue::new(),
            dispatch_ids: 0,
            running: RunArena::new(),
            running_by_worker: HashMap::new(),
            attempt_arena: AttemptArena::new(),
            ready: VecDeque::new(),
            tasks: Vec::new(),
            dependents: Vec::new(),
            replay_candidates: BTreeSet::new(),
            completed: 0,
            dead_lettered: 0,
            now: SimTime::ZERO,
            result_metrics: WorkflowMetrics::new(),
            preempted_alloc_time: ResourceVector::ZERO,
            worker_range: (initial_workers, initial_workers),
            stats: SimStats::new(),
            alloc_epoch: 0,
            joined_workers,
            peak_workers: initial_workers,
        }
    }

    /// Build an engine whose tasks are generated at runtime by `driver`
    /// over an empty source.
    pub fn with_driver(
        driver: Box<dyn Driver>,
        worker: WorkerSpec,
        algorithm: AlgorithmKind,
        config: SimConfig,
    ) -> Self {
        let empty = Workflow::new("driver", Vec::new(), Vec::new(), worker);
        let mut sim = Self::new(&empty, algorithm, config);
        sim.driver = Some(driver);
        sim
    }

    /// Attach an [`EventSink`]: the embedded allocator emits its decisions
    /// into it and the engine its lifecycle events. Retrieve the sink
    /// afterwards with [`Simulation::run_traced`].
    pub fn with_sink<S: EventSink>(self, sink: S) -> Simulation<S> {
        Simulation {
            worker: self.worker,
            specs: self.specs,
            source: self.source,
            source_total: self.source_total,
            source_window: self.source_window,
            cp: self.cp,
            driver: self.driver,
            allocator: self.allocator.with_sink(sink),
            config: self.config,
            pool: self.pool,
            churn_rng: self.churn_rng,
            arrival_rng: self.arrival_rng,
            fault_rng: self.fault_rng,
            events: self.events,
            dispatch_ids: self.dispatch_ids,
            running: self.running,
            running_by_worker: self.running_by_worker,
            attempt_arena: self.attempt_arena,
            ready: self.ready,
            tasks: self.tasks,
            dependents: self.dependents,
            replay_candidates: self.replay_candidates,
            completed: self.completed,
            dead_lettered: self.dead_lettered,
            now: self.now,
            result_metrics: self.result_metrics,
            preempted_alloc_time: self.preempted_alloc_time,
            worker_range: self.worker_range,
            stats: self.stats,
            alloc_epoch: self.alloc_epoch,
            joined_workers: self.joined_workers,
            peak_workers: self.peak_workers,
        }
    }
}

impl<S: EventSink> Simulation<S> {
    /// Record one lifecycle fact: fold it into the run's [`SimStats`] and,
    /// when the sink is live, hand it on stamped with the current time.
    fn record(&mut self, event: SimEvent) {
        self.stats.apply(&event);
        if S::ENABLED {
            let now = self.now.seconds();
            self.allocator.sink_mut().emit_sim(now, &event);
        }
    }

    /// Append a task to the ready queue, stamped with its current queue
    /// token. A later dead-letter bumps the token, turning any entry still
    /// in the queue into a stale one that dispatch drops on sight — the
    /// lazy equivalent of eagerly scanning the queue to remove it.
    fn push_ready(&mut self, task_idx: usize) {
        self.ready
            .push_back((task_idx, self.tasks[task_idx].queue_token));
    }

    /// Whether the task's attempt budget (`max_attempts`; `0` is
    /// unbounded) is spent.
    fn attempts_spent(&self, task_idx: usize) -> bool {
        let cap = self.config.faults.max_attempts;
        cap > 0 && self.tasks[task_idx].attempts.len() >= cap
    }

    /// Send the task of an ended attempt back to the ready queue with
    /// `alloc` pinned as its next allocation, so a later, smaller
    /// prediction cannot undo it. Records no event.
    fn requeue_pinned(&mut self, task_idx: usize, alloc: ResourceVector) {
        let state = &mut self.tasks[task_idx];
        state.next_alloc = Some(alloc);
        state.pinned = true;
        state
            .advance(TaskPhase::Ready)
            .expect("ended attempt was running");
        self.push_ready(task_idx);
    }

    /// Take every attempt running on `worker` out of the victim index, in
    /// dispatch order (the index is unordered after swap-removals).
    fn drain_victims(&mut self, worker: WorkerId) -> Vec<(u64, RunId)> {
        let mut victims = self.running_by_worker.remove(&worker).unwrap_or_default();
        victims.sort_unstable_by_key(|&(dispatch, _)| dispatch);
        victims
    }

    /// Whether a ready-queue entry still refers to a live enqueueing.
    fn ready_entry_live(&self, entry: (usize, u32)) -> bool {
        self.tasks[entry.0].queue_token == entry.1
    }

    /// Report an attempt outcome on the allocator's fault-feedback channel,
    /// attributed to the rack the attempt ran on. Only wired while the
    /// fault plan is active: a fault-free run must stay byte-identical to
    /// the pre-feedback engine (no window pushes, no feedback trace events,
    /// no stats).
    fn report_outcome(
        &mut self,
        category: CategoryId,
        outcome: AttemptFeedback,
        rack: Option<u32>,
    ) {
        if !self.config.faults.is_active() {
            return;
        }
        self.allocator.observe_outcome(category, outcome, rack);
        self.stats.record_feedback(category.0);
    }

    /// Racks placement should deprioritize right now. Empty — and the
    /// placement path then byte-identical to plain first fit — unless the
    /// fault plan is active *and* a fault policy has flagged racks whose
    /// decayed crash rate crossed its threshold.
    fn rack_avoid_list(&self) -> Vec<u32> {
        if !self.config.faults.is_active() {
            return Vec::new();
        }
        self.allocator.avoided_racks()
    }

    /// Total number of tasks this run must account for: everything
    /// materialized so far, or the streaming source's declared total.
    fn total_target(&self) -> usize {
        self.specs.len().max(self.source_total)
    }

    /// Pull tasks from the source until `task_idx` is materialized. A
    /// no-op for already-pulled indices. Sources yield sequential tasks
    /// whose dependencies (if any) are confined to the declared lookahead
    /// window, so a pulled task's dependencies are never dead: a death
    /// would have pulled this task first (see `dead_letter`).
    fn ensure_spec(&mut self, task_idx: usize) {
        while self.specs.len() <= task_idx {
            let idx = self.specs.len();
            let spec = self
                .source
                .next_task()
                .expect("source ended before its declared total");
            let deps = if self.source_window > 0 {
                self.source.deps_of(idx)
            } else {
                Vec::new()
            };
            debug_assert!(
                deps.iter().all(|&d| !self.tasks[d as usize].is_dead()),
                "a dead dependency must have materialized its window"
            );
            self.intake(spec, &deps);
        }
    }

    /// Take the next task into the run — the one intake for source pulls
    /// and driver submissions alike: a spec push, a lifecycle slot counting
    /// the still-incomplete dependencies, the reverse-adjacency wiring for
    /// them and the critical-path entry. A completed dependency is already
    /// resolved, so it is neither counted nor wired.
    fn intake(&mut self, spec: TaskSpec, deps: &[u64]) {
        let idx = self.specs.len();
        assert_eq!(spec.id.0, idx as u64, "task ids must be sequential");
        assert!(
            self.worker.capacity.dominates(&spec.peak),
            "{}: peak {} exceeds worker capacity {}",
            spec.id,
            spec.peak,
            self.worker.capacity
        );
        let mut deps_remaining = 0;
        for &d in deps {
            if !self.tasks[d as usize].is_completed() {
                self.dependents[d as usize].push(idx);
                deps_remaining += 1;
            }
        }
        if let Some(cp) = self.cp.as_mut() {
            cp.push(spec.duration_s, deps);
        }
        self.specs.push(spec);
        self.tasks.push(TaskState::fresh(deps_remaining));
        self.dependents.push(Vec::new());
    }

    /// The arrival model released a task: it becomes ready once its
    /// predecessors (if any) have completed.
    fn on_arrive(&mut self, task_idx: usize) {
        self.ensure_spec(task_idx);
        if self.tasks[task_idx].is_dead() {
            // Dead-lettered (dependency cascade) before it ever arrived; its
            // submission was already accounted at dead-letter time.
            return;
        }
        self.record(SimEvent::TaskSubmitted {
            task: self.specs[task_idx].id,
        });
        let state = &mut self.tasks[task_idx];
        debug_assert!(!state.arrived, "duplicate arrival");
        state.arrived = true;
        if state.deps_remaining == 0 {
            state
                .advance(TaskPhase::Ready)
                .expect("arrived task was pending");
            self.push_ready(task_idx);
        }
    }

    /// Start the arrival model: a batch arrives whole at time zero; a
    /// Poisson process schedules its first arrival.
    fn schedule_arrivals(&mut self) {
        match self.config.arrival {
            ArrivalModel::Batch => {
                for task_idx in 0..self.total_target() {
                    self.on_arrive(task_idx);
                }
            }
            ArrivalModel::Poisson { .. } => self.schedule_arrival(0),
        }
    }

    /// Schedule source task `task_idx`'s Poisson arrival one exponential
    /// gap after now. Each arrival schedules the next as it fires, so one
    /// arrival is pending at a time; the gaps come from the dedicated
    /// stream in task order, so every arrival time is the same cumulative
    /// sum an up-front schedule would compute.
    fn schedule_arrival(&mut self, task_idx: usize) {
        let ArrivalModel::Poisson { mean_interval_s } = self.config.arrival else {
            return;
        };
        if task_idx < self.source_total {
            let gap = exponential_interval_s(&mut self.arrival_rng, mean_interval_s).max(0.0);
            self.events
                .schedule(self.now + gap, Event::Arrive { task_idx });
        }
    }

    /// A fresh submission handle continuing the id sequence.
    fn submit_api(&self) -> SubmitApi {
        SubmitApi {
            submissions: Vec::new(),
            next_id: self.specs.len() as u64,
        }
    }

    /// Fold driver submissions into the live run: each one is taken in and
    /// arrives immediately, gated only by its dependencies.
    fn integrate_submissions(&mut self, api: SubmitApi) {
        for (category, features, peak, duration_s, deps) in api.submissions {
            let idx = self.specs.len();
            let spec =
                TaskSpec::new(idx as u64, category, peak, duration_s).with_features(features);
            self.intake(spec, &deps);
            self.on_arrive(idx);
        }
    }

    /// Dead-letter every task the dried-up run can no longer finish, in id
    /// order: first the materialized stranded tasks, then the
    /// declared-but-unpulled tail of a streaming source — directly by id
    /// range, without building `TaskSpec`s for tasks the run never touched
    /// (the sweep used to materialize the whole tail just to abandon it,
    /// which at 10M+ unpulled tasks dominated the fault-drained run).
    /// Unpulled ids all exceed materialized ones, so the combined sweep
    /// emits the same id-ordered dead-letter stream the materializing
    /// version produced, byte for byte.
    fn sweep_stranded(&mut self) {
        if self.source_window > 0 && self.total_target() > 0 {
            // A structured source materializes its remainder before the
            // sweep: the critical-path DP needs every task's duration, and
            // stranded tasks must cascade through their (materialized)
            // dependents — both exactly as the materialized run would.
            // Structured workloads are shape-bounded, so this tail is small;
            // the id-range fast path below stays for the flat million-task
            // sweeps it was built for.
            self.ensure_spec(self.total_target() - 1);
        }
        let mut task_idx = 0;
        while task_idx < self.tasks.len() {
            if !self.tasks[task_idx].phase.is_terminal() {
                self.dead_letter(task_idx, DeadLetterCause::Stalled);
            }
            task_idx += 1;
        }
        for index in self.specs.len()..self.total_target() {
            self.dead_letter_unpulled(index, DeadLetterCause::Stalled);
        }
    }

    /// Run to completion and return the result.
    pub fn run(self) -> SimResult {
        self.run_traced().0
    }

    /// Run to completion, returning the result *and* the event sink the
    /// allocator and the engine emitted into — the traced variant of
    /// [`Simulation::run`].
    pub fn run_traced(mut self) -> (SimResult, S) {
        // The initial pool joined before any sink could be attached.
        let initial: Vec<_> = self
            .pool
            .workers()
            .map(|(id, w)| (id, w.spec.capacity))
            .collect();
        for (worker, capacity) in initial {
            self.record(SimEvent::WorkerJoined { worker, capacity });
        }
        self.schedule_churn();
        self.schedule_crash();
        self.schedule_rack_crash();
        self.schedule_arrivals();
        if let Some(mut driver) = self.driver.take() {
            let mut api = self.submit_api();
            driver.on_start(&mut api);
            self.integrate_submissions(api);
            self.driver = Some(driver);
        }
        self.dispatch();
        self.enforce_unplaceable_strikes();
        while self.completed + self.dead_lettered < self.total_target() {
            let Some(ev) = self.events.pop() else {
                // Without faults this is unreachable: every non-terminal
                // task has a Finish event in flight or an arrival still to
                // come, and a Poisson process always keeps its next arrival
                // pending. Under a fault plan the event stream can
                // legitimately dry up (e.g. every worker crashed away);
                // dead-letter the stranded remainder so the run still
                // terminates with conserved accounting.
                assert!(
                    self.config.faults.is_active(),
                    "tasks pending but no events scheduled"
                );
                self.sweep_stranded();
                break;
            };
            debug_assert!(ev.time >= self.now);
            self.now = ev.time;
            match ev.event {
                Event::Finish { run } => self.on_finish(run),
                Event::Arrive { task_idx } => {
                    self.schedule_arrival(task_idx + 1);
                    self.on_arrive(task_idx);
                }
                Event::Churn => self.on_churn(),
                Event::Crash => self.on_crash(),
                Event::RackCrash => self.on_rack_crash(),
                Event::Requeue { task_idx } => self.on_requeue(task_idx),
            }
            self.dispatch();
            self.enforce_unplaceable_strikes();
        }
        if let Some(cp) = self.cp.as_ref() {
            self.stats.critical_path = Some(cp.summarize(&self.result_metrics, self.now.seconds()));
        }
        let result = SimResult {
            metrics: self.result_metrics,
            makespan_s: self.now.seconds(),
            preempted_alloc_time: self.preempted_alloc_time,
            worker_range: self.worker_range,
            stats: self.stats,
        };
        (result, self.allocator.into_sink())
    }
}

/// Convenience: simulate `workflow` under `algorithm` with `config`.
pub fn simulate(workflow: &Workflow, algorithm: AlgorithmKind, config: SimConfig) -> SimResult {
    Simulation::new(workflow, algorithm, config).run()
}
