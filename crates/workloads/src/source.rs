//! Streaming workload generation.
//!
//! A [`TaskSource`] yields a workflow one [`TaskSpec`] at a time instead of
//! materializing the whole trace up front. The engine pulls specs on demand
//! (each task is generated just before its arrival fires), so generation
//! overlaps simulation and a million-task workload never exists as one
//! giant allocation on the generator side.
//!
//! [`CatalogSource`] is the streaming form of every catalog workflow. It
//! shares the per-task samplers (and the per-family RNG streams) with the
//! materialized path, so draining a source yields *byte-identical* specs to
//! [`crate::spec::WorkloadSpec::materialize`] — a property the simulation
//! parity suite pins down to the event log. [`WorkflowSource`] is the
//! source form of an already materialized [`Workflow`] (a loaded trace, a
//! hand-built DAG, the Coffea structure), so every run reaches the engine
//! through the one [`TaskSource`] intake.

use crate::catalog::PaperWorkflow;
use crate::dag::splitmix64;
use crate::workflow::Workflow;
use crate::{colmena, synthetic, topeft};
use rand::rngs::StdRng;
use tora_alloc::resources::WorkerSpec;
use tora_alloc::task::{TaskFeatures, TaskSpec};

/// Hash stream for the input-size signal's generator jitter.
const SIGNAL_SALT: u64 = 0x51_6E_A1_00_7A_5C_F3_0D;

/// The deterministic pre-run input-size signal of task `id`: the log-scaled
/// memory footprint relative to worker capacity, blurred by a small hash
/// jitter so the signal behaves like a real pre-run proxy (input file size)
/// rather than an oracle of the peak. Hash-derived, not RNG-drawn — minting
/// features consumes no sampler state, so feature-stamped workloads are
/// byte-identical to pre-feature ones everywhere except the feature fields.
pub(crate) fn input_signal(seed: u64, id: u64, peak_mem_mb: f64, cap_mem_mb: f64) -> f64 {
    let h = splitmix64(seed ^ SIGNAL_SALT ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // 53 uniform bits in [0, 1).
    let jitter = (h >> 11) as f64 / (1u64 << 53) as f64;
    let base = (1.0 + peak_mem_mb.max(0.0)).ln() / (1.0 + cap_mem_mb.max(1.0)).ln();
    (base + 0.06 * (jitter - 0.5)).clamp(0.0, 1.0)
}

/// A workload produced one task at a time, in submission order.
///
/// Contract: [`TaskSource::next_task`] yields exactly
/// [`TaskSource::total_tasks`] specs whose ids are `0..total` in order, each
/// fitting [`TaskSource::worker`]. Dependencies are *bounded-lookahead*: a
/// source declares a window `W` via [`TaskSource::dependency_window`] and
/// guarantees every id in [`TaskSource::deps_of`]`(i)` lies in `[i - W, i)`,
/// so the engine can resolve dependency cascades while materializing at
/// most `W` tasks ahead of a dying one. Flat sources keep the defaults
/// (`W = 0`, no deps).
pub trait TaskSource: Send {
    /// Workflow name as used in reports.
    fn name(&self) -> &str;
    /// Category display names; index is the category id.
    fn categories(&self) -> &[String];
    /// Worker shape the tasks are meant to run on.
    fn worker(&self) -> WorkerSpec;
    /// Exact number of tasks this source will yield in total (not
    /// remaining — the value is constant over the source's lifetime).
    fn total_tasks(&self) -> usize;
    /// The next task, or `None` once `total_tasks()` have been yielded.
    fn next_task(&mut self) -> Option<TaskSpec>;
    /// The category the task at `index` belongs to, without generating it.
    ///
    /// Must equal `next_task()`'s category for that index, consume no RNG
    /// state, and stay valid for indices not yet pulled — the engine uses it
    /// to dead-letter a declared-but-unpulled tail without materializing
    /// `TaskSpec`s. Catalog families satisfy this for free: their category
    /// is a pure function of the index and the per-category counts.
    fn category_of(&self, index: usize) -> u32;
    /// Dependency ids of the task at `index`. On a tie the engine's
    /// critical path follows the first listed.
    ///
    /// Like [`TaskSource::category_of`] this must be RNG-free and valid for
    /// indices not yet pulled, and every returned id must lie in
    /// `[index - W, index)` for `W =` [`TaskSource::dependency_window`].
    /// Flat sources keep the default empty list.
    fn deps_of(&self, index: usize) -> Vec<u64> {
        let _ = index;
        Vec::new()
    }
    /// The bounded dependency lookahead `W` (see [`TaskSource::deps_of`]);
    /// `0` means the source is dependency-free.
    fn dependency_window(&self) -> usize {
        0
    }
}

/// The streaming form of a catalog workflow (see
/// [`crate::spec::WorkloadSpec::stream`]).
pub struct CatalogSource {
    workflow: PaperWorkflow,
    categories: Vec<String>,
    worker: WorkerSpec,
    /// Resolved per-category task counts, in category-id order.
    counts: Vec<usize>,
    total: usize,
    next: usize,
    seed: u64,
    rng: StdRng,
}

impl CatalogSource {
    pub(crate) fn new(workflow: PaperWorkflow, counts: Vec<usize>, seed: u64) -> Self {
        let total = counts.iter().sum();
        CatalogSource {
            workflow,
            categories: workflow.category_names(),
            worker: WorkerSpec::paper_default(),
            counts,
            total,
            next: 0,
            seed,
            rng: match workflow {
                PaperWorkflow::ColmenaXtb => colmena::stream_rng(seed),
                PaperWorkflow::TopEft => topeft::stream_rng(seed),
                _ => synthetic::stream_rng(seed),
            },
        }
    }
}

impl TaskSource for CatalogSource {
    fn name(&self) -> &str {
        self.workflow.name()
    }

    fn categories(&self) -> &[String] {
        &self.categories
    }

    fn worker(&self) -> WorkerSpec {
        self.worker
    }

    fn total_tasks(&self) -> usize {
        self.total
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        if self.next >= self.total {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let task = match self.workflow {
            PaperWorkflow::ColmenaXtb => colmena::sample_task(i, self.counts[0], &mut self.rng),
            PaperWorkflow::TopEft => {
                topeft::sample_task(i, self.counts[0], self.counts[1], &mut self.rng)
            }
            synth => {
                let kind = synth.synthetic_kind().expect("catalog family");
                synthetic::sample_task(kind, i, self.total, &self.worker, &mut self.rng)
            }
        };
        // Mint the pre-run feature vector after sampling: the signal is a
        // hash of `(seed, id)` and the sampled peak, so it consumes no RNG
        // state and the task bytes stay identical across stream/materialize.
        let signal = input_signal(
            self.seed,
            task.id.0,
            task.peak.memory_mb(),
            self.worker.capacity.memory_mb(),
        );
        Some(task.with_features(TaskFeatures::with_input_signal(signal)))
    }

    /// Every catalog family assigns categories by contiguous index range
    /// (evaluate/compute for Colmena, pre/proc/acc for TopEFT, a single
    /// category for the synthetics), so the category is the cumulative-count
    /// bracket the index falls into.
    fn category_of(&self, index: usize) -> u32 {
        debug_assert!(index < self.total, "{index} out of range ({})", self.total);
        let mut cumulative = 0usize;
        for (category, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if index < cumulative {
                return category as u32;
            }
        }
        panic!("index {index} beyond the declared total {}", self.total)
    }
}

/// The source form of a materialized [`Workflow`]: it drains `tasks` in
/// order and answers [`TaskSource::category_of`] and
/// [`TaskSource::deps_of`] from the workflow itself. The window is the
/// largest lookback over the dependency lists, which
/// [`Workflow::validate`] already confines to earlier ids.
pub struct WorkflowSource {
    workflow: Workflow,
    window: usize,
    next: usize,
}

impl WorkflowSource {
    /// Stream `workflow`'s tasks.
    pub fn new(workflow: Workflow) -> Self {
        let window = (0..workflow.len())
            .filter_map(|i| workflow.deps_of(i).iter().map(|&d| i - d as usize).max())
            .max()
            .unwrap_or(0);
        WorkflowSource {
            workflow,
            window,
            next: 0,
        }
    }
}

impl TaskSource for WorkflowSource {
    fn name(&self) -> &str {
        &self.workflow.name
    }

    fn categories(&self) -> &[String] {
        &self.workflow.categories
    }

    fn worker(&self) -> WorkerSpec {
        self.workflow.worker
    }

    fn total_tasks(&self) -> usize {
        self.workflow.len()
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        let task = self.workflow.tasks.get(self.next).copied();
        self.next += usize::from(task.is_some());
        task
    }

    fn category_of(&self, index: usize) -> u32 {
        self.workflow.tasks[index].category.0
    }

    fn deps_of(&self, index: usize) -> Vec<u64> {
        self.workflow.deps_of(index).to_vec()
    }

    fn dependency_window(&self) -> usize {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    #[test]
    fn every_catalog_source_drains_to_its_materialized_trace() {
        for wf in PaperWorkflow::ALL {
            let spec = WorkloadSpec::new(wf, 11);
            let built = spec.materialize().unwrap();
            let mut source = spec.stream().unwrap();
            assert_eq!(source.total_tasks(), built.len(), "{}", wf.name());
            assert_eq!(source.name(), built.name);
            assert_eq!(source.categories(), built.categories.as_slice());
            assert_eq!(source.worker(), built.worker);
            let drained: Vec<_> = std::iter::from_fn(|| source.next_task()).collect();
            assert_eq!(drained, built.tasks, "{}", wf.name());
            assert!(source.next_task().is_none(), "source is exhausted");
        }
    }

    #[test]
    fn category_of_matches_the_generated_specs() {
        for wf in PaperWorkflow::ALL {
            let spec = WorkloadSpec::new(wf, 23);
            let mut source = spec.stream().unwrap();
            // Query before pulling anything: the answer must not depend on
            // how much of the source has been consumed.
            let upfront: Vec<u32> = (0..source.total_tasks())
                .map(|i| source.category_of(i))
                .collect();
            let drained: Vec<u32> = std::iter::from_fn(|| source.next_task())
                .map(|t| t.category.0)
                .collect();
            assert_eq!(upfront, drained, "{}", wf.name());
        }
    }

    #[test]
    fn sources_are_deterministic_per_seed() {
        let drain = |seed| {
            let mut s = WorkloadSpec::new(PaperWorkflow::TopEft, seed)
                .stream()
                .unwrap();
            std::iter::from_fn(move || s.next_task()).collect::<Vec<_>>()
        };
        assert_eq!(drain(3), drain(3));
        assert_ne!(drain(3), drain(4));
    }

    #[test]
    fn input_signal_is_deterministic_bounded_and_tracks_memory() {
        let cap = 65536.0;
        // Pure function of (seed, id, peak, cap).
        assert_eq!(
            input_signal(7, 3, 2000.0, cap),
            input_signal(7, 3, 2000.0, cap)
        );
        // Different seeds jitter differently; different ids too.
        assert_ne!(
            input_signal(7, 3, 2000.0, cap),
            input_signal(8, 3, 2000.0, cap)
        );
        assert_ne!(
            input_signal(7, 3, 2000.0, cap),
            input_signal(7, 4, 2000.0, cap)
        );
        for mem in [0.0, 1.0, 100.0, 2000.0, 6000.0, cap] {
            for id in 0..50u64 {
                let s = input_signal(11, id, mem, cap);
                assert!((0.0..=1.0).contains(&s), "signal {s} for mem {mem}");
            }
        }
        // The jitter never swamps the log-memory separation that the
        // bimodal workload's two modes produce (~2 GB vs ~6 GB).
        for id in 0..100u64 {
            let low = input_signal(11, id, 2000.0, cap);
            let high = input_signal(11, id, 6000.0, cap);
            assert!(high > low, "id {id}: {high} <= {low}");
        }
    }

    #[test]
    fn generated_tasks_carry_a_minted_input_signal() {
        let mut source = WorkloadSpec::new(PaperWorkflow::Bimodal, 7)
            .stream()
            .unwrap();
        let drained: Vec<_> = std::iter::from_fn(|| source.next_task()).collect();
        assert!(drained.iter().all(|t| t.features.input_signal > 0.0));
        assert!(
            drained.iter().all(|t| t.features.depth == 0),
            "flat => depth 0"
        );
        // The signal is informative: tasks of the two memory modes separate.
        let cap = WorkerSpec::paper_default().capacity.memory_mb();
        for t in &drained {
            let expected = input_signal(7, t.id.0, t.peak.memory_mb(), cap);
            assert_eq!(t.features.input_signal, expected, "{}", t.id);
        }
    }

    #[test]
    fn workflow_sources_drain_their_trace_within_the_window() {
        use crate::dag::DagShape;
        let traces = [
            WorkloadSpec::new(PaperWorkflow::Bimodal, 4).tasks(60),
            WorkloadSpec::new(PaperWorkflow::Normal, 5).dag_shape(DagShape::random_layered(4, 5)),
            WorkloadSpec::new(PaperWorkflow::TopEft, 6)
                .category_tasks(vec![8, 64, 5])
                .dag(),
        ];
        for spec in traces {
            let wf = spec.materialize().unwrap();
            let mut source = WorkflowSource::new(wf.clone());
            assert_eq!(source.name(), wf.name);
            assert_eq!(source.categories(), wf.categories.as_slice());
            assert_eq!(source.worker(), wf.worker);
            assert_eq!(source.total_tasks(), wf.len());
            let window = source.dependency_window();
            assert_eq!(window > 0, wf.has_dependencies(), "{}", wf.name);
            // Queried before any pull: answers read the workflow, not the cursor.
            for (i, task) in wf.tasks.iter().enumerate() {
                assert_eq!(source.category_of(i), task.category.0);
                let deps = source.deps_of(i);
                assert_eq!(deps, wf.deps_of(i));
                assert!(deps
                    .iter()
                    .all(|&d| (d as usize) < i && d as usize + window >= i));
            }
            let drained: Vec<_> = std::iter::from_fn(|| source.next_task()).collect();
            assert_eq!(drained, wf.tasks, "{}", wf.name);
            assert!(source.next_task().is_none(), "source is exhausted");
        }
    }

    #[test]
    fn scaled_sources_honor_the_category_split() {
        let mut source = WorkloadSpec::new(PaperWorkflow::ColmenaXtb, 5)
            .category_tasks(vec![10, 40])
            .stream()
            .unwrap();
        assert_eq!(source.total_tasks(), 50);
        let drained: Vec<_> = std::iter::from_fn(|| source.next_task()).collect();
        assert_eq!(drained.iter().filter(|t| t.category.0 == 0).count(), 10);
        assert_eq!(drained.iter().filter(|t| t.category.0 == 1).count(), 40);
    }
}
