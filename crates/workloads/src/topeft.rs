//! TopEFT trace synthesizer.
//!
//! TopEFT (§III) applies effective-field-theory fits to LHC collision events
//! through three Coffea-driven functions: `preprocessing` (metadata scans),
//! `processing` (event analysis) and `accumulating` (histogram merges). As
//! with ColmenaXTB, the real logs are synthesized from the quantitative
//! details of §III-B and Figure 2 (bottom row):
//!
//! * 363 preprocessing, 3994 processing, 212 accumulating tasks;
//! * preprocessing and accumulating memory ≈ 180 MB — *equivalent across
//!   different categories*, the paper's argument for allocating categories
//!   independently;
//! * processing memory splits into two clusters ≈ 450 MB and ≈ 580 MB;
//! * cores mostly ≤ 1 with rare outliers up to 3 — the outliers §V-C blames
//!   for the bucketing algorithms' weaker cores efficiency on this workflow;
//! * disk constant at 306 MB (§V-C: "TopEFT tasks always consume 306 MBs of
//!   disk"), the detail behind the near-100% disk efficiency of the
//!   bucketing algorithms and Max Seen's 500 MB rounding.

use crate::dist::{lognormal, uniform, Dist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tora_alloc::resources::ResourceVector;
use tora_alloc::task::TaskSpec;

/// Preprocessing task count in the paper's trace.
pub const PREPROCESSING_TASKS: usize = 363;
/// Processing task count in the paper's trace.
pub const PROCESSING_TASKS: usize = 3994;
/// Accumulating task count in the paper's trace.
pub const ACCUMULATING_TASKS: usize = 212;

/// Category id of `preprocessing`.
const CAT_PREPROCESSING: u32 = 0;
/// Category id of `processing`.
pub const CAT_PROCESSING: u32 = 1;
/// Category id of `accumulating`.
const CAT_ACCUMULATING: u32 = 2;

/// Every TopEFT task consumes exactly this much disk (MB).
const DISK_MB: f64 = 306.0;

/// The dedicated TopEFT-generation RNG stream for a seed.
pub(crate) fn stream_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x70_9EF7)
}

/// Sample task `index` given the phase splits — the single canonical draw
/// order shared by the materialized and streaming paths. Indices run
/// preprocessing, then processing, then accumulating.
pub(crate) fn sample_task(index: usize, n_pre: usize, n_proc: usize, rng: &mut StdRng) -> TaskSpec {
    let light_mem = Dist::Normal {
        mean: 180.0,
        std_dev: 10.0,
        min: 120.0,
    };
    if index < n_pre {
        // Phase 1: preprocessing — metadata fetches, short.
        let peak = ResourceVector::new(cores(rng), light_mem.sample(rng), DISK_MB);
        let duration = lognormal(rng, 45.0f64.ln(), 0.4).clamp(10.0, 300.0);
        TaskSpec::new(index as u64, CAT_PREPROCESSING, peak, duration)
    } else if index < n_pre + n_proc {
        // Phase 2: processing — the event-analysis bulk.
        let processing_mem = Dist::Bimodal {
            p_low: 0.45,
            low_mean: 450.0,
            low_std: 18.0,
            high_mean: 580.0,
            high_std: 18.0,
            min: 300.0,
        };
        let peak = ResourceVector::new(cores(rng), processing_mem.sample(rng), DISK_MB);
        let duration = lognormal(rng, 150.0f64.ln(), 0.5).clamp(20.0, 1200.0);
        TaskSpec::new(index as u64, CAT_PROCESSING, peak, duration)
    } else {
        // Phase 3: accumulating — histogram merges.
        let peak = ResourceVector::new(cores(rng), light_mem.sample(rng), DISK_MB);
        let duration = lognormal(rng, 60.0f64.ln(), 0.4).clamp(10.0, 400.0);
        TaskSpec::new(index as u64, CAT_ACCUMULATING, peak, duration)
    }
}

/// Cores irrespective of category: "most tasks ... use one core or less
/// during execution, some tasks go as high as three cores" (§III-B).
fn cores(rng: &mut StdRng) -> f64 {
    if rng.gen::<f64>() < 0.02 {
        uniform(rng, 1.5, 3.0)
    } else {
        uniform(rng, 0.4, 1.0)
    }
}

/// The Coffea dependency lists for the given category counts (Fig. 1's
/// workflow manager view): each processing task reads the dataset located
/// by one preprocessing task (round-robin), and each accumulating task
/// merges the partial results of a contiguous block of processing tasks.
pub(crate) fn dag_dependencies(n_pre: usize, n_proc: usize, n_acc: usize) -> Vec<Vec<u64>> {
    let mut deps: Vec<Vec<u64>> = vec![Vec::new(); n_pre + n_proc + n_acc];
    // processing task j (global id n_pre + j) depends on preprocessing
    // j % n_pre.
    if n_pre > 0 {
        for j in 0..n_proc {
            deps[n_pre + j] = vec![(j % n_pre) as u64];
        }
    }
    // accumulating task k merges a balanced block of processing tasks
    // (every accumulator gets at least one input when n_proc ≥ n_acc).
    if n_acc > 0 && n_proc > 0 {
        let base = n_proc / n_acc;
        let rem = n_proc % n_acc;
        let mut lo = 0usize;
        for k in 0..n_acc {
            let len = base + usize::from(k < rem);
            let hi = (lo + len).min(n_proc);
            deps[n_pre + n_proc + k] = (lo..hi).map(|j| (n_pre + j) as u64).collect();
            lo = hi;
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PaperWorkflow;
    use tora_alloc::task::CategoryId;

    #[test]
    fn paper_counts_and_phases() {
        let wf = PaperWorkflow::TopEft.build(1);
        assert_eq!(wf.len(), 363 + 3994 + 212);
        assert_eq!(wf.category_counts(), vec![363, 3994, 212]);
        wf.validate().unwrap();
        // Phase order: pre < proc < acc by id ranges.
        let max_id = |c: u32| wf.tasks_of(CategoryId(c)).map(|t| t.id.0).max().unwrap();
        let min_id = |c: u32| wf.tasks_of(CategoryId(c)).map(|t| t.id.0).min().unwrap();
        assert!(max_id(CAT_PREPROCESSING) < min_id(CAT_PROCESSING));
        assert!(max_id(CAT_PROCESSING) < min_id(CAT_ACCUMULATING));
    }

    #[test]
    fn disk_is_exactly_306() {
        let wf = PaperWorkflow::TopEft.build(2);
        assert!(wf.tasks.iter().all(|t| t.peak.disk_mb() == DISK_MB));
    }

    #[test]
    fn light_categories_share_memory_profile() {
        let wf = PaperWorkflow::TopEft.build(3);
        let mean = |c: u32| {
            let v: Vec<f64> = wf
                .tasks_of(CategoryId(c))
                .map(|t| t.peak.memory_mb())
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let pre = mean(CAT_PREPROCESSING);
        let acc = mean(CAT_ACCUMULATING);
        assert!((pre - 180.0).abs() < 8.0, "{pre}");
        assert!((acc - 180.0).abs() < 8.0, "{acc}");
    }

    #[test]
    fn processing_memory_is_bimodal() {
        let wf = PaperWorkflow::TopEft.build(4);
        let (low, high): (Vec<f64>, Vec<f64>) = wf
            .tasks_of(CategoryId(CAT_PROCESSING))
            .map(|t| t.peak.memory_mb())
            .partition(|&m| m < 515.0);
        assert!(low.len() > 1400, "low cluster {}", low.len());
        assert!(high.len() > 1700, "high cluster {}", high.len());
        let valley = wf
            .tasks_of(CategoryId(CAT_PROCESSING))
            .filter(|t| (495.0..535.0).contains(&t.peak.memory_mb()))
            .count();
        assert!(valley < 120, "valley {valley}");
    }

    #[test]
    fn cores_mostly_small_with_outliers() {
        let wf = PaperWorkflow::TopEft.build(5);
        let total = wf.len();
        let small = wf.tasks.iter().filter(|t| t.peak.cores() <= 1.0).count();
        let outliers = wf.tasks.iter().filter(|t| t.peak.cores() > 1.5).count();
        assert!(small as f64 / total as f64 > 0.9);
        assert!(outliers > 0);
        assert!(wf.tasks.iter().all(|t| t.peak.cores() <= 3.0));
    }

    #[test]
    fn dag_structure_is_valid_and_layered() {
        let wf = PaperWorkflow::TopEft.spec(1).dag().materialize().unwrap();
        wf.validate().unwrap();
        assert!(wf.has_dependencies());
        // Every processing task depends on exactly one preprocessing task.
        for j in 0..PROCESSING_TASKS {
            let deps = wf.deps_of(PREPROCESSING_TASKS + j);
            assert_eq!(deps.len(), 1);
            assert!((deps[0] as usize) < PREPROCESSING_TASKS);
        }
        // Accumulating deps partition the processing tasks.
        let mut covered = std::collections::HashSet::new();
        for k in 0..ACCUMULATING_TASKS {
            for &d in wf.deps_of(PREPROCESSING_TASKS + PROCESSING_TASKS + k) {
                assert!(covered.insert(d), "processing task {d} merged twice");
                let idx = d as usize;
                assert!(
                    (PREPROCESSING_TASKS..PREPROCESSING_TASKS + PROCESSING_TASKS).contains(&idx)
                );
            }
        }
        assert_eq!(covered.len(), PROCESSING_TASKS);
        // Preprocessing tasks are roots.
        for i in 0..PREPROCESSING_TASKS {
            assert!(wf.deps_of(i).is_empty());
        }
    }

    #[test]
    fn determinism_and_custom_sizes() {
        assert_eq!(
            PaperWorkflow::TopEft.build(6).tasks,
            PaperWorkflow::TopEft.build(6).tasks
        );
        let big = PaperWorkflow::TopEft
            .spec(7)
            .category_tasks(vec![100, 12_000, 50])
            .materialize()
            .unwrap();
        assert_eq!(big.len(), 12_150);
        big.validate().unwrap();
    }
}
