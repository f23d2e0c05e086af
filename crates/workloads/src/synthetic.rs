//! The five synthetic workflows of §V-B (Figure 4).
//!
//! Each workflow holds 1000 tasks of a *single* category — the paper's
//! worst case, where a category's internal spread is the whole story — and
//! samples every task's resource consumption from a characteristic
//! distribution:
//!
//! * **Normal** and **Uniform** — common randomness;
//! * **Exponential** — outliers;
//! * **Bimodal** — specialization of tasks;
//! * **Phasing Trimodal** — a moving resource distribution across three
//!   consecutive phases.
//!
//! Per §V-B, disk follows the same distribution as memory (sampled
//! independently) and cores follow a slightly different (rescaled) one.

use crate::catalog::PaperWorkflow;
use crate::dist::{lognormal, Dist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tora_alloc::resources::{ResourceVector, WorkerSpec};
use tora_alloc::task::TaskSpec;

/// Task count used by every §V-B synthetic workflow.
pub const PAPER_TASK_COUNT: usize = 1000;

/// Which synthetic workflow to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyntheticKind {
    /// Memory ~ Normal(4000 MB, 800 MB).
    Normal,
    /// Memory ~ Uniform(1000 MB, 8000 MB).
    Uniform,
    /// Memory ~ 500 MB + Exponential(mean 2000 MB) — heavy right tail.
    Exponential,
    /// Memory ~ ½·N(2000, 250) + ½·N(6000, 400).
    Bimodal,
    /// Three consecutive phases: N(2000, 250) → N(5000, 350) → N(8000, 450).
    PhasingTrimodal,
}

impl SyntheticKind {
    /// All five, in Figure 4/5 order.
    pub const ALL: [SyntheticKind; 5] = [
        SyntheticKind::Normal,
        SyntheticKind::Uniform,
        SyntheticKind::Exponential,
        SyntheticKind::Bimodal,
        SyntheticKind::PhasingTrimodal,
    ];

    /// Workflow name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SyntheticKind::Normal => "normal",
            SyntheticKind::Uniform => "uniform",
            SyntheticKind::Exponential => "exponential",
            SyntheticKind::Bimodal => "bimodal",
            SyntheticKind::PhasingTrimodal => "trimodal",
        }
    }

    /// The memory/disk distribution (MB) for a task at position `index` of
    /// `n` (the index only matters for the phasing workflow).
    ///
    /// Footprints sit in the single-digit-GB range (cf. the §IV-A example,
    /// memory ~ N(8 GB, 2 GB)): a couple of doublings above the 1 GB
    /// exploratory probe, and far enough below the 64 GB worker that the
    /// comparators' whole-machine exploration is costly but not fatal. The
    /// Exponential tail reaches tens of GB, supplying the outliers that make
    /// that workflow the hardest.
    fn memory_dist(self, index: usize, n: usize) -> Dist {
        match self {
            SyntheticKind::Normal => Dist::Normal {
                mean: 4000.0,
                std_dev: 800.0,
                min: 100.0,
            },
            SyntheticKind::Uniform => Dist::Uniform {
                lo: 1000.0,
                hi: 8000.0,
            },
            SyntheticKind::Exponential => Dist::Exponential {
                offset: 500.0,
                mean: 2000.0,
                max: 60_000.0,
            },
            SyntheticKind::Bimodal => Dist::Bimodal {
                p_low: 0.5,
                low_mean: 2000.0,
                low_std: 250.0,
                high_mean: 6000.0,
                high_std: 400.0,
                min: 100.0,
            },
            SyntheticKind::PhasingTrimodal => {
                let (mean, std_dev) = match 3 * index / n.max(1) {
                    0 => (2000.0, 250.0),
                    1 => (5000.0, 350.0),
                    _ => (8000.0, 450.0),
                };
                Dist::Normal {
                    mean,
                    std_dev,
                    min: 100.0,
                }
            }
        }
    }

    /// The cores distribution for a task at position `index` of `n` — the
    /// memory shape rescaled into the fractional-core range (§V-B: "cores
    /// have a slightly different distribution").
    fn cores_dist(self, index: usize, n: usize) -> Dist {
        match self {
            SyntheticKind::Normal => Dist::Normal {
                mean: 2.0,
                std_dev: 0.4,
                min: 0.1,
            },
            SyntheticKind::Uniform => Dist::Uniform { lo: 0.5, hi: 4.0 },
            SyntheticKind::Exponential => Dist::Exponential {
                offset: 0.25,
                mean: 2.5,
                max: 16.0,
            },
            SyntheticKind::Bimodal => Dist::Bimodal {
                p_low: 0.5,
                low_mean: 1.0,
                low_std: 0.15,
                high_mean: 3.0,
                high_std: 0.3,
                min: 0.1,
            },
            SyntheticKind::PhasingTrimodal => {
                let (mean, std_dev) = match 3 * index / n.max(1) {
                    0 => (1.0, 0.12),
                    1 => (2.0, 0.2),
                    _ => (3.0, 0.3),
                };
                Dist::Normal {
                    mean,
                    std_dev,
                    min: 0.1,
                }
            }
        }
    }
}

impl SyntheticKind {
    /// The catalog entry this distribution backs.
    pub fn catalog_workflow(self) -> PaperWorkflow {
        match self {
            SyntheticKind::Normal => PaperWorkflow::Normal,
            SyntheticKind::Uniform => PaperWorkflow::Uniform,
            SyntheticKind::Exponential => PaperWorkflow::Exponential,
            SyntheticKind::Bimodal => PaperWorkflow::Bimodal,
            SyntheticKind::PhasingTrimodal => PaperWorkflow::Trimodal,
        }
    }
}

/// The dedicated synthetic-generation RNG stream for a seed.
pub(crate) fn stream_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5EED_0000)
}

/// Sample task `index` of `n` — the single canonical draw order (memory,
/// disk, cores, duration) shared by the materialized and streaming paths.
pub(crate) fn sample_task(
    kind: SyntheticKind,
    index: usize,
    n: usize,
    worker: &WorkerSpec,
    rng: &mut StdRng,
) -> TaskSpec {
    let mem = kind.memory_dist(index, n).sample(rng);
    let disk = kind.memory_dist(index, n).sample(rng);
    let cores = kind.cores_dist(index, n).sample(rng);
    // Durations: log-normal around ~60 s, clamped to [5 s, 600 s].
    let duration = lognormal(rng, 60.0f64.ln(), 0.5).clamp(5.0, 600.0);
    let peak = ResourceVector::new(cores, mem, disk).clamp_to(&worker.capacity);
    TaskSpec::new(index as u64, 0, peak, duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tora_alloc::resources::ResourceKind;

    #[test]
    fn all_five_generate_valid_paper_workflows() {
        for kind in SyntheticKind::ALL {
            let wf = kind.catalog_workflow().spec(7).materialize().unwrap();
            assert_eq!(wf.len(), PAPER_TASK_COUNT, "{}", wf.name);
            assert_eq!(wf.categories.len(), 1);
            wf.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(11)
            .materialize()
            .unwrap();
        let b = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(11)
            .materialize()
            .unwrap();
        let c = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(12)
            .materialize()
            .unwrap();
        assert_eq!(a.tasks, b.tasks);
        assert_ne!(a.tasks, c.tasks);
    }

    #[test]
    fn normal_memory_centers_on_its_mean() {
        let wf = SyntheticKind::Normal
            .catalog_workflow()
            .spec(3)
            .materialize()
            .unwrap();
        let mean = wf.tasks.iter().map(|t| t.peak.memory_mb()).sum::<f64>() / wf.len() as f64;
        assert!((mean - 4000.0).abs() < 150.0, "mean {mean}");
    }

    #[test]
    fn exponential_has_heavy_tail() {
        let wf = SyntheticKind::Exponential
            .catalog_workflow()
            .spec(5)
            .materialize()
            .unwrap();
        let mems: Vec<f64> = wf.tasks.iter().map(|t| t.peak.memory_mb()).collect();
        let max = mems.iter().cloned().fold(0.0, f64::max);
        let mut sorted = mems.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            max > 4.0 * median,
            "expected outliers: max {max}, median {median}"
        );
    }

    #[test]
    fn bimodal_memory_has_two_clusters() {
        let wf = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(9)
            .materialize()
            .unwrap();
        let (low, high): (Vec<f64>, Vec<f64>) = wf
            .tasks
            .iter()
            .map(|t| t.peak.memory_mb())
            .partition(|&m| m < 4000.0);
        assert!(low.len() > 350 && high.len() > 350);
        // Hardly anything in the valley between the modes.
        let valley = wf
            .tasks
            .iter()
            .filter(|t| (3000.0..5000.0).contains(&t.peak.memory_mb()))
            .count();
        assert!(valley < 50, "valley count {valley}");
    }

    #[test]
    fn trimodal_phases_increase_in_order() {
        let wf = SyntheticKind::PhasingTrimodal
            .catalog_workflow()
            .spec(2)
            .materialize()
            .unwrap();
        let phase_mean = |lo: usize, hi: usize| {
            wf.tasks[lo..hi]
                .iter()
                .map(|t| t.peak.memory_mb())
                .sum::<f64>()
                / (hi - lo) as f64
        };
        let p1 = phase_mean(0, 333);
        let p2 = phase_mean(334, 666);
        let p3 = phase_mean(667, 1000);
        assert!((p1 - 2000.0).abs() < 120.0, "{p1}");
        assert!((p2 - 5000.0).abs() < 120.0, "{p2}");
        assert!((p3 - 8000.0).abs() < 120.0, "{p3}");
    }

    #[test]
    fn every_task_fits_the_worker() {
        for kind in SyntheticKind::ALL {
            let wf = kind.catalog_workflow().spec(1).materialize().unwrap();
            for t in &wf.tasks {
                assert!(wf.worker.capacity.dominates(&t.peak), "{}", t.id);
                assert!(t.peak[ResourceKind::Cores] > 0.0);
                assert!(t.duration_s >= 5.0 && t.duration_s <= 600.0);
            }
        }
    }

    #[test]
    fn custom_task_counts() {
        let wf = SyntheticKind::Uniform
            .catalog_workflow()
            .spec(4)
            .tasks(12_000)
            .materialize()
            .unwrap();
        assert_eq!(wf.len(), 12_000);
        wf.validate().unwrap();
    }
}
