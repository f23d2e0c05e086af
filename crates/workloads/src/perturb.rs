//! Workflow perturbations for robustness experiments.
//!
//! §II-D2 (*external stochasticity*) argues allocators must survive
//! workflows that *change between runs*: input-distribution shifts, software
//! updates, noisy shared infrastructure. These transformations synthesize
//! such changes from a base trace, so the ablation harness can measure how
//! gracefully each algorithm degrades:
//!
//! * [`jitter`] — multiplicative log-normal noise per task (noisy shared
//!   nodes);
//! * [`shuffle`] — permute submission order (arbitrary execution order);
//! * [`phase_shift`] — swap the halves of the submission order (a phase
//!   structure the recency weighting must re-learn);
//! * [`inject_outliers`] — give a random subset of tasks a multiplied
//!   footprint (stragglers / pathological inputs).

use crate::workflow::Workflow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tora_alloc::resources::ResourceKind;
use tora_alloc::task::TaskSpec;

/// Re-number tasks 0..n in their (new) submission order.
fn renumber(mut tasks: Vec<TaskSpec>) -> Vec<TaskSpec> {
    for (i, t) in tasks.iter_mut().enumerate() {
        t.id = tora_alloc::task::TaskId(i as u64);
    }
    tasks
}

fn rebuild(base: &Workflow, suffix: &str, tasks: Vec<TaskSpec>) -> Workflow {
    Workflow::new(
        format!("{}-{suffix}", base.name),
        base.categories.clone(),
        renumber(tasks),
        base.worker,
    )
}

/// Apply multiplicative log-normal noise (`sigma` in log space) to every
/// managed dimension of every task, independently.
pub fn jitter(base: &Workflow, sigma: f64, seed: u64) -> Workflow {
    assert!(sigma >= 0.0 && sigma.is_finite());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x717_7E4);
    let cap = base.worker.capacity;
    let tasks = base
        .tasks
        .iter()
        .map(|t| {
            let mut peak = t.peak;
            for kind in ResourceKind::STANDARD {
                let noise = crate::dist::lognormal(&mut rng, 0.0, sigma);
                peak[kind] = (peak[kind] * noise).min(cap[kind]).max(1e-3);
            }
            TaskSpec { peak, ..*t }
        })
        .collect();
    rebuild(base, "jittered", tasks)
}

/// Permute the submission order uniformly at random (Fisher–Yates).
pub fn shuffle(base: &Workflow, seed: u64) -> Workflow {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5_4FF1E);
    let mut tasks = base.tasks.clone();
    for i in (1..tasks.len()).rev() {
        let j = rng.gen_range(0..=i);
        tasks.swap(i, j);
    }
    rebuild(base, "shuffled", tasks)
}

/// Swap the first and second halves of the submission order — an abrupt
/// phase change mid-run.
pub fn phase_shift(base: &Workflow) -> Workflow {
    let mid = base.tasks.len() / 2;
    let mut tasks: Vec<TaskSpec> = base.tasks[mid..].to_vec();
    tasks.extend_from_slice(&base.tasks[..mid]);
    rebuild(base, "phase-shifted", tasks)
}

/// Multiply the peak of a random `fraction` of tasks by `factor` (clamped to
/// capacity) — injected stragglers.
pub fn inject_outliers(base: &Workflow, fraction: f64, factor: f64, seed: u64) -> Workflow {
    assert!((0.0..=1.0).contains(&fraction));
    assert!(factor >= 1.0 && factor.is_finite());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0007_11e5);
    let cap = base.worker.capacity;
    let tasks = base
        .tasks
        .iter()
        .map(|t| {
            if rng.gen::<f64>() < fraction {
                let mut peak = t.peak;
                for kind in ResourceKind::STANDARD {
                    peak[kind] = (peak[kind] * factor).min(cap[kind]);
                }
                TaskSpec { peak, ..*t }
            } else {
                *t
            }
        })
        .collect();
    rebuild(base, "outliers", tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticKind;

    fn base() -> Workflow {
        SyntheticKind::Normal
            .catalog_workflow()
            .spec(5)
            .tasks(100)
            .materialize()
            .unwrap()
    }

    #[test]
    fn jitter_preserves_validity_and_changes_values() {
        let wf = base();
        let jittered = jitter(&wf, 0.2, 1);
        jittered.validate().unwrap();
        let changed = wf
            .tasks
            .iter()
            .zip(&jittered.tasks)
            .filter(|(a, b)| a.peak != b.peak)
            .count();
        assert!(changed > 90, "only {changed} tasks changed");
        // Zero sigma is identity on the peaks.
        let same = jitter(&wf, 0.0, 1);
        for (a, b) in wf.tasks.iter().zip(&same.tasks) {
            assert!((a.peak.memory_mb() - b.peak.memory_mb()).abs() < 1e-9);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let wf = base();
        let shuffled = shuffle(&wf, 7);
        shuffled.validate().unwrap();
        let mut a: Vec<f64> = wf.tasks.iter().map(|t| t.peak.memory_mb()).collect();
        let mut b: Vec<f64> = shuffled.tasks.iter().map(|t| t.peak.memory_mb()).collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
        // Ids renumbered in the new order.
        for (i, t) in shuffled.tasks.iter().enumerate() {
            assert_eq!(t.id.0, i as u64);
        }
        assert_ne!(
            wf.tasks
                .iter()
                .map(|t| t.peak.memory_mb())
                .collect::<Vec<_>>(),
            shuffled
                .tasks
                .iter()
                .map(|t| t.peak.memory_mb())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn phase_shift_swaps_halves() {
        let wf = SyntheticKind::PhasingTrimodal
            .catalog_workflow()
            .spec(2)
            .tasks(90)
            .materialize()
            .unwrap();
        let shifted = phase_shift(&wf);
        shifted.validate().unwrap();
        assert_eq!(shifted.tasks[0].peak, wf.tasks[45].peak);
        assert_eq!(shifted.tasks[45].peak, wf.tasks[0].peak);
        assert_eq!(shifted.len(), wf.len());
    }

    #[test]
    fn outliers_affect_roughly_the_requested_fraction() {
        let wf = base();
        let spiked = inject_outliers(&wf, 0.1, 4.0, 3);
        spiked.validate().unwrap();
        let changed = wf
            .tasks
            .iter()
            .zip(&spiked.tasks)
            .filter(|(a, b)| a.peak != b.peak)
            .count();
        assert!((4..=20).contains(&changed), "{changed} outliers");
        // All changed tasks grew.
        for (a, b) in wf.tasks.iter().zip(&spiked.tasks) {
            assert!(b.peak.dominates(&a.peak.min(&b.peak)));
        }
    }
}
