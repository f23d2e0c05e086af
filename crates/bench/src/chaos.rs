//! The fault-rate degradation sweep behind `tora experiments chaos-sweep`.
//!
//! Runs a workload under [`FaultPlan::with_intensity`] at a series of fault
//! rates, for GB and EB, and records how the §II-C efficiency degrades:
//! headline AWE over completed tasks, the degraded-mode AWE that also
//! charges dead-lettered consumption, and the fault-vs-allocation waste
//! attribution. This is the resilience analogue of the Figure 5 matrix —
//! the paper's algorithms are only useful if their efficiency edge survives
//! an unreliable pool.

use serde::{Deserialize, Serialize};
use tora_alloc::allocator::AlgorithmKind;
use tora_alloc::resources::ResourceKind;
use tora_metrics::{pct, Table};
use tora_sim::{simulate, ChurnConfig, FaultPlan, SimConfig};
use tora_workloads::PaperWorkflow;

use crate::artifact::{Artifact, ExperimentConfig};

/// One (algorithm × fault-rate) cell of the degradation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosCell {
    /// The algorithm.
    pub algorithm: AlgorithmKind,
    /// The intensity knob handed to [`FaultPlan::with_intensity`].
    pub fault_rate: f64,
    /// Tasks submitted / completed / dead-lettered.
    pub submitted: u64,
    /// Completed tasks.
    pub completed: u64,
    /// Dead-lettered tasks (final count, after any replays).
    pub dead_lettered: u64,
    /// Dead letters re-admitted after the pool recovered.
    #[serde(default)]
    pub replayed: u64,
    /// Replayed tasks that went on to complete.
    #[serde(default)]
    pub replay_successes: u64,
    /// Memory AWE over completed tasks.
    pub awe_memory: f64,
    /// Memory AWE charging dead-lettered consumption too.
    pub degraded_awe_memory: f64,
    /// Fault-induced memory waste (crash/timeout attempts + straggler drag).
    pub fault_waste_memory: f64,
    /// Allocation-induced memory waste (IF + FA minus the fault share).
    pub alloc_waste_memory: f64,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
}

/// The default rate axis of the sweep.
pub const DEFAULT_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// Sweep GB and EB across `rates`, fanning cells over cores.
pub fn run_chaos_sweep(rates: &[f64], seed: u64) -> Vec<ChaosCell> {
    let algorithms = [
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
    ];
    let pairs: Vec<(AlgorithmKind, f64)> = algorithms
        .iter()
        .flat_map(|&a| rates.iter().map(move |&r| (a, r)))
        .collect();
    crate::pool::run_parallel(&pairs, |&(algorithm, rate)| {
        run_chaos_cell(algorithm, rate, seed)
    })
}

/// Run one cell of the sweep.
pub fn run_chaos_cell(algorithm: AlgorithmKind, fault_rate: f64, seed: u64) -> ChaosCell {
    let wf = PaperWorkflow::Bimodal.build(seed);
    let config = SimConfig {
        churn: ChurnConfig::paper_like(),
        faults: FaultPlan::with_intensity(fault_rate),
        ..SimConfig::paper_like(seed)
    };
    let result = simulate(&wf, algorithm, config);
    let kind = ResourceKind::MemoryMb;
    let attribution = result.metrics.attributed_waste(kind);
    ChaosCell {
        algorithm,
        fault_rate,
        submitted: result.stats.submitted,
        completed: result.stats.completions,
        dead_lettered: result.stats.faults.dead_lettered,
        replayed: result.stats.faults.replayed,
        replay_successes: result.stats.faults.replay_successes,
        awe_memory: result.metrics.awe(kind).unwrap_or(0.0),
        degraded_awe_memory: result.metrics.degraded_awe(kind).unwrap_or(0.0),
        fault_waste_memory: attribution.fault_induced,
        alloc_waste_memory: attribution.allocation_induced,
        makespan_s: result.makespan_s,
    }
}

/// The sweep over [`DEFAULT_RATES`] as a table: per algorithm and rate,
/// the completed/dead-lettered/replayed split, the headline and
/// degraded-mode memory AWE, and the fault-vs-allocation waste attribution.
/// Panics if any cell breaks conservation (`submitted = completed +
/// dead-lettered`) or recovers more tasks than it replayed.
pub fn chaos_sweep(config: &ExperimentConfig) -> Artifact {
    let seed = config.seed;
    let cells = run_chaos_sweep(&DEFAULT_RATES, seed);
    let mut table = Table::new(
        format!("chaos sweep — memory AWE vs fault rate (seed {seed})"),
        &[
            "algorithm",
            "rate",
            "completed",
            "dead-lettered",
            "replayed",
            "recovered",
            "AWE",
            "AWE (degraded)",
            "fault waste",
            "alloc waste",
            "makespan",
        ],
    );
    for cell in &cells {
        assert_eq!(
            cell.submitted,
            cell.completed + cell.dead_lettered,
            "conservation violated at {:?} rate {}",
            cell.algorithm,
            cell.fault_rate
        );
        assert!(
            cell.replay_successes <= cell.replayed,
            "replay accounting violated at {:?} rate {}",
            cell.algorithm,
            cell.fault_rate
        );
        table.row(&[
            cell.algorithm.label().to_string(),
            format!("{:.2}", cell.fault_rate),
            cell.completed.to_string(),
            cell.dead_lettered.to_string(),
            cell.replayed.to_string(),
            cell.replay_successes.to_string(),
            pct(cell.awe_memory),
            pct(cell.degraded_awe_memory),
            format!("{:.3e}", cell.fault_waste_memory),
            format!("{:.3e}", cell.alloc_waste_memory),
            format!("{:.0} s", cell.makespan_s),
        ]);
    }
    let mut text = table.render();
    text.push_str(
        "conservation OK: submitted = completed + dead-lettered \
         (and recovered <= replayed) in every cell\n",
    );
    Artifact {
        text,
        files: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_cell_matches_fault_free_run() {
        let cell = run_chaos_cell(AlgorithmKind::GreedyBucketing, 0.0, 5);
        assert_eq!(cell.dead_lettered, 0);
        assert_eq!(cell.submitted, cell.completed);
        assert!((cell.awe_memory - cell.degraded_awe_memory).abs() < 1e-12);
        assert_eq!(cell.fault_waste_memory, 0.0);
    }

    #[test]
    fn sweep_covers_all_pairs_and_conserves_tasks() {
        let cells = run_chaos_sweep(&[0.0, 0.2], 9);
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert_eq!(
                cell.submitted,
                cell.completed + cell.dead_lettered,
                "{:?} rate {}",
                cell.algorithm,
                cell.fault_rate
            );
            assert!(cell.awe_memory > 0.0);
            assert!(cell.degraded_awe_memory <= cell.awe_memory + 1e-12);
        }
    }

    #[test]
    fn faults_induce_fault_attributed_waste() {
        let cell = run_chaos_cell(AlgorithmKind::ExhaustiveBucketing, 0.3, 11);
        assert!(cell.fault_waste_memory > 0.0, "{cell:?}");
    }

    #[test]
    fn heavy_chaos_replays_and_recovers_some_tasks() {
        // `with_intensity` enables dead-letter replay at any nonzero rate;
        // under heavy chaos the recovered pool must actually win back work.
        let cell = run_chaos_cell(AlgorithmKind::GreedyBucketing, 0.3, 11);
        assert!(cell.replayed > 0, "{cell:?}");
        assert!(cell.replay_successes > 0, "{cell:?}");
        assert!(cell.replay_successes <= cell.replayed);
        // Conservation uses the *final* dead-letter count, so it is
        // unchanged by replay bookkeeping.
        assert_eq!(cell.submitted, cell.completed + cell.dead_lettered);
    }
}
