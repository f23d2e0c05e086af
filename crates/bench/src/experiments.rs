//! The experiment matrix shared by the Figure 5 and 6 artifacts.
//!
//! One *cell* is (workflow × algorithm): the workflow is executed through the
//! discrete-event engine on an opportunistic pool (the paper's setting —
//! §V-A: 20–50 workers of 16 cores / 64 GB / 64 GB), and the cell keeps the
//! §II-C accounting for all three resource dimensions. Figure 5 reads the
//! AWE values out of the cells; Figure 6 reads the waste breakdown.
//!
//! The bucketing algorithms run through their prefix-sum kernels here (the
//! production default); the paper-faithful quadratic scans are exercised by
//! the Table I artifact, whose *subject* is that compute cost. Cells fan
//! across cores via [`crate::pool::run_parallel`].

use serde::{Deserialize, Serialize};
use tora_alloc::allocator::AlgorithmKind;
use tora_alloc::resources::ResourceKind;
use tora_metrics::WasteBreakdown;
use tora_sim::{simulate, ChurnConfig, SimConfig};
use tora_workloads::PaperWorkflow;

/// Per-dimension numbers of one cell.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DimensionStats {
    /// The dimension.
    pub kind: ResourceKind,
    /// Absolute Workflow Efficiency.
    pub awe: f64,
    /// Total consumption `Σ C(Tᵢ)` (resource·seconds).
    pub consumption: f64,
    /// Total allocation `Σ A(Tᵢ)` (resource·seconds).
    pub allocation: f64,
    /// Waste split.
    pub waste: WasteBreakdown,
}

/// One (workflow × algorithm) cell of the evaluation matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixCell {
    /// The workflow.
    pub workflow: PaperWorkflow,
    /// The algorithm.
    pub algorithm: AlgorithmKind,
    /// Cores / memory / disk stats.
    pub dims: Vec<DimensionStats>,
    /// Total failed allocations across tasks.
    pub retries: usize,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Observed worker-pool band.
    pub worker_range: (usize, usize),
}

impl MatrixCell {
    /// Stats of one dimension.
    pub fn dim(&self, kind: ResourceKind) -> &DimensionStats {
        self.dims
            .iter()
            .find(|d| d.kind == kind)
            .expect("standard dimension present")
    }
}

/// Matrix configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// Seed for workload generation, allocation sampling and churn.
    pub seed: u64,
    /// Worker-pool behaviour (paper-like churn by default).
    pub churn: ChurnConfig,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            seed: 42,
            churn: ChurnConfig::paper_like(),
        }
    }
}

/// Run one cell.
pub fn run_cell(
    workflow: PaperWorkflow,
    algorithm: AlgorithmKind,
    config: &MatrixConfig,
) -> MatrixCell {
    let wf = workflow.build(config.seed);
    let sim_config = SimConfig {
        churn: config.churn,
        ..SimConfig::paper_like(config.seed)
    };
    let result = simulate(&wf, algorithm, sim_config);
    let dims = ResourceKind::STANDARD
        .iter()
        .map(|&kind| DimensionStats {
            kind,
            awe: result.metrics.awe(kind).unwrap_or(0.0),
            consumption: result.metrics.total_consumption(kind),
            allocation: result.metrics.total_allocation(kind),
            waste: result.metrics.waste(kind),
        })
        .collect();
    MatrixCell {
        workflow,
        algorithm,
        dims,
        retries: result.metrics.total_retries(),
        makespan_s: result.makespan_s,
        worker_range: result.worker_range,
    }
}

/// Run an arbitrary sub-matrix on the job pool; cells come back in
/// (workflow, algorithm) order.
pub fn run_matrix_for(
    workflows: &[PaperWorkflow],
    algorithms: &[AlgorithmKind],
    config: &MatrixConfig,
) -> Vec<MatrixCell> {
    let pairs: Vec<(PaperWorkflow, AlgorithmKind)> = workflows
        .iter()
        .flat_map(|&w| algorithms.iter().map(move |&a| (w, a)))
        .collect();
    crate::pool::run_parallel(&pairs, |&(w, a)| run_cell(w, a, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_parallel_on;

    #[test]
    fn single_cell_runs_and_reports_three_dims() {
        let config = MatrixConfig {
            seed: 1,
            churn: ChurnConfig::fixed(10),
        };
        let cell = run_cell(
            PaperWorkflow::Normal,
            AlgorithmKind::ExhaustiveBucketing,
            &config,
        );
        assert_eq!(cell.dims.len(), 3);
        for kind in ResourceKind::STANDARD {
            let d = cell.dim(kind);
            assert!(d.awe > 0.0 && d.awe <= 1.0, "{kind}: {}", d.awe);
            assert!(d.allocation >= d.consumption);
            // AWE consistency with the raw totals.
            assert!((d.awe - d.consumption / d.allocation).abs() < 1e-12);
        }
    }

    #[test]
    fn sub_matrix_covers_all_pairs() {
        let config = MatrixConfig {
            seed: 2,
            churn: ChurnConfig::fixed(10),
        };
        let cells = run_matrix_for(
            &[PaperWorkflow::Uniform, PaperWorkflow::Bimodal],
            &[AlgorithmKind::WholeMachine, AlgorithmKind::MaxSeen],
            &config,
        );
        assert_eq!(cells.len(), 4);
        let keys: std::collections::HashSet<_> = cells
            .iter()
            .map(|c| (c.workflow.name(), c.algorithm.label()))
            .collect();
        assert_eq!(keys.len(), 4);
    }

    /// Thread count changes wall-clock time only: the same sub-matrix run
    /// sequentially and on four workers serializes to identical JSON.
    #[test]
    fn sequential_and_parallel_matrix_runs_are_identical() {
        let workflows = [PaperWorkflow::Uniform, PaperWorkflow::Bimodal];
        let algorithms = [
            AlgorithmKind::MaxSeen,
            AlgorithmKind::GreedyBucketing,
            AlgorithmKind::ExhaustiveBucketing,
        ];
        let config = MatrixConfig {
            seed: 7,
            ..MatrixConfig::default()
        };
        let pairs: Vec<(PaperWorkflow, AlgorithmKind)> = workflows
            .iter()
            .flat_map(|&w| algorithms.iter().map(move |&a| (w, a)))
            .collect();
        let run_on = |threads| run_parallel_on(&pairs, threads, |&(w, a)| run_cell(w, a, &config));
        let sequential = run_on(1);
        let parallel = run_on(4);
        assert_eq!(sequential.len(), 6);
        assert_eq!(
            serde_json::to_string(&sequential).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}
