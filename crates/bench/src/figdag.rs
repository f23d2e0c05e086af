//! The critical-path sensitivity experiment behind `tora experiments fig-dag`.
//!
//! Task-oriented allocation is structure-blind — the paper's estimators
//! see a stream of (category, peak) records and never the dependency
//! graph. This experiment measures what that blindness costs: the same
//! allocation error injected on vs off the critical path of a
//! depth-dominated diamond, with everything else held symmetric. The
//! directional result (on-path errors inflate the makespan more) is
//! asserted by the test here; the rendered table and `fig_dag.json` are
//! committed under `results/` and pinned byte for byte.

use serde::Serialize;
use tora_alloc::allocator::AlgorithmKind;
use tora_alloc::resources::{ResourceKind, ResourceVector, WorkerSpec};
use tora_alloc::task::TaskSpec;
use tora_metrics::Table;
use tora_sim::{simulate, ChurnConfig, SimConfig};
use tora_workloads::Workflow;

use crate::artifact::{Artifact, ExperimentConfig};

/// One row of the critical-path sensitivity experiment (`fig-dag`): a
/// diamond-shaped workflow where the *same* allocation error is injected
/// either into the critical chain or into the slackest parallel chain.
/// Task-oriented allocation is structure-blind; this row quantifies what
/// that blindness costs when the error lands on the path that sets the
/// makespan.
#[derive(Debug, Clone, Serialize)]
pub struct FigDagRow {
    /// Allocator under test.
    pub algorithm: String,
    /// `baseline`, `on-path` (critical-chain victims), or `off-path`
    /// (shallow-chain victims).
    pub scenario: String,
    /// Task count of the diamond workflow.
    pub tasks: usize,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// `makespan_s / baseline makespan_s` for the same algorithm.
    pub makespan_vs_baseline: f64,
    /// Submit-time longest path through the DAG, seconds.
    pub longest_path_s: f64,
    /// Realized critical-path span (first submit → last on-path finish).
    pub realized_s: f64,
    /// `realized_s / longest_path_s`.
    pub inflation: f64,
    /// Waste charged to tasks on the submit-time critical path, MB·s.
    pub on_path_waste_mb_s: f64,
    /// Waste charged to everything else, MB·s.
    pub off_path_waste_mb_s: f64,
}

/// Clone `wf` with the memory peaks of `victims` inflated to 95% of the
/// worker's capacity — a task the estimator will badly under-allocate until
/// the exhaustion-retry ladder reaches it. Dependencies are preserved.
fn inflate_peaks(wf: &Workflow, victims: &[u64]) -> Workflow {
    let target = wf.worker.capacity.memory_mb() * 0.95;
    let mut tasks = wf.tasks.clone();
    for &t in victims {
        let peak = &mut tasks[t as usize].peak;
        if peak[ResourceKind::MemoryMb] < target {
            peak[ResourceKind::MemoryMb] = target;
        }
    }
    Workflow::new(wf.name.clone(), wf.categories.clone(), tasks, wf.worker)
        .with_dependencies(wf.dependencies.clone())
}

/// The depth-dominated diamond behind `fig-dag`: one source, a deep chain
/// (`DEEP` tasks — the critical path), a shallow chain (`SHALLOW` tasks —
/// pure float), one sink, every task an identical 50 s / 4 GB spec in one
/// category. Uniform specs are the point: the two chains differ *only* in
/// depth, so a victim set of `SHALLOW` tasks costs the estimator exactly
/// the same retries wherever it lands, and any makespan asymmetry between
/// the scenarios is attributable to structure alone.
fn fig_dag_workflow() -> Workflow {
    const DEEP: usize = 24;
    const SHALLOW: usize = 8;
    let n = DEEP + SHALLOW + 2;
    let peak = ResourceVector::new(2.0, 4.0 * 1024.0, 1024.0);
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(i as u64, 0, peak, 50.0))
        .collect();
    // Task ids: 0 = source, 1..=DEEP = deep chain, DEEP+1..=DEEP+SHALLOW =
    // shallow chain, n-1 = sink.
    let deps: Vec<Vec<u64>> = (0..n)
        .map(|i| match i {
            0 => Vec::new(),
            _ if i == DEEP + 1 => vec![0], // shallow chain starts at the source
            _ if i == n - 1 => vec![DEEP as u64, (DEEP + SHALLOW) as u64],
            _ => vec![(i - 1) as u64],
        })
        .collect();
    Workflow::new(
        "fig-dag-diamond",
        vec!["work".to_string()],
        tasks,
        WorkerSpec::paper_default(),
    )
    .with_dependencies(deps)
}

/// The critical-path sensitivity experiment: a depth-dominated diamond
/// (one chain three times deeper than the other) where the same allocation
/// error — eight tasks whose true memory peak is 95% of the worker, so the
/// estimator under-allocates them until the exhaustion-retry ladder climbs
/// to them — is injected either into the middle of the critical chain or
/// into the shallow chain. The victim sets have identical sizes, specs,
/// and retry cost; only their structural position differs. On the critical
/// chain the retries extend the path that sets the makespan, on the
/// shallow chain its float absorbs them. The asymmetry is the figure.
pub fn fig_dag_rows(seed: u64) -> Vec<FigDagRow> {
    let wf = fig_dag_workflow();
    let sink = wf.len() as u64 - 1;

    // Sanity-check the structure against the generic longest-path walk:
    // the deep chain (tasks 1..=24) is the submit-time critical path.
    let (_, critical) = tora_workloads::dag::longest_path(&wf);
    assert_eq!(critical.len(), 26, "deep chain + source + sink");

    // Victims: eight mid-chain tasks of the deep chain vs the whole
    // shallow chain (tasks 25..=32).
    let on_path: Vec<u64> = (9..17).collect();
    let off_path: Vec<u64> = (25..33).collect();
    debug_assert!(on_path.iter().all(|t| critical.contains(t)));
    debug_assert!(off_path.iter().all(|t| !critical.contains(t) && *t < sink));

    let scenarios: [(&str, Workflow); 3] = [
        ("baseline", wf.clone()),
        ("on-path", inflate_peaks(&wf, &on_path)),
        ("off-path", inflate_peaks(&wf, &off_path)),
    ];
    let config = SimConfig {
        churn: ChurnConfig::fixed(16),
        ..SimConfig::paper_like(seed)
    };
    let mut rows = Vec::new();
    for algorithm in [
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
    ] {
        let mut baseline_makespan = f64::NAN;
        for (scenario, wf) in &scenarios {
            let result = simulate(wf, algorithm, config);
            let cp = result
                .stats
                .critical_path
                .expect("structured runs carry critical-path stats");
            if *scenario == "baseline" {
                baseline_makespan = result.makespan_s;
            }
            rows.push(FigDagRow {
                algorithm: algorithm.label().to_string(),
                scenario: scenario.to_string(),
                tasks: wf.len(),
                makespan_s: result.makespan_s,
                makespan_vs_baseline: result.makespan_s / baseline_makespan.max(f64::MIN_POSITIVE),
                longest_path_s: cp.longest_path_s,
                realized_s: cp.realized_s,
                inflation: cp.inflation,
                on_path_waste_mb_s: cp.on_path_waste_mb_s,
                off_path_waste_mb_s: cp.off_path_waste_mb_s,
            });
        }
    }
    rows
}

/// The `fig-dag` artifact: [`fig_dag_rows`] as a table, with the raw rows
/// as `fig_dag.json`.
pub fn fig_dag(config: &ExperimentConfig) -> Artifact {
    let rows = fig_dag_rows(config.seed);
    let mut artifact = Artifact::default();
    let mut t = Table::new(
        "fig_dag: critical-path sensitivity (depth-dominated diamond)",
        &[
            "algorithm",
            "scenario",
            "makespan (s)",
            "vs baseline",
            "inflation",
            "waste on/off path (MB·s)",
        ],
    );
    for r in &rows {
        t.row(&[
            r.algorithm.clone(),
            r.scenario.clone(),
            format!("{:.1}", r.makespan_s),
            format!("{:.3}×", r.makespan_vs_baseline),
            format!("{:.2}×", r.inflation),
            format!("{:.0} / {:.0}", r.on_path_waste_mb_s, r.off_path_waste_mb_s),
        ]);
    }
    artifact.table(&t);
    artifact.json("fig_dag.json", &rows);
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The point of the fig-dag experiment: the same allocation error costs more
    /// makespan on the critical chain than on the slackest chain. This is
    /// the acceptance criterion of the DAG milestone — assert it
    /// directionally per algorithm, not just that the numbers exist.
    #[test]
    fn fig_dag_shows_on_path_errors_hurt_more() {
        let rows = fig_dag_rows(7);
        assert_eq!(rows.len(), 6);
        for algorithm in ["greedy-bucketing", "exhaustive-bucketing"] {
            let find = |scenario: &str| {
                rows.iter()
                    .find(|r| r.algorithm == algorithm && r.scenario == scenario)
                    .unwrap_or_else(|| panic!("{algorithm}/{scenario} row missing"))
            };
            let baseline = find("baseline");
            let on = find("on-path");
            let off = find("off-path");
            assert!(baseline.longest_path_s > 0.0, "{baseline:?}");
            assert!((baseline.makespan_vs_baseline - 1.0).abs() < 1e-9);
            // Both error scenarios burn retries somewhere, but only the
            // on-path one spends them on the chain that sets the makespan.
            assert!(
                on.makespan_vs_baseline > off.makespan_vs_baseline,
                "{algorithm}: on-path {:.3} !> off-path {:.3}",
                on.makespan_vs_baseline,
                off.makespan_vs_baseline
            );
            // The inflated critical chain also shows up in the realized
            // path: it stretches relative to its submit-time bound.
            assert!(
                on.inflation >= baseline.inflation,
                "{algorithm}: on-path inflation {:.3} < baseline {:.3}",
                on.inflation,
                baseline.inflation
            );
        }
    }
}
