//! Figures 2, 4, 5 and 6 of the paper's evaluation (§V).
//!
//! Figures 2 and 4 describe the workloads (per-task peaks of the two
//! production traces; memory distributions of the five synthetics).
//! Figures 5 and 6 run the (workflow × algorithm) matrix of
//! [`crate::experiments`] on a paper-like opportunistic pool and read the
//! AWE values and the waste breakdown out of the cells.

use std::fmt::Write as _;

use tora_alloc::allocator::AlgorithmKind;
use tora_alloc::resources::ResourceKind;
use tora_metrics::{pct, Table};
use tora_workloads::{PaperWorkflow, SyntheticKind, Workflow};

use crate::artifact::{Artifact, ExperimentConfig};
use crate::experiments::{run_cell, run_matrix_for, MatrixCell, MatrixConfig};
use crate::pool::run_parallel;

/// Figure 2: per-category summary statistics of every resource dimension
/// for ColmenaXTB and TopEFT, plus the full per-task scatter data as
/// `fig2_<workflow>.csv` (task id, category, cores, memory, disk, time) —
/// exactly the points the paper plots.
pub fn fig2(config: &ExperimentConfig) -> Artifact {
    let mut artifact = Artifact::default();
    for wf in [PaperWorkflow::ColmenaXtb, PaperWorkflow::TopEft] {
        let wf = wf.build(config.seed);
        let mut table = Table::new(
            format!("Figure 2 — {} task resource consumption", wf.name),
            &["category", "tasks", "resource", "min", "p50", "mean", "max"],
        );
        for (cat_idx, cat_name) in wf.categories.iter().enumerate() {
            let sorted = |value: &dyn Fn(&tora_alloc::task::TaskSpec) -> f64| {
                let mut values: Vec<f64> = wf
                    .tasks
                    .iter()
                    .filter(|t| t.category.0 as usize == cat_idx)
                    .map(value)
                    .collect();
                values.sort_by(|a, b| a.partial_cmp(b).unwrap());
                values
            };
            for kind in ResourceKind::STANDARD {
                push_stats(
                    &mut table,
                    cat_name,
                    kind.label(),
                    &sorted(&|t| t.peak[kind]),
                );
            }
            push_stats(&mut table, cat_name, "time(s)", &sorted(&|t| t.duration_s));
        }
        artifact.table(&table);

        let columns = [
            "task",
            "category",
            "cores",
            "memory_mb",
            "disk_mb",
            "time_s",
        ];
        let mut csv = Table::new("", &columns);
        for t in &wf.tasks {
            csv.row(&[
                t.id.0.to_string(),
                wf.category_name(t.category).to_string(),
                format!("{:.3}", t.peak.cores()),
                format!("{:.1}", t.peak.memory_mb()),
                format!("{:.1}", t.peak.disk_mb()),
                format!("{:.1}", t.duration_s),
            ]);
        }
        artifact.file(format!("fig2_{}.csv", wf.name), csv.to_csv());
    }
    artifact
}

fn push_stats(table: &mut Table, category: &str, resource: &str, sorted: &[f64]) {
    if sorted.is_empty() {
        return;
    }
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    table.row(&[
        category.to_string(),
        n.to_string(),
        resource.to_string(),
        format!("{:.2}", sorted[0]),
        format!("{:.2}", sorted[n / 2]),
        format!("{mean:.2}"),
        format!("{:.2}", sorted[n - 1]),
    ]);
}

/// Figure 4: a memory histogram sketch of each synthetic workflow, the
/// trimodal workflow's phase statistics (its signature), and the per-task
/// series as `fig4_<workflow>.csv`.
pub fn fig4(config: &ExperimentConfig) -> Artifact {
    let workflows = run_parallel(&SyntheticKind::ALL, |&kind| {
        (kind, kind.catalog_workflow().build(config.seed))
    });
    let mut artifact = Artifact::default();
    for (kind, wf) in &workflows {
        histogram(&mut artifact.text, wf, 16);
        if *kind == SyntheticKind::PhasingTrimodal {
            artifact.table(&phase_table(wf));
        }
        let mut csv = Table::new("", &["task", "memory_mb"]);
        for t in &wf.tasks {
            csv.row(&[t.id.0.to_string(), format!("{:.1}", t.peak.memory_mb())]);
        }
        artifact.file(format!("fig4_{}.csv", wf.name), csv.to_csv());
    }
    artifact
}

fn histogram(out: &mut String, wf: &Workflow, buckets: usize) {
    let values: Vec<f64> = wf.tasks.iter().map(|t| t.peak.memory_mb()).collect();
    let max = values.iter().cloned().fold(0.0, f64::max);
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let width = ((max - min) / buckets as f64).max(1.0);
    let mut counts = vec![0usize; buckets];
    for &v in &values {
        let idx = (((v - min) / width) as usize).min(buckets - 1);
        counts[idx] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let _ = writeln!(
        out,
        "== Figure 4 — {} (memory MB, {} tasks) ==",
        wf.name,
        wf.len()
    );
    for (i, &c) in counts.iter().enumerate() {
        let lo = min + width * i as f64;
        let bar = "#".repeat(c * 50 / peak);
        let _ = writeln!(out, "{lo:>9.0}–{:<9.0} {c:>5} {bar}", lo + width);
    }
    out.push('\n');
}

fn phase_table(wf: &Workflow) -> Table {
    let n = wf.len();
    let mut table = Table::new(
        format!("{} — thirds of the submission order", wf.name),
        &["phase", "tasks", "memory mean (MB)", "memory max (MB)"],
    );
    for (phase, range) in [(1, 0..n / 3), (2, n / 3..2 * n / 3), (3, 2 * n / 3..n)] {
        let slice = &wf.tasks[range];
        let mean = slice.iter().map(|t| t.peak.memory_mb()).sum::<f64>() / slice.len() as f64;
        let max = slice.iter().map(|t| t.peak.memory_mb()).fold(0.0, f64::max);
        table.row(&[
            phase.to_string(),
            slice.len().to_string(),
            format!("{mean:.0}"),
            format!("{max:.0}"),
        ]);
    }
    table
}

/// Headers of a per-workflow matrix table: `algorithm` then one column per
/// workflow.
fn workflow_headers() -> Vec<&'static str> {
    let mut headers = vec!["algorithm"];
    headers.extend(PaperWorkflow::ALL.iter().map(|w| w.name()));
    headers
}

fn find_cell(cells: &[MatrixCell], wf: PaperWorkflow, alg: AlgorithmKind) -> &MatrixCell {
    cells
        .iter()
        .find(|c| c.workflow == wf && c.algorithm == alg)
        .expect("matrix is complete")
}

/// Figure 5: Absolute Workflow Efficiency in cores, memory and disk of the
/// 7 workflows across the 7 allocation algorithms — one table per
/// dimension (rows = algorithms, columns = workflows; mean±sd when
/// `config.seeds > 1`), the best algorithm per cell, and the first seed's
/// raw cells as `fig5_awe.json`.
pub fn fig5(config: &ExperimentConfig) -> Artifact {
    let base = MatrixConfig {
        seed: config.seed,
        ..MatrixConfig::default()
    };
    let seeds = config.seeds;
    // One flat (seed × workflow × algorithm) job list: the whole sweep fans
    // across cores in a single pool pass instead of seed-by-seed barriers.
    let jobs: Vec<(u64, PaperWorkflow, AlgorithmKind)> = (0..seeds)
        .flat_map(|i| {
            PaperWorkflow::ALL.iter().flat_map(move |&w| {
                AlgorithmKind::PAPER_SET
                    .iter()
                    .map(move |&a| (base.seed + i, w, a))
            })
        })
        .collect();
    let per_seed = PaperWorkflow::ALL.len() * AlgorithmKind::PAPER_SET.len();
    let flat = run_parallel(&jobs, |&(s, w, a)| {
        run_cell(w, a, &MatrixConfig { seed: s, ..base })
    });
    let sweeps: Vec<&[MatrixCell]> = flat.chunks(per_seed).collect();
    let cells = sweeps[0];

    let mut artifact = Artifact::default();
    for kind in ResourceKind::STANDARD {
        let title = if seeds > 1 {
            format!(
                "Figure 5 — Absolute Workflow Efficiency ({}), mean±sd over {seeds} seeds",
                kind.label()
            )
        } else {
            format!("Figure 5 — Absolute Workflow Efficiency ({})", kind.label())
        };
        let mut table = Table::new(title, &workflow_headers());
        for alg in AlgorithmKind::PAPER_SET {
            let mut row = vec![alg.label().to_string()];
            for wf in PaperWorkflow::ALL {
                let values: Vec<f64> = sweeps
                    .iter()
                    .map(|cells| find_cell(cells, wf, alg).dim(kind).awe)
                    .collect();
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                if seeds > 1 {
                    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                        / values.len() as f64;
                    row.push(format!("{}±{:.1}", pct(mean), var.sqrt() * 100.0));
                } else {
                    row.push(pct(mean));
                }
            }
            table.push_row(row);
        }
        artifact.table(&table);
    }

    // Paper-shape summary: who wins each (workflow, dimension) cell.
    let mut wins = Table::new(
        "Best algorithm per (workflow, resource)",
        &["workflow", "cores", "memory", "disk"],
    );
    for wf in PaperWorkflow::ALL {
        let best = |kind: ResourceKind| {
            cells
                .iter()
                .filter(|c| c.workflow == wf)
                .max_by(|a, b| {
                    a.dim(kind)
                        .awe
                        .partial_cmp(&b.dim(kind).awe)
                        .expect("finite AWE")
                })
                .map(|c| c.algorithm.label().to_string())
                .unwrap_or_default()
        };
        wins.row(&[
            wf.name().to_string(),
            best(ResourceKind::Cores),
            best(ResourceKind::MemoryMb),
            best(ResourceKind::DiskMb),
        ]);
    }
    artifact.text.push_str(&wins.render());
    artifact.json("fig5_awe.json", cells);
    artifact
}

/// The six algorithms of Figure 6 (Whole Machine dropped, as in the paper,
/// for better visualization).
const FIG6_SET: [AlgorithmKind; 6] = [
    AlgorithmKind::MaxSeen,
    AlgorithmKind::MinWaste,
    AlgorithmKind::MaxThroughput,
    AlgorithmKind::QuantizedBucketing,
    AlgorithmKind::GreedyBucketing,
    AlgorithmKind::ExhaustiveBucketing,
];

/// Figure 6: resource waste of the 7 workflows across 6 algorithms, broken
/// down into *internal fragmentation* and *failed allocation* — one table
/// per dimension (total waste in resource·hours with the failed-allocation
/// share), the failed allocations per cell, and the raw cells as
/// `fig6_waste.json`.
pub fn fig6(config: &ExperimentConfig) -> Artifact {
    let matrix = MatrixConfig {
        seed: config.seed,
        ..MatrixConfig::default()
    };
    let cells = run_matrix_for(&PaperWorkflow::ALL, &FIG6_SET, &matrix);

    let mut artifact = Artifact::default();
    for kind in ResourceKind::STANDARD {
        let mut table = Table::new(
            format!(
                "Figure 6 — waste in {}·hours (failed-allocation share in parens)",
                kind.unit()
            ),
            &workflow_headers(),
        );
        for alg in FIG6_SET {
            let mut row = vec![alg.label().to_string()];
            for wf in PaperWorkflow::ALL {
                let w = find_cell(&cells, wf, alg).dim(kind).waste;
                row.push(format!(
                    "{:.0} ({})",
                    w.total() / 3600.0,
                    pct(w.failed_share())
                ));
            }
            table.push_row(row);
        }
        artifact.table(&table);
    }

    // Retry pressure per algorithm (the behaviour §V-D discusses).
    let mut retries = Table::new("Failed allocations per workflow", &workflow_headers());
    for alg in FIG6_SET {
        let mut row = vec![alg.label().to_string()];
        for wf in PaperWorkflow::ALL {
            row.push(find_cell(&cells, wf, alg).retries.to_string());
        }
        retries.push_row(row);
    }
    artifact.text.push_str(&retries.render());
    artifact.json("fig6_waste.json", &cells);
    artifact
}
