//! Dependency-structured execution: the Figure-1 workflow-manager view.
//!
//! Runs TopEFT twice — as the flat task bag used for the paper's metrics,
//! and with its Coffea dependency structure (preprocessing → processing →
//! accumulating) — and shows that allocation efficiency is essentially
//! unchanged while the execution timeline stretches (dependency chains limit
//! parallelism; the allocator is deliberately orthogonal to ordering,
//! §II-D1).
//!
//! ```sh
//! cargo run --release --example dag_workflow
//! ```

use tora::metrics::{pct, Table};
use tora::prelude::*;

fn main() {
    let flat = PaperWorkflow::TopEft
        .spec(17)
        .category_tasks(vec![60, 700, 40])
        .materialize()
        .unwrap();
    let dag = PaperWorkflow::TopEft
        .spec(17)
        .category_tasks(vec![60, 700, 40])
        .dag()
        .materialize()
        .unwrap();
    assert!(!flat.has_dependencies());
    assert!(dag.has_dependencies());

    let mut table = Table::new(
        "TopEFT, flat vs DAG submission (Exhaustive Bucketing)",
        &["structure", "memory AWE", "disk AWE", "retries", "makespan"],
    );
    for wf in [&flat, &dag] {
        let (res, log) = Simulation::new(
            wf,
            AlgorithmKind::ExhaustiveBucketing,
            SimConfig::paper_like(17),
        )
        .with_sink(EventLog::new())
        .run_traced();
        log.check_consistency().expect("consistent run");
        table.row(&[
            if wf.has_dependencies() { "dag" } else { "flat" }.to_string(),
            pct(res.metrics.awe(ResourceKind::MemoryMb).unwrap()),
            pct(res.metrics.awe(ResourceKind::DiskMb).unwrap()),
            res.metrics.total_retries().to_string(),
            format!("{:.0}s", res.makespan_s),
        ]);
    }
    print!("{}", table.render());

    // Show the dependency fan-in of the accumulating stage.
    let total_deps: usize = (0..dag.len()).map(|i| dag.deps_of(i).len()).sum();
    let acc_start = 60 + 700;
    let fan_in: Vec<usize> = (acc_start..dag.len())
        .map(|i| dag.deps_of(i).len())
        .collect();
    println!(
        "\n{} edges; accumulating fan-in min {} / max {}",
        total_deps,
        fan_in.iter().min().unwrap(),
        fan_in.iter().max().unwrap()
    );
}
