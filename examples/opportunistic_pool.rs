//! Opportunistic-pool observability: churn, preemption, utilization and the
//! live bucketing state.
//!
//! Runs a Uniform workflow on a heavily churning pool with an event log and a
//! utilization series attached as event sinks, then prints what happened: worker band,
//! preemptions, the utilization the administrator would see, a downsampled
//! utilization sparkline, and the final bucket structure the allocator
//! learned.
//!
//! ```sh
//! cargo run --release --example opportunistic_pool
//! ```

use tora::metrics::{pct, Table};
use tora::prelude::*;

fn main() {
    let workflow = PaperWorkflow::Uniform
        .spec(21)
        .tasks(800)
        .materialize()
        .unwrap();
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 6,
            min: 10,
            max: 30,
            mean_interval_s: Some(20.0),
        },
        ..SimConfig::paper_like(21)
    };
    let (result, (log, series)) =
        Simulation::new(&workflow, AlgorithmKind::ExhaustiveBucketing, config)
            .with_sink((EventLog::new(), UtilizationSeries::new()))
            .run_traced();

    println!("== run summary ==");
    println!("tasks           : {}", result.metrics.len());
    println!("makespan        : {:.0} s", result.makespan_s);
    println!(
        "worker band     : {}..{} workers",
        result.worker_range.0, result.worker_range.1
    );
    println!("preemptions     : {}", result.stats.preemptions);
    println!("retries (kills) : {}", result.metrics.total_retries());
    println!(
        "memory AWE      : {}",
        pct(result.metrics.awe(ResourceKind::MemoryMb).unwrap())
    );

    // Event-log census — the JSONL dump is what a monitoring pipeline would
    // ingest.
    log.check_consistency().expect("run is self-consistent");
    println!("\n== event log ({} entries) ==", log.len());
    for (label, pred) in [
        ("dispatched", |e: &SimEvent| {
            matches!(e, SimEvent::TaskDispatched { .. })
        }),
        ("completed", |e: &SimEvent| {
            matches!(e, SimEvent::TaskCompleted { .. })
        }),
        ("killed", |e: &SimEvent| {
            matches!(e, SimEvent::TaskKilled { .. })
        }),
        ("preempted", |e: &SimEvent| {
            matches!(e, SimEvent::TaskPreempted { .. })
        }),
        ("worker joins", |e: &SimEvent| {
            matches!(e, SimEvent::WorkerJoined { .. })
        }),
        ("worker leaves", |e: &SimEvent| {
            matches!(e, SimEvent::WorkerLeft { .. })
        }),
    ] as [(&str, fn(&SimEvent) -> bool); 6]
    {
        println!("  {label:<13}: {}", log.count(pred));
    }

    // Utilization over time: mean + a coarse sparkline of memory pressure.
    println!("\n== pool utilization ==");
    let mut table = Table::new("", &["resource", "time-weighted mean", "peak running"]);
    for kind in [
        ResourceKind::Cores,
        ResourceKind::MemoryMb,
        ResourceKind::DiskMb,
    ] {
        table.row(&[
            kind.label().to_string(),
            pct(series.mean_utilization(kind).unwrap_or(0.0)),
            series.peak_running().to_string(),
        ]);
    }
    print!("{}", table.render());
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let spark: String = series
        .downsample(60)
        .samples()
        .iter()
        .map(|s| {
            let u = s.utilization(ResourceKind::MemoryMb).unwrap_or(0.0);
            glyphs[((u * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1)]
        })
        .collect();
    println!("memory pressure over time: [{spark}]");

    // What the allocator learned: the bucket structure behind its
    // predictions (Fig. 3b of the paper, live).
    let mut allocator = Allocator::new(AlgorithmKind::ExhaustiveBucketing, 21);
    for task in &workflow.tasks {
        allocator.observe(&ResourceRecord::from_task(task));
    }
    // Bucketing is lazy: force the recomputation now, then take a read-only
    // snapshot of the result (`snapshot` alone never recomputes).
    let info = allocator
        .rebucket(CategoryId(0), ResourceKind::MemoryMb)
        .expect("records observed");
    let set = allocator
        .snapshot(CategoryId(0), ResourceKind::MemoryMb)
        .expect("bucketing state exists");
    println!(
        "\n== learned memory buckets ({} from {} records, expected waste {:.3e}) ==",
        set.len(),
        info.n_records,
        info.cost
    );
    let mut buckets = Table::new(
        "",
        &["bucket", "representative (MB)", "probability", "records"],
    );
    for (i, b) in set.buckets().iter().enumerate() {
        buckets.row(&[
            format!("B{}", i + 1),
            format!("{:.0}", b.rep),
            pct(b.prob),
            b.count.to_string(),
        ]);
    }
    print!("{}", buckets.render());
}
