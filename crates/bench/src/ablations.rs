//! Ablation sweeps over the design choices DESIGN.md calls out.
//!
//! Estimator-level ablations run through the serial replay (fast,
//! deterministic, isolates the allocator); system-level ablations (queue
//! policy, arrival model) run through the engine. Every section computes its
//! independent cells on the [`crate::pool`] job pool and renders the
//! tables sequentially, so output is deterministic. Sections:
//!
//! 1. significance weighting on/off (the §IV-A recency mechanism);
//! 2. exploratory record threshold (§V-A uses 10);
//! 3. Exhaustive Bucketing bucket cap (§V-A caps at 10);
//! 4. Quantized Bucketing split quantile (\[11\] uses the median);
//! 5. clustering rule: value-grid (EB) vs greedy recursion (GB) vs k-means;
//! 6. enforcement model (linear-ramp vs instant-peak kill timing);
//! 7. robustness under §II-D2 perturbations (shuffle, phase shift,
//!    outliers, jitter);
//! 8. queue policy and arrival model through the engine.

use tora_alloc::allocator::{
    AlgorithmKind, Allocator, AllocatorConfig, EstimatorFactory, ExploratoryPolicy,
};
use tora_alloc::baselines::QuantizedBucketing;
use tora_alloc::exhaustive::ExhaustiveBucketing;
use tora_alloc::policy::BucketingEstimator;
use tora_alloc::resources::ResourceKind;
use tora_metrics::{pct, Table, WorkflowMetrics};
use tora_sim::{
    replay, replay_on, simulate, ArrivalModel, ChurnConfig, EnforcementModel, QueuePolicy,
    SimConfig,
};
use tora_workloads::SyntheticKind;
use tora_workloads::{perturb, Workflow};

use crate::artifact::{Artifact, ExperimentConfig};
use crate::pool::run_parallel;

const KIND: ResourceKind = ResourceKind::MemoryMb;

fn awe(m: &WorkflowMetrics) -> String {
    pct(m.awe(KIND).unwrap())
}

fn synthetic(kind: SyntheticKind, tasks: usize, seed: u64) -> Workflow {
    kind.catalog_workflow()
        .spec(seed)
        .tasks(tasks)
        .materialize()
        .unwrap()
}

/// Render one memory-AWE table: a row per entry of `rows` (labelled by its
/// name), a column per entry of `columns`, every cell computed by `cell` on
/// the job pool.
fn grid_table<R: Sync>(
    out: &mut Artifact,
    title: &str,
    corner: &str,
    columns: Vec<String>,
    rows: &[(String, R)],
    cell: impl Fn(&R, usize) -> String + Sync,
) {
    let cols = columns.len();
    let pairs: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..cols).map(move |c| (r, c)))
        .collect();
    let mut cells = run_parallel(&pairs, |&(r, c)| cell(&rows[r].1, c)).into_iter();
    let mut headers = vec![corner];
    headers.extend(columns.iter().map(String::as_str));
    let mut table = Table::new(title, &headers);
    for (name, _) in rows {
        let mut row = vec![name.clone()];
        row.extend(cells.by_ref().take(cols));
        table.push_row(row);
    }
    out.table(&table);
}

/// Exhaustive Bucketing replayed under an adjusted allocator config.
fn eb_replay(wf: &Workflow, adjust: impl Fn(&mut AllocatorConfig), seed: u64) -> String {
    let mut config = AllocatorConfig {
        machine: wf.worker,
        ..AllocatorConfig::default()
    };
    adjust(&mut config);
    let mut allocator = Allocator::with_config(AlgorithmKind::ExhaustiveBucketing, config, seed);
    awe(&replay_on(
        &mut allocator,
        wf,
        EnforcementModel::LinearRamp,
        WorkflowMetrics::new(),
    ))
}

/// A custom estimator `factory` replayed under the paper's conservative
/// exploratory probe.
fn factory_replay(wf: &Workflow, label: String, factory: EstimatorFactory, seed: u64) -> String {
    let config = AllocatorConfig {
        machine: wf.worker,
        exploratory: Some(ExploratoryPolicy::paper_conservative()),
        ..AllocatorConfig::default()
    };
    let mut allocator = Allocator::with_factory(label, factory, config, seed);
    awe(&replay_on(
        &mut allocator,
        wf,
        EnforcementModel::LinearRamp,
        WorkflowMetrics::new(),
    ))
}

fn labels<T: std::fmt::Display>(items: &[T]) -> Vec<String> {
    items.iter().map(T::to_string).collect()
}

fn system_ablation(out: &mut Artifact, seed: u64) {
    let wf = synthetic(SyntheticKind::Bimodal, 600, seed);
    let mut table = Table::new(
        "8. engine-level choices (bimodal, Exhaustive Bucketing)",
        &["configuration", "memory AWE", "makespan", "retries"],
    );
    let mut configs: Vec<(String, SimConfig)> = QueuePolicy::ALL
        .iter()
        .map(|&policy| {
            (
                format!("fixed pool, {}", policy.label()),
                SimConfig {
                    queue_policy: policy,
                    churn: ChurnConfig::fixed(20),
                    seed,
                    ..SimConfig::default()
                },
            )
        })
        .collect();
    configs.push((
        "paper pool, batch arrivals".to_string(),
        SimConfig {
            arrival: ArrivalModel::Batch,
            ..SimConfig::paper_like(seed)
        },
    ));
    configs.push((
        "paper pool, poisson arrivals (1.5 s)".to_string(),
        SimConfig::paper_like(seed),
    ));
    let results = run_parallel(&configs, |(_, config)| {
        let res = simulate(&wf, AlgorithmKind::ExhaustiveBucketing, *config);
        (
            awe(&res.metrics),
            format!("{:.0}s", res.makespan_s),
            res.metrics.total_retries().to_string(),
        )
    });
    for ((name, _), (awe, makespan, retries)) in configs.iter().zip(results) {
        table.push_row(vec![name.clone(), awe, makespan, retries]);
    }
    out.text.push_str(&table.render());
}

/// The ablation tables, seeded by `config.seed` (sections 1–8 above).
pub fn ablations(config: &ExperimentConfig) -> Artifact {
    let seed = config.seed;
    let mut out = Artifact::default();
    let workflows: Vec<(String, Workflow)> = [
        SyntheticKind::Normal,
        SyntheticKind::Bimodal,
        SyntheticKind::PhasingTrimodal,
    ]
    .into_iter()
    .map(|kind| synthetic(kind, 600, seed))
    .map(|wf| (wf.name.clone(), wf))
    .collect();

    grid_table(
        &mut out,
        "1. significance weighting (memory AWE, Exhaustive Bucketing)",
        "workflow",
        labels(&["sig = task id", "sig = 1"]),
        &workflows,
        |wf, m| eb_replay(wf, |c| c.uniform_significance = m == 1, seed),
    );

    let thresholds = [5usize, 10, 20, 50];
    grid_table(
        &mut out,
        "2. exploratory threshold (memory AWE, Exhaustive Bucketing)",
        "workflow",
        thresholds.iter().map(|t| format!("{t} records")).collect(),
        &workflows,
        |wf, t| eb_replay(wf, |c| c.exploratory_records = thresholds[t], seed),
    );

    let caps = [2usize, 5, 10, 20];
    grid_table(
        &mut out,
        "3. Exhaustive Bucketing bucket cap (memory AWE)",
        "workflow",
        caps.iter().map(|c| format!("k ≤ {c}")).collect(),
        &workflows,
        |wf, c| {
            let cap = caps[c];
            let factory: EstimatorFactory = Box::new(move |_, _| {
                Box::new(BucketingEstimator::new(
                    ExhaustiveBucketing::with_max_buckets(cap),
                ))
            });
            factory_replay(wf, format!("eb-k{cap}"), factory, seed)
        },
    );

    let quantiles = [0.25f64, 0.5, 0.75, 0.95];
    grid_table(
        &mut out,
        "4. Quantized Bucketing split quantile (memory AWE)",
        "workflow",
        quantiles
            .iter()
            .map(|q| format!("p{:.0}", q * 100.0))
            .collect(),
        &workflows,
        |wf, q| {
            let quantile = quantiles[q];
            let factory: EstimatorFactory =
                Box::new(move |_, _| Box::new(QuantizedBucketing::with_quantile(quantile)));
            factory_replay(wf, format!("qb-{quantile}"), factory, seed)
        },
    );

    let ramp = EnforcementModel::LinearRamp;
    let rules = [
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::KMeansBucketing,
    ];
    grid_table(
        &mut out,
        "5. clustering rule behind the shared bucketing policy (memory AWE)",
        "workflow",
        labels(&["value-grid (EB)", "greedy (GB)", "k-means"]),
        &workflows,
        |wf, r| awe(&replay(wf, rules[r], ramp, seed, WorkflowMetrics::new())),
    );

    let models = [ramp, EnforcementModel::InstantPeak];
    grid_table(
        &mut out,
        "6. enforcement model (memory AWE, Exhaustive Bucketing)",
        "workflow",
        labels(&["linear-ramp", "instant-peak"]),
        &workflows,
        |wf, m| {
            awe(&replay(
                wf,
                AlgorithmKind::ExhaustiveBucketing,
                models[m],
                seed,
                WorkflowMetrics::new(),
            ))
        },
    );

    let base = synthetic(SyntheticKind::Bimodal, 800, seed);
    let variants: Vec<(String, Workflow)> = vec![
        ("base".into(), base.clone()),
        ("shuffled".into(), perturb::shuffle(&base, seed)),
        ("phase-shifted".into(), perturb::phase_shift(&base)),
        (
            "5% outliers ×4".into(),
            perturb::inject_outliers(&base, 0.05, 4.0, seed),
        ),
        ("jitter σ=0.3".into(), perturb::jitter(&base, 0.3, seed)),
    ];
    let algorithms = [
        AlgorithmKind::MaxSeen,
        AlgorithmKind::QuantizedBucketing,
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::ExhaustiveBucketing,
    ];
    grid_table(
        &mut out,
        "7. robustness to §II-D2 perturbations (bimodal, memory AWE)",
        "perturbation",
        labels(&algorithms),
        &variants,
        |wf, a| {
            awe(&replay(
                wf,
                algorithms[a],
                ramp,
                seed,
                WorkflowMetrics::new(),
            ))
        },
    );

    system_ablation(&mut out, seed);
    out
}
