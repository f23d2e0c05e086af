//! Table I support: timing the bucketing-state computation.
//!
//! Table I reports "the average time to compute a new bucketing state and
//! derive a new allocation" at 10 / 200 / 1000 / 2000 / 5000 records,
//! assuming the worst case where every allocation request recomputes the
//! state. [`state_compute_time`] reproduces exactly that: an estimator in
//! `recompute_always` mode, pre-loaded with `n` records sampled from the
//! §IV-A example distribution (memory ~ N(8 GB, 2 GB)), timed over repeated
//! first-allocation requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tora_alloc::exhaustive::ExhaustiveBucketing;
use tora_alloc::greedy::GreedyBucketing;
use tora_alloc::partition::Partitioner;
use tora_alloc::policy::BucketingEstimator;
use tora_alloc::ValueEstimator;
use tora_metrics::{grouped, Table};
use tora_workloads::dist::normal;

use crate::artifact::{Artifact, ExperimentConfig};

/// The record-list sizes of Table I.
pub const TABLE1_SIZES: [usize; 5] = [10, 200, 1000, 2000, 5000];

/// Sample `n` record values from the §IV-A example distribution
/// (N(8192 MB, 2048 MB), truncated at 64 MB).
pub fn sample_values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7AB1E1);
    (0..n)
        .map(|_| normal(&mut rng, 8192.0, 2048.0).max(64.0))
        .collect()
}

/// Build a worst-case (recompute-per-request) estimator pre-loaded with `n`
/// records.
pub fn loaded_estimator<P: Partitioner>(
    partitioner: P,
    n: usize,
    seed: u64,
) -> BucketingEstimator<P> {
    let mut est = BucketingEstimator::new(partitioner).recompute_always();
    for (i, v) in sample_values(n, seed).into_iter().enumerate() {
        est.observe(v, (i + 1) as f64);
    }
    est
}

/// Mean time per state-compute + allocation over `iters` requests.
pub fn state_compute_time<P: Partitioner>(
    partitioner: P,
    n: usize,
    iters: usize,
    seed: u64,
) -> Duration {
    let mut est = loaded_estimator(partitioner, n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11ED);
    // Warm-up request outside the timed window.
    let _ = est.first(rng.gen());
    let start = Instant::now();
    let mut sink = 0.0;
    for _ in 0..iters {
        sink += est.first(rng.gen()).unwrap_or(0.0);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(sink);
    elapsed / iters as u32
}

/// Timed requests per Table I cell: enough for a stable mean, few enough
/// that the quadratic scans at 5000 records (hundreds of ms per request)
/// keep the run short.
fn iters_for(n: usize, expensive: bool) -> usize {
    match (n, expensive) {
        (..=200, _) => 200,
        (..=1000, true) => 10,
        (..=1000, false) => 100,
        (_, true) => 3,
        (_, false) => 50,
    }
}

/// One Table I row: mean µs per state compute at every [`TABLE1_SIZES`].
fn table1_row<P: Partitioner + Copy>(
    label: &str,
    partitioner: P,
    expensive: bool,
    seed: u64,
) -> Vec<String> {
    let mut row = vec![label.to_string()];
    for &n in &TABLE1_SIZES {
        let d = state_compute_time(partitioner, n, iters_for(n, expensive), seed);
        row.push(grouped(d.as_secs_f64() * 1e6));
    }
    row
}

/// Table I: average time (µs) to compute a new bucketing state and derive a
/// new allocation at 10 / 200 / 1000 / 2000 / 5000 records, in the paper's
/// worst case (every request recomputes the state). The "GB" and "EB" rows
/// time the paper-faithful scans — the table's subject; the "(prefix)" rows
/// time the output-identical prefix-sum partitioners production runs on.
pub fn table1(config: &ExperimentConfig) -> Artifact {
    let seed = config.seed;
    let mut headers = vec!["algorithm".to_string()];
    headers.extend(TABLE1_SIZES.iter().map(|n| n.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table I — mean µs per bucketing-state compute + allocation",
        &header_refs,
    );
    // Guard against the faithful constructors silently changing underneath
    // this table.
    let (gb, eb) = (GreedyBucketing::faithful(), ExhaustiveBucketing::faithful());
    assert_eq!(gb.name(), "greedy-bucketing-faithful");
    assert_eq!(eb.name(), "exhaustive-bucketing-faithful");
    table.push_row(table1_row("GB", gb, true, seed));
    table.push_row(table1_row("EB", eb, false, seed));
    table.push_row(table1_row(
        "GB (prefix)",
        GreedyBucketing::new(),
        false,
        seed,
    ));
    table.push_row(table1_row(
        "EB (prefix)",
        ExhaustiveBucketing::new(),
        false,
        seed,
    ));
    let mut text = table.render();
    text.push_str(
        "\npaper reference (µs): GB 11.2 / 586.4 / 14,588.2 / 62,207.2 / 441,050.7;\n\
         EB 14.4 / 76.5 / 323.5 / 567.8 / 1,632.0\n",
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
    fn sampled_values_match_the_example_distribution() {
        let values = sample_values(5000, 1);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 8192.0).abs() < 150.0, "mean {mean}");
        assert!(values.iter().all(|&v| v >= 64.0));
    }

    #[test]
    fn timing_returns_positive_durations() {
        let d = state_compute_time(ExhaustiveBucketing::new(), 200, 3, 1);
        assert!(d > Duration::ZERO);
        let g = state_compute_time(GreedyBucketing::new(), 200, 3, 1);
        assert!(g > Duration::ZERO);
    }

    #[test]
    fn greedy_faithful_costs_more_than_prefix_at_scale() {
        // The Table I growth driver: the faithful scan is quadratic per
        // interval, the prefix one linear.
        let n = 1000;
        let faithful = state_compute_time(GreedyBucketing::faithful(), n, 2, 1);
        let prefix = state_compute_time(GreedyBucketing::new(), n, 2, 1);
        assert!(
            faithful > prefix,
            "faithful {faithful:?} vs prefix {prefix:?}"
        );
    }
}
