//! Property-based tests over the core data structures and the full
//! allocation pipeline.

use proptest::prelude::*;
use tora::alloc::bucket::BucketSet;
use tora::alloc::cost::{exhaustive_cost, greedy_cost, PrefixStats};
use tora::alloc::exhaustive::ExhaustiveBucketing;
use tora::alloc::greedy::GreedyBucketing;
use tora::alloc::partition::Partitioner;
use tora::alloc::policy::EXACT_REBUCKET_LIMIT;
use tora::alloc::record::{RecordList, ScalarRecord};
use tora::alloc::{BucketingEstimator, ValueEstimator};
use tora::prelude::*;

fn record_list() -> impl Strategy<Value = RecordList> {
    prop::collection::vec((1.0f64..10_000.0, 0.1f64..100.0), 1..120)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// One observe batch: 1 to 300 `(value, sig)` pairs, half of the values
/// drawn from 19 round numbers so that ties with earlier batches occur.
fn observe_batch() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let value = prop_oneof![
        (1u32..20).prop_map(|k| f64::from(k) * 50.0),
        1.0f64..10_000.0,
    ];
    prop::collection::vec((value, 0.1f64..100.0), 1..301)
}

/// `partitioner`'s breaks for `records` over a freshly built prefix cache.
fn breaks_of(partitioner: &impl Partitioner, records: &[ScalarRecord]) -> Vec<usize> {
    partitioner.partition(records, &PrefixStats::from_records(records))
}

/// Every field of every bucket, floats as their bit patterns.
fn bucket_bits(set: &BucketSet) -> Vec<[u64; 5]> {
    set.buckets()
        .iter()
        .map(|b| {
            let count = b.count as u64;
            [
                b.rep.to_bits(),
                b.prob.to_bits(),
                b.wmean.to_bits(),
                count,
                b.sig_sum.to_bits(),
            ]
        })
        .collect()
}

/// Feed `batches` through the estimator's rebuild steps — commit, prefix
/// update from the index commit reports, partition, in-place bucket
/// rebuild — and check each step against a build from scratch, bit for
/// bit. A `BucketingEstimator` fed the same batches must agree too.
fn check_incremental_rebuilds<P: Partitioner + Copy>(
    partitioner: P,
    batches: &[Vec<(f64, f64)>],
) -> Result<(), TestCaseError> {
    let mut list = RecordList::new();
    let mut stats = PrefixStats::new();
    let mut set = BucketSet::default();
    let mut estimator = BucketingEstimator::new(partitioner);
    for batch in batches {
        let old = list.sorted().to_vec();
        for &(value, sig) in batch {
            list.observe(value, sig);
            estimator.observe(value, sig);
        }
        let first = list.commit().expect("a non-empty batch changes the list");
        let records = list.sorted();
        let differs_at = old
            .iter()
            .zip(records)
            .position(|(a, b)| a != b)
            .unwrap_or(old.len());
        prop_assert_eq!(first, differs_at);

        stats.update_from(records, first);
        let fresh_stats = PrefixStats::from_records(records);
        prop_assert_eq!(stats.len(), records.len());
        for i in 0..records.len() {
            prop_assert_eq!(stats.sig(0, i).to_bits(), fresh_stats.sig(0, i).to_bits());
            prop_assert_eq!(stats.wsum(0, i).to_bits(), fresh_stats.wsum(0, i).to_bits());
        }

        let breaks = partitioner.partition(records, &stats);
        set.rebuild(records, &stats, &breaks, first);
        let fresh = BucketSet::from_breaks(records, &breaks);
        prop_assert_eq!(bucket_bits(&set), bucket_bits(&fresh));

        estimator.rebucket().expect("records exist");
        let snapshot = estimator.snapshot().expect("rebuilt state");
        prop_assert_eq!(bucket_bits(&snapshot), bucket_bits(&fresh));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_partition_satisfies_bucket_invariants(list in record_list()) {
        let gb = GreedyBucketing::new();
        let breaks = breaks_of(&gb, list.sorted());
        let set = BucketSet::from_breaks(list.sorted(), &breaks);
        prop_assert!(set.check_invariants(list.sorted()).is_ok());
    }

    #[test]
    fn exhaustive_partition_satisfies_bucket_invariants(list in record_list()) {
        let eb = ExhaustiveBucketing::new();
        let breaks = breaks_of(&eb, list.sorted());
        let set = BucketSet::from_breaks(list.sorted(), &breaks);
        prop_assert!(set.check_invariants(list.sorted()).is_ok());
        prop_assert!(set.len() <= 10, "bucket cap exceeded: {}", set.len());
    }

    #[test]
    fn greedy_fast_scans_match_faithful(list in record_list()) {
        // The prefix-sum default scan must pick exactly the break points the
        // paper-faithful quadratic scan picks, and the chosen configuration
        // must cost bit-for-bit the same when scored through the canonical
        // bucket-set kernel.
        let faithful = breaks_of(&GreedyBucketing::faithful(), list.sorted());
        let prefix = breaks_of(&GreedyBucketing::new(), list.sorted());
        prop_assert_eq!(&faithful, &prefix);
        let cost_of = |breaks: &[usize]| {
            exhaustive_cost(&BucketSet::from_breaks(list.sorted(), breaks))
        };
        prop_assert_eq!(cost_of(&faithful).to_bits(), cost_of(&prefix).to_bits());
    }

    #[test]
    fn exhaustive_fast_matches_faithful(list in record_list()) {
        // Same contract for Exhaustive Bucketing: the scratch-buffer fast
        // path must be an observationally identical drop-in for the
        // bucket-set-per-candidate faithful path.
        let faithful = breaks_of(&ExhaustiveBucketing::faithful(), list.sorted());
        let fast = breaks_of(&ExhaustiveBucketing::new(), list.sorted());
        prop_assert_eq!(&faithful, &fast);
        let cost_of = |breaks: &[usize]| {
            exhaustive_cost(&BucketSet::from_breaks(list.sorted(), breaks))
        };
        prop_assert_eq!(cost_of(&faithful).to_bits(), cost_of(&fast).to_bits());
    }

    #[test]
    fn exhaustive_choice_never_worse_than_single_bucket(list in record_list()) {
        let eb = ExhaustiveBucketing::new();
        let breaks = breaks_of(&eb, list.sorted());
        let chosen = exhaustive_cost(&BucketSet::from_breaks(list.sorted(), &breaks));
        let single = exhaustive_cost(&BucketSet::single(list.sorted()));
        prop_assert!(chosen <= single + 1e-9 * single.abs().max(1.0));
    }

    #[test]
    fn costs_are_finite_and_nonnegative(list in record_list()) {
        let n = list.len();
        let records = list.sorted();
        // Greedy cost at a few break positions.
        for brk in [0, n / 2, n - 1] {
            let c = greedy_cost(records, 0, brk, n - 1);
            prop_assert!(c.is_finite() && c >= -1e-9, "greedy cost {c}");
        }
        // Exhaustive cost of the chosen configuration.
        let breaks = breaks_of(&ExhaustiveBucketing::new(), records);
        let c = exhaustive_cost(&BucketSet::from_breaks(records, &breaks));
        prop_assert!(c.is_finite() && c >= -1e-9, "exhaustive cost {c}");
    }

    #[test]
    fn incremental_rebuilds_match_fresh_ones_bit_for_bit(
        batches in prop::collection::vec(observe_batch(), 1..8),
    ) {
        check_incremental_rebuilds(GreedyBucketing::new(), &batches)?;
        check_incremental_rebuilds(ExhaustiveBucketing::new(), &batches)?;
    }

    #[test]
    fn sampling_always_returns_a_valid_bucket(list in record_list(), u in 0.0f64..1.0) {
        let breaks = breaks_of(&ExhaustiveBucketing::new(), list.sorted());
        let set = BucketSet::from_breaks(list.sorted(), &breaks);
        let idx = set.sample(u).expect("non-empty set samples");
        prop_assert!(idx < set.len());
        // sample_above must respect the floor.
        if let Some(j) = set.sample_above(set.buckets()[idx].rep, u) {
            prop_assert!(set.buckets()[j].rep > set.buckets()[idx].rep);
        }
    }

    #[test]
    fn allocator_terminates_for_any_feasible_demand(
        peaks in prop::collection::vec(
            (0.1f64..16.0, 1.0f64..60_000.0, 1.0f64..60_000.0),
            11..60
        ),
        seed in 0u64..1_000,
    ) {
        let mut allocator = Allocator::new(AlgorithmKind::ExhaustiveBucketing, seed);
        let category = CategoryId(0);
        for (i, (c, m, d)) in peaks.iter().enumerate() {
            let task = TaskSpec::new(i as u64, 0, ResourceVector::new(*c, *m, *d), 10.0);
            // Drive the predict→retry loop to success before observing.
            let demand = task.peak;
            let mut alloc = allocator.predict_first(category);
            let mut attempts = 0;
            while !alloc.dominates(&demand) {
                let exhausted = alloc.exceeded_by(&demand);
                alloc = allocator.predict_retry(category, &alloc, &exhausted);
                attempts += 1;
                prop_assert!(attempts < 64, "no convergence for {demand}");
            }
            allocator.observe(&ResourceRecord::from_task(&task));
        }
    }

    #[test]
    fn replay_conserves_tasks_and_identities(
        n in 20usize..80,
        seed in 0u64..500,
    ) {
        let wf = SyntheticKind::Bimodal.catalog_workflow().spec(seed).tasks(n).materialize().unwrap();
        let m = replay(&wf, AlgorithmKind::GreedyBucketing,
                       EnforcementModel::LinearRamp, seed, WorkflowMetrics::new());
        prop_assert_eq!(m.len(), n);
        for kind in [ResourceKind::Cores, ResourceKind::MemoryMb, ResourceKind::DiskMb] {
            let a = m.total_allocation(kind);
            let c = m.total_consumption(kind);
            let w = m.waste(kind);
            prop_assert!((a - (c + w.total())).abs() <= 1e-6 * a.max(1.0));
            let awe = m.awe(kind).unwrap();
            prop_assert!(awe > 0.0 && awe <= 1.0);
        }
    }

    #[test]
    fn feature_bin_fallback_never_predicts_below_the_category_floor(
        samples in prop::collection::vec((0.0f64..1.0, 1.0f64..60_000.0), 1..100),
        signal in 0.0f64..1.0,
        u in 0.0f64..1.0,
    ) {
        // Whatever mix of bins the observations land in — including bins
        // with too little support, which fall back to the category-global
        // answer — a first prediction must never dip below the smallest
        // value ever observed for the category. An estimator conditioning
        // on a noisy pre-run signal may bin poorly; it must not use that as
        // license to under-allocate below what the category has proven.
        use tora::alloc::{FeatureBinned, ValueEstimator};
        let mut fb = FeatureBinned::new();
        for (sig, value) in &samples {
            fb.observe_ctx(&TaskFeatures::with_input_signal(*sig), *value, 1.0);
        }
        let floor = samples.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        let ctx = TaskContext::new(CategoryId(0), TaskFeatures::with_input_signal(signal));
        let p = fb.predict_first(&ctx, u).expect("non-empty estimator answers");
        prop_assert!(
            p.value >= floor,
            "prediction {} below category floor {floor}",
            p.value
        );
    }

    #[test]
    fn quantile_is_monotone(list in record_list(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = list.quantile(lo).unwrap();
        let b = list.quantile(hi).unwrap();
        prop_assert!(a <= b);
        prop_assert!(b <= list.max_value().unwrap());
        prop_assert!(a >= list.min_value().unwrap());
    }
}

/// Every float read of one dimension from the fold, as bit patterns:
/// totals, both waste splits, degraded AWE and AWE (`u64::MAX` for `None`).
fn fold_bits(m: &WorkflowMetrics, kind: ResourceKind) -> [u64; 9] {
    let waste = m.waste(kind);
    let blame = m.attributed_waste(kind);
    let awe_bits = |awe: Option<f64>| awe.map_or(u64::MAX, f64::to_bits);
    [
        m.total_consumption(kind).to_bits(),
        m.total_allocation(kind).to_bits(),
        waste.internal_fragmentation.to_bits(),
        waste.failed_allocation.to_bits(),
        blame.allocation_induced.to_bits(),
        blame.fault_induced.to_bits(),
        blame.dead_lettered.to_bits(),
        awe_bits(m.degraded_awe(kind)),
        awe_bits(m.awe(kind)),
    ]
}

/// One task's §II-C terms of one dimension, written out apart from
/// `TaskOutcome`'s methods as the reference the fold is checked against:
/// consumption, allocation, internal fragmentation, failed allocation, its
/// fault-caused share, and straggler drag.
fn reference_terms(o: &TaskOutcome, kind: ResourceKind) -> [f64; 6] {
    let salvaged: f64 = o.attempts.iter().map(|a| a.salvaged_s).sum();
    let last = o.attempts.last().expect("a completed task has attempts");
    let lost = |counted: &dyn Fn(&AttemptOutcome) -> bool| -> f64 {
        o.attempts
            .iter()
            .filter(|a| !a.success && counted(a))
            .map(|a| a.allocation[kind] * a.charged_time_s - o.peak[kind] * a.salvaged_s)
            .sum()
    };
    [
        o.peak[kind] * o.duration_s,
        o.attempts
            .iter()
            .map(|a| a.allocation[kind] * a.charged_time_s)
            .sum(),
        (last.allocation[kind] - o.peak[kind]) * (o.duration_s - salvaged),
        lost(&|_| true),
        lost(&|a| a.cause.is_fault()),
        last.allocation[kind] * (last.charged_time_s - (o.duration_s - salvaged)).max(0.0),
    ]
}

/// The same reads recomputed from per-task rows: `Iterator::sum` for the
/// totals, a default struct accumulated in row order for the splits.
fn row_bits(rows: &[TaskOutcome], dead: &[DeadLetter], kind: ResourceKind) -> [u64; 9] {
    let terms: Vec<[f64; 6]> = rows.iter().map(|o| reference_terms(o, kind)).collect();
    let consumption: f64 = terms.iter().map(|t| t[0]).sum();
    let allocation: f64 = terms.iter().map(|t| t[1]).sum();
    let mut waste = WasteBreakdown::default();
    let mut blame = WasteAttribution::default();
    for &[_, _, internal, failed, fault_failed, drag] in &terms {
        waste.internal_fragmentation += internal;
        waste.failed_allocation += failed;
        blame.allocation_induced += internal + failed - fault_failed;
        blame.fault_induced += fault_failed + drag;
    }
    blame.dead_lettered = dead.iter().map(|d| d.total_allocation(kind)).sum();
    let ratio = |denominator: f64| {
        if denominator <= 0.0 {
            u64::MAX
        } else {
            (consumption / denominator).to_bits()
        }
    };
    [
        consumption.to_bits(),
        allocation.to_bits(),
        waste.internal_fragmentation.to_bits(),
        waste.failed_allocation.to_bits(),
        blame.allocation_induced.to_bits(),
        blame.fault_induced.to_bits(),
        blame.dead_lettered.to_bits(),
        ratio(allocation + blame.dead_lettered),
        ratio(allocation),
    ]
}

/// Check every read of a rows-keeping `m` against its rows, then the same
/// for each category's restriction and for a category with no tasks.
fn check_fold_against_rows(m: &WorkflowMetrics) -> Result<(), TestCaseError> {
    let check = |m: &WorkflowMetrics| -> Result<(), TestCaseError> {
        let rows = m.outcomes().expect("rows kept");
        prop_assert_eq!(m.len(), rows.len());
        for kind in ResourceKind::ALL {
            let want = row_bits(rows, m.dead_letters(), kind);
            let got = fold_bits(m, kind);
            prop_assert!(got == want, "{}: fold {:?} vs rows {:?}", kind, got, want);
        }
        let retries: usize = rows.iter().map(|o| o.attempts.len() - 1).sum();
        prop_assert_eq!(m.total_retries(), retries);
        let mut histogram = vec![0usize; rows.iter().map(|o| o.attempts.len()).max().unwrap_or(0)];
        for o in rows {
            histogram[o.attempts.len() - 1] += 1;
        }
        prop_assert_eq!(m.attempts_histogram(), &histogram[..]);
        Ok(())
    };
    check(m)?;
    let rows = m.outcomes().expect("rows kept");
    let mut categories: Vec<CategoryId> = rows
        .iter()
        .map(|o| o.category)
        .chain(m.dead_letters().iter().map(|d| d.category))
        .collect();
    categories.sort_unstable();
    categories.dedup();
    categories.push(CategoryId(u32::MAX));
    for category in categories {
        check(&m.filter_category(category))?;
    }
    Ok(())
}

/// Crashes (some of them correlated), kills, stragglers, flaky dispatch
/// with a one-retry budget, checkpoint salvage, and dead-letter replay
/// over a churning pool, on a two- or three-category workload.
fn faulty_fold_run(seed: u64, topeft: bool, salvage: f64, algorithm: AlgorithmKind) -> SimResult {
    let spec = if topeft {
        PaperWorkflow::TopEft
            .spec(seed)
            .category_tasks(vec![12, 60, 8])
    } else {
        PaperWorkflow::ColmenaXtb
            .spec(seed)
            .category_tasks(vec![30, 50])
    };
    let wf = spec.materialize().expect("catalog spec is valid");
    let plan = FaultPlan {
        crash_mean_interval_s: Some(90.0),
        straggler_rate: 0.3,
        straggler_multiplier: 6.0,
        straggler_timeout_s: 2000.0,
        dispatch_failure_rate: 0.2,
        dispatch_backoff_s: 1.0,
        max_dispatch_retries: 1,
        max_attempts: 6,
        max_unplaceable_rounds: 2,
        rack_crash_mean_interval_s: Some(300.0),
        rack_count: 3,
        replay_capacity_fraction: 0.5,
        max_replay_rounds: 3,
        checkpointed_fraction: salvage,
        ..FaultPlan::none()
    };
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 6,
            min: 2,
            max: 10,
            mean_interval_s: Some(30.0),
        },
        faults: plan,
        ..SimConfig::paper_like(seed)
    };
    Simulation::new(&wf, algorithm, config)
        .keep_outcomes()
        .run()
}

#[test]
fn fold_matches_rows_on_empty_metrics() {
    check_fold_against_rows(&WorkflowMetrics::with_rows()).unwrap();
}

#[test]
fn fold_matches_rows_on_a_run_with_every_fault_and_replay() {
    let res = faulty_fold_run(3, false, 0.5, AlgorithmKind::ExhaustiveBucketing);
    let faults = &res.stats.faults;
    assert!(
        res.stats.failures > 0,
        "no allocation kill: {:?}",
        res.stats
    );
    assert!(faults.crashed_attempts > 0, "{faults:?}");
    assert!(faults.stragglers_slow > 0, "{faults:?}");
    assert!(faults.checkpointed_attempts > 0, "{faults:?}");
    assert!(
        faults.replayed > 0 && faults.replay_successes > 0,
        "{faults:?}"
    );
    assert!(res.metrics.dead_lettered_count() > 0, "{faults:?}");
    check_fold_against_rows(&res.metrics).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fold_matches_rows_bit_for_bit(
        seed in 0u64..1000,
        topeft in any::<bool>(),
        salvage in 0.0f64..=1.0,
        algorithm in prop::sample::select(AlgorithmKind::PAPER_SET.to_vec()),
    ) {
        let res = faulty_fold_run(seed, topeft, salvage, algorithm);
        check_fold_against_rows(&res.metrics)?;
        // The serial replay folds the same way.
        let wf = PaperWorkflow::TopEft.spec(seed).category_tasks(vec![12, 60, 8]).materialize().unwrap();
        let replayed = replay(&wf, algorithm, EnforcementModel::InstantPeak, seed, WorkflowMetrics::with_rows());
        check_fold_against_rows(&replayed)?;
    }
}

/// The rebuild cadence across [`EXACT_REBUCKET_LIMIT`]: an observation up
/// to the limit makes the next prediction rebuild, and one past it waits
/// for a batch. The 4,096th record is a new maximum, so the prediction
/// after it shows whether it was folded in.
#[test]
fn cadence_turns_geometric_just_past_the_exact_limit() {
    assert_eq!(EXACT_REBUCKET_LIMIT, 4096);
    let mut estimator = BucketingEstimator::new(GreedyBucketing::new());
    for i in 0..4094 {
        estimator.observe(100.0 + (i % 97) as f64, 1.0);
    }
    // The top draw picks the top bucket, whose representative is the
    // largest record the bucket set has seen.
    let top = 0.999_999;
    assert_eq!(estimator.first(top), Some(196.0));
    assert_eq!(estimator.version(), 1);

    let steps = [
        // (value observed, records after it, version, top prediction)
        (150.0, 4095, 2, 196.0),
        (50_000.0, 4096, 3, 50_000.0),
        // Deferred: one pending record is under 1/64 of the list, so the
        // prediction serves the set built at 4,096 records.
        (80_000.0, 4097, 3, 50_000.0),
    ];
    for (value, records, version, predicted) in steps {
        estimator.observe(value, 1_000.0);
        assert_eq!(estimator.len(), records);
        assert_eq!(
            estimator.first(top),
            Some(predicted),
            "at {records} records"
        );
        assert_eq!(estimator.version(), version, "at {records} records");
    }
}
