//! Unit tests for the adaptive allocator.

use super::*;
use crate::estimator::AllocSource;
use crate::task::TaskSpec;
use crate::trace::{MemorySink, TraceStats};

fn record(id: u64, category: u32, peak: ResourceVector) -> ResourceRecord {
    ResourceRecord::from_task(&TaskSpec::new(id, category, peak, 10.0))
}

#[test]
fn bucketing_explores_conservatively() {
    let mut a = Allocator::new(AlgorithmKind::ExhaustiveBucketing, 1);
    let alloc = a.predict_first(CategoryId(0));
    assert_eq!(alloc.cores(), 1.0);
    assert_eq!(alloc.memory_mb(), 1024.0);
    assert_eq!(alloc.disk_mb(), 1024.0);
    assert_eq!(alloc.kind, PredictKind::Explore);
    assert!(alloc.provenance.is_empty());
}

#[test]
fn comparators_explore_with_whole_machine() {
    for kind in [
        AlgorithmKind::MaxSeen,
        AlgorithmKind::MinWaste,
        AlgorithmKind::MaxThroughput,
        AlgorithmKind::QuantizedBucketing,
        AlgorithmKind::WholeMachine,
    ] {
        let mut a = Allocator::new(kind, 1);
        let alloc = a.predict_first(CategoryId(0));
        assert_eq!(alloc, WorkerSpec::paper_default().capacity, "{kind}");
    }
}

#[test]
fn leaves_exploration_after_threshold_records() {
    let mut a = Allocator::new(AlgorithmKind::MaxSeen, 1);
    for i in 0..9 {
        a.observe(&record(i, 0, ResourceVector::new(1.0, 300.0, 300.0)));
    }
    // 9 records: still exploring.
    assert_eq!(
        a.predict_first(CategoryId(0)),
        WorkerSpec::paper_default().capacity
    );
    a.observe(&record(9, 0, ResourceVector::new(1.0, 306.0, 306.0)));
    // 10 records: steady state. Max Seen rounds 306 → 500.
    let alloc = a.predict_first(CategoryId(0));
    assert_eq!(alloc.memory_mb(), 500.0);
    assert_eq!(alloc.disk_mb(), 500.0);
    assert_eq!(alloc.cores(), 1.0);
    assert_eq!(alloc.kind, PredictKind::First);
    assert_eq!(a.records_for(CategoryId(0)), 10);
}

#[test]
fn categories_are_independent() {
    let mut a = Allocator::new(AlgorithmKind::MaxSeen, 1);
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(1.0, 100.0, 100.0)));
    }
    // Category 1 has no records: still whole-machine exploration.
    assert_eq!(
        a.predict_first(CategoryId(1)),
        WorkerSpec::paper_default().capacity
    );
    assert_eq!(a.records_for(CategoryId(1)), 0);
    // Category 0 is in steady state.
    assert!(a.predict_first(CategoryId(0)).memory_mb() <= 250.0);
}

#[test]
fn exploratory_retry_doubles_only_exhausted_axes() {
    let mut a = Allocator::new(AlgorithmKind::GreedyBucketing, 1);
    let first = a.predict_first(CategoryId(0));
    let exhausted = ResourceMask::only(ResourceKind::MemoryMb);
    let retry = a.predict_retry(CategoryId(0), &first, &exhausted);
    assert_eq!(retry.memory_mb(), 2048.0);
    assert_eq!(retry.cores(), 1.0);
    assert_eq!(retry.disk_mb(), 1024.0);
    assert_eq!(retry.kind, PredictKind::Retry);
    // Provenance: memory doubled, the untouched axes held.
    let mem = retry.axis(ResourceKind::MemoryMb).unwrap();
    assert_eq!(mem.source, AllocSource::Doubling);
    assert_eq!(mem.draw, None); // exploration consults no estimator
    let cores = retry.axis(ResourceKind::Cores).unwrap();
    assert_eq!(cores.source, AllocSource::Held);
}

#[test]
fn retry_never_shrinks_any_axis() {
    let mut a = Allocator::new(AlgorithmKind::ExhaustiveBucketing, 7);
    for i in 0..20 {
        a.observe(&record(
            i,
            0,
            ResourceVector::new(1.0, 100.0 + i as f64, 10.0),
        ));
    }
    let first = a.predict_first(CategoryId(0));
    let mask = ResourceMask::only(ResourceKind::MemoryMb);
    let retry = a.predict_retry(CategoryId(0), &first, &mask);
    assert!(retry.dominates(&first));
    assert!(retry.memory_mb() > first.memory_mb());
}

#[test]
fn allocations_clamped_to_machine() {
    let mut a = Allocator::new(AlgorithmKind::MaxSeen, 1);
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(16.0, 65000.0, 65000.0)));
    }
    let cap = WorkerSpec::paper_default().capacity;
    // Max Seen rounds 65000 up to 65250 — the clamp keeps it at capacity.
    let alloc = a.predict_first(CategoryId(0));
    assert!(cap.dominates(&alloc));
    // Doubling past capacity stays clamped too, and the provenance
    // records that clamping intervened.
    let retry = a.predict_retry(
        CategoryId(0),
        &cap,
        &ResourceMask::only(ResourceKind::MemoryMb),
    );
    assert!(cap.dominates(&retry));
    assert!(retry.axis(ResourceKind::MemoryMb).unwrap().clamped);
}

#[test]
fn steady_state_escalation_terminates_for_feasible_tasks() {
    for kind in AlgorithmKind::PAPER_SET {
        let mut a = Allocator::new(kind, 3);
        for i in 0..10 {
            a.observe(&record(i, 0, ResourceVector::new(1.0, 200.0, 50.0)));
        }
        // A task demanding more than anything seen (but feasible).
        let demand = ResourceVector::new(4.0, 30000.0, 4000.0);
        let mut alloc = a.predict_first(CategoryId(0)).into_alloc();
        let mut attempts = 0;
        while !alloc.dominates(&demand) {
            let exhausted = alloc.exceeded_by(&demand);
            alloc = a
                .predict_retry(CategoryId(0), &alloc, &exhausted)
                .into_alloc();
            attempts += 1;
            assert!(attempts < 64, "{kind}: escalation did not terminate");
        }
    }
}

#[test]
fn unmanaged_axes_get_full_capacity() {
    let mut a = Allocator::new(AlgorithmKind::GreedyBucketing, 1);
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(1.0, 100.0, 100.0)));
    }
    let alloc = a.predict_first(CategoryId(0));
    // Gpus is unmanaged: allocated at machine capacity (0 by default),
    // and absent from the provenance.
    assert_eq!(alloc.gpus(), WorkerSpec::paper_default().capacity.gpus());
    assert!(alloc.axis(ResourceKind::Gpus).is_none());
    assert_eq!(alloc.provenance.len(), 3);
}

#[test]
fn managed_axes_are_configurable() {
    let config = AllocatorConfig {
        managed: vec![ResourceKind::MemoryMb],
        ..AllocatorConfig::default()
    };
    let mut a = Allocator::with_config(AlgorithmKind::MaxSeen, config, 1);
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(2.0, 100.0, 100.0)));
    }
    let alloc = a.predict_first(CategoryId(0));
    // Memory managed; cores/disk fall back to machine capacity.
    assert_eq!(alloc.memory_mb(), 250.0);
    assert_eq!(alloc.cores(), 16.0);
    assert_eq!(alloc.disk_mb(), 65536.0);
}

#[test]
fn deterministic_under_fixed_seed() {
    let run = |seed| {
        let mut a = Allocator::new(AlgorithmKind::ExhaustiveBucketing, seed);
        for i in 0..30 {
            a.observe(&record(
                i,
                0,
                ResourceVector::new(1.0, if i % 2 == 0 { 100.0 } else { 900.0 }, 10.0),
            ));
        }
        (0..20)
            .map(|_| a.predict_first(CategoryId(0)).memory_mb())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42));
    // Different seeds should (almost surely) differ somewhere.
    assert_ne!(run(42), run(43));
}

#[test]
fn sink_choice_does_not_change_decisions() {
    let run_traced = |seed| {
        let mut a =
            Allocator::new(AlgorithmKind::ExhaustiveBucketing, seed).with_sink(MemorySink::new());
        for i in 0..30 {
            a.observe(&record(
                i,
                0,
                ResourceVector::new(1.0, 100.0 + i as f64, 10.0),
            ));
        }
        (0..20)
            .map(|_| a.predict_first(CategoryId(0)).memory_mb())
            .collect::<Vec<_>>()
    };
    let run_plain = |seed| {
        let mut a = Allocator::new(AlgorithmKind::ExhaustiveBucketing, seed);
        for i in 0..30 {
            a.observe(&record(
                i,
                0,
                ResourceVector::new(1.0, 100.0 + i as f64, 10.0),
            ));
        }
        (0..20)
            .map(|_| a.predict_first(CategoryId(0)).memory_mb())
            .collect::<Vec<_>>()
    };
    assert_eq!(run_traced(9), run_plain(9));
}

#[test]
fn retry_escalates_unmanaged_exhausted_axis_to_capacity() {
    // Regression: only memory is managed, but the kill exhausted cores.
    // The estimator loop and the escalate loop both iterate the managed
    // set, so before the unmanaged-axis pass the retry returned `prev`
    // unchanged — and the engine re-killed the task forever.
    let config = AllocatorConfig {
        managed: vec![ResourceKind::MemoryMb],
        ..AllocatorConfig::default()
    };
    let mut a = Allocator::with_config(AlgorithmKind::MaxSeen, config, 1);
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(2.0, 100.0, 100.0)));
    }
    let prev = ResourceVector::new(1.0, 250.0, 65536.0)
        .with(ResourceKind::TimeS, WorkerSpec::UNLIMITED_TIME_S);
    let exhausted = ResourceMask::only(ResourceKind::Cores);
    let retry = a.predict_retry(CategoryId(0), &prev, &exhausted);
    assert_ne!(
        retry.alloc, prev,
        "retry must change an allocation whose kill axis is unmanaged"
    );
    assert_eq!(retry.cores(), 16.0, "raised to machine capacity");
    assert!(!retry.infeasible);
    let cores = retry.axis(ResourceKind::Cores).unwrap();
    assert_eq!(cores.source, AllocSource::Capacity);
}

#[test]
fn retry_at_capacity_is_marked_infeasible() {
    let mut a = Allocator::new(AlgorithmKind::MaxSeen, 1);
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(1.0, 100.0, 100.0)));
    }
    let cap = WorkerSpec::paper_default().capacity;
    // Every exhausted axis already at capacity: nothing can grow.
    let retry = a.predict_retry(
        CategoryId(0),
        &cap,
        &ResourceMask::only(ResourceKind::MemoryMb),
    );
    assert_eq!(retry.alloc, cap);
    assert!(retry.infeasible);
    // Same for an unmanaged axis already at capacity.
    let retry = a.predict_retry(CategoryId(0), &cap, &ResourceMask::only(ResourceKind::Gpus));
    assert!(retry.infeasible);
    // But a retry that can still raise some exhausted axis is feasible.
    let below = cap.with(ResourceKind::MemoryMb, 100.0);
    let retry = a.predict_retry(
        CategoryId(0),
        &below,
        &ResourceMask::only(ResourceKind::MemoryMb),
    );
    assert!(!retry.infeasible);
    assert!(retry.memory_mb() > 100.0);
}

#[test]
fn non_finite_records_are_rejected_and_leave_predictions_unchanged() {
    // Max Seen predicts the rounded running maximum — deterministic, so
    // any post-poisoning drift is attributable to the bad record alone.
    let mut a = Allocator::new(AlgorithmKind::MaxSeen, 11);
    for i in 0..12 {
        a.observe(&record(
            i,
            0,
            ResourceVector::new(1.0, 200.0 + i as f64, 50.0),
        ));
    }
    let before = a.predict_first(CategoryId(0)).into_alloc();
    // NaN peak, negative peak, non-finite significance: all rejected.
    // Built directly — `TaskSpec::new` debug-asserts finiteness, but a
    // record arriving over the wire carries no such guarantee.
    let raw = |peak: ResourceVector, significance: f64| crate::task::ResourceRecord {
        task: crate::task::TaskId(100),
        category: CategoryId(0),
        peak,
        duration_s: 10.0,
        significance,
        features: crate::task::TaskFeatures::default(),
    };
    assert!(!a.observe(&raw(ResourceVector::new(1.0, f64::NAN, 50.0), 100.0)));
    assert!(!a.observe(&raw(ResourceVector::new(-1.0, 200.0, 50.0), 100.0)));
    assert!(!a.observe(&raw(ResourceVector::new(1.0, 200.0, 50.0), f64::INFINITY)));
    assert_eq!(a.rejected_records(), 3);
    assert_eq!(
        a.records_for(CategoryId(0)),
        12,
        "rejected records not counted"
    );
    let after = a.predict_first(CategoryId(0)).into_alloc();
    assert_eq!(before, after, "a poisoned record must not move predictions");
    // A later valid record still lands.
    assert!(a.observe(&record(103, 0, ResourceVector::new(1.0, 220.0, 50.0))));
    assert_eq!(a.records_for(CategoryId(0)), 13);
}

#[test]
fn fault_feedback_without_observed_faults_changes_nothing() {
    // Same seed, one allocator with the policy installed and fed
    // success-only outcomes: every prediction must match the plain one.
    let mut plain = Allocator::new(AlgorithmKind::ExhaustiveBucketing, 9);
    let mut fed = Allocator::builder(AlgorithmKind::ExhaustiveBucketing)
        .seed(9)
        .fault_policy(FaultPolicy::default())
        .build();
    assert!(fed.fault_policy().is_some());
    for i in 0..20 {
        let r = record(i, 0, ResourceVector::new(1.0, 100.0 + i as f64, 10.0));
        plain.observe(&r);
        fed.observe(&r);
        fed.observe_outcome(CategoryId(0), AttemptFeedback::Success, None);
    }
    assert_eq!(fed.windowed_fault_rate(), 0.0);
    for _ in 0..5 {
        let a = plain.predict_first(CategoryId(0)).into_alloc();
        let b = fed.predict_first(CategoryId(0)).into_alloc();
        assert_eq!(a, b);
        let mask = ResourceMask::only(ResourceKind::MemoryMb);
        let ra = plain.predict_retry(CategoryId(0), &a, &mask).into_alloc();
        let rb = fed.predict_retry(CategoryId(0), &b, &mask).into_alloc();
        assert_eq!(ra, rb);
    }
}

#[test]
fn fault_feedback_pads_and_escalates_under_observed_faults() {
    // Max Seen is deterministic, so any drift is the policy's doing.
    let mut a = Allocator::builder(AlgorithmKind::MaxSeen)
        .seed(1)
        .fault_policy(FaultPolicy::default())
        .build();
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(1.0, 300.0, 300.0)));
    }
    let baseline = a.predict_first(CategoryId(0)).into_alloc();
    for _ in 0..16 {
        a.observe_outcome(CategoryId(0), AttemptFeedback::Crash, None);
    }
    assert_eq!(a.windowed_fault_rate(), 1.0);
    let padded = a.predict_first(CategoryId(0)).into_alloc();
    assert!(
        padded.memory_mb() > baseline.memory_mb(),
        "padding must grow first predictions ({} vs {})",
        padded.memory_mb(),
        baseline.memory_mb()
    );
    // Escalation bias: a hostile window raises exhausted axes at least
    // as far as a calm one, from the same estimator state and seed.
    let retry_after = |outcome: AttemptFeedback| {
        let mut a = Allocator::builder(AlgorithmKind::GreedyBucketing)
            .seed(3)
            .fault_policy(FaultPolicy::default())
            .build();
        for i in 0..10 {
            a.observe(&record(
                i,
                0,
                ResourceVector::new(1.0, 100.0 + 20.0 * i as f64, 50.0),
            ));
        }
        for _ in 0..16 {
            a.observe_outcome(CategoryId(0), outcome, None);
        }
        let prev = ResourceVector::new(1.0, 150.0, 50.0);
        a.predict_retry(
            CategoryId(0),
            &prev,
            &ResourceMask::only(ResourceKind::MemoryMb),
        )
        .into_alloc()
    };
    let calm = retry_after(AttemptFeedback::Success);
    let hostile = retry_after(AttemptFeedback::Crash);
    assert!(hostile.memory_mb() >= calm.memory_mb());
    assert!(hostile.memory_mb() > 150.0, "retry must still escalate");
}

#[test]
fn observe_outcome_emits_feedback_events() {
    let mut a = Allocator::builder(AlgorithmKind::MaxSeen)
        .seed(2)
        .sink(TraceStats::new());
    a.observe_outcome(CategoryId(4), AttemptFeedback::Crash, None);
    a.observe_outcome(CategoryId(4), AttemptFeedback::Success, None);
    let stats = a.into_sink();
    assert_eq!(stats.overall.feedback, 2);
    assert_eq!(stats.category(CategoryId(4)).unwrap().feedback, 2);
}

#[test]
fn paper_set_has_seven_distinct_labels() {
    let labels: std::collections::HashSet<_> =
        AlgorithmKind::PAPER_SET.iter().map(|k| k.label()).collect();
    assert_eq!(labels.len(), 7);
    assert!(AlgorithmKind::GreedyBucketing.is_novel_bucketing());
    assert!(!AlgorithmKind::MaxSeen.is_novel_bucketing());
}

#[test]
fn with_config_configures_everything() {
    let config = AllocatorConfig {
        machine: WorkerSpec::new(ResourceVector::new(8.0, 4096.0, 4096.0)),
        managed: vec![ResourceKind::MemoryMb],
        exploratory_records: 3,
        exploratory: Some(ExploratoryPolicy::paper_conservative()),
        uniform_significance: true,
    };
    let a = Allocator::with_config(AlgorithmKind::MaxSeen, config, 7);
    assert_eq!(a.config().machine.capacity.cores(), 8.0);
    assert_eq!(a.config().managed, vec![ResourceKind::MemoryMb]);
    assert_eq!(a.config().exploratory_records, 3);
    assert!(a.config().uniform_significance);
    assert_eq!(a.exploratory, ExploratoryPolicy::paper_conservative());
    assert_eq!(a.algorithm(), Some(AlgorithmKind::MaxSeen));
}

#[test]
fn traced_allocator_emits_the_full_event_stream() {
    let config = AllocatorConfig {
        exploratory_records: 2,
        ..AllocatorConfig::default()
    };
    let mut a = Allocator::with_config(AlgorithmKind::GreedyBucketing, config, 5)
        .with_sink(TraceStats::new());
    // One exploratory prediction.
    let _ = a.predict_first(CategoryId(0));
    // Two observations leave exploration.
    for i in 0..2 {
        a.observe(&record(i, 0, ResourceVector::new(1.0, 300.0, 100.0)));
    }
    // Steady-state first prediction (triggers the first rebucket of all
    // three managed axes).
    let _ = a.predict_first(CategoryId(0));
    // A retry exhausting one axis.
    let prev = ResourceVector::new(1.0, 300.0, 100.0);
    let _ = a.predict_retry(
        CategoryId(0),
        &prev,
        &ResourceMask::only(ResourceKind::MemoryMb),
    );
    let stats = a.into_sink();
    assert_eq!(stats.overall.explore, 1);
    assert_eq!(stats.overall.first, 1);
    assert_eq!(stats.overall.retry, 1);
    assert_eq!(stats.overall.observe, 2);
    assert_eq!(stats.overall.escalate, 1);
    assert_eq!(stats.overall.rebucket, 3, "one per managed axis");
    assert_eq!(stats.category(CategoryId(0)).unwrap().total(), 9);
}

#[test]
fn snapshot_is_read_only_rebucket_refreshes() {
    let mut a = Allocator::new(AlgorithmKind::ExhaustiveBucketing, 1);
    assert!(a.snapshot(CategoryId(0), ResourceKind::MemoryMb).is_none());
    for i in 0..10 {
        a.observe(&record(i, 0, ResourceVector::new(1.0, 100.0, 100.0)));
    }
    // Observations alone never build buckets.
    assert!(a.snapshot(CategoryId(0), ResourceKind::MemoryMb).is_none());
    let info = a.rebucket(CategoryId(0), ResourceKind::MemoryMb).unwrap();
    assert_eq!(info.n_records, 10);
    let set = a.snapshot(CategoryId(0), ResourceKind::MemoryMb).unwrap();
    assert_eq!(set.len(), info.n_buckets);
    // Unmanaged axis: nothing to rebucket.
    assert!(a.rebucket(CategoryId(0), ResourceKind::Gpus).is_none());
}

#[test]
fn decision_display_and_conversions() {
    let mut a = Allocator::new(AlgorithmKind::GreedyBucketing, 1);
    let d = a.predict_first(CategoryId(0));
    let s = format!("{d}");
    assert!(s.starts_with("explore"));
    let v: ResourceVector = d.clone().into();
    assert_eq!(d, v);
}

/// Build a pair of identically-seeded allocators with categories 0..cats
/// past exploration (and one extra category still exploring).
fn seeded_pair(
    algorithm: AlgorithmKind,
    seed: u64,
    cats: u32,
) -> (Allocator<MemorySink>, Allocator<MemorySink>) {
    let mut a = Allocator::new(algorithm, seed).with_sink(MemorySink::new());
    let mut b = Allocator::new(algorithm, seed).with_sink(MemorySink::new());
    for id in 0..u64::from(cats) * 12 {
        let cat = (id % u64::from(cats)) as u32;
        let peak = ResourceVector::new(
            1.0 + (id % 4) as f64,
            300.0 + (id * 37 % 500) as f64,
            150.0 + (id * 13 % 200) as f64,
        );
        assert!(a.observe(&record(id, cat, peak)));
        assert!(b.observe(&record(id, cat, peak)));
    }
    (a, b)
}

#[test]
fn category_streams_ignore_how_other_categories_interleave() {
    // Each shard draws from its own `seed ^ category` stream, so category
    // 0's answers (and trace events) are the same whether or not category
    // 1 is predicted between them.
    for algorithm in [
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::GreedyBucketing,
        AlgorithmKind::MaxSeen,
    ] {
        let (mut alone, mut mixed) = seeded_pair(algorithm, 9, 2);
        let mut want = Vec::new();
        let mut got = Vec::new();
        for _ in 0..12 {
            want.push(alone.predict_first(CategoryId(0)));
            mixed.predict_first(CategoryId(1));
            got.push(mixed.predict_first(CategoryId(0)));
        }
        assert_eq!(want, got, "{algorithm}");
        let category_0 = |a: &Allocator<MemorySink>| -> Vec<AllocEvent> {
            a.sink()
                .events
                .iter()
                .filter(|e| e.category() == CategoryId(0))
                .cloned()
                .collect()
        };
        assert_eq!(category_0(&alone), category_0(&mixed), "{algorithm}");
    }
}

#[test]
fn rebucket_all_sweeps_categories_in_ascending_order() {
    let (mut a, _) = seeded_pair(AlgorithmKind::ExhaustiveBucketing, 5, 3);
    let swept = a.rebucket_all();
    // Three categories × three managed axes, in ascending category order.
    assert_eq!(swept.len(), 9);
    let cats: Vec<u32> = swept.iter().map(|(c, _, _)| c.0).collect();
    let mut sorted = cats.clone();
    sorted.sort_unstable();
    assert_eq!(cats, sorted);
    // One trace event per swept pair, in the same order.
    let traced: Vec<AllocEvent> = swept
        .iter()
        .map(|(c, k, info)| AllocEvent::rebucket(*c, *k, info))
        .collect();
    assert_eq!(&a.sink().events[a.sink().events.len() - 9..], &traced[..]);
}

#[test]
fn single_category_streams_match_the_legacy_global_rng() {
    // A shard's stream is seeded `seed ^ category`, so category 0 at seed
    // 42 and category 5 at seed 42 ^ 5 draw the very same stream: 42, the
    // pre-sharding allocator-global seed (pinned by every golden test).
    let mut zero = Allocator::new(AlgorithmKind::GreedyBucketing, 42);
    let mut five = Allocator::new(AlgorithmKind::GreedyBucketing, 42 ^ 5);
    for id in 0..12u64 {
        let peak =
            ResourceVector::new(1.0 + (id % 4) as f64, 300.0 + (id * 37 % 500) as f64, 200.0);
        assert!(zero.observe(&record(id, 0, peak)));
        assert!(five.observe(&record(id, 5, peak)));
    }
    for _ in 0..8 {
        let a = zero.predict_first(CategoryId(0));
        let b = five.predict_first(CategoryId(5));
        assert_eq!(a.alloc, b.alloc);
    }
}
