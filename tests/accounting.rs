//! Cross-crate accounting invariants: the §II-C identities must hold for
//! every algorithm on every execution path (serial replay and the engine).

use tora::prelude::*;

const KINDS: [ResourceKind; 3] = [
    ResourceKind::Cores,
    ResourceKind::MemoryMb,
    ResourceKind::DiskMb,
];

fn check_identities(metrics: &WorkflowMetrics, label: &str) {
    for kind in KINDS {
        let consumption = metrics.total_consumption(kind);
        let allocation = metrics.total_allocation(kind);
        let waste = metrics.waste(kind);
        // A = C + IF + FA.
        assert!(
            (allocation - (consumption + waste.total())).abs() <= 1e-6 * allocation.max(1.0),
            "{label}/{kind}: A {allocation} != C {consumption} + waste {}",
            waste.total()
        );
        // AWE = C / A ∈ (0, 1].
        let awe = metrics.awe(kind).unwrap();
        assert!(awe > 0.0 && awe <= 1.0, "{label}/{kind}: AWE {awe}");
        assert!((awe - consumption / allocation).abs() < 1e-12);
        // Waste components are non-negative.
        assert!(waste.internal_fragmentation >= -1e-9, "{label}/{kind}");
        assert!(waste.failed_allocation >= -1e-9, "{label}/{kind}");
    }
}

#[test]
fn replay_identities_hold_for_every_algorithm() {
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(31)
        .tasks(250)
        .materialize()
        .unwrap();
    for alg in AlgorithmKind::PAPER_SET {
        let m = replay(
            &wf,
            alg,
            EnforcementModel::LinearRamp,
            31,
            WorkflowMetrics::new(),
        );
        assert_eq!(m.len(), wf.len());
        check_identities(&m, alg.label());
    }
}

#[test]
fn engine_identities_hold_with_churn_and_preemption() {
    let wf = SyntheticKind::Uniform
        .catalog_workflow()
        .spec(17)
        .tasks(250)
        .materialize()
        .unwrap();
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 3,
            min: 2,
            max: 10,
            mean_interval_s: Some(10.0),
        },
        arrival: ArrivalModel::Poisson {
            mean_interval_s: 1.0,
        },
        ..SimConfig::paper_like(17)
    };
    for alg in [
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::MaxSeen,
        AlgorithmKind::QuantizedBucketing,
    ] {
        let res = Simulation::new(&wf, alg, config).keep_outcomes().run();
        assert_eq!(res.metrics.len(), wf.len(), "{alg}");
        check_identities(&res.metrics, alg.label());
        // Every task id appears exactly once.
        let rows = res.metrics.outcomes().expect("rows kept");
        let mut ids: Vec<u64> = rows.iter().map(|o| o.task.0).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] + 1 == w[1]),
            "{alg}: duplicate or missing tasks"
        );
        // Every outcome passes the structural check.
        for o in rows {
            o.check().unwrap();
        }
    }
}

#[test]
fn preemption_accounting_is_separate_from_waste() {
    // A preempted attempt must not enter the §II-C waste metric; it lands
    // in `preempted_alloc_time` instead.
    let wf = SyntheticKind::Normal
        .catalog_workflow()
        .spec(23)
        .tasks(300)
        .materialize()
        .unwrap();
    let churny = SimConfig {
        churn: ChurnConfig {
            initial: 6,
            min: 2,
            max: 8,
            mean_interval_s: Some(8.0),
        },
        arrival: ArrivalModel::Batch,
        ..SimConfig::paper_like(23)
    };
    let res = Simulation::new(&wf, AlgorithmKind::MaxSeen, churny)
        .keep_outcomes()
        .run();
    assert!(
        res.stats.preemptions > 0,
        "expected preemptions under heavy churn"
    );
    // Outcomes remain structurally sound despite preemptions.
    for o in res.metrics.outcomes().expect("rows kept") {
        o.check().unwrap();
    }
    // Preempted allocation-time is tracked and non-negative.
    assert!(res
        .preempted_alloc_time
        .iter()
        .all(|(_, v)| v.is_finite() && v >= 0.0));
}

#[test]
fn instant_peak_never_reports_higher_awe_than_linear_ramp() {
    // Identical verdicts, fuller charging of failures → AWE(instant) ≤
    // AWE(ramp) for every algorithm on every dimension.
    let wf = SyntheticKind::Exponential
        .catalog_workflow()
        .spec(5)
        .tasks(250)
        .materialize()
        .unwrap();
    for alg in [
        AlgorithmKind::ExhaustiveBucketing,
        AlgorithmKind::MinWaste,
        AlgorithmKind::QuantizedBucketing,
    ] {
        let ramp = replay(
            &wf,
            alg,
            EnforcementModel::LinearRamp,
            5,
            WorkflowMetrics::new(),
        );
        let instant = replay(
            &wf,
            alg,
            EnforcementModel::InstantPeak,
            5,
            WorkflowMetrics::new(),
        );
        for kind in KINDS {
            let r = ramp.awe(kind).unwrap();
            let i = instant.awe(kind).unwrap();
            assert!(i <= r + 1e-9, "{alg}/{kind}: instant {i} > ramp {r}");
        }
    }
}

#[test]
fn awe_is_independent_of_fixed_pool_size_for_deterministic_allocators() {
    // §II-C: AWE is worker-count independent. For deterministic allocators
    // whose predictions depend only on the record set, the serial replay and
    // any fixed pool agree exactly on the allocation totals when tasks are
    // batch-submitted and completions happen in the same order — weaker
    // version: whole machine is invariant under any pool size.
    let wf = SyntheticKind::Bimodal
        .catalog_workflow()
        .spec(2)
        .tasks(200)
        .materialize()
        .unwrap();
    let awe_for = |n: usize| {
        let config = SimConfig {
            churn: ChurnConfig::fixed(n),
            ..SimConfig::default()
        };
        simulate(&wf, AlgorithmKind::WholeMachine, config)
            .metrics
            .awe(ResourceKind::MemoryMb)
            .unwrap()
    };
    let a = awe_for(3);
    let b = awe_for(25);
    assert!((a - b).abs() < 1e-12, "{a} vs {b}");
}
