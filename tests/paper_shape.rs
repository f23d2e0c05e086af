//! End-to-end assertions on the paper's headline qualitative results:
//! who wins where, and the §V-C talking points.

use tora::prelude::*;

fn small_sim(workflow: &Workflow, algorithm: AlgorithmKind, seed: u64) -> SimResult {
    // A scaled-down paper-like setting keeps debug-mode test time sane.
    let config = SimConfig {
        churn: ChurnConfig {
            initial: 4,
            min: 8,
            max: 16,
            mean_interval_s: Some(15.0),
        },
        arrival: ArrivalModel::Poisson {
            mean_interval_s: 1.5,
        },
        ..SimConfig::paper_like(seed)
    };
    simulate(workflow, algorithm, config)
}

#[test]
fn bucketing_beats_whole_machine_on_every_synthetic() {
    for kind in [
        SyntheticKind::Normal,
        SyntheticKind::Bimodal,
        SyntheticKind::Uniform,
    ] {
        let wf = kind
            .catalog_workflow()
            .spec(9)
            .tasks(300)
            .materialize()
            .unwrap();
        let eb = small_sim(&wf, AlgorithmKind::ExhaustiveBucketing, 9);
        let wm = small_sim(&wf, AlgorithmKind::WholeMachine, 9);
        for res in [
            ResourceKind::Cores,
            ResourceKind::MemoryMb,
            ResourceKind::DiskMb,
        ] {
            let eb_awe = eb.metrics.awe(res).unwrap();
            let wm_awe = wm.metrics.awe(res).unwrap();
            assert!(
                eb_awe > wm_awe,
                "{kind:?}/{res}: EB {eb_awe} should beat whole machine {wm_awe}"
            );
        }
    }
}

#[test]
fn whole_machine_never_fails_an_allocation() {
    let wf = SyntheticKind::Exponential
        .catalog_workflow()
        .spec(4)
        .tasks(300)
        .materialize()
        .unwrap();
    let res = small_sim(&wf, AlgorithmKind::WholeMachine, 4);
    assert_eq!(res.metrics.total_retries(), 0);
    assert_eq!(res.metrics.attempts_histogram(), [wf.len()]);
}

#[test]
fn topeft_disk_bucketing_beats_max_seen_rounding() {
    // §V-C: constant 306 MB disk → bucketing allocates exactly 306 in the
    // steady state; Max Seen's 250-MB histogram rounds to 500.
    let wf = PaperWorkflow::TopEft
        .spec(2)
        .category_tasks(vec![50, 800, 30])
        .materialize()
        .unwrap();
    let eb = small_sim(&wf, AlgorithmKind::ExhaustiveBucketing, 2);
    let ms = small_sim(&wf, AlgorithmKind::MaxSeen, 2);
    let eb_disk = eb.metrics.awe(ResourceKind::DiskMb).unwrap();
    let ms_disk = ms.metrics.awe(ResourceKind::DiskMb).unwrap();
    assert!(
        eb_disk > ms_disk,
        "EB disk {eb_disk} should beat Max Seen {ms_disk}"
    );
    assert!(eb_disk > 0.6, "EB disk efficiency {eb_disk} should be high");
}

#[test]
fn colmena_disk_is_single_digit_for_all_algorithms() {
    // §V-C: ~10 MB disk usage against the exploratory floors makes every
    // algorithm's disk efficiency collapse on ColmenaXTB.
    let wf = PaperWorkflow::ColmenaXtb
        .spec(6)
        .category_tasks(vec![80, 350])
        .materialize()
        .unwrap();
    for alg in AlgorithmKind::PAPER_SET {
        let res = small_sim(&wf, alg, 6);
        let disk = res.metrics.awe(ResourceKind::DiskMb).unwrap();
        assert!(disk < 0.10, "{alg}: ColmenaXTB disk AWE {disk}");
    }
}

#[test]
fn exponential_is_the_hardest_synthetic_for_bucketing() {
    let seeds = 3u64;
    let mean_awe = |kind: SyntheticKind| {
        (0..seeds)
            .map(|s| {
                let wf = kind
                    .catalog_workflow()
                    .spec(s)
                    .tasks(400)
                    .materialize()
                    .unwrap();
                small_sim(&wf, AlgorithmKind::ExhaustiveBucketing, s)
                    .metrics
                    .awe(ResourceKind::MemoryMb)
                    .unwrap()
            })
            .sum::<f64>()
            / seeds as f64
    };
    let exp = mean_awe(SyntheticKind::Exponential);
    let normal = mean_awe(SyntheticKind::Normal);
    let uniform = mean_awe(SyntheticKind::Uniform);
    assert!(
        exp < normal && exp < uniform,
        "exponential {exp} should trail normal {normal} and uniform {uniform}"
    );
}

#[test]
fn quantized_bucketing_under_allocates_by_design() {
    // Fig. 6: Quantized Bucketing carries the largest failed-allocation
    // share — the median-first policy fails roughly half its first tries.
    let wf = SyntheticKind::Normal
        .catalog_workflow()
        .spec(12)
        .tasks(300)
        .materialize()
        .unwrap();
    let qb = small_sim(&wf, AlgorithmKind::QuantizedBucketing, 12);
    let ms = small_sim(&wf, AlgorithmKind::MaxSeen, 12);
    let qb_share = qb.metrics.waste(ResourceKind::MemoryMb).failed_share();
    let ms_share = ms.metrics.waste(ResourceKind::MemoryMb).failed_share();
    assert!(
        qb_share > ms_share,
        "QB failed share {qb_share} should exceed Max Seen's {ms_share}"
    );
    assert!(qb.metrics.total_retries() > ms.metrics.total_retries());
}

#[test]
fn larger_workflows_amortize_better() {
    // §VII hypothesis at integration-test scale: 4x more tasks, same
    // distribution → efficiency should not degrade (and typically improves).
    let small = PaperWorkflow::TopEft
        .spec(8)
        .category_tasks(vec![30, 300, 20])
        .materialize()
        .unwrap();
    let large = PaperWorkflow::TopEft
        .spec(8)
        .category_tasks(vec![120, 1200, 80])
        .materialize()
        .unwrap();
    let s = small_sim(&small, AlgorithmKind::ExhaustiveBucketing, 8)
        .metrics
        .awe(ResourceKind::DiskMb)
        .unwrap();
    let l = small_sim(&large, AlgorithmKind::ExhaustiveBucketing, 8)
        .metrics
        .awe(ResourceKind::DiskMb)
        .unwrap();
    assert!(l > s - 0.05, "large {l} should not trail small {s} by much");
}
