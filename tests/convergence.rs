//! Convergence behaviour: the §VII steady-state claims, measured.

use tora::metrics::{rolling_awe, steady_state_onset};
use tora::prelude::*;

/// An Exhaustive Bucketing paper-like run that keeps its per-task rows.
fn rows_of(wf: &Workflow, seed: u64) -> WorkflowMetrics {
    Simulation::new(
        wf,
        AlgorithmKind::ExhaustiveBucketing,
        SimConfig::paper_like(seed),
    )
    .keep_outcomes()
    .run()
    .metrics
}

#[test]
fn bucketing_converges_to_a_steady_state() {
    // §VII: the bucketing algorithms "quickly converge to a steady state on
    // workflows of around 4,500 tasks" — check onset on a 1,200-task run.
    let wf = SyntheticKind::Normal
        .catalog_workflow()
        .spec(4)
        .tasks(1200)
        .materialize()
        .unwrap();
    let metrics = rows_of(&wf, 4);
    // Bucket sampling keeps the trajectory noisy, so the band is generous;
    // what matters is that the run settles well before its end.
    let onset = steady_state_onset(
        metrics.outcomes().expect("rows kept"),
        ResourceKind::MemoryMb,
        120,
        0.15,
    )
    .expect("run should settle");
    assert!(
        onset < 900,
        "steady state should arrive well before the end (onset {onset})"
    );
}

#[test]
fn steady_state_beats_the_exploration_phase() {
    // The rolling AWE of the last quarter should beat the first window,
    // which pays the exploratory probes.
    let wf = PaperWorkflow::TopEft
        .spec(9)
        .category_tasks(vec![60, 900, 40])
        .materialize()
        .unwrap();
    let metrics = rows_of(&wf, 9);
    let points = rolling_awe(
        metrics.outcomes().expect("rows kept"),
        ResourceKind::DiskMb,
        100,
    );
    assert!(points.len() >= 4);
    let first = points.first().unwrap().1;
    let tail_start = points.len() * 3 / 4;
    let tail: f64 =
        points[tail_start..].iter().map(|p| p.1).sum::<f64>() / (points.len() - tail_start) as f64;
    assert!(
        tail > first,
        "steady-state disk AWE {tail} should beat the exploratory window {first}"
    );
    // TopEFT disk converges near the optimum (constant 306 MB consumption).
    assert!(tail > 0.8, "steady-state disk AWE {tail}");
}

#[test]
fn phase_change_is_relearned() {
    // The trimodal workflow moves its distribution twice; the rolling AWE
    // must not collapse after the phase changes (the significance weighting
    // re-learns). Compare against a frozen-oracle-free reference: the final
    // third's rolling AWE should be in the same band as the first third's.
    let wf = SyntheticKind::PhasingTrimodal
        .catalog_workflow()
        .spec(6)
        .tasks(1200)
        .materialize()
        .unwrap();
    let metrics = rows_of(&wf, 6);
    let points = rolling_awe(
        metrics.outcomes().expect("rows kept"),
        ResourceKind::MemoryMb,
        120,
    );
    let third = points.len() / 3;
    let mean = |s: &[(u64, f64)]| s.iter().map(|p| p.1).sum::<f64>() / s.len() as f64;
    let early = mean(&points[..third]);
    let late = mean(&points[2 * third..]);
    assert!(
        late > early * 0.7,
        "late-phase AWE {late} collapsed vs early {early}"
    );
}
