//! Golden-output tests for `tora simulate --plan`: at a fixed seed the
//! output, rendered `FaultReport` included, must be byte-identical from run
//! to run. Fault injection
//! draws from a dedicated seeded stream, so any nondeterminism (hash-order
//! iteration, time-dependent formatting, an RNG draw leaking between
//! streams) shows up here as a diff before it can poison an experiment.

use std::process::Command;

fn tora_stdout(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_tora"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "tora {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The rendered `FaultReport`: the stdout from its `== fault report` title
/// to the end, so assertions cannot match the run header above it.
fn fault_report(stdout: &str) -> String {
    let start = stdout
        .find("== fault report")
        .unwrap_or_else(|| panic!("no fault report in: {stdout}"));
    stdout[start..].to_string()
}

/// Run `tora simulate bimodal --tasks 120 --seed 7 <extra>` twice, check the
/// whole stdout is identical, and return its fault report. The command exits
/// non-zero when conservation fails, so a returned report has balanced
/// books; the row says so too.
fn golden_report(extra: &[&str]) -> String {
    let mut args = vec!["simulate", "bimodal", "--tasks", "120", "--seed", "7"];
    args.extend(extra);
    let first = tora_stdout(&args);
    let second = tora_stdout(&args);
    assert_eq!(
        first, second,
        "tora {args:?}: output differs between identical runs"
    );
    let report = fault_report(&first);
    assert!(
        report.contains("ok (submitted = completed + dead-lettered)"),
        "tora {args:?}: {report}"
    );
    report
}

#[test]
fn heavy_preset_report_is_byte_stable() {
    let report = golden_report(&["--plan", "heavy"]);
    assert!(
        report.starts_with("== fault report — exhaustive-bucketing (seed 7) =="),
        "{report}"
    );
    // The report must carry the full terminal-state ledger.
    for row in ["submitted", "completed", "dead-lettered", "conservation"] {
        assert!(report.contains(row), "missing row {row:?}: {report}");
    }
}

#[test]
fn rack_outages_preset_report_is_byte_stable() {
    let report = golden_report(&["--plan", "rack-outages"]);
    // Correlated crashes must surface both granularities: the rack-level
    // event count and the per-worker casualties.
    assert!(report.contains("rack crashes"), "{report}");
    assert!(report.contains("worker crashes"), "{report}");
    // Replay is armed in this preset, so the replay ledger rows render.
    assert!(report.contains("replayed"), "{report}");
    assert!(report.contains("replay successes"), "{report}");
}

#[test]
fn dag_shape_report_is_byte_stable_and_carries_critical_path_rows() {
    // A structured run surfaces critical-path accounting in the report:
    // the submit-time longest path, the realized path with its inflation
    // factor, and the waste split into on-path vs off-path MB*s. Those
    // rows must render and the whole report must stay byte-stable.
    let args = [
        "simulate", "bimodal", "--shape", "diamond", "--width", "3", "--depth", "4", "--seed", "7",
        "--plan", "light",
    ];
    let first = tora_stdout(&args);
    let second = tora_stdout(&args);
    assert_eq!(first, second, "DAG fault report differs between runs");
    let report = fault_report(&first);
    for row in [
        "critical path (submit)",
        "critical path (realized)",
        "waste on / off path",
        "conservation",
    ] {
        assert!(report.contains(row), "missing row {row:?}: {report}");
    }
}

#[test]
fn feedback_flag_keeps_the_report_deterministic() {
    // The fault-feedback policy adjusts allocations from observed outcomes
    // but consumes no randomness of its own: with --feedback the report
    // must still be byte-stable at a fixed seed.
    let report = golden_report(&["--plan", "rack-outages", "--feedback"]);
    assert!(
        report.starts_with("== fault report — exhaustive-bucketing (seed 7) =="),
        "{report}"
    );
}

#[test]
fn salvage_report_is_byte_stable_and_banks_work() {
    // Checkpoint/restart: crashed attempts bank half their finished work,
    // and the report carries the salvage rows.
    let report = golden_report(&["--plan", "heavy", "--salvage", "0.5"]);
    assert!(report.contains("checkpointed attempts"), "{report}");
    assert!(report.contains("salvaged work"), "{report}");
}

#[test]
fn feature_conditioned_comparators_survive_heavy_faults_with_feedback() {
    // The per-category fault windows and rack crash scores feed the
    // feature-conditioned estimators too; their reports stay byte-stable.
    for algorithm in ["feature-binned", "semi-bandit"] {
        let report = golden_report(&["--plan", "heavy", "--algorithm", algorithm, "--feedback"]);
        let title = format!("== fault report — {algorithm} (seed 7) ==");
        assert!(report.starts_with(&title), "{report}");
    }
}
