//! End-to-end tests of the `tora` command-line interface.

use std::process::Command;

fn tora(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_tora"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn help_and_listings() {
    let (ok, out, _) = tora(&["--help"]);
    assert!(ok);
    assert!(out.contains("simulate"));

    let (ok, out, _) = tora(&["algorithms"]);
    assert!(ok);
    for label in [
        "whole-machine",
        "max-seen",
        "min-waste",
        "max-throughput",
        "quantized-bucketing",
        "greedy-bucketing",
        "exhaustive-bucketing",
    ] {
        assert!(out.contains(label), "missing {label}");
    }
    assert!(!out.contains("incremental"), "{out}");

    let (ok, out, _) = tora(&["workflows"]);
    assert!(ok);
    assert!(out.contains("colmena-xtb"));
    assert!(out.contains("topeft"));
    assert!(out.contains("trimodal"));
}

#[test]
fn generate_emits_loadable_json() {
    let dir = std::env::temp_dir().join("tora-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let path_str = path.to_str().unwrap();
    let (ok, _, err) = tora(&[
        "generate", "normal", "--tasks", "40", "--seed", "5", "--out", path_str,
    ]);
    assert!(ok, "{err}");
    let wf = tora::workloads::io::load(&path).unwrap();
    assert_eq!(wf.len(), 40);

    // The generated file round-trips through `replay`.
    let (ok, out, err) = tora(&["replay", path_str, "--algorithm", "max-seen"]);
    assert!(ok, "{err}");
    assert!(out.contains("max-seen"), "{out}");
    assert!(out.contains("40 tasks"), "{out}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_reports_metrics_and_convergence() {
    let (ok, out, err) = tora(&[
        "simulate",
        "bimodal",
        "--tasks",
        "120",
        "--seed",
        "3",
        "--workers",
        "fixed:10",
        "--arrival",
        "poisson:1.0",
        "--policy",
        "fifo-backfill",
        "--convergence",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("120 tasks"), "{out}");
    assert!(out.contains("memory"), "{out}");
    assert!(out.contains("rolling memory AWE"), "{out}");
    assert!(out.contains("attempts per task"), "{out}");
}

#[test]
fn simulate_writes_event_log() {
    let dir = std::env::temp_dir().join("tora-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let path_str = path.to_str().unwrap();
    let (ok, _, err) = tora(&[
        "simulate", "uniform", "--tasks", "60", "--seed", "2", "--log", path_str,
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&path).unwrap();
    let log = tora::sim::EventLog::from_jsonl(&text).unwrap();
    log.check_consistency().unwrap();
    assert!(log.len() > 120); // ≥ submit + dispatch + finish per task
    std::fs::remove_file(&path).ok();
}

#[test]
fn log_is_refused_by_commands_that_write_no_event_log() {
    let dir = std::env::temp_dir().join("tora-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("refused.jsonl");
    let path_str = path.to_str().unwrap();
    std::fs::remove_file(&path).ok();
    for command in [
        &["chaos", "uniform", "--tasks", "60", "--plan", "light"][..],
        &["chaos", "--quick"][..],
        &["trace", "uniform", "--tasks", "60"][..],
        &["replay", "uniform", "--tasks", "60"][..],
    ] {
        let mut args = command.to_vec();
        args.extend(["--log", path_str]);
        let (ok, _, err) = tora(&args);
        assert!(!ok, "{args:?} accepted --log");
        assert!(
            err.contains("--log is only supported by `tora simulate`"),
            "{err}"
        );
        assert!(!path.exists(), "{args:?} wrote {path_str}");
    }
}

#[test]
fn dag_and_mix_options() {
    let (ok, out, err) = tora(&[
        "replay",
        "topeft",
        "--dag",
        "--seed",
        "2",
        "--algorithm",
        "max-seen",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("4569 tasks"), "{out}");

    let (ok, _, err) = tora(&["simulate", "normal", "--tasks", "4"]);
    assert!(ok, "{err}");

    let (ok, _, err) = tora(&["simulate", "normal", "--dag"]);
    assert!(!ok);
    assert!(err.contains("topeft"), "{err}");

    let (ok, _, err) = tora(&["simulate", "normal", "--tasks", "40", "--mix", "2:0.5"]);
    assert!(!ok, "{err}");
}

#[test]
fn trace_emits_jsonl_and_reconciles() {
    let dir = std::env::temp_dir().join("tora-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("alloc-events.jsonl");
    let path_str = path.to_str().unwrap();
    let (ok, out, err) = tora(&[
        "trace",
        "bimodal",
        "--tasks",
        "80",
        "--seed",
        "3",
        "--workers",
        "fixed:8",
        "--out",
        path_str,
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("reconciliation OK"), "{out}");
    assert!(out.contains("allocation events by category"), "{out}");
    // Every line of the dump is one well-formed event.
    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<tora::prelude::AllocEvent> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid event JSON"))
        .collect();
    assert!(!events.is_empty());
    assert!(out.contains(&format!("{} events", events.len())), "{out}");
    std::fs::remove_file(&path).ok();

    // Without --out the events go to stdout and the summary to stderr.
    let (ok, out, err) = tora(&[
        "trace",
        "bimodal",
        "--tasks",
        "40",
        "--seed",
        "3",
        "--workers",
        "fixed:8",
    ]);
    assert!(ok, "{err}");
    assert!(out.lines().all(|l| l.starts_with('{')), "{out}");
    assert!(err.contains("reconciliation OK"), "{err}");
}

#[test]
fn chaos_smoke_is_deterministic_and_conserves() {
    let (ok, out, err) = tora(&["chaos", "--quick"]);
    assert!(ok, "{err}");
    assert!(out.contains("chaos smoke OK"), "{out}");
    assert!(out.contains("dead-lettered"), "{out}");

    // A full run with an explicit preset and JSON dump round-trips.
    let dir = std::env::temp_dir().join("tora-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.json");
    let path_str = path.to_str().unwrap();
    let (ok, out, err) = tora(&[
        "chaos", "bimodal", "--tasks", "100", "--seed", "4", "--plan", "heavy", "--out", path_str,
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("fault report"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    let report: serde_json::Value = serde_json::from_str(&text).unwrap();
    let count = |key: &str| report.get(key).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(
        report.get("conservation_ok").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        count("submitted"),
        count("completed") + count("dead_lettered")
    );
    std::fs::remove_file(&path).ok();

    let (ok, _, err) = tora(&["chaos", "bimodal", "--plan", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown --plan"), "{err}");
}

#[test]
fn experiments_render_and_dump_artifacts() {
    let dir = std::env::temp_dir().join(format!("tora-cli-experiments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap();
    let (ok, out, err) = tora(&["experiments", "fig2", "--out", dir_str]);
    assert!(ok, "{err}");
    assert!(out.contains("Figure 2 — colmena-xtb"), "{out}");
    for name in ["fig2_colmena-xtb.csv", "fig2_topeft.csv"] {
        let csv = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(csv.starts_with("task,category,cores,memory_mb,disk_mb,time_s\n"));
    }
    // The dumped log is exactly what was printed.
    assert_eq!(
        std::fs::read_to_string(dir.join("results_fig2.log")).unwrap(),
        out
    );
    let _ = std::fs::remove_dir_all(&dir);

    let (ok, _, err) = tora(&["experiments", "fig3"]);
    assert!(!ok);
    assert!(err.contains("unknown artifact `fig3`"), "{err}");
    for name in [
        "all",
        "fig2",
        "fig4",
        "fig5",
        "fig6",
        "table1",
        "ablations",
        "chaos-sweep",
        "fig-dag",
        "fig-learned",
    ] {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn structure_and_learning_artifacts_dump_their_rows() {
    let dir = std::env::temp_dir().join(format!("tora-cli-fig-dag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_str().unwrap();
    for (artifact, data, rows) in [
        ("fig-dag", "fig_dag.json", 6),
        ("fig-learned", "fig_learned.json", 4),
    ] {
        let (ok, out, err) = tora(&["experiments", artifact, "--out", dir_str]);
        assert!(ok, "{err}");
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join(data)).unwrap()).unwrap();
        assert_eq!(json.as_array().map(|rows| rows.len()), Some(rows), "{data}");
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("results_{artifact}.log"))).unwrap(),
            out
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_fail_and_help_prints_usage() {
    for (command, flag) in [
        (
            &["replay", "bimodal", "--algoritm", "greedy-bucketing"][..],
            "--algoritm",
        ),
        (&["chaos", "bimodal", "--plna", "heavy"][..], "--plna"),
    ] {
        let (ok, _, err) = tora(command);
        assert!(!ok, "{command:?} accepted {flag}");
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }

    let (ok, out, err) = tora(&["simulate", "--help"]);
    assert!(ok, "{err}");
    assert!(out.contains("USAGE"), "{out}");

    let (ok, _, err) = tora(&["bench"]);
    assert!(!ok);
    assert!(err.contains("unknown command `bench`"), "{err}");
}

#[test]
fn threads_is_an_unknown_flag() {
    // The allocator, engine and daemon are serial; no command takes a
    // worker-thread count any more.
    for command in ["simulate", "trace", "chaos", "serve"] {
        let (ok, _, err) = tora(&[command, "--threads", "1"]);
        assert!(!ok, "{command} accepted --threads");
        assert!(err.contains("unknown flag `--threads`"), "{command}: {err}");
    }
}

#[test]
fn bad_input_fails_cleanly() {
    let (ok, _, err) = tora(&["simulate", "nonexistent-workflow"]);
    assert!(!ok);
    assert!(err.contains("unknown workflow"), "{err}");

    let (ok, _, err) = tora(&["replay", "normal", "--algorithm", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown algorithm"), "{err}");

    let (ok, _, err) = tora(&["simulate", "topeft", "--tasks", "5"]);
    assert!(!ok);
    assert!(err.contains("synthetic"), "{err}");

    let (ok, _, err) = tora(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");

    let (ok, _, err) = tora(&["simulate", "normal", "--workers", "fixed:0"]);
    assert!(!ok);
    assert!(err.contains("n ≥ 1"), "{err}");
}
