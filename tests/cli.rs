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

/// Every row under `COMMANDS:` and `COMMON OPTIONS:` is indented, and the
/// command rows are exactly the commands that list their flags.
#[test]
fn help_rows_are_indented_and_list_every_command() {
    let (ok, out, err) = tora(&["--help"]);
    assert!(ok, "{err}");
    let mut section = "";
    let mut commands = Vec::new();
    for line in out.lines() {
        if line.ends_with(':') && !line.starts_with(' ') {
            section = line;
            continue;
        }
        if line.trim().is_empty() || !matches!(section, "COMMANDS:" | "COMMON OPTIONS:") {
            continue;
        }
        assert!(
            line.starts_with(' '),
            "{section} row prints flush left: {line:?}"
        );
        if section == "COMMANDS:" && line.starts_with("  ") && !line.starts_with("   ") {
            commands.push(line.split_whitespace().next().unwrap());
        }
    }
    let listed: Vec<&str> = tora::cli::COMMAND_FLAGS.iter().map(|(c, _)| *c).collect();
    assert_eq!(commands, listed, "{out}");
    assert_eq!(commands.len(), 7);
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
        "simulate", "uniform", "--tasks", "60", "--seed", "2", "--events", path_str,
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&path).unwrap();
    let (log, decisions) = tora::sim::EventLog::from_jsonl(&text).unwrap();
    log.check_consistency().unwrap();
    assert!(log.len() > 120); // ≥ submit + dispatch + finish per task
    assert!(decisions.len() >= 120); // ≥ predict + observe per task
    std::fs::remove_file(&path).ok();
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The number before `suffix` in `text`, e.g. `wrote 12 events`.
fn count_before(text: &str, suffix: &str) -> usize {
    let head = &text[..text
        .find(suffix)
        .unwrap_or_else(|| panic!("no `{suffix}` in {text}"))];
    let digits = head.rsplit(|c: char| !c.is_ascii_digit()).next().unwrap();
    digits.parse().unwrap()
}

/// The event file interleaves the two streams the CLI used to write apart:
/// its engine lines are byte for byte the former `simulate --log` file and
/// its decision lines the former `trace --out` file, pinned here as
/// `(lines, FNV-1a)` of each.
#[test]
fn simulate_events_file_matches_the_parent_streams() {
    let dir = std::env::temp_dir().join(format!("tora-cli-events-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let path_str = path.to_str().unwrap();
    let runs: [(&[&str], _, _); 2] = [
        (
            &[
                "bimodal",
                "--tasks",
                "80",
                "--seed",
                "3",
                "--workers",
                "fixed:8",
            ],
            (702, 0xc9cb_ea84_e25d_e1b1_u64),
            (886, 0xa9eb_31a1_bb3b_8680_u64),
        ),
        (
            &["topeft", "--dag", "--seed", "2"],
            (16427, 0x6d9e_455e_82a0_12f4),
            (15928, 0x9925_fd82_7cdb_549a),
        ),
    ];
    for (argv, engine_pin, decision_pin) in runs {
        let mut args = vec!["simulate"];
        args.extend(argv);
        args.extend(["--events", path_str]);
        let (ok, out, err) = tora(&args);
        assert!(ok, "{args:?}: {err}");
        assert!(out.contains("reconciliation OK"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let (mut engine, mut decisions) = (String::new(), String::new());
        for line in text.lines() {
            let kind = if line.starts_with(r#"{"time_s":"#) {
                &mut engine
            } else {
                &mut decisions
            };
            kind.push_str(line);
            kind.push('\n');
        }
        for (label, lines, pin) in [
            ("engine", &engine, engine_pin),
            ("decision", &decisions, decision_pin),
        ] {
            let got = (lines.lines().count(), fnv1a(lines.as_bytes()));
            assert_eq!(
                got, pin,
                "{argv:?}: {label} lines moved (got {:#018x})",
                got.1
            );
        }
        let (log, events) = tora::sim::EventLog::from_jsonl(&text).unwrap();
        log.check_consistency().unwrap();
        assert_eq!(events.len(), count_before(&out, " allocation events"));
        assert_eq!(log.len() + events.len(), count_before(&err, " events to"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream smaller than the write buffer fails only at the final flush,
/// and that failure must fail the command.
#[cfg(target_os = "linux")]
#[test]
fn events_write_error_fails_the_command() {
    let (ok, out, err) = tora(&[
        "simulate",
        "uniform",
        "--tasks",
        "1",
        "--workers",
        "fixed:1",
        "--events",
        "/dev/full",
    ]);
    assert!(!ok, "{out}");
    assert!(err.contains("writing `/dev/full`"), "{err}");
    assert!(
        !out.contains("wrote") && !err.contains("wrote"),
        "{out}{err}"
    );
}

#[test]
fn events_and_log_are_unknown_flags_outside_simulate() {
    let dir = std::env::temp_dir().join("tora-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("refused.jsonl");
    let path_str = path.to_str().unwrap();
    std::fs::remove_file(&path).ok();
    for command in [
        &["replay", "uniform", "--tasks", "60"][..],
        &["generate", "uniform", "--tasks", "60"][..],
    ] {
        for flag in ["--events", "--log"] {
            let mut args = command.to_vec();
            args.extend([flag, path_str]);
            let (ok, _, err) = tora(&args);
            assert!(!ok, "{args:?} accepted {flag}");
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
            assert!(!path.exists(), "{args:?} wrote {path_str}");
        }
    }
    for command in [
        &["simulate", "uniform"][..],
        &["simulate", "uniform", "--tasks", "60", "--plan", "light"],
    ] {
        let mut args = command.to_vec();
        args.extend(["--log", path_str]);
        let (ok, _, err) = tora(&args);
        assert!(
            !ok && err.contains("unknown flag `--log`"),
            "{args:?}: {err}"
        );
        assert!(!path.exists(), "{args:?} wrote {path_str}");
    }
    // `chaos` is no command: a faulted run is `simulate --plan`.
    let args = [
        "chaos", "uniform", "--tasks", "60", "--plan", "light", "--events", path_str,
    ];
    let (ok, _, err) = tora(&args);
    assert!(!ok && err.contains("unknown command `chaos`"), "{err}");
    assert!(!path.exists());
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
fn chaos_smoke_is_deterministic_and_conserves() {
    // The JSON dump is byte-identical across same-seed runs and its books
    // balance. (`tests/golden_chaos.rs` pins the rendered reports.)
    let dir = std::env::temp_dir().join("tora-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut dumps = Vec::new();
    for name in ["chaos-a.json", "chaos-b.json"] {
        let path = dir.join(name);
        let path_str = path.to_str().unwrap();
        let (ok, out, err) = tora(&[
            "simulate", "bimodal", "--tasks", "100", "--seed", "4", "--plan", "heavy", "--out",
            path_str,
        ]);
        assert!(ok, "{err}");
        assert!(out.contains("fault report"), "{out}");
        dumps.push(std::fs::read_to_string(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(dumps[0], dumps[1], "same-seed chaos JSON dumps differ");
    let report: serde_json::Value = serde_json::from_str(&dumps[0]).unwrap();
    let count = |key: &str| report.get(key).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(
        report.get("conservation_ok").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        count("submitted"),
        count("completed") + count("dead_lettered")
    );

    // The old built-in smoke mode is gone; the golden tests replaced it.
    let (ok, _, err) = tora(&["simulate", "--quick"]);
    assert!(!ok);
    assert!(err.contains("unknown flag `--quick`"), "{err}");

    let (ok, _, err) = tora(&["simulate", "bimodal", "--plan", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown --plan"), "{err}");
}

/// `simulate --plan` is the former `tora chaos`: for four runs its stdout
/// from the `== fault report` line on and its `--out` JSON are byte for byte
/// the `chaos` stdout and `--out` file, pinned here as `(lines, FNV-1a)`.
#[test]
fn simulate_plan_reports_match_the_former_chaos_output() {
    let dir = std::env::temp_dir().join(format!("tora-cli-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    let path_str = path.to_str().unwrap();
    let runs: [(&[&str], _, _); 4] = [
        (
            &["--tasks", "120", "--plan", "heavy"],
            (31, 0x00e5_0d42_244c_9ff3_u64),
            (55, 0x06f4_2aaa_03b5_d4c0_u64),
        ),
        (
            &["--tasks", "120", "--plan", "rack-outages"],
            (26, 0xfed5_88e0_e86d_4ac3),
            (50, 0x68b2_915e_f2ec_2ebd),
        ),
        (
            &[
                "--tasks",
                "120",
                "--plan",
                "crashes",
                "--feedback",
                "--salvage",
                "0.5",
            ],
            (28, 0xbc11_f31e_d90e_955f),
            (50, 0x93a7_a171_e282_8974),
        ),
        (
            &["--shape", "pipeline", "--depth", "40", "--plan", "light"],
            (29, 0x26b8_8e1d_5784_dae8),
            (57, 0x6db7_7a0c_0a0b_05ae),
        ),
    ];
    for (argv, stdout_pin, json_pin) in runs {
        let mut args = vec!["simulate", "bimodal", "--seed", "7"];
        args.extend(argv);
        args.extend(["--out", path_str]);
        let (ok, out, err) = tora(&args);
        assert!(ok, "{args:?}: {err}");
        let report = &out[out.find("== fault report").expect("a fault report")..];
        let json = std::fs::read_to_string(&path).unwrap();
        for (label, text, pin) in [("report", report, stdout_pin), ("json", &json, json_pin)] {
            let got = (text.lines().count(), fnv1a(text.as_bytes()));
            assert_eq!(got, pin, "{argv:?}: {label} moved (got {:#018x})", got.1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A faulted run writes an event file that reads back consistent and
/// reconciles; its dead-letter lines net of replays are the report's
/// dead-lettered count; and neither `--events` nor `--convergence` moves a
/// byte of the report. The fault flags without `--plan` fail and write
/// nothing.
#[test]
fn simulate_plan_writes_a_faulted_event_file() {
    let dir = std::env::temp_dir().join(format!("tora-cli-plan-events-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (events, json) = (dir.join("events.jsonl"), dir.join("report.json"));
    let (events_str, json_str) = (events.to_str().unwrap(), json.to_str().unwrap());
    let base = [
        "simulate",
        "bimodal",
        "--tasks",
        "200",
        "--seed",
        "7",
        "--plan",
        "heavy",
        "--feedback",
    ];
    let mut reports = Vec::new();
    for extra in [
        &["--out", json_str][..],
        &["--events", events_str],
        &["--convergence"],
        &["--events", events_str, "--convergence"],
    ] {
        let mut args = base.to_vec();
        args.extend(extra);
        let (ok, out, err) = tora(&args);
        assert!(ok, "{args:?}: {err}");
        if extra.contains(&"--events") {
            assert!(out.contains("reconciliation OK"), "{out}");
        }
        reports.push(out[out.find("== fault report").expect("a fault report")..].to_string());
    }
    assert!(reports.iter().all(|r| *r == reports[0]), "{reports:#?}");

    let text = std::fs::read_to_string(&events).unwrap();
    let (log, _) = tora::sim::EventLog::from_jsonl(&text).unwrap();
    log.check_consistency().unwrap();
    let lines = |kind: &str| {
        let tag = format!(r#""event":{{"{kind}":"#);
        text.lines().filter(|l| l.contains(&tag)).count() as u64
    };
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let dead = report
        .get("dead_lettered")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(dead > 0, "heavy faults dead-letter no task: {report:?}");
    assert_eq!(lines("TaskDeadLettered") - lines("TaskReplayed"), dead);
    let _ = std::fs::remove_dir_all(&dir);

    std::fs::create_dir_all(&dir).unwrap();
    for (flag, args) in [
        ("--feedback", &["--feedback", "--events", events_str][..]),
        ("--salvage", &["--salvage", "0.5", "--events", events_str]),
        ("--out", &["--out", json_str, "--events", events_str]),
    ] {
        let mut argv = vec!["simulate", "bimodal", "--tasks", "20"];
        argv.extend(args);
        let (ok, out, err) = tora(&argv);
        assert!(!ok, "{argv:?}: {out}");
        assert!(err.contains(&format!("{flag} requires --plan")), "{err}");
        assert!(!events.exists() && !json.exists(), "{argv:?} wrote a file");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
        (&["simulate", "bimodal", "--plna", "heavy"][..], "--plna"),
    ] {
        let (ok, _, err) = tora(command);
        assert!(!ok, "{command:?} accepted {flag}");
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }

    let (ok, out, err) = tora(&["simulate", "--help"]);
    assert!(ok, "{err}");
    assert!(out.contains("USAGE"), "{out}");

    for gone in ["bench", "trace", "chaos"] {
        let (ok, _, err) = tora(&[gone]);
        assert!(!ok);
        assert!(err.contains(&format!("unknown command `{gone}`")), "{err}");
    }
}

#[test]
fn threads_is_an_unknown_flag() {
    // The allocator, engine and daemon are serial; no command takes a
    // worker-thread count any more.
    for command in [
        &["simulate"][..],
        &["simulate", "bimodal", "--plan", "light"],
        &["serve"],
    ] {
        let mut args = command.to_vec();
        args.extend(["--threads", "1"]);
        let (ok, _, err) = tora(&args);
        assert!(!ok, "{command:?} accepted --threads");
        assert!(
            err.contains("unknown flag `--threads`"),
            "{command:?}: {err}"
        );
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

#[test]
fn replay_and_simulate_name_the_enforcement_choices() {
    for command in ["replay", "simulate"] {
        let (ok, _, err) = tora(&[command, "uniform", "--enforcement", "bogus"]);
        assert!(!ok, "{command}");
        assert!(
            err.contains("unknown --enforcement `bogus`"),
            "{command}: {err}"
        );
        assert!(
            err.contains("ramp") && err.contains("instant"),
            "{command} must name both choices: {err}"
        );
    }
}

/// Every flag a doc shows on a `tora <command>` line is one that command
/// reads: each `cargo run --release --bin tora -- <command> …` line and each
/// backticked `tora <command> … --flag`, in README, DESIGN and EXPERIMENTS.
#[test]
fn readme_flags_resolve() {
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let path = format!("{}/{doc}", env!("CARGO_MANIFEST_DIR"));
        let markdown = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        // Fence lines hold three backticks and would flip the span parity.
        let text: String = markdown
            .lines()
            .filter(|line| !line.starts_with("```"))
            .map(|line| format!("{line}\n"))
            .collect();
        let mut invocations: Vec<&str> = text
            .lines()
            .filter_map(|line| line.split_once("cargo run --release --bin tora -- "))
            .map(|(_, rest)| rest.split('#').next().unwrap())
            .collect();
        invocations.extend(
            text.split('`')
                .skip(1)
                .step_by(2)
                .filter_map(|span| span.strip_prefix("tora ")),
        );
        for invocation in invocations {
            let mut words = invocation.split_whitespace();
            let command = words.next().expect("a command after `tora`");
            let accepted = tora::cli::command_flags(command)
                .unwrap_or_else(|| panic!("{doc} runs unknown command `tora {command}`"));
            for flag in words.filter_map(|w| w.strip_prefix("--")) {
                assert!(
                    accepted.iter().any(|list| list.contains(&flag)),
                    "{doc} passes `--{flag}` to `tora {command}`, which does not read it"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "only {checked} doc flags found");

    // Every command that lists its flags has a driver in the binary.
    for (command, _) in tora::cli::COMMAND_FLAGS {
        let (ok, _, err) = tora(&[command, "--help"]);
        assert!(ok, "tora {command}: {err}");
    }
}
