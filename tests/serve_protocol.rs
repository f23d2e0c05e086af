//! `tora serve` protocol tests: golden transcripts through the real
//! binary, per-tenant allocator isolation, and kill-safe snapshot/restore.
//!
//! The daemon's contract is determinism at the byte level: the response
//! stream is a pure function of the request stream, tenants cannot observe
//! each other's allocator state, and a daemon restored from a snapshot
//! answers the remaining requests exactly as the uninterrupted daemon would
//! have.

use std::io::Write as _;
use std::process::{Command, Stdio};

use proptest::prelude::*;
use tora::serve::session::MAX_LINE_BYTES;
use tora::serve::{Response, ServeConfig, Session};

/// Pipe `input` through `tora serve <args>` and return stdout.
fn serve_stdout(args: &[&str], input: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tora"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("requests written");
    let output = child.wait_with_output().expect("binary runs");
    assert!(
        output.status.success(),
        "tora serve {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Drive an in-process session, returning one serialized response per line.
fn drive(session: &mut Session, requests: &[String]) -> Vec<String> {
    requests
        .iter()
        .map(|line| {
            let (response, _) = session.handle_line(line);
            serde_json::to_string(&response).expect("responses serialize")
        })
        .collect()
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 20,
        ..ServeConfig::default()
    }
}

/// A workload-manager conversation for one tenant: open, a workload burst,
/// completions, a fault with escalation, advisory predictions, a rebucket.
fn tenant_script(tenant: &str, seed: u64) -> Vec<String> {
    let mut lines = vec![
        format!(
            r#"{{"Open":{{"tenant":"{tenant}","algorithm":"greedy-bucketing","seed":{seed}}}}}"#
        ),
        format!(
            r#"{{"Workload":{{"tenant":"{tenant}","workflow":"bimodal","tasks":16,"seed":{seed}}}}}"#
        ),
    ];
    for task in 0..12u64 {
        lines.push(format!(
            r#"{{"Complete":{{"tenant":"{tenant}","task":{task},"cores":0.9,"memory_mb":{mem}.0,"disk_mb":120.0,"duration_s":7.5}}}}"#,
            mem = 400 + 50 * task
        ));
    }
    lines.push(format!(
        r#"{{"Fault":{{"tenant":"{tenant}","task":12,"kind":"exhaustion","exhausted":["memory"]}}}}"#
    ));
    lines.push(format!(
        r#"{{"Predict":{{"tenant":"{tenant}","categories":[0,1,0]}}}}"#
    ));
    lines.push(format!(r#"{{"Rebucket":{{"tenant":"{tenant}"}}}}"#));
    lines
}

#[test]
fn golden_transcript_is_byte_stable_across_runs() {
    let mut input = tenant_script("wf", 7).join("\n");
    input.push_str("\n{\"Stats\":{}}\n{\"Shutdown\":{}}\n");
    let args = ["--workers", "20"];
    let first = serve_stdout(&args, &input);
    let second = serve_stdout(&args, &input);
    assert_eq!(first, second, "same requests, different responses");
    // One response line per request line, ending with the shutdown ack.
    let lines: Vec<&str> = first.lines().collect();
    assert_eq!(lines.len(), input.lines().count());
    assert_eq!(lines.last(), Some(&r#"{"Bye":{}}"#));
    // The transcript carries the full conversation shape.
    for tag in [
        "Opened",
        "Submitted",
        "Completed",
        "Retried",
        "Predictions",
        "Rebucketed",
        "StatsReport",
    ] {
        assert!(
            lines.iter().any(|l| l.contains(&format!("{{\"{tag}\""))),
            "no {tag} response in transcript:\n{first}"
        );
    }
}

/// Two tenants on one daemon: tenant a's responses must be byte-identical
/// whether or not tenant b is active — per-tenant allocators share nothing,
/// and with capacity for both, admission never entangles their responses.
#[test]
fn a_tenant_is_isolated_from_its_neighbors() {
    let a_script = tenant_script("a", 7);
    let mut solo = Session::new(&config());
    let solo_responses = drive(&mut solo, &a_script);

    let mut shared = Session::new(&config());
    let b_script = tenant_script("b", 99);
    // Interleave: b's traffic lands between every one of a's requests.
    let mut shared_responses = Vec::new();
    for (i, a_line) in a_script.iter().enumerate() {
        if let Some(b_line) = b_script.get(i) {
            drive(&mut shared, std::slice::from_ref(b_line));
        }
        shared_responses.extend(drive(&mut shared, std::slice::from_ref(a_line)));
    }
    assert_eq!(
        solo_responses, shared_responses,
        "tenant a observed tenant b's presence"
    );
}

/// Snapshot at an arbitrary cut point, "kill" the daemon (drop it), restore
/// from the file, and replay the remaining requests: the tail responses and
/// the final state must be byte-identical to the uninterrupted daemon's.
#[test]
fn snapshot_restore_resumes_byte_identically() {
    let mut script = tenant_script("wf", 7);
    script.extend(tenant_script("other", 13));
    for cut in [3usize, 15, script.len() - 1] {
        let mut uninterrupted = Session::new(&config());
        let all_responses = drive(&mut uninterrupted, &script);

        let mut doomed = Session::new(&config());
        drive(&mut doomed, &script[..cut]);
        let snapshot = doomed.snapshot_json().expect("snapshot serializes");
        drop(doomed); // the kill

        let mut restored = Session::restore(&config(), &snapshot).expect("snapshot restores");
        // Restore must be loss-free: re-snapshotting before any new request
        // reproduces the file exactly.
        assert_eq!(
            restored.snapshot_json().expect("snapshot serializes"),
            snapshot,
            "cut {cut}: snapshot → restore → snapshot is not the identity"
        );
        let tail_responses = drive(&mut restored, &script[cut..]);
        assert_eq!(
            tail_responses,
            all_responses[cut..],
            "cut {cut}: restored daemon diverged from the uninterrupted one"
        );
        assert_eq!(
            restored.snapshot_json().expect("snapshot serializes"),
            uninterrupted.snapshot_json().expect("snapshot serializes"),
            "cut {cut}: final states diverged"
        );
    }
}

/// A conversation for a feature-conditioned tenant: every submission
/// carries an input-size signal and a DAG depth, the measured peaks track
/// the signal (low signal → small memory, high → large), and a memory
/// exhaustion forces a journaled retry.
fn featured_script(tenant: &str, seed: u64) -> Vec<String> {
    let mut lines = vec![format!(
        r#"{{"Open":{{"tenant":"{tenant}","algorithm":"feature-binned","seed":{seed}}}}}"#
    )];
    for task in 0..10u64 {
        lines.push(format!(
            r#"{{"Submit":{{"tenant":"{tenant}","task":{task},"category":0,"input_signal":0.{task},"depth":{depth}}}}}"#,
            depth = task % 4
        ));
    }
    for task in 0..8u64 {
        lines.push(format!(
            r#"{{"Complete":{{"tenant":"{tenant}","task":{task},"cores":0.8,"memory_mb":{mem}.0,"disk_mb":90.0,"duration_s":5.0}}}}"#,
            mem = 500 + 600 * task
        ));
    }
    lines.push(format!(
        r#"{{"Fault":{{"tenant":"{tenant}","task":8,"kind":"exhaustion","exhausted":["memory"]}}}}"#
    ));
    lines.push(format!(
        r#"{{"Predict":{{"tenant":"{tenant}","categories":[0,0]}}}}"#
    ));
    lines.push(format!(r#"{{"Rebucket":{{"tenant":"{tenant}"}}}}"#));
    lines
}

/// Satellite of the TaskContext refactor: a tenant running a
/// feature-conditioned algorithm journals the full context (signal + depth)
/// with every Predict op, so a restored daemon rebuilds the *same bins* and
/// answers the remaining conversation byte-identically. Cuts are placed
/// mid-submission, mid-completion, and after the fault so the journal is
/// replayed at every interesting length.
#[test]
fn a_feature_conditioned_tenant_survives_snapshot_restore() {
    let script = featured_script("ml", 21);
    for cut in [4usize, 14, script.len() - 1] {
        let mut uninterrupted = Session::new(&config());
        let all_responses = drive(&mut uninterrupted, &script);

        let mut doomed = Session::new(&config());
        drive(&mut doomed, &script[..cut]);
        let snapshot = doomed.snapshot_json().expect("snapshot serializes");
        drop(doomed);

        // The journal must carry the feature vector, not just the category:
        // a snapshot that dropped the context would still replay, but into
        // different bins.
        assert!(
            snapshot.contains("input_signal"),
            "cut {cut}: journaled ops lost the task context"
        );

        let mut restored = Session::restore(&config(), &snapshot).expect("snapshot restores");
        assert_eq!(
            restored.snapshot_json().expect("snapshot serializes"),
            snapshot,
            "cut {cut}: snapshot → restore → snapshot is not the identity"
        );
        let tail_responses = drive(&mut restored, &script[cut..]);
        assert_eq!(
            tail_responses,
            all_responses[cut..],
            "cut {cut}: restored feature-conditioned tenant diverged"
        );
        assert_eq!(
            restored.snapshot_json().expect("snapshot serializes"),
            uninterrupted.snapshot_json().expect("snapshot serializes"),
            "cut {cut}: final states diverged"
        );
    }
}

/// The same snapshot round trip through the real binary and the `--restore`
/// flag: a daemon killed after `Snapshot` resumes and finishes the
/// conversation exactly as an uninterrupted daemon does.
#[test]
fn the_binary_restores_from_a_snapshot_file() {
    let dir = std::env::temp_dir().join(format!("tora_serve_restore_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("daemon.json");
    let snap_path = snap.to_str().expect("utf-8 temp path");

    let script = tenant_script("wf", 7);
    let (head, tail) = script.split_at(5);
    let args = ["--workers", "20"];

    // Uninterrupted reference conversation.
    let mut full_input = script.join("\n");
    full_input.push_str("\n{\"Shutdown\":{}}\n");
    let reference = serve_stdout(&args, &full_input);

    // First life: head of the conversation, snapshot, die without Shutdown.
    let mut first_input = head.join("\n");
    first_input.push_str(&format!(
        "\n{{\"Snapshot\":{{\"path\":\"{snap_path}\"}}}}\n"
    ));
    serve_stdout(&args, &first_input);

    // Second life: restore and finish the conversation.
    let mut second_input = tail.join("\n");
    second_input.push_str("\n{\"Shutdown\":{}}\n");
    let resumed = serve_stdout(&["--restore", snap_path, "--workers", "20"], &second_input);

    let reference_tail: Vec<&str> = reference.lines().skip(head.len()).collect();
    let resumed_lines: Vec<&str> = resumed.lines().collect();
    assert_eq!(
        resumed_lines, reference_tail,
        "restored binary diverged from the uninterrupted conversation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Protocol errors carry stable codes and leave the daemon able to continue.
#[test]
fn errors_are_typed_and_non_fatal() {
    let mut session = Session::new(&config());
    let cases = [
        (
            r#"{"Predict":{"tenant":"nope","categories":[0]}}"#,
            "unknown-tenant",
        ),
        (
            r#"{"Open":{"tenant":"wf2","algorithm":"not-an-algorithm"}}"#,
            "unknown-algorithm",
        ),
        (r#"{"Open":{"tenant":"wf"}}"#, "duplicate-tenant"),
        (
            r#"{"Workload":{"tenant":"wf","workflow":"not-a-workflow"}}"#,
            "unknown-workflow",
        ),
        (
            r#"{"Complete":{"tenant":"wf","task":0,"cores":1.0,"memory_mb":1.0,"disk_mb":1.0,"duration_s":1.0}}"#,
            "task-not-running",
        ),
        (
            r#"{"Fault":{"tenant":"wf","task":0,"kind":"meteor"}}"#,
            "bad-fault-kind",
        ),
        (r#"garbage"#, "bad-request"),
    ];
    session.handle_line(r#"{"Open":{"tenant":"wf"}}"#);
    for (line, expected) in cases {
        let (response, shutdown) = session.handle_line(line);
        assert!(!shutdown);
        match response {
            Response::Error { code, .. } => assert_eq!(code, expected, "{line}"),
            other => panic!("{line}: expected an error, got {other:?}"),
        }
    }
    // Wire-level rejections happen before a line is parsed: an oversized
    // line and a non-UTF-8 line each get one typed error, change nothing,
    // and the connection keeps answering.
    let oversized = format!("{}\n", "x".repeat(tora::serve::session::MAX_LINE_BYTES + 1));
    let wire_cases: [(&[u8], &str); 2] = [
        (oversized.as_bytes(), "line-too-long"),
        (b"\xff\xfe\n", "bad-request"),
    ];
    for (line, expected) in wire_cases {
        let before = session.snapshot_json().expect("snapshot serializes");
        let mut input = line.to_vec();
        input.extend_from_slice(b"{\"Stats\":{}}\n");
        let mut out = Vec::new();
        let shutdown = session
            .serve(&input[..], &mut out)
            .expect("connection survives");
        assert!(!shutdown);
        let out = String::from_utf8(out).expect("responses are UTF-8");
        let responses: Vec<Response> = out
            .lines()
            .map(|l| serde_json::from_str(l).expect("one response per line"))
            .collect();
        assert_eq!(responses.len(), 2, "{expected}: {out}");
        match &responses[0] {
            Response::Error { code, .. } => assert_eq!(code, expected),
            other => panic!("{expected}: expected an error, got {other:?}"),
        }
        assert!(
            matches!(responses[1], Response::StatsReport { .. }),
            "{out}"
        );
        assert_eq!(
            session.snapshot_json().expect("snapshot serializes"),
            before,
            "{expected} changed daemon state"
        );
    }
    // Still alive and consistent after the error barrage.
    let (response, _) = session.handle_line(r#"{"Submit":{"tenant":"wf","task":0,"category":0}}"#);
    assert!(
        matches!(response, Response::Submitted { accepted: 1, .. }),
        "daemon wedged after errors: {response:?}"
    );
}

/// Snapshots are written to a sibling temp file and renamed into place:
/// overwriting an existing snapshot leaves a complete, restorable file and
/// no temp file behind.
#[test]
fn snapshot_overwrites_atomically() {
    let dir = std::env::temp_dir().join(format!("tora-atomic-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("daemon.json");
    std::fs::write(&path, "stale, torn contents").unwrap();

    let mut session = Session::new(&config());
    drive(&mut session, &tenant_script("wf", 7));
    let request = format!(r#"{{"Snapshot":{{"path":"{}"}}}}"#, path.display());
    let (response, _) = session.handle_line(&request);
    assert!(
        matches!(response, Response::Snapshotted { tenants: 1, .. }),
        "{response:?}"
    );
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(written, session.snapshot_json().unwrap());
    Session::restore(&config(), &written).expect("snapshot restores");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, [std::ffi::OsString::from("daemon.json")]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon forwards [`WorkloadError`] codes verbatim onto the wire
/// (`Response::error(e.code(), ...)` in the `Workload` handler), so the
/// whole code table is protocol surface: pin every variant's code here,
/// including the `shape-conflict` code added with the DAG shapes.
#[test]
fn workload_error_codes_are_wire_stable() {
    use tora::workloads::{PaperWorkflow, WorkloadError};

    let shape = tora::prelude::DagShape::diamond(2, 2);
    let cases: Vec<(WorkloadError, &str)> = vec![
        (
            PaperWorkflow::Bimodal
                .spec(1)
                .dag_shape(shape)
                .tasks(10)
                .materialize()
                .unwrap_err(),
            "shape-conflict",
        ),
        (
            PaperWorkflow::Bimodal
                .spec(1)
                .dag()
                .materialize()
                .unwrap_err(),
            "dag-unsupported",
        ),
        (
            match PaperWorkflow::TopEft.spec(1).dag().stream() {
                Err(e) => e,
                Ok(_) => panic!("the Coffea DAG trace must not stream"),
            },
            "dag-cannot-stream",
        ),
        (
            PaperWorkflow::ColmenaXtb
                .spec(1)
                .category_tasks(vec![10])
                .materialize()
                .unwrap_err(),
            "category-arity",
        ),
        (WorkloadError::invalid("task 3 has id 7"), "invalid-trace"),
    ];
    for (err, code) in cases {
        assert_eq!(err.code(), code, "{err}");
    }
}

/// A high surrogate escape must be followed by a low one; anything else is
/// a parse error, answered `bad-request` without opening a tenant.
#[test]
fn an_invalid_surrogate_is_a_bad_request() {
    let mut session = Session::new(&config());
    let before = session.snapshot_json().expect("snapshot serializes");
    let (response, shutdown) = session.handle_line(r#"{"Open":{"tenant":"wf\ud800\ud800"}}"#);
    assert!(!shutdown);
    match response {
        Response::Error { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("expected an error, got {other:?}"),
    }
    assert_eq!(session.snapshot_json().unwrap(), before);
    let (response, _) = session.handle_line(r#"{"Stats":{}}"#);
    match response {
        Response::StatsReport { tenants, .. } => assert!(tenants.is_empty(), "{tenants:?}"),
        other => panic!("expected a stats report, got {other:?}"),
    }
}

/// Tenants the script generators address. `a` and `b` are opened by
/// [`PREFIX`]; `nobody` never is.
const TENANTS: [&str; 2] = ["a", "b"];

/// Opens both tenants and submits task 100 to `a`, so the hostile
/// duplicate lines below are duplicates wherever they land.
const PREFIX: [&str; 3] = [
    r#"{"Open":{"tenant":"a","algorithm":"greedy-bucketing","seed":1}}"#,
    r#"{"Open":{"tenant":"b","algorithm":"exhaustive-bucketing","seed":2}}"#,
    r#"{"Submit":{"tenant":"a","task":100,"category":0}}"#,
];

/// Lines that must be refused wherever they appear after [`PREFIX`].
const HOSTILE: [&str; 13] = [
    r#"{"Open":"#,
    "garbage",
    r#"{"Submit":{"tenant":"a"}}"#,
    r#"{"Open":{"tenant":"x\ud800\ud800"}}"#,
    r#"{"Complete":{"tenant":"a","task":8,"cores":-1.0,"memory_mb":100.0,"disk_mb":10.0,"duration_s":5.0}}"#,
    r#"{"Complete":{"tenant":"a","task":8,"cores":1.0,"memory_mb":100.0,"disk_mb":10.0,"duration_s":0.0}}"#,
    r#"{"Complete":{"tenant":"b","task":8,"cores":1.0,"memory_mb":100.0,"disk_mb":10.0,"duration_s":-2.0}}"#,
    r#"{"Predict":{"tenant":"nobody","categories":[0]}}"#,
    r#"{"Complete":{"tenant":"a","task":999,"cores":1.0,"memory_mb":100.0,"disk_mb":10.0,"duration_s":5.0}}"#,
    r#"{"Submit":{"tenant":"a","task":100,"category":1}}"#,
    r#"{"Open":{"tenant":"b"}}"#,
    r#"{"Fault":{"tenant":"a","task":8,"kind":"meteor"}}"#,
    r#"{"Fault":{"tenant":"b","task":8,"kind":"exhaustion","exhausted":[]}}"#,
];

/// One well-formed request over the tenants of [`TENANTS`]. It may still
/// be refused (a completion for a task that is not running, say); the
/// property below covers every refusal.
fn valid_line() -> impl Strategy<Value = String> {
    let tenant = || prop::sample::select(TENANTS.to_vec());
    prop_oneof![
        (tenant(), 0u64..4).prop_map(|(t, seed)| format!(
            r#"{{"Open":{{"tenant":"{t}","algorithm":"max-seen","seed":{seed}}}}}"#
        )),
        (tenant(), 8u64..16, 0u32..3).prop_map(|(t, task, c)| format!(
            r#"{{"Submit":{{"tenant":"{t}","task":{task},"category":{c}}}}}"#
        )),
        (tenant(), 1usize..9, 0u64..4).prop_map(|(t, n, seed)| format!(
            r#"{{"Workload":{{"tenant":"{t}","workflow":"bimodal","tasks":{n},"seed":{seed}}}}}"#
        )),
        (tenant(), 0u64..16, 0.5f64..4.0, 100.0f64..2000.0).prop_map(|(t, task, cores, mem)| {
            format!(
                r#"{{"Complete":{{"tenant":"{t}","task":{task},"cores":{cores:.3},"memory_mb":{mem:.3},"disk_mb":100.0,"duration_s":5.0}}}}"#
            )
        }),
        (
            tenant(),
            0u64..16,
            prop::sample::select(vec!["crash", "straggler", "exhaustion"])
        )
            .prop_map(|(t, task, kind)| format!(
                r#"{{"Fault":{{"tenant":"{t}","task":{task},"kind":"{kind}","exhausted":["memory"]}}}}"#
            )),
        (tenant(), prop::collection::vec(0u32..3, 1..4)).prop_map(|(t, cats)| format!(
            r#"{{"Predict":{{"tenant":"{t}","categories":{cats:?}}}}}"#
        )),
        tenant().prop_map(|t| format!(r#"{{"Rebucket":{{"tenant":"{t}"}}}}"#)),
    ]
}

/// Answer `lines` in a fresh session. Every refusal must leave
/// `snapshot_json()` exactly as it was; returns the responses, serialized.
fn answer_checking_refusals(lines: &[String]) -> Result<Vec<String>, TestCaseError> {
    let mut session = Session::new(&config());
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        let before = session.snapshot_json().expect("snapshot serializes");
        let (response, _) = session.handle_line(line);
        if matches!(response, Response::Error { .. }) {
            let after = session.snapshot_json().expect("snapshot serializes");
            prop_assert!(after == before, "{line} changed daemon state: {response:?}");
        }
        responses.push(serde_json::to_string(&response).expect("responses serialize"));
    }
    Ok(responses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An Error response never changes daemon state: hostile lines at
    /// random positions are refused, leave the snapshot untouched, and
    /// the valid lines get the same answers as without them.
    #[test]
    fn errors_never_change_daemon_state(
        body in prop::collection::vec(valid_line(), 8..40),
        hostile in prop::collection::vec((0usize..64, prop::sample::select(HOSTILE.to_vec())), 1..10),
    ) {
        let clean: Vec<String> = PREFIX.iter().map(|l| l.to_string()).chain(body).collect();
        let mut mixed = clean.clone();
        let mut is_hostile = vec![false; mixed.len()];
        for (at, line) in hostile {
            let at = PREFIX.len() + at % (mixed.len() - PREFIX.len() + 1);
            mixed.insert(at, line.to_string());
            is_hostile.insert(at, true);
        }
        let mixed_responses = answer_checking_refusals(&mixed)?;
        for (response, _) in mixed_responses.iter().zip(&is_hostile).filter(|(_, &h)| h) {
            prop_assert!(response.starts_with(r#"{"Error""#), "hostile line answered {response}");
        }
        let kept: Vec<&String> = mixed_responses
            .iter()
            .zip(&is_hostile)
            .filter(|(_, &h)| !h)
            .map(|(r, _)| r)
            .collect();
        let clean_responses = answer_checking_refusals(&clean)?;
        prop_assert_eq!(kept, clean_responses.iter().collect::<Vec<_>>());
    }
}

/// The wire-level refusal inside a live conversation: a line over
/// [`MAX_LINE_BYTES`] sent through [`Session::serve`] mid-script is answered
/// `line-too-long`, and the conversation around it answers, and ends in the
/// same state, exactly as it does without it.
#[test]
fn an_oversized_line_mid_script_changes_nothing() {
    let script = tenant_script("wf", 7);
    let (head, tail) = script.split_at(6);
    let serve = |input: String| -> (Vec<String>, String) {
        let mut session = Session::new(&config());
        let mut out = Vec::new();
        session
            .serve(input.as_bytes(), &mut out)
            .expect("connection survives");
        let responses = String::from_utf8(out)
            .expect("responses are UTF-8")
            .lines()
            .map(str::to_string)
            .collect();
        (
            responses,
            session.snapshot_json().expect("snapshot serializes"),
        )
    };
    let (head, tail) = (head.join("\n"), tail.join("\n"));
    let oversized = "x".repeat(MAX_LINE_BYTES + 1);
    let (want, want_state) = serve(format!("{head}\n{tail}\n"));
    let (mut got, got_state) = serve(format!("{head}\n{oversized}\n{tail}\n"));
    let refused = got.remove(6);
    assert!(refused.contains(r#""code":"line-too-long""#), "{refused}");
    assert_eq!(got.len(), script.len());
    assert_eq!(got, want);
    assert_eq!(got_state, want_state);
}
