//! Event-order digests: the full lifecycle stream of six fixed-seed runs,
//! ties included, pinned as FNV-1a digests of the engine-event lines
//! (`{"time_s":…,"event":…}`) of the event file a `JsonlSink` writes.
//!
//! The event queue's `(time, seq)` order and the arrival schedule decide
//! which of two simultaneous events fires first. Any change to either that
//! moves one event moves a digest here, whatever the aggregate metrics do.
//! Every run is a `tora simulate` invocation, the two faulted ones with
//! `--plan <preset> --feedback`, so a failure reproduces from the command
//! line with `--events` (keep the lines that start with `{"time_s":`).
//! Only the last, a batch under flaky dispatch, queues many events at
//! exactly the same time (its `Requeue` backoffs), so it is the one that
//! pins the tie-break itself.

use tora::cli::{parse_sim_config, parse_workflow, Args};
use tora::prelude::*;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The engine-event lines of `tora simulate <argv> --events`.
fn event_log(argv: &[&str]) -> String {
    let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let args = Args::parse(&raw).expect("argv scans");
    let wf = parse_workflow(args.positional[0], &args).expect("workflow builds");
    let config = parse_sim_config(&args).expect("config parses");
    let (_, sink) = Simulation::new(&wf, AlgorithmKind::ExhaustiveBucketing, config)
        .with_sink(JsonlSink::new(Vec::new()))
        .run_traced();
    let text = String::from_utf8(sink.into_inner().expect("in-memory writes")).unwrap();
    text.split_inclusive('\n')
        .filter(|line| line.starts_with(r#"{"time_s":"#))
        .collect()
}

fn assert_digest(argv: &[&str], lines: usize, digest: u64) {
    let jsonl = event_log(argv);
    assert_eq!(jsonl.lines().count(), lines, "{argv:?}: event count moved");
    let got = fnv1a(jsonl.as_bytes());
    assert_eq!(got, digest, "{argv:?}: event order moved (got {got:#018x})");
}

#[test]
fn bimodal_poisson_on_a_fixed_pool() {
    assert_digest(
        &[
            "bimodal",
            "--tasks",
            "400",
            "--seed",
            "5",
            "--arrival",
            "poisson:0.1",
            "--workers",
            "fixed:4",
        ],
        3780,
        0x1e2b_801b_73f0_4494,
    );
}

#[test]
fn colmena_backfill_poisson() {
    assert_digest(
        &[
            "colmena-xtb",
            "--policy",
            "fifo-backfill",
            "--arrival",
            "poisson:0.05",
        ],
        9580,
        0x57a8_3acb_9671_1811,
    );
}

#[test]
fn topeft_dag() {
    assert_digest(&["topeft", "--dag"], 17365, 0xd4d4_a574_2f36_2e18);
}

#[test]
fn colmena_diamond_poisson() {
    assert_digest(
        &[
            "colmena-xtb",
            "--shape",
            "diamond",
            "--width",
            "6",
            "--depth",
            "10",
            "--arrival",
            "poisson:0.2",
        ],
        694,
        0xbf47_3366_05ad_c0e5,
    );
}

#[test]
fn bimodal_under_heavy_faults_with_feedback() {
    assert_digest(
        &[
            "bimodal",
            "--tasks",
            "120",
            "--seed",
            "7",
            "--plan",
            "heavy",
            "--feedback",
        ],
        1162,
        0x2d1b_c6b5_a8d9_60d1,
    );
}

#[test]
fn bimodal_batch_under_flaky_dispatch() {
    assert_digest(
        &[
            "bimodal",
            "--tasks",
            "300",
            "--seed",
            "3",
            "--arrival",
            "batch",
            "--workers",
            "fixed:20",
            "--plan",
            "flaky-dispatch",
            "--feedback",
        ],
        2939,
        0x5cbe_faa9_c839_e85f,
    );
}
