//! The `tora-benchmark` command line.
//!
//! ```text
//! tora-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! tora-benchmark trace [--workload W] [--seed N] [--seconds S]
//! tora-benchmark compare <parent.json> <change.json> [<parent.json> <change.json> ...]
//! ```
//!
//! `run` repeats each workload in fresh child processes for at least
//! `--seconds` (and at least three times), prints every end-to-end metric
//! as `workload metric unit median q1 q3 n`, writes
//! `<out>/run-<seed>.json`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `trace` (or
//! `--trace 1`) adds one traced repetition per workload, writes
//! `<out>/trace-<workload>.json` and `<out>/spans-<workload>.jsonl`, and
//! reports the per-layer metrics instead. `<out>` is
//! `$CARGO_TARGET_DIR/benchmark`, else `target/benchmark`. The exit code
//! is non-zero when an output check fails. `child` runs one repetition in
//! its own process; `run` starts it once per repetition.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tora_benchmark::compare;
use tora_benchmark::stats::{peak_rss_mb, quartiles, Summary};
use tora_benchmark::trace::BoundaryRow;
use tora_benchmark::{
    out_dir, run_rep, Rep, RunFile, Workload, WorkloadRun, END_TO_END, PER_LAYER, WORKLOADS,
};

/// Repetitions per workload, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Child repetitions only: whether `serve-closed-loop` checks restore.
    restore: bool,
}

fn parse(args: &[String], traced: bool) -> Result<Options, String> {
    let mut opts = Options {
        workloads: WORKLOADS.to_vec(),
        seed: 42,
        seconds: 20,
        traced,
        restore: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS
                    .into_iter()
                    .find(|w| w == value)
                    .ok_or(format!("unknown workload `{value}` (one of {WORKLOADS:?})"))?;
                opts.workloads = vec![name];
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => opts.traced = flag_bool(flag, value)?,
            "--restore" => opts.restore = flag_bool(flag, value)?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(opts)
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not `{value}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "child")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = match command {
        "compare" => compare_files(rest),
        "child" => parse(rest, false).and_then(|o| child(&o)),
        _ => parse(rest, command == "trace").and_then(|o| bench(&o)),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("tora-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// One repetition in this process; prints its [`Rep`] as one JSON line.
fn child(opts: &Options) -> Result<bool, String> {
    let [name] = opts.workloads[..] else {
        return Err("child needs exactly one --workload".into());
    };
    let workload = Workload::full(name)
        .expect("parse() accepts only known workloads")
        .with_restore(opts.restore);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut rep = run_rep(workload, opts.seed, opts.traced, &dir);
    rep.peak_rss_mb = peak_rss_mb();
    println!(
        "{}",
        serde_json::to_string(&rep).map_err(|e| e.to_string())?
    );
    Ok(true)
}

/// Run one repetition in a fresh child process. Only the first untraced
/// repetition of a run and the traced one check `serve-closed-loop`'s
/// restore.
fn spawn_rep(name: &str, seed: u64, traced: bool, restore: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let bit = |on: bool| if on { "1" } else { "0" };
    let output = Command::new(exe)
        .args(["child", "--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", bit(traced), "--restore", bit(restore)])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {name} repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!("a {name} repetition failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("reading a {name} repetition: {e}"))
}

/// What one workload measured: untraced repetitions and, when traced, one
/// traced repetition.
struct Measured {
    run: WorkloadRun,
    reps: Vec<Rep>,
    traced: Option<Rep>,
}

fn measure(name: &'static str, opts: &Options) -> Measured {
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut errors = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        match spawn_rep(name, opts.seed, false, reps.is_empty()) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let traced = if opts.traced && errors.is_empty() {
        spawn_rep(name, opts.seed, true, true)
            .map_err(|e| errors.push(e))
            .ok()
    } else {
        None
    };
    let all = reps.iter().chain(&traced);
    for rep in all.clone() {
        errors.extend(rep.errors.iter().cloned());
    }
    if let Some(first) = reps.first() {
        if all.clone().any(|r| r.digest != first.digest) {
            errors.push("outputs differ between repetitions of one seed".into());
        }
    }
    let metrics = if reps.is_empty() {
        Vec::new()
    } else {
        END_TO_END
            .iter()
            .map(|(metric, unit)| {
                Summary::of(
                    metric,
                    unit,
                    reps.iter().map(|r| r.metric(metric)).collect(),
                )
            })
            .collect()
    };
    Measured {
        run: WorkloadRun {
            name: name.to_string(),
            correct: errors.is_empty() && !reps.is_empty(),
            attempted: all.clone().map(|r| r.attempted).sum::<u64>().max(1),
            failed: all.clone().map(|r| r.failed).sum(),
            errors,
            digest: reps.first().map(|r| r.digest.clone()).unwrap_or_default(),
            latency_samples: reps.first().map_or(0, |r| r.latency_samples),
            metrics,
        },
        reps,
        traced,
    }
}

/// The per-layer metrics of a traced workload, with the tracing overhead.
fn layer_metrics(m: &Measured) -> Vec<(String, String, f64)> {
    let Some(traced) = &m.traced else {
        return Vec::new();
    };
    let walls: Vec<f64> = m.reps.iter().map(|r| r.wall_s).collect();
    let untraced = quartiles(&walls).1;
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = if *name == "trace.overhead_ratio" {
                traced.wall_s / untraced
            } else {
                traced
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v)
            };
            (name.to_string(), unit.to_string(), value)
        })
        .collect()
}

/// `trace-<workload>.json`.
#[derive(serde::Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    /// `(name, unit, value)` for every per-layer metric.
    metrics: Vec<(String, String, f64)>,
    boundaries: Vec<BoundaryRow>,
    /// The raw spans, next to this file.
    spans: String,
}

fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn bench(opts: &Options) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut measured = Vec::new();
    for &name in &opts.workloads {
        let m = measure(name, opts);
        for s in &m.run.metrics {
            println!(
                "{name} {} {} {} {} {} {}",
                s.name, s.unit, s.median, s.q1, s.q3, s.n
            );
        }
        println!(
            "{name} latency percentiles over {} samples per repetition",
            m.run.latency_samples
        );
        for e in &m.run.errors {
            println!("{name} check failed: {e}");
        }
        if opts.traced {
            let layers = layer_metrics(&m);
            for (metric, unit, value) in &layers {
                println!("{name} {metric} {unit} {value}");
            }
            let trace = TraceFile {
                workload: name.to_string(),
                seed: opts.seed,
                metrics: layers,
                boundaries: m
                    .traced
                    .as_ref()
                    .map(|t| t.boundaries.clone())
                    .unwrap_or_default(),
                spans: format!("spans-{name}.jsonl"),
            };
            let json = serde_json::to_string_pretty(&trace).map_err(|e| e.to_string())?;
            write(&dir.join(format!("trace-{name}.json")), &json)?;
        }
        measured.push(m);
    }
    let file = RunFile {
        seed: opts.seed,
        seconds: opts.seconds,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        workloads: measured.iter().map(|m| m.run.clone()).collect(),
    };
    if !opts.traced {
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        write(&dir.join(format!("run-{}.json", opts.seed)), &json)?;
    }
    println!("{}", result_line(&measured, opts.traced));
    Ok(file.workloads.iter().all(|w| w.correct))
}

/// The closing JSON line. With one workload, metrics are keyed by name;
/// with several, by `<workload>/<metric>`.
fn result_line(measured: &[Measured], traced: bool) -> String {
    let single = measured.len() == 1;
    let mut metrics = Vec::new();
    for m in measured {
        let values: Vec<(String, String, f64)> = if traced {
            layer_metrics(m)
        } else {
            m.run
                .metrics
                .iter()
                .map(|s| (s.name.clone(), s.unit.clone(), s.median))
                .collect()
        };
        for (name, unit, value) in values {
            let key = if single {
                name
            } else {
                format!("{}/{name}", m.run.name)
            };
            metrics.push((
                key,
                serde_json::Value::Object(vec![
                    ("value".into(), serde_json::Value::Float(value)),
                    ("unit".into(), serde_json::Value::Str(unit)),
                ]),
            ));
        }
    }
    let line = serde_json::Value::Object(vec![
        (
            "correct".into(),
            serde_json::Value::Bool(measured.iter().all(|m| m.run.correct)),
        ),
        (
            "attempted".into(),
            serde_json::Value::UInt(measured.iter().map(|m| m.run.attempted).sum()),
        ),
        (
            "failed".into(),
            serde_json::Value::UInt(measured.iter().map(|m| m.run.failed).sum()),
        ),
        ("metrics".into(), serde_json::Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("finite metrics serialize")
}

/// `compare parent change [parent change ...]`: pairs of run files.
fn compare_files(args: &[String]) -> Result<bool, String> {
    if args.is_empty() || !args.len().is_multiple_of(2) {
        return Err("compare takes pairs of run files: <parent.json> <change.json> ...".into());
    }
    let read = |path: &String| -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let rules = compare::bounds(
        &std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("reading BENCHMARK.json in the working directory: {e}"))?,
    )?;
    let pairs = args
        .chunks(2)
        .map(|pair| Ok((read(&pair[0])?, read(&pair[1])?)))
        .collect::<Result<Vec<_>, String>>()?;
    let lines = compare::report(&pairs, &rules);
    for (line, _) in &lines {
        println!("{line}");
    }
    Ok(lines.iter().all(|(_, v)| *v != compare::Verdict::Regressed))
}
