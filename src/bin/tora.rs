//! `tora` — command-line front end to the allocator, simulator and
//! workload generators.
//!
//! ```text
//! tora algorithms                             list allocation algorithms
//! tora workflows                              list built-in workflows
//! tora generate <workflow> [opts]             emit a workflow trace as JSON
//! tora simulate <workflow|file> [opts]        run the discrete-event engine
//!                                             (--events <file>: its event file;
//!                                             --plan <preset>: a fault report)
//! tora replay   <workflow|file> [opts]        run the fast serial replay
//! tora experiments <artifact>|all [opts]      regenerate the paper's figures/tables
//! tora serve    [opts]                        long-running allocation daemon (JSONL)
//! ```
//!
//! `tora --help` (or `tora <command> --help`) prints every command's options;
//! a flag the command does not read is an error. Everything is deterministic
//! in `--seed`.

use std::process::ExitCode;
use tora::cli::{command_flags, parse_sim_config, parse_workflow, Args};
use tora::metrics::{pct, rolling_awe, steady_state_onset, Table};
use tora::prelude::*;
use tora::workloads::{io as trace_io, PaperWorkflow};

type Command = fn(&Args<'_>) -> Result<(), String>;

/// The driver of every command; the flags each reads are
/// [`tora::cli::COMMAND_FLAGS`].
const COMMANDS: [(&str, Command); 7] = [
    ("algorithms", |_| cmd_algorithms()),
    ("workflows", |_| cmd_workflows()),
    ("generate", cmd_generate),
    ("simulate", |args| cmd_run(args, Mode::Simulate)),
    ("replay", |args| cmd_run(args, Mode::Replay)),
    ("experiments", cmd_experiments),
    ("serve", cmd_serve),
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.split_first() {
        None => {
            print_usage();
            Ok(())
        }
        Some((command, rest)) => run(command, rest),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatch one command line: `--help` anywhere prints the usage, and a flag
/// the command does not read is an error rather than silently ignored.
fn run(command: &str, rest: &[String]) -> Result<(), String> {
    let is_help = |arg: &str| matches!(arg, "--help" | "-h");
    if is_help(command) {
        print_usage();
        return Ok(());
    }
    let (_, cmd) = COMMANDS
        .iter()
        .find(|(name, _)| *name == command)
        .ok_or_else(|| format!("unknown command `{command}` (try --help)"))?;
    let accepted = command_flags(command).expect("every command lists its flags");
    if rest.iter().any(|arg| is_help(arg)) {
        print_usage();
        return Ok(());
    }
    let args = Args::parse(rest)?;
    args.check_flags(accepted)?;
    cmd(&args)
}

/// The usage text. Its lines are plain string literals, one per line, so
/// the indentation of the command and option rows survives.
const USAGE: &[&str] = &[
    "tora — adaptive task-oriented resource allocation",
    "",
    "USAGE:",
    "  tora <command> [options]",
    "",
    "COMMANDS:",
    "  algorithms                      list allocation algorithms",
    "  workflows                       list built-in workflows",
    "  generate <workflow> [opts]      emit a workflow trace as JSON",
    "  simulate <workflow|file> [opts] run the discrete-event engine",
    "  replay   <workflow|file> [opts] run the fast serial replay",
    "  experiments <artifact>|all      regenerate the paper's evaluation: fig2 | fig4 |",
    "                                  fig5 | fig6 | table1 | ablations | chaos-sweep |",
    "                                  fig-dag | fig-learned",
    "                                  (--seeds <n> averages fig5 over n seeds; --out",
    "                                  <dir> also writes each artifact's tables and raw",
    "                                  data files there)",
    "  serve    [opts]                 long-running allocation daemon speaking",
    "                                  line-delimited JSON on stdin/stdout (default)",
    "                                  or --socket <path> (Unix socket); multiplexes",
    "                                  tenants with per-tenant allocators and DRF",
    "                                  admission; --workers <n> sets the pool size",
    "                                  (default 20 paper-shaped workers); --restore",
    "                                  <snapshot.json> resumes a snapshotted daemon",
    "                                  byte-identically",
    "",
    "COMMON OPTIONS:",
    "  --seed <u64>          seed (default 42)",
    "  --algorithm <name>    see `tora algorithms` (default exhaustive-bucketing)",
    "  --tasks <n>           task count for synthetic workflows",
    "  --workers <spec>      fixed:<n> | paper  (default paper)",
    "  --arrival <spec>      batch | poisson:<mean-s>  (default poisson:1.5)",
    "  --policy <name>       fifo | fifo-backfill | smallest-first | largest-first",
    "  --enforcement <name>  ramp | instant  (default ramp)",
    "  --dag                 (topeft) use the Coffea dependency structure",
    "  --shape <name>        generated DAG structure: fan-out-fan-in |",
    "                        pipeline | diamond | random-layered",
    "  --width <n>           (--shape) parallel width        (default 4)",
    "  --depth <n>           (--shape) layer/chain depth     (default 8)",
    "  --loopback <n>        (--shape) max bounded-cycle iterations per",
    "                        node (default 0 = acyclic)",
    "  --mix <frac>:<scale>  heterogeneous pool: fraction of large workers",
    "  --plan <preset>       (simulate) inject faults: none | light | heavy |",
    "                        crashes | stragglers | flaky-dispatch |",
    "                        lossy-records | rack-outages; after the usual",
    "                        output, print the fault report (exit 1 if",
    "                        submitted ≠ completed + dead-lettered)",
    "  --feedback            (--plan) arm the allocator's fault-feedback policy",
    "  --salvage <fraction>  (--plan) bank that fraction of a crashed attempt's",
    "                        finished work via checkpointing",
    "  --out <file>          write JSON output to a file (simulate --plan: the",
    "                        fault report; experiments: a directory)",
    "  --events <file>       (simulate) write the event file: allocator decisions",
    "                        and engine events as JSONL in emission order;",
    "                        then print the decision tally per category and",
    "                        reconcile it with the engine's own counts",
    "  --convergence         (simulate/replay) print the rolling-AWE trajectory",
];

fn print_usage() {
    println!("{}", USAGE.join("\n"));
}

fn cmd_algorithms() -> Result<(), String> {
    let mut table = Table::new("allocation algorithms", &["name", "kind", "exploration"]);
    for alg in AlgorithmKind::ALL {
        let kind = match alg {
            AlgorithmKind::WholeMachine | AlgorithmKind::MaxSeen => "naive baseline",
            AlgorithmKind::MinWaste | AlgorithmKind::MaxThroughput => "Tovar et al. job sizing",
            AlgorithmKind::QuantizedBucketing => "Phung et al. quantile clustering",
            AlgorithmKind::GreedyBucketing => "this paper (Algorithm 1)",
            AlgorithmKind::ExhaustiveBucketing => "this paper (Algorithm 2)",
            AlgorithmKind::KMeansBucketing => "extension: k-means clustering",
            AlgorithmKind::FeatureBinned => "extension: feature-conditioned bins",
            AlgorithmKind::SemiBandit => "extension: semi-bandit arm selection",
        };
        table.row(&[
            alg.label(),
            kind,
            if alg.conservative_exploration() {
                "conservative probe"
            } else {
                "whole machine"
            },
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn cmd_workflows() -> Result<(), String> {
    let mut table = Table::new(
        "built-in workflows",
        &["name", "tasks", "categories", "kind"],
    );
    for wf in PaperWorkflow::ALL {
        let built = wf.build(42);
        table.row(&[
            wf.name().to_string(),
            built.len().to_string(),
            built.categories.join(", "),
            match wf {
                PaperWorkflow::ColmenaXtb | PaperWorkflow::TopEft => "production trace",
                _ => "synthetic",
            }
            .to_string(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn cmd_generate(args: &Args<'_>) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .ok_or("generate requires a workflow name")?;
    let wf = parse_workflow(name, args)?;
    let json = trace_io::to_json(&wf).map_err(|e| e.to_string())?;
    match args.value_of("out")? {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| e.to_string())?;
            eprintln!("wrote {} tasks to {path}", wf.len());
        }
        None => println!("{json}"),
    }
    Ok(())
}

enum Mode {
    Simulate,
    Replay,
}

fn cmd_run(args: &Args<'_>, mode: Mode) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .ok_or("requires a workflow name or trace file")?;
    let wf = parse_workflow(name, args)?;
    let algorithm = args.algorithm()?;
    let seed = args.seed()?;

    // Only the rolling-AWE table reads per-task rows.
    let convergence = args.has("convergence");
    let (metrics, sim_extra, events, faults) = match mode {
        Mode::Replay => {
            let metrics = if convergence {
                WorkflowMetrics::with_rows()
            } else {
                WorkflowMetrics::new()
            };
            let enforcement = args.enforcement()?;
            (
                replay(&wf, algorithm, enforcement, seed, metrics),
                None,
                None,
                None,
            )
        }
        Mode::Simulate => {
            let config = parse_sim_config(args)?;
            let out = args.value_of("out")?;
            let mut sim = Simulation::new(&wf, algorithm, config);
            if convergence {
                sim = sim.keep_outcomes();
            }
            let (result, trace) = match args.value_of("events")? {
                Some(path) => {
                    let (result, trace) = write_events(sim, path)?;
                    (result, Some(trace))
                }
                None => (sim.run(), None),
            };
            let faults = args.has("plan").then(|| {
                let report = FaultReport::from_result(&result, &config, algorithm.label());
                (report, out)
            });
            let extra = (
                result.makespan_s,
                result.worker_range,
                result.stats.preemptions,
            );
            let events = trace.map(|trace| (trace, result.stats));
            (result.metrics, Some(extra), events, faults)
        }
    };

    println!(
        "workflow `{}` × {} (seed {seed}): {} tasks, {} retries",
        wf.name,
        algorithm.label(),
        metrics.len(),
        metrics.total_retries()
    );
    let mut table = Table::new(
        "efficiency",
        &[
            "resource",
            "AWE",
            "consumption",
            "allocation",
            "IF waste",
            "FA waste",
        ],
    );
    for kind in [
        ResourceKind::Cores,
        ResourceKind::MemoryMb,
        ResourceKind::DiskMb,
    ] {
        let w = metrics.waste(kind);
        table.row(&[
            kind.label().to_string(),
            pct(metrics.awe(kind).unwrap_or(0.0)),
            format!("{:.3e}", metrics.total_consumption(kind)),
            format!("{:.3e}", metrics.total_allocation(kind)),
            format!("{:.3e}", w.internal_fragmentation),
            format!("{:.3e}", w.failed_allocation),
        ]);
    }
    print!("{}", table.render());

    let summary: Vec<String> = metrics
        .attempts_histogram()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, c)| format!("{}×{}", i + 1, c))
        .collect();
    println!("attempts per task: {}", summary.join("  "));

    if let Some((makespan_s, (min_workers, max_workers), preemptions)) = sim_extra {
        println!(
            "makespan {makespan_s:.0} s | workers {min_workers}..{max_workers} | \
             preemptions {preemptions}"
        );
    }

    if let Some(rows) = metrics.outcomes() {
        let window = (wf.len() / 10).max(20);
        println!("\nrolling memory AWE (window {window} tasks):");
        for (task, awe) in rolling_awe(rows, ResourceKind::MemoryMb, window) {
            let bar = "#".repeat((awe * 40.0) as usize);
            println!("  task {task:>6}  {:>6}  {bar}", pct(awe));
        }
        match steady_state_onset(rows, ResourceKind::MemoryMb, window, 0.05) {
            Some(onset) => println!("steady state from task {onset} (±5% band)"),
            None => println!("no steady state detected"),
        }
    }
    // A reconciliation failure still prints the fault report as the last
    // block and writes `--out`; the command then fails with both verdicts.
    let reconciled = match events {
        Some((trace, stats)) => report_events(&trace, &stats),
        None => Ok(()),
    };
    let conserved = match faults {
        Some((report, out)) => report_faults(&report, out),
        None => Ok(()),
    };
    match (reconciled, conserved) {
        (Err(a), Err(b)) => Err(format!("{a}; {b}")),
        (a, b) => a.and(b),
    }
}

/// `simulate --events <file>`: run with the decision tally and a streaming
/// JSONL writer attached, so the file holds both kinds of event in emission
/// order and never the whole run in memory. Any write error fails the
/// command.
fn write_events(sim: Simulation, path: &str) -> Result<(SimResult, TraceStats), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("creating `{path}`: {e}"))?;
    let sink = (
        TraceStats::new(),
        JsonlSink::new(std::io::BufWriter::new(file)),
    );
    let (result, (trace, jsonl)) = sim.with_sink(sink).run_traced();
    let (written, errors) = (jsonl.written(), jsonl.errors());
    jsonl
        .into_inner()
        .map_err(|e| format!("writing `{path}`: {e}"))?;
    if errors > 0 {
        return Err(format!("writing `{path}`: {errors} events failed"));
    }
    eprintln!("wrote {written} events to {path}");
    Ok((result, trace))
}

/// The allocator's decisions per category, and their reconciliation with
/// the engine's own bookkeeping. A mismatch is a bug in one of the two
/// bookkeepers, so it fails the command.
fn report_events(trace: &TraceStats, stats: &SimStats) -> Result<(), String> {
    let mut table = Table::new(
        format!("{} allocation events by category", trace.overall.total()),
        &[
            "category", "explore", "first", "retry", "escalate", "rebucket", "observe",
        ],
    );
    let mut categories: Vec<u32> = trace.by_category.iter().map(|(id, _)| *id).collect();
    categories.sort_unstable();
    let tally_row = |label: String, t: &tora::alloc::trace::Tally| {
        [
            label,
            t.explore.to_string(),
            t.first.to_string(),
            t.retry.to_string(),
            t.escalate.to_string(),
            t.rebucket.to_string(),
            t.observe.to_string(),
        ]
    };
    for id in categories {
        let t = trace.category(CategoryId(id)).copied().unwrap_or_default();
        table.row(&tally_row(id.to_string(), &t));
    }
    table.row(&tally_row("all".into(), &trace.overall));
    print!("\n{}", table.render());
    println!(
        "engine: {} dispatches | {} completions | {} kills | {} preemptions",
        stats.dispatches, stats.completions, stats.failures, stats.preemptions
    );
    match stats.reconcile(trace) {
        Ok(()) => {
            println!(
                "reconciliation OK: {} predictions, {} retries, {} escalations and {} \
                 observations agree with the engine's tally",
                trace.overall.predictions_first(),
                trace.overall.retry,
                trace.overall.escalate,
                trace.overall.observe
            );
            Ok(())
        }
        Err(mismatches) => {
            for m in &mismatches {
                eprintln!("reconciliation mismatch: {m}");
            }
            Err(format!(
                "engine/trace reconciliation failed ({} mismatches)",
                mismatches.len()
            ))
        }
    }
}

/// `simulate --plan`: print the [`FaultReport`] — per-cause fault counts,
/// the dead-letter breakdown (replays included), degraded AWE and the
/// conservation identity `submitted = completed + dead-lettered` — as the
/// last block of stdout, and write it as JSON to `out`. A conservation
/// violation fails the command.
fn report_faults(report: &FaultReport, out: Option<&str>) -> Result<(), String> {
    print!("\n{}", report.render());
    if let Some(path) = out {
        std::fs::write(path, report.to_json()).map_err(|e| e.to_string())?;
        eprintln!("wrote fault report to {path}");
    }
    if !report.conservation_ok {
        return Err(format!(
            "conservation violated: {} submitted, {} completed, {} dead-lettered",
            report.submitted, report.completed, report.dead_lettered
        ));
    }
    Ok(())
}

/// `tora serve`: the long-running allocation daemon. Speaks the
/// line-delimited JSON protocol of `tora::serve::protocol` on stdin/stdout
/// by default, or serves connections sequentially on a Unix socket with
/// `--socket <path>`. `--workers <n>` sizes the shared pool in §V-A-shaped
/// workers; `--restore <snapshot.json>` resumes a daemon snapshotted with
/// the `Snapshot` request, byte-identically.
fn cmd_serve(args: &Args<'_>) -> Result<(), String> {
    let workers = match args.value_of("workers")? {
        None => 20,
        Some(v) => v
            .parse()
            .ok()
            .filter(|n: &usize| *n >= 1)
            .ok_or_else(|| format!("bad --workers `{v}` (a worker count ≥ 1)"))?,
    };
    let config = tora::serve::ServeConfig {
        workers,
        ..Default::default()
    };
    let mut session = match args.value_of("restore")? {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("reading snapshot `{path}`: {e}"))?;
            let session = tora::serve::Session::restore(&config, &json)?;
            eprintln!("restored daemon state from {path}");
            session
        }
        None => tora::serve::Session::new(&config),
    };
    match args.value_of("socket")? {
        #[cfg(unix)]
        Some(path) => {
            eprintln!("serving on unix socket {path} ({workers} workers)");
            session
                .serve_unix(std::path::Path::new(path))
                .map_err(|e| e.to_string())
        }
        #[cfg(not(unix))]
        Some(_) => Err("--socket requires a Unix platform".into()),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            session
                .serve(stdin.lock(), stdout.lock())
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
    }
}

/// `tora experiments`: regenerate one artifact of the paper's evaluation
/// (or `all` of them) and print its tables. `--out <dir>` also writes each
/// artifact's raw data files and its printed text (`results_<name>.log`)
/// into the directory. The deterministic artifacts fan out across the job
/// pool; Table I times itself, so it runs before the fan-out, alone.
fn cmd_experiments(args: &Args<'_>) -> Result<(), String> {
    use tora_bench::{experiment, Experiment, ExperimentConfig, EXPERIMENTS};
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let valid = format!("one of: all, {}", names.join(", "));
    let selected: Vec<&Experiment> = match args.positional.first() {
        None => return Err(format!("experiments requires an artifact ({valid})")),
        Some(&"all") => EXPERIMENTS.iter().collect(),
        Some(name) => {
            vec![experiment(name).ok_or_else(|| format!("unknown artifact `{name}` ({valid})"))?]
        }
    };
    let seeds = match args.value_of("seeds")? {
        None => 1,
        Some(v) => v
            .parse()
            .ok()
            .filter(|n: &u64| *n >= 1)
            .ok_or_else(|| format!("bad --seeds `{v}` (a seed count ≥ 1)"))?,
    };
    let config = ExperimentConfig {
        seed: args.seed()?,
        seeds,
    };
    let out = args.value_of("out")?.map(std::path::Path::new);
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating `{}`: {e}", dir.display()))?;
    }

    let mut timed = selected
        .iter()
        .find(|e| !e.deterministic)
        .map(|e| (e.run)(&config));
    let pure: Vec<&Experiment> = selected
        .iter()
        .copied()
        .filter(|e| e.deterministic)
        .collect();
    let mut rendered = tora_bench::run_parallel(&pure, |e| (e.run)(&config)).into_iter();
    for (i, e) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        let artifact = if e.deterministic {
            rendered.next()
        } else {
            timed.take()
        }
        .expect("one artifact per selection");
        print!("{}", artifact.text);
        let Some(dir) = out else { continue };
        let log = (tora_bench::artifact::log_name(e.name), artifact.text);
        for (name, contents) in artifact.files.iter().chain(std::iter::once(&log)) {
            let path = dir.join(name);
            std::fs::write(&path, contents)
                .map_err(|e| format!("writing `{}`: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}
