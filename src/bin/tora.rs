//! `tora` — command-line front end to the allocator, simulator and
//! workload generators.
//!
//! ```text
//! tora algorithms                             list allocation algorithms
//! tora workflows                              list built-in workflows
//! tora generate <workflow> [opts]             emit a workflow trace as JSON
//! tora simulate <workflow|file> [opts]        run the discrete-event engine
//! tora replay   <workflow|file> [opts]        run the fast serial replay
//! tora trace    <workflow|file> [opts]        traced run: allocation events as JSONL
//! tora chaos    <workflow|file> [opts]        run under a fault-injection plan
//! tora experiments <artifact>|all [opts]      regenerate the paper's figures/tables
//! tora serve    [opts]                        long-running allocation daemon (JSONL)
//! ```
//!
//! `tora --help` (or `tora <command> --help`) prints every command's options;
//! a flag the command does not read is an error. Everything is deterministic
//! in `--seed`.

use std::process::ExitCode;
use tora::cli::{parse_algorithm, parse_sim_config, parse_workflow, Args};
use tora::metrics::{attempts_histogram, pct, rolling_awe, steady_state_onset, Table};
use tora::prelude::*;
use tora::workloads::{io as trace_io, PaperWorkflow};

/// Flags read by [`parse_workflow`].
const WORKFLOW_FLAGS: &[&str] = &[
    "seed", "tasks", "dag", "shape", "width", "depth", "loopback",
];

/// Flags read by [`parse_sim_config`].
const SIM_FLAGS: &[&str] = &["seed", "workers", "arrival", "policy", "enforcement", "mix"];

type Command = fn(&Args<'_>) -> Result<(), String>;

/// Every command, with the lists of flags it reads.
const COMMANDS: [(&str, &[&[&str]], Command); 9] = [
    ("algorithms", &[], |_| cmd_algorithms()),
    ("workflows", &[], |_| cmd_workflows()),
    ("generate", &[WORKFLOW_FLAGS, &["out"]], cmd_generate),
    (
        "simulate",
        &[
            WORKFLOW_FLAGS,
            SIM_FLAGS,
            &["algorithm", "log", "convergence"],
        ],
        |args| cmd_run(args, Mode::Simulate),
    ),
    (
        "replay",
        &[WORKFLOW_FLAGS, &["algorithm", "enforcement", "convergence"]],
        |args| cmd_run(args, Mode::Replay),
    ),
    (
        "trace",
        &[WORKFLOW_FLAGS, SIM_FLAGS, &["algorithm", "out"]],
        cmd_trace,
    ),
    (
        "chaos",
        &[
            WORKFLOW_FLAGS,
            SIM_FLAGS,
            &["algorithm", "plan", "feedback", "salvage", "quick", "out"],
        ],
        cmd_chaos,
    ),
    ("experiments", &[&["seed", "seeds", "out"]], cmd_experiments),
    ("serve", &[&["workers", "restore", "socket"]], cmd_serve),
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
    let (_, accepted, cmd) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == command)
        .ok_or_else(|| format!("unknown command `{command}` (try --help)"))?;
    if rest.iter().any(|arg| is_help(arg)) {
        print_usage();
        return Ok(());
    }
    let args = Args::parse(rest)?;
    // `--log` dumps the engine's event stream, which only `tora simulate`
    // writes; say so rather than calling the flag unknown.
    if args.has("log") && command != "simulate" {
        return Err(format!(
            "--log is only supported by `tora simulate`, not `tora {command}`"
        ));
    }
    args.check_flags(accepted)?;
    cmd(&args)
}

fn print_usage() {
    println!(
        "tora — adaptive task-oriented resource allocation\n\n\
         USAGE:\n  tora <command> [options]\n\n\
         COMMANDS:\n\
           algorithms                      list allocation algorithms\n\
           workflows                       list built-in workflows\n\
           generate <workflow> [opts]      emit a workflow trace as JSON\n\
           simulate <workflow|file> [opts] run the discrete-event engine\n\
           replay   <workflow|file> [opts] run the fast serial replay\n\
           trace    <workflow|file> [opts] traced engine run: allocation decisions as\n\
                                           JSONL plus an engine/allocator reconciliation\n\
           chaos    <workflow|file> [opts] run under a fault-injection plan and print a\n\
                                           fault report (--plan none|light|heavy|crashes|\n\
                                           stragglers|flaky-dispatch|lossy-records|\n\
                                           rack-outages; --feedback arms the allocator's\n\
                                           fault-feedback policy; --salvage <fraction>\n\
                                           banks that fraction of a crashed attempt's\n\
                                           finished work via checkpointing; --quick runs\n\
                                           the determinism smoke test)\n\
           experiments <artifact>|all      regenerate the paper's evaluation: fig2 | fig4 |\n\
                                           fig5 | fig6 | table1 | ablations | chaos-sweep |\n\
                                           fig-dag | fig-learned\n\
                                           (--seeds <n> averages fig5 over n seeds; --out\n\
                                           <dir> also writes each artifact's tables and raw\n\
                                           data files there)\n\
           serve    [opts]                 long-running allocation daemon speaking\n\
                                           line-delimited JSON on stdin/stdout (default)\n\
                                           or --socket <path> (Unix socket); multiplexes\n\
                                           tenants with per-tenant allocators and DRF\n\
                                           admission; --workers <n> sets the pool size\n\
                                           (default 20 paper-shaped workers); --restore\n\
                                           <snapshot.json> resumes a snapshotted daemon\n\
                                           byte-identically\n\n\
         COMMON OPTIONS:\n\
           --seed <u64>          seed (default 42)\n\
           --algorithm <name>    see `tora algorithms` (default exhaustive-bucketing)\n\
           --tasks <n>           task count for synthetic workflows\n\
           --workers <spec>      fixed:<n> | paper  (default paper)\n\
           --arrival <spec>      batch | poisson:<mean-s>  (default poisson:1.5)\n\
           --policy <name>       fifo | fifo-backfill | smallest-first | largest-first\n\
           --enforcement <name>  ramp | instant  (default ramp)\n\
           --dag                 (topeft) use the Coffea dependency structure\n\
           --shape <name>        generated DAG structure: fan-out-fan-in |\n\
                                 pipeline | diamond | random-layered\n\
           --width <n>           (--shape) parallel width        (default 4)\n\
           --depth <n>           (--shape) layer/chain depth     (default 8)\n\
           --loopback <n>        (--shape) max bounded-cycle iterations per\n\
                                 node (default 0 = acyclic)\n\
           --mix <frac>:<scale>  heterogeneous pool: fraction of large workers\n\
           --out <file>          write JSON output to a file (experiments: a directory)\n\
           --log <file>          (simulate) dump the engine event stream as JSONL\n\
           --convergence         (simulate/replay) print the rolling-AWE trajectory"
    );
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
    let algorithm = match args.value_of("algorithm")? {
        None => AlgorithmKind::ExhaustiveBucketing,
        Some(name) => parse_algorithm(name)?,
    };
    let seed = args.seed()?;

    let (metrics, sim_extra) = match mode {
        Mode::Replay => {
            let enforcement = match args.value_of("enforcement")? {
                None | Some("ramp") => EnforcementModel::LinearRamp,
                Some("instant") => EnforcementModel::InstantPeak,
                Some(other) => return Err(format!("unknown --enforcement `{other}`")),
            };
            (replay(&wf, algorithm, enforcement, seed), None)
        }
        Mode::Simulate => {
            let sim = Simulation::new(&wf, algorithm, parse_sim_config(args)?);
            let result = match args.value_of("log")? {
                Some(path) => {
                    let (result, log) = sim.with_sink(EventLog::new()).run_traced();
                    std::fs::write(path, log.to_jsonl()).map_err(|e| e.to_string())?;
                    eprintln!("wrote event log to {path}");
                    result
                }
                None => sim.run(),
            };
            (result.metrics.clone(), Some(result))
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

    let hist = attempts_histogram(&metrics);
    let summary: Vec<String> = hist
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, c)| format!("{}×{}", i + 1, c))
        .collect();
    println!("attempts per task: {}", summary.join("  "));

    if let Some(result) = sim_extra {
        println!(
            "makespan {:.0} s | workers {}..{} | preemptions {}",
            result.makespan_s,
            result.worker_range.0,
            result.worker_range.1,
            result.stats.preemptions
        );
    }

    if args.has("convergence") {
        let window = (wf.len() / 10).max(20);
        println!("\nrolling memory AWE (window {window} tasks):");
        for (task, awe) in rolling_awe(&metrics, ResourceKind::MemoryMb, window) {
            let bar = "#".repeat((awe * 40.0) as usize);
            println!("  task {task:>6}  {:>6}  {bar}", pct(awe));
        }
        match steady_state_onset(&metrics, ResourceKind::MemoryMb, window, 0.05) {
            Some(onset) => println!("steady state from task {onset} (±5% band)"),
            None => println!("no steady state detected"),
        }
    }
    Ok(())
}

/// `tora trace`: run the engine with a live event sink attached, dump the
/// allocator's decision stream as JSONL, and cross-check the stream's counts
/// against the engine's own bookkeeping. A mismatch is a bug in one of the
/// two bookkeepers, so it fails the command.
fn cmd_trace(args: &Args<'_>) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .ok_or("trace requires a workflow name or trace file")?;
    let wf = parse_workflow(name, args)?;
    let algorithm = match args.value_of("algorithm")? {
        None => AlgorithmKind::ExhaustiveBucketing,
        Some(name) => parse_algorithm(name)?,
    };
    let seed = args.seed()?;
    let config = parse_sim_config(args)?;

    // Count and serialize in one pass: a pair of sinks sees every event.
    let sink = (TraceStats::new(), JsonlSink::new(Vec::<u8>::new()));
    let (result, (trace, jsonl)) = Simulation::new(&wf, algorithm, config)
        .with_sink(sink)
        .run_traced();
    if jsonl.errors() > 0 {
        return Err(format!("{} events failed to serialize", jsonl.errors()));
    }
    let events_written = jsonl.written();
    let bytes = jsonl.into_inner();

    // Events go to --out or stdout; the summary goes to the other stream so
    // `tora trace ... | jq` stays clean.
    let events_on_stdout = match args.value_of("out")? {
        Some(path) => {
            std::fs::write(path, &bytes).map_err(|e| e.to_string())?;
            eprintln!("wrote {events_written} events to {path}");
            false
        }
        None => {
            use std::io::Write as _;
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| e.to_string())?;
            true
        }
    };
    let emit = |s: String| {
        if events_on_stdout {
            eprintln!("{s}");
        } else {
            println!("{s}");
        }
    };

    emit(format!(
        "workflow `{}` × {} (seed {seed}): {events_written} events, {} tasks, {} retries",
        wf.name,
        algorithm.label(),
        result.metrics.len(),
        result.metrics.total_retries()
    ));
    let mut table = Table::new(
        "allocation events by category",
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
    emit(table.render().trim_end().to_string());
    emit(format!(
        "engine: {} dispatches | {} completions | {} kills | {} preemptions | makespan {:.0} s",
        result.stats.dispatches,
        result.stats.completions,
        result.stats.failures,
        result.stats.preemptions,
        result.makespan_s
    ));

    match result.stats.reconcile(&trace) {
        Ok(()) => {
            emit(format!(
                "reconciliation OK: {} predictions, {} retries, {} escalations and {} \
                 observations agree with the engine's tally",
                trace.overall.predictions_first(),
                trace.overall.retry,
                trace.overall.escalate,
                trace.overall.observe
            ));
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

/// `tora chaos`: run a workload under a named fault-injection plan and
/// print a [`FaultReport`] — per-cause fault counts, the dead-letter
/// breakdown (including replays), degraded AWE, and the conservation
/// identity `submitted = completed + dead-lettered`. The command fails if
/// conservation is violated. `--feedback` arms the allocator's
/// fault-feedback policy so predictions pad/escalate with the observed
/// fault rate. `--salvage <fraction>` enables checkpoint/restart: a crashed
/// attempt banks that fraction of its finished work and the retry runs only
/// the remainder, with the salvage totals shown in the report. `--quick` is
/// the CI smoke mode: a small fixed workload is run twice under the same
/// seed and the two reports must be byte-identical.
fn cmd_chaos(args: &Args<'_>) -> Result<(), String> {
    let plan_name = args.value_of("plan")?.unwrap_or("light");
    let plan = FaultPlan::named(plan_name).ok_or_else(|| {
        format!(
            "unknown --plan `{plan_name}` (one of: {})",
            FaultPlan::PRESETS.join(", ")
        )
    })?;
    let algorithm = match args.value_of("algorithm")? {
        None => AlgorithmKind::ExhaustiveBucketing,
        Some(name) => parse_algorithm(name)?,
    };
    let fault_policy = args.has("feedback").then(FaultPolicy::default);
    let salvage = args.salvage()?;

    if args.has("quick") {
        // Fixed seed, fixed workload: the report must be reproducible down
        // to the byte, and the books must balance.
        let wf = PaperWorkflow::Bimodal
            .spec(7)
            .tasks(120)
            .materialize()
            .unwrap();
        let mut config = SimConfig::paper_like(7);
        config.fault_policy = fault_policy;
        config.faults = if args.has("plan") {
            plan
        } else {
            FaultPlan::named("heavy").expect("preset")
        };
        if let Some(fraction) = salvage {
            config.faults.checkpointed_fraction = fraction;
        }
        let run = || {
            let result = simulate(&wf, algorithm, config);
            FaultReport::from_result(&result, &config, algorithm.label())
        };
        let a = run();
        let b = run();
        if a.to_json() != b.to_json() {
            return Err("chaos smoke: same-seed reports differ".into());
        }
        if !a.conservation_ok {
            return Err(format!(
                "chaos smoke: conservation violated ({} submitted, {} completed, {} dead-lettered)",
                a.submitted, a.completed, a.dead_lettered
            ));
        }
        print!("{}", a.render());
        println!(
            "chaos smoke OK: byte-identical report across two runs, {} submitted = {} completed + {} dead-lettered",
            a.submitted, a.completed, a.dead_lettered
        );
        return Ok(());
    }

    let name = args
        .positional
        .first()
        .ok_or("chaos requires a workflow name or trace file (or --quick)")?;
    let wf = parse_workflow(name, args)?;
    let mut config = parse_sim_config(args)?;
    config.faults = plan;
    if let Some(fraction) = salvage {
        config.faults.checkpointed_fraction = fraction;
    }
    config.fault_policy = fault_policy;
    let result = simulate(&wf, algorithm, config);
    let report = FaultReport::from_result(&result, &config, algorithm.label());
    print!("{}", report.render());
    if let Some(path) = args.value_of("out")? {
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
