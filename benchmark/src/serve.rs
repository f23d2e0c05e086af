//! The serve workloads: `serve-closed-loop` and `serve-predict-burst`.
//!
//! Both drive a [`Session`] in process through the wire path a daemon runs
//! for every request line: JSON decode, `Session::handle`, JSON encode.
//! Request latency is timed around `handle_line` plus the encoding.

use crate::alloc::{self, AllocCounts};
use crate::stats::{Fnv64, Samples};
use crate::trace::{TimedSource, Tracer, NO_SPAN};
use crate::{ratio, repeat_setup, Layers, Rep, Workload, THREADS};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tora::prelude::*;
use tora::serve::{Grant, Request, Response, ServeConfig, ServeSnapshot, Session};

/// Pool size, in paper-shaped workers.
const WORKERS: usize = 20;
/// Tasks the closed-loop client keeps outstanding per tenant.
const WINDOW: usize = 64;
/// The closed-loop client sends one `Predict` per this many requests.
const PREDICT_EVERY: u64 = 64;
/// Contexts per burst `Predict`.
const BURST_CONTEXTS: u32 = 64;
/// The closed-loop tenants, one per workflow.
const TENANTS: [PaperWorkflow; 4] = [
    PaperWorkflow::ColmenaXtb,
    PaperWorkflow::TopEft,
    PaperWorkflow::Bimodal,
    PaperWorkflow::Trimodal,
];

fn config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        threads: THREADS,
    }
}

/// One repetition of a serve workload. `scratch` holds the snapshot file.
pub fn run(workload: Workload, seed: u64, tracer: Option<&mut Tracer>, scratch: &Path) -> Rep {
    match workload {
        Workload::ServeClosedLoop {
            tasks_per_tenant,
            snapshot_at,
            restore,
        } => closed_loop(
            tasks_per_tenant,
            snapshot_at,
            restore,
            seed,
            tracer,
            scratch,
        ),
        Workload::ServePredictBurst {
            warm_tasks,
            requests,
        } => predict_burst(warm_tasks, requests, seed, tracer),
        _ => panic!("{} is not a serve workload", workload.name()),
    }
}

/// The client end of a session: sends requests, digests the transcript and
/// keeps the measurements.
struct Client<'t> {
    session: Session,
    tracer: Option<&'t mut Tracer>,
    /// Whether requests are in the timed part (set-up requests are not).
    timed: bool,
    /// Digest of every response line, set-up included.
    transcript: Fnv64,
    requests: u64,
    error_responses: u64,
    // Timed requests only from here.
    latencies: Samples,
    timed_requests: u64,
    response_bytes: u64,
    grants: u64,
    queue_depth_max: u64,
    errors: Vec<String>,
}

impl<'t> Client<'t> {
    fn new(tracer: Option<&'t mut Tracer>) -> Self {
        Client {
            session: Session::new(&config()),
            tracer,
            timed: false,
            transcript: Fnv64::default(),
            latencies: Samples::default(),
            requests: 0,
            timed_requests: 0,
            response_bytes: 0,
            grants: 0,
            queue_depth_max: 0,
            error_responses: 0,
            errors: Vec::new(),
        }
    }

    /// Send one request. `handler` names the per-handler boundary a traced
    /// run counts its `Session::handle` time under.
    fn send(&mut self, request: &Request, handler: &'static str) -> Response {
        let line = serde_json::to_string(request).expect("requests serialize");
        let tracer = self.tracer.as_deref_mut().filter(|_| self.timed);
        let (response, out, start, end) = match tracer {
            None => {
                let start = Instant::now();
                let (response, _) = self.session.handle_line(&line);
                let out = serde_json::to_string(&response).expect("responses serialize");
                (response, out, start, Instant::now())
            }
            Some(tracer) => {
                // `handle_line` is exactly this decode followed by `handle`.
                let start = Instant::now();
                let request: Request =
                    serde_json::from_str(&line).expect("the client's requests parse");
                let decoded = Instant::now();
                let response = self.session.handle(request);
                let handled = Instant::now();
                let out = serde_json::to_string(&response).expect("responses serialize");
                let end = Instant::now();
                let root = tracer.record("serve.request", start, end, NO_SPAN);
                tracer.record("serve.decode", start, decoded, root);
                tracer.record("serve.handle", decoded, handled, root);
                tracer.record("serve.encode", handled, end, root);
                tracer.count_only(handler, decoded, handled);
                (response, out, start, end)
            }
        };
        self.requests += 1;
        if self.timed {
            self.timed_requests += 1;
            self.latencies.push((end - start).as_nanos() as u64);
            self.response_bytes += out.len() as u64;
            self.grants += grants(&response).len() as u64;
            if let Response::Submitted { queued, .. } = &response {
                self.queue_depth_max = self.queue_depth_max.max(*queued);
            }
        }
        match &response {
            // The snapshot path is a deployment detail, not an output.
            Response::Snapshotted { tenants, .. } => {
                self.transcript
                    .write(format!("Snapshotted {tenants}").as_bytes());
            }
            _ => self.transcript.write(out.as_bytes()),
        }
        self.transcript.write(b"\n");
        if let Response::Error { code, message } = &response {
            self.error_responses += 1;
            if self.error_responses == 1 {
                self.errors
                    .push(format!("error response {code}: {message} (request {line})"));
            }
        }
        response
    }

    fn open(&mut self, tenant: &str, seed: u64) {
        self.send(
            &Request::Open {
                tenant: tenant.to_string(),
                algorithm: String::new(),
                seed,
            },
            "serve.handle.open",
        );
    }

    fn submit(&mut self, tenant: &str, task: &TaskSpec) -> Response {
        self.send(
            &Request::Submit {
                tenant: tenant.to_string(),
                task: task.id.0,
                category: task.category.0,
                input_signal: task.features.input_signal,
                depth: task.features.depth,
            },
            "serve.handle.submit",
        )
    }

    fn complete(&mut self, tenant: &str, task: &TaskSpec) -> Response {
        self.send(
            &Request::Complete {
                tenant: tenant.to_string(),
                task: task.id.0,
                cores: task.peak.cores(),
                memory_mb: task.peak.memory_mb(),
                disk_mb: task.peak.disk_mb(),
                duration_s: task.duration_s,
            },
            "serve.handle.complete",
        )
    }

    /// Send the closing `Stats` and check that every tenant ended with
    /// nothing running or queued and `completed` tasks each.
    fn finish(&mut self, completed: &[(&str, u64)]) -> u64 {
        let Response::StatsReport { tenants, .. } =
            self.send(&Request::Stats {}, "serve.handle.stats")
        else {
            self.errors
                .push("Stats did not answer with a report".into());
            return 0;
        };
        for (name, expected) in completed {
            match tenants.iter().find(|t| t.tenant == *name) {
                Some(t) if t.completed == *expected && t.running == 0 && t.queued == 0 => {}
                Some(t) => self.errors.push(format!(
                    "conservation: tenant {name} completed {} of {expected}, {} running, {} queued",
                    t.completed, t.running, t.queued
                )),
                None => self
                    .errors
                    .push(format!("tenant {name} missing from Stats")),
            }
        }
        tenants.iter().map(|t| t.ops).sum()
    }

    /// The end-to-end part of a repetition.
    fn rep(&mut self, setup_s: f64, wall_s: f64, dropped: u64) -> Rep {
        if self.error_responses > 1 {
            self.errors
                .push(format!("{} error responses in all", self.error_responses));
        }
        Rep {
            setup_s,
            wall_s,
            ops: self.timed_requests,
            attempted: self.requests,
            failed: self.error_responses + dropped,
            latency_p50_us: self.latencies.quantile_ns(0.5) / 1e3,
            latency_p99_us: self.latencies.quantile_ns(0.99) / 1e3,
            latency_samples: self.latencies.len() as u64,
            digest: format!("{:016x}", self.transcript.finish()),
            errors: std::mem::take(&mut self.errors),
            ..Rep::default()
        }
    }

    /// The `workloads.*` and `serve.*` request-path metrics of a traced run.
    fn report(&mut self) -> Option<Layers> {
        let tracer = self.tracer.as_deref_mut()?;
        let mut layers = Layers::default();
        layers.set(
            "workloads.next_task_ns",
            tracer.mean_ns("workloads.next_task"),
        );
        layers.set(
            "workloads.tasks_pulled",
            tracer.count("workloads.next_task") as f64,
        );
        layers.set("serve.decode_ns", tracer.mean_ns("serve.decode"));
        layers.set("serve.handle_ns", tracer.mean_ns("serve.handle"));
        layers.set(
            "serve.handle_p99_ns",
            tracer.quantile_ns("serve.handle", 0.99),
        );
        layers.set("serve.encode_ns", tracer.mean_ns("serve.encode"));
        for kind in ["submit", "complete", "fault", "predict"] {
            let boundary = format!("serve.handle.{kind}");
            layers.set(
                &format!("serve.handle_ns.{kind}"),
                tracer.mean_ns(&boundary),
            );
        }
        let requests = self.timed_requests as f64;
        layers.set(
            "serve.response_bytes",
            ratio(self.response_bytes as f64, requests),
        );
        layers.set(
            "serve.grants_per_request",
            ratio(self.grants as f64, requests),
        );
        layers.set("serve.queue_depth_max", self.queue_depth_max as f64);
        Some(layers)
    }
}

/// The grants a response carries.
fn grants(response: &Response) -> &[Grant] {
    match response {
        Response::Submitted { granted, .. } => granted,
        Response::Completed { admitted, .. }
        | Response::Retried { admitted, .. }
        | Response::Closed { admitted, .. } => admitted,
        _ => &[],
    }
}

/// Generate a tenant's tasks through the timed source wrapper, so traced
/// runs see the workloads layer too.
fn generate(spec: &WorkloadSpec, tracer: Option<&mut Tracer>) -> Vec<TaskSpec> {
    let stream = spec
        .stream()
        .expect("benchmark workloads are valid and streamable");
    let (done, log) = mpsc::channel();
    let mut source = TimedSource::new(stream, tracer.as_ref().map(|t| (t.epoch(), NO_SPAN)), done);
    let tasks = (0..source.total_tasks())
        .map(|_| {
            source
                .next_task()
                .expect("a source yields its declared total")
        })
        .collect();
    drop(source);
    let timed = log.recv().expect("the source reports when dropped");
    if let (Some(tracer), Some(timed)) = (tracer, timed) {
        tracer.absorb(timed);
    }
    tasks
}

/// Set the `alloc.*` metrics from a serial replay of the tenants' task
/// streams; the session's own allocators are not reachable from outside.
fn replay_tenants(specs: &[WorkloadSpec], seed: u64, tracer: &mut Tracer, layers: &mut Layers) {
    let mut counts = AllocCounts::default();
    let mut tasks = 0u64;
    for spec in specs {
        let source = spec.stream().expect("benchmark workloads stream");
        tasks += source.total_tasks() as u64;
        counts.add(&alloc::replay(
            source,
            // What an `Open` without an algorithm gets.
            AlgorithmKind::ExhaustiveBucketing,
            seed,
            None,
            tracer,
        ));
    }
    counts.report(tasks, layers);
    alloc::report_replay(tracer, layers);
}

/// One closed-loop tenant's books, client side.
struct Tenant {
    name: &'static str,
    categories: u32,
    tasks: Vec<TaskSpec>,
    next: usize,
    outstanding: usize,
    finished: u64,
    dropped: u64,
}

impl Tenant {
    fn can_submit(&self) -> bool {
        self.outstanding < WINDOW && self.next < self.tasks.len()
    }
}

/// What the snapshot cut measured.
#[derive(Default)]
struct Cut {
    snapshot_bytes: f64,
    snapshot_ms: f64,
    parse_s: f64,
    restore_s: f64,
    /// Time spent after the `Snapshot` response, kept off the request clock.
    off_clock: Duration,
}

/// Send a `Snapshot` to a file under `scratch`. With `restore`, time
/// `Session::restore` on the file and check the restored state is
/// identical.
fn snapshot(client: &mut Client<'_>, scratch: &Path, restore: bool) -> Cut {
    let mut out = Cut::default();
    let path = scratch.join(format!("snapshot-{}.json", std::process::id()));
    let start = Instant::now();
    let response = client.send(
        &Request::Snapshot {
            path: path.display().to_string(),
        },
        "serve.handle.snapshot",
    );
    let answered = Instant::now();
    out.snapshot_ms = (answered - start).as_secs_f64() * 1e3;
    if matches!(response, Response::Snapshotted { .. }) {
        check_snapshot(client, &path, restore, &mut out);
    }
    out.off_clock = answered.elapsed();
    out
}

fn check_snapshot(client: &mut Client<'_>, path: &Path, restore: bool, out: &mut Cut) {
    let read = std::fs::read_to_string(path);
    // Best effort: a leftover file in the scratch directory is harmless.
    let _ = std::fs::remove_file(path);
    let json = match read {
        Ok(json) => json,
        Err(e) => {
            client
                .errors
                .push(format!("reading {}: {e}", path.display()));
            return;
        }
    };
    out.snapshot_bytes = json.len() as f64;
    if !restore {
        return;
    }
    if client.tracer.is_some() {
        let start = Instant::now();
        let parsed = ServeSnapshot::from_json(&json);
        out.parse_s = start.elapsed().as_secs_f64();
        if let Err(e) = parsed {
            client.errors.push(format!("snapshot parse: {e}"));
        }
    }
    let start = Instant::now();
    let restored = Session::restore(&config(), &json);
    out.restore_s = start.elapsed().as_secs_f64();
    match restored.and_then(|s| s.snapshot_json()) {
        Ok(again) if again == json => {}
        Ok(_) => client
            .errors
            .push("restore identity: the restored snapshot differs".into()),
        Err(e) => client.errors.push(format!("restore: {e}")),
    }
}

fn closed_loop(
    tasks_per_tenant: usize,
    snapshot_at: u64,
    restore: bool,
    seed: u64,
    tracer: Option<&mut Tracer>,
    scratch: &Path,
) -> Rep {
    let specs: Vec<WorkloadSpec> = TENANTS
        .iter()
        .map(|wf| wf.spec(seed).tasks(tasks_per_tenant))
        .collect();
    let traced = tracer.is_some();
    let mut tracer = Some(tracer);
    let ((mut client, mut tenants), setup_s) = repeat_setup(traced, || {
        let mut client = Client::new(tracer.take().flatten());
        let mut tenants = Vec::new();
        for (wf, spec) in TENANTS.iter().zip(&specs) {
            client.open(wf.name(), seed);
            tenants.push(Tenant {
                name: wf.name(),
                categories: wf.category_names().len() as u32,
                tasks: generate(spec, client.tracer.as_deref_mut()),
                next: 0,
                outstanding: 0,
                finished: 0,
                dropped: 0,
            });
        }
        (client, tenants)
    });

    client.timed = true;
    let loop_start = Instant::now();
    let mut cut = None;
    let mut granted: VecDeque<Grant> = VecDeque::new();
    let mut cursor = 0;
    let n = tenants.len();
    loop {
        let sent = client.timed_requests;
        if sent == snapshot_at && cut.is_none() {
            cut = Some(snapshot(&mut client, scratch, restore));
            continue;
        }
        if sent % PREDICT_EVERY == PREDICT_EVERY - 1 {
            let t = &tenants[(sent / PREDICT_EVERY) as usize % n];
            client.send(
                &Request::Predict {
                    tenant: t.name.to_string(),
                    categories: (0..t.categories).collect(),
                },
                "serve.handle.predict",
            );
            continue;
        }
        if let Some(i) = (0..n)
            .map(|k| (cursor + k) % n)
            .find(|&i| tenants[i].can_submit())
        {
            cursor = i + 1;
            let t = &mut tenants[i];
            t.next += 1;
            t.outstanding += 1;
            let response = client.submit(t.name, &t.tasks[t.next - 1]);
            granted.extend(grants(&response).iter().cloned());
            continue;
        }
        let Some(grant) = granted.pop_front() else {
            if tenants.iter().any(|t| t.finished < t.tasks.len() as u64) {
                client
                    .errors
                    .push("closed loop stalled: tasks outstanding but none granted".into());
            }
            break;
        };
        let Some(t) = tenants.iter_mut().find(|t| t.name == grant.tenant) else {
            client
                .errors
                .push(format!("grant for unknown tenant {}", grant.tenant));
            break;
        };
        let task = &t.tasks[grant.task as usize];
        let short = ResourceVector::from(grant.alloc).exceeded_by(&task.peak);
        let response = if short.any() {
            let response = client.send(
                &Request::Fault {
                    tenant: t.name.to_string(),
                    task: task.id.0,
                    kind: "exhaustion".to_string(),
                    exhausted: short.iter().map(|k| k.label().to_string()).collect(),
                },
                "serve.handle.fault",
            );
            if let Response::Retried {
                infeasible: true, ..
            } = response
            {
                t.outstanding -= 1;
                t.finished += 1;
                t.dropped += 1;
            }
            response
        } else {
            let response = client.complete(t.name, task);
            t.outstanding -= 1;
            t.finished += 1;
            response
        };
        granted.extend(grants(&response).iter().cloned());
    }
    let completed: Vec<(&str, u64)> = tenants
        .iter()
        .map(|t| (t.name, t.finished - t.dropped))
        .collect();
    let journal_ops = client.finish(&completed);
    let cut = cut.unwrap_or_else(|| {
        client.errors.push(format!(
            "the run ended before request {snapshot_at}: no snapshot check"
        ));
        Cut::default()
    });
    let wall_s = (loop_start.elapsed() - cut.off_clock).as_secs_f64();
    let dropped = tenants.iter().map(|t| t.dropped).sum();
    let mut rep = client.rep(setup_s, wall_s, dropped);
    if let Some(mut layers) = client.report() {
        let tracer = client
            .tracer
            .as_deref_mut()
            .expect("report() implies a tracer");
        replay_tenants(&specs, seed, tracer, &mut layers);
        layers.set("serve.journal_ops", journal_ops as f64);
        layers.set("serve.snapshot_bytes", cut.snapshot_bytes);
        layers.set("serve.snapshot_ms", cut.snapshot_ms);
        layers.set("serve.snapshot_parse_s", cut.parse_s);
        layers.set("serve.restore_s", cut.restore_s);
        layers.set("serve.restore_replay_s", cut.restore_s - cut.parse_s);
        rep.layers = layers.into_vec();
    }
    rep
}

fn predict_burst(
    warm_tasks: usize,
    requests: usize,
    seed: u64,
    tracer: Option<&mut Tracer>,
) -> Rep {
    let workflow = PaperWorkflow::TopEft;
    let tenant = workflow.name();
    let categories = workflow.category_names().len() as u32;
    let spec = workflow.spec(seed).tasks(warm_tasks);
    let traced = tracer.is_some();
    let mut tracer = Some(tracer);
    let ((mut client, warmed), setup_s) = repeat_setup(traced, || {
        let mut client = Client::new(tracer.take().flatten());
        client.open(tenant, seed);
        let tasks = generate(&spec, client.tracer.as_deref_mut());
        for task in &tasks {
            // The pool is idle between pairs, so every submission is granted.
            client.submit(tenant, task);
            client.complete(tenant, task);
        }
        (client, tasks.len() as u64)
    });

    client.timed = true;
    let loop_start = Instant::now();
    for i in 0..requests as u32 {
        client.send(
            &Request::Predict {
                tenant: tenant.to_string(),
                categories: (0..BURST_CONTEXTS).map(|j| (i + j) % categories).collect(),
            },
            "serve.handle.predict",
        );
    }
    let journal_ops = client.finish(&[(tenant, warmed)]);
    let wall_s = loop_start.elapsed().as_secs_f64();
    let mut rep = client.rep(setup_s, wall_s, 0);
    if let Some(mut layers) = client.report() {
        let tracer = client
            .tracer
            .as_deref_mut()
            .expect("report() implies a tracer");
        replay_tenants(&[spec], seed, tracer, &mut layers);
        layers.set("serve.journal_ops", journal_ops as f64);
        rep.layers = layers.into_vec();
    }
    rep
}
