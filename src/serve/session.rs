//! The request loop: parse a line, mutate the registry, answer a line.
//!
//! [`Session`] is transport-agnostic — it consumes any `BufRead` and writes
//! any `Write`, so the same code serves stdin/stdout, a Unix socket
//! connection, or an in-process `Vec<u8>` in tests. One request line
//! produces exactly one response line; a request that fails validation
//! produces an [`Response::Error`] and leaves daemon state untouched
//! (validation runs before the first journaled operation).

use crate::prelude::*;
use crate::workloads::PaperWorkflow;
use tora_alloc::oplog::{AllocOp, Applied};

use std::io::{BufRead, Read, Write};

use super::protocol::{Prediction, Request, Response, TenantStatus};
use super::snapshot::ServeSnapshot;
use super::tenant::{algorithm_or_default, Registry, TaskBooking, Tenant};
use super::ServeConfig;

/// The longest request line the daemon reads, in bytes (newline excluded).
/// Longer lines are answered `line-too-long` without being buffered.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A live daemon: the tenant registry plus the request dispatcher.
pub struct Session {
    registry: Registry,
}

impl Session {
    /// A fresh daemon with no tenants.
    pub fn new(config: &ServeConfig) -> Self {
        Session {
            registry: Registry::new(config.workers),
        }
    }

    /// Rebuild a daemon from a snapshot produced by [`Request::Snapshot`].
    /// The restored daemon answers any subsequent request stream exactly as
    /// the snapshotted daemon would have. The pool size comes from the
    /// snapshot, so `_config` changes nothing.
    pub fn restore(_config: &ServeConfig, snapshot_json: &str) -> Result<Self, String> {
        let snapshot = ServeSnapshot::from_json(snapshot_json)?;
        Ok(Session {
            registry: snapshot.restore()?,
        })
    }

    /// The daemon's current state in snapshot form.
    pub fn snapshot_json(&self) -> Result<String, String> {
        ServeSnapshot::capture(&self.registry).to_json()
    }

    /// Parse and dispatch one request line. Returns the response and
    /// whether the request asked the daemon to stop.
    pub fn handle_line(&mut self, line: &str) -> (Response, bool) {
        match serde_json::from_str::<Request>(line) {
            Ok(request) => {
                let shutdown = matches!(request, Request::Shutdown {});
                (self.handle(request), shutdown)
            }
            Err(e) => (
                Response::error("bad-request", format!("unparseable request: {e}")),
                false,
            ),
        }
    }

    /// Serve an entire connection: one response line per request line.
    /// Returns whether a `Shutdown` was seen (the connection ending without
    /// one leaves the daemon ready for the next connection).
    ///
    /// Lines are read as bytes, at most [`MAX_LINE_BYTES`] at a time: a
    /// longer line is answered `line-too-long` and the rest of it is skipped
    /// without being buffered; a line that is not UTF-8 is answered
    /// `bad-request`. Neither touches daemon state or ends the connection.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut reader: R,
        mut writer: W,
    ) -> std::io::Result<bool> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let cap = MAX_LINE_BYTES as u64 + 1;
            if (&mut reader).take(cap).read_until(b'\n', &mut buf)? == 0 {
                return Ok(false);
            }
            // Only a line that filled the whole window without reaching
            // its newline is over the cap.
            let (response, shutdown) = if buf.len() as u64 == cap && buf.last() != Some(&b'\n') {
                discard_line(&mut reader)?;
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                (Response::error("line-too-long", message), false)
            } else {
                let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                match std::str::from_utf8(line) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => self.handle_line(line),
                    Err(e) => {
                        let message = format!("request is not UTF-8: {e}");
                        (Response::error("bad-request", message), false)
                    }
                }
            };
            let json = serde_json::to_string(&response)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(writer, "{json}")?;
            writer.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
    }

    /// Bind a Unix socket and serve connections sequentially (the registry
    /// is shared across connections) until a `Shutdown` arrives. The socket
    /// file is removed on exit.
    #[cfg(unix)]
    pub fn serve_unix(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::UnixListener;
        let listener = UnixListener::bind(path)?;
        loop {
            let (stream, _) = listener.accept()?;
            let reader = std::io::BufReader::new(stream.try_clone()?);
            if self.serve(reader, &stream)? {
                break;
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Dispatch one parsed request.
    pub fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Open {
                tenant,
                algorithm,
                seed,
            } => self.open(tenant, &algorithm, seed),
            Request::Submit {
                tenant,
                task,
                category,
                input_signal,
                depth,
            } => self.submit(
                &tenant,
                task,
                category,
                TaskFeatures::with_input_signal(input_signal).at_depth(depth),
            ),
            Request::Workload {
                tenant,
                workflow,
                tasks,
                seed,
            } => self.workload(&tenant, &workflow, tasks, seed),
            Request::Complete {
                tenant,
                task,
                cores,
                memory_mb,
                disk_mb,
                duration_s,
            } => self.complete(&tenant, task, cores, memory_mb, disk_mb, duration_s),
            Request::Fault {
                tenant,
                task,
                kind,
                exhausted,
            } => self.fault(&tenant, task, &kind, &exhausted),
            Request::Predict { tenant, categories } => self.predict(&tenant, &categories),
            Request::Rebucket { tenant } => self.rebucket(&tenant),
            Request::Stats {} => self.stats(),
            Request::Snapshot { path } => self.snapshot(&path),
            Request::Close { tenant } => self.close(&tenant),
            Request::Shutdown {} => Response::Bye {},
        }
    }

    fn open(&mut self, tenant: String, algorithm: &str, seed: u64) -> Response {
        if tenant.is_empty() {
            return Response::error("bad-request", "tenant name must be non-empty");
        }
        if self.registry.find(&tenant).is_some() {
            return Response::error(
                "duplicate-tenant",
                format!("tenant `{tenant}` already open"),
            );
        }
        let algorithm = match algorithm_or_default(algorithm) {
            Ok(a) => a,
            Err(e) => return Response::error("unknown-algorithm", e),
        };
        self.registry
            .tenants
            .push(Tenant::new(tenant.clone(), algorithm, seed));
        Response::Opened { tenant }
    }

    fn submit(
        &mut self,
        tenant: &str,
        task: u64,
        category: u32,
        features: TaskFeatures,
    ) -> Response {
        let Some(i) = self.registry.find(tenant) else {
            return unknown_tenant(tenant);
        };
        if self.registry.tenants[i].submitted.contains(&task) {
            return Response::error(
                "duplicate-task",
                format!("task {task} was already submitted to `{tenant}`"),
            );
        }
        let t = &mut self.registry.tenants[i];
        let Applied::Decisions(decisions) = t.apply(AllocOp::PredictFirstBatch {
            contexts: vec![TaskContext::new(CategoryId(category), features)],
        }) else {
            unreachable!("a batch op yields decisions");
        };
        t.submitted.insert(task);
        t.queue.push_back(TaskBooking {
            task,
            category,
            features,
            alloc: decisions[0].alloc,
        });
        let granted = self.registry.admit();
        Response::Submitted {
            tenant: tenant.to_string(),
            accepted: 1,
            granted,
            queued: self.registry.tenants[i].queue.len() as u64,
        }
    }

    fn workload(&mut self, tenant: &str, workflow: &str, tasks: usize, seed: u64) -> Response {
        let Some(i) = self.registry.find(tenant) else {
            return unknown_tenant(tenant);
        };
        let Some(by_name) = PaperWorkflow::ALL
            .into_iter()
            .find(|w| w.name() == workflow)
        else {
            return Response::error(
                "unknown-workflow",
                format!("unknown workflow `{workflow}` (see `tora workflows`)"),
            );
        };
        let built = if tasks == 0 {
            by_name.build(seed)
        } else {
            match by_name {
                PaperWorkflow::ColmenaXtb | PaperWorkflow::TopEft => {
                    return Response::error(
                        "bad-request",
                        "`tasks` applies only to synthetic workflows",
                    );
                }
                wf => match wf.spec(seed).tasks(tasks).materialize() {
                    Ok(built) => built,
                    Err(e) => return Response::error(e.code(), e.to_string()),
                },
            }
        };
        if let Some(spec) = built
            .tasks
            .iter()
            .find(|s| self.registry.tenants[i].submitted.contains(&s.id.0))
        {
            return Response::error(
                "duplicate-task",
                format!("task {} was already submitted to `{tenant}`", spec.id.0),
            );
        }
        let contexts: Vec<TaskContext> = built.tasks.iter().map(TaskContext::from).collect();
        let t = &mut self.registry.tenants[i];
        let Applied::Decisions(decisions) = t.apply(AllocOp::PredictFirstBatch { contexts }) else {
            unreachable!("a batch op yields decisions");
        };
        for (spec, decision) in built.tasks.iter().zip(&decisions) {
            t.submitted.insert(spec.id.0);
            t.queue.push_back(TaskBooking {
                task: spec.id.0,
                category: spec.category.0,
                features: spec.features,
                alloc: decision.alloc,
            });
        }
        let granted = self.registry.admit();
        Response::Submitted {
            tenant: tenant.to_string(),
            accepted: built.tasks.len() as u64,
            granted,
            queued: self.registry.tenants[i].queue.len() as u64,
        }
    }

    fn complete(
        &mut self,
        tenant: &str,
        task: u64,
        cores: f64,
        memory_mb: f64,
        disk_mb: f64,
        duration_s: f64,
    ) -> Response {
        let Some(i) = self.registry.find(tenant) else {
            return unknown_tenant(tenant);
        };
        let peak = ResourceVector::new(cores, memory_mb, disk_mb);
        if !peak.is_valid() || !duration_s.is_finite() || duration_s <= 0.0 {
            return Response::error(
                "bad-request",
                "peak axes must be finite and non-negative, duration_s positive",
            );
        }
        let Some(pos) = self.registry.tenants[i]
            .running
            .iter()
            .position(|b| b.task == task)
        else {
            return task_not_running(tenant, task);
        };
        let t = &mut self.registry.tenants[i];
        let booking = t.running.remove(pos);
        // Same record a worker report produces in the engine: the time axis
        // carries the duration, significance is the submission-order weight.
        let record = ResourceRecord::from_task(
            &TaskSpec::new(task, booking.category, peak, duration_s)
                .with_features(booking.features),
        );
        t.apply(AllocOp::Observe { record });
        t.apply(AllocOp::ObserveOutcome {
            category: booking.category_id(),
            outcome: AttemptFeedback::Success,
            rack: None,
        });
        t.completed += 1;
        let admitted = self.registry.admit();
        Response::Completed {
            tenant: tenant.to_string(),
            task,
            admitted,
        }
    }

    fn fault(&mut self, tenant: &str, task: u64, kind: &str, exhausted: &[String]) -> Response {
        let Some(i) = self.registry.find(tenant) else {
            return unknown_tenant(tenant);
        };
        let feedback = match kind {
            "crash" => AttemptFeedback::Crash,
            "straggler" => AttemptFeedback::Straggler,
            "exhaustion" => AttemptFeedback::Exhaustion,
            other => {
                return Response::error(
                    "bad-fault-kind",
                    format!("unknown fault kind `{other}` (crash | straggler | exhaustion)"),
                );
            }
        };
        let mask = if feedback == AttemptFeedback::Exhaustion {
            match parse_axes(exhausted) {
                Ok(mask) if mask.any() => mask,
                Ok(_) => {
                    return Response::error(
                        "bad-request",
                        "an exhaustion fault needs at least one exhausted axis",
                    );
                }
                Err(e) => return Response::error("bad-request", e),
            }
        } else {
            ResourceMask::NONE
        };
        let Some(pos) = self.registry.tenants[i]
            .running
            .iter()
            .position(|b| b.task == task)
        else {
            return task_not_running(tenant, task);
        };
        let t = &mut self.registry.tenants[i];
        let booking = t.running.remove(pos);
        t.apply(AllocOp::ObserveOutcome {
            category: booking.category_id(),
            outcome: feedback,
            rack: None,
        });
        t.faults += 1;
        let (alloc, infeasible) = if feedback == AttemptFeedback::Exhaustion {
            let Applied::Decision(decision) = t.apply(AllocOp::PredictRetry {
                context: booking.context(),
                prev: booking.alloc,
                exhausted: mask,
            }) else {
                unreachable!("a retry op yields one decision");
            };
            (decision.alloc, decision.infeasible)
        } else {
            // Infrastructure faults don't invalidate the allocation: the
            // retry redispatches under the same grant, at the queue front.
            (booking.alloc, false)
        };
        if !infeasible {
            self.registry.tenants[i].queue.push_front(TaskBooking {
                task,
                category: booking.category,
                features: booking.features,
                alloc,
            });
        }
        let admitted = self.registry.admit();
        let queued = self.registry.tenants[i]
            .queue
            .iter()
            .any(|b| b.task == task);
        Response::Retried {
            tenant: tenant.to_string(),
            task,
            alloc: (!infeasible).then(|| alloc.into()),
            queued,
            infeasible,
            admitted,
        }
    }

    fn predict(&mut self, tenant: &str, categories: &[u32]) -> Response {
        let Some(i) = self.registry.find(tenant) else {
            return unknown_tenant(tenant);
        };
        let t = &mut self.registry.tenants[i];
        let Applied::Decisions(decisions) = t.apply(AllocOp::PredictFirstBatch {
            contexts: categories
                .iter()
                .map(|&c| TaskContext::from(CategoryId(c)))
                .collect(),
        }) else {
            unreachable!("a batch op yields decisions");
        };
        Response::Predictions {
            tenant: tenant.to_string(),
            predictions: categories
                .iter()
                .zip(&decisions)
                .map(|(&category, d)| Prediction {
                    category,
                    kind: d.kind.to_string(),
                    alloc: d.alloc.into(),
                })
                .collect(),
        }
    }

    fn rebucket(&mut self, tenant: &str) -> Response {
        let Some(i) = self.registry.find(tenant) else {
            return unknown_tenant(tenant);
        };
        let Applied::Rebucketed(changed) = self.registry.tenants[i].apply(AllocOp::RebucketAll)
        else {
            unreachable!("a rebucket op yields a count");
        };
        Response::Rebucketed {
            tenant: tenant.to_string(),
            changed,
        }
    }

    fn stats(&self) -> Response {
        let capacity = self.registry.capacity;
        Response::StatsReport {
            workers: self.registry.workers as u64,
            capacity: capacity.into(),
            used: self.registry.used().into(),
            tenants: self
                .registry
                .tenants
                .iter()
                .map(|t| TenantStatus {
                    tenant: t.name.clone(),
                    share: t.dominant_share(&capacity),
                    running: t.running.len() as u64,
                    queued: t.queue.len() as u64,
                    completed: t.completed,
                    faults: t.faults,
                    ops: t.log.len() as u64,
                })
                .collect(),
        }
    }

    fn snapshot(&self, path: &str) -> Response {
        let json = match self.snapshot_json() {
            Ok(json) => json,
            Err(e) => return Response::error("io", e),
        };
        if let Err(e) = write_atomically(std::path::Path::new(path), json.as_bytes()) {
            return Response::error("io", format!("writing `{path}`: {e}"));
        }
        Response::Snapshotted {
            path: path.to_string(),
            tenants: self.registry.tenants.len() as u64,
        }
    }

    fn close(&mut self, tenant: &str) -> Response {
        let Some(i) = self.registry.find(tenant) else {
            return unknown_tenant(tenant);
        };
        let closed = self.registry.tenants.remove(i);
        let released = (closed.running.len() + closed.queue.len()) as u64;
        let admitted = self.registry.admit();
        Response::Closed {
            tenant: tenant.to_string(),
            released,
            admitted,
        }
    }
}

impl TaskBooking {
    fn category_id(&self) -> CategoryId {
        CategoryId(self.category)
    }
}

/// Write `bytes` to a sibling temp file, flush it to disk, then rename it
/// over `path`: a kill at any point leaves either the previous file or the
/// complete new one, never a torn mix.
fn write_atomically(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        file.sync_all()
    });
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Consume the rest of the current line (through its newline, or to the end
/// of the stream) without buffering it.
fn discard_line<R: BufRead>(reader: &mut R) -> std::io::Result<()> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        if let Some(i) = chunk.iter().position(|&b| b == b'\n') {
            reader.consume(i + 1);
            return Ok(());
        }
        let n = chunk.len();
        reader.consume(n);
    }
}

fn unknown_tenant(tenant: &str) -> Response {
    Response::error("unknown-tenant", format!("no open tenant `{tenant}`"))
}

fn task_not_running(tenant: &str, task: u64) -> Response {
    Response::error(
        "task-not-running",
        format!("task {task} of `{tenant}` is not currently granted"),
    )
}

/// Parse exhausted-axis labels (`cores`, `memory`, `disk`, `gpus`, `time`)
/// into a mask.
fn parse_axes(labels: &[String]) -> Result<ResourceMask, String> {
    let mut mask = ResourceMask::NONE;
    for label in labels {
        let kind = ResourceKind::ALL
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| format!("unknown resource axis `{label}`"))?;
        mask.set(kind, true);
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(&ServeConfig::default())
    }

    fn line(session: &mut Session, line: &str) -> String {
        let (response, _) = session.handle_line(line);
        serde_json::to_string(&response).unwrap()
    }

    #[test]
    fn the_happy_path_speaks_jsonl() {
        let mut s = session();
        let opened = line(
            &mut s,
            r#"{"Open":{"tenant":"wf","algorithm":"greedy-bucketing","seed":7}}"#,
        );
        assert_eq!(opened, r#"{"Opened":{"tenant":"wf"}}"#);
        let submitted = line(
            &mut s,
            r#"{"Submit":{"tenant":"wf","task":0,"category":1}}"#,
        );
        assert!(submitted.contains(r#""accepted":1"#), "{submitted}");
        assert!(submitted.contains(r#""granted":[{"#), "{submitted}");
        let completed = line(
            &mut s,
            r#"{"Complete":{"tenant":"wf","task":0,"cores":1.0,"memory_mb":200.0,"disk_mb":50.0,"duration_s":5.0}}"#,
        );
        assert!(completed.contains(r#""Completed""#), "{completed}");
        let (bye, shutdown) = s.handle_line(r#"{"Shutdown":{}}"#);
        assert_eq!(bye, Response::Bye {});
        assert!(shutdown);
    }

    #[test]
    fn errors_have_stable_codes_and_mutate_nothing() {
        let mut s = session();
        let cases = [
            (
                r#"{"Submit":{"tenant":"ghost","task":0,"category":0}}"#,
                "unknown-tenant",
            ),
            (r#"not json"#, "bad-request"),
            (
                r#"{"Open":{"tenant":"wf","algorithm":"nope"}}"#,
                "unknown-algorithm",
            ),
        ];
        for (request, code) in cases {
            let (response, _) = s.handle_line(request);
            let Response::Error { code: got, .. } = response else {
                panic!("expected an error for {request}");
            };
            assert_eq!(got, code, "{request}");
        }
        // The failed open left no tenant behind.
        let (response, _) = s.handle_line(r#"{"Open":{"tenant":"wf"}}"#);
        assert_eq!(
            response,
            Response::Opened {
                tenant: "wf".into()
            }
        );
        let (dup, _) = s.handle_line(r#"{"Open":{"tenant":"wf"}}"#);
        assert!(matches!(dup, Response::Error { code, .. } if code == "duplicate-tenant"));
        let (dup_task, _) = {
            s.handle_line(r#"{"Submit":{"tenant":"wf","task":3,"category":0}}"#);
            s.handle_line(r#"{"Submit":{"tenant":"wf","task":3,"category":0}}"#)
        };
        assert!(matches!(dup_task, Response::Error { code, .. } if code == "duplicate-task"));
    }

    #[test]
    fn exhaustion_faults_escalate_and_requeue_at_the_front() {
        let mut s = session();
        s.handle_line(r#"{"Open":{"tenant":"wf","seed":7}}"#);
        // Warm past exploration so predictions are estimator-driven.
        for task in 0..12u64 {
            s.handle_line(&format!(
                r#"{{"Submit":{{"tenant":"wf","task":{task},"category":0}}}}"#
            ));
            s.handle_line(&format!(
                r#"{{"Complete":{{"tenant":"wf","task":{task},"cores":1.0,"memory_mb":900.0,"disk_mb":100.0,"duration_s":4.0}}}}"#
            ));
        }
        s.handle_line(r#"{"Submit":{"tenant":"wf","task":100,"category":0}}"#);
        let (response, _) = s.handle_line(
            r#"{"Fault":{"tenant":"wf","task":100,"kind":"exhaustion","exhausted":["memory"]}}"#,
        );
        let Response::Retried {
            alloc, infeasible, ..
        } = response
        else {
            panic!("expected Retried, got {response:?}");
        };
        assert!(!infeasible);
        assert!(alloc.expect("feasible retry has an alloc").memory_mb > 0.0);
    }
}
