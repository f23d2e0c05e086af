//! In-memory tracing at the layer boundaries the benchmark calls through.
//!
//! A [`Tracer`] keeps, for every boundary, a call count, the busy time and
//! every call's duration (for p50/p99), plus raw spans (name, start, end,
//! parent) up to [`SPAN_CAP`]. Counts keep going past the cap. Nothing is
//! written until the run ends.
//!
//! [`TimedSource`] wraps a workload's [`TaskSource`] without changing what it
//! yields; traced, it times each `next_task` and `deps_of` call.
//! [`CompletionClock`] gives the simulator's per-task latency: engine wall
//! time per completed task, over blocks of consecutive completions.

use crate::stats::Samples;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::io::Write;
use std::sync::mpsc::Sender;
use std::time::Instant;
use tora::alloc::resources::WorkerSpec;
use tora::alloc::task::TaskSpec;
use tora::alloc::trace::{AllocEvent, EventSink};
use tora::workloads::TaskSource;

/// Raw spans kept per traced run.
pub const SPAN_CAP: usize = 1_000_000;

/// Consecutive task completions behind one simulator latency sample. Task
/// arrivals would not do: the engine pulls a task per arrival, arrivals
/// bunch up while a DAG waits on its dependencies and stop while the
/// backlog drains, so their gaps measure the workload's shape more than the
/// engine's cost. 64 keeps at least ten samples past the 99th percentile on
/// the 96,000-task DAG.
pub const COMPLETION_BLOCK: usize = 64;

/// Index of a recorded span; [`NO_SPAN`] for a root or a dropped span.
pub type SpanId = u32;

/// Parent of a root span, and the id of spans past the cap.
pub const NO_SPAN: SpanId = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// The summary of one layer boundary in a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundaryRow {
    /// Boundary name, `<layer>.<call>`.
    pub name: String,
    /// Calls recorded.
    pub count: u64,
    /// Total time inside the calls, in seconds.
    pub busy_s: f64,
    /// Median call duration in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile call duration in nanoseconds.
    pub p99_ns: f64,
}

/// Per-boundary totals.
#[derive(Debug, Clone)]
struct Boundary {
    name: &'static str,
    durations: Samples,
}

/// Counts, busy time, quantiles and spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    boundaries: Vec<Boundary>,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose span clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            boundaries: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn boundary(&mut self, name: &'static str) -> &mut Boundary {
        let i = match self.boundaries.iter().position(|b| b.name == name) {
            Some(i) => i,
            None => {
                self.boundaries.push(Boundary {
                    name,
                    durations: Samples::default(),
                });
                self.boundaries.len() - 1
            }
        };
        &mut self.boundaries[i]
    }

    /// Record one call at boundary `name` that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) -> SpanId {
        let ns = (end - start).as_nanos() as u64;
        self.boundary(name).durations.push(ns);
        if self.spans.len() >= SPAN_CAP {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Count one call at boundary `name` without a span (a finer split of a
    /// boundary whose span is already recorded).
    pub fn count_only(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.boundary(name)
            .durations
            .push((end - start).as_nanos() as u64);
    }

    /// Open a span whose end is not known yet (a parent of later spans);
    /// it is not counted at its boundary until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: SpanId) -> SpanId {
        if self.spans.len() >= SPAN_CAP {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span opened with [`Tracer::open`] and count it.
    pub fn close(&mut self, id: SpanId, name: &'static str, start: Instant, end: Instant) {
        self.count_only(name, start, end);
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
    }

    /// Move `other`'s boundaries and spans into this tracer. `other` must
    /// share this tracer's epoch; its spans keep their parents, which must
    /// be ids of this tracer (or [`NO_SPAN`]).
    pub fn absorb(&mut self, other: Tracer) {
        for b in other.boundaries {
            let into = &mut self.boundary(b.name).durations;
            for ns in b.durations.iter() {
                into.push(ns);
            }
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Calls recorded at `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.find(name).map_or(0, |b| b.durations.len() as u64)
    }

    /// Total time spent at `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.find(name)
            .map_or(0.0, |b| b.durations.total_ns() as f64 / 1e9)
    }

    /// Mean call duration at `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.find(name).map_or(0.0, |b| b.durations.mean_ns())
    }

    /// The `q`-quantile of call durations at `name`, in nanoseconds.
    pub fn quantile_ns(&mut self, name: &str, q: f64) -> f64 {
        match self.boundaries.iter_mut().find(|b| b.name == name) {
            Some(b) => b.durations.quantile_ns(q),
            None => 0.0,
        }
    }

    fn find(&self, name: &str) -> Option<&Boundary> {
        self.boundaries.iter().find(|b| b.name == name)
    }

    /// One row per boundary, in first-seen order.
    pub fn boundary_table(&mut self) -> Vec<BoundaryRow> {
        self.boundaries
            .iter_mut()
            .map(|b| BoundaryRow {
                name: b.name.to_string(),
                count: b.durations.len() as u64,
                busy_s: b.durations.total_ns() as f64 / 1e9,
                p50_ns: b.durations.quantile_ns(0.5),
                p99_ns: b.durations.quantile_ns(0.99),
            })
            .collect()
    }

    /// Write the raw spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`,
    /// with `parent` null for roots.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An [`EventSink`] that stamps every [`COMPLETION_BLOCK`]th observation,
/// which the engine makes once per completed task whose record is not
/// dropped by a fault plan.
#[derive(Debug, Default)]
pub struct CompletionClock {
    observed: usize,
    block_start: Option<Instant>,
    blocks: Samples,
}

impl CompletionClock {
    /// Wall time from observation `k * COMPLETION_BLOCK` to observation
    /// `(k + 1) * COMPLETION_BLOCK`, one sample per whole block.
    pub fn into_blocks(self) -> Samples {
        self.blocks
    }
}

impl EventSink for CompletionClock {
    fn emit(&mut self, event: AllocEvent) {
        if !matches!(event, AllocEvent::Observe { .. }) {
            return;
        }
        if self.observed.is_multiple_of(COMPLETION_BLOCK) {
            let now = Instant::now();
            if let Some(begin) = self.block_start.replace(now) {
                self.blocks.push((now - begin).as_nanos() as u64);
            }
        }
        self.observed += 1;
    }
}

/// A transparent [`TaskSource`] wrapper; traced, it times every call.
pub struct TimedSource {
    inner: Box<dyn TaskSource>,
    /// Traced runs: per-call timings, with spans parented to the given id.
    /// A cell because `deps_of` takes `&self`.
    tracer: Option<(RefCell<Tracer>, SpanId)>,
    done: Sender<Option<Tracer>>,
}

impl TimedSource {
    /// Wrap `inner`; its tracer is sent on `done` when the wrapper is
    /// dropped. With `trace = Some((epoch, parent))` every call is timed.
    pub fn new(
        inner: Box<dyn TaskSource>,
        trace: Option<(Instant, SpanId)>,
        done: Sender<Option<Tracer>>,
    ) -> Self {
        TimedSource {
            inner,
            tracer: trace.map(|(epoch, parent)| (RefCell::new(Tracer::new(epoch)), parent)),
            done,
        }
    }
}

impl TaskSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn categories(&self) -> &[String] {
        self.inner.categories()
    }

    fn worker(&self) -> WorkerSpec {
        self.inner.worker()
    }

    fn total_tasks(&self) -> usize {
        self.inner.total_tasks()
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        let Some((tracer, parent)) = self.tracer.as_mut() else {
            return self.inner.next_task();
        };
        let start = Instant::now();
        let task = self.inner.next_task();
        tracer
            .get_mut()
            .record("workloads.next_task", start, Instant::now(), *parent);
        task
    }

    fn category_of(&self, index: usize) -> u32 {
        self.inner.category_of(index)
    }

    fn deps_of(&self, index: usize) -> Vec<u64> {
        let Some((tracer, parent)) = &self.tracer else {
            return self.inner.deps_of(index);
        };
        let start = Instant::now();
        let deps = self.inner.deps_of(index);
        tracer
            .borrow_mut()
            .record("workloads.deps_of", start, Instant::now(), *parent);
        deps
    }

    fn dependency_window(&self) -> usize {
        self.inner.dependency_window()
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        // A discarded set-up drops the receiver first; nobody wants its log.
        let _ = self
            .done
            .send(self.tracer.take().map(|(t, _)| t.into_inner()));
    }
}
