//! Allocation decision tracing: a typed event stream from the allocator.
//!
//! Every consequential step the allocator takes — observing a completed
//! task, rebuilding a bucketing configuration, predicting an allocation,
//! escalating an exhausted axis — is describable as an [`AllocEvent`].
//! Components that want the stream implement [`EventSink`] and receive
//! events synchronously, in decision order.
//!
//! The design constraint is that tracing must cost *nothing* when unused.
//! [`EventSink::ENABLED`] is an associated constant: the allocator guards
//! every event construction behind `if S::ENABLED`, so with the default
//! [`NoopSink`] the branch is constant-folded away and no event is ever
//! built. The provided sinks cover the common uses:
//!
//! | Sink          | Purpose                                            |
//! |---------------|----------------------------------------------------|
//! | [`NoopSink`]  | Default; compiles to nothing                       |
//! | [`TraceStats`]| Counts events, overall and per category            |
//! | [`MemorySink`]| Buffers events for later inspection                |
//! | [`JsonlSink`] | Writes each event, of either kind, as one JSON line |
//! | `(A, B)`      | Fans each event out to two sinks                   |
//!
//! Events serialize with `serde`, externally tagged, so a JSONL line looks
//! like:
//!
//! ```json
//! {"Predict":{"category":0,"kind":"First","alloc":{...},"provenance":[...]}}
//! ```
//!
//! An execution engine driving the allocator shares the same sink: its
//! lifecycle facts ([`SimEvent`]) arrive through [`EventSink::emit_sim`],
//! stamped with simulated time, behind the same `ENABLED` gate. A
//! [`JsonlSink`] writes them as [`LogEntry`] lines between the decisions,
//! in emission order:
//!
//! ```json
//! {"time_s":12.5,"event":{"TaskKilled":{"task":3,"worker":1}}}
//! ```

mod engine;

pub use engine::{DeadLetterCause, LogEntry, SimEvent, WorkerId};

use crate::estimator::{AllocSource, RebucketInfo};
use crate::feedback::AttemptFeedback;
use crate::resources::{ResourceKind, ResourceVector};
use crate::task::CategoryId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of [`AllocEvent`] values ever constructed (process-wide).
///
/// Exists to make the zero-cost claim *testable*: a run with a [`NoopSink`]
/// must leave this counter untouched, because the allocator never reaches
/// an event constructor when `S::ENABLED` is false.
static EVENTS_CONSTRUCTED: AtomicU64 = AtomicU64::new(0);

/// Process-wide number of [`AllocEvent`] values constructed so far.
///
/// Take a reading before and after a run and compare deltas; see
/// `tests/trace_noop.rs` for the intended pattern.
pub fn events_constructed() -> u64 {
    EVENTS_CONSTRUCTED.load(Ordering::Relaxed)
}

/// Which prediction path produced an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictKind {
    /// Steady-state first allocation of a task.
    First,
    /// Allocation for a retry after a resource-exhaustion failure.
    Retry,
    /// Exploratory first allocation (§IV-B): the category has too few
    /// records for the estimators to be trusted.
    Explore,
}

impl fmt::Display for PredictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PredictKind::First => "first",
            PredictKind::Retry => "retry",
            PredictKind::Explore => "explore",
        })
    }
}

/// How one axis of a predicted allocation was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AxisProvenance {
    /// The resource dimension this entry describes.
    pub resource: ResourceKind,
    /// Where the value came from (bucket index, doubling, probe, ...).
    pub source: AllocSource,
    /// The uniform draw handed to the estimator, when one was consumed.
    pub draw: Option<f64>,
    /// Whether clamping to worker capacity changed the proposed value.
    pub clamped: bool,
}

/// One allocator decision, as seen by an [`EventSink`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AllocEvent {
    /// A completed task's peak usage was fed back into the estimators.
    Observe {
        /// Task category the record belongs to.
        category: u32,
        /// Peak consumption of the completed task.
        usage: ResourceVector,
        /// Significance weight assigned to the record (§IV-B).
        sig: f64,
    },
    /// An estimator rebuilt its bucketing configuration.
    Rebucket {
        /// Task category whose estimator rebuilt.
        category: u32,
        /// The resource axis the estimator manages.
        resource: ResourceKind,
        /// Monotone rebuild counter for this estimator (1 = first build).
        version: u64,
        /// Buckets in the new configuration.
        n_buckets: usize,
        /// Records the configuration was built from.
        n_records: usize,
        /// §IV-C expected waste of the new configuration.
        cost: f64,
    },
    /// An allocation was predicted for a task.
    Predict {
        /// Task category the prediction is for.
        category: u32,
        /// Which prediction path ran.
        kind: PredictKind,
        /// The allocation handed to the scheduler (post-clamp).
        alloc: ResourceVector,
        /// Per-axis derivation, managed axes only. Empty for [`PredictKind::Explore`].
        provenance: Vec<AxisProvenance>,
    },
    /// A retry raised one exhausted axis (§IV-A escalation).
    Escalate {
        /// Task category of the failed task.
        category: u32,
        /// The axis the task exhausted.
        resource: ResourceKind,
        /// The allocation that proved too small.
        from: f64,
        /// The raised allocation for the retry.
        to: f64,
    },
    /// The engine reported an attempt outcome through the fault-feedback
    /// channel ([`observe_outcome`]).
    ///
    /// [`observe_outcome`]: crate::allocator::Allocator::observe_outcome
    Feedback {
        /// Task category of the reported attempt.
        category: u32,
        /// The reported outcome.
        outcome: AttemptFeedback,
        /// Windowed fault rate after folding the outcome in.
        fault_rate: f64,
        /// Padding factor the active policy derives from the rate (`1.0`
        /// when no policy is set).
        padding: f64,
    },
}

impl AllocEvent {
    /// Build an [`AllocEvent::Observe`].
    pub fn observe(category: CategoryId, usage: ResourceVector, sig: f64) -> Self {
        EVENTS_CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
        AllocEvent::Observe {
            category: category.0,
            usage,
            sig,
        }
    }

    /// Build an [`AllocEvent::Rebucket`] from an estimator's notice.
    pub fn rebucket(category: CategoryId, resource: ResourceKind, info: &RebucketInfo) -> Self {
        EVENTS_CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
        AllocEvent::Rebucket {
            category: category.0,
            resource,
            version: info.version,
            n_buckets: info.n_buckets,
            n_records: info.n_records,
            cost: info.cost,
        }
    }

    /// Build an [`AllocEvent::Predict`].
    pub fn predict(
        category: CategoryId,
        kind: PredictKind,
        alloc: ResourceVector,
        provenance: Vec<AxisProvenance>,
    ) -> Self {
        EVENTS_CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
        AllocEvent::Predict {
            category: category.0,
            kind,
            alloc,
            provenance,
        }
    }

    /// Build an [`AllocEvent::Escalate`].
    pub fn escalate(category: CategoryId, resource: ResourceKind, from: f64, to: f64) -> Self {
        EVENTS_CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
        AllocEvent::Escalate {
            category: category.0,
            resource,
            from,
            to,
        }
    }

    /// Build an [`AllocEvent::Feedback`].
    pub fn feedback(
        category: CategoryId,
        outcome: AttemptFeedback,
        fault_rate: f64,
        padding: f64,
    ) -> Self {
        EVENTS_CONSTRUCTED.fetch_add(1, Ordering::Relaxed);
        AllocEvent::Feedback {
            category: category.0,
            outcome,
            fault_rate,
            padding,
        }
    }

    /// The category the event concerns.
    pub fn category(&self) -> CategoryId {
        match self {
            AllocEvent::Observe { category, .. }
            | AllocEvent::Rebucket { category, .. }
            | AllocEvent::Predict { category, .. }
            | AllocEvent::Escalate { category, .. }
            | AllocEvent::Feedback { category, .. } => CategoryId(*category),
        }
    }
}

/// A consumer of [`AllocEvent`]s.
///
/// Implementations receive events synchronously from inside the allocator,
/// in the order decisions are made. Keep `emit` cheap; heavy processing
/// belongs downstream.
pub trait EventSink {
    /// Whether the allocator should construct events at all. The allocator
    /// checks this *before* building an event, so a sink with
    /// `ENABLED = false` (the [`NoopSink`]) removes tracing entirely at
    /// compile time.
    const ENABLED: bool = true;

    /// Receive one event.
    fn emit(&mut self, event: AllocEvent);

    /// Receive one engine lifecycle event, stamped with simulated time.
    /// Engines call this only when `ENABLED` holds; the default ignores it,
    /// so allocator-only sinks need not care.
    #[inline(always)]
    fn emit_sim(&mut self, _time_s: f64, _event: &SimEvent) {}
}

/// The default sink: tracing disabled, zero cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl EventSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: AllocEvent) {}
}

/// Per-category event tallies kept by [`TraceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tally {
    /// Steady-state first predictions.
    pub first: u64,
    /// Retry predictions.
    pub retry: u64,
    /// Exploratory first predictions.
    pub explore: u64,
    /// Observations.
    pub observe: u64,
    /// Axis escalations.
    pub escalate: u64,
    /// Bucketing rebuilds.
    pub rebucket: u64,
    /// Attempt-outcome feedback reports.
    #[serde(default)]
    pub feedback: u64,
}

impl Tally {
    /// Total events in this tally.
    pub fn total(&self) -> u64 {
        self.first
            + self.retry
            + self.explore
            + self.observe
            + self.escalate
            + self.rebucket
            + self.feedback
    }

    /// First predictions of either flavor (exploratory or steady-state).
    pub fn predictions_first(&self) -> u64 {
        self.first + self.explore
    }
}

/// A counting sink: aggregate and per-category event tallies.
///
/// This is the cheap always-on option for metrics — it never stores events,
/// only counters — and the backbone of the reconciliation check of `tora
/// simulate --events`, which compares these tallies against the simulator's
/// own bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Tally across all categories.
    pub overall: Tally,
    /// Per-category tallies, keyed by raw category id, insertion-ordered.
    pub by_category: Vec<(u32, Tally)>,
}

impl TraceStats {
    /// A fresh, all-zero stats sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tally for one category, if any event mentioned it.
    pub fn category(&self, category: CategoryId) -> Option<&Tally> {
        self.by_category
            .iter()
            .find(|(id, _)| *id == category.0)
            .map(|(_, t)| t)
    }

    fn tally_mut(&mut self, category: u32) -> &mut Tally {
        let idx = match self.by_category.iter().position(|(id, _)| *id == category) {
            Some(i) => i,
            None => {
                self.by_category.push((category, Tally::default()));
                self.by_category.len() - 1
            }
        };
        &mut self.by_category[idx].1
    }
}

impl EventSink for TraceStats {
    fn emit(&mut self, event: AllocEvent) {
        fn bump(tally: &mut Tally, event: &AllocEvent) {
            match event {
                AllocEvent::Observe { .. } => tally.observe += 1,
                AllocEvent::Rebucket { .. } => tally.rebucket += 1,
                AllocEvent::Predict { kind, .. } => match kind {
                    PredictKind::First => tally.first += 1,
                    PredictKind::Retry => tally.retry += 1,
                    PredictKind::Explore => tally.explore += 1,
                },
                AllocEvent::Escalate { .. } => tally.escalate += 1,
                AllocEvent::Feedback { .. } => tally.feedback += 1,
            }
        }
        let category = event.category().0;
        bump(&mut self.overall, &event);
        bump(self.tally_mut(category), &event);
    }
}

/// A sink that buffers every event in memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySink {
    /// The buffered events, in emission order.
    pub events: Vec<AllocEvent>,
}

impl MemorySink {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: AllocEvent) {
        self.events.push(event);
    }
}

/// A sink that writes each event as one JSON line: an [`AllocEvent`] as
/// itself, an engine event as its [`LogEntry`], both in emission order.
///
/// Failures while the run goes on are counted, not propagated: `emit` is
/// infallible by design, and a tracing layer must never abort the run it
/// observes. The final flush in [`JsonlSink::into_inner`] reports its error.
pub struct JsonlSink<W: Write> {
    writer: W,
    written: u64,
    errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. Buffer it (`BufWriter`) for file targets.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            written: 0,
            errors: 0,
        }
    }

    /// Lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Events dropped because serialization or IO failed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Flush and return the underlying writer. A buffered writer may hold
    /// the whole stream until this flush, so its error is the write error.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }

    fn write_line<T: Serialize>(&mut self, value: &T) {
        match serde_json::to_string(value) {
            Ok(line) if writeln!(self.writer, "{line}").is_ok() => self.written += 1,
            _ => self.errors += 1,
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: AllocEvent) {
        self.write_line(&event);
    }

    fn emit_sim(&mut self, time_s: f64, event: &SimEvent) {
        self.write_line(&LogEntry {
            time_s,
            event: event.clone(),
        });
    }
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("written", &self.written)
            .field("errors", &self.errors)
            .finish()
    }
}

/// Fan-out: each event goes to both sinks (cloned for the first).
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn emit(&mut self, event: AllocEvent) {
        self.0.emit(event.clone());
        self.1.emit(event);
    }

    fn emit_sim(&mut self, time_s: f64, event: &SimEvent) {
        self.0.emit_sim(time_s, event);
        self.1.emit_sim(time_s, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<AllocEvent> {
        vec![
            AllocEvent::predict(
                CategoryId(0),
                PredictKind::Explore,
                ResourceVector::new(1.0, 1024.0, 1024.0),
                Vec::new(),
            ),
            AllocEvent::observe(CategoryId(0), ResourceVector::new(0.5, 300.0, 120.0), 1.0),
            AllocEvent::rebucket(
                CategoryId(0),
                ResourceKind::MemoryMb,
                &RebucketInfo {
                    version: 1,
                    n_buckets: 2,
                    n_records: 12,
                    cost: 340.5,
                },
            ),
            AllocEvent::predict(
                CategoryId(0),
                PredictKind::First,
                ResourceVector::new(1.0, 350.0, 200.0),
                vec![AxisProvenance {
                    resource: ResourceKind::MemoryMb,
                    source: AllocSource::Bucket { idx: 0 },
                    draw: Some(0.42),
                    clamped: false,
                }],
            ),
            AllocEvent::escalate(CategoryId(0), ResourceKind::MemoryMb, 350.0, 700.0),
            AllocEvent::predict(
                CategoryId(1),
                PredictKind::Retry,
                ResourceVector::new(1.0, 700.0, 200.0),
                Vec::new(),
            ),
            AllocEvent::feedback(CategoryId(1), AttemptFeedback::Crash, 0.25, 1.125),
        ]
    }

    #[test]
    fn constructors_bump_the_global_counter() {
        let before = events_constructed();
        let n = sample_events().len() as u64;
        assert_eq!(events_constructed(), before + n);
    }

    #[test]
    fn trace_stats_counts_overall_and_per_category() {
        let mut stats = TraceStats::new();
        for e in sample_events() {
            stats.emit(e);
        }
        assert_eq!(stats.overall.explore, 1);
        assert_eq!(stats.overall.first, 1);
        assert_eq!(stats.overall.retry, 1);
        assert_eq!(stats.overall.observe, 1);
        assert_eq!(stats.overall.escalate, 1);
        assert_eq!(stats.overall.rebucket, 1);
        assert_eq!(stats.overall.feedback, 1);
        assert_eq!(stats.overall.total(), 7);
        assert_eq!(stats.overall.predictions_first(), 2);
        let c0 = stats.category(CategoryId(0)).unwrap();
        assert_eq!(c0.total(), 5);
        let c1 = stats.category(CategoryId(1)).unwrap();
        assert_eq!(c1.retry, 1);
        assert_eq!(c1.feedback, 1);
        assert_eq!(c1.total(), 2);
        assert!(stats.category(CategoryId(7)).is_none());
    }

    #[test]
    fn memory_sink_preserves_order() {
        let mut sink = MemorySink::new();
        let events = sample_events();
        for e in events.clone() {
            sink.emit(e);
        }
        assert_eq!(sink.events, events);
        assert_eq!(sink.len(), 7);
    }

    #[test]
    fn jsonl_sink_round_trips() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = sample_events();
        for e in events.clone() {
            sink.emit(e);
        }
        assert_eq!(sink.written(), 7);
        assert_eq!(sink.errors(), 0);
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let parsed: Vec<AllocEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, events);
    }

    #[test]
    fn jsonl_sink_interleaves_engine_events_in_emission_order() {
        let mut sink = JsonlSink::new(Vec::new());
        let [first, second, ..] = &sample_events()[..] else {
            unreachable!()
        };
        let left = SimEvent::WorkerLeft {
            worker: WorkerId(3),
        };
        sink.emit(first.clone());
        sink.emit_sim(2.5, &left);
        sink.emit(second.clone());
        assert_eq!((sink.written(), sink.errors()), (3, 0));
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1],
            r#"{"time_s":2.5,"event":{"WorkerLeft":{"worker":3}}}"#
        );
        let entry: LogEntry = serde_json::from_str(lines[1]).unwrap();
        assert_eq!((entry.time_s, entry.event), (2.5, left));
        let decisions: Vec<AllocEvent> = [lines[0], lines[2]]
            .iter()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(decisions, [first.clone(), second.clone()]);
    }

    #[test]
    fn jsonl_sink_reports_the_final_flush_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::ErrorKind::StorageFull.into())
            }
        }
        // The buffer takes the line, so only the flush can fail.
        let mut sink = JsonlSink::new(std::io::BufWriter::new(Full));
        sink.emit(sample_events().remove(0));
        assert_eq!((sink.written(), sink.errors()), (1, 0));
        assert!(sink.into_inner().is_err());
    }

    #[test]
    fn pair_sink_fans_out() {
        let mut pair = (TraceStats::new(), MemorySink::new());
        for e in sample_events() {
            pair.emit(e);
        }
        assert_eq!(pair.0.overall.total(), 7);
        assert_eq!(pair.1.len(), 7);
        const { assert!(<(TraceStats, MemorySink) as EventSink>::ENABLED) };
        const { assert!(!NoopSink::ENABLED) };
        const { assert!(!<(NoopSink, NoopSink) as EventSink>::ENABLED) };
    }

    #[test]
    fn event_category_accessor() {
        for e in sample_events() {
            let c = e.category();
            assert!(c == CategoryId(0) || c == CategoryId(1));
        }
    }

    #[test]
    fn engine_events_reach_every_live_sink() {
        #[derive(Default)]
        struct Stamps(Vec<f64>);
        impl EventSink for Stamps {
            fn emit(&mut self, _event: AllocEvent) {}
            fn emit_sim(&mut self, time_s: f64, _event: &SimEvent) {
                self.0.push(time_s);
            }
        }
        let event = SimEvent::WorkerLeft {
            worker: WorkerId(3),
        };
        let mut fan = ((TraceStats::new(), Stamps::default()), Stamps::default());
        fan.emit_sim(2.5, &event);
        fan.emit_sim(4.0, &event);
        // Allocator-only sinks ignore engine events.
        assert_eq!(fan.0 .0, TraceStats::new());
        assert_eq!(fan.0 .1 .0, [2.5, 4.0]);
        assert_eq!(fan.1 .0, [2.5, 4.0]);
        NoopSink.emit_sim(1.0, &event);
    }
}
