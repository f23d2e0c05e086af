//! The deterministic discrete-event queue.
//!
//! Events are ordered by `(time, seq)`: simulated time first, then a
//! monotonically increasing sequence number assigned at scheduling time.
//! The tie-break makes simultaneous events fire in exactly the order they
//! were scheduled, on every platform, every run — the golden chaos suite
//! pins entire fault timelines byte for byte on this property.
//!
//! The queue is a min-heap on that pair. It stays small: each renewal
//! process (churn, crashes, rack crashes, Poisson arrivals) keeps one event
//! pending, so it holds the in-flight attempts, the requeue backoffs and a
//! handful more — never the workload's task count.

use super::arena::RunId;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// What the engine can wake up to.
#[derive(Debug)]
pub(crate) enum Event {
    Finish {
        run: RunId,
    },
    Arrive {
        task_idx: usize,
    },
    Churn,
    /// A worker crashes abruptly (fault plan), losing its running attempts.
    Crash,
    /// A correlated failure takes out a whole rack of workers at once.
    RackCrash,
    /// A task whose dispatch failed transiently re-enters the ready queue
    /// after its backoff.
    Requeue {
        task_idx: usize,
    },
}

/// One scheduled event: a payload, its fire time and its tie-break rank.
pub(crate) struct QueuedEvent {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: Event,
}

impl QueuedEvent {
    /// The total order the queue guarantees.
    fn rank(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// The event queue. It owns the sequence counter, so deterministic
/// tie-breaking cannot be forgotten at a call site.
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at `time`, stamping the next sequence number.
    pub(crate) fn schedule(&mut self, time: SimTime, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse(QueuedEvent {
            time,
            seq: self.seq,
            event,
        }));
    }

    /// Pop the earliest event: smallest time, then earliest scheduled.
    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + 5.0, Event::Churn);
        q.schedule(SimTime::ZERO + 1.0, Event::Crash);
        q.schedule(SimTime::ZERO + 3.0, Event::RackCrash);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.seconds())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + 10.0;
        for task_idx in 0..50 {
            q.schedule(t, Event::Arrive { task_idx });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.event {
                Event::Arrive { task_idx } => task_idx,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>(), "FIFO at equal times");
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotonic() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + 2.0, Event::Churn);
        q.schedule(SimTime::ZERO + 1.0, Event::Churn);
        q.schedule(SimTime::ZERO + 2.0, Event::Churn);
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        // Popped in (time, seq) order; the stamps themselves are 1-based
        // scheduling ranks.
        assert_eq!(seqs, vec![2, 1, 3]);
    }

    #[test]
    fn ties_break_by_seq_among_many_collisions() {
        // Thousands of events with deliberate time collisions, so the
        // (time, seq) tie-break decides most pops, plus one far-future
        // straggler.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new(); // (time_key, seq)
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..4000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (state >> 33) % 97; // heavy collisions in [0, 97)
            q.schedule(SimTime::ZERO + t as f64, Event::Churn);
            expect.push((t, i + 1));
        }
        q.schedule(SimTime::ZERO + 1.0e6, Event::Crash);
        expect.push((1_000_000, 4001));
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.seconds() as u64, e.seq))
            .collect();
        assert_eq!(
            got, expect,
            "exact (time, seq) order under heavy collisions"
        );
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // Mimic the engine: pop one event, schedule a few more at or after
        // the popped time (never into the past).
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, Event::Churn);
        let mut last = (SimTime::ZERO, 0u64);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut popped = 1usize;
        let mut scheduled = 1usize;
        while let Some(ev) = q.pop() {
            assert!((ev.time, ev.seq) > last, "pop order regressed");
            last = (ev.time, ev.seq);
            popped += 1;
            while scheduled < 3000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let delta = ((state >> 40) % 1000) as f64 / 10.0;
                q.schedule(ev.time + delta, Event::Churn);
                scheduled += 1;
                if scheduled.is_multiple_of(3) {
                    break;
                }
            }
        }
        assert_eq!(popped - 1, 3000, "every scheduled event popped once");
    }
}
