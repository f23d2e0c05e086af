//! Arena-backed storage for the engine's hot per-event state.
//!
//! At million-task scale the engine's original bookkeeping — a
//! `HashMap<u64, Running>` keyed by dispatch number and a `Vec` of attempt
//! outcomes inside every task — costs a heap allocation (and a hash) per
//! attempt. Both structures are replaced by dense slabs with free-list
//! reuse:
//!
//! * [`RunArena`] holds in-flight attempts in a generational slab: a
//!   [`RunId`] is a `(slot, generation)` pair, so a `Finish` event that
//!   outlives its attempt (preemption, crash) fails the generation check
//!   and is recognized as stale — exactly the semantics the old
//!   `HashMap::remove` lookup miss provided, at O(1) with zero hashing and
//!   slot reuse across retries.
//! * [`AttemptArena`] holds every task's attempt history as an intrusive
//!   backward-linked chain in one slab; a terminal task (completion or
//!   dead-letter) drains its chain into the `Vec` the metrics API expects
//!   and returns the nodes to the free list for the next retry chain.
//!
//! Neither arena owns ordering decisions: victim ordering on worker
//! departure still sorts by the monotone dispatch number stored in the
//! attempt, so the golden chaos timelines are unaffected by slot reuse.

use tora_metrics::AttemptOutcome;

use super::dispatch::Running;

/// Sentinel for "no chain node" in [`AttemptArena`] links.
const NONE: u32 = u32::MAX;

/// Handle to an in-flight attempt in the [`RunArena`].
///
/// The generation detects stale handles: removing an attempt bumps the
/// slot's generation, so an event holding the old `RunId` no longer
/// resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunId {
    slot: u32,
    generation: u32,
}

/// One slab slot: the live attempt (if any) plus the slot's generation.
struct RunSlot {
    generation: u32,
    entry: Option<Running>,
}

/// Generational slab of in-flight attempts with free-list slot reuse.
#[derive(Default)]
pub(crate) struct RunArena {
    slots: Vec<RunSlot>,
    free: Vec<u32>,
    live: usize,
}

impl RunArena {
    pub(crate) fn new() -> Self {
        RunArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live attempts.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Store an attempt, reusing a freed slot when one exists.
    pub(crate) fn insert(&mut self, running: Running) -> RunId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.entry.is_none(), "free slot was live");
            s.entry = Some(running);
            RunId {
                slot,
                generation: s.generation,
            }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(RunSlot {
                generation: 0,
                entry: Some(running),
            });
            RunId {
                slot,
                generation: 0,
            }
        }
    }

    /// Remove and return the attempt behind `id`. `None` when the handle is
    /// stale (the slot was freed — and possibly reused — since `id` was
    /// issued), mirroring the old `HashMap::remove` miss for consumed
    /// dispatch numbers.
    pub(crate) fn remove(&mut self, id: RunId) -> Option<Running> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.generation != id.generation || s.entry.is_none() {
            return None;
        }
        let running = s.entry.take();
        s.generation = s.generation.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        running
    }

    /// Read-only access to a live attempt.
    #[cfg(test)]
    pub(crate) fn get(&self, id: RunId) -> Option<&Running> {
        let s = self.slots.get(id.slot as usize)?;
        if s.generation != id.generation {
            return None;
        }
        s.entry.as_ref()
    }
}

/// Handle to a task's attempt chain: the most recent node plus the chain
/// length. `Default` is the empty chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttemptChain {
    head: u32,
    len: u32,
}

impl Default for AttemptChain {
    fn default() -> Self {
        AttemptChain { head: NONE, len: 0 }
    }
}

impl AttemptChain {
    /// Attempts recorded so far.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// One chain node: an attempt outcome linked to the previous attempt of the
/// same task.
struct AttemptNode {
    outcome: AttemptOutcome,
    prev: u32,
}

/// Slab of per-task attempt chains with free-list node reuse.
///
/// In the fault-free steady state every task pushes exactly one node and
/// drains it at completion, so the arena's high-water mark is the number of
/// simultaneously running tasks — not the workflow size.
#[derive(Default)]
pub(crate) struct AttemptArena {
    nodes: Vec<AttemptNode>,
    free: Vec<u32>,
}

impl AttemptArena {
    pub(crate) fn new() -> Self {
        AttemptArena {
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Append `outcome` to `chain`.
    pub(crate) fn push(&mut self, chain: &mut AttemptChain, outcome: AttemptOutcome) {
        let node = AttemptNode {
            outcome,
            prev: chain.head,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        chain.head = idx;
        chain.len += 1;
    }

    /// Mutable access to the most recent attempt of `chain`.
    #[cfg(test)]
    pub(crate) fn last_mut(&mut self, chain: AttemptChain) -> Option<&mut AttemptOutcome> {
        if chain.head == NONE {
            return None;
        }
        Some(&mut self.nodes[chain.head as usize].outcome)
    }

    /// Drain `chain` into `out` (cleared first) in chronological order,
    /// oldest attempt first, returning the nodes to the free list. The
    /// chain handle is reset to empty. A caller that reuses `out` drains
    /// without allocating.
    pub(crate) fn drain_into(&mut self, chain: &mut AttemptChain, out: &mut Vec<AttemptOutcome>) {
        out.clear();
        let mut cur = chain.head;
        while cur != NONE {
            let node = &mut self.nodes[cur as usize];
            out.push(node.outcome);
            let prev = node.prev;
            self.free.push(cur);
            cur = prev;
        }
        out.reverse();
        debug_assert_eq!(out.len(), chain.len as usize);
        *chain = AttemptChain::default();
    }

    /// Rebuild a chain from a chronological attempt list (dead-letter
    /// replay restores the drained history so the attempt budget spans the
    /// replay).
    pub(crate) fn restore(&mut self, attempts: Vec<AttemptOutcome>) -> AttemptChain {
        let mut chain = AttemptChain::default();
        for outcome in attempts {
            self.push(&mut chain, outcome);
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enforcement::AttemptVerdict;
    use crate::time::SimTime;
    use crate::workers::WorkerId;
    use tora_alloc::resources::{ResourceMask, ResourceVector};
    use tora_metrics::AttemptCause;

    fn take(arena: &mut AttemptArena, chain: &mut AttemptChain) -> Vec<AttemptOutcome> {
        let mut out = Vec::new();
        arena.drain_into(chain, &mut out);
        out
    }

    fn running(task_idx: usize) -> Running {
        Running {
            task_idx,
            worker: WorkerId(0),
            alloc: ResourceVector::new(1.0, 100.0, 10.0),
            start: SimTime::ZERO,
            verdict: AttemptVerdict {
                success: true,
                charged_time_s: 1.0,
                exhausted: ResourceMask::NONE,
            },
            cause: AttemptCause::Completed,
            work_rate: 1.0,
            remaining_s: 1.0,
        }
    }

    #[test]
    fn run_arena_reuses_slots_across_retries() {
        let mut arena = RunArena::new();
        let a = arena.insert(running(0));
        let b = arena.insert(running(1));
        assert_eq!(arena.len(), 2);
        // First attempt ends; its slot is freed...
        assert_eq!(arena.remove(a).unwrap().task_idx, 0);
        assert_eq!(arena.len(), 1);
        // ...and the retry reuses the same slot under a new generation.
        let retry = arena.insert(running(2));
        assert_eq!(retry.slot, a.slot, "freed slot is reused");
        assert_ne!(retry.generation, a.generation, "generation advanced");
        assert_eq!(arena.get(retry).unwrap().task_idx, 2);
        assert_eq!(arena.remove(b).unwrap().task_idx, 1);
    }

    #[test]
    fn stale_run_ids_resolve_to_none() {
        let mut arena = RunArena::new();
        let a = arena.insert(running(7));
        assert!(arena.remove(a).is_some());
        // A Finish event for the consumed attempt: stale, like the old
        // HashMap miss.
        assert!(arena.remove(a).is_none());
        assert!(arena.get(a).is_none());
        // Even after the slot is reused, the old handle stays dead.
        let b = arena.insert(running(8));
        assert_eq!(b.slot, a.slot);
        assert!(arena.remove(a).is_none());
        assert_eq!(arena.remove(b).unwrap().task_idx, 8);
        assert_eq!(arena.len(), 0);
    }

    #[test]
    fn attempt_chains_drain_in_chronological_order() {
        let mut arena = AttemptArena::new();
        let alloc = ResourceVector::new(1.0, 100.0, 10.0);
        let mut chain = AttemptChain::default();
        arena.push(&mut chain, AttemptOutcome::failure(alloc, 1.0));
        arena.push(&mut chain, AttemptOutcome::failure(alloc, 2.0));
        arena.push(&mut chain, AttemptOutcome::success(alloc, 3.0));
        assert_eq!(chain.len(), 3);
        let drained = take(&mut arena, &mut chain);
        assert_eq!(chain.len(), 0);
        let times: Vec<f64> = drained.iter().map(|a| a.charged_time_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0], "oldest attempt first");
        assert!(!drained[0].success && drained[2].success);
    }

    #[test]
    fn attempt_nodes_recycle_through_the_free_list() {
        let mut arena = AttemptArena::new();
        let alloc = ResourceVector::new(1.0, 100.0, 10.0);
        let mut a = AttemptChain::default();
        arena.push(&mut a, AttemptOutcome::failure(alloc, 1.0));
        arena.push(&mut a, AttemptOutcome::success(alloc, 2.0));
        let _ = take(&mut arena, &mut a);
        let nodes_before = arena.nodes.len();
        // A second task's chain reuses the freed nodes: the slab stays at
        // its high-water mark.
        let mut b = AttemptChain::default();
        arena.push(&mut b, AttemptOutcome::failure(alloc, 3.0));
        arena.push(&mut b, AttemptOutcome::success(alloc, 4.0));
        assert_eq!(arena.nodes.len(), nodes_before, "no new nodes allocated");
        assert_eq!(
            take(&mut arena, &mut b)
                .iter()
                .map(|x| x.charged_time_s)
                .sum::<f64>(),
            7.0
        );
    }

    #[test]
    fn restore_round_trips_a_drained_chain() {
        let mut arena = AttemptArena::new();
        let alloc = ResourceVector::new(1.0, 100.0, 10.0);
        let mut chain = AttemptChain::default();
        arena.push(&mut chain, AttemptOutcome::failure(alloc, 1.0));
        arena.push(&mut chain, AttemptOutcome::failure(alloc, 2.0));
        let drained = take(&mut arena, &mut chain);
        let mut restored = arena.restore(drained.clone());
        assert_eq!(restored.len(), 2);
        // last_mut sees the most recent attempt.
        assert_eq!(arena.last_mut(restored).unwrap().charged_time_s, 2.0);
        assert_eq!(take(&mut arena, &mut restored), drained);
    }
}
