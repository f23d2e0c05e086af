//! Worker churn: the opportunistic pool joining and (gracefully) leaving.
//!
//! Churn draws from its own seeded stream so fault injection never perturbs
//! pool evolution. A departing worker *preempts* its running attempts —
//! they are resubmitted with the same pinned allocation, because preemption
//! is an infrastructure artifact, not an allocation failure.

use super::queue::Event;
use super::{SimConfig, Simulation};
use crate::log::SimEvent;
use crate::sampling::exponential_interval_s;
use rand::rngs::StdRng;
use rand::Rng;
use tora_alloc::resources::WorkerSpec;
use tora_alloc::trace::EventSink;

impl<S: EventSink> Simulation<S> {
    /// The shape of the next worker to join, honoring the heterogeneity mix.
    pub(super) fn sample_worker_spec(
        base: WorkerSpec,
        config: &SimConfig,
        rng: &mut StdRng,
    ) -> WorkerSpec {
        let Some(mix) = config.worker_mix else {
            return base;
        };
        if rng.gen::<f64>() >= mix.large_fraction {
            return base;
        }
        let mut capacity = base.capacity;
        for kind in tora_alloc::resources::ResourceKind::ALL {
            if kind.is_spatial() {
                capacity[kind] *= mix.scale;
            }
        }
        WorkerSpec::new(capacity)
    }

    /// Tag a joining worker with its rack. Racks are assigned round-robin
    /// over the lifetime join counter — deterministic and RNG-free, so a
    /// plan with `rack_count == 0` (rack crashes disabled) leaves the run
    /// byte-identical to one that never heard of racks.
    pub(super) fn assign_rack(spec: WorkerSpec, rack_count: u32, joined: u64) -> WorkerSpec {
        if rack_count == 0 {
            spec
        } else {
            spec.with_rack((joined % rack_count as u64) as u32)
        }
    }

    pub(super) fn schedule_churn(&mut self) {
        if let Some(mean) = self.config.churn.mean_interval_s {
            let dt = exponential_interval_s(&mut self.churn_rng, mean);
            self.events.schedule(self.now + dt.max(1e-9), Event::Churn);
        }
    }

    pub(super) fn on_churn(&mut self) {
        let n = self.pool.len();
        let (min, max) = (self.config.churn.min, self.config.churn.max);
        // A zero-width band that is already satisfied has nothing to churn.
        if min == max && n == min {
            self.schedule_churn();
            return;
        }
        let join = if n <= min {
            true
        } else if n >= max {
            false
        } else {
            self.churn_rng.gen::<bool>()
        };
        if join {
            let spec = Self::sample_worker_spec(self.worker, &self.config, &mut self.churn_rng);
            let spec = Self::assign_rack(spec, self.config.faults.rack_count, self.joined_workers);
            self.joined_workers += 1;
            let id = self.pool.join(spec);
            self.record(SimEvent::WorkerJoined {
                worker: id,
                capacity: spec.capacity,
            });
            self.peak_workers = self.peak_workers.max(self.pool.len());
            self.maybe_replay_dead_letters();
        } else if let Some(id) = self.pool.random_worker(&mut self.churn_rng) {
            // Preempt everything running on the departing worker, in
            // dispatch order.
            for (_, victim) in self.drain_victims(id) {
                let run = self.running.remove(victim).expect("victim listed");
                let elapsed = self.now - run.start;
                self.preempted_alloc_time =
                    self.preempted_alloc_time.add(&run.alloc.scale(elapsed));
                // Resubmit with the same (pinned) allocation: preemption
                // teaches the allocator nothing about the task's needs.
                self.requeue_pinned(run.task_idx, run.alloc);
                self.record(SimEvent::TaskPreempted {
                    task: self.specs[run.task_idx].id,
                    worker: id,
                });
            }
            self.pool.leave(id);
            self.record(SimEvent::WorkerLeft { worker: id });
        }
        let n = self.pool.len();
        self.worker_range = (self.worker_range.0.min(n), self.worker_range.1.max(n));
        self.schedule_churn();
    }
}
