//! A Colmena-style steering campaign: the application generates tasks *at
//! runtime*, reacting to results — the defining behaviour of the paper's
//! workflow class (§I: "tasks' definitions and dependencies are generated
//! and inferred at runtime").
//!
//! The campaign mimics ColmenaXTB's loop: rank candidate molecules in
//! batches (`evaluate_mpnn`-like tasks), and whenever a ranking batch
//! returns, submit energy computations (`compute_atomization_energy`-like
//! tasks) for its top candidates. No DAG exists up front — the second phase
//! literally depends on values computed by the first.
//!
//! ```sh
//! cargo run --release --example steering_campaign
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use tora::metrics::{pct, Table};
use tora::prelude::*;
use tora::workloads::dist;

const RANK_BATCHES: usize = 12;
const CANDIDATES_PER_BATCH: usize = 40;
const TOP_K: usize = 25;

const CAT_RANK: u32 = 0;
const CAT_ENERGY: u32 = 1;

struct Campaign {
    rng: StdRng,
    batches_submitted: usize,
    energy_submitted: usize,
}

impl Campaign {
    fn new(seed: u64) -> Self {
        Campaign {
            rng: StdRng::seed_from_u64(seed),
            batches_submitted: 0,
            energy_submitted: 0,
        }
    }

    fn submit_rank_batch(&mut self, api: &mut SubmitApi) {
        // Ranking inference: ~1.1 GB of memory, about one core.
        let peak = ResourceVector::new(
            dist::normal(&mut self.rng, 1.0, 0.05).max(0.5),
            dist::uniform(&mut self.rng, 1024.0, 1228.0),
            dist::uniform(&mut self.rng, 8.0, 12.0),
        );
        let duration = dist::lognormal(&mut self.rng, 120.0f64.ln(), 0.3).clamp(30.0, 600.0);
        api.submit(CAT_RANK, peak, duration);
        self.batches_submitted += 1;
    }
}

impl Driver for Campaign {
    fn on_start(&mut self, api: &mut SubmitApi) {
        // Keep a few ranking batches in flight from the beginning.
        for _ in 0..4 {
            self.submit_rank_batch(api);
        }
    }

    fn on_task_complete(&mut self, task: &TaskSpec, api: &mut SubmitApi) {
        if task.category.0 != CAT_RANK {
            return;
        }
        // The "result" of a ranking batch: its top candidates go to the
        // energy stage — stochastic core usage, ~200 MB memory (§III-B).
        let promoted = TOP_K.min(CANDIDATES_PER_BATCH);
        for _ in 0..promoted {
            let peak = ResourceVector::new(
                dist::uniform(&mut self.rng, 0.9, 3.6),
                dist::normal(&mut self.rng, 200.0, 15.0).max(120.0),
                dist::uniform(&mut self.rng, 8.0, 12.0),
            );
            let duration = dist::lognormal(&mut self.rng, 180.0f64.ln(), 0.6).clamp(20.0, 1800.0);
            api.submit(CAT_ENERGY, peak, duration);
            self.energy_submitted += 1;
        }
        // Steer: keep ranking until the molecule pool is exhausted.
        if self.batches_submitted < RANK_BATCHES {
            self.submit_rank_batch(api);
        }
    }
}

fn main() {
    let sim = Simulation::with_driver(
        Box::new(Campaign::new(33)),
        WorkerSpec::paper_default(),
        AlgorithmKind::ExhaustiveBucketing,
        SimConfig::paper_like(33),
    );
    let (res, log) = sim.with_sink(EventLog::new()).run_traced();
    log.check_consistency().expect("consistent run");

    println!(
        "campaign finished: {} tasks generated at runtime, makespan {:.0} s\n",
        res.metrics.len(),
        res.makespan_s
    );
    let mut table = Table::new(
        "per-category results (Exhaustive Bucketing)",
        &["category", "tasks", "cores AWE", "memory AWE", "retries"],
    );
    for (id, name) in [
        (CAT_RANK, "rank_candidates"),
        (CAT_ENERGY, "compute_energy"),
    ] {
        let m = res.metrics.filter_category(CategoryId(id));
        table.row(&[
            name.to_string(),
            m.len().to_string(),
            pct(m.awe(ResourceKind::Cores).unwrap()),
            pct(m.awe(ResourceKind::MemoryMb).unwrap()),
            m.total_retries().to_string(),
        ]);
    }
    print!("{}", table.render());

    // The generation pattern is visible in the log: energy submissions only
    // ever follow ranking completions.
    let first_energy_submit = log
        .entries()
        .iter()
        .find(|e| matches!(e.event, SimEvent::TaskSubmitted { task } if task.0 >= 4))
        .map(|e| e.time_s)
        .unwrap_or_default();
    println!(
        "\nfirst runtime-generated submission at t = {first_energy_submit:.0} s \
         (after the first ranking batch returned)"
    );
    assert!(first_energy_submit > 0.0);
}
