//! # tora-bench — experiment harnesses
//!
//! Regenerates every table and figure of the paper's evaluation (§V). Each
//! artifact is a library function registered in [`artifact::EXPERIMENTS`]
//! and run by `tora experiments <artifact>|all`:
//!
//! | Paper artifact | Name | What it renders |
//! |---|---|---|
//! | Figure 2 | `fig2` | per-task peak scatter data for ColmenaXTB and TopEFT |
//! | Figure 4 | `fig4` | per-task memory of the five synthetic workflows |
//! | Figure 5 | `fig5` | AWE (cores/memory/disk), 7 workflows × 7 algorithms |
//! | Figure 6 | `fig6` | waste breakdown (IF vs FA), 7 workflows × 6 algorithms |
//! | Table I | `table1` | µs per bucketing-state compute at 10–5000 records |
//! | ablations | `ablations` | design-choice sweeps called out in DESIGN.md |
//! | resilience | `chaos-sweep` | GB/EB AWE degradation versus injected fault rate |
//! | structure | `fig-dag` | makespan cost of one allocation error on vs off the critical path |
//! | learning | `fig-learned` | memory AWE of feature-conditioned vs category-global estimators |
//!
//! An artifact returns its rendered text and the raw cells it can dump as
//! JSON/CSV ([`Artifact`]); `tora experiments --out <dir>` writes both.
//! Independent cells fan across cores via [`pool::run_parallel`], with
//! identical output at any worker count. Table I is the one timing
//! artifact; end-to-end and per-layer performance is measured by the
//! separate `tora-benchmark` package in `benchmark/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod artifact;
pub mod chaos;
pub mod experiments;
pub mod figdag;
pub mod figlearned;
pub mod figures;
pub mod pool;
pub mod timing;

pub use artifact::{experiment, Artifact, Experiment, ExperimentConfig, EXPERIMENTS};
pub use chaos::{run_chaos_cell, run_chaos_sweep, ChaosCell};
pub use experiments::{run_cell, run_matrix_for, MatrixCell, MatrixConfig};
pub use pool::run_parallel;
pub use timing::{loaded_estimator, sample_values, state_compute_time, TABLE1_SIZES};
