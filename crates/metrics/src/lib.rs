//! # tora-metrics — resource waste and efficiency accounting
//!
//! Implements the evaluation metrics of §II-C of Phung & Thain (IPDPS 2024):
//!
//! * per-task **resource waste**, split into *internal fragmentation*
//!   (`t·(a−c)` of the successful attempt) and *failed allocation*
//!   (`Σ aᵢ·tᵢ` of killed attempts) — [`outcome`];
//! * **Absolute Workflow Efficiency** (`Σ C(Tᵢ) / Σ A(Tᵢ)`), the headline,
//!   worker-count-independent metric of Figures 5 and 6 — [`awe`];
//! * aligned-text/CSV [`report`] tables used by the experiment harnesses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod awe;
pub mod critical;
pub mod outcome;
pub mod report;
pub mod summary;

pub use awe::{WasteAttribution, WasteBreakdown, WorkflowMetrics};
pub use critical::CriticalPathStats;
pub use outcome::{AttemptCause, AttemptOutcome, DeadLetter, DeadLetterCause, TaskOutcome};
pub use report::{grouped, pct, Table};
pub use summary::{rolling_awe, steady_state_onset};
