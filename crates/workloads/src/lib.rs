//! # tora-workloads — workload generators for the evaluation
//!
//! Generates the seven workflows of the paper's evaluation (§V):
//!
//! * five [`synthetic`] workflows — *Normal*, *Uniform*, *Exponential*,
//!   *Bimodal*, *Phasing Trimodal* — each 1000 single-category tasks whose
//!   consumption is sampled from the eponymous distribution (Figure 4);
//! * two production-trace synthesizers, [`colmena`] (ColmenaXTB) and
//!   [`topeft`] (TopEFT), statistically matched to the per-category counts,
//!   ranges, modes and outliers documented in §III-B / Figure 2 (the real
//!   logs are not redistributable — see DESIGN.md's substitution table).
//!
//! All generation is deterministic in a `u64` seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod colmena;
pub mod dag;
pub mod dist;
pub mod error;
pub mod io;
pub mod perturb;
pub mod source;
pub mod spec;
pub mod synthetic;
pub mod topeft;
#[cfg(test)]
mod validate;
pub mod workflow;

pub use catalog::PaperWorkflow;
pub use dag::{DagShape, DagSource, DagStructure};
pub use dist::Dist;
pub use error::WorkloadError;
pub use source::{CatalogSource, TaskSource, WorkflowSource};
pub use spec::WorkloadSpec;
pub use synthetic::SyntheticKind;
pub use workflow::Workflow;
