//! Typed workload errors with stable machine-readable codes.
//!
//! Everything fallible in this crate used to answer `Result<_, String>`,
//! which forced callers that need to *dispatch* on a failure — most
//! pressingly the `tora serve` wire protocol, which maps submission
//! failures to stable error codes — to match on prose. A [`WorkloadError`]
//! names the failure class as a variant and keeps the human-readable detail
//! inside it; [`WorkloadError::code`] is the stable identifier wire
//! protocols and logs key on, guaranteed never to change meaning once
//! shipped.

use std::fmt;

/// Why a workload could not be built, streamed, or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The Coffea dependency structure was requested for a workflow that
    /// does not define one (only TopEFT does). Generated structure via
    /// `dag_shape(..)` works for every workflow.
    DagUnsupported {
        /// The offending workflow's catalog name.
        workflow: String,
    },
    /// A generated DAG shape was combined with an incompatible knob: the
    /// Coffea `dag()` structure, or an explicit task-count scale (the shape
    /// fixes the task count).
    ShapeConflict {
        /// What clashed.
        reason: String,
    },
    /// Explicit per-category counts do not match the workflow's category
    /// count.
    CategoryArity {
        /// The workflow's catalog name.
        workflow: String,
        /// Counts supplied by the caller.
        given: usize,
        /// Categories the workflow actually has.
        expected: usize,
    },
    /// A workflow trace violated a structural invariant (non-sequential
    /// ids, unknown category, peak over worker capacity, forward
    /// dependency, ...).
    InvalidTrace {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// A trace file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error, rendered.
        reason: String,
    },
    /// A trace file was not valid JSON (or not a workflow at all).
    Parse {
        /// The underlying parse error, rendered.
        reason: String,
    },
}

impl WorkloadError {
    /// The stable machine-readable code for this failure class. Wire
    /// protocols (`tora serve`) and logs key on these; they never change
    /// meaning once shipped.
    pub fn code(&self) -> &'static str {
        match self {
            WorkloadError::DagUnsupported { .. } => "dag-unsupported",
            WorkloadError::ShapeConflict { .. } => "shape-conflict",
            WorkloadError::CategoryArity { .. } => "category-arity",
            WorkloadError::InvalidTrace { .. } => "invalid-trace",
            WorkloadError::Io { .. } => "io",
            WorkloadError::Parse { .. } => "parse",
        }
    }

    /// Shorthand for an [`WorkloadError::InvalidTrace`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        WorkloadError::InvalidTrace {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::DagUnsupported { workflow } => {
                write!(
                    f,
                    "{workflow}: the Coffea dag() structure is only defined for \
                     topeft; use dag_shape(..) for generated structure"
                )
            }
            WorkloadError::ShapeConflict { reason } => {
                write!(f, "conflicting DAG shape: {reason}")
            }
            WorkloadError::CategoryArity {
                workflow,
                given,
                expected,
            } => write!(
                f,
                "{workflow}: {given} category counts given, the workflow has {expected}"
            ),
            WorkloadError::InvalidTrace { reason } => write!(f, "invalid workflow: {reason}"),
            WorkloadError::Io { path, reason } => write!(f, "{path}: {reason}"),
            WorkloadError::Parse { reason } => write!(f, "trace parse error: {reason}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            WorkloadError::DagUnsupported {
                workflow: "bimodal".into(),
            },
            WorkloadError::ShapeConflict {
                reason: "shape and tasks(..) both fix the count".into(),
            },
            WorkloadError::CategoryArity {
                workflow: "colmena-xtb".into(),
                given: 1,
                expected: 2,
            },
            WorkloadError::invalid("task 3 has id 7"),
            WorkloadError::Io {
                path: "/nope".into(),
                reason: "missing".into(),
            },
            WorkloadError::Parse {
                reason: "not json".into(),
            },
        ];
        let codes: Vec<&str> = all.iter().map(|e| e.code()).collect();
        assert_eq!(
            codes,
            vec![
                "dag-unsupported",
                "shape-conflict",
                "category-arity",
                "invalid-trace",
                "io",
                "parse"
            ]
        );
        for e in &all {
            assert!(!e.to_string().is_empty());
        }
    }
}
