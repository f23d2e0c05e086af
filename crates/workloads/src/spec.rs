//! The one entry point for building catalog workloads.
//!
//! A [`WorkloadSpec`] names a catalog workflow, a seed and a scale, and
//! yields the workload either fully materialized
//! ([`WorkloadSpec::materialize`]) or as a streaming
//! [`CatalogSource`] ([`WorkloadSpec::stream`]). Both paths share the same
//! per-task samplers and RNG streams, so for a given spec they produce the
//! identical task sequence.
//!
//! This replaced the per-family free constructors
//! (`synthetic::generate`, `colmena::generate`, `topeft::generate_dag`, …);
//! their deprecated shims have since been removed.

use crate::catalog::PaperWorkflow;
use crate::dag::{DagShape, DagSource};
use crate::error::WorkloadError;
use crate::source::{CatalogSource, TaskSource, WorkflowSource};
use crate::topeft;
use crate::workflow::Workflow;
use serde::{Deserialize, Serialize};

/// How many tasks a [`WorkloadSpec`] generates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
enum Scale {
    /// The paper's task counts (e.g. 1000 for a synthetic workflow,
    /// 363/3994/212 for TopEFT).
    #[default]
    Paper,
    /// A total task count, split across categories in proportion to the
    /// paper's counts.
    Total(usize),
    /// Explicit per-category counts, in category-id order.
    PerCategory(Vec<usize>),
}

/// A catalog workflow plus the knobs that shape it: seed, scale and
/// structure — a generated [`DagShape`] for any workflow, or (TopEFT only)
/// the Coffea dependency structure.
///
/// ```
/// use tora_workloads::{DagShape, PaperWorkflow, WorkloadSpec};
///
/// // The paper's 1000-task bimodal workflow, materialized.
/// let wf = PaperWorkflow::Bimodal.spec(42).materialize().unwrap();
/// assert_eq!(wf.len(), 1000);
///
/// // The same distribution scaled to 10k tasks, streamed.
/// let mut source = PaperWorkflow::Bimodal.spec(42).tasks(10_000).stream().unwrap();
///
/// // A diamond-shaped bimodal workload; generated shapes stream too.
/// let shaped = PaperWorkflow::Bimodal.spec(42).dag_shape(DagShape::diamond(4, 8));
/// assert!(shaped.stream().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    workflow: PaperWorkflow,
    seed: u64,
    scale: Scale,
    dag: bool,
    /// Generated DAG topology; fixes the task count when set. Serializes
    /// as `null` when unset, and may be missing on read.
    #[serde(default)]
    shape: Option<DagShape>,
}

impl WorkloadSpec {
    /// A spec for `workflow` at the paper's task counts.
    pub fn new(workflow: PaperWorkflow, seed: u64) -> Self {
        WorkloadSpec {
            workflow,
            seed,
            scale: Scale::Paper,
            dag: false,
            shape: None,
        }
    }

    /// Scale to `n` tasks in total, split across the workflow's categories
    /// in proportion to the paper's counts.
    pub fn tasks(mut self, n: usize) -> Self {
        self.scale = Scale::Total(n);
        self
    }

    /// Scale with explicit per-category task counts (must match the
    /// workflow's category count — checked at build time).
    pub fn category_tasks(mut self, counts: Vec<usize>) -> Self {
        self.scale = Scale::PerCategory(counts);
        self
    }

    /// Attach the Coffea dependency structure (TopEFT only — checked at
    /// build time): each processing task reads one preprocessing task's
    /// dataset, each accumulating task merges a block of processing tasks.
    pub fn dag(mut self) -> Self {
        self.dag = true;
        self
    }

    /// Attach a generated DAG topology (works for every catalog workflow).
    /// The shape fixes the task count — its expanded node count, split
    /// across categories in proportion to the paper's counts — so it
    /// conflicts with `tasks(..)`/`category_tasks(..)` and with the Coffea
    /// `dag()` structure (checked at build time). Shaped specs stream:
    /// dependencies stay within a bounded lookahead window.
    pub fn dag_shape(mut self, shape: DagShape) -> Self {
        self.shape = Some(shape);
        self
    }

    /// The catalog workflow this spec shapes.
    pub fn workflow(&self) -> PaperWorkflow {
        self.workflow
    }

    /// Check the spec without building it.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.dag && self.workflow != PaperWorkflow::TopEft {
            return Err(WorkloadError::DagUnsupported {
                workflow: self.workflow.name().to_string(),
            });
        }
        if self.shape.is_some() {
            if self.dag {
                return Err(WorkloadError::ShapeConflict {
                    reason: "dag_shape(..) and the Coffea dag() structure are \
                             mutually exclusive"
                        .to_string(),
                });
            }
            if self.scale != Scale::Paper {
                return Err(WorkloadError::ShapeConflict {
                    reason: "a DAG shape fixes the task count; drop tasks(..) \
                             or category_tasks(..)"
                        .to_string(),
                });
            }
        }
        self.category_counts()?;
        Ok(())
    }

    /// Resolved per-category task counts, in category-id order.
    pub fn category_counts(&self) -> Result<Vec<usize>, WorkloadError> {
        let paper = self.workflow.paper_category_counts();
        if let Some(shape) = &self.shape {
            // The shape fixes the total; the paper's mix fixes the split.
            let total = shape.structure(self.seed).total_tasks();
            return Ok(split_proportionally(total, &paper));
        }
        match &self.scale {
            Scale::Paper => Ok(paper),
            Scale::Total(n) => Ok(split_proportionally(*n, &paper)),
            Scale::PerCategory(counts) => {
                if counts.len() != paper.len() {
                    return Err(WorkloadError::CategoryArity {
                        workflow: self.workflow.name().to_string(),
                        given: counts.len(),
                        expected: paper.len(),
                    });
                }
                Ok(counts.clone())
            }
        }
    }

    /// The workload as a streaming [`TaskSource`]. Generated shapes stream
    /// with a bounded dependency-lookahead window; the Coffea trace
    /// (`dag()`), whose dependency lists reach back across whole stages, is
    /// built once and served by a [`WorkflowSource`].
    pub fn stream(&self) -> Result<Box<dyn TaskSource>, WorkloadError> {
        if self.dag {
            return Ok(Box::new(WorkflowSource::new(self.materialize()?)));
        }
        self.validate()?;
        let catalog = CatalogSource::new(self.workflow, self.category_counts()?, self.seed);
        Ok(match &self.shape {
            Some(shape) => Box::new(DagSource::new(catalog, shape.structure(self.seed))),
            None => Box::new(catalog),
        })
    }

    /// The workload as a fully materialized [`Workflow`] trace.
    pub fn materialize(&self) -> Result<Workflow, WorkloadError> {
        self.validate()?;
        let counts = self.category_counts()?;
        let mut source = CatalogSource::new(self.workflow, counts.clone(), self.seed);
        let mut tasks = Vec::with_capacity(source.total_tasks());
        while let Some(task) = source.next_task() {
            tasks.push(task);
        }
        let wf = Workflow::new(
            source.name().to_string(),
            source.categories().to_vec(),
            tasks,
            source.worker(),
        );
        Ok(if self.dag {
            wf.with_dependencies(topeft::dag_dependencies(counts[0], counts[1], counts[2]))
        } else if let Some(shape) = &self.shape {
            let structure = shape.structure(self.seed);
            let n = wf.len();
            wf.with_dependencies((0..n).map(|i| structure.deps_of(i)).collect())
        } else {
            wf
        })
    }
}

/// Split `n` across categories in proportion to `weights`, exactly:
/// cumulative rounding keeps the sum at `n` and every split deterministic.
/// The products run in `u128`, so no `n` up to `usize::MAX` overflows.
fn split_proportionally(n: usize, weights: &[usize]) -> Vec<usize> {
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 {
        return vec![0; weights.len()];
    }
    let mut out = Vec::with_capacity(weights.len());
    let (mut acc, mut wacc) = (0usize, 0u128);
    for &w in weights {
        wacc += w as u128;
        // `wacc <= total`, so the quotient is at most `n` and fits a usize.
        let target = (n as u128 * wacc / total) as usize;
        out.push(target - acc);
        acc = target;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_match_the_catalog_builds() {
        for wf in PaperWorkflow::ALL {
            let built = wf.spec(1).materialize().unwrap();
            assert_eq!(built.name, wf.name());
            assert_eq!(built.category_counts(), wf.paper_category_counts());
            built.validate().unwrap();
        }
    }

    #[test]
    fn total_scaling_splits_proportionally_and_exactly() {
        let wf = PaperWorkflow::TopEft.spec(2).tasks(10_000);
        let counts = wf.category_counts().unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
        // Processing dominates TopEFT 3994/4569 ≈ 87%.
        assert!(counts[1] > 8_500 && counts[1] < 9_000, "{counts:?}");
        let built = wf.materialize().unwrap();
        assert_eq!(built.len(), 10_000);
        assert_eq!(built.category_counts(), counts);
    }

    #[test]
    fn dag_is_topeft_only() {
        assert!(PaperWorkflow::Bimodal.spec(1).dag().validate().is_err());
        let dag = PaperWorkflow::TopEft.spec(1).dag().materialize().unwrap();
        assert!(dag.has_dependencies());
        dag.validate().unwrap();
    }

    #[test]
    fn category_count_arity_is_checked() {
        assert!(PaperWorkflow::ColmenaXtb
            .spec(1)
            .category_tasks(vec![5])
            .validate()
            .is_err());
        let wf = PaperWorkflow::ColmenaXtb
            .spec(1)
            .category_tasks(vec![5, 20])
            .materialize()
            .unwrap();
        assert_eq!(wf.category_counts(), vec![5, 20]);
    }

    #[test]
    fn scaled_dag_keeps_the_coffea_shape() {
        let wf = PaperWorkflow::TopEft
            .spec(9)
            .category_tasks(vec![20, 160, 12])
            .dag()
            .materialize()
            .unwrap();
        wf.validate().unwrap();
        for j in 0..160 {
            assert_eq!(wf.deps_of(20 + j).len(), 1);
        }
    }

    #[test]
    fn dag_shapes_attach_to_any_workflow_and_stream() {
        use crate::dag::DagShape;
        let shape = DagShape::diamond(3, 5).with_loopback(2);
        for wf in PaperWorkflow::ALL {
            let spec = wf.spec(7).dag_shape(shape);
            let expected = shape.structure(7).total_tasks();
            let built = spec.materialize().unwrap();
            assert_eq!(built.len(), expected, "{}", wf.name());
            assert!(built.has_dependencies(), "{}", wf.name());
            built.validate().unwrap();
            let source = spec.stream().expect("generated shapes stream");
            assert!(source.dependency_window() >= 1);
            assert_eq!(source.total_tasks(), expected);
        }
    }

    #[test]
    fn shape_conflicts_are_rejected_with_a_stable_code() {
        use crate::dag::DagShape;
        let shape = DagShape::pipeline(6);
        let with_tasks = PaperWorkflow::Bimodal.spec(1).tasks(50).dag_shape(shape);
        let err = with_tasks.validate().unwrap_err();
        assert_eq!(err.code(), "shape-conflict");
        let with_dag = PaperWorkflow::TopEft.spec(1).dag().dag_shape(shape);
        assert_eq!(with_dag.validate().unwrap_err().code(), "shape-conflict");
    }

    #[test]
    fn split_handles_edge_cases() {
        assert_eq!(split_proportionally(0, &[228, 1000]), vec![0, 0]);
        assert_eq!(split_proportionally(7, &[1]), vec![7]);
        let s = split_proportionally(1, &[363, 3994, 212]);
        assert_eq!(s.iter().sum::<usize>(), 1);
        // `n * weight` would overflow a usize here; the split must not.
        for n in [100_000_000_000_000_000, usize::MAX] {
            let s = split_proportionally(n, &[363, 3994, 212]);
            assert_eq!(s.iter().sum::<usize>(), n);
            assert!(s[1] > s[0] && s[0] > s[2], "{s:?}");
        }
        assert_eq!(split_proportionally(usize::MAX, &[1]), vec![usize::MAX]);
    }
}
