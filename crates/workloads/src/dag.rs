//! Parametric DAG shapes with bounded loop-back iteration edges.
//!
//! Every shipped workload used to be a flat bag of tasks (plus the TopEFT
//! trace), so nothing could exercise the engine under *structural* pressure:
//! allocation errors on the critical path cost more than the same errors off
//! it, and only a workload with depth can show that. A [`DagShape`] is a
//! small parametric description — fan-out/fan-in, pipeline, diamond, or
//! random-layered, with width/depth knobs — that any [`PaperWorkflow`] can
//! carry via [`WorkloadSpec::dag_shape`]: the shape fixes the task count and
//! the dependency lists while the catalog keeps sampling categories,
//! durations, and resource peaks exactly as it would for a flat workload of
//! the same size (structure consumes no RNG draws).
//!
//! Loop-back iteration edges follow the workgraph design: a back-edge is a
//! *guard* plus a max iteration count, and each triggered iteration
//! instantiates a fresh task that depends on its predecessor instance. The
//! guard is evaluated at build time from a hash of `(seed, node)`, so the
//! expansion is fixed up front, the scheduler still sees a DAG, and the
//! `submitted = completed + dead-lettered` conservation law holds counting
//! instantiated iterations.
//!
//! Generated shapes *stream*: every dependency id lies within a bounded
//! window of earlier ids ([`DagStructure::window`]), which a streaming
//! source declares via [`TaskSource::dependency_window`] so the engine can
//! resolve cascades without materializing the whole workflow.
//!
//! [`PaperWorkflow`]: crate::PaperWorkflow
//! [`WorkloadSpec::dag_shape`]: crate::WorkloadSpec::dag_shape
//! [`TaskSource::dependency_window`]: crate::TaskSource::dependency_window

use serde::{Deserialize, Serialize};
use tora_alloc::resources::WorkerSpec;
use tora_alloc::task::TaskSpec;

use crate::source::{CatalogSource, TaskSource};
use crate::workflow::Workflow;

/// Hash stream for loop-back iteration guards.
const ITER_SALT: u64 = 0x17E4_A71F_0000_5EED;
/// Hash stream for random-layered dependency choices.
const DEP_SALT: u64 = 0x0D46_0000_FA17_57A4;

/// splitmix64: a tiny, high-quality mixer. Structure derives everything
/// from hashes of `(seed, node)` instead of consuming an RNG stream, so a
/// shaped workload's task bytes are identical to the equivalent flat one.
/// The feature minter in [`crate::source`] reuses it for the same reason.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four generated topologies. Dimensions are clamped at construction so
/// every shape has at least one dependency edge — a "DAG" with no edges
/// would stream with a zero lookahead window and dodge the structured path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum ShapeKind {
    /// One source fanning out to `width` parallel middles, all joined by a
    /// sink: `width + 2` nodes.
    FanOutFanIn {
        /// Parallel middle tasks (≥ 1).
        width: u32,
    },
    /// A single chain of `depth` nodes (≥ 2).
    Pipeline {
        /// Chain length.
        depth: u32,
    },
    /// A source, `width` independent chains of `depth` nodes each, and a
    /// sink joining the chain ends: `width * depth + 2` nodes. The chains
    /// give off-critical-path tasks real float, which is what the
    /// critical-path experiments need.
    Diamond {
        /// Parallel chains (≥ 1).
        width: u32,
        /// Tasks per chain (≥ 1).
        depth: u32,
    },
    /// `depth` layers of `width` nodes; each node past the first layer
    /// draws 1–3 hash-chosen dependencies from the previous layer.
    RandomLayered {
        /// Nodes per layer (≥ 1).
        width: u32,
        /// Layers (≥ 2).
        depth: u32,
    },
}

/// A parametric DAG topology plus an optional loop-back iteration bound.
///
/// Attach one to any catalog workflow with
/// [`WorkloadSpec::dag_shape`](crate::WorkloadSpec::dag_shape); the shape
/// fixes the task count, so it conflicts with explicit `tasks(..)` scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagShape {
    kind: ShapeKind,
    /// Max loop-back iterations per node (workgraph-style guard bound);
    /// `0` disables iteration edges.
    loopback: u32,
}

/// Shape names accepted by [`DagShape::by_name`], for CLI help text.
pub const SHAPE_NAMES: [&str; 4] = ["fan-out-fan-in", "pipeline", "diamond", "random-layered"];

impl DagShape {
    /// One source, `width` parallel middles, one sink.
    pub fn fan_out_fan_in(width: u32) -> Self {
        DagShape {
            kind: ShapeKind::FanOutFanIn {
                width: width.max(1),
            },
            loopback: 0,
        }
    }

    /// A single chain of `depth` tasks.
    pub fn pipeline(depth: u32) -> Self {
        DagShape {
            kind: ShapeKind::Pipeline {
                depth: depth.max(2),
            },
            loopback: 0,
        }
    }

    /// `width` independent chains of `depth` tasks between a source and a
    /// sink.
    pub fn diamond(width: u32, depth: u32) -> Self {
        DagShape {
            kind: ShapeKind::Diamond {
                width: width.max(1),
                depth: depth.max(1),
            },
            loopback: 0,
        }
    }

    /// `depth` layers of `width` nodes with hash-chosen inter-layer edges.
    pub fn random_layered(width: u32, depth: u32) -> Self {
        DagShape {
            kind: ShapeKind::RandomLayered {
                width: width.max(1),
                depth: depth.max(2),
            },
            loopback: 0,
        }
    }

    /// Allow up to `max` loop-back iterations per node. Each node's actual
    /// iteration count is a build-time hash guard in `0..=max`; every
    /// triggered iteration instantiates a fresh task chained onto the
    /// node's previous instance.
    pub fn with_loopback(mut self, max: u32) -> Self {
        self.loopback = max;
        self
    }

    /// Look a shape up by CLI name (see [`SHAPE_NAMES`]). `width` and
    /// `depth` are applied where the shape uses them.
    pub fn by_name(name: &str, width: u32, depth: u32) -> Option<Self> {
        match name {
            "fan-out-fan-in" => Some(Self::fan_out_fan_in(width)),
            "pipeline" => Some(Self::pipeline(depth)),
            "diamond" => Some(Self::diamond(width, depth)),
            "random-layered" => Some(Self::random_layered(width, depth)),
            _ => None,
        }
    }

    /// Base node count before loop-back expansion.
    fn node_count(&self) -> usize {
        match self.kind {
            ShapeKind::FanOutFanIn { width } => width as usize + 2,
            ShapeKind::Pipeline { depth } => depth as usize,
            ShapeKind::Diamond { width, depth } => (width * depth) as usize + 2,
            ShapeKind::RandomLayered { width, depth } => (width * depth) as usize,
        }
    }

    /// The guard: how many loop-back iterations node `node` triggers, in
    /// `0..=loopback`, fixed by a hash of `(seed, node)`.
    fn iterations(&self, seed: u64, node: usize) -> u32 {
        if self.loopback == 0 {
            return 0;
        }
        let h = splitmix64(seed ^ ITER_SALT ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (h % (u64::from(self.loopback) + 1)) as u32
    }

    /// Base dependency list of node `node`, ascending, pre-expansion.
    fn node_deps(&self, seed: u64, node: usize) -> Vec<usize> {
        match self.kind {
            ShapeKind::FanOutFanIn { width } => {
                let w = width as usize;
                if node == 0 {
                    Vec::new()
                } else if node == w + 1 {
                    (1..=w).collect()
                } else {
                    vec![0]
                }
            }
            ShapeKind::Pipeline { .. } => {
                if node == 0 {
                    Vec::new()
                } else {
                    vec![node - 1]
                }
            }
            ShapeKind::Diamond { width, depth } => {
                let (w, d) = (width as usize, depth as usize);
                if node == 0 {
                    Vec::new()
                } else if node == 1 + w * d {
                    // Sink: joins the end of every chain.
                    (0..w).map(|c| 1 + (d - 1) * w + c).collect()
                } else {
                    let (p, c) = ((node - 1) / w, (node - 1) % w);
                    if p == 0 {
                        vec![0]
                    } else {
                        vec![1 + (p - 1) * w + c]
                    }
                }
            }
            ShapeKind::RandomLayered { width, .. } => {
                let w = width as usize;
                let layer = node / w;
                if layer == 0 {
                    return Vec::new();
                }
                let fan_in = 1 + (splitmix64(seed ^ DEP_SALT ^ node as u64) as usize) % 3.min(w);
                let mut deps: Vec<usize> = (0..fan_in)
                    .map(|j| {
                        let h =
                            splitmix64(seed ^ DEP_SALT ^ ((node as u64) << 16) ^ (j as u64 + 1));
                        (layer - 1) * w + (h as usize) % w
                    })
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                deps
            }
        }
    }

    /// Expand the shape for `seed`: evaluate every loop-back guard, lay the
    /// instances out, and compute the exact streaming lookahead window.
    pub fn structure(&self, seed: u64) -> DagStructure {
        let nodes = self.node_count();
        let mut starts = Vec::with_capacity(nodes + 1);
        let mut total = 0u64;
        for node in 0..nodes {
            starts.push(total);
            total += 1 + u64::from(self.iterations(seed, node));
        }
        starts.push(total);
        // Chain edges (iteration instances, pipeline links) look back 1;
        // base edges look back from a node's first instance to its
        // dependency's last instance.
        let mut window = 1usize;
        for node in 0..nodes {
            for d in self.node_deps(seed, node) {
                window = window.max((starts[node] - (starts[d + 1] - 1)) as usize);
            }
        }
        // First-instance depth per node: a node's first instance depends on
        // the *last* instance of each base dependency, and each loop-back
        // iteration adds one level on top.
        let mut depths = vec![0u32; nodes];
        for node in 0..nodes {
            let mut d = 0u32;
            for dep in self.node_deps(seed, node) {
                let last = depths[dep] + (starts[dep + 1] - starts[dep] - 1) as u32;
                d = d.max(last + 1);
            }
            depths[node] = d;
        }
        DagStructure {
            shape: *self,
            seed,
            starts,
            depths,
            window,
        }
    }
}

/// A [`DagShape`] expanded for one seed: loop-back guards evaluated, node
/// instances laid out contiguously, dependency lists answerable for any
/// task id without materializing anything.
#[derive(Debug, Clone)]
pub struct DagStructure {
    shape: DagShape,
    seed: u64,
    /// `starts[n]` is the task id of node `n`'s first instance;
    /// `starts[nodes]` is the total task count.
    starts: Vec<u64>,
    /// DAG depth of each node's first instance (longest dependency chain
    /// below it).
    depths: Vec<u32>,
    /// Exact bounded lookahead: every dependency of task `t` has an id in
    /// `[t - window, t)`.
    window: usize,
}

impl DagStructure {
    /// Total tasks after loop-back expansion.
    pub fn total_tasks(&self) -> usize {
        *self.starts.last().expect("starts is never empty") as usize
    }

    /// Base nodes before expansion.
    pub fn node_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Loop-back iterations the guard triggered for `node` (instances
    /// beyond the first). Always `<=` the shape's configured max.
    pub fn iterations_of(&self, node: usize) -> u32 {
        (self.starts[node + 1] - self.starts[node] - 1) as u32
    }

    /// The streaming lookahead bound: every dependency id of task `t` lies
    /// in `[t - window, t)`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// DAG depth of task `task`: the longest dependency chain below it, in
    /// edges. Matches the depth DP over [`DagStructure::deps_of`], answered
    /// in O(log nodes) without materializing anything.
    fn depth_of(&self, task: usize) -> u32 {
        let t = task as u64;
        debug_assert!(t < *self.starts.last().unwrap(), "task {task} out of range");
        let node = self.starts.partition_point(|&s| s <= t) - 1;
        self.depths[node] + (t - self.starts[node]) as u32
    }

    /// Dependency ids of task `task`, ascending. Iteration instances chain
    /// onto their predecessor instance; a node's first instance depends on
    /// the *last* instance of each base dependency (the iteration that
    /// finally passed the guard).
    pub fn deps_of(&self, task: usize) -> Vec<u64> {
        let t = task as u64;
        debug_assert!(t < *self.starts.last().unwrap(), "task {task} out of range");
        let node = self.starts.partition_point(|&s| s <= t) - 1;
        if t > self.starts[node] {
            vec![t - 1]
        } else {
            self.shape
                .node_deps(self.seed, node)
                .into_iter()
                .map(|d| self.starts[d + 1] - 1)
                .collect()
        }
    }
}

/// A streaming source for a shaped workload: the wrapped [`CatalogSource`]
/// samples task bytes exactly as it would for a flat workload of the same
/// size, and the [`DagStructure`] answers dependencies and the lookahead
/// window on the side.
pub struct DagSource {
    catalog: CatalogSource,
    structure: DagStructure,
}

impl DagSource {
    pub(crate) fn new(catalog: CatalogSource, structure: DagStructure) -> Self {
        debug_assert_eq!(catalog.total_tasks(), structure.total_tasks());
        DagSource { catalog, structure }
    }
}

impl TaskSource for DagSource {
    fn name(&self) -> &str {
        self.catalog.name()
    }

    fn categories(&self) -> &[String] {
        self.catalog.categories()
    }

    fn worker(&self) -> WorkerSpec {
        self.catalog.worker()
    }

    fn total_tasks(&self) -> usize {
        self.catalog.total_tasks()
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        // The catalog stamps the input-size signal; the structure supplies
        // the depth. Materialized shaped builds stamp the identical depth in
        // `Workflow::with_dependencies`, so both paths yield the same bytes.
        let task = self.catalog.next_task()?;
        let features = task
            .features
            .at_depth(self.structure.depth_of(task.id.0 as usize));
        Some(task.with_features(features))
    }

    fn category_of(&self, index: usize) -> u32 {
        self.catalog.category_of(index)
    }

    fn deps_of(&self, index: usize) -> Vec<u64> {
        self.structure.deps_of(index)
    }

    fn dependency_window(&self) -> usize {
        self.structure.window()
    }
}

/// Longest dependency chain of a workflow by summed nominal durations: the
/// submit-time critical path. Returns the chain length in seconds and the
/// task ids along it, source first. Ties break toward the smallest task id
/// (matching the engine's tracker).
pub fn longest_path(workflow: &Workflow) -> (f64, Vec<u64>) {
    let n = workflow.len();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let mut dist = vec![0.0f64; n];
    let mut pred = vec![u64::MAX; n];
    for i in 0..n {
        let mut best = 0.0f64;
        let mut best_pred = u64::MAX;
        for &d in workflow.deps_of(i) {
            if dist[d as usize] > best {
                best = dist[d as usize];
                best_pred = d;
            }
        }
        dist[i] = best + workflow.tasks[i].duration_s;
        pred[i] = best_pred;
    }
    let mut sink = 0usize;
    for i in 1..n {
        if dist[i] > dist[sink] {
            sink = i;
        }
    }
    let mut path = Vec::new();
    let mut cur = sink as u64;
    loop {
        path.push(cur);
        let p = pred[cur as usize];
        if p == u64::MAX {
            break;
        }
        cur = p;
    }
    path.reverse();
    (dist[sink], path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PaperWorkflow;

    #[test]
    fn shapes_have_the_documented_node_counts_and_edges() {
        let cases = [
            (DagShape::fan_out_fan_in(5), 7),
            (DagShape::pipeline(9), 9),
            (DagShape::diamond(3, 4), 14),
            (DagShape::random_layered(4, 3), 12),
        ];
        for (shape, nodes) in cases {
            let s = shape.structure(42);
            assert_eq!(s.node_count(), nodes, "{shape:?}");
            assert_eq!(s.total_tasks(), nodes, "no loopback => no expansion");
            let edges: usize = (0..nodes).map(|t| s.deps_of(t).len()).sum();
            assert!(edges >= 1, "{shape:?} must have at least one edge");
            assert!(s.window() >= 1, "{shape:?}");
        }
    }

    #[test]
    fn degenerate_dimensions_are_clamped_to_keep_an_edge() {
        for shape in [
            DagShape::fan_out_fan_in(0),
            DagShape::pipeline(0),
            DagShape::diamond(0, 0),
            DagShape::random_layered(0, 1),
        ] {
            let s = shape.structure(7);
            let edges: usize = (0..s.total_tasks()).map(|t| s.deps_of(t).len()).sum();
            assert!(edges >= 1, "{shape:?} clamped shape still has no edges");
        }
    }

    #[test]
    fn deps_are_strictly_earlier_and_within_the_window() {
        for shape in [
            DagShape::fan_out_fan_in(6).with_loopback(3),
            DagShape::pipeline(8).with_loopback(2),
            DagShape::diamond(4, 5).with_loopback(2),
            DagShape::random_layered(5, 4).with_loopback(1),
        ] {
            for seed in [1u64, 7, 42] {
                let s = shape.structure(seed);
                for t in 0..s.total_tasks() {
                    let deps = s.deps_of(t);
                    assert!(deps.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
                    for &d in &deps {
                        assert!(d < t as u64, "dep {d} of task {t} is not earlier");
                        assert!(
                            (t as u64 - d) as usize <= s.window(),
                            "dep {d} of task {t} breaks window {}",
                            s.window()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loopback_guard_never_exceeds_the_max_and_expands_totals() {
        let shape = DagShape::diamond(3, 4).with_loopback(3);
        let s = shape.structure(11);
        let mut expanded = 0u64;
        for node in 0..s.node_count() {
            assert!(s.iterations_of(node) <= 3, "node {node}");
            expanded += 1 + u64::from(s.iterations_of(node));
        }
        assert_eq!(expanded as usize, s.total_tasks());
        assert!(
            s.total_tasks() > s.node_count(),
            "a 3-iteration bound over 14 nodes should trigger somewhere"
        );
        // Iteration instances chain onto their predecessor.
        for node in 0..s.node_count() {
            let first = s.starts[node] as usize;
            for k in 1..=s.iterations_of(node) as usize {
                assert_eq!(s.deps_of(first + k), vec![(first + k - 1) as u64]);
            }
        }
    }

    #[test]
    fn structure_is_a_pure_function_of_shape_and_seed() {
        let shape = DagShape::random_layered(4, 4).with_loopback(2);
        let a = shape.structure(9);
        let b = shape.structure(9);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.window(), b.window());
        for t in 0..a.total_tasks() {
            assert_eq!(a.deps_of(t), b.deps_of(t));
        }
        let c = shape.structure(10);
        assert!(
            a.starts != c.starts || (0..a.total_tasks()).any(|t| a.deps_of(t) != c.deps_of(t)),
            "different seeds should perturb the structure"
        );
    }

    #[test]
    fn depth_of_matches_the_dependency_dp() {
        for shape in [
            DagShape::fan_out_fan_in(5).with_loopback(2),
            DagShape::pipeline(7).with_loopback(3),
            DagShape::diamond(3, 4).with_loopback(2),
            DagShape::random_layered(4, 4).with_loopback(1),
        ] {
            let s = shape.structure(13);
            let mut dp = vec![0u32; s.total_tasks()];
            for t in 0..s.total_tasks() {
                dp[t] = s
                    .deps_of(t)
                    .iter()
                    .map(|&d| dp[d as usize] + 1)
                    .max()
                    .unwrap_or(0);
                assert_eq!(s.depth_of(t), dp[t], "{shape:?} task {t}");
            }
            assert!(dp.iter().any(|&d| d > 0), "{shape:?} has depth somewhere");
        }
    }

    #[test]
    fn shaped_streams_stamp_the_same_features_as_materialized_builds() {
        let shape = DagShape::random_layered(4, 5).with_loopback(2);
        for wf in [PaperWorkflow::Bimodal, PaperWorkflow::TopEft] {
            let spec = wf.spec(19).dag_shape(shape);
            let built = spec.materialize().unwrap();
            let mut source = spec.stream().unwrap();
            let drained: Vec<_> = std::iter::from_fn(|| source.next_task()).collect();
            assert_eq!(drained, built.tasks, "{}", wf.name());
            assert!(
                built.tasks.iter().any(|t| t.features.depth > 0),
                "{}: depth was stamped",
                wf.name()
            );
        }
    }

    #[test]
    fn by_name_covers_every_published_shape() {
        for name in SHAPE_NAMES {
            assert!(DagShape::by_name(name, 3, 4).is_some(), "{name}");
        }
        assert!(DagShape::by_name("moebius", 3, 4).is_none());
    }

    #[test]
    fn longest_path_walks_the_heavy_chain_of_a_diamond() {
        let wf = PaperWorkflow::Bimodal
            .spec(5)
            .dag_shape(DagShape::diamond(3, 6))
            .materialize()
            .expect("diamond materializes");
        let (len, path) = longest_path(&wf);
        assert!(len > 0.0);
        assert_eq!(path.first(), Some(&0), "starts at the source");
        assert_eq!(
            path.last().copied(),
            Some(wf.len() as u64 - 1),
            "ends at the sink"
        );
        let sum: f64 = path.iter().map(|&t| wf.tasks[t as usize].duration_s).sum();
        assert!((sum - len).abs() < 1e-9, "length is the path's sum");
        // Consecutive path entries are real edges.
        for w in path.windows(2) {
            assert!(wf.deps_of(w[1] as usize).contains(&w[0]));
        }
    }

    #[test]
    fn shapes_serialize_round_trip() {
        let shape = DagShape::diamond(4, 7).with_loopback(2);
        let json = serde_json::to_string(&shape).expect("serializes");
        let back: DagShape = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, shape);
    }
}
