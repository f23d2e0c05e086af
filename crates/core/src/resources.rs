//! The resource model: resource kinds, resource vectors, and worker shapes.
//!
//! The paper (§II-B) defines a task `T(c, m, d, t)` consuming at most `c`
//! cores, `m` MB of memory and `d` MB of disk over `t` seconds, and an
//! allocation `A(c_a, m_a, d_a, t_a)` declared before execution. Cores,
//! memory and disk are *enforced* dimensions: a task that exceeds any of
//! them is killed and must be retried with a bigger allocation.
//!
//! [`ResourceVector`] is a small fixed-size vector indexed by
//! [`ResourceKind`]. Two extension axes demonstrate that the model extends
//! to additional resource types (paper §VII future work): a GPU axis
//! ([`ResourceKind::Gpus`]) and the allocation 4-tuple's wall-time component
//! ([`ResourceKind::TimeS`], enforced when managed, never packed). Both are
//! unmanaged by default — the paper's evaluation manages exactly cores,
//! memory and disk and reports no time efficiency.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of resource axes carried by a [`ResourceVector`].
const NUM_KINDS: usize = 5;

/// An enforced (allocatable) resource dimension.
///
/// The discriminants index into [`ResourceVector`] storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(usize)]
pub enum ResourceKind {
    /// CPU cores (fractional consumption allowed, e.g. 0.9 cores).
    Cores = 0,
    /// Memory in MB.
    MemoryMb = 1,
    /// Disk in MB.
    DiskMb = 2,
    /// GPUs — extension axis, unmanaged by the default allocator config.
    Gpus = 3,
    /// Wall time in seconds — the `t_a` component of the paper's allocation
    /// 4-tuple (§II-B). A *temporal* axis: it participates in enforcement
    /// (a task outliving its time allocation is killed) but not in worker
    /// packing, and is unmanaged by the default allocator config (matching
    /// the paper's evaluation, which reports no time efficiency).
    TimeS = 4,
}

impl ResourceKind {
    /// All resource kinds, in storage order.
    pub const ALL: [ResourceKind; NUM_KINDS] = [
        ResourceKind::Cores,
        ResourceKind::MemoryMb,
        ResourceKind::DiskMb,
        ResourceKind::Gpus,
        ResourceKind::TimeS,
    ];

    /// The three kinds evaluated in the paper (cores, memory, disk).
    pub const STANDARD: [ResourceKind; 3] = [
        ResourceKind::Cores,
        ResourceKind::MemoryMb,
        ResourceKind::DiskMb,
    ];

    /// Short lowercase label used in reports (`cores`, `memory`, `disk`,
    /// `gpus`, `time`).
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Cores => "cores",
            ResourceKind::MemoryMb => "memory",
            ResourceKind::DiskMb => "disk",
            ResourceKind::Gpus => "gpus",
            ResourceKind::TimeS => "time",
        }
    }

    /// The unit the axis is measured in.
    pub fn unit(self) -> &'static str {
        match self {
            ResourceKind::Cores => "cores",
            ResourceKind::MemoryMb => "MB",
            ResourceKind::DiskMb => "MB",
            ResourceKind::Gpus => "gpus",
            ResourceKind::TimeS => "s",
        }
    }

    /// Whether this axis occupies worker capacity while a task runs.
    /// Temporal axes (wall time) are enforced but not packed.
    pub fn is_spatial(self) -> bool {
        !matches!(self, ResourceKind::TimeS)
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A boolean mask over resource kinds, used to report which dimensions of an
/// allocation a task exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceMask {
    bits: [bool; NUM_KINDS],
}

impl ResourceMask {
    /// The empty mask (nothing exhausted).
    pub const NONE: ResourceMask = ResourceMask {
        bits: [false; NUM_KINDS],
    };

    /// Mask with a single kind set.
    pub fn only(kind: ResourceKind) -> Self {
        let mut m = Self::NONE;
        m.set(kind, true);
        m
    }

    /// Set or clear one kind.
    pub fn set(&mut self, kind: ResourceKind, value: bool) {
        self.bits[kind as usize] = value;
    }

    /// Whether `kind` is set.
    pub fn contains(&self, kind: ResourceKind) -> bool {
        self.bits[kind as usize]
    }

    /// Whether any kind is set.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&b| b)
    }

    /// Iterate over the kinds that are set.
    pub fn iter(&self) -> impl Iterator<Item = ResourceKind> + '_ {
        ResourceKind::ALL.into_iter().filter(|&k| self.contains(k))
    }
}

impl FromIterator<ResourceKind> for ResourceMask {
    fn from_iter<I: IntoIterator<Item = ResourceKind>>(iter: I) -> Self {
        let mut m = Self::NONE;
        for k in iter {
            m.set(k, true);
        }
        m
    }
}

/// A non-negative quantity per resource kind.
///
/// Used both for *peak consumption* (what a task actually used) and for
/// *allocations* (what the scheduler reserved for it).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    values: [f64; NUM_KINDS],
}

impl ResourceVector {
    /// The all-zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        values: [0.0; NUM_KINDS],
    };

    /// Build from cores / memory MB / disk MB, with zero GPUs.
    pub fn new(cores: f64, memory_mb: f64, disk_mb: f64) -> Self {
        let mut v = Self::ZERO;
        v[ResourceKind::Cores] = cores;
        v[ResourceKind::MemoryMb] = memory_mb;
        v[ResourceKind::DiskMb] = disk_mb;
        v
    }

    /// Cores component.
    pub fn cores(&self) -> f64 {
        self[ResourceKind::Cores]
    }

    /// Memory component (MB).
    pub fn memory_mb(&self) -> f64 {
        self[ResourceKind::MemoryMb]
    }

    /// Disk component (MB).
    pub fn disk_mb(&self) -> f64 {
        self[ResourceKind::DiskMb]
    }

    /// GPUs component.
    pub fn gpus(&self) -> f64 {
        self[ResourceKind::Gpus]
    }

    /// Return a copy with `kind` set to `value`.
    pub fn with(mut self, kind: ResourceKind, value: f64) -> Self {
        self[kind] = value;
        self
    }

    /// Whether every component of `self` is ≥ the matching component of
    /// `other` (i.e. an allocation of `self` can host a consumption of
    /// `other`).
    pub fn dominates(&self, other: &ResourceVector) -> bool {
        ResourceKind::ALL.iter().all(|&k| self[k] >= other[k])
    }

    /// The set of kinds where `demand` strictly exceeds `self`.
    ///
    /// In the paper's enforcement model (§II-B assumption 4) these are the
    /// dimensions whose over-consumption kills the task.
    pub fn exceeded_by(&self, demand: &ResourceVector) -> ResourceMask {
        ResourceKind::ALL
            .into_iter()
            .filter(|&k| demand[k] > self[k])
            .collect()
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out[k] = out[k].max(other[k]);
        }
        out
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out[k] = out[k].min(other[k]);
        }
        out
    }

    /// Component-wise sum.
    pub fn add(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out[k] += other[k];
        }
        out
    }

    /// Component-wise difference (may go negative; callers clamp as needed).
    pub fn sub(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out[k] -= other[k];
        }
        out
    }

    /// Scale every component by `s`.
    pub fn scale(&self, s: f64) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out[k] *= s;
        }
        out
    }

    /// Clamp each component into `[0, cap[k]]`.
    pub fn clamp_to(&self, cap: &ResourceVector) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out[k] = out[k].clamp(0.0, cap[k]);
        }
        out
    }

    /// Whether every component is finite and ≥ 0.
    pub fn is_valid(&self) -> bool {
        self.values.iter().all(|v| v.is_finite() && *v >= 0.0)
    }

    /// Iterate `(kind, value)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, f64)> + '_ {
        ResourceKind::ALL.into_iter().map(move |k| (k, self[k]))
    }
}

impl Index<ResourceKind> for ResourceVector {
    type Output = f64;
    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.values[kind as usize]
    }
}

impl IndexMut<ResourceKind> for ResourceVector {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.values[kind as usize]
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{cores: {:.2}, memory: {:.1} MB, disk: {:.1} MB}}",
            self.cores(),
            self.memory_mb(),
            self.disk_mb()
        )
    }
}

/// The shape of one worker node.
///
/// The paper's evaluation (§V-A) deploys workers with 16 cores, 64 GB of
/// memory and 64 GB of disk; [`WorkerSpec::paper_default`] reproduces that.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Total capacity of the worker.
    pub capacity: ResourceVector,
    /// Failure-domain group the worker belongs to (e.g. a rack or a spot
    /// block). Correlated faults take out every worker sharing a rack at
    /// once; `0` is the default, single shared domain.
    #[serde(default)]
    pub rack: u32,
}

impl WorkerSpec {
    /// Effectively unlimited wall time for a worker (about four months):
    /// the time axis is only constraining when an allocator manages it.
    pub const UNLIMITED_TIME_S: f64 = 1e7;

    /// 16 cores, 64 GB memory, 64 GB disk — the worker shape used in §V-A.
    pub fn paper_default() -> Self {
        WorkerSpec {
            capacity: ResourceVector::new(16.0, 64.0 * 1024.0, 64.0 * 1024.0)
                .with(ResourceKind::TimeS, Self::UNLIMITED_TIME_S),
            rack: 0,
        }
    }

    /// A worker with the given capacity, in the default rack `0`.
    pub fn new(capacity: ResourceVector) -> Self {
        WorkerSpec { capacity, rack: 0 }
    }

    /// The same worker assigned to failure-domain group `rack`.
    pub fn with_rack(mut self, rack: u32) -> Self {
        self.rack = rack;
        self
    }
}

impl Default for WorkerSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_indexing_roundtrip() {
        let mut v = ResourceVector::new(2.0, 4096.0, 1024.0);
        assert_eq!(v.cores(), 2.0);
        assert_eq!(v.memory_mb(), 4096.0);
        assert_eq!(v.disk_mb(), 1024.0);
        assert_eq!(v.gpus(), 0.0);
        v[ResourceKind::Gpus] = 1.0;
        assert_eq!(v.gpus(), 1.0);
    }

    #[test]
    fn worker_spec_rack_defaults_and_round_trips() {
        let spec = WorkerSpec::paper_default();
        assert_eq!(spec.rack, 0);
        let racked = spec.with_rack(3);
        assert_eq!(racked.rack, 3);
        assert_eq!(racked.capacity, spec.capacity);
        // Old JSON without the field still loads, defaulting to rack 0.
        let legacy: WorkerSpec = serde_json::from_str(&format!(
            "{{\"capacity\":{}}}",
            serde_json::to_string(&spec.capacity).unwrap()
        ))
        .unwrap();
        assert_eq!(legacy, spec);
        let json = serde_json::to_string(&racked).unwrap();
        let back: WorkerSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, racked);
    }

    #[test]
    fn dominates_is_reflexive_and_componentwise() {
        let a = ResourceVector::new(2.0, 100.0, 100.0);
        let b = ResourceVector::new(1.0, 200.0, 50.0);
        assert!(a.dominates(&a));
        assert!(!a.dominates(&b)); // memory too small
        assert!(!b.dominates(&a)); // cores too small
        assert!(a.max(&b).dominates(&a));
        assert!(a.max(&b).dominates(&b));
        assert!(a.dominates(&a.min(&b)));
        assert!(b.dominates(&a.min(&b)));
    }

    #[test]
    fn exceeded_by_reports_only_over_consumed_axes() {
        let alloc = ResourceVector::new(1.0, 1024.0, 1024.0);
        let demand = ResourceVector::new(2.5, 512.0, 2048.0);
        let mask = alloc.exceeded_by(&demand);
        assert!(mask.contains(ResourceKind::Cores));
        assert!(!mask.contains(ResourceKind::MemoryMb));
        assert!(mask.contains(ResourceKind::DiskMb));
        assert!(mask.any());
        assert_eq!(mask.iter().count(), 2);
    }

    #[test]
    fn exceeded_by_equal_demand_is_empty() {
        let alloc = ResourceVector::new(1.0, 1024.0, 1024.0);
        let mask = alloc.exceeded_by(&alloc);
        assert!(!mask.any());
        assert_eq!(mask, ResourceMask::NONE);
    }

    #[test]
    fn mask_from_iter() {
        let c: ResourceMask = [ResourceKind::Cores, ResourceKind::DiskMb]
            .into_iter()
            .collect();
        assert!(c.contains(ResourceKind::Cores));
        assert!(c.contains(ResourceKind::DiskMb));
        assert!(!c.contains(ResourceKind::MemoryMb));
    }

    #[test]
    fn arithmetic_helpers() {
        let a = ResourceVector::new(2.0, 100.0, 10.0);
        let b = ResourceVector::new(1.0, 50.0, 5.0);
        assert_eq!(a.add(&b), ResourceVector::new(3.0, 150.0, 15.0));
        assert_eq!(a.sub(&b), b);
        assert_eq!(b.scale(2.0), a);
    }

    #[test]
    fn clamp_to_caps_each_axis() {
        let cap = ResourceVector::new(16.0, 65536.0, 65536.0);
        let big = ResourceVector::new(100.0, 1e9, 3.0);
        let clamped = big.clamp_to(&cap);
        assert_eq!(clamped.cores(), 16.0);
        assert_eq!(clamped.memory_mb(), 65536.0);
        assert_eq!(clamped.disk_mb(), 3.0);
    }

    #[test]
    fn paper_default_worker_shape() {
        let w = WorkerSpec::paper_default();
        assert_eq!(w.capacity.cores(), 16.0);
        assert_eq!(w.capacity.memory_mb(), 65536.0);
        assert_eq!(w.capacity.disk_mb(), 65536.0);
    }

    #[test]
    fn validity_checks() {
        assert!(ResourceVector::new(1.0, 2.0, 3.0).is_valid());
        assert!(!ResourceVector::new(-1.0, 2.0, 3.0).is_valid());
        assert!(!ResourceVector::new(f64::NAN, 2.0, 3.0).is_valid());
        assert!(!ResourceVector::new(f64::INFINITY, 2.0, 3.0).is_valid());
    }

    #[test]
    fn display_formats() {
        let v = ResourceVector::new(1.0, 512.0, 306.0);
        let s = format!("{v}");
        assert!(s.contains("512.0 MB"));
        assert_eq!(ResourceKind::MemoryMb.to_string(), "memory");
    }
}
