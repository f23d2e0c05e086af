//! Expected-resource-waste cost models.
//!
//! Both bucketing algorithms score a candidate partition by the *expected
//! resource waste of the next task*, assuming it behaves like the completed
//! tasks (§IV-B, §IV-C). This module implements:
//!
//! * [`greedy_cost`] — the two-bucket (or one-bucket) model of
//!   `compute_greedy_cost` in Algorithm 1,
//! * [`exhaustive_cost`] — the N×N expected-waste table of
//!   `compute_exhaust_cost` in Algorithm 2, and
//! * [`PrefixStats`] / [`exhaustive_cost_with`] — the prefix-sum fast path:
//!   cumulative `sig` and `value·sig` arrays, which the estimator keeps for
//!   its whole life and rewrites from the first changed record at each
//!   rebucket, make any interval's statistics an O(1) query, so the fast
//!   partitioner modes score candidates without re-walking the record list
//!   or materializing a [`BucketSet`] per configuration.

use crate::bucket::BucketSet;
use crate::record::ScalarRecord;

/// Significance-weighted statistics of a contiguous record interval.
#[derive(Debug, Clone, Copy)]
struct IntervalStats {
    sig_sum: f64,
    wmean: f64,
    rep: f64,
}

/// Compute stats over `records[lo..=hi]` (inclusive), as the paper's
/// `compute_greedy_cost` does — a linear pass over the interval. This is
/// intentionally *not* accelerated with prefix sums: the O(interval) cost per
/// candidate is what gives Greedy Bucketing its measured Table I growth
/// (≈0.44 s at 5000 records in the paper). The production scan reads
/// [`PrefixStats`] instead.
fn interval_stats(records: &[ScalarRecord], lo: usize, hi: usize) -> IntervalStats {
    debug_assert!(lo <= hi && hi < records.len());
    let mut sig_sum = 0.0;
    let mut wsum = 0.0;
    for r in &records[lo..=hi] {
        sig_sum += r.sig;
        wsum += r.value * r.sig;
    }
    IntervalStats {
        sig_sum,
        wmean: wsum / sig_sum,
        rep: records[hi].value,
    }
}

/// `compute_greedy_cost(lo, brk, hi, L)` (§IV-B).
///
/// Scores breaking `records[lo..=hi]` into `B_lo = [lo..=brk]` and
/// `B_hi = [brk+1..=hi]`. When `brk == hi` the interval stays one bucket and
/// the expected waste is simply `rep − v̄` (allocate the max, tasks land at
/// the weighted mean).
///
/// With two buckets, four cases (task lands low/high × algorithm picks
/// low/high):
///
/// ```text
/// W_lo,lo = p_lo² (rep_lo − v_lo)
/// W_lo,hi = p_lo p_hi (rep_hi − v_lo)
/// W_hi,lo = p_hi p_lo (rep_lo + rep_hi − v_hi)   // failed attempt + retry
/// W_hi,hi = p_hi² (rep_hi − v_hi)
/// ```
///
/// Probabilities are significance shares *within the interval*; `v_lo`,
/// `v_hi` are significance-weighted means of each side.
pub fn greedy_cost(records: &[ScalarRecord], lo: usize, brk: usize, hi: usize) -> f64 {
    debug_assert!(lo <= brk && brk <= hi && hi < records.len());
    if brk == hi {
        let s = interval_stats(records, lo, hi);
        return s.rep - s.wmean;
    }
    let low = interval_stats(records, lo, brk);
    let high = interval_stats(records, brk + 1, hi);
    let total_sig = low.sig_sum + high.sig_sum;
    let p_lo = low.sig_sum / total_sig;
    let p_hi = high.sig_sum / total_sig;
    let (v_lo, v_hi) = (low.wmean, high.wmean);
    let (rep_lo, rep_hi) = (low.rep, high.rep);

    let w_lo_lo = p_lo * p_lo * (rep_lo - v_lo);
    let w_lo_hi = p_lo * p_hi * (rep_hi - v_lo);
    let w_hi_lo = p_hi * p_lo * (rep_lo + rep_hi - v_hi);
    let w_hi_hi = p_hi * p_hi * (rep_hi - v_hi);
    w_lo_lo + w_lo_hi + w_hi_lo + w_hi_hi
}

/// `compute_exhaust_cost(P, L)` (§IV-C): expected waste of a full bucket
/// configuration.
///
/// Builds the table `T[i][j]` — expected waste when the next task falls in
/// bucket `i` and the allocator picks bucket `j`:
///
/// * `i ≤ j`: the allocation suffices, `T[i][j] = rep_j − v_i`;
/// * `i > j`: the attempt fails and the allocator re-samples among buckets
///   `> j` with renormalized probabilities:
///   `T[i][j] = rep_j + Σ_{k>j} (p_k / Σ_{m>j} p_m) · T[i][k]`.
///
/// The table is filled right-to-left per row (each entry only depends on
/// entries with larger `j`). The configuration's expected waste is
/// `Σ_ij p_i p_j T[i][j]`.
pub fn exhaustive_cost(set: &BucketSet) -> f64 {
    let buckets = set.buckets();
    debug_assert!(
        !buckets.is_empty(),
        "cost of an empty bucket set is undefined"
    );
    expected_waste(
        buckets.len(),
        |j| buckets[j].prob,
        |j| buckets[j].rep,
        |i| buckets[i].wmean,
        &mut Vec::new(),
    )
}

/// The `Σ_ij p_i p_j T[i][j]` table walk shared by [`exhaustive_cost`] and
/// [`exhaustive_cost_with`], over `n` buckets described by their
/// probability, representative and weighted mean. `suffix_p` is scratch
/// space for the suffix probability sums.
fn expected_waste(
    n: usize,
    prob: impl Fn(usize) -> f64,
    rep: impl Fn(usize) -> f64,
    wmean: impl Fn(usize) -> f64,
    suffix_p: &mut Vec<f64>,
) -> f64 {
    // Suffix probability sums: suffix_p[j] = Σ_{k ≥ j} p_k.
    suffix_p.clear();
    suffix_p.resize(n + 1, 0.0);
    for j in (0..n).rev() {
        suffix_p[j] = suffix_p[j + 1] + prob(j);
    }
    let mut total = 0.0;
    for i in 0..n {
        let v_i = wmean(i);
        // s_pt = Σ_{k > j} p_k · T[i][k], maintained as j walks left.
        let mut s_pt = 0.0;
        for j in (0..n).rev() {
            let rep_j = rep(j);
            let t = if i <= j {
                rep_j - v_i
            } else {
                let denom = suffix_p[j + 1];
                if denom > 0.0 {
                    rep_j + s_pt / denom
                } else {
                    // No higher bucket exists (only possible for j = n-1,
                    // which requires i > n-1 — unreachable; kept for safety).
                    rep_j
                }
            };
            s_pt += prob(j) * t;
            total += prob(i) * prob(j) * t;
        }
    }
    total
}

/// Prefix-sum cache over a sorted record slice: cumulative `sig` and
/// `value·sig` arrays that answer any contiguous interval's significance sum
/// and weighted sum in O(1).
///
/// [`crate::policy::BucketingEstimator`] owns one for its whole life and
/// rewrites it only from the first record a rebucket's merge touched
/// ([`update_from`](Self::update_from)); the fast partitioner modes read it,
/// so every candidate break a scan considers costs O(1) instead of an
/// O(interval) re-walk.
///
/// # Examples
///
/// ```
/// use tora_alloc::cost::PrefixStats;
/// use tora_alloc::record::ScalarRecord;
///
/// let records = [
///     ScalarRecord::new(2.0, 1.0),
///     ScalarRecord::new(4.0, 3.0),
///     ScalarRecord::new(8.0, 1.0),
/// ];
/// let stats = PrefixStats::from_records(&records);
/// assert_eq!(stats.sig(0, 2), 5.0);
/// assert_eq!(stats.wsum(1, 2), 4.0 * 3.0 + 8.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PrefixStats {
    /// cum_sig[i] = Σ_{k < i} sig_k (so cum_sig[0] = 0).
    cum_sig: Vec<f64>,
    /// cum_wsum[i] = Σ_{k < i} value_k · sig_k.
    cum_wsum: Vec<f64>,
}

impl PrefixStats {
    /// An empty cache; call [`update_from`](Self::update_from) before
    /// querying.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a cache for `records`.
    pub fn from_records(records: &[ScalarRecord]) -> Self {
        let mut stats = Self::new();
        stats.update_from(records, 0);
        stats
    }

    /// Bring the cache up to date with `records`, of which only those from
    /// index `first` on differ from the records it last covered. A record
    /// list only grows, so the cache only grows: it is resized to
    /// `records.len() + 1` entries and written in place, keeping the sums
    /// below `first` and overwriting the rest by continuing the same
    /// sequential additions, so the result is bit-identical to
    /// [`from_records`](Self::from_records). `first = 0` recomputes
    /// everything.
    pub fn update_from(&mut self, records: &[ScalarRecord], first: usize) {
        debug_assert!(records.len() >= self.len(), "a record list only grows");
        debug_assert!(first <= self.len());
        let n = records.len();
        self.cum_sig.resize(n + 1, 0.0);
        self.cum_wsum.resize(n + 1, 0.0);
        let mut sig = self.cum_sig[first];
        let mut wsum = self.cum_wsum[first];
        let sigs = &mut self.cum_sig[first + 1..];
        let wsums = &mut self.cum_wsum[first + 1..];
        for ((cum_sig, cum_wsum), r) in sigs.iter_mut().zip(wsums).zip(&records[first..]) {
            sig += r.sig;
            wsum += r.value * r.sig;
            *cum_sig = sig;
            *cum_wsum = wsum;
        }
    }

    /// The cumulative arrays `(cum_sig, cum_wsum)`, `len() + 1` entries each
    /// with a leading zero, for scans that read them in bulk.
    pub(crate) fn cumulative(&self) -> (&[f64], &[f64]) {
        (&self.cum_sig, &self.cum_wsum)
    }

    /// Number of records the cache covers.
    pub fn len(&self) -> usize {
        self.cum_sig.len().saturating_sub(1)
    }

    /// Whether the cache covers no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ sig over `records[lo..=hi]` (inclusive).
    #[inline]
    pub fn sig(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi < self.len());
        self.cum_sig[hi + 1] - self.cum_sig[lo]
    }

    /// Σ value·sig over `records[lo..=hi]` (inclusive).
    #[inline]
    pub fn wsum(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi < self.len());
        self.cum_wsum[hi + 1] - self.cum_wsum[lo]
    }
}

/// Reusable buffers for [`exhaustive_cost_with`]: per-bucket probabilities,
/// representatives, weighted means, and the suffix-probability array. One
/// instance lives across the b = 1..=10 configuration loop of the fast
/// Exhaustive Bucketing mode, so scoring a configuration allocates nothing
/// after the first iteration.
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveScratch {
    probs: Vec<f64>,
    reps: Vec<f64>,
    wmeans: Vec<f64>,
    suffix_p: Vec<f64>,
}

impl ExhaustiveScratch {
    /// Empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`exhaustive_cost`] computed directly from break indices and a
/// [`PrefixStats`] cache — no [`BucketSet`] is materialized. Per-bucket
/// statistics are O(1) prefix-sum queries; the N×N table walk is the
/// canonical version's own.
///
/// `breaks` are the inclusive end indices of all buckets but the last, as
/// produced by a [`crate::partition::Partitioner`].
pub fn exhaustive_cost_with(
    records: &[ScalarRecord],
    stats: &PrefixStats,
    breaks: &[usize],
    scratch: &mut ExhaustiveScratch,
) -> f64 {
    let n_records = records.len();
    debug_assert!(n_records > 0, "cost of an empty configuration is undefined");
    debug_assert_eq!(stats.len(), n_records, "stale PrefixStats");
    let n = breaks.len() + 1;
    let total_sig = stats.sig(0, n_records - 1);

    scratch.probs.clear();
    scratch.reps.clear();
    scratch.wmeans.clear();
    let mut start = 0usize;
    for b in 0..n {
        let end = if b < breaks.len() {
            breaks[b]
        } else {
            n_records - 1
        };
        debug_assert!(start <= end && end < n_records, "invalid break indices");
        let sig = stats.sig(start, end);
        scratch.probs.push(sig / total_sig);
        scratch.reps.push(records[end].value);
        scratch.wmeans.push(stats.wsum(start, end) / sig);
        start = end + 1;
    }

    expected_waste(
        n,
        |j| scratch.probs[j],
        |j| scratch.reps[j],
        |i| scratch.wmeans[i],
        &mut scratch.suffix_p,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordList;

    fn sorted(pairs: &[(f64, f64)]) -> RecordList {
        pairs.iter().copied().collect()
    }

    #[test]
    fn greedy_single_bucket_is_rep_minus_mean() {
        // values 2,4 sig 1,1: rep 4, mean 3, cost 1.
        let l = sorted(&[(2.0, 1.0), (4.0, 1.0)]);
        let c = greedy_cost(l.sorted(), 0, 1, 1);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_two_bucket_matches_hand_computation() {
        // values 1,3 sig 1,1 → p=0.5 each, v_lo=1, v_hi=3, rep_lo=1, rep_hi=3.
        // W = .25(1-1) + .25(3-1) + .25(1+3-3) + .25(3-3) = 0.5 + 0.25 = 0.75
        let l = sorted(&[(1.0, 1.0), (3.0, 1.0)]);
        let c = greedy_cost(l.sorted(), 0, 0, 1);
        assert!((c - 0.75).abs() < 1e-12, "{c}");
    }

    #[test]
    fn greedy_split_wins_for_well_separated_clusters() {
        // Two tight clusters far apart: splitting beats one bucket.
        let l = sorted(&[
            (1.0, 1.0),
            (1.1, 1.0),
            (1.2, 1.0),
            (100.0, 1.0),
            (100.1, 1.0),
            (100.2, 1.0),
        ]);
        let one = greedy_cost(l.sorted(), 0, 5, 5);
        let split = greedy_cost(l.sorted(), 0, 2, 5);
        assert!(split < one, "split {split} should beat single {one}");
    }

    #[test]
    fn greedy_identical_values_prefer_single_bucket() {
        let l = sorted(&[(5.0, 1.0); 4]);
        let single = greedy_cost(l.sorted(), 0, 3, 3);
        assert!(single.abs() < 1e-12);
        // Any split still costs extra (failed-allocation term is positive).
        for brk in 0..3 {
            assert!(greedy_cost(l.sorted(), 0, brk, 3) >= single);
        }
    }

    #[test]
    fn greedy_significance_shifts_probabilities() {
        // With multi-record buckets the significance weighting moves the
        // in-bucket means and the bucket probabilities, changing the cost
        // relative to the unweighted case.
        let unweighted = sorted(&[(1.0, 1.0), (2.0, 1.0), (8.0, 1.0), (9.0, 1.0)]);
        let weighted = sorted(&[(1.0, 1.0), (2.0, 5.0), (8.0, 1.0), (9.0, 5.0)]);
        let c_u = greedy_cost(unweighted.sorted(), 0, 1, 3);
        let c_w = greedy_cost(weighted.sorted(), 0, 1, 3);
        assert!((c_u - c_w).abs() > 1e-9, "{c_u} vs {c_w}");
        // Hand check the unweighted cost: p=0.5 each, v_lo=1.5, v_hi=8.5,
        // rep_lo=2, rep_hi=9:
        // .25(2-1.5) + .25(9-1.5) + .25(2+9-8.5) + .25(9-8.5) = 2.75
        assert!((c_u - 2.75).abs() < 1e-12, "{c_u}");
    }

    #[test]
    fn exhaustive_single_bucket_equals_greedy_single() {
        let l = sorted(&[(2.0, 1.0), (4.0, 1.0), (6.0, 3.0)]);
        let set = BucketSet::single(l.sorted());
        let c = exhaustive_cost(&set);
        let g = greedy_cost(l.sorted(), 0, 2, 2);
        assert!((c - g).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_two_buckets_matches_greedy_two_buckets() {
        // For exactly two buckets the N×N model reduces to the same four
        // cases as the greedy model:
        // T[0][0]=rep0-v0, T[0][1]=rep1-v0, T[1][1]=rep1-v1,
        // T[1][0]=rep0 + (p1/p1)·T[1][1] = rep0 + rep1 - v1.
        let l = sorted(&[(1.0, 1.0), (2.0, 2.0), (8.0, 1.0), (9.0, 4.0)]);
        let set = BucketSet::from_breaks(l.sorted(), &[1]);
        let c = exhaustive_cost(&set);
        let g = greedy_cost(l.sorted(), 0, 1, 3);
        assert!((c - g).abs() < 1e-12, "exhaustive {c} vs greedy {g}");
    }

    #[test]
    fn exhaustive_cost_nonnegative_and_zero_for_identical() {
        let l = sorted(&[(5.0, 1.0); 6]);
        let set = BucketSet::single(l.sorted());
        assert!(exhaustive_cost(&set).abs() < 1e-12);
        let l2 = sorted(&[(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (10.0, 1.0)]);
        for breaks in [vec![], vec![0], vec![1], vec![2], vec![0, 2], vec![0, 1, 2]] {
            let set = BucketSet::from_breaks(l2.sorted(), &breaks);
            assert!(exhaustive_cost(&set) >= 0.0, "breaks {breaks:?}");
        }
    }

    #[test]
    fn exhaustive_three_bucket_hand_check() {
        // Three singleton buckets, values 1, 2, 4, equal sigs → p = 1/3 each,
        // v_i = rep_i. Successful cells: T[i][j] = rep_j - rep_i for i<=j
        // (diagonal zero). Failure cells:
        // T[1][0] = 1 + [p1·T[1][1] + p2·T[1][2]] / (p1+p2) = 1 + (0+2)/2 = 2
        // T[2][1] = 2 + T[2][2] = 2
        // T[2][0] = 1 + (T[2][1] + T[2][2])/2 = 1 + (2+0)/2 = 2
        // W = (1/9)(0+1+3 + 2+0+2 + 2+2+0) = 12/9
        let l = sorted(&[(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)]);
        let set = BucketSet::from_breaks(l.sorted(), &[0, 1]);
        let c = exhaustive_cost(&set);
        assert!((c - 12.0 / 9.0).abs() < 1e-12, "{c}");
    }

    #[test]
    fn prefix_stats_match_direct_interval_sums() {
        let l = sorted(&[(1.0, 2.0), (3.0, 1.0), (7.0, 4.0), (9.0, 0.5)]);
        let stats = PrefixStats::from_records(l.sorted());
        assert_eq!(stats.len(), 4);
        for lo in 0..4 {
            for hi in lo..4 {
                let mut sig = 0.0;
                let mut wsum = 0.0;
                for r in &l.sorted()[lo..=hi] {
                    sig += r.sig;
                    wsum += r.value * r.sig;
                }
                assert!((stats.sig(lo, hi) - sig).abs() < 1e-12, "sig {lo}..={hi}");
                assert!(
                    (stats.wsum(lo, hi) - wsum).abs() < 1e-12,
                    "wsum {lo}..={hi}"
                );
            }
        }
    }

    /// The cache's cumulative arrays as bits, for exact comparison.
    fn bits(stats: &PrefixStats) -> Vec<(u64, u64)> {
        let (sig, wsum) = stats.cumulative();
        sig.iter()
            .zip(wsum)
            .map(|(s, w)| (s.to_bits(), w.to_bits()))
            .collect()
    }

    #[test]
    fn update_from_in_place_matches_from_records_bit_for_bit() {
        let mut l = sorted(&[(1.5, 3.0), (2.25, 0.7), (9.0, 11.0), (12.1, 0.3)]);
        let mut stats = PrefixStats::from_records(l.sorted());

        // Append-only commit: every new value is above the old maximum, so
        // the first changed index is the old length.
        for (v, sig) in [(20.0, 1.1), (33.3, 2.9), (40.5, 0.1)] {
            l.observe(v, sig);
        }
        let first = l.commit().unwrap();
        assert_eq!(first, 4);
        stats.update_from(l.sorted(), first);
        assert_eq!(bits(&stats), bits(&PrefixStats::from_records(l.sorted())));

        // Nothing changed: first == len rewrites nothing.
        let len = stats.len();
        stats.update_from(l.sorted(), len);
        assert_eq!(bits(&stats), bits(&PrefixStats::from_records(l.sorted())));

        // A value below every record moves them all: first = 0.
        l.observe(0.1, 5.0);
        let first = l.commit().unwrap();
        assert_eq!(first, 0);
        stats.update_from(l.sorted(), first);
        assert_eq!(stats.len(), 8);
        assert_eq!(bits(&stats), bits(&PrefixStats::from_records(l.sorted())));
    }

    #[test]
    fn exhaustive_cost_with_matches_bucket_set_version() {
        let l = sorted(&[
            (1.0, 1.0),
            (2.0, 2.0),
            (3.0, 1.5),
            (10.0, 1.0),
            (11.0, 4.0),
            (50.0, 2.0),
        ]);
        let stats = PrefixStats::from_records(l.sorted());
        let mut scratch = ExhaustiveScratch::new();
        for breaks in [vec![], vec![0], vec![2], vec![2, 4], vec![0, 1, 2, 3, 4]] {
            let canonical = exhaustive_cost(&BucketSet::from_breaks(l.sorted(), &breaks));
            let fast = exhaustive_cost_with(l.sorted(), &stats, &breaks, &mut scratch);
            assert!(
                (canonical - fast).abs() < 1e-12,
                "breaks {breaks:?}: {canonical} vs {fast}"
            );
        }
    }

    #[test]
    fn clustered_data_prefers_cluster_break() {
        // Exhaustive cost should be lowest at the natural cluster boundary.
        let l = sorted(&[
            (10.0, 1.0),
            (11.0, 1.0),
            (12.0, 1.0),
            (200.0, 1.0),
            (201.0, 1.0),
            (202.0, 1.0),
        ]);
        let natural = exhaustive_cost(&BucketSet::from_breaks(l.sorted(), &[2]));
        let single = exhaustive_cost(&BucketSet::single(l.sorted()));
        let wrong = exhaustive_cost(&BucketSet::from_breaks(l.sorted(), &[0]));
        assert!(natural < single);
        assert!(natural < wrong);
    }
}
