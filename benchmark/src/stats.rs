//! Order statistics, summaries and the FNV-64 digest the output checks use.

use serde::{Deserialize, Serialize};

/// `(q1, median, q3)` by the default ("exclusive") method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads this program prints
/// match the ones computed from its JSON. With one value, all three are
/// that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |i: usize| -> f64 {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Median and quartiles of one metric over the repetitions of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Metric name.
    pub name: String,
    /// Metric unit.
    pub unit: String,
    /// Median over `samples`.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
    /// One value per repetition, in run order.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarize `samples`.
    pub fn of(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        let (q1, median, q3) = quartiles(&samples);
        Summary {
            name: name.to_string(),
            unit: unit.to_string(),
            median,
            q1,
            q3,
            n: samples.len(),
            samples,
        }
    }
}

/// Durations in nanoseconds, kept whole so quantiles are exact.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// An empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Samples(Vec::with_capacity(n))
    }

    /// The samples in nanoseconds, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied()
    }

    /// Record one duration.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of all samples in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.total_ns() as f64 / self.0.len() as f64
        }
    }

    /// The sums of each run of `n` consecutive samples, in order; a last,
    /// shorter run is dropped. Take them before any quantile, which
    /// reorders the samples.
    pub fn sums(&self, n: usize) -> Samples {
        Samples(self.0.chunks_exact(n).map(|c| c.iter().sum()).collect())
    }

    /// The `q`-quantile in nanoseconds by nearest rank (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        let (_, nth, _) = self.0.select_nth_unstable(rank - 1);
        *nth as f64
    }
}

/// FNV-1a, 64-bit: the digest behind the pinned-output checks.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv64::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for ns in 1..=100 {
            s.push(ns);
        }
        assert_eq!(s.quantile_ns(0.5), 50.0);
        assert_eq!(s.quantile_ns(0.99), 99.0);
        assert_eq!(s.mean_ns(), 50.5);
    }

    #[test]
    fn sums_of_consecutive_samples() {
        let mut s = Samples::default();
        for ns in 1..=100 {
            s.push(ns);
        }
        let sums: Vec<u64> = s.sums(30).iter().collect();
        assert_eq!(sums, [465, 1365, 2265]);
    }
}
