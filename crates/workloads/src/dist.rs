//! Distribution samplers for workload generation.
//!
//! The synthetic workflows of §V-B sample task resource consumption from
//! Normal, Uniform, Exponential and mixture distributions. These samplers
//! are hand-written on top of `rand`'s uniform source (Box–Muller for the
//! normal, inverse CDF for the exponential) so the workload crate needs no
//! further dependencies and results are reproducible from a seed alone.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Draw from a normal distribution via the Box–Muller transform.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0);
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std_dev * z
}

/// Draw from an exponential distribution with the given mean (inverse CDF).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

/// Draw uniformly from `[lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    debug_assert!(hi >= lo);
    lo + (hi - lo) * rng.gen::<f64>()
}

/// Draw from a log-normal distribution with the given *underlying* normal
/// parameters.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// A serializable distribution description, used by the workload generators
/// so experiment configurations can be recorded alongside results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// A fixed value.
    Constant(f64),
    /// Normal(mean, std dev), truncated below at `min`.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
        /// Truncation floor.
        min: f64,
    },
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// `offset + Exponential(mean)`, truncated above at `max`.
    Exponential {
        /// Additive offset (the distribution's minimum).
        offset: f64,
        /// Mean of the exponential part.
        mean: f64,
        /// Truncation ceiling.
        max: f64,
    },
    /// Two-component normal mixture: with probability `p_low` draw
    /// `Normal(low_mean, low_std)`, otherwise `Normal(high_mean, high_std)`;
    /// truncated below at `min`.
    Bimodal {
        /// Probability of the low mode.
        p_low: f64,
        /// Low-mode mean.
        low_mean: f64,
        /// Low-mode std dev.
        low_std: f64,
        /// High-mode mean.
        high_mean: f64,
        /// High-mode std dev.
        high_std: f64,
        /// Truncation floor.
        min: f64,
    },
}

impl Dist {
    /// Sample one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Normal { mean, std_dev, min } => normal(rng, mean, std_dev).max(min),
            Dist::Uniform { lo, hi } => uniform(rng, lo, hi),
            Dist::Exponential { offset, mean, max } => (offset + exponential(rng, mean)).min(max),
            Dist::Bimodal {
                p_low,
                low_mean,
                low_std,
                high_mean,
                high_std,
                min,
            } => {
                let v = if rng.gen::<f64>() < p_low {
                    normal(rng, low_mean, low_std)
                } else {
                    normal(rng, high_mean, high_std)
                };
                v.max(min)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD15C0)
    }

    fn sample_mean(dist: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| dist.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_sample_mean_and_spread() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 8.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 8.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_sample_mean() {
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut r, 3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
        // Exponential values are strictly positive.
        assert!((0..1000).all(|_| exponential(&mut r, 3.0) > 0.0));
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = uniform(&mut r, 2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| lognormal(&mut r, 0.0, 1.0)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(mean > median, "lognormal should be right-skewed");
    }

    #[test]
    fn dist_enum_means_track_theory() {
        let cases = [
            (Dist::Constant(5.0), 5.0),
            (
                Dist::Normal {
                    mean: 4000.0,
                    std_dev: 500.0,
                    min: 0.0,
                },
                4000.0,
            ),
            (Dist::Uniform { lo: 10.0, hi: 20.0 }, 15.0),
            (
                Dist::Exponential {
                    offset: 100.0,
                    mean: 400.0,
                    max: 1e12,
                },
                500.0,
            ),
            (
                Dist::Bimodal {
                    p_low: 0.5,
                    low_mean: 100.0,
                    low_std: 5.0,
                    high_mean: 300.0,
                    high_std: 5.0,
                    min: 0.0,
                },
                200.0,
            ),
        ];
        for (d, expect) in cases {
            let m = sample_mean(&d, 20_000);
            assert!(
                (m - expect).abs() / expect < 0.05,
                "{d:?}: sample mean {m}, expected {expect}"
            );
        }
    }

    #[test]
    fn truncations_apply() {
        let mut r = rng();
        let floor = Dist::Normal {
            mean: 0.0,
            std_dev: 10.0,
            min: 0.5,
        };
        assert!((0..2000).all(|_| floor.sample(&mut r) >= 0.5));
        let cap = Dist::Exponential {
            offset: 0.0,
            mean: 100.0,
            max: 50.0,
        };
        assert!((0..2000).all(|_| cap.sample(&mut r) <= 50.0));
    }

    #[test]
    fn bimodal_produces_two_modes() {
        let d = Dist::Bimodal {
            p_low: 0.5,
            low_mean: 100.0,
            low_std: 5.0,
            high_mean: 1000.0,
            high_std: 5.0,
            min: 0.0,
        };
        let mut r = rng();
        let (mut low, mut high) = (0usize, 0usize);
        for _ in 0..4000 {
            let v = d.sample(&mut r);
            if v < 500.0 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(low > 1500 && high > 1500, "low {low}, high {high}");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let d = Dist::Normal {
            mean: 10.0,
            std_dev: 2.0,
            min: 0.0,
        };
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let va: Vec<f64> = (0..100).map(|_| d.sample(&mut a)).collect();
        let vb: Vec<f64> = (0..100).map(|_| d.sample(&mut b)).collect();
        assert_eq!(va, vb);
    }
}
