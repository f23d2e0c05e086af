//! Statistical validation of generated workloads.
//!
//! The trace synthesizers claim to match the distributions documented in
//! §III-B and §V-B; this module makes the claim testable with a
//! Kolmogorov–Smirnov statistic against the intended CDF, plus moment
//! helpers. Compiled for the crate's test suites only.

use crate::dist::Dist;

/// The one-sample Kolmogorov–Smirnov statistic `D_n = sup |F_n(x) − F(x)|`
/// of `samples` against the reference `cdf`.
pub fn ks_statistic<F: Fn(f64) -> f64>(samples: &[f64], cdf: F) -> f64 {
    assert!(!samples.is_empty(), "KS statistic of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        // Empirical CDF jumps at each sample: compare both sides.
        let below = i as f64 / n;
        let above = (i + 1) as f64 / n;
        d = d.max((f - below).abs()).max((above - f).abs());
    }
    d
}

/// The asymptotic KS critical value at significance `alpha` for sample size
/// `n` (`D > critical` rejects the hypothesis). Uses the standard
/// `c(α)·√(1/n)` approximation, valid for `n ≳ 35`.
pub fn ks_critical(n: usize, alpha: f64) -> f64 {
    assert!(n > 0);
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c / (n as f64).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (|error| < 1.5e-7 — far below KS resolution at our sample sizes).
pub fn normal_cdf(x: f64, mean: f64, std_dev: f64) -> f64 {
    let z = (x - mean) / (std_dev * std::f64::consts::SQRT_2);
    0.5 * (1.0 + erf(z))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// CDF of a [`Dist`], ignoring truncation (adequate for validation away
/// from the clamp points). Mixtures and phases compose the component CDFs.
pub fn dist_cdf(dist: &Dist, x: f64) -> f64 {
    match *dist {
        Dist::Constant(v) => {
            if x >= v {
                1.0
            } else {
                0.0
            }
        }
        Dist::Normal { mean, std_dev, .. } => normal_cdf(x, mean, std_dev),
        Dist::Uniform { lo, hi } => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
        Dist::Exponential { offset, mean, .. } => {
            if x <= offset {
                0.0
            } else {
                1.0 - (-(x - offset) / mean).exp()
            }
        }
        Dist::Bimodal {
            p_low,
            low_mean,
            low_std,
            high_mean,
            high_std,
            ..
        } => {
            p_low * normal_cdf(x, low_mean, low_std)
                + (1.0 - p_low) * normal_cdf(x, high_mean, high_std)
        }
    }
}

/// Sample mean.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (population form).
pub fn std_dev(samples: &[f64]) -> f64 {
    let m = mean(samples);
    (samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_reference_values() {
        // erf(0)=0, erf(1)≈0.8427, erf(−1)≈−0.8427, erf(2)≈0.9953
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 2e-7);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_27).abs() < 2e-7);
    }

    #[test]
    fn ks_accepts_matching_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..5000)
            .map(|_| dist::normal(&mut rng, 10.0, 2.0))
            .collect();
        let d = ks_statistic(&samples, |x| normal_cdf(x, 10.0, 2.0));
        let crit = ks_critical(samples.len(), 0.01);
        assert!(d < crit, "D {d} ≥ critical {crit}");
    }

    #[test]
    fn ks_rejects_wrong_distribution() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..5000)
            .map(|_| dist::normal(&mut rng, 10.0, 2.0))
            .collect();
        // Against a shifted reference, the statistic must blow past critical.
        let d = ks_statistic(&samples, |x| normal_cdf(x, 12.0, 2.0));
        let crit = ks_critical(samples.len(), 0.01);
        assert!(d > 3.0 * crit, "D {d} should reject");
    }

    #[test]
    fn generator_samples_pass_ks_against_their_dist() {
        let cases = [
            Dist::Normal {
                mean: 4000.0,
                std_dev: 800.0,
                min: 0.0,
            },
            Dist::Uniform {
                lo: 1000.0,
                hi: 8000.0,
            },
            Dist::Exponential {
                offset: 500.0,
                mean: 2000.0,
                max: 1e12,
            },
            Dist::Bimodal {
                p_low: 0.5,
                low_mean: 2000.0,
                low_std: 250.0,
                high_mean: 6000.0,
                high_std: 400.0,
                min: 0.0,
            },
        ];
        let mut rng = StdRng::seed_from_u64(3);
        for d in cases {
            let samples: Vec<f64> = (0..4000).map(|_| d.sample(&mut rng)).collect();
            let stat = ks_statistic(&samples, |x| dist_cdf(&d, x));
            let crit = ks_critical(samples.len(), 0.01);
            assert!(stat < crit, "{d:?}: D {stat} ≥ {crit}");
        }
    }

    #[test]
    fn critical_value_shrinks_with_n() {
        assert!(ks_critical(100, 0.05) > ks_critical(10_000, 0.05));
        // Known value: c(0.05) ≈ 1.358 ⇒ n=100 → ≈0.1358.
        assert!((ks_critical(100, 0.05) - 0.1358).abs() < 1e-3);
    }

    #[test]
    fn moments() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(std_dev(&v), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_rejected() {
        ks_statistic(&[], |_| 0.5);
    }
}
