//! Shared interval sampling for the engine's Poisson processes.
//!
//! Worker churn, independent worker crashes, correlated rack crashes and
//! Poisson task arrivals are all renewal processes with exponential
//! inter-arrival times. They draw from *different* seeded streams (so an
//! all-zero fault plan consumes nothing from the churn or arrival streams),
//! but the transformation from a uniform draw to an interval is one and the
//! same — and it must stay bit-identical across call sites, because golden
//! tests pin the resulting event timelines byte for byte.

use rand::Rng;

/// One exponential inter-arrival interval with the given mean, in seconds.
///
/// Inverse-CDF sampling on `1 - U` (never zero, so the log is finite):
/// `-mean * ln(1 - U)`. The caller applies its own floor — event processes
/// clamp to a small positive step to guarantee forward progress, while
/// Poisson arrivals tolerate zero-length gaps.
pub fn exponential_interval_s<R: Rng>(rng: &mut R, mean_s: f64) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean_s * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_is_deterministic_given_seed() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|_| exponential_interval_s(&mut rng, 12.5))
                .collect::<Vec<f64>>()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay the same stream");
        assert_ne!(draw(7), draw(8), "different seeds must diverge");
    }

    #[test]
    fn sampler_matches_the_engine_idiom_bit_for_bit() {
        // The engine historically inlined `-mean * (1 - U).ln()` at three
        // call sites; the shared helper must reproduce that transformation
        // exactly so refactored schedules stay byte-identical.
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..128 {
            let u: f64 = 1.0 - a.gen::<f64>();
            let want = -20.0 * u.ln();
            let got = exponential_interval_s(&mut b, 20.0);
            assert!(got.to_bits() == want.to_bits(), "{got} vs {want}");
        }
    }

    #[test]
    fn intervals_are_positive_finite_and_scale_with_the_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum_short = 0.0;
        let mut sum_long = 0.0;
        for _ in 0..2000 {
            let dt = exponential_interval_s(&mut rng, 5.0);
            assert!(dt.is_finite() && dt >= 0.0, "{dt}");
            sum_short += dt;
            sum_long += exponential_interval_s(&mut rng, 50.0);
        }
        // Sample means land near the configured means (loose tolerance).
        let mean_short = sum_short / 2000.0;
        let mean_long = sum_long / 2000.0;
        assert!((4.0..6.0).contains(&mean_short), "{mean_short}");
        assert!((45.0..55.0).contains(&mean_long), "{mean_long}");
    }
}
