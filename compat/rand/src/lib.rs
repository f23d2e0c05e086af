//! Offline drop-in replacement for the subset of the `rand` 0.8 API this
//! workspace uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, and the
//! `Rng` extension methods `gen`, `gen_bool` and `gen_range`.
//!
//! The workspace builds in sandboxed environments with no registry access,
//! so external crates are replaced by in-tree equivalents (see DESIGN.md).
//! `StdRng` here is xoshiro256++ seeded through SplitMix64 — a different
//! stream than upstream's ChaCha12, but the workspace only requires
//! *determinism under a fixed seed*, never a specific stream.

#![warn(missing_docs)]

/// Types that can be sampled uniformly from raw generator output, the
/// stand-in for `Standard: Distribution<T>` bounds upstream.
pub trait FromRng {
    /// Draw one value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl FromRng for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // 53 mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for u64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

/// Ranges that `Rng::gen_range` accepts.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw a value uniformly from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased-enough integer draw in `[0, span)` via 128-bit widening multiply.
fn below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + below(rng, span) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi - lo) as u64 + 1;
                // span == 0 only when the range covers the full u64 domain,
                // which the workspace never requests.
                lo + below(rng, span) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + (self.end - self.start) * f64::from_rng(rng)
    }
}

impl SampleRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in gen_range");
        lo + (hi - lo) * f64::from_rng(rng)
    }
}

/// The subset of `rand::Rng` the workspace calls.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform draw of a primitive (`f64` in `[0, 1)`, `bool`, integers).
    fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Uniform draw from a range.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }
}

/// Seedable generators; only `seed_from_u64` is provided.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic generator (xoshiro256++, SplitMix64-seeded).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = rng.gen_range(0usize..=4);
            assert!(w <= 4);
        }
        // Every value of a small range is hit.
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn works_through_mut_ref_and_unsized_bounds() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(11);
        let v = draw(&mut rng);
        assert!((0.0..1.0).contains(&v));
        let r = &mut rng;
        let w: f64 = r.gen();
        assert!((0.0..1.0).contains(&w));
    }
}
