//! Offline property-testing harness exposing the subset of the `proptest`
//! API this workspace's tests use: the `proptest!` macro, `prop_assert!`/
//! `prop_assert_eq!`, range and tuple strategies, `prop::collection::vec`,
//! `prop::option::of`, `prop::sample::select`, `prop_oneof!`, `Just`,
//! `any::<bool>()`, `.prop_map(...)` and `ProptestConfig::with_cases`.
//!
//! Differences from upstream: cases are generated from a fixed seed mixed
//! with the case index (fully deterministic across runs), and failing cases
//! are reported but **not shrunk**.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A failing property observation.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Build a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values for one property argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(move |rng: &mut TestRng| self.generate(rng)),
        }
    }
}

/// A type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<T> {
    #[allow(clippy::type_complexity)]
    inner: std::rc::Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.inner)(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($range:ty),*) => {$(
        impl Strategy for $range {
            type Value = <$range as rand::SampleRange>::Output;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(
    std::ops::Range<usize>,
    std::ops::RangeInclusive<usize>,
    std::ops::Range<u64>,
    std::ops::Range<u32>,
    std::ops::Range<f64>,
    std::ops::RangeInclusive<f64>
);

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);

/// Types with a canonical `any::<T>()` strategy.
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.gen()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// `Vec` of values from `element`, with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy yielding `None` 25% of the time, mirroring upstream.
    pub struct OptionStrategy<S>(S);

    /// `Option` of values from `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Uniform choice from a fixed list.
    pub struct Select<T: Clone>(Vec<T>);

    /// Choose uniformly from `options` (must be non-empty).
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }
}

/// Union of same-valued strategies (used by `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from pre-boxed strategies.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! requires at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

/// Run one property across `config.cases` deterministic cases.
///
/// `gen_args` draws the argument tuple; `body` returns `Err` (via
/// `prop_assert!`) or panics on failure. Used by the `proptest!` macro.
pub fn run_property<A: Clone + std::fmt::Debug>(
    test_name: &str,
    config: &ProptestConfig,
    gen_args: impl Fn(&mut TestRng) -> A,
    body: impl Fn(A) -> Result<(), TestCaseError>,
) {
    // Stable per-test stream: hash the test name into the seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for case in 0..config.cases {
        let mut rng =
            TestRng::seed_from_u64(h ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1)));
        let args = gen_args(&mut rng);
        let shown = format!("{args:?}");
        let cloned = args.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(cloned)));
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!(
                "property `{test_name}` failed at case {case}/{total}: {e}\n  args: {shown}",
                total = config.cases
            ),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                panic!(
                    "property `{test_name}` panicked at case {case}/{total}: {msg}\n  args: {shown}",
                    total = config.cases
                )
            }
        }
    }
}

/// Assert inside a property, reporting the failing case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
}

/// Union of strategies, chosen uniformly.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Define property tests, proptest-style.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (@cfg ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::run_property(
                    stringify!($name),
                    &config,
                    |rng| ($($crate::Strategy::generate(&($strategy), rng),)*),
                    |($($arg,)*)| { $body Ok(()) },
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// The prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}
