//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the subset of the proptest API its test suites use: the [`proptest!`]
//! macro, [`Strategy`] implementations for primitive ranges,
//! [`collection::vec`], [`any`], the `prop_assert*` macros and
//! [`ProptestConfig::with_cases`]. Cases are generated from a per-test
//! deterministic RNG (seeded from the test's name), so failures are
//! reproducible run to run. There is no shrinking: a failing case reports
//! its inputs and panics.

use std::fmt::Debug;
use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test-runner configuration (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A value generator (subset of proptest's `Strategy`: generation only,
/// no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

/// Anything a reference to a strategy can do, the strategy can.
impl<S: Strategy> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> S::Value {
        (**self).new_value(rng)
    }
}

/// Whole-domain strategies ([`any`]).
pub struct AnyStrategy<T>(PhantomData<T>);

/// Types with a whole-domain default strategy.
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen()
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T` (subset of `proptest::arbitrary`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// A strategy always yielding clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    //! Collection strategies (subset: `vec`).

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Element-count range for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// A strategy producing `Vec`s of `element` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of values from `element`, sized within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Builds the deterministic per-test RNG (used by the macro expansion so
/// downstream crates need no direct `rand` dependency).
#[doc(hidden)]
pub fn new_test_rng(seed: u64) -> TestRng {
    TestRng::seed_from_u64(seed)
}

/// FNV-1a over a test name: the per-test RNG seed.
#[doc(hidden)]
pub fn seed_for_test(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

pub mod prelude {
    //! The usual imports, mirroring `proptest::prelude`.
    pub use crate::collection;
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs through the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand ($cfg) $($rest)*);
    };
    (@expand ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::new_test_rng($crate::seed_for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            )));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::new_value(&($strat), &mut rng);)*
                let desc = format!("{:?}", ($(&$arg,)*));
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || $body
                ));
                if let Err(panic) = outcome {
                    eprintln!(
                        "proptest {}: case {}/{} failed with inputs ({}) = {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        stringify!($($arg),*),
                        desc
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@expand ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a property (panics with the condition text).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_hold(x in 3u32..10, y in 0usize..=4, f in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vectors_sized(v in collection::vec(0u8..4, 1..=16), b in any::<bool>()) {
            prop_assert!(!v.is_empty() && v.len() <= 16);
            prop_assert!(v.iter().all(|&c| c < 4));
            prop_assert!(u8::from(b) <= 1);
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(super::seed_for_test("a"), super::seed_for_test("b"));
        assert_eq!(super::seed_for_test("a"), super::seed_for_test("a"));
    }
}
