//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! Implements the surface the workspace's property suites use: the
//! [`proptest!`] macro (including `#![proptest_config(...)]`),
//! [`Strategy`] with [`Strategy::prop_map`], range strategies,
//! [`any`], [`collection::vec`], and the `prop_assert*` macros.
//!
//! Differences from real proptest, by design:
//!
//! - **Deterministic**: cases are generated from a fixed seed, never from
//!   OS entropy, matching the repo-wide determinism rule (DESIGN.md §5)
//!   that `cargo run -p xtask -- lint` enforces.
//! - **No shrinking**: a failing case panics with its inputs via the
//!   assertion message instead of being minimized.
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// Re-exports that mirror `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

/// Per-suite configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

/// Marker strategy produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// The full-domain strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize);

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut StdRng) -> f32 {
        // Finite full-range floats; NaN/inf edge cases are out of scope
        // for the numeric code under test.
        (rng.gen::<f32>() - 0.5) * 2.0 * f32::MAX.sqrt()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        (rng.gen::<f64>() - 0.5) * 2.0e18
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for collection strategies. Constructed
    /// via `From` on `usize` ranges — which is what makes unsuffixed
    /// literals in `vec(strat, 2..10)` infer `usize`, exactly as the real
    /// crate's `Into<SizeRange>` bound does.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// A strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn uniformly from `size`.
    pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<E> {
        element: E,
        size: SizeRange,
    }

    impl<E: Strategy> Strategy for VecStrategy<E> {
        type Value = Vec<E::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<E::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Seeds the per-property RNG. Mixes the property name so different
/// properties explore different streams, deterministically across runs.
pub fn rng_for(test_name: &str) -> StdRng {
    use rand::SeedableRng;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h)
}

/// Declares deterministic property tests (see module docs for the
/// differences from real proptest).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::rng_for(stringify!($name));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    // The closure gives `prop_assume!` an early exit that
                    // skips just this case. `mut` is required whenever the
                    // body mutates a captured binding (FnMut), unused
                    // otherwise.
                    #[allow(unused_mut)]
                    let mut case = move || { $body };
                    case();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts inside a property, reporting the failing inputs via panic.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, f in -1.0f32..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_strategy_respects_len(v in crate::collection::vec(0u8..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 5));
        }

        #[test]
        fn prop_map_applies(doubled in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert_eq!(doubled % 2, 0);
            prop_assert!(doubled < 20);
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn config_form_compiles(x in 0u64..5) {
            prop_assert!(x < 5);
        }
    }

    #[test]
    fn determinism_across_rng_instances() {
        use crate::Strategy;
        let strat = crate::collection::vec(0u32..100, 5..10);
        let a = strat.generate(&mut crate::rng_for("k"));
        let b = strat.generate(&mut crate::rng_for("k"));
        assert_eq!(a, b);
    }
}
