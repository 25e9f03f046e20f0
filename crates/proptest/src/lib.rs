//! Offline stand-in for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a small randomized-testing harness exposing the surface its
//! property tests rely on:
//!
//! * the [`Strategy`] trait with `prop_map` / `prop_flat_map`,
//! * range strategies (`0usize..10`, `1..=4`, `0.0f64..1.0`), tuples
//!   of strategies, [`Just`], and [`collection::vec`],
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`], and
//!   [`prop_oneof!`] macros,
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest: cases are generated from a fixed
//! deterministic seed sequence (one RNG per case index), and there is
//! **no shrinking** — a failing case panics with the generated values'
//! `Debug` representation where available. For a reproduction codebase
//! with deterministic CI, that trade is acceptable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::{Range, RangeInclusive};

/// The per-case random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A deterministic RNG for the given case index.
    pub fn for_case(case: u64) -> TestRng {
        TestRng {
            state: 0x9E3779B97F4A7C15u64.wrapping_mul(case.wrapping_add(0x51BF_D1ED)),
        }
    }

    /// The next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running the given number of cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A generator of random test inputs.
///
/// Object-safe: `generate` takes the concrete [`TestRng`], so boxed
/// strategies (used by [`prop_oneof!`]) work.
pub trait Strategy {
    /// The type of value generated.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and samples
    /// the result (dependent generation).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (built by [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over the given options.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (rng.next_u64() as u128 * span) >> 64;
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let draw = (rng.next_u64() as u128 * span) >> 64;
                (start as i128 + draw as i128) as $t
            }
        }
    )*};
}
int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            // The cast is trivial for the widest instantiation (f64).
            #[allow(trivial_numeric_casts)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
float_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $i:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )+};
}
tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6),
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7),
);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use core::ops::{Range, RangeInclusive};

    /// Lengths accepted by [`vec()`]: an exact size or a range of sizes.
    pub trait IntoSizeRange {
        /// Draws a length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start() <= self.end(), "empty size range");
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// A strategy generating `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length comes from `len` (a `usize` or a range).
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual glob import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..u64::from(config.cases) {
                    let mut __proptest_rng = $crate::TestRng::for_case(case);
                    $(
                        let $pat =
                            $crate::Strategy::generate(&($strat), &mut __proptest_rng);
                    )+
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (panics on failure; this
/// stand-in performs no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $( Box::new($strat) as $crate::BoxedStrategy<_> ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(i in 3usize..10, x in -1.0f64..1.0, k in 1usize..=4) {
            prop_assert!((3..10).contains(&i));
            prop_assert!((-1.0..1.0).contains(&x));
            prop_assert!((1..=4).contains(&k));
        }

        #[test]
        fn vec_sizes_follow_the_range(v in crate::collection::vec(0.0f64..1.0, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for x in &v {
                prop_assert!((0.0..1.0).contains(x));
            }
        }

        #[test]
        fn flat_map_threads_dependencies(
            (n, v) in (1usize..5).prop_flat_map(|n| {
                (Just(n), crate::collection::vec(0u64..100, n))
            })
        ) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn oneof_picks_among_options(x in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(x == 1u8 || x == 2u8);
            prop_assert_ne!(x, 0u8);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::for_case(5);
        let mut b = crate::TestRng::for_case(5);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
