//! Minimal, deterministic stand-in for the slice of `proptest` this
//! workspace uses: the [`proptest!`] macro, [`strategy::Strategy`] with
//! `prop_map`, `any::<T>()`, integer/float range strategies, tuple
//! strategies, and [`collection::vec`].
//!
//! Unlike real proptest there is no shrinking and no persisted failure
//! corpus: each property runs a fixed number of deterministically generated
//! cases (seeded from the test name), and failures panic via the standard
//! `assert!` family, so `cargo test` reports them like any other test.

/// Deterministic case generation.
pub mod test_runner {
    /// Number of cases each property runs by default.
    pub const CASES: u64 = 64;

    /// Per-block configuration, mirroring `proptest::test_runner::Config`
    /// under its `ProptestConfig` prelude alias.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of cases each property in the block runs.
        pub cases: u64,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: CASES }
        }
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        #[must_use]
        pub fn with_cases(cases: u64) -> Self {
            ProptestConfig { cases }
        }
    }

    /// The deterministic generator feeding strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from the property's name, so every property
        /// gets an independent but reproducible stream.
        #[must_use]
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 uniformly random bits (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A uniform value below `bound` (rejection-sampled).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of an output type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
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

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty strategy range");
                    let span = (end - start) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    int_strategies!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            self.start + unit * (self.end - self.start)
        }
    }

    /// Types with a canonical full-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in &mut out {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-domain strategy for `T`, mirroring `proptest::prelude::any`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.start < self.size.end, "empty size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A vector strategy with element strategy `element` and a length drawn
    /// from `size`, mirroring `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests: each `fn name(pat in strategy, ...)` becomes an
/// ordinary `#[test]` running a fixed number of deterministic cases
/// (configurable with a leading `#![proptest_config(..)]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_with_config! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_with_config! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_with_config {
    (($config:expr) $($(#[$attr:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$attr])*
        fn $name() {
            let mut __proptest_rng =
                $crate::test_runner::TestRng::for_test(stringify!($name));
            let __proptest_cases: u64 = ($config).cases;
            for __proptest_case in 0..__proptest_cases {
                let _ = __proptest_case;
                let ($($pat,)+) = (
                    $($crate::strategy::Strategy::sample(&($strat), &mut __proptest_rng),)+
                );
                $body
            }
        }
    )*};
}

/// Asserts a property-test condition (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality in a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality in a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0u64..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 5);
        }

        #[test]
        fn map_and_vec_compose(v in collection::vec(any::<u8>(), 1..16),
                               w in (0u32..4, 0u32..4).prop_map(|(a, b)| a + b)) {
            prop_assert!(!v.is_empty() && v.len() < 16);
            prop_assert!(w <= 6);
        }

        #[test]
        fn assume_skips_cases(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x % 2, 1);
        }
    }
}
