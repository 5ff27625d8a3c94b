//! Offline stand-in for the
//! [`proptest`](https://crates.io/crates/proptest) crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the proptest API surface its property tests use: the [`proptest!`]
//! macro with `#![proptest_config(..)]`, range strategies
//! (`0.0f64..1.0`, `1usize..40`, …), `prop::collection::vec`, and the
//! `prop_assert!` family. Each test runs `Config::cases` deterministic
//! randomized cases (seeded per case index); there is no shrinking — a
//! failing case panics with the values embedded in the assertion
//! message via the per-case seed.
//!
//! Replace this stub with the real crate by pointing the
//! `[workspace.dependencies]` entry back at crates.io.

#![warn(missing_docs)]
#![warn(clippy::all)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runner configuration, mirroring `proptest::test_runner`.
pub mod test_runner {
    /// How many randomized cases each property test executes.
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Number of cases.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` randomized cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }
}

/// Value-generation strategies, mirroring `proptest::strategy`.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draw one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// A strategy yielding one fixed value (`proptest::strategy::Just`).
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` strategy: each element from `element`, length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(!size.is_empty(), "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Conventional glob-import module, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Mirror of the `prop` umbrella module re-exported by the prelude.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Per-case RNG: deterministic per (test invocation, case index).
pub fn case_rng(case: u32) -> StdRng {
    StdRng::seed_from_u64(0xc0ff_ee00_u64 ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Assert within a property test (no shrinking: panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert within a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert within a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Mirror of proptest's `proptest!` block macro: each `fn name(pat in
/// strategy, ..) { body }` becomes a test running `Config::cases`
/// deterministic randomized cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::Config = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::case_rng(__case);
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn floats_stay_in_range(x in 0.25f64..0.75) {
            prop_assert!((0.25..0.75).contains(&x));
        }

        #[test]
        fn vec_lengths_respect_size_range(
            v in prop::collection::vec(-1.0f64..1.0, 3..9),
            n in 1usize..5,
        ) {
            prop_assert!((3..9).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
            prop_assert_ne!(n, 0);
        }
    }

    #[test]
    fn cases_are_deterministic_per_index() {
        use crate::strategy::Strategy;
        let a = (0.0f64..1.0).generate(&mut crate::case_rng(5));
        let b = (0.0f64..1.0).generate(&mut crate::case_rng(5));
        assert_eq!(a, b);
        let c = (0.0f64..1.0).generate(&mut crate::case_rng(6));
        assert_ne!(a, c);
    }
}
