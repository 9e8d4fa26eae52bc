//! Offline drop-in for the subset of `proptest` this workspace uses.
//!
//! Generation is deterministic: every test function draws from a
//! [`test_runner::TestRng`] seeded by a hash of the test's name, so runs
//! are reproducible without a persistence file. Failing cases report the
//! generated arguments but are **not shrunk** — on failure, rerun with
//! the printed values as a hand-written regression test.
//!
//! Supported surface: `proptest! { ... }` with an optional
//! `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//! `name in <range|any|Just|prop_oneof|collection::vec>` arguments,
//! `Strategy::prop_map`, `prop_assert!`, `prop_assert_eq!`, and
//! `prop_assert_ne!`.

#![deny(missing_docs)]

/// Strategies: deterministic value generators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// A generator of values of an associated type.
    ///
    /// Unlike upstream proptest there is no value tree: `generate`
    /// produces a plain value and failures are not shrunk.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (upstream's `prop_map`).
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// Strategy applying a function to another strategy's values
    /// ([`Strategy::prop_map`]).
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of a fixed value.
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical "anything" strategy (see [`any`]).
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    /// Strategy for the full domain of `T` (`any::<T>()`).
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The strategy covering the whole domain of `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Builds a choice over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        #[must_use]
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Self { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact size or a half-open
    /// range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy yielding vectors of elements from an inner strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors whose elements come from `element` and whose length comes
    /// from `size` (a `usize` or a range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Test-runner configuration and deterministic RNG.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// How many cases each property runs.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Deterministic RNG handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        pub(crate) rng: StdRng,
    }

    impl TestRng {
        /// RNG seeded by a stable hash of the test name, so every run
        /// generates the same cases.
        #[must_use]
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self {
                rng: StdRng::seed_from_u64(h),
            }
        }
    }

    /// A failed property case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A failure with a message.
        #[must_use]
        pub fn fail(msg: String) -> Self {
            Self(msg)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// The names `use proptest::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` item becomes a
/// `#[test]`-style function running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                // Captured before the body runs: the body may consume
                // the generated values by move.
                let described = ::std::format!(
                    ::std::concat!($("\n  ", stringify!($arg), " = {:?}"),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    ::std::panic!(
                        "property `{}` failed at case {}/{}: {}{}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e,
                        described
                    );
                }
            }
        }
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l
                ),
            ));
        }
    }};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let options: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,
        > = ::std::vec![$(::std::boxed::Box::new($strategy)),+];
        $crate::strategy::OneOf::new(options)
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u32..10, y in -1.0f64..=1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..=1.0).contains(&y));
        }

        #[test]
        fn vec_sizes_respect_range(v in collection::vec(0i8..=5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6, "len {}", v.len());
            prop_assert!(v.iter().all(|&x| (0..=5).contains(&x)));
        }

        #[test]
        fn oneof_only_picks_listed(k in prop_oneof![Just(1usize), Just(3), Just(7)]) {
            prop_assert!(k == 1 || k == 3 || k == 7);
            prop_assert_ne!(k, 2);
        }

        #[test]
        fn prop_map_applies_function(p in (0u32..8).prop_map(|b| 1u64 << b)) {
            prop_assert!(p.is_power_of_two() && p <= 128);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn any_i8_covers_domain(w in any::<i8>()) {
            prop_assert_eq!(i16::from(w), w as i16);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(0u64..1000, 8usize);
        let mut a = crate::test_runner::TestRng::for_test("t");
        let mut b = crate::test_runner::TestRng::for_test("t");
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
