//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! Random generation only: each `proptest!` test runs its body over
//! `ProptestConfig::cases` deterministic pseudo-random inputs. There is
//! **no shrinking** — a failing case reports the case number and the
//! assertion message, not a minimized counterexample.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng as _;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// The RNG threaded through strategies by the runner.
    pub type TestRng = StdRng;

    /// A generator of values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Type-erase the strategy (cheaply clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
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

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice among boxed strategies — the engine of `prop_oneof!`.
    pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Clone for OneOf<T> {
        fn clone(&self) -> Self {
            OneOf(self.0.clone())
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
            let i = rng.gen_range(0..self.0.len());
            self.0[i].generate(rng)
        }
    }

    /// Always produce a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(i32, i64, u32, u64, usize, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
    }
}

pub mod arbitrary {
    use super::strategy::{Strategy, TestRng};
    use rand::Rng as _;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.gen()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.gen()
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.gen()
        }
    }

    impl Arbitrary for i64 {
        fn arbitrary(rng: &mut TestRng) -> i64 {
            rng.gen::<u64>() as i64
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Debug)]
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use rand::Rng as _;
    use std::ops::{Range, RangeInclusive};

    /// Vector lengths accepted by [`vec()`].
    pub trait SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element`-generated values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

pub mod test_runner {
    use rand::SeedableRng as _;

    /// Runner configuration; only `cases` is honoured by this shim.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    /// Drive one property over `config.cases` pseudo-random cases. Input
    /// generation is deterministic per test name, so failures reproduce.
    pub fn run<F>(config: ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut super::strategy::TestRng) -> Result<(), TestCaseError>,
    {
        // FNV-1a over the test name: stable per-test seed stream.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        let mut passed = 0u32;
        let mut attempts = 0u64;
        let max_attempts = config.cases as u64 * 16;
        while passed < config.cases {
            if attempts >= max_attempts {
                panic!(
                    "proptest '{name}': too many prop_assume! rejections \
                     ({passed}/{} cases after {attempts} attempts)",
                    config.cases
                );
            }
            let mut rng = super::strategy::TestRng::seed_from_u64(
                seed.wrapping_add(attempts.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            attempts += 1;
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed at case {passed} (attempt {attempts}): {msg}")
                }
            }
        }
    }
}

/// `use proptest::prelude::*;` — everything a property test needs.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::test_runner::run(__config, stringify!($name), |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                $body
                ::std::result::Result::Ok(())
            });
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3..10u32, y in -5i64..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn map_and_oneof_compose(
            t in prop_oneof![
                (0u32..4).prop_map(|v| (false, v as u64)),
                (0u64..3).prop_map(|c| (true, c)),
            ],
            v in crate::collection::vec(0..5u32, 1..=3),
        ) {
            let (is_const, n) = t;
            prop_assert!(if is_const { n < 3 } else { n < 4 });
            prop_assert!((1..=3).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 5));
        }
    }

    proptest! {
        #[test]
        fn assume_rejects_and_retries(x in 0..100u32) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_info() {
        crate::test_runner::run(ProptestConfig::with_cases(8), "always_fails", |_rng| {
            Err(crate::test_runner::TestCaseError::Fail("boom".into()))
        });
    }
}
