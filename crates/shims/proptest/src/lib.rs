//! Offline miniature stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this shim implements the
//! small slice of proptest's API that the workspace's property tests use:
//!
//! * [`Strategy`] with `prop_map`, implemented for numeric [`Range`]s and
//!   tuples of strategies,
//! * [`collection::vec()`], [`any`] and [`Just`],
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`] and [`prop_assume!`] macros.
//!
//! Unlike real proptest there is no shrinking and no persisted failure seeds:
//! each test runs a fixed number of cases (`PROPTEST_CASES`, default 128)
//! drawn from a deterministic splitmix64 stream, so failures reproduce
//! run-to-run. Swapping the real crate back in is a manifest-only change.

use std::marker::PhantomData;
use std::ops::Range;

/// Number of generated cases per property, overridable via the
/// `PROPTEST_CASES` environment variable (mirroring real proptest).
pub fn case_count() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

/// Deterministic splitmix64 generator used to drive strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Create a generator for one test case; `case` indexes the case within
    /// the property so every case sees an independent stream.
    pub fn for_case(property: &str, case: u32) -> Self {
        // FNV-1a over the property name keeps streams distinct per test.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in property.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Self {
            state: h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of values for one property argument. Mirror of
/// `proptest::strategy::Strategy`, minus shrinking.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value from the strategy.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform every drawn value through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
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
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! uint_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                if span == 0 {
                    self.start
                } else {
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        }
    )*};
}

uint_range_strategy!(u8, u16, u32, u64, usize);

// Signed ranges can span more than the type's positive half (e.g.
// `i32::MIN..i32::MAX`), so the width and the offset add are computed with
// wrapping arithmetic; the result still lands in `[start, end)`.
macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                if span == 0 {
                    self.start
                } else {
                    self.start.wrapping_add((rng.next_u64() % span) as $t)
                }
            }
        }
    )*};
}

int_range_strategy!(i32, i64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5)
);

/// Strategy that always yields a clone of one value, mirroring
/// `proptest::strategy::Just`.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy that draws from one of several strategies, each picked with
/// probability proportional to its weight: what [`prop_oneof!`] builds.
pub struct Union<T> {
    options: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    total: u64,
}

impl<T> Union<T> {
    /// A union over `(weight, strategy)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when every weight is zero: there is nothing to pick.
    pub fn new_weighted(options: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
        let total = options.iter().map(|&(w, _)| u64::from(w)).sum();
        assert!(total > 0, "prop_oneof! needs a positive weight");
        Union { options, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.next_u64() % self.total;
        for (weight, strategy) in &self.options {
            if pick < u64::from(*weight) {
                return strategy.sample(rng);
            }
            pick -= u64::from(*weight);
        }
        unreachable!("the pick lies below the total weight")
    }
}

/// Strategy for the full range of a type, mirroring `proptest::arbitrary::any`.
pub fn any<T: ArbitraryValue>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(PhantomData<T>);

/// Types [`any`] knows how to generate.
pub trait ArbitraryValue {
    /// Draw an unconstrained value of this type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryValue for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl ArbitraryValue for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: ArbitraryValue> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for a `Vec` whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = Strategy::sample(&self.len, rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Error type carried by a failing `prop_assert!` before it is turned into a
/// panic by the [`proptest!`] harness.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Outcome of one generated case: pass, assumption-rejected, or failed.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, Strategy,
        TestCaseError,
    };
}

/// Define property tests. Each function runs [`case_count`] generated cases;
/// the first failing case panics with the rendered assertion message.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let cases = $crate::case_count();
            for case in 0..cases {
                let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                let outcome: $crate::TestCaseResult = (|| {
                    $body
                    Ok(())
                })();
                if let Err(e) = outcome {
                    panic!("property {} failed at case {}/{}: {}", stringify!($name), case, cases, e);
                }
            }
        }
    )*};
}

/// A strategy that draws from one of the given strategies, all yielding one
/// type: uniformly, or by the `weight => strategy` weights given.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![$((
            $weight,
            Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>,
        )),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

/// Fail the current generated case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Fail the current generated case unless the two operands are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)*),
                l,
                r
            )));
        }
    }};
}

/// Skip the current generated case (count it as passing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}
