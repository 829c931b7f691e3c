//! Hermetic stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal, API-compatible subset of proptest: enough for the
//! property tests in `tests/properties.rs` and the crates' dev-tests.
//! Sampling is *deterministic* — each test derives its RNG seed from its
//! own name, so a failure reproduces on every run. That determinism is
//! itself a repo invariant (see DESIGN.md §"Static analysis & invariants").
//!
//! Supported surface:
//! * `proptest! { #[test] fn name(x in strategy, ...) { ... } }`
//! * `prop_assert!`, `prop_assert_eq!`, `prop_assume!`
//! * Range strategies over the numeric types the tests use
//! * Tuples of strategies (2–4 elements), sampled left to right
//! * `proptest::collection::vec(elem, len)` with fixed or ranged length
//! * `prop::bool::ANY`

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type — the proptest `Strategy`
    /// trait reduced to plain sampling (no shrinking).
    pub trait Strategy {
        /// The value type produced.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! sint_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i64 - self.start as i64) as u64;
                    (self.start as i64 + (rng.next_u64() % span) as i64) as $t
                }
            }
        )*};
    }
    sint_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f32> {
        type Value = f32;
        fn sample(&self, rng: &mut TestRng) -> f32 {
            self.start + rng.unit_f64() as f32 * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident/$idx:tt),+)),*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy!(
        (A / 0, B / 1),
        (A / 0, B / 1, C / 2),
        (A / 0, B / 1, C / 2, D / 3)
    );

    /// Strategy for `prop::bool::ANY`.
    #[derive(Copy, Clone, Debug)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec()`]: a fixed size or a range.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    /// Strategy producing vectors whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: Box<dyn Fn(&mut TestRng) -> usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = (self.size)(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec` — element strategy plus fixed or
    /// ranged length.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange + 'static) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: Box::new(move |rng| size.pick(rng)),
        }
    }
}

pub mod test_runner {
    /// Cases drawn per property. Chosen so the whole property suite stays
    /// inside tier-1 test time.
    pub const DEFAULT_CASES: u64 = 64;

    /// SplitMix64 — tiny, high-quality, and dependency-free. Seeded from
    /// the test name so every run of a given property sees the same case
    /// sequence (determinism is a repo invariant; `thread_rng` is banned
    /// by `xtask lint`).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG seeded from an arbitrary string (the test's name).
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name for the seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            Self { state: h }
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// The `prop::` namespace (`prop::bool::ANY`).
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        /// Either boolean, uniformly.
        pub const ANY: crate::strategy::AnyBool = crate::strategy::AnyBool;
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Declares deterministic property tests. Each listed function becomes a
/// `#[test]` that samples its arguments [`test_runner::DEFAULT_CASES`]
/// times and runs the body per case.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng =
                    $crate::test_runner::TestRng::from_name(stringify!($name));
                for __case in 0..$crate::test_runner::DEFAULT_CASES {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    // One closure per case so `prop_assume!` can skip the
                    // case with an early return.
                    let __case_body = || { $body };
                    __case_body();
                }
            }
        )*
    };
}

/// Asserts a property holds for the sampled case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts two values are equal for the sampled case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Skips cases that don't satisfy a precondition.
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
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        // Overwhelmingly likely distinct streams for distinct names.
        assert_ne!(TestRng::from_name("x").next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..1000 {
            let u = (3usize..17).sample(&mut rng);
            assert!((3..17).contains(&u));
            let f = (-2.0f32..3.5).sample(&mut rng);
            assert!((-2.0..3.5).contains(&f));
            let v = collection::vec(0u64..5, 2usize..6).sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 5));
            let (p, q) = (1u64..4, 10usize..12).sample(&mut rng);
            assert!((1..4).contains(&p) && (10..12).contains(&q));
        }
    }

    proptest! {
        #[test]
        fn macro_samples_and_runs(a in 0u64..10, b in 0u64..10) {
            prop_assume!(a != b);
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(a + b, b + a);
        }
    }
}
