//! Offline stand-in for the `proptest` crate.
//!
//! Provides the subset the workspace's property tests use: integer-range
//! and `\PC{n,m}` string strategies, `prop_map`, `collection::vec`,
//! `sample::select`, and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` macros. Cases are generated from a deterministic
//! per-test seed (hash of the test name), so CI failures reproduce
//! locally; there is **no shrinking** — a failure reports the case
//! number, and the deterministic stream makes the failing inputs
//! recoverable by re-running the test under a debugger.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Runner configuration; only `cases` is honored.
#[derive(Debug, Clone)]
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
        ProptestConfig { cases: 64 }
    }
}

/// Failure carried out of a test case by the `prop_assert*` macros.
#[derive(Debug)]
pub struct TestCaseError {
    pub message: String,
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

pub mod test_runner {
    use super::*;

    /// Deterministic per-test random source.
    pub struct TestRng {
        pub(crate) rng: StdRng,
    }

    impl TestRng {
        /// Seeded from the test name so each test has a stable stream.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                rng: StdRng::seed_from_u64(h),
            }
        }
    }
}

use test_runner::TestRng;

/// A generator of values for one test argument.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<F, R>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> R,
    {
        Map { inner: self, f }
    }
}

/// Mapped strategy (`prop_map`).
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(S::Value) -> R, R> Strategy for Map<S, F> {
    type Value = R;
    fn sample(&self, rng: &mut TestRng) -> R {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_tuple_strategy {
    ($($s:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case, reason = "strategy type parameters double as binding names")]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// String pattern strategy. Supports the `\PC{lo,hi}` form (a string of
/// `lo..hi` printable characters) the workspace tests use; other regex
/// forms are rejected loudly rather than silently misgenerated.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = parse_pc_pattern(self)
            .unwrap_or_else(|| panic!("proptest-shim: unsupported string pattern {self:?}"));
        let len = if hi > lo {
            rng.rng.random_range(lo..hi)
        } else {
            lo
        };
        // Bias toward markup-relevant characters so parser fuzzing hits
        // interesting paths, with some multi-byte characters mixed in.
        const POOL: &[char] = &[
            '<', '>', '&', '/', '"', '\'', '=', ';', '!', '?', '[', ']', '-', ' ', '.', ':', 'a',
            'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '1', '9', '_', '#', '(', ')', '*', 'é', 'λ',
            '中', '\u{200b}',
        ];
        (0..len)
            .map(|_| POOL[rng.rng.random_range(0..POOL.len())])
            .collect()
    }
}

fn parse_pc_pattern(p: &str) -> Option<(usize, usize)> {
    let body = p.strip_prefix("\\PC{")?.strip_suffix('}')?;
    let (lo, hi) = body.split_once(',')?;
    Some((
        lo.trim().parse().ok()?,
        hi.trim().parse::<usize>().ok()? + 1,
    ))
}

pub mod collection {
    use super::*;

    /// `vec(element, size_range)` — length drawn from the half-open range.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.end > self.size.start {
                rng.rng.random_range(self.size.clone())
            } else {
                self.size.start
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    use super::*;

    /// Uniformly selects one of the given values.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select over empty options");
        Select { options }
    }

    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.options[rng.rng.random_range(0..self.options.len())].clone()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError {
                message: format!("assertion failed: {}", stringify!($cond)),
            });
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError {
                message: format!($($fmt)+),
            });
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError {
                message: format!("assertion failed: {:?} != {:?}", a, b),
            });
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::TestCaseError {
                message: format!($($fmt)+),
            });
        }
    }};
}

/// Declares property tests. Each `fn name(arg in strategy, ...)` becomes
/// a `#[test]` running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            #[allow(unreachable_code, reason = "a body that always returns makes the trailing Ok dead")]
                            Ok(())
                        })();
                    if let Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {case}/{}: {e}",
                            stringify!($name),
                            config.cases,
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pc_pattern_parses() {
        assert_eq!(super::parse_pc_pattern("\\PC{0,200}"), Some((0, 201)));
        assert_eq!(super::parse_pc_pattern("\\PC{3,8}"), Some((3, 9)));
        assert_eq!(super::parse_pc_pattern("[a-z]+"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u8..9, n in 0usize..5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(n < 5);
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(0u8..7, 2..6)) {
            prop_assert!((2..6).contains(&v.len()), "len {}", v.len());
            for x in &v {
                prop_assert!(*x < 7);
            }
        }

        #[test]
        fn map_and_select(s in prop::sample::select(vec!["a", "bb"]), t in "\\PC{0,10}") {
            prop_assert!(s == "a" || s == "bb");
            prop_assert!(t.chars().count() <= 10);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_reported() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn inner(x in 0u8..1) {
                prop_assert_eq!(x, 1, "x was {}", x);
            }
        }
        inner();
    }
}
