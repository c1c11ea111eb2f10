//! In-tree stand-in for the subset of the [`proptest`] crate this
//! workspace uses, so property tests run with zero network dependencies.
//!
//! The build environment cannot reach a crates.io mirror, so the workspace
//! vendors the property-testing surface its test suites call: the
//! [`proptest!`] macro (with `#![proptest_config(...)]` headers and
//! `pattern in strategy` bindings), the [`strategy::Strategy`] trait with
//! `prop_map`, numeric-range / tuple / [`collection::vec`] /
//! [`sample::select`] / [`strategy::Just`] strategies, [`prop_oneof!`],
//! and the `prop_assert*` / [`prop_assume!`] macros.
//!
//! Semantics are deliberately simpler than upstream: each test runs
//! `ProptestConfig::cases` random cases from a seed derived
//! deterministically from the test's module path and name (so failures
//! reproduce across runs), and there is **no shrinking** — a failing case
//! reports the case number and assertion message only. That trade keeps
//! the stand-in small while preserving the meaning of every existing
//! property test; swapping back to the real crate is one
//! `[workspace.dependencies]` edit.

pub mod collection;
pub mod prelude;
pub mod sample;
pub mod strategy;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Runner configuration; only the case count is tunable.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases each property must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single generated case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The case was vetoed by [`prop_assume!`]; it does not count toward
    /// the case budget and is silently retried.
    Reject,
    /// A `prop_assert*` failed with the contained message.
    Fail(String),
}

/// Result type threaded through a generated property body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic generator driving value generation for one property.
#[derive(Clone, Debug)]
pub struct TestRng {
    rng: SmallRng,
}

impl TestRng {
    /// Seeds a generator from a test's fully qualified name (FNV-1a), so
    /// every run of the same test replays the same case sequence.
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            rng: SmallRng::seed_from_u64(hash),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform draw from `[0, bound)` without modulo bias.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "TestRng::below: empty range");
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let draw = self.rng.next_u64();
            if draw < zone {
                return draw % bound;
            }
        }
    }

    /// Uniform draw from `[0, 1)` with 53 mantissa bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Defines property tests: zero or more `fn name(pat in strategy, ...)`
/// items, optionally preceded by `#![proptest_config(...)]`.
///
/// Each function becomes a plain test that generates inputs from the
/// strategies and runs the body once per case. `prop_assert*` failures
/// abort the test with the case number; [`prop_assume!`] rejections retry
/// with fresh inputs (with a cap on total attempts so a too-strict
/// assumption cannot loop forever).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (($config:expr) $( $(#[$meta:meta])* fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                let mut __rng = $crate::TestRng::from_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut __accepted: u32 = 0;
                let mut __attempts: u32 = 0;
                while __accepted < __config.cases {
                    __attempts += 1;
                    assert!(
                        __attempts <= __config.cases.saturating_mul(16).max(4096),
                        "proptest {}: too many cases rejected by prop_assume!",
                        stringify!($name),
                    );
                    let __outcome: $crate::TestCaseResult = (|| {
                        $(
                            let $arg =
                                $crate::strategy::Strategy::new_value(&($strat), &mut __rng);
                        )+
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    match __outcome {
                        ::core::result::Result::Ok(()) => __accepted += 1,
                        ::core::result::Result::Err($crate::TestCaseError::Reject) => {}
                        ::core::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                            panic!(
                                "proptest {}: case #{} failed: {}",
                                stringify!($name),
                                __accepted + 1,
                                __msg,
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body, failing the current case
/// (with an optional formatted message) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {{
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    }};
    ($cond:expr, $($fmt:tt)+) => {{
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts two expressions are equal inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
                __l, __r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`\n{}",
                __l, __r, format!($($fmt)+),
            )));
        }
    }};
}

/// Asserts two expressions are unequal inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `left != right`\n  both: `{:?}`",
                __l,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `left != right`\n  both: `{:?}`\n{}",
                __l, format!($($fmt)+),
            )));
        }
    }};
}

/// Discards the current case (it does not count toward the case budget)
/// when a precondition over the generated inputs does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {{
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    }};
}

/// Uniform choice between strategies that produce the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
