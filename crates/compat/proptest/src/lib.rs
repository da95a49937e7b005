//! Offline shim for the `proptest` crate.
//!
//! The build environment cannot download crates, so this shim provides the
//! subset of proptest used by the workspace's property tests: the
//! [`Strategy`](strategy::Strategy) trait, range/`Just`/`any`/tuple/vec/union strategies, the
//! `proptest!` / `prop_assert*` / `prop_oneof!` macros, and a deterministic
//! splitmix64-based runner. It does **not** shrink failing inputs; instead
//! the failing case's inputs, case index, and seed are printed so the run
//! can be reproduced exactly (seeds derive from the test name and case
//! index, with `PROPTEST_SHIM_SEED` mixing in an optional override).
//!
//! Case count defaults to 64 and honours the standard `PROPTEST_CASES`
//! environment variable.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! `proptest::collection` — vector strategies.

    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// Strategy producing `Vec<S::Value>` with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy::new(element, size.into())
    }
}

pub mod prelude {
    //! `proptest::prelude` — the glob-import surface.

    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// `proptest! { #[test] fn name(arg in strategy, ...) { body } }`
///
/// Expands each function into a plain test that runs `PROPTEST_CASES`
/// (default 64) deterministic cases. On panic, a drop guard prints the
/// generated inputs for the failing case.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::test_runner::case_count();
                for case in 0..cases {
                    let mut rng =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    let guard = $crate::test_runner::FailureReporter::new(
                        stringify!($name),
                        case,
                        {
                            let mut s = ::std::string::String::new();
                            $(
                                s.push_str(&::std::format!(
                                    "  {} = {:?}\n", stringify!($arg), &$arg));
                            )+
                            s
                        },
                    );
                    // The body runs in a closure returning
                    // `Result<(), TestCaseError>` so `return Err(..)` and
                    // `?` work like in real proptest.
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            { $body }
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = result {
                        ::std::panic!("test case failed: {e}");
                    }
                    guard.disarm();
                }
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg", args...)`.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { ::std::assert!($($tt)*) };
}

/// `prop_assert_eq!(a, b)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { ::std::assert_eq!($($tt)*) };
}

/// `prop_assert_ne!(a, b)`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { ::std::assert_ne!($($tt)*) };
}

/// `prop_oneof![s1, s2, ...]` — pick one branch uniformly per case.
/// All branches must share the same `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(::std::boxed::Box::new($strat) as ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>),+
        ])
    };
}
