//! A minimal, std-only property-testing harness.
//!
//! Replaces the external `proptest` crate so the workspace builds with an
//! empty cargo registry. The model is deliberately simple: each test case
//! gets a 64-bit seed; the test body draws its inputs imperatively from a
//! [`Gen`] (backed by the workspace's deterministic [`Rng64`]); every draw
//! is recorded so that a failing case can be *shrunk* by halving numeric
//! inputs toward their lower bounds and re-running with the smaller
//! values. A failure report always includes the original case seed, which
//! reproduces the un-shrunk failure deterministically:
//!
//! ```text
//! FUN3D_PROP_SEED=0x0123456789abcdef cargo test -- my_property
//! ```
//!
//! Assertions inside a property use [`prop_assert!`] /
//! [`prop_assert_eq!`] (early-`return Err(..)`, like proptest's), and
//! panics from library code under test are caught and treated as
//! failures too. Properties are declared with the [`prop_cases!`] macro:
//!
//! ```
//! use fun3d_util::{prop_cases, prop_assert};
//!
//! prop_cases! {
//!     fn addition_commutes(g, cases = 8) {
//!         let a = g.f64_range(-1.0, 1.0);
//!         let b = g.f64_range(-1.0, 1.0);
//!         prop_assert!(a + b == b + a, "{a} + {b}");
//!     }
//! }
//! ```
//!
//! [`prop_assert!`]: crate::prop_assert
//! [`prop_assert_eq!`]: crate::prop_assert_eq
//! [`prop_cases!`]: crate::prop_cases

use crate::rng::Rng64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One recorded input drawn by a property body. Ranges are kept so the
/// shrinker knows each value's lower bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Draw {
    /// An unconstrained `u64` (shrinks toward 0).
    U64 { val: u64 },
    /// A `f64` uniform in `[lo, hi)` (shrinks toward `lo`).
    F64 { val: f64, lo: f64, hi: f64 },
    /// A `usize` uniform in `[lo, hi)` (shrinks toward `lo`).
    Usize { val: usize, lo: usize, hi: usize },
}

impl Draw {
    /// Shrink candidates, most aggressive first. Empty when the value is
    /// already at its lower bound.
    fn shrink_candidates(&self) -> Vec<Draw> {
        match *self {
            Draw::U64 { val } => {
                let mut c = Vec::new();
                if val != 0 {
                    c.push(Draw::U64 { val: 0 });
                    if val / 2 != 0 {
                        c.push(Draw::U64 { val: val / 2 });
                    }
                }
                c
            }
            Draw::F64 { val, lo, hi } => {
                let mut c = Vec::new();
                if val > lo {
                    c.push(Draw::F64 { val: lo, lo, hi });
                    let half = lo + (val - lo) * 0.5;
                    if half != val && half > lo {
                        c.push(Draw::F64 { val: half, lo, hi });
                    }
                }
                c
            }
            Draw::Usize { val, lo, hi } => {
                let mut c = Vec::new();
                if val > lo {
                    c.push(Draw::Usize { val: lo, lo, hi });
                    let half = lo + (val - lo) / 2;
                    if half != val && half > lo {
                        c.push(Draw::Usize { val: half, lo, hi });
                    }
                }
                c
            }
        }
    }
}

impl std::fmt::Display for Draw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Draw::U64 { val } => write!(f, "u64 = {val} ({val:#x})"),
            Draw::F64 { val, lo, hi } => write!(f, "f64[{lo}, {hi}) = {val}"),
            Draw::Usize { val, lo, hi } => write!(f, "usize[{lo}, {hi}) = {val}"),
        }
    }
}

/// The input source handed to a property body. Draws are deterministic in
/// the case seed; during shrinking, recorded values are replayed with
/// selected lanes overridden by smaller candidates.
pub struct Gen {
    rng: Rng64,
    draws: Vec<Draw>,
    overrides: Vec<Draw>,
}

impl Gen {
    fn with_overrides(seed: u64, overrides: Vec<Draw>) -> Gen {
        Gen {
            rng: Rng64::new(seed),
            draws: Vec::new(),
            overrides,
        }
    }

    /// An unconstrained `u64`.
    pub fn u64(&mut self) -> u64 {
        // Always advance the RNG so draws past the override prefix see the
        // same stream as the original (un-shrunk) run.
        let fresh = self.rng.next_u64();
        let idx = self.draws.len();
        let val = match self.overrides.get(idx) {
            Some(Draw::U64 { val }) => *val,
            _ => fresh,
        };
        self.draws.push(Draw::U64 { val });
        val
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty f64 range [{lo}, {hi})");
        let fresh = lo + (hi - lo) * self.rng.next_f64();
        let idx = self.draws.len();
        let val = match self.overrides.get(idx) {
            // Use the override only if it still fits this call's range —
            // shrunk values can change control flow and thus draw shapes.
            Some(Draw::F64 { val, .. }) if *val >= lo && *val < hi => *val,
            _ => fresh,
        };
        self.draws.push(Draw::F64 { val, lo, hi });
        val
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty usize range [{lo}, {hi})");
        let fresh = lo + self.rng.below(hi - lo);
        let idx = self.draws.len();
        let val = match self.overrides.get(idx) {
            Some(Draw::Usize { val, .. }) if *val >= lo && *val < hi => *val,
            _ => fresh,
        };
        self.draws.push(Draw::Usize { val, lo, hi });
        val
    }

    /// A `bool` with probability 1/2.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }
}

/// A failed case: what was drawn and why it failed.
#[derive(Clone, Debug)]
struct Failure {
    draws: Vec<Draw>,
    message: String,
}

/// Runs the body once with `overrides` replayed over the seed's stream.
/// Returns `Some(Failure)` if the body returned `Err` or panicked.
fn run_with<F>(seed: u64, f: &F, overrides: &[Draw]) -> Option<Failure>
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    let mut gen = Gen::with_overrides(seed, overrides.to_vec());
    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut gen)));
    let message = match outcome {
        Ok(Ok(())) => return None,
        Ok(Err(msg)) => msg,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            format!("panicked: {msg}")
        }
    };
    Some(Failure {
        draws: gen.draws,
        message,
    })
}

/// Maximum number of candidate re-runs spent shrinking one failure.
const SHRINK_BUDGET: usize = 128;

/// Greedy shrink: repeatedly try to halve each recorded draw toward its
/// lower bound, keeping any candidate that still fails.
fn shrink<F>(seed: u64, f: &F, original: Failure) -> Failure
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    let mut current = original;
    let mut budget = SHRINK_BUDGET;
    loop {
        let mut improved = false;
        // The bound is re-read every lane: an accepted candidate replaces
        // `current`, and a failure on a different path may draw fewer values.
        let mut lane = 0;
        while lane < current.draws.len() {
            for candidate in current.draws[lane].shrink_candidates() {
                if budget == 0 {
                    return current;
                }
                budget -= 1;
                let mut trial = current.draws.clone();
                trial[lane] = candidate;
                if let Some(fail) = run_with(seed, f, &trial) {
                    current = fail;
                    improved = true;
                    break;
                }
            }
            lane += 1;
        }
        if !improved {
            return current;
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u64>().ok()
    }
}

fn report(name: &str, seed: u64, case: Option<usize>, cases: usize, fail: &Failure) -> String {
    let mut out = String::new();
    match case {
        Some(i) => out.push_str(&format!(
            "property '{name}' failed at case {}/{cases}\n",
            i + 1
        )),
        None => out.push_str(&format!("property '{name}' failed on replayed seed\n")),
    }
    out.push_str(&format!("  seed: {seed:#018x}\n"));
    out.push_str("  minimal failing inputs (after shrinking):\n");
    for d in &fail.draws {
        out.push_str(&format!("    {d}\n"));
    }
    out.push_str(&format!("  error: {}\n", fail.message));
    out.push_str(&format!(
        "  replay: FUN3D_PROP_SEED={seed:#018x} cargo test -- {name}"
    ));
    out
}

/// Runs `cases` seeded cases of property `f`, shrinking and panicking with
/// a reproducible report on the first failure.
///
/// Setting `FUN3D_PROP_SEED` replays exactly that seed (for every
/// property in the run — combine with a test-name filter).
pub fn check<F>(name: &str, cases: usize, f: F)
where
    F: Fn(&mut Gen) -> Result<(), String>,
{
    if let Ok(v) = std::env::var("FUN3D_PROP_SEED") {
        let seed =
            parse_seed(&v).unwrap_or_else(|| panic!("unparseable FUN3D_PROP_SEED: {v:?}"));
        match run_with(seed, &f, &[]) {
            Some(fail) => panic!("{}", report(name, seed, None, cases, &fail)),
            None => {
                eprintln!("property '{name}': replayed seed {seed:#018x} passed");
                return;
            }
        }
    }
    // The base seed is FNV-1a of the name, so different properties
    // exercise different streams.
    let mut seeder = Rng64::new(crate::fnv1a(name.as_bytes()));
    for case in 0..cases {
        let seed = seeder.next_u64();
        if let Some(fail) = run_with(seed, &f, &[]) {
            let minimal = shrink(seed, &f, fail);
            panic!("{}", report(name, seed, Some(case), cases, &minimal));
        }
    }
}

/// Truncated `Debug` formatting so assertion messages on large vectors
/// stay readable.
pub fn debug_short<T: std::fmt::Debug>(x: &T) -> String {
    const MAX: usize = 320;
    let s = format!("{x:?}");
    if s.len() <= MAX {
        s
    } else {
        let cut = s
            .char_indices()
            .take_while(|(i, _)| *i < MAX)
            .last()
            .map(|(i, c)| i + c.len_utf8())
            .unwrap_or(0);
        format!("{}… ({} chars)", &s[..cut], s.len())
    }
}

/// Declares `#[test]` property functions. Each body runs `cases` times
/// with fresh seeded inputs drawn from the named [`Gen`] binding; use
/// [`prop_assert!`]-family macros inside the body.
///
/// [`prop_assert!`]: crate::prop_assert
#[macro_export]
macro_rules! prop_cases {
    ($($(#[$attr:meta])* fn $name:ident($g:ident, cases = $cases:expr) $body:block)+) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                $crate::prop_check(
                    stringify!($name),
                    $cases,
                    |$g: &mut $crate::Gen| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                );
            }
        )+
    };
}

/// `assert!` for property bodies: fails the case with `Err` (so the
/// shrinker can re-run it) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return Err(format!(
                "assertion failed: `left == right` ({}:{})\n  left: {}\n right: {}",
                file!(),
                line!(),
                $crate::prop_debug_short(lhs),
                $crate::prop_debug_short(rhs)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return Err(format!(
                "{}\n  left: {}\n right: {}",
                format!($($fmt)+),
                $crate::prop_debug_short(lhs),
                $crate::prop_debug_short(rhs)
            ));
        }
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (lhs, rhs) = (&$a, &$b);
        if *lhs == *rhs {
            return Err(format!(
                "assertion failed: `left != right` ({}:{})\n  both: {}",
                file!(),
                line!(),
                $crate::prop_debug_short(lhs)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let draw_all = |g: &mut Gen| {
            (
                g.u64(),
                g.f64_range(-3.0, 9.0),
                g.usize_range(2, 40),
                g.bool(),
            )
        };
        let mut a = Gen::with_overrides(0xDEADBEEF, Vec::new());
        let mut b = Gen::with_overrides(0xDEADBEEF, Vec::new());
        for _ in 0..100 {
            assert_eq!(draw_all(&mut a), draw_all(&mut b));
        }
    }

    #[test]
    fn draws_respect_ranges() {
        let mut g = Gen::with_overrides(7, Vec::new());
        for _ in 0..1000 {
            let x = g.f64_range(1.5, 2.5);
            assert!((1.5..2.5).contains(&x));
            let n = g.usize_range(3, 17);
            assert!((3..17).contains(&n));
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0usize;
        let counter = std::cell::Cell::new(0usize);
        check("always_passes", 25, |g| {
            let _ = g.u64();
            counter.set(counter.get() + 1);
            Ok(())
        });
        ran += counter.get();
        assert_eq!(ran, 25);
    }

    #[test]
    fn shrink_halves_toward_boundary() {
        // Fails iff x >= 17: the halving shrinker must land in [17, 34]
        // (one halving below 17 would pass, so it can't overshoot by 2x).
        let prop = |g: &mut Gen| {
            let x = g.usize_range(0, 1_000_000);
            if x >= 17 {
                Err(format!("too big: {x}"))
            } else {
                Ok(())
            }
        };
        // find a failing seed (virtually every one is)
        let mut seeder = Rng64::new(99);
        let seed = loop {
            let s = seeder.next_u64();
            if run_with(s, &prop, &[]).is_some() {
                break s;
            }
        };
        let original = run_with(seed, &prop, &[]).unwrap();
        let minimal = shrink(seed, &prop, original);
        match minimal.draws[0] {
            Draw::Usize { val, .. } => {
                assert!((17..=34).contains(&val), "shrunk to {val}, not near 17")
            }
            ref d => panic!("unexpected draw {d:?}"),
        }
    }

    #[test]
    fn shrink_reaches_lower_bound_when_everything_fails() {
        let prop = |g: &mut Gen| {
            let x = g.f64_range(2.0, 8.0);
            let n = g.u64();
            Err(format!("always fails: {x} {n}"))
        };
        let original = run_with(42, &prop, &[]).unwrap();
        let minimal = shrink(42, &prop, original);
        assert_eq!(minimal.draws[0], Draw::F64 { val: 2.0, lo: 2.0, hi: 8.0 });
        assert_eq!(minimal.draws[1], Draw::U64 { val: 0 });
    }

    #[test]
    fn failure_report_contains_replayable_seed() {
        let prop = |g: &mut Gen| {
            let x = g.u64();
            if x % 2 == 0 {
                Err("even".to_string())
            } else {
                Ok(())
            }
        };
        let msg = catch_unwind(AssertUnwindSafe(|| check("sometimes_even", 64, &prop)))
            .expect_err("property must fail within 64 cases");
        let msg = msg.downcast_ref::<String>().expect("string panic").clone();
        assert!(msg.contains("FUN3D_PROP_SEED="), "no replay line in:\n{msg}");
        // extract the hex seed and confirm it reproduces the failure
        let tail = msg.split("seed: ").nth(1).unwrap();
        let hex = tail.split_whitespace().next().unwrap();
        let seed = parse_seed(hex).expect("parsable seed");
        assert!(
            run_with(seed, &prop, &[]).is_some(),
            "reported seed {seed:#x} does not reproduce"
        );
    }

    #[test]
    fn shrinking_survives_a_failure_that_draws_fewer_values() {
        // The draw count depends on the first draw, so halving `n` is
        // accepted with a shorter draw list than the one being walked.
        let prop = |g: &mut Gen| {
            let n = g.usize_range(0, 64);
            let drawn = (0..n).map(|_| g.u64()).count();
            if drawn >= 8 {
                Err(format!("{drawn} values drawn"))
            } else {
                Ok(())
            }
        };
        let msg = catch_unwind(AssertUnwindSafe(|| check("draw_count_varies", 64, &prop)))
            .expect_err("property must fail within 64 cases");
        let msg = msg.downcast_ref::<String>().expect("string panic").clone();
        assert!(msg.contains("values drawn"), "the property's own message is lost:\n{msg}");
        assert!(msg.contains("replay: FUN3D_PROP_SEED=0x"), "no replay line in:\n{msg}");
    }

    #[test]
    fn panicking_body_is_caught_and_shrunk() {
        let prop = |g: &mut Gen| {
            let n = g.usize_range(0, 100);
            assert!(n < 5, "boom at {n}"); // real panic, not prop_assert
            Ok(())
        };
        let fail = run_with(3, &prop, &[]);
        // nearly every seed draws n >= 5; if this one passed, force one that fails
        let fail = fail.or_else(|| run_with(4, &prop, &[])).or_else(|| {
            let mut s = Rng64::new(1);
            loop {
                if let Some(f) = run_with(s.next_u64(), &prop, &[]) {
                    break Some(f);
                }
            }
        });
        let fail = fail.unwrap();
        assert!(fail.message.contains("panicked"), "{}", fail.message);
    }

    #[test]
    fn parse_seed_forms() {
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("16"), Some(16));
        assert_eq!(parse_seed(" 0X0a "), Some(10));
        assert_eq!(parse_seed("zzz"), None);
    }

    #[test]
    fn debug_short_truncates() {
        let long: Vec<u32> = (0..10_000).collect();
        let s = debug_short(&long);
        assert!(s.len() < 400);
        assert!(s.contains('…'));
        assert_eq!(debug_short(&1.5f64), "1.5");
    }

    // The macro must expand to working #[test] functions.
    crate::prop_cases! {
        fn macro_smoke_sum_is_monotone(g, cases = 10) {
            let a = g.f64_range(0.0, 1.0);
            let b = g.f64_range(0.0, 1.0);
            crate::prop_assert!(a + b >= a, "sum shrank: {a} {b}");
            crate::prop_assert_eq!(a.max(b), b.max(a));
        }
    }
}
