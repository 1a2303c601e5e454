//! Shared utilities for the `fun3d-rs` workspace.
//!
//! This crate provides the small, dependency-free building blocks used
//! throughout the reproduction: wall-clock timers with named accumulating
//! phases, robust statistics ([`median`], [`mad`]), a deterministic
//! seedable RNG (so every experiment is reproducible bit-for-bit), a
//! seeded property-testing harness ([`prop_cases!`]) and run telemetry
//! ([`telemetry`]). The whole workspace builds from `std` alone — no
//! external crates — so `cargo build` and `cargo test` work offline with
//! an empty registry cache.

#![deny(unreachable_pub)]

mod proptest_mini;
mod rng;
mod stats;
pub mod telemetry;
mod timer;

pub use proptest_mini::Gen;
pub use rng::Rng64;
pub use stats::{mad, median};
pub use timer::{PhaseTimers, Timer};

/// What the `prop_*` macros expand to; not an API.
#[doc(hidden)]
pub use proptest_mini::{check as prop_check, debug_short as prop_debug_short};
