//! Shared utilities for the `fun3d-rs` workspace.
//!
//! This crate provides the small, dependency-free building blocks used
//! throughout the reproduction: robust statistics ([`median`], [`mad`]),
//! a deterministic seedable RNG (so every experiment is reproducible
//! bit-for-bit), the FNV-1a hash ([`fnv1a`]), a seeded property-testing
//! harness ([`prop_cases!`]) and run telemetry ([`telemetry`]), whose
//! kernel counters carry each kernel's measured time. The whole workspace builds from `std` alone — no
//! external crates — so `cargo build` and `cargo test` work offline with
//! an empty registry cache.

#![deny(unreachable_pub)]

mod fnv;
mod proptest_mini;
mod rng;
mod stats;
pub mod telemetry;

pub use fnv::{fnv1a, fnv1a_word};
pub use proptest_mini::Gen;
pub use rng::Rng64;
pub use stats::{mad, median};

/// What the `prop_*` macros expand to; not an API.
#[doc(hidden)]
pub use proptest_mini::{check as prop_check, debug_short as prop_debug_short};
