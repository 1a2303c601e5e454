//! Shared utilities for the `fun3d-rs` workspace.
//!
//! This crate provides the small, dependency-free building blocks used
//! throughout the reproduction: wall-clock timers with named accumulating
//! phases, summary statistics, a deterministic seedable RNG (so every
//! experiment is reproducible bit-for-bit), cache-line aligned buffers for
//! SIMD kernels, plain-text/CSV report writers used by the benchmark
//! harness, a seeded property-testing harness ([`proptest_mini`]) and a
//! micro-benchmark runner ([`microbench`]). The whole workspace builds
//! from `std` alone — no external crates — so `cargo build` and
//! `cargo test` work offline with an empty registry cache.

pub mod aligned;
pub mod microbench;
pub mod proptest_mini;
pub mod report;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod timer;

pub use aligned::AlignedVec;
pub use rng::Rng64;
pub use stats::Summary;
pub use timer::{PhaseTimers, Timer};
