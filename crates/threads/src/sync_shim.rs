//! The synchronization shim the protocol modules are written against.
//!
//! Re-export of [`fun3d_check::shim`]: plain `std::sync::atomic` types
//! (plus an untracked `UnsafeCell` wrapper and std spin/yield hints) in
//! normal builds, and the model checker's tracked types when the
//! workspace is compiled with `RUSTFLAGS="--cfg fun3d_check"`. Protocol
//! code imports orderings, atomics, cells, and wait hints from here and
//! nowhere else — that single import line is what makes the doorbell,
//! barrier, P2P flags, tree-reduce, and telemetry-ring protocols
//! checkable without a second copy of their logic.
//!
//! See `crates/check/src/shim.rs` for the exact surface and the
//! model-mode semantics (including the documented under-approximations).

pub(crate) use fun3d_check::shim::*;
