//! Machine descriptions.
//!
//! This container exposes **one CPU core**, so the multicore and
//! multi-node behaviour the paper measures cannot be timed directly (see
//! DESIGN.md, *Substitutions*). This crate describes the paper's machines
//! and the host:
//!
//! * the single-node box — 2× Intel Xeon E5-2690 v2 (we model the single
//!   socket the paper's 10-core results use): 10 cores @ 3.0 GHz, 2-way
//!   SMT, 4-wide DP AVX issuing mul+add per cycle → 240 Gflop/s, 42.2
//!   GB/s peak / 34.8 GB/s STREAM memory;
//! * a Stampede node — 2× Xeon E5-2680 (8 cores @ 2.7 GHz each);
//! * the host, as [`MachineSpec::host`] scales it (the execution policy,
//!   the tiler and the serve tier read it).
//!
//! The cost models that charge these machines — edge-loop and recurrence
//! times, the FDR fat-tree network and the strong-scaling simulator of
//! Figs. 9–11 — are paper-figure models and live in `crates/bench`.

pub mod spec;

pub use spec::MachineSpec;

/// Bytes of node data the residual path keeps live per vertex: 4 state +
/// 12 gradient + 4 residual doubles (the flux kernel's footprint; the
/// gradient kernel's is smaller). The one number behind both tiling
/// decisions — stream or tile (against the private L2) and the tile
/// budget (half an L2) — so they cannot drift apart.
pub const RESIDUAL_BYTES_PER_VERTEX: usize = (4 + 12 + 4) * 8;
