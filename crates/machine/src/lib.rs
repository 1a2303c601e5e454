//! Analytic performance models of the paper's hardware.
//!
//! This container exposes **one CPU core**, so the multicore and
//! multi-node behaviour the paper measures cannot be timed directly (see
//! DESIGN.md, *Substitutions*). This crate models the paper's machines:
//!
//! * the single-node box — 2× Intel Xeon E5-2690 v2 (we model the single
//!   socket the paper's 10-core results use): 10 cores @ 3.0 GHz, 2-way
//!   SMT, 4-wide DP AVX issuing mul+add per cycle → 240 Gflop/s, 42.2
//!   GB/s peak / 34.8 GB/s STREAM memory;
//! * a Stampede node — 2× Xeon E5-2680 (8 cores @ 2.7 GHz each) with
//!   Mellanox FDR InfiniBand in a 2-level fat tree;
//!
//! and the cost models used by the figure harnesses:
//!
//! * [`kernels`] — roofline-style times for the edge loops (threaded via
//!   real per-thread workload counts: replication, imbalance, atomics)
//!   and the sparse recurrences (level-scheduled with barrier costs, or
//!   P2P with wait costs, both bandwidth-capped);
//! * [`network`] — a latency/bandwidth (LogGP-flavoured) model of FDR
//!   with log-tree collectives, used for the multi-node figures.
//!
//! **Calibration policy** (documented in EXPERIMENTS.md): single-thread
//! constants (cycles per edge/row for each code variant) are calibrated
//! against the paper's own single-thread measurements; every *parallel*
//! effect — load imbalance, replication overhead, DAG level widths,
//! synchronization counts, bandwidth saturation, message counts — comes
//! from the real data structures produced by this repository's
//! implementations.

pub mod kernels;
pub mod network;
pub mod spec;

pub use kernels::{EdgeLoopCosts, RecurrenceCosts, RESIDUAL_BYTES_PER_VERTEX};
pub use network::NetworkSpec;
pub use spec::MachineSpec;
