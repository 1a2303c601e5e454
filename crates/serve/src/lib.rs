//! `fun3d-serve` — solver-as-a-service front-end over the shared-memory
//! solver stack.
//!
//! The north-star workload is many concurrent small-to-medium solves,
//! not one giant one. This crate turns the repo's node-level machinery
//! into a request-level worker tier:
//!
//! * [`Service`] — an in-process job queue with per-tenant weighted
//!   round-robin fairness and bounded-depth admission control, executed
//!   by a fixed set of dispatcher *teams*, each owning one persistent
//!   [`fun3d_threads::ThreadPool`] checked out of a
//!   [`fun3d_threads::PoolSet`] at startup (no pool churn between
//!   requests; the set's high-water mark proves the worker budget was
//!   never exceeded). Per-job thread choice rides the PR 6
//!   `AutoPolicy`: apps run `ExecMode::Auto`, so each solve resolves
//!   serial vs team from the machine model + measured sync costs.
//! * the `cache` module — the cross-request artifact cache: per-team
//!   prepared [`fun3d_core::Fun3dApp`] bundles (reordered mesh, dual
//!   metrics, partitions, tilings, ILU patterns, schedules) and a
//!   process-wide first-factor cache (`OptConfig::ilu_lag` generalized
//!   across requests, bitwise-identically — see
//!   [`fun3d_core::Fun3dApp::set_factor_seed`]).
//! * the `wire` module — a newline-delimited-JSON request/reply codec
//!   served over stdin/stdout or a Unix socket by the `fun3d-serve`
//!   binary.
//!
//! Every admitted request is tagged into the flight recorder
//! (`serve_admit` / `serve_job` / `serve_reject` events carrying FNV-64
//! tenant hashes and the job's `SolveId`) and wrapped in a telemetry
//! span, so one load run correlates service-level latency with
//! solver-level behaviour.

#![deny(unreachable_pub)]

mod cache;
mod service;
mod wire;

pub use cache::{CacheCounters, CacheSnapshot};
pub use service::{
    hash_state, JobHandle, RejectReason, Rejected, ServeConfig, ServeStats, Service, SolveReply,
};
pub use wire::{bad_request_line, parse_reply, render_reject, render_reply, SolveRequest};

/// FNV-64 tenant tag as carried on flight-recorder serve events.
pub fn tenant_hash(tenant: &str) -> u64 {
    fun3d_util::fnv1a(tenant.as_bytes())
}
