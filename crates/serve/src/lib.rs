//! `fun3d-serve` — solver-as-a-service front-end over the shared-memory
//! solver stack.
//!
//! The north-star workload is many concurrent small-to-medium solves,
//! not one giant one. This crate turns the repo's node-level machinery
//! into a request-level worker tier:
//!
//! * [`Service`] — an in-process job queue with per-tenant round-robin
//!   fairness and bounded-depth admission control, executed by a fixed
//!   set of dispatcher *teams*, each owning one persistent
//!   [`fun3d_threads::ThreadPool`] of `team_threads` workers built at
//!   startup on a core range of its own (no pool churn between
//!   requests, and never more workers than `teams × team_threads`).
//!   Per-job thread choice rides `AutoPolicy`: apps run
//!   `ExecMode::Auto`, so each solve resolves serial vs team once, from
//!   the machine model + measured sync costs.
//! * the `cache` module — the cross-request artifact cache, one bounded
//!   cache type for both of its layers, each artifact keyed by what it
//!   depends on: per-team prepared
//!   [`fun3d_core::Fun3dApp`] bundles per request shape (partitions,
//!   tilings, ILU structure, schedules), which share one set of
//!   [`fun3d_core::MeshArtifacts`] per mesh, and a process-wide
//!   first-factor cache per (mesh, ILU fill, `dt0`) (`OptConfig::ilu_lag`
//!   generalized across requests, bitwise-identically — see
//!   [`fun3d_core::Fun3dApp::set_factor_seed`]).
//! * the `wire` module — a newline-delimited-JSON request/reply codec
//!   served over stdin/stdout or a Unix socket by the `fun3d-serve`
//!   binary.
//!
//! Every admitted request is tagged into the flight recorder
//! (`serve_admit` / `serve_job` / `serve_reject` events carrying FNV-64
//! tenant hashes and the job's `SolveId`) and wrapped in a telemetry
//! span, so one load run correlates service-level latency with
//! solver-level behaviour. Each fact is recorded once: counts of
//! completed and shed requests, the queue depth and the jobs in flight
//! are the service's own state ([`ServeStats`]), cache hits are its
//! cache layers' counters ([`CacheSnapshot`]), the reason a request was shed is its
//! `serve_reject` event, and the metrics plane holds the stage latency
//! histograms only.

#![deny(unreachable_pub)]

mod cache;
mod service;
mod wire;

pub use cache::{CacheSnapshot, CacheStats};
pub use service::{
    hash_state, JobHandle, RejectReason, Rejected, ServeConfig, ServeStats, Service, SolveReply,
};
pub use wire::{bad_request_line, parse_reply, render_reject, render_reply, SolveRequest};

/// FNV-64 tenant tag as carried on flight-recorder serve events.
pub fn tenant_hash(tenant: &str) -> u64 {
    fun3d_util::fnv1a(tenant.as_bytes())
}
