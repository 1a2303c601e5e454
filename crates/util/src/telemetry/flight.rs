//! Black-box flight recorder: an always-on, fixed-capacity, lock-free
//! per-thread ring of **structured solver events**, plus anomaly-triggered
//! dumps of the merged, time-ordered record.
//!
//! Where spans ([`super::ring`]) answer "where did the time go", the
//! flight log answers "what did the solver *decide* and *observe*": solve
//! start/end with a [`SolveId`], per-step residual/Δt, which execution
//! scheme each GMRES solve actually ran, the `AutoPolicy` decision with
//! its modeled costs, sync-probe calibrations, region/barrier summaries,
//! and per-rank comm traffic. Events are compact (`10 × u64` slots, enum
//! payloads, no allocation on the hot path) and the recorder is on by
//! default — the point is that the record already exists when something
//! goes wrong, like an aircraft's flight data recorder.
//!
//! ## Publication protocol
//!
//! Each thread owns one [`FlightRing`] and is its only writer; a push is
//! ten relaxed stores plus one release store of the head — the same
//! single-writer seqlock-style discipline as the span ring, model-checked
//! under `--cfg fun3d_check` (see `crates/util/tests/model_flight_ring.rs`).
//! Unlike the span ring the payload words are plain integers (kind codes,
//! bit-cast `f64`s), so a collector can never reconstruct anything unsafe
//! from a torn slot; the stability filter still guarantees only fully
//! published, unrecycled slots surface.
//!
//! ## Dumps
//!
//! [`dump`] snapshots every ring, merges the events into one time-ordered
//! timeline tagged `(rank, SolveId)` — `fun3d_cluster` ranks are threads
//! of this process sharing the telemetry epoch, so cross-rank ordering is
//! meaningful — and writes a strict [`super::json`] artifact plus a
//! human-readable text rendering. Triggers: a panic inside a pool region
//! ([`note_region_panic`], wired into `ThreadPool::run`), the residual
//! anomaly detector in `fun3d_solver::anomaly` (divergence / stagnation /
//! wall-budget overrun), or an explicit `FUN3D_FLIGHT_DUMP=1` request
//! honoured at solve end. `flight_view` (fun3d-bench) renders a dump.
//!
//! ## Environment
//!
//! * `FUN3D_FLIGHT=off|0` — disable recording (default: on; one relaxed
//!   atomic load per emit when disabled).
//! * `FUN3D_FLIGHT_RING` — per-thread ring capacity in events
//!   (default 4096).
//! * `FUN3D_FLIGHT_DIR` / `FUN3D_FLIGHT_PREFIX` — dump location
//!   (default `target/experiments` / `flight`).
//! * `FUN3D_FLIGHT_DUMP=1` — request a dump at the end of every solve.

use super::json::Json;
use super::now_ns;
// Shim atomics: std in normal builds, fun3d-check's tracked types under
// `--cfg fun3d_check`, so the ring's publication protocol runs beneath
// the deterministic model checker.
use fun3d_check::shim::{AtomicU64, Ordering};
use std::cell::Cell;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering as StdOrdering};
use std::sync::{Arc, Mutex, OnceLock};

/// Payload words per event (beyond kind / time / rank / solve).
pub const PAYLOAD_WORDS: usize = 6;
const SLOT_WORDS: usize = 4 + PAYLOAD_WORDS;

/// Sentinel for "no crossover exists" in [`EventKind::PolicyDecision`].
pub const NO_CROSSOVER: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------

const STATE_UNSET: u8 = u8::MAX;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

#[cold]
fn init_state_from_env() -> bool {
    let on = match std::env::var("FUN3D_FLIGHT") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "none"
        ),
        Err(_) => true, // always-on default
    };
    let _ = STATE.compare_exchange(
        STATE_UNSET,
        on as u8,
        StdOrdering::Relaxed,
        StdOrdering::Relaxed,
    );
    STATE.load(StdOrdering::Relaxed) != 0
}

/// Whether the recorder is capturing events (first call reads
/// `FUN3D_FLIGHT`; afterwards one relaxed load).
#[inline]
pub fn enabled() -> bool {
    let v = STATE.load(StdOrdering::Relaxed);
    if v == STATE_UNSET {
        init_state_from_env()
    } else {
        v != 0
    }
}

/// Overrides the enablement (tools and tests; effective immediately on
/// all threads).
pub fn set_enabled(on: bool) {
    STATE.store(on as u8, StdOrdering::Relaxed);
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("FUN3D_FLIGHT_RING")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(4096)
            .clamp(16, 1 << 22)
    })
}

// ---------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------

/// Concrete execution scheme recorded on [`EventKind::Gmres`] /
/// [`EventKind::PolicyDecision`] events (a flight-local mirror of
/// `fun3d_solver::ExecMode`, kept here so `fun3d_util` stays at the
/// bottom of the dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecTag {
    /// Single-threaded vector ops.
    Serial,
    /// Region-per-op threading.
    PerOp,
    /// Persistent SPMD regions.
    Team,
}

impl ExecTag {
    /// Canonical name, matching `ExecMode::name()`.
    pub fn name(self) -> &'static str {
        match self {
            ExecTag::Serial => "serial",
            ExecTag::PerOp => "per-op",
            ExecTag::Team => "team",
        }
    }

    /// Parses the canonical names (the form `GmresResult::exec` carries).
    pub fn parse(s: &str) -> Option<ExecTag> {
        match s {
            "serial" => Some(ExecTag::Serial),
            "per-op" => Some(ExecTag::PerOp),
            "team" => Some(ExecTag::Team),
            _ => None,
        }
    }

    fn code(self) -> u64 {
        match self {
            ExecTag::Serial => 0,
            ExecTag::PerOp => 1,
            ExecTag::Team => 2,
        }
    }

    fn from_code(c: u64) -> Option<ExecTag> {
        match c {
            0 => Some(ExecTag::Serial),
            1 => Some(ExecTag::PerOp),
            2 => Some(ExecTag::Team),
            _ => None,
        }
    }
}

/// What forced (or requested) a flight dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// A worker panicked inside a `ThreadPool` region.
    RegionPanic,
    /// Residual blow-up or NaN/Inf detected by the anomaly detector.
    Divergence,
    /// Residual stalled over the detector's window.
    Stagnation,
    /// The solve exceeded its wall-clock budget.
    WallBudget,
    /// Explicit `FUN3D_FLIGHT_DUMP` request.
    Request,
}

impl Trigger {
    /// Stable artifact slug (also the dump file stem suffix).
    pub fn slug(self) -> &'static str {
        match self {
            Trigger::RegionPanic => "region_panic",
            Trigger::Divergence => "divergence",
            Trigger::Stagnation => "stagnation",
            Trigger::WallBudget => "wall_budget",
            Trigger::Request => "request",
        }
    }

    /// Parses a slug back (dump validation).
    pub fn parse(s: &str) -> Option<Trigger> {
        match s {
            "region_panic" => Some(Trigger::RegionPanic),
            "divergence" => Some(Trigger::Divergence),
            "stagnation" => Some(Trigger::Stagnation),
            "wall_budget" => Some(Trigger::WallBudget),
            "request" => Some(Trigger::Request),
            _ => None,
        }
    }

    fn code(self) -> u64 {
        match self {
            Trigger::RegionPanic => 0,
            Trigger::Divergence => 1,
            Trigger::Stagnation => 2,
            Trigger::WallBudget => 3,
            Trigger::Request => 4,
        }
    }

    fn from_code(c: u64) -> Option<Trigger> {
        match c {
            0 => Some(Trigger::RegionPanic),
            1 => Some(Trigger::Divergence),
            2 => Some(Trigger::Stagnation),
            3 => Some(Trigger::WallBudget),
            4 => Some(Trigger::Request),
            _ => None,
        }
    }
}

/// One structured solver event. Every variant encodes into six `u64`
/// payload words (floats bit-cast), so recording is allocation-free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A ΨTC solve began.
    SolveStart {
        /// Scalar unknowns.
        unknowns: u64,
        /// Solver pool workers (1 = serial).
        threads: u64,
    },
    /// The solve finished (converged, hit max steps, or bailed).
    SolveEnd {
        /// Tolerance met.
        converged: bool,
        /// Pseudo-time steps taken.
        steps: u64,
        /// Total linear iterations.
        linear_iters: u64,
        /// Final residual norm.
        res: f64,
    },
    /// One pseudo-time step completed.
    PtcStep {
        /// 1-based step index.
        step: u64,
        /// ‖f(u)‖ after the step.
        res: f64,
        /// SER pseudo-time step used.
        dt: f64,
        /// Linear iterations this step.
        gmres_iters: u64,
    },
    /// One linear solve completed, with the scheme that actually ran.
    Gmres {
        /// Executed scheme (Auto resolved).
        exec: ExecTag,
        /// Matrix applications.
        iterations: u64,
        /// Final preconditioned residual.
        residual: f64,
        /// Global reduction rounds.
        reductions: u64,
    },
    /// The adaptive policy resolved `Auto` to a concrete scheme.
    PolicyDecision {
        /// Chosen scheme.
        chosen: ExecTag,
        /// Problem size the decision was made for.
        unknowns: u64,
        /// Pool workers offered.
        nt: u64,
        /// Modeled serial iteration seconds.
        serial_s: f64,
        /// Modeled best-parallel iteration seconds (work + sync).
        parallel_s: f64,
        /// Modeled crossover size, or [`NO_CROSSOVER`].
        crossover: u64,
    },
    /// A sync-cost calibration probe ran (cache miss in the policy).
    SyncProbe {
        /// Pool workers measured.
        pool_size: u64,
        /// Measured empty-region launch cost, seconds.
        region_launch_s: f64,
        /// Measured barrier phase cost, seconds.
        barrier_phase_s: f64,
    },
    /// A worker panicked inside a pool region (recorded by the launcher).
    RegionPanic {
        /// Pool workers.
        pool_size: u64,
    },
    /// Region/barrier totals over one solve (launch *summaries*, not
    /// per-launch events — regions are too frequent to log individually).
    RegionSummary {
        /// Pool regions launched during the solve.
        regions: u64,
        /// Barrier phases crossed during the solve.
        barriers: u64,
    },
    /// A cluster rank sent a point-to-point message.
    CommSend {
        /// Destination rank.
        peer: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A cluster rank received a point-to-point message.
    CommRecv {
        /// Source rank.
        peer: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// The anomaly detector fired.
    Anomaly {
        /// What it detected.
        trigger: Trigger,
        /// Step at which it fired.
        step: u64,
        /// Offending value (residual norm, or elapsed seconds for a
        /// wall-budget overrun).
        value: f64,
    },
    /// The serve front-end admitted a request into a tenant queue.
    ServeAdmit {
        /// FNV-64 hash of the tenant name (the full name lives in the
        /// request log; six u64 words can't carry a string).
        tenant: u64,
        /// Global queue depth *after* admission.
        queue_depth: u64,
    },
    /// A serve job finished executing (emitted under the job's solve
    /// tag, so the dump ties tenant → `SolveId` → solver events).
    ServeJob {
        /// FNV-64 hash of the tenant name.
        tenant: u64,
        /// Nanoseconds spent queued before a team picked the job up.
        queue_ns: u64,
        /// Artifact-cache hits while preparing this job.
        cache_hits: u64,
        /// Artifact-cache misses while preparing this job.
        cache_misses: u64,
    },
    /// Admission control shed a request.
    ServeReject {
        /// FNV-64 hash of the tenant name.
        tenant: u64,
        /// Structured reason, decoded by [`reject_reason_slug`].
        reason: u64,
        /// Global queue depth at the time of rejection.
        queue_depth: u64,
    },
    /// End-to-end stage boundaries for one serve request (emitted under
    /// the job's solve tag once the reply is written). Timestamps are
    /// nanoseconds on the process telemetry epoch — the same clock as
    /// `t_ns` — so `trace::assemble` can interleave them with solver
    /// events causally.
    ServeStages {
        /// FNV-64 hash of the tenant name.
        tenant: u64,
        /// When admission control accepted the request.
        admit_ns: u64,
        /// When a dispatcher team dequeued it.
        dispatch_ns: u64,
        /// When the solver started (artifact prep done).
        solve_start_ns: u64,
        /// When the solver returned.
        solve_end_ns: u64,
        /// When the reply was handed to the writer.
        reply_ns: u64,
    },
}

/// Human slug for a [`EventKind::ServeReject`] reason code. The codes
/// are fixed here (not in `fun3d-serve`) so flight dumps decode without
/// the serve crate: 1 = global queue full, 2 = tenant queue full,
/// 3 = malformed request, 4 = service shutting down.
pub fn reject_reason_slug(code: u64) -> &'static str {
    match code {
        1 => "queue_full",
        2 => "tenant_queue_full",
        3 => "bad_request",
        4 => "shutdown",
        _ => "other",
    }
}

impl EventKind {
    /// Stable artifact name for this kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SolveStart { .. } => "solve_start",
            EventKind::SolveEnd { .. } => "solve_end",
            EventKind::PtcStep { .. } => "ptc_step",
            EventKind::Gmres { .. } => "gmres",
            EventKind::PolicyDecision { .. } => "policy_decision",
            EventKind::SyncProbe { .. } => "sync_probe",
            EventKind::RegionPanic { .. } => "region_panic",
            EventKind::RegionSummary { .. } => "region_summary",
            EventKind::CommSend { .. } => "comm_send",
            EventKind::CommRecv { .. } => "comm_recv",
            EventKind::Anomaly { .. } => "anomaly",
            EventKind::ServeAdmit { .. } => "serve_admit",
            EventKind::ServeJob { .. } => "serve_job",
            EventKind::ServeReject { .. } => "serve_reject",
            EventKind::ServeStages { .. } => "serve_stages",
        }
    }

    /// Every artifact kind name (dump validation).
    pub const NAMES: [&'static str; 15] = [
        "solve_start",
        "solve_end",
        "ptc_step",
        "gmres",
        "policy_decision",
        "sync_probe",
        "region_panic",
        "region_summary",
        "comm_send",
        "comm_recv",
        "anomaly",
        "serve_admit",
        "serve_job",
        "serve_reject",
        "serve_stages",
    ];

    fn encode(&self) -> (u64, [u64; PAYLOAD_WORDS]) {
        let f = f64::to_bits;
        match *self {
            EventKind::SolveStart { unknowns, threads } => (1, [unknowns, threads, 0, 0, 0, 0]),
            EventKind::SolveEnd {
                converged,
                steps,
                linear_iters,
                res,
            } => (2, [converged as u64, steps, linear_iters, f(res), 0, 0]),
            EventKind::PtcStep {
                step,
                res,
                dt,
                gmres_iters,
            } => (3, [step, f(res), f(dt), gmres_iters, 0, 0]),
            EventKind::Gmres {
                exec,
                iterations,
                residual,
                reductions,
            } => (4, [exec.code(), iterations, f(residual), reductions, 0, 0]),
            EventKind::PolicyDecision {
                chosen,
                unknowns,
                nt,
                serial_s,
                parallel_s,
                crossover,
            } => (
                5,
                [chosen.code(), unknowns, nt, f(serial_s), f(parallel_s), crossover],
            ),
            EventKind::SyncProbe {
                pool_size,
                region_launch_s,
                barrier_phase_s,
            } => (
                6,
                [pool_size, f(region_launch_s), f(barrier_phase_s), 0, 0, 0],
            ),
            EventKind::RegionPanic { pool_size } => (7, [pool_size, 0, 0, 0, 0, 0]),
            EventKind::RegionSummary { regions, barriers } => (8, [regions, barriers, 0, 0, 0, 0]),
            EventKind::CommSend { peer, bytes } => (9, [peer, bytes, 0, 0, 0, 0]),
            EventKind::CommRecv { peer, bytes } => (10, [peer, bytes, 0, 0, 0, 0]),
            EventKind::Anomaly {
                trigger,
                step,
                value,
            } => (11, [trigger.code(), step, f(value), 0, 0, 0]),
            EventKind::ServeAdmit {
                tenant,
                queue_depth,
            } => (12, [tenant, queue_depth, 0, 0, 0, 0]),
            EventKind::ServeJob {
                tenant,
                queue_ns,
                cache_hits,
                cache_misses,
            } => (13, [tenant, queue_ns, cache_hits, cache_misses, 0, 0]),
            EventKind::ServeReject {
                tenant,
                reason,
                queue_depth,
            } => (14, [tenant, reason, queue_depth, 0, 0, 0]),
            EventKind::ServeStages {
                tenant,
                admit_ns,
                dispatch_ns,
                solve_start_ns,
                solve_end_ns,
                reply_ns,
            } => (
                15,
                [tenant, admit_ns, dispatch_ns, solve_start_ns, solve_end_ns, reply_ns],
            ),
        }
    }

    fn decode(kind: u64, p: [u64; PAYLOAD_WORDS]) -> Option<EventKind> {
        let f = f64::from_bits;
        Some(match kind {
            1 => EventKind::SolveStart {
                unknowns: p[0],
                threads: p[1],
            },
            2 => EventKind::SolveEnd {
                converged: p[0] != 0,
                steps: p[1],
                linear_iters: p[2],
                res: f(p[3]),
            },
            3 => EventKind::PtcStep {
                step: p[0],
                res: f(p[1]),
                dt: f(p[2]),
                gmres_iters: p[3],
            },
            4 => EventKind::Gmres {
                exec: ExecTag::from_code(p[0])?,
                iterations: p[1],
                residual: f(p[2]),
                reductions: p[3],
            },
            5 => EventKind::PolicyDecision {
                chosen: ExecTag::from_code(p[0])?,
                unknowns: p[1],
                nt: p[2],
                serial_s: f(p[3]),
                parallel_s: f(p[4]),
                crossover: p[5],
            },
            6 => EventKind::SyncProbe {
                pool_size: p[0],
                region_launch_s: f(p[1]),
                barrier_phase_s: f(p[2]),
            },
            7 => EventKind::RegionPanic { pool_size: p[0] },
            8 => EventKind::RegionSummary {
                regions: p[0],
                barriers: p[1],
            },
            9 => EventKind::CommSend {
                peer: p[0],
                bytes: p[1],
            },
            10 => EventKind::CommRecv {
                peer: p[0],
                bytes: p[1],
            },
            11 => EventKind::Anomaly {
                trigger: Trigger::from_code(p[0])?,
                step: p[1],
                value: f(p[2]),
            },
            12 => EventKind::ServeAdmit {
                tenant: p[0],
                queue_depth: p[1],
            },
            13 => EventKind::ServeJob {
                tenant: p[0],
                queue_ns: p[1],
                cache_hits: p[2],
                cache_misses: p[3],
            },
            14 => EventKind::ServeReject {
                tenant: p[0],
                reason: p[1],
                queue_depth: p[2],
            },
            15 => EventKind::ServeStages {
                tenant: p[0],
                admit_ns: p[1],
                dispatch_ns: p[2],
                solve_start_ns: p[3],
                solve_end_ns: p[4],
                reply_ns: p[5],
            },
            _ => return None,
        })
    }

    /// `(key, value)` payload fields for the JSON artifact.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        match *self {
            EventKind::SolveStart { unknowns, threads } => vec![
                ("unknowns", Json::num(unknowns as f64)),
                ("threads", Json::num(threads as f64)),
            ],
            EventKind::SolveEnd {
                converged,
                steps,
                linear_iters,
                res,
            } => vec![
                ("converged", Json::Bool(converged)),
                ("steps", Json::num(steps as f64)),
                ("linear_iters", Json::num(linear_iters as f64)),
                ("res", json_f64(res)),
            ],
            EventKind::PtcStep {
                step,
                res,
                dt,
                gmres_iters,
            } => vec![
                ("step", Json::num(step as f64)),
                ("res", json_f64(res)),
                ("dt", json_f64(dt)),
                ("gmres_iters", Json::num(gmres_iters as f64)),
            ],
            EventKind::Gmres {
                exec,
                iterations,
                residual,
                reductions,
            } => vec![
                ("exec", Json::str(exec.name())),
                ("iterations", Json::num(iterations as f64)),
                ("residual", json_f64(residual)),
                ("reductions", Json::num(reductions as f64)),
            ],
            EventKind::PolicyDecision {
                chosen,
                unknowns,
                nt,
                serial_s,
                parallel_s,
                crossover,
            } => vec![
                ("chosen", Json::str(chosen.name())),
                ("unknowns", Json::num(unknowns as f64)),
                ("nt", Json::num(nt as f64)),
                ("serial_s", json_f64(serial_s)),
                ("parallel_s", json_f64(parallel_s)),
                (
                    "crossover",
                    if crossover == NO_CROSSOVER {
                        Json::Null
                    } else {
                        Json::num(crossover as f64)
                    },
                ),
            ],
            EventKind::SyncProbe {
                pool_size,
                region_launch_s,
                barrier_phase_s,
            } => vec![
                ("pool_size", Json::num(pool_size as f64)),
                ("region_launch_s", json_f64(region_launch_s)),
                ("barrier_phase_s", json_f64(barrier_phase_s)),
            ],
            EventKind::RegionPanic { pool_size } => {
                vec![("pool_size", Json::num(pool_size as f64))]
            }
            EventKind::RegionSummary { regions, barriers } => vec![
                ("regions", Json::num(regions as f64)),
                ("barriers", Json::num(barriers as f64)),
            ],
            EventKind::CommSend { peer, bytes } | EventKind::CommRecv { peer, bytes } => vec![
                ("peer", Json::num(peer as f64)),
                ("bytes", Json::num(bytes as f64)),
            ],
            EventKind::Anomaly {
                trigger,
                step,
                value,
            } => vec![
                ("trigger", Json::str(trigger.slug())),
                ("step", Json::num(step as f64)),
                ("value", json_f64(value)),
            ],
            // Tenant hashes are full u64s; JSON numbers are f64 and
            // would round them, so they go on the wire as hex strings.
            EventKind::ServeAdmit {
                tenant,
                queue_depth,
            } => vec![
                ("tenant", Json::str(format!("{tenant:016x}"))),
                ("queue_depth", Json::num(queue_depth as f64)),
            ],
            EventKind::ServeJob {
                tenant,
                queue_ns,
                cache_hits,
                cache_misses,
            } => vec![
                ("tenant", Json::str(format!("{tenant:016x}"))),
                ("queue_ns", Json::num(queue_ns as f64)),
                ("cache_hits", Json::num(cache_hits as f64)),
                ("cache_misses", Json::num(cache_misses as f64)),
            ],
            EventKind::ServeReject {
                tenant,
                reason,
                queue_depth,
            } => vec![
                ("tenant", Json::str(format!("{tenant:016x}"))),
                ("reason", Json::str(reject_reason_slug(reason))),
                ("queue_depth", Json::num(queue_depth as f64)),
            ],
            EventKind::ServeStages {
                tenant,
                admit_ns,
                dispatch_ns,
                solve_start_ns,
                solve_end_ns,
                reply_ns,
            } => vec![
                ("tenant", Json::str(format!("{tenant:016x}"))),
                ("admit_ns", Json::num(admit_ns as f64)),
                ("dispatch_ns", Json::num(dispatch_ns as f64)),
                ("solve_start_ns", Json::num(solve_start_ns as f64)),
                ("solve_end_ns", Json::num(solve_end_ns as f64)),
                ("reply_ns", Json::num(reply_ns as f64)),
            ],
        }
    }

    /// One-line human rendering for the text dump / `flight_view`.
    pub fn detail(&self) -> String {
        match *self {
            EventKind::SolveStart { unknowns, threads } => {
                format!("n={unknowns} threads={threads}")
            }
            EventKind::SolveEnd {
                converged,
                steps,
                linear_iters,
                res,
            } => format!(
                "{} after {steps} steps, {linear_iters} linear iters, res={res:.3e}",
                if converged { "converged" } else { "unconverged" }
            ),
            EventKind::PtcStep {
                step,
                res,
                dt,
                gmres_iters,
            } => format!("step={step} res={res:.3e} dt={dt:.3e} gmres={gmres_iters}"),
            EventKind::Gmres {
                exec,
                iterations,
                residual,
                reductions,
            } => format!(
                "exec={} iters={iterations} res={residual:.3e} reductions={reductions}",
                exec.name()
            ),
            EventKind::PolicyDecision {
                chosen,
                unknowns,
                nt,
                serial_s,
                parallel_s,
                crossover,
            } => {
                let x = if crossover == NO_CROSSOVER {
                    "none".to_string()
                } else {
                    crossover.to_string()
                };
                format!(
                    "chose {} (n={unknowns} nt={nt} serial={serial_s:.2e}s parallel={parallel_s:.2e}s crossover={x})",
                    chosen.name()
                )
            }
            EventKind::SyncProbe {
                pool_size,
                region_launch_s,
                barrier_phase_s,
            } => format!(
                "pool={pool_size} launch={region_launch_s:.2e}s barrier={barrier_phase_s:.2e}s"
            ),
            EventKind::RegionPanic { pool_size } => {
                format!("worker panicked in a {pool_size}-thread region")
            }
            EventKind::RegionSummary { regions, barriers } => {
                format!("regions={regions} barriers={barriers}")
            }
            EventKind::CommSend { peer, bytes } => format!("-> rank {peer}, {bytes} B"),
            EventKind::CommRecv { peer, bytes } => format!("<- rank {peer}, {bytes} B"),
            EventKind::Anomaly {
                trigger,
                step,
                value,
            } => format!("{} at step {step} (value {value:.3e})", trigger.slug()),
            EventKind::ServeAdmit {
                tenant,
                queue_depth,
            } => format!("tenant={tenant:016x} depth={queue_depth}"),
            EventKind::ServeJob {
                tenant,
                queue_ns,
                cache_hits,
                cache_misses,
            } => format!(
                "tenant={tenant:016x} queued={:.2}ms cache={cache_hits}h/{cache_misses}m",
                queue_ns as f64 / 1e6
            ),
            EventKind::ServeReject {
                tenant,
                reason,
                queue_depth,
            } => format!(
                "tenant={tenant:016x} reason={} depth={queue_depth}",
                reject_reason_slug(reason)
            ),
            EventKind::ServeStages {
                tenant,
                admit_ns,
                dispatch_ns,
                solve_start_ns,
                solve_end_ns,
                reply_ns,
            } => format!(
                "tenant={tenant:016x} queue={:.2}ms prep={:.2}ms solve={:.2}ms reply={:.2}ms",
                (dispatch_ns.saturating_sub(admit_ns)) as f64 / 1e6,
                (solve_start_ns.saturating_sub(dispatch_ns)) as f64 / 1e6,
                (solve_end_ns.saturating_sub(solve_start_ns)) as f64 / 1e6,
                (reply_ns.saturating_sub(solve_end_ns)) as f64 / 1e6
            ),
        }
    }
}

/// JSON has no NaN/Inf; residuals in a divergence dump are exactly the
/// values that go non-finite, so degrade them to strings rather than the
/// `null` the generic renderer would emit. Public so artifact writers
/// embedding flight evidence (`perf_report`) stay value-faithful too.
pub fn json_f64(x: f64) -> Json {
    if x.is_finite() {
        Json::num(x)
    } else {
        Json::str(format!("{x}"))
    }
}

// ---------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------

/// One event as stored in a ring slot: all words plain integers, so a
/// concurrent reader can never observe anything worse than a stale value
/// (torn *slots* are excluded by the stability filter, same as the span
/// ring, but even a bug there could not corrupt memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawEvent {
    /// Kind code (see [`EventKind`]); unknown codes are skipped on decode.
    pub kind: u64,
    /// Nanoseconds since the process telemetry epoch.
    pub t_ns: u64,
    /// Emitting rank (0 outside `fun3d_cluster`).
    pub rank: u64,
    /// Enclosing solve, or 0 outside any solve.
    pub solve: u64,
    /// Kind-specific payload words.
    pub payload: [u64; PAYLOAD_WORDS],
}

type Slot = [AtomicU64; SLOT_WORDS];

/// Fixed-capacity single-writer ring of [`RawEvent`]s — the span ring's
/// publication protocol with a wider, integer-only slot.
pub struct FlightRing {
    slots: Box<[Slot]>,
    /// Total events ever pushed (monotonic; slot index = `head % cap`).
    head: AtomicU64,
}

impl FlightRing {
    /// A ring holding up to `capacity` events (min 2; newest win).
    pub fn new(capacity: usize) -> FlightRing {
        let capacity = capacity.max(2);
        let slots = (0..capacity)
            .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            .collect();
        FlightRing {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events pushed over the ring's lifetime.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Appends an event. Must only be called from the ring's owning
    /// thread (single-writer invariant).
    pub fn push(&self, ev: RawEvent) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        slot[0].store(ev.kind, Ordering::Relaxed);
        slot[1].store(ev.t_ns, Ordering::Relaxed);
        slot[2].store(ev.rank, Ordering::Relaxed);
        slot[3].store(ev.solve, Ordering::Relaxed);
        for (w, v) in slot[4..].iter().zip(ev.payload) {
            w.store(v, Ordering::Relaxed);
        }
        // Publish: a collector that acquires `h + 1` sees the slot stores.
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copies out the stable events, oldest first, plus the count of
    /// events lost to wraparound (or trimmed as potentially in-flight).
    pub fn collect(&self) -> (Vec<RawEvent>, u64) {
        let cap = self.slots.len() as u64;
        let h1 = self.head.load(Ordering::Acquire);
        let lo = h1.saturating_sub(cap);
        let mut raw: Vec<(u64, RawEvent)> = Vec::with_capacity((h1 - lo) as usize);
        for i in lo..h1 {
            let slot = &self.slots[(i % cap) as usize];
            raw.push((
                i,
                RawEvent {
                    kind: slot[0].load(Ordering::Relaxed),
                    t_ns: slot[1].load(Ordering::Relaxed),
                    rank: slot[2].load(Ordering::Relaxed),
                    solve: slot[3].load(Ordering::Relaxed),
                    payload: std::array::from_fn(|k| slot[4 + k].load(Ordering::Relaxed)),
                },
            ));
        }
        // Index i shares a slot with i + cap, and the writer may already
        // be filling index h2's slot before publishing h2 + 1 — discard
        // every index that could have been mid-overwrite during the copy.
        let h2 = self.head.load(Ordering::Acquire);
        let stable_from = (h2 + 1).saturating_sub(cap);
        let events: Vec<RawEvent> = raw
            .into_iter()
            .filter(|(i, _)| *i >= stable_from)
            .map(|(_, ev)| ev)
            .collect();
        let dropped = h2 - events.len() as u64;
        (events, dropped)
    }

    /// Forgets all recorded events.
    pub fn clear(&self) {
        self.head.store(0, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Per-thread recording
// ---------------------------------------------------------------------

fn registry() -> &'static Mutex<Vec<Arc<FlightRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<FlightRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: std::cell::OnceCell<Arc<FlightRing>> = const { std::cell::OnceCell::new() };
    /// Current rank tag (set once per rank thread by `fun3d_cluster`).
    static RANK: Cell<u64> = const { Cell::new(0) };
    /// Current solve tag (0 = outside any solve).
    static SOLVE: Cell<u64> = const { Cell::new(0) };
}

/// Rings of exited threads the registry keeps for later dumps. A process
/// that spawns threads for as long as it runs (a rank universe per solve)
/// would otherwise grow by one ring per thread ever started.
const EXITED_RINGS_KEPT: usize = 32;

/// Drops the oldest rings whose thread has exited — the registry holds
/// the last reference — beyond the newest `keep` of them. Rings of live
/// threads always stay.
fn prune_exited(rings: &mut Vec<Arc<FlightRing>>, keep: usize) {
    let exited = |ring: &Arc<FlightRing>| Arc::strong_count(ring) == 1;
    let mut surplus = rings.iter().filter(|r| exited(r)).count().saturating_sub(keep);
    rings.retain(|ring| {
        let drop = surplus > 0 && exited(ring);
        surplus -= usize::from(drop);
        !drop
    });
}

fn with_ring<R>(f: impl FnOnce(&FlightRing) -> R) -> R {
    RING.with(|slot| {
        let ring = slot.get_or_init(|| {
            let ring = Arc::new(FlightRing::new(ring_capacity()));
            let mut rings = registry().lock().unwrap();
            // Only a new thread prunes: a dump taken right after a team of
            // threads exits still sees every one of them.
            prune_exited(&mut rings, EXITED_RINGS_KEPT);
            rings.push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

/// Tags this thread's events with a cluster rank (call once at rank
/// thread start; threads outside a cluster run record rank 0).
pub fn set_rank(rank: u64) {
    RANK.with(|r| r.set(rank));
}

/// The rank tag events from this thread carry.
pub fn current_rank() -> u64 {
    RANK.with(|r| r.get())
}

/// Identifier of one ΨTC solve, unique within the process and carried on
/// every event the solve's driver thread emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolveId(pub u64);

/// Allocates a fresh [`SolveId`], tags this thread with it, and records
/// the [`EventKind::SolveStart`] event. Pair with [`end_solve`].
pub fn begin_solve(unknowns: u64, threads: u64) -> SolveId {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let id = NEXT.fetch_add(1, StdOrdering::Relaxed);
    SOLVE.with(|s| s.set(id));
    emit(EventKind::SolveStart { unknowns, threads });
    SolveId(id)
}

/// Records the [`EventKind::SolveEnd`] event and clears the thread's
/// solve tag.
pub fn end_solve(id: SolveId, converged: bool, steps: u64, linear_iters: u64, res: f64) {
    SOLVE.with(|s| s.set(id.0));
    emit(EventKind::SolveEnd {
        converged,
        steps,
        linear_iters,
        res,
    });
    SOLVE.with(|s| s.set(0));
}

/// Records one event tagged with an explicit solve id instead of the
/// thread's current tag — for emitters that speak *about* a solve after
/// it finished (the serve dispatcher stamping `ServeJob` with the
/// completed job's [`SolveId`]). Restores the thread's previous tag.
pub fn emit_tagged(solve: u64, kind: EventKind) {
    let prev = SOLVE.with(|s| s.replace(solve));
    emit(kind);
    SOLVE.with(|s| s.set(prev));
}

/// Records one event on the current thread's ring, tagged with the
/// thread's `(rank, solve)`. Allocation-free after the thread's first
/// emit; one relaxed load + branch when the recorder is off.
#[inline]
pub fn emit(kind: EventKind) {
    if !enabled() {
        return;
    }
    let (code, payload) = kind.encode();
    let ev = RawEvent {
        kind: code,
        t_ns: now_ns(),
        rank: current_rank(),
        solve: SOLVE.with(|s| s.get()),
        payload,
    };
    with_ring(|r| r.push(ev));
}

// ---------------------------------------------------------------------
// Snapshot / merge
// ---------------------------------------------------------------------

/// One decoded event in the merged timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightEvent {
    /// Nanoseconds since the process telemetry epoch (shared by all
    /// ranks: cluster ranks are threads of this process).
    pub t_ns: u64,
    /// Emitting rank.
    pub rank: u64,
    /// Enclosing solve (0 = none).
    pub solve: u64,
    /// Decoded payload.
    pub kind: EventKind,
}

/// A merged, time-ordered snapshot of every thread's flight ring.
#[derive(Clone, Debug, Default)]
pub struct FlightLog {
    /// Events sorted by `(t_ns, rank)`; per-thread order preserved on ties.
    pub events: Vec<FlightEvent>,
    /// Events lost to ring wraparound across all threads.
    pub dropped: u64,
}

impl FlightLog {
    /// Events of one solve, in timeline order.
    pub fn solve(&self, id: u64) -> Vec<&FlightEvent> {
        self.events.iter().filter(|e| e.solve == id).collect()
    }

    /// Distinct solve ids present (sorted; 0 excluded).
    pub fn solve_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.events.iter().map(|e| e.solve).filter(|&s| s != 0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Collects every registered ring into a merged, time-ordered
/// [`FlightLog`]. Safe at any time (single-writer collection protocol);
/// complete timelines require a quiescent point.
pub fn snapshot() -> FlightLog {
    let rings = registry().lock().unwrap();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        let (raw, d) = ring.collect();
        dropped += d;
        for ev in raw {
            if let Some(kind) = EventKind::decode(ev.kind, ev.payload) {
                events.push(FlightEvent {
                    t_ns: ev.t_ns,
                    rank: ev.rank,
                    solve: ev.solve,
                    kind,
                });
            }
        }
    }
    // Stable sort: cross-thread order by time then rank, per-thread
    // (causal) order preserved on equal keys.
    events.sort_by(|a, b| a.t_ns.cmp(&b.t_ns).then(a.rank.cmp(&b.rank)));
    FlightLog { events, dropped }
}

/// Clears every registered ring (tests and tools; quiescent points only).
pub fn reset() {
    for ring in registry().lock().unwrap().iter() {
        ring.clear();
    }
}

// ---------------------------------------------------------------------
// Dumps
// ---------------------------------------------------------------------

#[derive(Default)]
struct DumpConfig {
    dir: Option<PathBuf>,
    prefix: Option<String>,
}

fn dump_config() -> &'static Mutex<DumpConfig> {
    static CONFIG: OnceLock<Mutex<DumpConfig>> = OnceLock::new();
    CONFIG.get_or_init(|| Mutex::new(DumpConfig::default()))
}

/// Overrides the dump directory (wins over `FUN3D_FLIGHT_DIR`).
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    dump_config().lock().unwrap().dir = Some(dir.into());
}

/// Overrides the dump file prefix (wins over `FUN3D_FLIGHT_PREFIX`).
pub fn set_dump_prefix(prefix: impl Into<String>) {
    dump_config().lock().unwrap().prefix = Some(prefix.into());
}

/// The directory dumps land in: programmatic override, else
/// `FUN3D_FLIGHT_DIR`, else `target/experiments`.
pub fn dump_dir() -> PathBuf {
    if let Some(d) = dump_config().lock().unwrap().dir.clone() {
        return d;
    }
    std::env::var("FUN3D_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"))
}

fn dump_prefix() -> String {
    if let Some(p) = dump_config().lock().unwrap().prefix.clone() {
        return p;
    }
    std::env::var("FUN3D_FLIGHT_PREFIX").unwrap_or_else(|_| "flight".to_string())
}

/// Whether `FUN3D_FLIGHT_DUMP` requests a dump at every solve end.
pub fn dump_requested() -> bool {
    match std::env::var("FUN3D_FLIGHT_DUMP") {
        Ok(v) => !matches!(v.trim(), "" | "0"),
        Err(_) => false,
    }
}

/// Renders a snapshot as the strict dump artifact.
pub fn to_json(log: &FlightLog, trigger: Trigger) -> Json {
    let timeline: Vec<Json> = log
        .events
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("t_ns", Json::num(e.t_ns as f64)),
                ("rank", Json::num(e.rank as f64)),
                ("solve", Json::num(e.solve as f64)),
                ("event", Json::str(e.kind.name())),
            ];
            fields.extend(e.kind.fields());
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("trigger", Json::str(trigger.slug())),
        ("generated_ns", Json::num(now_ns() as f64)),
        ("events", Json::num(log.events.len() as f64)),
        ("dropped", Json::num(log.dropped as f64)),
        ("timeline", Json::Arr(timeline)),
    ])
}

/// Artifact schema tag ([`check_dump`] requires it verbatim).
pub const SCHEMA: &str = "fun3d.flight.v1";

/// Renders a snapshot as the human-readable text timeline.
pub fn render_text(log: &FlightLog, trigger: Trigger) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flight dump — trigger: {} — {} events ({} dropped)\n",
        trigger.slug(),
        log.events.len(),
        log.dropped
    ));
    for e in &log.events {
        out.push_str(&format!(
            "{:>12.3} ms  rank {}  solve {:>3}  {:<15} {}\n",
            e.t_ns as f64 * 1e-6,
            e.rank,
            e.solve,
            e.kind.name(),
            e.kind.detail()
        ));
    }
    out
}

/// Snapshots every ring and writes `<dir>/<prefix>.<trigger>.json` (the
/// strict artifact) and the matching `.txt` timeline. Returns the JSON
/// path. The directory is created if missing.
pub fn dump(trigger: Trigger) -> std::io::Result<PathBuf> {
    let log = snapshot();
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}.{}", dump_prefix(), trigger.slug());
    let json_path = dir.join(format!("{stem}.json"));
    let mut f = std::fs::File::create(&json_path)?;
    f.write_all(to_json(&log, trigger).render_pretty().as_bytes())?;
    std::fs::write(dir.join(format!("{stem}.txt")), render_text(&log, trigger))?;
    Ok(json_path)
}

/// Records a [`EventKind::RegionPanic`] event and dumps the flight log —
/// once per process, so a test suite that deliberately panics workers
/// repeatedly does not spam artifacts. Called by `ThreadPool::run` on the
/// launcher thread just before it propagates the panic. IO errors are
/// swallowed: the recorder must never turn one failure into two.
pub fn note_region_panic(pool_size: usize) {
    emit(EventKind::RegionPanic {
        pool_size: pool_size as u64,
    });
    if !enabled() {
        return;
    }
    static DUMPED: AtomicBool = AtomicBool::new(false);
    if !DUMPED.swap(true, StdOrdering::Relaxed) {
        let _ = dump(Trigger::RegionPanic);
    }
}

// ---------------------------------------------------------------------
// Dump validation
// ---------------------------------------------------------------------

/// Strictly validates a parsed dump artifact: schema tag, known trigger,
/// event count consistency, and — on every timeline entry — the
/// `(t_ns, rank, solve)` tags, a known event name, and global time
/// ordering. Returns the event count. Shared by `flight_view --check`
/// and the test suites.
pub fn check_dump(doc: &Json) -> Result<usize, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, want {SCHEMA:?}"));
    }
    let trigger = doc
        .get("trigger")
        .and_then(Json::as_str)
        .ok_or("missing trigger")?;
    if Trigger::parse(trigger).is_none() {
        return Err(format!("unknown trigger {trigger:?}"));
    }
    let declared = doc
        .get("events")
        .and_then(Json::as_f64)
        .ok_or("missing events count")? as usize;
    doc.get("dropped")
        .and_then(Json::as_f64)
        .ok_or("missing dropped count")?;
    let timeline = doc
        .get("timeline")
        .and_then(Json::as_arr)
        .ok_or("missing timeline")?;
    if timeline.len() != declared {
        return Err(format!(
            "events count {} != timeline length {}",
            declared,
            timeline.len()
        ));
    }
    let mut prev_t = 0.0f64;
    for (i, entry) in timeline.iter().enumerate() {
        let t = entry
            .get("t_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("timeline[{i}]: missing t_ns"))?;
        entry
            .get("rank")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("timeline[{i}]: missing rank"))?;
        entry
            .get("solve")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("timeline[{i}]: missing solve"))?;
        let name = entry
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("timeline[{i}]: missing event"))?;
        if !EventKind::NAMES.contains(&name) {
            return Err(format!("timeline[{i}]: unknown event {name:?}"));
        }
        if t < prev_t {
            return Err(format!(
                "timeline[{i}]: t_ns {t} < previous {prev_t} (not time-ordered)"
            ));
        }
        prev_t = t;
    }
    Ok(declared)
}

/// Reads, parses, and [`check_dump`]-validates an artifact from disk.
pub fn check_dump_file(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
    check_dump(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The enable flag and the dump config are process-global: tests that
    /// change either, or that emit through the global recorder and expect
    /// to find their events, serialize here.
    static DUMP_LOCK: StdMutex<()> = StdMutex::new(());

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::SolveStart {
                unknowns: 700,
                threads: 4,
            },
            EventKind::SolveEnd {
                converged: true,
                steps: 12,
                linear_iters: 40,
                res: 1.5e-9,
            },
            EventKind::PtcStep {
                step: 3,
                res: 0.25,
                dt: 4.0,
                gmres_iters: 5,
            },
            EventKind::Gmres {
                exec: ExecTag::Team,
                iterations: 7,
                residual: 1e-4,
                reductions: 8,
            },
            EventKind::PolicyDecision {
                chosen: ExecTag::Serial,
                unknowns: 700,
                nt: 4,
                serial_s: 2.4e-4,
                parallel_s: 8.1e-4,
                crossover: 52_000,
            },
            EventKind::PolicyDecision {
                chosen: ExecTag::PerOp,
                unknowns: 1_000_000,
                nt: 2,
                serial_s: 0.3,
                parallel_s: 0.2,
                crossover: NO_CROSSOVER,
            },
            EventKind::SyncProbe {
                pool_size: 2,
                region_launch_s: 3.2e-6,
                barrier_phase_s: 8.0e-7,
            },
            EventKind::RegionPanic { pool_size: 2 },
            EventKind::RegionSummary {
                regions: 120,
                barriers: 64,
            },
            EventKind::CommSend { peer: 1, bytes: 800 },
            EventKind::CommRecv { peer: 0, bytes: 800 },
            EventKind::Anomaly {
                trigger: Trigger::Divergence,
                step: 9,
                value: f64::NAN,
            },
            EventKind::ServeAdmit {
                tenant: 0xdead_beef_cafe_f00d,
                queue_depth: 7,
            },
            EventKind::ServeJob {
                tenant: 0xdead_beef_cafe_f00d,
                queue_ns: 1_500_000,
                cache_hits: 3,
                cache_misses: 1,
            },
            EventKind::ServeReject {
                tenant: u64::MAX,
                reason: 1,
                queue_depth: 64,
            },
            EventKind::ServeStages {
                tenant: 0xdead_beef_cafe_f00d,
                admit_ns: 1_000,
                dispatch_ns: 2_500,
                solve_start_ns: 3_000,
                solve_end_ns: 9_000,
                reply_ns: 9_500,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_encoding() {
        for kind in all_kinds() {
            let (code, payload) = kind.encode();
            let back = EventKind::decode(code, payload).expect("decodes");
            match (kind, back) {
                // NaN != NaN: compare the bit pattern for the anomaly value.
                (
                    EventKind::Anomaly {
                        trigger: ta,
                        step: sa,
                        value: va,
                    },
                    EventKind::Anomaly {
                        trigger: tb,
                        step: sb,
                        value: vb,
                    },
                ) => {
                    assert_eq!((ta, sa), (tb, sb));
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn unknown_kind_codes_are_skipped_on_decode() {
        assert_eq!(EventKind::decode(0, [0; PAYLOAD_WORDS]), None);
        assert_eq!(EventKind::decode(999, [7; PAYLOAD_WORDS]), None);
        // Corrupt exec tag inside a known kind: also skipped, not garbage.
        assert_eq!(EventKind::decode(4, [99, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn registry_keeps_live_rings_and_the_newest_exited_ones() {
        // A live thread's slot holds a second reference to its ring:
        // rings 1, 4 and 6 here. The other five threads have exited.
        let mut rings: Vec<Arc<FlightRing>> =
            (0..8).map(|_| Arc::new(FlightRing::new(2))).collect();
        let ids: Vec<*const FlightRing> = rings.iter().map(Arc::as_ptr).collect();
        let _live: Vec<Arc<FlightRing>> = [1, 4, 6].iter().map(|&i| Arc::clone(&rings[i])).collect();
        prune_exited(&mut rings, 2);
        let left = |rings: &[Arc<FlightRing>]| -> Vec<usize> {
            let index = |r| ids.iter().position(|&p| p == Arc::as_ptr(r)).unwrap();
            rings.iter().map(index).collect()
        };
        assert_eq!(left(&rings), [1, 4, 5, 6, 7], "oldest exited rings go first");
        prune_exited(&mut rings, 2);
        assert_eq!(left(&rings), [1, 4, 5, 6, 7], "within the bound nothing goes");
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let r = FlightRing::new(16);
        for i in 0..23u64 {
            r.push(RawEvent {
                kind: 3,
                t_ns: i * 10,
                rank: 0,
                solve: 1,
                payload: [i, 0, 0, 0, 0, 0],
            });
        }
        let (events, dropped) = r.collect();
        assert_eq!(events.len(), 15); // cap - 1: oldest retained slot trimmed
        assert_eq!(dropped, 23 - 15);
        assert_eq!(events.last().unwrap().payload[0], 22);
        for w in events.windows(2) {
            assert_eq!(w[1].payload[0] - w[0].payload[0], 1);
        }
    }

    #[test]
    fn trigger_and_exec_slugs_round_trip() {
        for t in [
            Trigger::RegionPanic,
            Trigger::Divergence,
            Trigger::Stagnation,
            Trigger::WallBudget,
            Trigger::Request,
        ] {
            assert_eq!(Trigger::parse(t.slug()), Some(t));
            assert_eq!(Trigger::from_code(t.code()), Some(t));
        }
        for e in [ExecTag::Serial, ExecTag::PerOp, ExecTag::Team] {
            assert_eq!(ExecTag::parse(e.name()), Some(e));
            assert_eq!(ExecTag::from_code(e.code()), Some(e));
        }
        assert_eq!(Trigger::parse("nope"), None);
        assert_eq!(ExecTag::parse("auto"), None, "Auto never *executes*");
    }

    #[test]
    fn emit_snapshot_merge_and_solve_tagging() {
        let _g = DUMP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let id = begin_solve(700, 2);
        emit(EventKind::PtcStep {
            step: 1,
            res: 0.5,
            dt: 2.0,
            gmres_iters: 3,
        });
        end_solve(id, true, 1, 3, 1e-10);
        let log = snapshot();
        let mine = log.solve(id.0);
        assert_eq!(mine.len(), 3, "start + step + end");
        assert!(matches!(mine[0].kind, EventKind::SolveStart { .. }));
        assert!(matches!(mine[1].kind, EventKind::PtcStep { .. }));
        assert!(matches!(mine[2].kind, EventKind::SolveEnd { .. }));
        for e in &mine {
            assert_eq!(e.rank, 0);
            assert_eq!(e.solve, id.0);
        }
        // After end_solve, new events are outside any solve.
        emit(EventKind::SyncProbe {
            pool_size: 2,
            region_launch_s: 1e-6,
            barrier_phase_s: 1e-7,
        });
        let log = snapshot();
        assert!(log
            .events
            .iter()
            .any(|e| e.solve == 0 && matches!(e.kind, EventKind::SyncProbe { .. })));
        // Timeline is globally time-ordered.
        for w in log.events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
        assert!(log.solve_ids().contains(&id.0));
    }

    #[test]
    fn cross_thread_snapshot_merges_time_ordered() {
        let _g = DUMP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let id = begin_solve(64, 2);
        std::thread::spawn(move || {
            set_rank(5);
            SOLVE.with(|s| s.set(id.0));
            for i in 0..10 {
                emit(EventKind::CommSend {
                    peer: 0,
                    bytes: i * 8,
                });
            }
        })
        .join()
        .unwrap();
        emit(EventKind::PtcStep {
            step: 1,
            res: 0.1,
            dt: 1.0,
            gmres_iters: 1,
        });
        end_solve(id, false, 1, 1, 0.1);
        let log = snapshot();
        let mine = log.solve(id.0);
        assert!(mine.iter().any(|e| e.rank == 5));
        assert!(mine.iter().any(|e| e.rank == 0));
        for w in log.events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns, "merge must be time-ordered");
        }
    }

    #[test]
    fn disabled_recorder_emits_nothing() {
        let _g = DUMP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        let before = snapshot().events.len() + snapshot().dropped as usize;
        for _ in 0..100 {
            emit(EventKind::RegionSummary {
                regions: 1,
                barriers: 1,
            });
        }
        let after = snapshot().events.len() + snapshot().dropped as usize;
        set_enabled(true);
        assert_eq!(before, after, "off-mode emit recorded something");
    }

    #[test]
    fn dump_writes_validating_artifact_and_text() {
        let _g = DUMP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = PathBuf::from("target/test-flight-dump");
        let _ = std::fs::remove_dir_all(&dir);
        set_dump_dir(&dir);
        set_dump_prefix("unit");
        let id = begin_solve(32, 1);
        emit(EventKind::Anomaly {
            trigger: Trigger::Divergence,
            step: 4,
            value: f64::INFINITY,
        });
        end_solve(id, false, 4, 9, f64::NAN);
        let path = dump(Trigger::Divergence).expect("dump writes");
        assert_eq!(path, dir.join("unit.divergence.json"));
        let n = check_dump_file(&path).expect("artifact validates");
        assert!(n >= 3);
        // The text rendering exists and names the trigger.
        let txt = std::fs::read_to_string(dir.join("unit.divergence.txt")).unwrap();
        assert!(txt.contains("trigger: divergence"));
        assert!(txt.contains("anomaly"));
        // Reset the global config for other tests.
        dump_config().lock().unwrap().dir = None;
        dump_config().lock().unwrap().prefix = None;
    }

    #[test]
    fn check_dump_rejects_malformed_artifacts() {
        let ok = to_json(
            &FlightLog {
                events: vec![FlightEvent {
                    t_ns: 5,
                    rank: 0,
                    solve: 1,
                    kind: EventKind::RegionPanic { pool_size: 2 },
                }],
                dropped: 0,
            },
            Trigger::RegionPanic,
        );
        assert_eq!(check_dump(&ok), Ok(1));

        let reject = |doc: &Json, why: &str| {
            assert!(check_dump(doc).is_err(), "accepted artifact with {why}");
        };
        reject(&Json::obj(vec![("schema", Json::str("wrong"))]), "bad schema");
        let mut bad_trigger = ok.clone();
        if let Json::Obj(pairs) = &mut bad_trigger {
            pairs[1].1 = Json::str("meteor_strike");
        }
        reject(&bad_trigger, "unknown trigger");
        let mut bad_count = ok.clone();
        if let Json::Obj(pairs) = &mut bad_count {
            pairs[3].1 = Json::num(7.0);
        }
        reject(&bad_count, "wrong event count");
        // Out-of-order timeline.
        let unordered = to_json(
            &FlightLog {
                events: vec![
                    FlightEvent {
                        t_ns: 10,
                        rank: 0,
                        solve: 1,
                        kind: EventKind::RegionPanic { pool_size: 2 },
                    },
                    FlightEvent {
                        t_ns: 3,
                        rank: 0,
                        solve: 1,
                        kind: EventKind::RegionPanic { pool_size: 2 },
                    },
                ],
                dropped: 0,
            },
            Trigger::RegionPanic,
        );
        reject(&unordered, "time-disordered timeline");
    }

    #[test]
    fn non_finite_floats_survive_the_strict_json_round_trip() {
        let log = FlightLog {
            events: vec![FlightEvent {
                t_ns: 1,
                rank: 0,
                solve: 1,
                kind: EventKind::PtcStep {
                    step: 1,
                    res: f64::NAN,
                    dt: f64::INFINITY,
                    gmres_iters: 0,
                },
            }],
            dropped: 0,
        };
        let doc = to_json(&log, Trigger::Divergence);
        let text = doc.render_pretty();
        let back = Json::parse(&text).expect("non-finite values must not break strict JSON");
        assert_eq!(check_dump(&back), Ok(1));
        let entry = &back.get("timeline").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(entry.get("res").and_then(Json::as_str), Some("NaN"));
        assert_eq!(entry.get("dt").and_then(Json::as_str), Some("inf"));
    }
}
