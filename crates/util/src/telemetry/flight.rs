//! Black-box flight recorder: an on-by-default, fixed-capacity, lock-free
//! per-thread ring of **structured solver events**, plus anomaly-triggered
//! dumps of the merged, time-ordered record.
//!
//! Where spans answer "where did the time go", the flight log answers
//! "what did the solver *decide* and *observe*": solve start/end with a
//! [`SolveId`], per-step residual/Δt, which execution scheme each GMRES
//! solve actually ran, the `AutoPolicy` decision with its modeled costs,
//! sync-probe calibrations, region/barrier summaries, and per-rank comm
//! traffic. Events are compact ([`SLOT_WORDS`] `u64`s, no allocation on
//! the hot path) and record whenever the telemetry level is `counters` or
//! above — the default — so the record already exists when something goes
//! wrong, like an aircraft's flight data recorder.
//!
//! ## Recording
//!
//! Each event is pushed into the flight [`Ring`] of the emitting thread's
//! recorder (see the [module docs](super)), tagged with the recorder's
//! `(rank, solve)`. A thread that adopts an exited thread's recorder keeps
//! appending to its flight ring, so an exited rank's events stay in the
//! next dump until they are overwritten.
//!
//! ## Event kinds
//!
//! Each kind is declared once, in the `event_kinds!` table below, as its
//! code, artifact name and typed fields; its encoding into the six
//! payload words, its decoding, its JSON fields, its text rendering and
//! the dump validator's per-kind key check are all derived from that one
//! declaration.
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
//! honoured at solve end. Dumps land in `FUN3D_FLIGHT_DIR` (default
//! `target/experiments`) unless [`set_dump_dir`] overrides it, as
//! `flight.<trigger>.json` beside its `.txt` rendering.

use super::json::Json;
use super::ring::Ring;
use super::{enabled, now_ns};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Payload words per event (beyond kind / time / rank / solve).
pub(crate) const PAYLOAD_WORDS: usize = 6;
/// Words per flight ring slot: `[kind, t_ns, rank, solve, payload…]`.
pub(crate) const SLOT_WORDS: usize = 4 + PAYLOAD_WORDS;
/// Events each thread's flight ring holds (newest win).
pub(crate) const CAPACITY: usize = 4096;

/// Sentinel for "no crossover exists" in [`EventKind::PolicyDecision`].
pub const NO_CROSSOVER: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------

/// How one payload word encodes a field type.
trait Word: Sized {
    fn to_word(self) -> u64;
    /// `None` for a word no value encodes to (the event is skipped).
    fn from_word(w: u64) -> Option<Self>;
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Option<u64> {
        Some(w)
    }
}

impl Word for f64 {
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(w: u64) -> Option<f64> {
        Some(f64::from_bits(w))
    }
}

impl Word for bool {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Option<bool> {
        Some(w != 0)
    }
}

/// A closed set of named tags stored as their declaration index.
macro_rules! tags {
    ($(#[doc = $doc:literal])* $ty:ident::$slug:ident {
        $($(#[doc = $vdoc:literal])* $v:ident = $s:literal,)+
    }) => {
        $(#[doc = $doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty {
            $($(#[doc = $vdoc])* $v,)+
        }

        impl $ty {
            const ALL: &'static [$ty] = &[$($ty::$v),+];

            /// Stable artifact name.
            pub fn $slug(self) -> &'static str {
                match self {
                    $($ty::$v => $s,)+
                }
            }

            /// Parses an artifact name back.
            pub fn parse(s: &str) -> Option<$ty> {
                Self::ALL.iter().copied().find(|t| t.$slug() == s)
            }
        }

        impl Word for $ty {
            fn to_word(self) -> u64 {
                self as u64
            }
            fn from_word(w: u64) -> Option<$ty> {
                Self::ALL.get(w as usize).copied()
            }
        }
    };
}

tags! {
    /// Concrete execution scheme recorded on [`EventKind::Gmres`] /
    /// [`EventKind::PolicyDecision`] events (a flight-local mirror of
    /// `fun3d_solver::ExecMode`, kept here so `fun3d_util` stays at the
    /// bottom of the dependency graph; names match `PtcStats::exec`).
    ExecTag::name {
        /// Single-threaded vector ops.
        Serial = "serial",
        /// Region-per-op threading.
        PerOp = "per-op",
        /// Persistent SPMD regions.
        Team = "team",
    }
}

tags! {
    /// What forced (or requested) a flight dump; the slug is also the
    /// dump file stem suffix.
    Trigger::slug {
        /// A worker panicked inside a `ThreadPool` region.
        RegionPanic = "region_panic",
        /// Residual blow-up or NaN/Inf detected by the anomaly detector.
        Divergence = "divergence",
        /// Residual stalled over the detector's window.
        Stagnation = "stagnation",
        /// The solve exceeded its wall-clock budget.
        WallBudget = "wall_budget",
        /// Explicit `FUN3D_FLIGHT_DUMP` request.
        Request = "request",
    }
}

fn num(x: u64) -> Json {
    Json::num(x as f64)
}

/// Tenant hashes are full u64s; JSON numbers are f64 and would round
/// them, so they go on the wire as hex strings.
fn hex(x: u64) -> Json {
    Json::str(format!("{x:016x}"))
}

fn exec_json(e: ExecTag) -> Json {
    Json::str(e.name())
}

fn trigger_json(t: Trigger) -> Json {
    Json::str(t.slug())
}

fn reason_json(code: u64) -> Json {
    Json::str(reject_reason_slug(code))
}

fn crossover_json(x: u64) -> Json {
    if x == NO_CROSSOVER {
        Json::Null
    } else {
        num(x)
    }
}

/// Declares every event kind once: `code => Kind "name" { field: type =
/// json_renderer, … }`.
macro_rules! event_kinds {
    ($(
        $(#[doc = $doc:literal])*
        $code:literal => $kind:ident $name:literal {
            $($(#[doc = $fdoc:literal])* $field:ident: $ty:ty = $json:expr,)+
        }
    )+) => {
        /// One structured solver event. Every variant encodes into
        /// [`PAYLOAD_WORDS`] `u64` payload words (floats bit-cast), so
        /// recording is allocation-free.
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum EventKind {
            $($(#[doc = $doc])* $kind { $($(#[doc = $fdoc])* $field: $ty,)+ },)+
        }

        $(const _: () = assert!([$(stringify!($field)),+].len() <= PAYLOAD_WORDS);)+

        impl EventKind {
            /// Every kind's artifact name with its field keys, in code
            /// order (dump validation).
            pub(crate) const KINDS: &'static [(&'static str, &'static [&'static str])] =
                &[$(($name, &[$(stringify!($field)),+]),)+];

            /// Stable artifact name for this kind.
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$kind { .. } => $name,)+
                }
            }

            fn encode(&self) -> (u64, [u64; PAYLOAD_WORDS]) {
                let mut p = [0; PAYLOAD_WORDS];
                let code = match *self {
                    $(EventKind::$kind { $($field),+ } => {
                        for (w, v) in p.iter_mut().zip([$(Word::to_word($field)),+]) {
                            *w = v;
                        }
                        $code
                    })+
                };
                (code, p)
            }

            fn decode(code: u64, p: [u64; PAYLOAD_WORDS]) -> Option<EventKind> {
                let mut w = p.into_iter();
                $(if code == $code {
                    return Some(EventKind::$kind {
                        $($field: Word::from_word(w.next()?)?,)+
                    });
                })+
                None
            }

            /// `(key, value)` payload fields for the JSON artifact.
            pub(crate) fn fields(&self) -> Vec<(&'static str, Json)> {
                match *self {
                    $(EventKind::$kind { $($field),+ } => {
                        vec![$((stringify!($field), ($json)($field)),)+]
                    })+
                }
            }
        }
    };
}

event_kinds! {
    /// A ΨTC solve began.
    1 => SolveStart "solve_start" {
        /// Scalar unknowns.
        unknowns: u64 = num,
        /// Solver pool workers (1 = serial).
        threads: u64 = num,
    }
    /// The solve finished (converged, hit max steps, or bailed).
    2 => SolveEnd "solve_end" {
        /// Tolerance met.
        converged: bool = Json::Bool,
        /// Pseudo-time steps taken.
        steps: u64 = num,
        /// Total linear iterations.
        linear_iters: u64 = num,
        /// Final residual norm.
        res: f64 = json_f64,
    }
    /// One pseudo-time step completed; step 0 records the initial
    /// residual, so a solve's `ptc_step` events are its whole
    /// convergence history.
    3 => PtcStep "ptc_step" {
        /// Step index (0 = the initial state).
        step: u64 = num,
        /// ‖f(u)‖ after the step.
        res: f64 = json_f64,
        /// SER pseudo-time step used (0 at step 0).
        dt: f64 = json_f64,
        /// Linear iterations this step.
        gmres_iters: u64 = num,
    }
    /// One linear solve completed, with the scheme that actually ran.
    4 => Gmres "gmres" {
        /// Executed scheme (Auto resolved).
        exec: ExecTag = exec_json,
        /// Matrix applications.
        iterations: u64 = num,
        /// Final preconditioned residual.
        residual: f64 = json_f64,
        /// Global reduction rounds.
        reductions: u64 = num,
    }
    /// The adaptive policy resolved `Auto` to a concrete scheme.
    5 => PolicyDecision "policy_decision" {
        /// Chosen scheme.
        chosen: ExecTag = exec_json,
        /// Problem size the decision was made for.
        unknowns: u64 = num,
        /// Pool workers offered.
        nt: u64 = num,
        /// Modeled serial iteration seconds.
        serial_s: f64 = json_f64,
        /// Modeled best-parallel iteration seconds (work + sync).
        parallel_s: f64 = json_f64,
        /// Modeled crossover size, or [`NO_CROSSOVER`].
        crossover: u64 = crossover_json,
    }
    /// A sync-cost calibration probe ran (cache miss in the policy).
    6 => SyncProbe "sync_probe" {
        /// Pool workers measured.
        pool_size: u64 = num,
        /// Measured empty-region launch cost, seconds.
        region_launch_s: f64 = json_f64,
        /// Measured barrier phase cost, seconds.
        barrier_phase_s: f64 = json_f64,
    }
    /// A worker panicked inside a pool region (recorded by the launcher).
    7 => RegionPanic "region_panic" {
        /// Pool workers.
        pool_size: u64 = num,
    }
    /// Region/barrier totals over one solve (launch *summaries*, not
    /// per-launch events — regions are too frequent to log individually).
    8 => RegionSummary "region_summary" {
        /// Pool regions launched during the solve.
        regions: u64 = num,
        /// Barrier phases crossed during the solve.
        barriers: u64 = num,
    }
    /// A cluster rank sent a point-to-point message.
    9 => CommSend "comm_send" {
        /// Destination rank.
        peer: u64 = num,
        /// Payload bytes.
        bytes: u64 = num,
    }
    /// A cluster rank received a point-to-point message.
    10 => CommRecv "comm_recv" {
        /// Source rank.
        peer: u64 = num,
        /// Payload bytes.
        bytes: u64 = num,
    }
    /// The anomaly detector fired.
    11 => Anomaly "anomaly" {
        /// What it detected.
        trigger: Trigger = trigger_json,
        /// Step at which it fired.
        step: u64 = num,
        /// Offending value (residual norm, or elapsed seconds for a
        /// wall-budget overrun).
        value: f64 = json_f64,
    }
    /// The serve front-end admitted a request into a tenant queue.
    12 => ServeAdmit "serve_admit" {
        /// FNV-64 hash of the tenant name (the full name lives in the
        /// request log; six u64 words can't carry a string).
        tenant: u64 = hex,
        /// Global queue depth *after* admission.
        queue_depth: u64 = num,
    }
    /// A serve job finished executing (emitted under the job's solve
    /// tag, so the dump ties tenant → `SolveId` → solver events).
    13 => ServeJob "serve_job" {
        /// FNV-64 hash of the tenant name.
        tenant: u64 = hex,
        /// Nanoseconds spent queued before a team picked the job up.
        queue_ns: u64 = num,
        /// Artifact-cache hits while preparing this job.
        cache_hits: u64 = num,
        /// Artifact-cache misses while preparing this job.
        cache_misses: u64 = num,
    }
    /// Admission control shed a request.
    14 => ServeReject "serve_reject" {
        /// FNV-64 hash of the tenant name.
        tenant: u64 = hex,
        /// Structured reason, decoded by [`reject_reason_slug`].
        reason: u64 = reason_json,
        /// Global queue depth at the time of rejection.
        queue_depth: u64 = num,
    }
    /// End-to-end stage boundaries for one serve request (emitted under
    /// the job's solve tag once the reply is written). Timestamps are
    /// nanoseconds on the process telemetry epoch — the same clock as
    /// `t_ns` — so `assemble_trace` can interleave them with solver
    /// events causally.
    15 => ServeStages "serve_stages" {
        /// FNV-64 hash of the tenant name.
        tenant: u64 = hex,
        /// When admission control accepted the request.
        admit_ns: u64 = num,
        /// When a dispatcher team dequeued it.
        dispatch_ns: u64 = num,
        /// When the solver started (artifact prep done).
        solve_start_ns: u64 = num,
        /// When the solver returned.
        solve_end_ns: u64 = num,
        /// When the reply was handed to the writer.
        reply_ns: u64 = num,
    }
}

impl EventKind {
    /// One-line human rendering for the text dump: every field as
    /// `key=value`, joined by two spaces — integers as integers, other
    /// numbers as `{:.4e}`, `null` as `-`.
    pub(crate) fn detail(&self) -> String {
        let value = |v: &Json| match v {
            Json::Null => "-".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(x) if *x == x.trunc() && x.abs() < 1e15 => format!("{}", *x as i64),
            Json::Num(x) => format!("{x:.4e}"),
            Json::Str(s) => s.clone(),
            other => other.render(),
        };
        let parts: Vec<String> = self.fields().iter().map(|(k, v)| format!("{k}={}", value(v))).collect();
        parts.join("  ")
    }
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
// Recording
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

impl FlightEvent {
    fn words(&self) -> [u64; SLOT_WORDS] {
        let (code, payload) = self.kind.encode();
        let mut w = [0; SLOT_WORDS];
        w[..4].copy_from_slice(&[code, self.t_ns, self.rank, self.solve]);
        w[4..].copy_from_slice(&payload);
        w
    }

    /// `None` for an unknown kind code or a field word no value encodes
    /// to: all slot words are plain integers, so nothing worse than a
    /// skipped event can come out of a slot.
    fn from_words(w: [u64; SLOT_WORDS]) -> Option<FlightEvent> {
        Some(FlightEvent {
            t_ns: w[1],
            rank: w[2],
            solve: w[3],
            kind: EventKind::decode(w[0], std::array::from_fn(|k| w[4 + k]))?,
        })
    }
}

/// Tags this thread's events with a cluster rank (call once at rank
/// thread start; threads outside a cluster run record rank 0).
pub fn set_rank(rank: u64) {
    if enabled() {
        super::with_recorder(|r| r.rank.store(rank, Ordering::Relaxed));
    }
}

/// Sets this thread's solve tag, returning the previous one.
fn swap_solve(solve: u64) -> u64 {
    super::with_recorder(|r| r.solve.swap(solve, Ordering::Relaxed)).unwrap_or(0)
}

/// Identifier of one ΨTC solve, unique within the process and carried on
/// every event the solve's driver thread emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolveId(pub u64);

/// Allocates a fresh [`SolveId`], tags this thread with it, and records
/// the [`EventKind::SolveStart`] event. Pair with [`end_solve`].
pub fn begin_solve(unknowns: u64, threads: u64) -> SolveId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = SolveId(NEXT.fetch_add(1, Ordering::Relaxed));
    if enabled() {
        swap_solve(id.0);
        emit(EventKind::SolveStart { unknowns, threads });
    }
    id
}

/// Records the [`EventKind::SolveEnd`] event and clears the thread's
/// solve tag.
pub fn end_solve(id: SolveId, converged: bool, steps: u64, linear_iters: u64, res: f64) {
    emit_tagged(
        id.0,
        EventKind::SolveEnd {
            converged,
            steps,
            linear_iters,
            res,
        },
    );
    if enabled() {
        swap_solve(0);
    }
}

/// Records one event tagged with an explicit solve id instead of the
/// thread's current tag — for emitters that speak *about* a solve after
/// it finished (the serve dispatcher stamping `ServeJob` with the
/// completed job's [`SolveId`]). Restores the thread's previous tag.
pub fn emit_tagged(solve: u64, kind: EventKind) {
    if !enabled() {
        return;
    }
    let prev = swap_solve(solve);
    emit(kind);
    swap_solve(prev);
}

/// Records one event on the current thread's flight ring, tagged with
/// the thread's `(rank, solve)`. Allocation-free after the thread's first
/// emit; one relaxed load + branch at level `off`.
#[inline]
pub fn emit(kind: EventKind) {
    if !enabled() {
        return;
    }
    let t_ns = now_ns();
    super::with_recorder(|r| {
        let ev = FlightEvent {
            t_ns,
            rank: r.rank.load(Ordering::Relaxed),
            solve: r.solve.load(Ordering::Relaxed),
            kind,
        };
        r.flight
            .get_or_init(|| Ring::new(CAPACITY))
            .push(ev.words());
    });
}

// ---------------------------------------------------------------------
// Snapshot / merge
// ---------------------------------------------------------------------

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

    /// One solve's convergence history from its `ptc_step` events:
    /// `(step, res, dt, gmres_iters)`, in step order. Starts at step 0,
    /// the initial residual, so the residuals are exactly
    /// `PtcStats::res_history` when no event was lost.
    pub fn convergence(&self, id: u64) -> Vec<(u64, f64, f64, u64)> {
        let mut steps: Vec<(u64, f64, f64, u64)> = self
            .solve(id)
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::PtcStep {
                    step,
                    res,
                    dt,
                    gmres_iters,
                } => Some((step, res, dt, gmres_iters)),
                _ => None,
            })
            .collect();
        steps.sort_by_key(|s| s.0);
        steps
    }
}

/// Collects every recorder's flight ring into a merged, time-ordered
/// [`FlightLog`]. Safe at any time (single-writer collection protocol);
/// complete timelines require a quiescent point.
pub fn flight_log() -> FlightLog {
    let mut log = FlightLog::default();
    for rec in super::recorders().iter() {
        if let Some(ring) = rec.flight.get() {
            let (slots, dropped) = ring.collect();
            log.dropped += dropped;
            log.events
                .extend(slots.into_iter().filter_map(FlightEvent::from_words));
        }
    }
    // Stable sort: cross-thread order by time then rank, per-thread
    // (causal) order preserved on equal keys.
    log.events
        .sort_by(|a, b| a.t_ns.cmp(&b.t_ns).then(a.rank.cmp(&b.rank)));
    log
}

// ---------------------------------------------------------------------
// Dumps
// ---------------------------------------------------------------------

/// [`set_dump_dir`]'s override. Every update is one assignment, so a
/// poisoned lock still holds a valid value and is recovered, never
/// propagated into a dump.
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Overrides the dump directory (wins over `FUN3D_FLIGHT_DIR`).
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    *DUMP_DIR.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir.into());
}

/// The directory dumps land in: programmatic override, else
/// `FUN3D_FLIGHT_DIR`, else `target/experiments`.
pub(crate) fn dump_dir() -> PathBuf {
    if let Some(d) = DUMP_DIR.lock().unwrap_or_else(PoisonError::into_inner).clone() {
        return d;
    }
    std::env::var("FUN3D_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"))
}

/// Whether `FUN3D_FLIGHT_DUMP` requests a dump at every solve end.
pub fn dump_requested() -> bool {
    match std::env::var("FUN3D_FLIGHT_DUMP") {
        Ok(v) => !matches!(v.trim(), "" | "0"),
        Err(_) => false,
    }
}

/// Renders a snapshot as the strict dump artifact.
pub(crate) fn to_json(log: &FlightLog, trigger: Trigger) -> Json {
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
pub(crate) const SCHEMA: &str = "fun3d.flight.v1";

/// Renders a snapshot as the human-readable text timeline.
pub(crate) fn render_text(log: &FlightLog, trigger: Trigger) -> String {
    let mut out = format!(
        "flight dump — trigger: {} — {} events ({} dropped)\n",
        trigger.slug(),
        log.events.len(),
        log.dropped
    );
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

/// Snapshots every ring and writes `<dir>/flight.<trigger>.json` (the
/// strict artifact) and the matching `.txt` timeline. Returns the JSON
/// path. The directory is created if missing.
pub fn dump(trigger: Trigger) -> std::io::Result<PathBuf> {
    let log = flight_log();
    let dir = dump_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("flight.{}", trigger.slug());
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
    if !enabled() {
        return;
    }
    emit(EventKind::RegionPanic {
        pool_size: pool_size as u64,
    });
    static DUMPED: AtomicBool = AtomicBool::new(false);
    if !DUMPED.swap(true, Ordering::Relaxed) {
        let _ = dump(Trigger::RegionPanic);
    }
}

// ---------------------------------------------------------------------
// Dump validation
// ---------------------------------------------------------------------

/// Strictly validates a parsed dump artifact: schema tag, known trigger,
/// event count consistency, and — on every timeline entry — the
/// `(t_ns, rank, solve)` tags, a known event name with every field its
/// kind declares, and global time ordering. Returns the event count.
/// What the test suites hold every dump to.
pub(crate) fn check_dump(doc: &Json) -> Result<usize, String> {
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
        let tag = |k: &str| {
            entry
                .get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("timeline[{i}]: missing {k}"))
        };
        let t = tag("t_ns")?;
        tag("rank")?;
        tag("solve")?;
        let name = entry
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("timeline[{i}]: missing event"))?;
        let (_, fields) = EventKind::KINDS
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("timeline[{i}]: unknown event {name:?}"))?;
        if let Some(f) = fields.iter().find(|f| entry.get(f).is_none()) {
            return Err(format!("timeline[{i}]: {name} without {f}"));
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
    use super::super::{set_level, Level, TEST_LOCK};
    use super::*;

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
            EventKind::CommSend {
                peer: 1,
                bytes: 800,
            },
            EventKind::CommRecv {
                peer: 0,
                bytes: 800,
            },
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
        let kinds = all_kinds();
        for kind in &kinds {
            let (code, payload) = kind.encode();
            let back = EventKind::decode(code, payload).expect("decodes");
            // NaN != NaN: compare the encodings, then the names and the
            // declared keys of the JSON fields.
            assert_eq!(back.encode(), (code, payload));
            assert_eq!(back.name(), kind.name());
            let (_, keys) = EventKind::KINDS[code as usize - 1];
            assert_eq!(
                kind.fields().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                keys
            );
        }
        // Every declared kind is exercised, under a distinct name.
        for (i, (name, _)) in EventKind::KINDS.iter().enumerate() {
            assert!(kinds.iter().any(|k| k.name() == *name), "{name} untested");
            assert!(!EventKind::KINDS[..i].iter().any(|(n, _)| n == name));
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
    fn ring_wraparound_keeps_newest() {
        let r = Ring::<SLOT_WORDS>::new(16);
        for i in 0..23u64 {
            let ev = FlightEvent {
                t_ns: i * 10,
                rank: 0,
                solve: 1,
                kind: EventKind::RegionPanic { pool_size: i },
            };
            r.push(ev.words());
        }
        let (slots, dropped) = r.collect();
        let events: Vec<FlightEvent> = slots
            .into_iter()
            .filter_map(FlightEvent::from_words)
            .collect();
        assert_eq!(events.len(), 15); // cap - 1: oldest retained slot trimmed
        assert_eq!(dropped, 23 - 15);
        assert_eq!(events.last().unwrap().t_ns, 220);
        for w in events.windows(2) {
            assert_eq!(w[1].t_ns - w[0].t_ns, 10);
        }
    }

    #[test]
    fn trigger_and_exec_slugs_round_trip() {
        for &t in Trigger::ALL {
            assert_eq!(Trigger::parse(t.slug()), Some(t));
            assert_eq!(Trigger::from_word(t.to_word()), Some(t));
        }
        for &e in ExecTag::ALL {
            assert_eq!(ExecTag::parse(e.name()), Some(e));
            assert_eq!(ExecTag::from_word(e.to_word()), Some(e));
        }
        assert_eq!(Trigger::ALL.len(), 5);
        assert_eq!(Trigger::parse("nope"), None);
        assert_eq!(ExecTag::parse("auto"), None, "Auto never *executes*");
        assert_eq!(ExecTag::from_word(3), None);
    }

    #[test]
    fn emit_snapshot_merge_and_solve_tagging() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let id = begin_solve(700, 2);
        emit(EventKind::PtcStep {
            step: 1,
            res: 0.5,
            dt: 2.0,
            gmres_iters: 3,
        });
        end_solve(id, true, 1, 3, 1e-10);
        let log = flight_log();
        let mine = log.solve(id.0);
        assert_eq!(mine.len(), 3, "start + step + end");
        assert!(matches!(mine[0].kind, EventKind::SolveStart { .. }));
        assert!(matches!(mine[1].kind, EventKind::PtcStep { .. }));
        assert!(matches!(mine[2].kind, EventKind::SolveEnd { .. }));
        for e in &mine {
            assert_eq!(e.rank, 0);
            assert_eq!(e.solve, id.0);
        }
        assert_eq!(log.convergence(id.0), [(1, 0.5, 2.0, 3)]);
        // After end_solve, new events are outside any solve.
        emit(EventKind::SyncProbe {
            pool_size: 2,
            region_launch_s: 1e-6,
            barrier_phase_s: 1e-7,
        });
        let log = flight_log();
        assert!(log
            .events
            .iter()
            .any(|e| e.solve == 0 && matches!(e.kind, EventKind::SyncProbe { .. })));
        // Timeline is globally time-ordered.
        for w in log.events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }

    #[test]
    fn cross_thread_snapshot_merges_time_ordered() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let id = begin_solve(64, 2);
        std::thread::spawn(move || {
            set_rank(5);
            for i in 0..10 {
                emit_tagged(
                    id.0,
                    EventKind::CommSend {
                        peer: 0,
                        bytes: i * 8,
                    },
                );
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
        let log = flight_log();
        let mine = log.solve(id.0);
        assert!(mine.iter().any(|e| e.rank == 5));
        assert!(mine.iter().any(|e| e.rank == 0));
        for w in log.events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns, "merge must be time-ordered");
        }
    }

    #[test]
    fn disabled_recorder_emits_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Off);
        let before = flight_log().events.len() + flight_log().dropped as usize;
        for _ in 0..100 {
            emit(EventKind::RegionSummary {
                regions: 1,
                barriers: 1,
            });
        }
        let after = flight_log().events.len() + flight_log().dropped as usize;
        set_level(Level::Counters);
        assert_eq!(before, after, "off-mode emit recorded something");
    }

    #[test]
    fn dump_writes_validating_artifact_and_text() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = PathBuf::from("target/test-flight-dump");
        let _ = std::fs::remove_dir_all(&dir);
        set_dump_dir(&dir);
        let id = begin_solve(32, 1);
        emit(EventKind::Anomaly {
            trigger: Trigger::Divergence,
            step: 4,
            value: f64::INFINITY,
        });
        end_solve(id, false, 4, 9, f64::NAN);
        let path = dump(Trigger::Divergence).expect("dump writes");
        assert_eq!(path, dir.join("flight.divergence.json"));
        let n = check_dump_file(&path).expect("artifact validates");
        assert!(n >= 3);
        // The text rendering exists and names the trigger.
        let txt = std::fs::read_to_string(dir.join("flight.divergence.txt")).unwrap();
        assert!(txt.contains("trigger: divergence"));
        assert!(txt.contains("anomaly"));
        assert!(
            txt.contains("trigger=divergence  step=4  value=inf"),
            "{txt}"
        );
        // Reset the global override for other tests.
        *DUMP_DIR.lock().unwrap() = None;
    }

    #[test]
    fn check_dump_rejects_malformed_artifacts() {
        let log = |events: Vec<(u64, EventKind)>| FlightLog {
            events: events
                .into_iter()
                .map(|(t_ns, kind)| FlightEvent {
                    t_ns,
                    rank: 0,
                    solve: 1,
                    kind,
                })
                .collect(),
            dropped: 0,
        };
        let panic_at = |t| (t, EventKind::RegionPanic { pool_size: 2 });
        let ok = to_json(&log(vec![panic_at(5)]), Trigger::RegionPanic);
        assert_eq!(check_dump(&ok), Ok(1));

        let reject = |doc: &Json, why: &str| {
            assert!(check_dump(doc).is_err(), "accepted artifact with {why}");
        };
        reject(
            &Json::obj(vec![("schema", Json::str("wrong"))]),
            "bad schema",
        );
        let edited = |from: &str, to: &str| {
            let text = ok.render();
            assert!(text.contains(from), "{from} not in {text}");
            Json::parse(&text.replace(from, to)).unwrap()
        };
        reject(
            &edited(r#""trigger":"region_panic""#, r#""trigger":"meteor_strike""#),
            "unknown trigger",
        );
        reject(&edited(r#""events":1"#, r#""events":7"#), "wrong event count");
        reject(
            &edited(r#","pool_size":2"#, ""),
            "an event without a field its kind declares",
        );
        let unordered = to_json(&log(vec![panic_at(10), panic_at(3)]), Trigger::RegionPanic);
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
