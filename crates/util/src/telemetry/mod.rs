//! Low-overhead run telemetry: per-thread spans, performance-model
//! counters, the flight recorder, live metrics, and machine-readable
//! exporters.
//!
//! The paper's argument is measurement-driven — Fig. 5's kernel profile,
//! Fig. 6's achieved-vs-STREAM bandwidth, Table 3's bytes-per-edge model.
//! This module records what those figures need:
//!
//! * **counters** — the [`KernelCounts`] vocabulary (wall time, items,
//!   bytes read/written, flops) from which reports derive each kernel's
//!   time, arithmetic intensity and achieved GB/s against a machine's
//!   STREAM number. A kernel call records through one guard, [`kernel`],
//!   which reads the clock once at each end.
//! * **spans** — named intervals recorded into a per-thread single-writer
//!   [`Ring`]; [`Profile`] derives exact self/total time per span name
//!   from their nesting.
//! * **flight events** ([`emit`], [`flight_log`]) — structured solver
//!   decisions and observations, including each pseudo-time step's
//!   residual, Δt and GMRES iterations (the convergence history).
//! * **metrics** ([`metrics`]) — live counters, gauges and latency
//!   histograms.
//! * **exporters** — Chrome `trace_event` JSON ([`render_chrome_trace`]),
//!   folded stacks and speedscope ([`folded`], [`speedscope`]), and a
//!   [`Json`] builder for the structured run summary.
//!
//! ## One gate
//!
//! The `FUN3D_TELEMETRY` environment variable picks a [`Level`]: `off`,
//! `counters` (the default: counters, flight events and metrics), `spans`
//! or `full`. Every instrumentation site is gated on one relaxed atomic
//! load and a branch; at `off` nothing allocates and nothing is recorded.
//! Tools may override programmatically with [`set_level`]. The only other
//! telemetry variables place and request flight dumps
//! (`FUN3D_FLIGHT_DIR`, `FUN3D_FLIGHT_DUMP`).
//!
//! ## One recorder per thread, adopted by the next
//!
//! Each thread records into one recorder: its label, its rank and solve
//! tags, its span ring, its flight ring, its counters and its histogram
//! shards. The owning thread is the only writer of the rings and shards
//! (lock-free); counters take an uncontended mutex at kernel-invocation
//! granularity, never in inner loops. Recorders live in one registry.
//! When a thread first records, it **adopts** the recorder of a thread
//! that has exited, if there is one, instead of registering a new one:
//! the span ring is cleared (a thread's spans must nest), while flight
//! events, counters and histogram buckets carry on. So an exited thread's
//! events survive until overwritten, totals never drop, and the registry
//! holds at most as many recorders as threads were ever alive at once.

mod counters;
mod flight;
mod json;
pub mod metrics;
mod profile;
mod ring;
mod roofline;
mod trace;

pub use counters::{CounterMap, KernelCounts};
// `check_dump_file` validates dumps for the integration tests.
pub use flight::{
    begin_solve, check_dump_file, dump, dump_requested, emit, emit_tagged, end_solve, flight_log,
    json_f64, note_region_panic, reject_reason_slug, set_dump_dir, set_rank, EventKind, ExecTag,
    FlightEvent, FlightLog, SolveId, Trigger, NO_CROSSOVER,
};
pub use json::Json;
pub use profile::{check_folded, check_speedscope, folded, speedscope, Profile};
// `Ring` is exported for its model test, `crates/util/tests/model_ring.rs`.
pub use ring::{Ring, SpanEvent};
pub use roofline::{validate_roofline, Deviation, Envelope, ROOFLINE_TOLERANCE};
// `assemble_trace` has one caller, `crates/serve/tests/trace_assembly.rs`.
pub use trace::{assemble_trace, render_chrome_trace, TRACE_SCHEMA};

use metrics::HistShard;
use ring::SPAN_WORDS;
use std::cell::{OnceCell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// How much the telemetry layer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; every site costs one load + branch.
    Off = 0,
    /// Counters (with each kernel guard's wall time), flight events and
    /// metrics — the default; no spans.
    Counters = 1,
    /// Everything above plus kernel-level spans.
    Spans = 2,
    /// Everything, including high-frequency spans such as per-chunk
    /// `parallel_for` intervals.
    Full = 3,
}

impl Level {
    /// Parses the `FUN3D_TELEMETRY` value (unknown strings fall back to
    /// the default so a typo can't turn a run into a panic).
    pub(crate) fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Level::Off),
            "counters" | "on" | "1" => Some(Level::Counters),
            "spans" | "2" => Some(Level::Spans),
            "full" | "all" | "3" => Some(Level::Full),
            _ => None,
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

#[cold]
fn init_level_from_env() -> Level {
    let l = std::env::var("FUN3D_TELEMETRY")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Counters);
    // A racing set_level wins: only replace the unset sentinel.
    let _ = LEVEL.compare_exchange(
        LEVEL_UNSET,
        l as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    decode(LEVEL.load(Ordering::Relaxed))
}

fn decode(v: u8) -> Level {
    match v {
        0 => Level::Off,
        1 => Level::Counters,
        2 => Level::Spans,
        _ => Level::Full,
    }
}

/// The active level (first call reads `FUN3D_TELEMETRY`; afterwards one
/// relaxed load).
#[inline]
pub fn level() -> Level {
    let v = LEVEL.load(Ordering::Relaxed);
    if v == LEVEL_UNSET {
        init_level_from_env()
    } else {
        decode(v)
    }
}

/// Overrides the level (tools and tests; takes effect immediately on all
/// threads).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether counters, flight events and metrics record (the level is
/// [`Level::Counters`] or above).
#[inline]
pub fn enabled() -> bool {
    level() >= Level::Counters
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process telemetry epoch (the first call).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans each thread's ring holds (newest win).
pub(crate) const SPAN_CAPACITY: usize = 4096;

/// One thread's recorder. Its thread is the only writer of the rings, the
/// tags and the shards (see the module docs); aligned to two cache lines
/// so recorders that are written on every barrier wait never share one.
#[repr(align(128))]
struct Recorder {
    label: Mutex<String>,
    /// Cluster rank tag of this thread's flight events.
    rank: AtomicU64,
    /// Solve tag of this thread's flight events (0 = outside any solve).
    solve: AtomicU64,
    /// Allocated on the first span (level `spans` and up).
    spans: OnceLock<Ring<SPAN_WORDS>>,
    /// Allocated on the first flight event.
    flight: OnceLock<Ring<{ flight::SLOT_WORDS }>>,
    counters: Mutex<CounterMap>,
    /// This thread's shard of each histogram it recorded, by histogram id.
    shards: Mutex<Vec<(u64, Arc<HistShard>)>>,
}

impl Recorder {
    fn new(label: String) -> Recorder {
        Recorder {
            label: Mutex::new(label),
            rank: AtomicU64::new(0),
            solve: AtomicU64::new(0),
            spans: OnceLock::new(),
            flight: OnceLock::new(),
            counters: Mutex::new(CounterMap::new()),
            shards: Mutex::new(Vec::new()),
        }
    }

    fn push_span(&self, ev: SpanEvent) {
        self.spans
            .get_or_init(|| Ring::new(SPAN_CAPACITY))
            .push(ev.words())
    }

    /// Hands an exited thread's recorder to a new thread: a new label, no
    /// tags, no spans; flight events, counters and shards carry on.
    fn adopt(&mut self, label: String) {
        *self.label.get_mut().unwrap_or_else(|p| p.into_inner()) = label;
        *self.rank.get_mut() = 0;
        *self.solve.get_mut() = 0;
        if let Some(spans) = self.spans.get_mut() {
            spans.clear();
        }
    }
}

/// Every recorder, in registration order.
fn recorders() -> MutexGuard<'static, Vec<Arc<Recorder>>> {
    static REGISTRY: Mutex<Vec<Arc<Recorder>>> = Mutex::new(Vec::new());
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// The calling thread's recorder: an exited thread's, adopted, when one
/// is free, else a new one.
fn register() -> Arc<Recorder> {
    let thread = std::thread::current();
    let label = match thread.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", thread.id()),
    };
    let mut recs = recorders();
    // The adoption hand-off. `Arc::get_mut` succeeds only when the
    // registry holds the last reference — the previous owner's `Local`
    // has been dropped. That drop is a Release decrement of the count,
    // sequenced after every store the old thread made to the recorder
    // (its last ring push, histogram record, counter update), and
    // `get_mut` reads the count with Acquire: all of those stores
    // happen-before the adoption, hence before the new owner's first
    // store, so each ring and shard keeps exactly one writer at a time.
    // Collectors read recorders only while holding this lock, so none
    // sees the span ring being cleared.
    for rec in recs.iter_mut() {
        if let Some(free) = Arc::get_mut(rec) {
            free.adopt(label);
            return Arc::clone(rec);
        }
    }
    let rec = Arc::new(Recorder::new(label));
    recs.push(Arc::clone(&rec));
    rec
}

/// Recorders registered so far: at most the peak number of threads that
/// recorded at the same time.
pub fn registered_recorders() -> usize {
    recorders().len()
}

/// This thread's recorder, registered on first use, plus the histogram
/// shard caches that keep the record paths lock-free.
struct Local {
    rec: OnceCell<Arc<Recorder>>,
    /// Histogram id → this recorder's shard.
    shards: RefCell<Vec<(u64, Arc<HistShard>)>>,
    /// Static histogram name → this recorder's shard
    /// ([`metrics::record_ns`]).
    named: RefCell<Vec<(&'static str, Arc<HistShard>)>>,
}

impl Local {
    fn recorder(&self) -> &Recorder {
        self.rec.get_or_init(register)
    }
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            rec: OnceCell::new(),
            shards: RefCell::new(Vec::new()),
            named: RefCell::new(Vec::new()),
        }
    };
}

/// Runs `f` on this thread's [`Local`]; `None` once the thread is tearing
/// its thread-locals down (the record is dropped).
fn with_local<R>(f: impl FnOnce(&Local) -> R) -> Option<R> {
    LOCAL.try_with(f).ok()
}

fn with_recorder<R>(f: impl FnOnce(&Recorder) -> R) -> Option<R> {
    with_local(|l| f(l.recorder()))
}

/// Labels the current thread's timeline (worker id, rank id). Reuses the
/// thread name by default; call this where threads have roles the name
/// doesn't carry.
pub fn set_thread_label(label: impl Into<String>) {
    if enabled() {
        with_recorder(|r| *r.label.lock().unwrap() = label.into());
    }
}

/// An in-flight span; records into the current thread's span ring on
/// drop. Inactive (and free) below the gating level.
///
/// `!Send`: a span is recorded on the thread that dropped it, and the
/// profile derives self time from the nesting on each thread's ring, so
/// opening and closing must happen on the same thread.
#[must_use = "a span measures the scope it is bound to; bind it to a named guard"]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    active: bool,
    _pinned: std::marker::PhantomData<*const ()>,
}

impl Span {
    const INACTIVE: Span = Span {
        name: "",
        start_ns: 0,
        active: false,
        _pinned: std::marker::PhantomData,
    };

    fn open(name: &'static str) -> Span {
        Span {
            name,
            start_ns: now_ns(),
            active: true,
            _pinned: std::marker::PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let ev = SpanEvent {
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: now_ns().saturating_sub(self.start_ns),
        };
        with_recorder(|r| r.push_span(ev));
    }
}

/// Opens a kernel-level span (recorded at [`Level::Spans`] and up).
#[inline]
pub fn span(name: &'static str) -> Span {
    if level() < Level::Spans {
        return Span::INACTIVE;
    }
    Span::open(name)
}

/// Opens a high-frequency span (per-chunk, per-level) recorded only at
/// [`Level::Full`].
#[inline]
pub fn fine_span(name: &'static str) -> Span {
    if level() < Level::Full {
        return Span::INACTIVE;
    }
    Span::open(name)
}

/// An in-flight kernel call, opened by [`kernel`]. Inert at
/// [`Level::Off`].
///
/// `!Send`, like [`Span`]: its span must close on the thread that opened
/// it.
#[must_use = "a kernel guard times the scope it is bound to; bind it to a named guard"]
pub struct Kernel {
    name: &'static str,
    counts: KernelCounts,
    start_ns: u64,
    /// The level when the guard opened.
    level: Level,
    _pinned: std::marker::PhantomData<*const ()>,
}

impl Drop for Kernel {
    fn drop(&mut self) {
        if self.level < Level::Counters {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let counts = KernelCounts {
            ns: dur_ns,
            ..self.counts
        };
        with_recorder(|r| {
            r.counters.lock().unwrap().add(self.name, counts);
            if self.level >= Level::Spans {
                r.push_span(SpanEvent {
                    name: self.name,
                    start_ns: self.start_ns,
                    dur_ns,
                });
            }
        });
    }
}

/// Opens one kernel call: the clock is read here and when the guard
/// drops, which adds `counts` and the elapsed ns to this thread's counters
/// under `name` (at [`Level::Counters`] and up) and, at [`Level::Spans`]
/// and up, records a span over the same interval. Call once per kernel
/// invocation with analytic totals — never from inner loops.
#[inline]
pub fn kernel(name: &'static str, counts: KernelCounts) -> Kernel {
    let level = level();
    Kernel {
        name,
        counts,
        start_ns: if level >= Level::Counters { now_ns() } else { 0 },
        level,
        _pinned: std::marker::PhantomData,
    }
}

/// Accumulates count-only performance-model counters (no time) on the
/// current thread, at [`Level::Counters`] and up: region launches,
/// barrier phases, messages. A kernel call records through [`kernel`].
#[inline]
pub fn record_kernel(name: &'static str, c: KernelCounts) {
    if enabled() {
        with_recorder(|r| r.counters.lock().unwrap().add(name, c));
    }
}

/// The current thread's recorder's counters (its own only — useful for
/// per-rank assertions where global state would mix concurrent actors;
/// an adopted recorder's counters include its previous owners').
pub fn local_counters() -> CounterMap {
    with_recorder(|r| r.counters.lock().unwrap().clone()).unwrap_or_default()
}

/// One thread's collected telemetry.
#[derive(Clone, Debug)]
pub struct ThreadProfile {
    /// Thread label (name, worker id, or rank id).
    pub label: String,
    /// Recorded spans, in the order they closed.
    pub spans: Vec<SpanEvent>,
    /// Spans lost to ring wraparound.
    pub dropped_spans: u64,
    /// Kernel counters.
    pub counters: CounterMap,
}

/// A merged view over every recorder.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Per-recorder profiles in registration order.
    pub threads: Vec<ThreadProfile>,
}

impl Snapshot {
    /// All counters merged across threads.
    pub fn merged_counters(&self) -> CounterMap {
        let mut total = CounterMap::new();
        for t in &self.threads {
            total.merge(&t.counters);
        }
        total
    }

    /// Per-thread `(label, busy seconds, span count)` for spans whose
    /// name matches `name` exactly; threads without such spans are
    /// omitted.
    pub fn per_thread_span_seconds(&self, name: &str) -> Vec<(String, f64, u64)> {
        self.threads
            .iter()
            .filter_map(|t| {
                let (mut secs, mut n) = (0.0f64, 0u64);
                for ev in &t.spans {
                    if ev.name == name {
                        secs += ev.dur_ns as f64 * 1e-9;
                        n += 1;
                    }
                }
                (n > 0).then(|| (t.label.clone(), secs, n))
            })
            .collect()
    }

    /// Total spans lost to ring wraparound across threads.
    pub fn dropped_spans(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped_spans).sum()
    }
}

/// Collects every recorder into a [`Snapshot`].
///
/// Safe to call at any time; span rings of still-running threads are
/// read with the single-writer protocol (in-flight slots are trimmed),
/// but for complete timelines collect at a quiescent point (pool idle,
/// ranks joined).
pub fn snapshot() -> Snapshot {
    let threads = recorders()
        .iter()
        .map(|r| {
            let (slots, dropped_spans) = match r.spans.get() {
                Some(ring) => ring.collect(),
                None => (Vec::new(), 0),
            };
            ThreadProfile {
                label: r.label.lock().unwrap().clone(),
                // SAFETY: span rings only ever receive `SpanEvent::words`,
                // and these slots came out of `Ring::collect`.
                spans: slots
                    .into_iter()
                    .map(|w| unsafe { SpanEvent::from_words(w) })
                    .collect(),
                dropped_spans,
                counters: r.counters.lock().unwrap().clone(),
            }
        })
        .collect();
    Snapshot { threads }
}

/// Tests in this crate that change the level, or that record and expect
/// to find their records, serialize here and leave the level at
/// `Counters`.
#[cfg(test)]
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prop_assert, prop_assert_eq, prop_cases};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    fn with_level<R>(l: Level, f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(l);
        let out = f();
        set_level(Level::Counters);
        out
    }

    // -- allocation-counting instrumentation for the zero-alloc test --

    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    fn thread_allocs() -> u64 {
        ALLOCS.with(|c| c.get())
    }

    #[test]
    fn off_mode_is_zero_allocation_and_records_nothing() {
        with_level(Level::Off, || {
            // Warm lazy globals (epoch, level, this thread's recorder)
            // before measuring, then hammer every instrumentation entry
            // point.
            now_ns();
            let before_counters = local_counters();
            let a0 = thread_allocs();
            for i in 0..10_000u64 {
                let _k = kernel("flux", KernelCounts::once(i, 64, 8, 345));
                let _s = span("flux");
                let _f = fine_span("chunk");
                record_kernel("flux", KernelCounts::once(i, 64, 8, 345));
                set_thread_label("should-not-stick");
                flight::set_rank(i);
            }
            let a1 = thread_allocs();
            assert_eq!(a1 - a0, 0, "off-mode instrumentation allocated");
            // …and nothing was recorded either
            assert_eq!(
                local_counters().entries().len(),
                before_counters.entries().len()
            );
        });
    }

    #[test]
    fn spans_record_on_own_thread() {
        with_level(Level::Spans, || {
            set_thread_label("span-test-thread");
            {
                let _s = span("span-test-kernel");
                std::hint::black_box(());
            }
            let snap = snapshot();
            let me = snap
                .threads
                .iter()
                .find(|t| t.label == "span-test-thread")
                .expect("own thread in snapshot");
            assert!(me.spans.iter().any(|e| e.name == "span-test-kernel"));
            let per = snap.per_thread_span_seconds("span-test-kernel");
            assert!(per.iter().any(|(l, _, n)| l == "span-test-thread" && *n >= 1));
        });
    }

    #[test]
    fn kernel_guard_records_time_with_counts_and_one_span() {
        let counts = KernelCounts::once(7, 70, 7, 700);
        let find = |snap: &Snapshot| -> Vec<SpanEvent> {
            snap.threads
                .iter()
                .filter(|t| t.label == "kernel-guard-thread")
                .flat_map(|t| t.spans.iter().filter(|e| e.name == "kernel-guard").copied())
                .collect()
        };
        with_level(Level::Counters, || {
            set_thread_label("kernel-guard-thread");
            let before = local_counters();
            {
                let _k = kernel("kernel-guard", counts);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let d = local_counters().since(&before);
            let c = d.get("kernel-guard").expect("guard recorded");
            assert_eq!(KernelCounts { ns: 0, ..*c }, counts);
            assert!(c.ns >= 1_000_000, "guard measured {} ns over a 1 ms sleep", c.ns);
            assert!(find(&snapshot()).is_empty(), "no span below Spans");
        });
        with_level(Level::Spans, || {
            let before = local_counters();
            {
                let _k = kernel("kernel-guard", counts);
            }
            let d = local_counters().since(&before);
            let spans = find(&snapshot());
            assert_eq!(spans.len(), 1);
            // The span and the counters share the guard's two clock reads.
            assert_eq!(spans[0].dur_ns, d.get("kernel-guard").unwrap().ns);
        });
    }

    #[test]
    fn fine_spans_gated_on_full() {
        with_level(Level::Spans, || {
            set_thread_label("fine-gate-thread");
            {
                let _f = fine_span("fine-gate-span");
            }
            let snap = snapshot();
            assert!(
                !snap
                    .threads
                    .iter()
                    .flat_map(|t| t.spans.iter())
                    .any(|e| e.name == "fine-gate-span"),
                "fine span must not record below Full"
            );
        });
        with_level(Level::Full, || {
            {
                let _f = fine_span("fine-gate-span");
            }
            let snap = snapshot();
            assert!(snap
                .threads
                .iter()
                .flat_map(|t| t.spans.iter())
                .any(|e| e.name == "fine-gate-span"));
        });
    }

    #[test]
    fn counters_record_at_default_level_and_series_sort() {
        with_level(Level::Counters, || {
            record_kernel("ctr-test-kernel", KernelCounts::once(10, 100, 20, 500));
            record_kernel("ctr-test-kernel", KernelCounts::once(10, 100, 20, 500));
            // The convergence series is the solve's ptc_step events, in
            // step order whatever order they were emitted in.
            let id = flight::begin_solve(4, 1);
            for step in [2, 0, 1] {
                let res = 1.0 / (step + 1) as f64;
                flight::emit(flight::EventKind::PtcStep {
                    step,
                    res,
                    dt: 1.0,
                    gmres_iters: step,
                    eta: 0.1,
                });
            }
            flight::end_solve(id, true, 2, 3, 1.0 / 3.0);
            let steps: Vec<u64> = flight::flight_log()
                .convergence(id.0)
                .iter()
                .map(|s| s.0)
                .collect();
            assert_eq!(steps, [0, 1, 2]);
            let local = local_counters();
            let c = local.get("ctr-test-kernel").unwrap();
            assert_eq!(c.calls, 2);
            assert_eq!(c.items, 20);
            assert_eq!(c.bytes(), 240);
            let total = snapshot().merged_counters();
            assert!(total.get("ctr-test-kernel").unwrap().calls >= 2);
        });
    }

    #[test]
    fn level_parse_and_ordering() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("COUNTERS"), Some(Level::Counters));
        assert_eq!(Level::parse(" spans "), Some(Level::Spans));
        assert_eq!(Level::parse("full"), Some(Level::Full));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Off < Level::Counters);
        assert!(Level::Spans < Level::Full);
    }

    prop_cases! {
        /// Splitting a record stream across real threads and merging the
        /// per-thread profiles yields exactly the serial profile.
        fn merged_thread_profiles_equal_serial(g, cases = 24) {
            const NAMES: [&str; 4] = ["flux", "gradient", "ilu", "trsv"];
            let nrec = g.usize_range(1, 40);
            let recs: Vec<(&'static str, KernelCounts)> = (0..nrec)
                .map(|_| {
                    let name = NAMES[g.usize_range(0, NAMES.len() - 1)];
                    let c = KernelCounts::once(
                        g.usize_range(0, 1000) as u64,
                        g.usize_range(0, 1 << 20) as u64,
                        g.usize_range(0, 1 << 16) as u64,
                        g.usize_range(0, 1 << 20) as u64,
                    );
                    (name, c)
                })
                .collect();
            let nthreads = g.usize_range(1, 4);

            // The worker threads record through the global level: hold it
            // at the default against the Off/Spans tests of this binary.
            let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            set_level(Level::Counters);

            // serial reference
            let mut serial = CounterMap::new();
            for (n, c) in &recs {
                serial.add(n, *c);
            }

            // real threads, each recording its share through the public
            // API into its own recorder; collected via each thread's
            // local view as a delta (an adopted recorder starts with its
            // previous owner's totals, and the global snapshot would
            // include other tests' records running concurrently in this
            // binary)
            let mut merged = CounterMap::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..nthreads {
                    let recs = &recs;
                    handles.push(scope.spawn(move || {
                        let base = local_counters();
                        for (i, (n, c)) in recs.iter().enumerate() {
                            if i % nthreads == t {
                                record_kernel(n, *c);
                            }
                        }
                        // delta = what this thread just recorded
                        local_counters().since(&base)
                    }));
                }
                for h in handles {
                    merged.merge(&h.join().unwrap());
                }
            });
            prop_assert_eq!(merged.entries(), serial.entries());
            prop_assert!(true);
        }
    }
}
