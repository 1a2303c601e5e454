//! Low-overhead run telemetry: per-thread spans, performance-model
//! counters, convergence series, and machine-readable exporters.
//!
//! The paper's argument is measurement-driven — Fig. 5's kernel profile,
//! Fig. 6's achieved-vs-STREAM bandwidth, Table 3's bytes-per-edge model.
//! [`PhaseTimers`](crate::PhaseTimers) gives single-threaded wall clocks;
//! this module adds everything else those figures need:
//!
//! * **spans** — named intervals recorded into a per-thread, single-writer
//!   [`ring::SpanRing`]. A worker thread's push is lock-free and
//!   allocation-free; rings are merged only at collection time.
//! * **counters** — the [`counters::KernelCounts`] vocabulary (items,
//!   bytes read/written, flops) from which reports derive arithmetic
//!   intensity and achieved GB/s against a machine's STREAM number.
//! * **series** — low-frequency `(x, y)` observations such as the
//!   per-step residual norm and GMRES iteration counts.
//! * **exporters** — Chrome `trace_event` JSON ([`trace`]) for
//!   `chrome://tracing`/Perfetto timelines, and a [`json::Json`] builder
//!   for the structured run summary.
//!
//! ## Enablement
//!
//! The `FUN3D_TELEMETRY` environment variable picks a [`Level`]:
//! `off`, `counters` (the default), `spans`, or `full`. Every
//! instrumentation site is gated on one relaxed atomic load and a branch;
//! at `off` nothing allocates and nothing is recorded. Tools may override
//! programmatically with [`set_level`].
//!
//! ## Threads
//!
//! Each thread lazily registers one recorder cell in a global registry on
//! first use; all subsequent writes touch only that thread's cell (the
//! span ring is written lock-free, counters/series take an uncontended
//! per-thread mutex at kernel-invocation granularity, not in inner
//! loops). [`snapshot`] merges every registered cell — including those of
//! threads that have since exited, so short-lived rank threads still show
//! up in the trace.

pub mod counters;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod roofline;
pub mod sampler;
pub mod trace;

pub use counters::{CounterMap, KernelCounts};
pub use ring::SpanEvent;
pub use sampler::{SampleProfile, Sampler};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How much the telemetry layer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; every site costs one load + branch.
    Off = 0,
    /// Counters and series only (the default: no per-span clock reads,
    /// so timing-sensitive tests are unaffected).
    Counters = 1,
    /// Counters plus kernel-level spans.
    Spans = 2,
    /// Everything, including high-frequency spans such as per-chunk
    /// `parallel_for` intervals.
    Full = 3,
}

impl Level {
    /// Parses the `FUN3D_TELEMETRY` value (unknown strings fall back to
    /// the default so a typo can't turn a run into a panic).
    pub fn parse(s: &str) -> Option<Level> {
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

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process telemetry epoch (the first call).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One `(x, y)` observation of a named series (e.g. the residual norm
/// per pseudo-time step).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Series name.
    pub series: &'static str,
    /// Abscissa (step number, iteration, …).
    pub x: f64,
    /// Observed value.
    pub y: f64,
}

/// Ring capacity per thread, configurable via `FUN3D_TELEMETRY_RING`.
fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("FUN3D_TELEMETRY_RING")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(4096)
            .clamp(16, 1 << 22)
    })
}

/// One thread's recorder. The owning thread is the only writer of the
/// ring and (in steady state) the only locker of the mutexes, which are
/// taken once per kernel invocation — never inside inner loops.
struct ThreadCell {
    label: Mutex<String>,
    ring: OnceLock<ring::SpanRing>,
    /// Continuously-published open-span path, read by the sampler.
    slot: sampler::SpanSlot,
    counters: Mutex<CounterMap>,
    series: Mutex<Vec<SeriesPoint>>,
}

impl ThreadCell {
    fn new(label: String) -> ThreadCell {
        ThreadCell {
            label: Mutex::new(label),
            ring: OnceLock::new(),
            slot: sampler::SpanSlot::new(),
            counters: Mutex::new(CounterMap::new()),
            series: Mutex::new(Vec::new()),
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadCell>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadCell>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static CELL: std::cell::OnceCell<Arc<ThreadCell>> = const { std::cell::OnceCell::new() };
}

fn with_cell<R>(f: impl FnOnce(&ThreadCell) -> R) -> R {
    CELL.with(|slot| {
        let cell = slot.get_or_init(|| {
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("{:?}", std::thread::current().id()));
            let cell = Arc::new(ThreadCell::new(label));
            registry().lock().unwrap().push(Arc::clone(&cell));
            cell
        });
        f(cell)
    })
}

/// Labels the current thread's timeline (worker id, rank id). Reuses the
/// thread name by default; call this where threads have roles the name
/// doesn't carry.
pub fn set_thread_label(label: impl Into<String>) {
    if level() == Level::Off {
        return;
    }
    with_cell(|c| *c.label.lock().unwrap() = label.into());
}

/// An in-flight span; records into the current thread's ring on drop.
/// Inactive (and free) below the gating level.
///
/// While open, an active span is also published in the thread's
/// [`sampler::SpanSlot`] so the sampling profiler can attribute the
/// thread's time to it. The slot is single-writer, which is why `Span`
/// is `!Send`: opening and closing must happen on the same thread.
#[must_use = "a span measures the scope it is bound to; bind it to a named guard"]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    active: bool,
    /// `!Send`: the drop must run on the opening thread (slot pop and
    /// ring push are both single-writer).
    _pinned: std::marker::PhantomData<*const ()>,
}

impl Span {
    const INACTIVE: Span = Span {
        name: "",
        start_ns: 0,
        active: false,
        _pinned: std::marker::PhantomData,
    };
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        with_cell(|c| {
            c.slot.pop();
            c.ring
                .get_or_init(|| ring::SpanRing::new(ring_capacity()))
                .push(SpanEvent {
                    name: self.name,
                    start_ns: self.start_ns,
                    dur_ns,
                })
        });
    }
}

fn open_span(name: &'static str) -> Span {
    with_cell(|c| c.slot.push(name));
    Span {
        name,
        start_ns: now_ns(),
        active: true,
        _pinned: std::marker::PhantomData,
    }
}

/// Opens a kernel-level span (recorded at [`Level::Spans`] and up).
#[inline]
pub fn span(name: &'static str) -> Span {
    if level() < Level::Spans {
        return Span::INACTIVE;
    }
    open_span(name)
}

/// Opens a high-frequency span (per-chunk, per-level) recorded only at
/// [`Level::Full`].
#[inline]
pub fn fine_span(name: &'static str) -> Span {
    if level() < Level::Full {
        return Span::INACTIVE;
    }
    open_span(name)
}

/// Accumulates performance-model counters for a kernel on the current
/// thread (recorded at [`Level::Counters`] and up). Call once per kernel
/// invocation with analytic totals — never from inner loops.
#[inline]
pub fn record_kernel(name: &'static str, c: KernelCounts) {
    if level() < Level::Counters {
        return;
    }
    with_cell(|cell| cell.counters.lock().unwrap().add(name, c));
}

/// Appends an `(x, y)` observation to a named series (recorded at
/// [`Level::Counters`] and up).
#[inline]
pub fn series_push(series: &'static str, x: f64, y: f64) {
    if level() < Level::Counters {
        return;
    }
    with_cell(|cell| cell.series.lock().unwrap().push(SeriesPoint { series, x, y }));
}

/// The current thread's accumulated counters (its own cell only — useful
/// for per-rank assertions where global state would mix concurrent
/// actors).
pub fn local_counters() -> CounterMap {
    with_cell(|cell| cell.counters.lock().unwrap().clone())
}

/// One thread's collected telemetry.
#[derive(Clone, Debug)]
pub struct ThreadProfile {
    /// Thread label (name, worker id, or rank id).
    pub label: String,
    /// Recorded spans, oldest first.
    pub spans: Vec<SpanEvent>,
    /// Spans lost to ring wraparound.
    pub dropped_spans: u64,
    /// Kernel counters.
    pub counters: CounterMap,
    /// Series observations.
    pub series: Vec<SeriesPoint>,
}

/// A merged view over every registered thread recorder.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Per-thread profiles in registration order.
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

    /// A series merged across threads, sorted by `x`.
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = self
            .threads
            .iter()
            .flat_map(|t| t.series.iter())
            .filter(|p| p.series == name)
            .map(|p| (p.x, p.y))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts
    }

    /// `(name, total seconds, count)` over all spans, busiest first.
    pub fn span_totals(&self) -> Vec<(&'static str, f64, u64)> {
        let mut acc: Vec<(&'static str, f64, u64)> = Vec::new();
        for ev in self.threads.iter().flat_map(|t| t.spans.iter()) {
            match acc.iter_mut().find(|(n, _, _)| *n == ev.name) {
                Some(e) => {
                    e.1 += ev.dur_ns as f64 * 1e-9;
                    e.2 += 1;
                }
                None => acc.push((ev.name, ev.dur_ns as f64 * 1e-9, 1)),
            }
        }
        acc.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        acc
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

/// Collects every registered thread recorder into a [`Snapshot`].
///
/// Safe to call at any time; span rings of still-running threads are
/// read with the single-writer protocol (in-flight slots are trimmed),
/// but for complete timelines collect at a quiescent point (pool idle,
/// ranks joined).
pub fn snapshot() -> Snapshot {
    let cells = registry().lock().unwrap();
    let threads = cells
        .iter()
        .map(|c| {
            let (spans, dropped_spans) = match c.ring.get() {
                Some(r) => r.collect(),
                None => (Vec::new(), 0),
            };
            ThreadProfile {
                label: c.label.lock().unwrap().clone(),
                spans,
                dropped_spans,
                counters: c.counters.lock().unwrap().clone(),
                series: c.series.lock().unwrap().clone(),
            }
        })
        .collect();
    Snapshot { threads }
}

/// Clears all recorded data (rings, counters, series) on every
/// registered recorder. Labels and registrations survive. Call between
/// measurement phases of a tool, at quiescent points only.
pub fn reset() {
    let cells = registry().lock().unwrap();
    for c in cells.iter() {
        if let Some(r) = c.ring.get() {
            r.clear();
        }
        c.counters.lock().unwrap().clear();
        c.series.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prop_assert, prop_assert_eq, prop_cases};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Tests that mutate the global level serialize through this lock and
    /// restore the default, so the rest of the binary's parallel tests
    /// keep recording under `Counters`.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    fn with_level<R>(l: Level, f: impl FnOnce() -> R) -> R {
        let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
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
            // Warm lazy globals (epoch, level, this thread's cell) before
            // measuring, then hammer every instrumentation entry point.
            now_ns();
            record_kernel("warm", KernelCounts::default());
            let before_counters = local_counters();
            let a0 = thread_allocs();
            for i in 0..10_000u64 {
                let _s = span("flux");
                let _f = fine_span("chunk");
                record_kernel("flux", KernelCounts::once(i, 64, 8, 345));
                series_push("residual", i as f64, 1.0 / (i + 1) as f64);
                set_thread_label("should-not-stick");
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
            let totals = snap.span_totals();
            let k = totals
                .iter()
                .find(|(n, _, _)| *n == "span-test-kernel")
                .unwrap();
            assert!(k.2 >= 1);
            let per = snap.per_thread_span_seconds("span-test-kernel");
            assert!(per.iter().any(|(l, _, n)| l == "span-test-thread" && *n >= 1));
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
        // default level (Counters) — no with_level needed, but take the
        // lock so an Off-mode test can't race us.
        let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Counters);
        record_kernel("ctr-test-kernel", KernelCounts::once(10, 100, 20, 500));
        record_kernel("ctr-test-kernel", KernelCounts::once(10, 100, 20, 500));
        series_push("ctr-test-series", 2.0, 20.0);
        series_push("ctr-test-series", 1.0, 10.0);
        let local = local_counters();
        let c = local.get("ctr-test-kernel").unwrap();
        assert_eq!(c.calls, 2);
        assert_eq!(c.items, 20);
        assert_eq!(c.bytes(), 240);
        let snap = snapshot();
        let pts = snap.series("ctr-test-series");
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0), "series sorted by x");
        let total = snap.merged_counters();
        assert!(total.get("ctr-test-kernel").unwrap().calls >= 2);
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
            let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            set_level(Level::Counters);

            // serial reference
            let mut serial = CounterMap::new();
            for (n, c) in &recs {
                serial.add(n, *c);
            }

            // real threads, each recording its share through the public
            // API into its own cell; collected via each thread's local
            // view (the global snapshot would include other tests'
            // records running concurrently in this binary)
            let mut merged = CounterMap::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..nthreads {
                    let recs = &recs;
                    handles.push(scope.spawn(move || {
                        let mut base = local_counters();
                        for (i, (n, c)) in recs.iter().enumerate() {
                            if i % nthreads == t {
                                record_kernel(n, *c);
                            }
                        }
                        // delta = what this thread just recorded
                        let now = local_counters();
                        let mut delta = CounterMap::new();
                        for (name, c) in now.entries() {
                            let mut d = *c;
                            if let Some(b) = base.get(name) {
                                d.calls -= b.calls;
                                d.items -= b.items;
                                d.bytes_read -= b.bytes_read;
                                d.bytes_written -= b.bytes_written;
                                d.flops -= b.flops;
                            }
                            if d.calls > 0 {
                                delta.add(name, d);
                            }
                        }
                        base.clear();
                        delta
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
