//! The harness both overhead guards share, one for each recording plane
//! behind the one telemetry gate (`flight_overhead.rs` for the recorder's
//! rings and counters, `metrics_overhead.rs` for the metrics plane).
//!
//! The contract is "on by default and free": at the default level
//! (`counters`) a flight `emit` is a handful of relaxed stores plus one
//! release store into this thread's ring, and a histogram record a bucket
//! index plus four uncontended RMWs on this thread's shard; at `off`
//! every entry point is one relaxed load of the gate and nothing else.
//! [`assert_recording_within_noise`] measures a streaming kernel that
//! records once per invocation — a far higher rate than the real
//! per-step / per-request sources — at `off` and at `counters`, and fails
//! if the recording median leaves the `off` run's noise band.
//! [`allocations_at_off`] checks the `off` half of the claim exactly,
//! with a counting allocator. The matching CSV rows come from the
//! `flight` and `metrics` groups in `crates/bench/benches/kernels.rs`.

use fun3d_util::microbench::{Bench, SampleConfig};
use fun3d_util::telemetry::{self, Level};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Every test flips the process-wide level; serialize them so the
/// parallel test runner cannot interleave the flips.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

pub fn level_lock() -> MutexGuard<'static, ()> {
    LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Counts this thread's heap allocations, so the "zero-alloc at off"
/// claim is exact rather than inferred from timing.
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
static GLOBAL: CountingAlloc = CountingAlloc;

/// A memory-bound stand-in for a solver kernel (the util crate cannot
/// see the flux kernels): one fused triad pass over `x`/`y`.
fn triad(x: &mut [f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi = 0.999 * *xi + 0.5 * *yi;
        acc += *xi;
    }
    acc
}

/// Median and MAD of one `record` plus one triad pass at `level`.
fn measure(level: Level, group: &str, record: &mut impl FnMut()) -> (f64, f64) {
    telemetry::set_level(level);
    let n = 16_384;
    let mut x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).cos()).collect();
    let mut bench = Bench::with_config(SampleConfig {
        warmup: Duration::from_millis(10),
        min_sample_time: Duration::from_millis(2),
        sample_size: 15,
    });
    let mut g = bench.group(group);
    g.bench_function(&format!("{level:?}"), |b| {
        b.iter(|| {
            record();
            std::hint::black_box(triad(&mut x, &y))
        })
    });
    g.finish();
    let rec = &bench.records()[0];
    (rec.median_s, rec.mad_s)
}

/// A/B of `record` at `off` and at the default level on the same process
/// and data; the caller holds [`level_lock`].
pub fn assert_recording_within_noise(group: &str, mut record: impl FnMut()) {
    // Off first gives the recording run the warmer cache — the
    // conservative direction for this guard.
    let (med_off, mad_off) = measure(Level::Off, group, &mut record);
    let (med_on, mad_on) = measure(Level::Counters, group, &mut record);

    // Noise band: 25% of the `off` median plus a generous multiple of
    // both runs' MADs. One emit or one record is a dozen uncontended
    // stores and RMWs against a 16k-element streaming pass, far below 1%
    // in practice; the band is wide only to keep a shared, single-core
    // CI container from flaking.
    let bound = med_off * 1.25 + 12.0 * (mad_off + mad_on);
    assert!(
        med_on <= bound,
        "{group}: recording at the default level left the noise band: off {:.3e}s \
         (mad {:.1e}), on {:.3e}s (mad {:.1e}), bound {:.3e}s",
        med_off,
        mad_off,
        med_on,
        mad_on,
        bound
    );
}

/// Runs `probe(i)` for 10 000 values of `i` at `off` and returns how many
/// heap allocations this thread made meanwhile; the level is back at the
/// default on return. The caller holds [`level_lock`] and has warmed its
/// probe's recorder and caches at the default level, so the loop measures
/// the steady state, not first touch.
pub fn allocations_at_off(mut probe: impl FnMut(u64)) -> u64 {
    telemetry::set_level(Level::Off);
    let before = ALLOCS.with(Cell::get);
    for i in 0..10_000u64 {
        probe(i);
    }
    let grew = ALLOCS.with(Cell::get) - before;
    telemetry::set_level(Level::Counters);
    grew
}
