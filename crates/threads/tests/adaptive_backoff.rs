//! Regression tests for the pace-proportional wait ladder.
//!
//! The bug being pinned down: with a *fixed* spin→yield→nap ladder every
//! doorbell wait burned up to ~4k scheduler yields per phase even when
//! the region's work was microseconds — on an oversubscribed core those
//! yields are stolen from the thread doing real work, and they dominated
//! the nt>1 slowdown on the tiny fixture. The adaptive ladder sizes the
//! yield budget and nap length to the observed region pace, so the idle
//! phases must now cost dramatically fewer yields (and less CPU time)
//! for microsecond-scale regions.
//!
//! The model-check cfg replaces the ladder wholesale, so nothing here is
//! meaningful under `--cfg fun3d_check`.
#![cfg(not(fun3d_check))]

use fun3d_threads::process_cpu_time_ns;
use fun3d_threads::ThreadPool;
use std::time::{Duration, Instant};

/// Drives `pool` through the tiny-region-then-idle pattern that exposed
/// the bug: a ~40 us region (so the pace estimate is microsecond-scale)
/// followed by a millisecond-scale gap in which the workers sit in
/// `worker_wait` burning their ladder budget. The gap is long enough
/// that the fixed ladder exhausts its full ~4k-yield budget every time.
fn tiny_regions_with_idle_gaps(pool: &ThreadPool, gaps: u32) {
    for _ in 0..gaps {
        pool.run(|_tid| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(40) {
                std::hint::spin_loop();
            }
        });
        std::thread::sleep(Duration::from_millis(8));
    }
}

#[test]
fn adaptive_ladder_slashes_idle_yields_on_tiny_regions() {
    const GAPS: u32 = 25;

    let fixed = ThreadPool::with_adaptive(2, false);
    tiny_regions_with_idle_gaps(&fixed, GAPS);
    let fixed_yields = fixed.idle_yields();
    drop(fixed);

    let adaptive = ThreadPool::with_adaptive(2, true);
    tiny_regions_with_idle_gaps(&adaptive, GAPS);
    let adaptive_yields = adaptive.idle_yields();
    // The pace must have been learned as microsecond-scale.
    let pace = adaptive.pace_ns();
    drop(adaptive);

    assert!(pace > 0 && pace < 2_000_000, "pace estimate {pace} ns");
    // Fixed ladder: ~4k yields per worker per gap. Adaptive: a budget of
    // ~pace/500 (tens to low hundreds) before the first nap. A 4x margin
    // keeps the assertion robust to scheduler noise while still failing
    // hard if the budget ever reverts to the fixed 4k.
    assert!(
        adaptive_yields * 4 < fixed_yields,
        "adaptive ladder burned {adaptive_yields} yields vs fixed {fixed_yields}"
    );
    // And the ladder still reaches the nap tier during the gaps instead
    // of yielding forever.
    // (fixed pools nap too — this guards the adaptive path specifically)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn adaptive_ladder_cuts_idle_phase_cpu_time() {
    const GAPS: u32 = 25;

    // Two attempts: CPU-time comparisons on a shared machine can be
    // perturbed by outside load; one retry keeps the test honest without
    // being flaky.
    for attempt in 0..2 {
        let fixed = ThreadPool::with_adaptive(2, false);
        let f0 = process_cpu_time_ns().expect("clock_gettime");
        tiny_regions_with_idle_gaps(&fixed, GAPS);
        let fixed_cpu = process_cpu_time_ns().expect("clock_gettime") - f0;
        drop(fixed);

        let adaptive = ThreadPool::with_adaptive(2, true);
        let a0 = process_cpu_time_ns().expect("clock_gettime");
        tiny_regions_with_idle_gaps(&adaptive, GAPS);
        let adaptive_cpu = process_cpu_time_ns().expect("clock_gettime") - a0;
        drop(adaptive);

        if adaptive_cpu < fixed_cpu {
            return;
        }
        if attempt == 1 {
            panic!(
                "idle-phase CPU time did not drop: adaptive {adaptive_cpu} ns \
                 vs fixed {fixed_cpu} ns"
            );
        }
    }
}
