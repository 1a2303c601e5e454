//! Overhead guard for the metrics plane — its histograms — behind the
//! one telemetry gate. The harness and the contract
//! are in `overhead/mod.rs`; `flight_overhead.rs` is the same guard for
//! the recorder's flight events, spans and kernel counters.

mod overhead;

use fun3d_util::telemetry::{self, metrics, Level};

#[test]
fn always_on_recording_stays_within_kernel_noise() {
    let _l = overhead::level_lock();
    let h = metrics::histogram("metrics_overhead.triad_ns");
    overhead::assert_recording_within_noise("metrics_overhead", || h.record(1_234));
}

#[test]
fn disabled_record_is_one_relaxed_load_and_zero_alloc() {
    let _l = overhead::level_lock();
    telemetry::set_level(Level::Counters);
    let h = metrics::histogram("metrics_overhead.off_probe_ns");
    h.record(1);
    metrics::record_ns("metrics_overhead.off_named_ns", 1);
    let hist = |name: &str| metrics::snapshot().hist(name).map_or(0, |h| h.count);
    let (warm, warm_named) = (
        hist("metrics_overhead.off_probe_ns"),
        hist("metrics_overhead.off_named_ns"),
    );

    let grew = overhead::allocations_at_off(|i| {
        h.record(i);
        metrics::record_ns("metrics_overhead.off_named_ns", i);
    });

    assert_eq!(grew, 0, "metrics at off allocated {grew} times");
    assert_eq!(
        hist("metrics_overhead.off_probe_ns"),
        warm,
        "histogram record landed"
    );
    assert_eq!(
        hist("metrics_overhead.off_named_ns"),
        warm_named,
        "named record landed"
    );
}
