//! Overhead guard for the recorder's entry points — flight events, spans,
//! and the kernel guard that times a kernel into its counters — behind
//! the one telemetry gate.
//! The harness and the contract are in `overhead/mod.rs`;
//! `metrics_overhead.rs` is the same guard for the metrics plane.

mod overhead;

use fun3d_util::telemetry::{self, KernelCounts, Level};

#[test]
fn always_on_recording_stays_within_kernel_noise() {
    let _l = overhead::level_lock();
    overhead::assert_recording_within_noise("flight_overhead", || {
        telemetry::emit(telemetry::EventKind::PtcStep {
            step: 1,
            res: 1.0,
            dt: 2.0,
            gmres_iters: 3,
            eta: 0.1,
        })
    });
}

#[test]
fn kernel_guard_stays_within_kernel_noise() {
    let _l = overhead::level_lock();
    // Two clock reads and one counter add per call, what every kernel
    // invocation of the application pays at the default level.
    overhead::assert_recording_within_noise("kernel_guard_overhead", || {
        let _k = telemetry::kernel("probe", KernelCounts::once(1, 64, 8, 345));
    });
}

#[test]
fn disabled_emit_is_a_single_gate_load() {
    let _l = overhead::level_lock();
    telemetry::set_level(Level::Counters);
    telemetry::emit(telemetry::EventKind::RegionPanic { pool_size: 0 });
    telemetry::now_ns();
    let events = telemetry::flight_log().events.len();
    let counters = telemetry::local_counters().entries().len();

    let grew = overhead::allocations_at_off(|i| {
        let _k = telemetry::kernel("off_probe", KernelCounts::once(i, 64, 8, 345));
        let _s = telemetry::span("flux");
        let _f = telemetry::fine_span("chunk");
        telemetry::record_kernel("off_probe", KernelCounts::once(i, 64, 8, 345));
        telemetry::set_thread_label("should-not-stick");
        let id = telemetry::begin_solve(i, 1);
        telemetry::set_rank(i);
        telemetry::emit(telemetry::EventKind::CommSend { peer: 1, bytes: i });
        telemetry::emit_tagged(
            id.0,
            telemetry::EventKind::RegionSummary {
                regions: i,
                barriers: i,
            },
        );
        telemetry::end_solve(id, true, 1, 1, 0.5);
    });

    assert_eq!(grew, 0, "instrumentation at off allocated {grew} times");
    assert_eq!(
        telemetry::flight_log().events.len(),
        events,
        "flight event landed"
    );
    assert_eq!(
        telemetry::local_counters().entries().len(),
        counters,
        "kernel counter landed"
    );
    assert!(
        telemetry::snapshot()
            .threads
            .iter()
            .all(|t| t.spans.is_empty()),
        "span recorded"
    );
}
