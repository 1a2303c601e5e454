//! One recorder per live thread: a thread that starts after another
//! exited adopts its recorder, so a process that keeps starting threads
//! holds as many recorders as threads were ever alive at once — and loses
//! no totals, no flight events and no spans doing so.
//!
//! One test in its own binary, so no other test's threads are alive to
//! blur the bound.

use fun3d_util::telemetry::{self, metrics, CounterMap, KernelCounts, Level};

#[test]
fn sixty_four_short_lived_threads_share_at_most_three_recorders() {
    telemetry::set_level(Level::Spans);
    let mut serial = CounterMap::new();
    let (mut sum, mut named_sum) = (0u64, 0u64);
    for t in 0..64u64 {
        let c = KernelCounts::once(t, 1, 2, 3);
        serial.add("adoption.kernel", c);
        sum += t + 1;
        named_sum += 10 * t;
        std::thread::spawn(move || {
            telemetry::set_thread_label(format!("short-{t}"));
            telemetry::set_rank(t);
            let _s = telemetry::span("adoption.span");
            telemetry::emit(telemetry::EventKind::CommSend { peer: t, bytes: 8 });
            metrics::histogram("adoption.hist_ns").record(t + 1);
            metrics::record_ns("adoption.named_ns", 10 * t);
            telemetry::record_kernel("adoption.kernel", c);
        })
        .join()
        .unwrap();
    }

    // At most one worker was alive at a time, beside this thread.
    let recorders = telemetry::registered_recorders();
    assert!(recorders <= 3, "{recorders} recorders for 2 live threads");

    // Nothing is lost on adoption: histogram and counter totals are the
    // serial ones.
    let snap = metrics::snapshot();
    let hist = snap.hist("adoption.hist_ns").unwrap();
    assert_eq!((hist.count, hist.sum_ns), (64, sum));
    let named = snap.hist("adoption.named_ns").unwrap();
    assert_eq!((named.count, named.sum_ns), (64, named_sum));
    let merged = telemetry::snapshot().merged_counters();
    assert_eq!(merged.get("adoption.kernel"), serial.get("adoption.kernel"));

    // Every exited thread's flight event is still there, tagged with the
    // rank that thread set (tags start over on adoption).
    let log = telemetry::flight_log();
    for t in 0..64u64 {
        let ev = log
            .events
            .iter()
            .find(|e| e.kind == telemetry::EventKind::CommSend { peer: t, bytes: 8 })
            .unwrap_or_else(|| panic!("thread {t}'s event lost"));
        assert_eq!(ev.rank, t);
    }
    let rank = std::thread::spawn(|| {
        telemetry::emit(telemetry::EventKind::CommRecv { peer: 99, bytes: 8 });
    });
    rank.join().unwrap();
    let log = telemetry::flight_log();
    let late = log
        .events
        .iter()
        .find(|e| e.kind == telemetry::EventKind::CommRecv { peer: 99, bytes: 8 })
        .unwrap();
    assert_eq!(late.rank, 0, "an adopted recorder's rank tag starts over");

    // The ring carries on: every earlier owner's span survives beside its
    // successors', and since an owner exits before the next one adopts,
    // no two of them overlap, so the profile nests none inside another.
    let snap = telemetry::snapshot();
    let spans: Vec<_> = snap
        .threads
        .iter()
        .flat_map(|t| t.spans.iter().filter(|s| s.name == "adoption.span"))
        .collect();
    assert_eq!(spans.len(), 64, "an earlier owner's spans were lost");
    let total: u64 = spans.iter().map(|s| s.dur_ns).sum();
    let profile = telemetry::Profile::from_snapshot(&snap);
    let k = profile
        .kernels
        .iter()
        .find(|k| k.name == "adoption.span")
        .unwrap();
    assert_eq!(
        (k.spans, k.self_ns, k.total_ns),
        (64, total, total),
        "spans nested"
    );
    telemetry::set_level(Level::Counters);
}
