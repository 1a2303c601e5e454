//! One recorder per live thread: a thread that starts after another
//! exited adopts its recorder, so a process that keeps starting threads
//! holds as many recorders as threads were ever alive at once — and loses
//! no totals and no flight events doing so.
//!
//! One test in its own binary, so no other test's threads are alive to
//! blur the bound.

use fun3d_util::telemetry::{self, flight, metrics, CounterMap, KernelCounts, Level};

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
            flight::set_rank(t);
            let _s = telemetry::span("adoption.span");
            flight::emit(flight::EventKind::CommSend { peer: t, bytes: 8 });
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
    let log = flight::snapshot();
    for t in 0..64u64 {
        let ev = log
            .events
            .iter()
            .find(|e| e.kind == flight::EventKind::CommSend { peer: t, bytes: 8 })
            .unwrap_or_else(|| panic!("thread {t}'s event lost"));
        assert_eq!(ev.rank, t);
    }
    let rank = std::thread::spawn(|| {
        flight::emit(flight::EventKind::CommRecv { peer: 99, bytes: 8 });
    });
    rank.join().unwrap();
    let log = flight::snapshot();
    let late = log
        .events
        .iter()
        .find(|e| e.kind == flight::EventKind::CommRecv { peer: 99, bytes: 8 })
        .unwrap();
    assert_eq!(late.rank, 0, "an adopted recorder's rank tag starts over");

    // Spans do not carry over: each adoption cleared the ring, so no
    // recorder holds more than its last owner's span.
    let spans = telemetry::snapshot();
    for t in &spans.threads {
        let n = t.spans.iter().filter(|s| s.name == "adoption.span").count();
        assert!(n <= 1, "{} holds {n} spans of earlier owners", t.label);
    }
    telemetry::set_level(Level::Counters);
}
