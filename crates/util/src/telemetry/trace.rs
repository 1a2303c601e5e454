//! The Chrome `trace_event` exporter: one profile export for spans and
//! flight events alike.
//!
//! [`chrome_trace`] serializes a [`Snapshot`](super::Snapshot) into the
//! JSON Object Format understood by `chrome://tracing` and Perfetto: a
//! top-level object with a `traceEvents` array holding, per recorded
//! thread (one `tid` each), a thread-name metadata event, its spans as
//! complete events (`"ph": "X"`) and its flight events as thread-scoped
//! instants (`"ph": "i"`, the event's fields as `args`), in time order and
//! with microsecond timestamps. So what the solver decided shows on the
//! same timeline as where its time went. One request's story is the
//! events of its solve id (`flight_log().solve(id)`: its `serve_stages`
//! ladder, its solver events) on this timeline.

use super::json::Json;
use super::Snapshot;

/// Builds the Chrome trace JSON document for a snapshot.
///
/// Threads are numbered `tid = 1..` in snapshot order and labeled with
/// their telemetry labels via `thread_name` metadata events. Every event
/// lives in `pid = 1`.
pub(crate) fn chrome_trace(snap: &Snapshot) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for (idx, t) in snap.threads.iter().enumerate() {
        let tid = (idx + 1) as f64;
        let at = |ph: &str, name: &str, t_ns: u64, mut rest: Vec<(&'static str, Json)>| {
            let mut fields = vec![
                ("name", Json::str(name)),
                ("cat", Json::str("fun3d")),
                ("ph", Json::str(ph)),
                ("ts", Json::num(t_ns as f64 / 1e3)),
                ("pid", Json::num(1.0)),
                ("tid", Json::num(tid)),
            ];
            fields.append(&mut rest);
            Json::obj(fields)
        };
        events.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(1.0)),
            ("tid", Json::num(tid)),
            (
                "args",
                Json::obj(vec![("name", Json::str(&t.label))]),
            ),
        ]));
        let spans = t.spans.iter().map(|s| {
            let dur = vec![("dur", Json::num(s.dur_ns as f64 / 1e3))];
            (s.start_ns, at("X", s.name, s.start_ns, dur))
        });
        let instants = t.events.iter().map(|e| {
            let rest = vec![("s", Json::str("t")), ("args", Json::obj(e.kind.fields()))];
            (e.t_ns, at("i", e.kind.name(), e.t_ns, rest))
        });
        let mut timeline: Vec<(u64, Json)> = spans.chain(instants).collect();
        timeline.sort_by_key(|(t_ns, _)| *t_ns);
        events.extend(timeline.into_iter().map(|(_, e)| e));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// Renders [`chrome_trace`] to a string.
pub fn render_chrome_trace(snap: &Snapshot) -> String {
    chrome_trace(snap).render()
}

#[cfg(test)]
mod tests {
    use super::super::flight::{emit, EventKind};
    use super::super::{set_level, snapshot, span, Level, SpanEvent, ThreadProfile, TEST_LOCK};
    use super::*;
    use crate::telemetry::CounterMap;

    fn thread(label: &str, spans: &[(&'static str, u64, u64)]) -> ThreadProfile {
        ThreadProfile {
            label: label.into(),
            spans: spans
                .iter()
                .map(|&(name, start_ns, dur_ns)| SpanEvent {
                    name,
                    start_ns,
                    dur_ns,
                    rank: 0,
                    solve: 0,
                })
                .collect(),
            events: Vec::new(),
            dropped: 0,
            counters: CounterMap::new(),
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            threads: vec![
                thread(
                    "main",
                    &[("flux", 1_000, 2_500), ("gradient \"q\"\\grad", 4_000, 1_000)],
                ),
                thread("fun3d-worker-1", &[("chunk", 1_200, 800)]),
            ],
        }
    }

    fn trace_events(snap: &Snapshot) -> Vec<Json> {
        let doc = Json::parse(&render_chrome_trace(snap)).expect("trace must be valid JSON");
        doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array").to_vec()
    }

    #[test]
    fn trace_is_well_formed_json_with_expected_shape() {
        let events = trace_events(&sample_snapshot());
        // 2 metadata + 3 span events
        assert_eq!(events.len(), 5);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        assert_eq!(
            metas[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("main")
        );
        for e in &events {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            assert!(ph == "M" || ph == "X");
            assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
            assert!(e.get("tid").and_then(Json::as_f64).unwrap() >= 1.0);
            if ph == "X" {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
            }
        }
        // µs conversion: 2500 ns -> 2.5 µs
        let flux = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("flux"))
            .unwrap();
        assert!((flux.get("dur").and_then(Json::as_f64).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn names_needing_escapes_round_trip() {
        let events = trace_events(&sample_snapshot());
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("gradient \"q\"\\grad")));
    }

    #[test]
    fn empty_snapshot_is_still_valid() {
        let rendered = render_chrome_trace(&Snapshot::default());
        let doc = Json::parse(&rendered).unwrap();
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn spans_and_flight_events_render_as_one_timeline() {
        // At `spans`, an event emitted inside an open span and one emitted
        // after it land in the same ring as the span, and the trace shows
        // all three on the thread's one tid, in time order.
        let snap = {
            let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            set_level(Level::Spans);
            let out = std::thread::spawn(|| {
                super::super::set_thread_label("one-timeline-thread");
                {
                    let _s = span("one-timeline.span");
                    emit(EventKind::RegionSummary {
                        regions: 7,
                        barriers: 3,
                    });
                }
                emit(EventKind::SyncProbe {
                    pool_size: 2,
                    region_launch_s: 1e-6,
                    barrier_phase_s: 2e-7,
                });
                snapshot()
            })
            .join()
            .unwrap();
            set_level(Level::Counters);
            out
        };
        let events = trace_events(&snap);
        let tid = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                        == Some("one-timeline-thread")
            })
            .and_then(|e| e.get("tid").and_then(Json::as_f64))
            .expect("the thread's metadata event");
        let mine: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("tid").and_then(Json::as_f64) == Some(tid))
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .collect();
        let name = |e: &Json| e.get("name").and_then(Json::as_str).unwrap().to_string();
        let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
        // The recorder may have been adopted: take the last three entries.
        let last = &mine[mine.len() - 3..];
        assert_eq!(
            last.iter().map(|e| (name(e), ph(e))).collect::<Vec<_>>(),
            [
                ("one-timeline.span".to_string(), "X".to_string()),
                ("region_summary".to_string(), "i".to_string()),
                ("sync_probe".to_string(), "i".to_string()),
            ]
        );
        let ts: Vec<f64> = mine.iter().map(|e| e.get("ts").and_then(Json::as_f64).unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        let span = last[0];
        let end = span.get("ts").and_then(Json::as_f64).unwrap()
            + span.get("dur").and_then(Json::as_f64).unwrap();
        let inside = last[1].get("ts").and_then(Json::as_f64).unwrap();
        let after = last[2].get("ts").and_then(Json::as_f64).unwrap();
        assert!(inside <= end && end <= after, "{inside} {end} {after}");
        let args = last[1].get("args").expect("the event's fields");
        assert_eq!(args.get("regions").and_then(Json::as_f64), Some(7.0));
        assert_eq!(last[2].get("s").and_then(Json::as_str), Some("t"));
    }
}
