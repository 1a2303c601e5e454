//! Chrome `trace_event` exporter and per-request trace assembly.
//!
//! Two exporters live here:
//!
//! * [`chrome_trace`] serializes a [`Snapshot`](super::Snapshot) into
//!   the JSON Object Format understood by `chrome://tracing` and
//!   Perfetto: a top-level object with a `traceEvents` array of
//!   complete events (`"ph": "X"`, microsecond timestamps) plus
//!   thread-name metadata events, one `tid` per recorded thread.
//! * [`assemble`] joins the three observability planes — flight-recorder
//!   events, span rings, and the live metrics histograms — into one
//!   causally-ordered [`RequestTrace`] for a single `SolveId`, so a
//!   slow request in a running service can be explained end to end:
//!   where it queued, which stage ate the time, what the solver did,
//!   and how it compares to the tenant's live latency distribution.

use super::flight::{self, EventKind, FlightEvent, FlightLog};
use super::json::Json;
use super::metrics::{self, HistSnapshot, MetricsSnapshot};
use super::Snapshot;

/// Builds the Chrome trace JSON document for a snapshot.
///
/// Threads are numbered `tid = 1..` in snapshot order and labeled with
/// their telemetry labels via `thread_name` metadata events. All span
/// events live in `pid = 1`.
pub(crate) fn chrome_trace(snap: &Snapshot) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for (idx, t) in snap.threads.iter().enumerate() {
        let tid = (idx + 1) as f64;
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
        for ev in &t.spans {
            events.push(Json::obj(vec![
                ("name", Json::str(ev.name)),
                ("cat", Json::str("fun3d")),
                ("ph", Json::str("X")),
                ("ts", Json::num(ev.start_ns as f64 / 1e3)),
                ("dur", Json::num(ev.dur_ns as f64 / 1e3)),
                ("pid", Json::num(1.0)),
                ("tid", Json::num(tid)),
            ]));
        }
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

// ---------------------------------------------------------------------
// Per-request trace assembly
// ---------------------------------------------------------------------

/// Schema tag on every assembled request-trace JSON document.
pub const TRACE_SCHEMA: &str = "fun3d.trace.v1";

/// One named point on a request's lifecycle (admit, dispatch, …), on
/// the process telemetry clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageMark {
    /// Stage name.
    pub name: &'static str,
    /// Nanoseconds since the telemetry epoch.
    pub t_ns: u64,
}

/// A span overlapping the request window, with its owning thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Telemetry label of the recording thread.
    pub thread: String,
    /// Span name.
    pub name: &'static str,
    /// Start, ns since the telemetry epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// One request, end to end: stage boundaries, every flight event tagged
/// with its `SolveId`, the spans that ran inside its window, and the
/// live stage histograms it contributed to.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The request's solve tag ([`flight::SolveId`] raw value).
    pub solve: u64,
    /// FNV-64 tenant hash, when a serve event carried one.
    pub tenant: Option<u64>,
    /// Tenant name, when the hash resolves against the metrics registry
    /// (`serve.tenant.<name>.*` histogram names).
    pub tenant_name: Option<String>,
    /// `[start, end]` of the request on the telemetry clock, ns.
    pub window: (u64, u64),
    /// Lifecycle marks, causally ordered.
    pub stages: Vec<StageMark>,
    /// Flight events of this solve, timeline-ordered.
    pub events: Vec<FlightEvent>,
    /// Spans overlapping the window, ordered by start.
    pub spans: Vec<TraceSpan>,
    /// Live histograms giving this request distributional context
    /// (the tenant's stage histograms plus solver-wide ones).
    pub hists: Vec<HistSnapshot>,
}

/// Assembles the per-request trace for `solve` from the live global
/// telemetry state. `None` when no flight event carries the tag (the
/// request never existed, or the ring already wrapped past it).
pub fn assemble_trace(solve: flight::SolveId) -> Option<RequestTrace> {
    assemble_from(
        &flight::flight_log(),
        &super::snapshot(),
        &metrics::snapshot(),
        solve.0,
    )
}

/// Pure join over explicit snapshots (testable without global state).
pub(crate) fn assemble_from(
    log: &FlightLog,
    spans: &Snapshot,
    live: &MetricsSnapshot,
    solve: u64,
) -> Option<RequestTrace> {
    let events: Vec<FlightEvent> = log.events.iter().filter(|e| e.solve == solve).copied().collect();
    if events.is_empty() {
        return None;
    }

    // Stage marks: the ServeStages record when the request went through
    // the service front-end, else the solve start/end events.
    let mut stages: Vec<StageMark> = Vec::new();
    let mut tenant = None;
    for e in &events {
        match e.kind {
            EventKind::ServeStages {
                tenant: t,
                admit_ns,
                dispatch_ns,
                solve_start_ns,
                solve_end_ns,
                reply_ns,
            } => {
                tenant = Some(t);
                stages = vec![
                    StageMark { name: "admit", t_ns: admit_ns },
                    StageMark { name: "dispatch", t_ns: dispatch_ns },
                    StageMark { name: "solve_start", t_ns: solve_start_ns },
                    StageMark { name: "solve_end", t_ns: solve_end_ns },
                    StageMark { name: "reply", t_ns: reply_ns },
                ];
            }
            EventKind::ServeAdmit { tenant: t, .. }
            | EventKind::ServeJob { tenant: t, .. } => tenant = tenant.or(Some(t)),
            _ => {}
        }
    }
    if stages.is_empty() {
        for e in &events {
            match e.kind {
                EventKind::SolveStart { .. } => {
                    stages.push(StageMark { name: "solve_start", t_ns: e.t_ns });
                }
                EventKind::SolveEnd { .. } => {
                    stages.push(StageMark { name: "solve_end", t_ns: e.t_ns });
                }
                _ => {}
            }
        }
    }
    stages.sort_by_key(|s| s.t_ns);

    // The window covers every tagged event and every stage mark.
    let mut lo = events.iter().map(|e| e.t_ns).min().unwrap_or(0);
    let mut hi = events.iter().map(|e| e.t_ns).max().unwrap_or(0);
    for s in &stages {
        lo = lo.min(s.t_ns);
        hi = hi.max(s.t_ns);
    }

    // Spans overlapping [lo, hi].
    let mut trace_spans: Vec<TraceSpan> = Vec::new();
    for t in &spans.threads {
        for ev in &t.spans {
            if ev.start_ns <= hi && ev.start_ns + ev.dur_ns >= lo {
                trace_spans.push(TraceSpan {
                    thread: t.label.clone(),
                    name: ev.name,
                    start_ns: ev.start_ns,
                    dur_ns: ev.dur_ns,
                });
            }
        }
    }
    trace_spans.sort_by_key(|s| (s.start_ns, s.dur_ns));

    // Distributional context: the tenant's own stage histograms
    // (resolved by hashing the name segment of `serve.tenant.<name>.*`
    // with the FNV-1a tag `fun3d-serve` stamps on flight events) plus
    // solver-wide latency histograms.
    let tenant_name = tenant.and_then(|h| {
        live.hists.iter().find_map(|hist| {
            let name = tenant_segment(&hist.name)?;
            (crate::fnv1a(name.as_bytes()) == h).then(|| name.to_string())
        })
    });
    let hists: Vec<HistSnapshot> = live
        .hists
        .iter()
        .filter(|hist| {
            if let Some(seg) = tenant_segment(&hist.name) {
                // Per-tenant histograms: only this request's tenant.
                tenant_name.as_deref() == Some(seg)
            } else {
                hist.name.starts_with("solver.") || hist.name.starts_with("serve.")
            }
        })
        .cloned()
        .collect();

    Some(RequestTrace {
        solve,
        tenant,
        tenant_name,
        window: (lo, hi),
        stages,
        events,
        spans: trace_spans,
        hists,
    })
}

/// The `<name>` inside a `serve.tenant.<name>.<rest>` metric name.
fn tenant_segment(metric: &str) -> Option<&str> {
    let rest = metric.strip_prefix("serve.tenant.")?;
    let dot = rest.rfind('.')?;
    Some(&rest[..dot])
}

impl RequestTrace {
    /// Strict-JSON document (`fun3d.trace.v1`).
    pub fn to_json(&self) -> Json {
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("t_ns", Json::num(s.t_ns as f64)),
                ])
            })
            .collect();
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("t_ns", Json::num(e.t_ns as f64)),
                    ("rank", Json::num(e.rank as f64)),
                    ("event", Json::str(e.kind.name())),
                    ("detail", Json::str(e.kind.detail())),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("thread", Json::str(&s.thread)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("dur_ns", Json::num(s.dur_ns as f64)),
                ])
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|h| (h.name.as_str(), metrics::hist_json(h)))
            .collect::<Vec<_>>();
        Json::obj(vec![
            ("schema", Json::str(TRACE_SCHEMA)),
            ("solve", Json::num(self.solve as f64)),
            (
                "tenant",
                match self.tenant {
                    Some(t) => Json::str(format!("{t:016x}")),
                    None => Json::Null,
                },
            ),
            (
                "tenant_name",
                match &self.tenant_name {
                    Some(n) => Json::str(n),
                    None => Json::Null,
                },
            ),
            (
                "window",
                Json::obj(vec![
                    ("start_ns", Json::num(self.window.0 as f64)),
                    ("end_ns", Json::num(self.window.1 as f64)),
                ]),
            ),
            ("stages", Json::Arr(stages)),
            ("events", Json::Arr(events)),
            ("spans", Json::Arr(spans)),
            ("histograms", Json::obj(hists)),
        ])
    }

    /// Human timeline: stage marks and flight events interleaved in
    /// causal order, times relative to the window start.
    pub fn render_text(&self) -> String {
        let t0 = self.window.0;
        let rel = |t: u64| (t.saturating_sub(t0)) as f64 / 1e6;
        let mut out = String::new();
        let tenant = match (&self.tenant_name, self.tenant) {
            (Some(n), _) => n.clone(),
            (None, Some(h)) => format!("{h:016x}"),
            (None, None) => "-".to_string(),
        };
        out.push_str(&format!(
            "request solve={} tenant={tenant} window={:.3}ms\n",
            self.solve,
            (self.window.1 - self.window.0) as f64 / 1e6
        ));
        // Interleave stage marks and events on one clock.
        let mut lines: Vec<(u64, u8, String)> = Vec::new();
        for s in &self.stages {
            lines.push((s.t_ns, 0, format!("[stage] {}", s.name)));
        }
        for e in &self.events {
            lines.push((e.t_ns, 1, format!("{}: {}", e.kind.name(), e.kind.detail())));
        }
        lines.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        for (t, _, line) in lines {
            out.push_str(&format!("  +{:>10.3}ms  {line}\n", rel(t)));
        }
        if !self.spans.is_empty() {
            out.push_str(&format!("  spans overlapping window: {}\n", self.spans.len()));
        }
        for h in &self.hists {
            if h.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "  hist {:<40} n={:<7} p50={:.3}ms p99={:.3}ms max={:.3}ms\n",
                h.name,
                h.count,
                h.quantile(0.50) / 1e6,
                h.quantile(0.99) / 1e6,
                h.max_ns as f64 / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SpanEvent, ThreadProfile};
    use super::*;
    use crate::telemetry::CounterMap;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            threads: vec![
                ThreadProfile {
                    label: "main".into(),
                    spans: vec![
                        SpanEvent {
                            name: "flux",
                            start_ns: 1_000,
                            dur_ns: 2_500,
                        },
                        SpanEvent {
                            name: "gradient \"q\"\\grad",
                            start_ns: 4_000,
                            dur_ns: 1_000,
                        },
                    ],
                    dropped_spans: 0,
                    counters: CounterMap::new(),
                },
                ThreadProfile {
                    label: "fun3d-worker-1".into(),
                    spans: vec![SpanEvent {
                        name: "chunk",
                        start_ns: 1_200,
                        dur_ns: 800,
                    }],
                    dropped_spans: 3,
                    counters: CounterMap::new(),
                },
            ],
        }
    }

    #[test]
    fn trace_is_well_formed_json_with_expected_shape() {
        let rendered = render_chrome_trace(&sample_snapshot());
        let doc = Json::parse(&rendered).expect("trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
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
        for e in events {
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
        let rendered = render_chrome_trace(&sample_snapshot());
        let doc = Json::parse(&rendered).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("gradient \"q\"\\grad")));
    }

    #[test]
    fn assemble_joins_events_stages_spans_and_histograms() {
        let tenant = crate::fnv1a(b"acme");
        let log = FlightLog {
            events: vec![
                FlightEvent {
                    t_ns: 1_000,
                    rank: 0,
                    solve: 7,
                    kind: EventKind::ServeAdmit {
                        tenant,
                        queue_depth: 1,
                    },
                },
                FlightEvent {
                    t_ns: 2_000,
                    rank: 0,
                    solve: 7,
                    kind: EventKind::SolveStart {
                        unknowns: 700,
                        threads: 1,
                    },
                },
                FlightEvent {
                    t_ns: 5_000,
                    rank: 0,
                    solve: 7,
                    kind: EventKind::ServeStages {
                        tenant,
                        admit_ns: 1_000,
                        dispatch_ns: 1_500,
                        solve_start_ns: 2_000,
                        solve_end_ns: 4_000,
                        reply_ns: 5_000,
                    },
                },
                // Another request: must not leak into solve 7's trace.
                FlightEvent {
                    t_ns: 3_000,
                    rank: 0,
                    solve: 8,
                    kind: EventKind::SolveStart {
                        unknowns: 700,
                        threads: 1,
                    },
                },
            ],
            dropped: 0,
        };
        let spans = Snapshot {
            threads: vec![ThreadProfile {
                label: "team-0".into(),
                spans: vec![
                    SpanEvent {
                        name: "ptc.step",
                        start_ns: 2_100,
                        dur_ns: 500,
                    },
                    // Outside the window: excluded.
                    SpanEvent {
                        name: "ptc.step",
                        start_ns: 9_000,
                        dur_ns: 100,
                    },
                ],
                dropped_spans: 0,
                counters: CounterMap::new(),
            }],
        };
        let h = HistSnapshot {
            name: "serve.tenant.acme.total_ns".to_string(),
            count: 3,
            sum_ns: 9_000,
            max_ns: 4_000,
            overflow: 0,
            buckets: vec![(40, 3)],
        };
        let other = HistSnapshot {
            name: "serve.tenant.rival.total_ns".to_string(),
            count: 1,
            sum_ns: 0,
            max_ns: 0,
            overflow: 0,
            buckets: vec![(10, 1)],
        };
        let live = MetricsSnapshot {
            t_ns: 10_000,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: vec![h, other],
        };

        let trace = assemble_from(&log, &spans, &live, 7).expect("solve 7 assembles");
        assert_eq!(trace.tenant, Some(tenant));
        assert_eq!(trace.tenant_name.as_deref(), Some("acme"));
        assert_eq!(trace.window, (1_000, 5_000));
        // Stages come from ServeStages, causally ordered.
        let names: Vec<_> = trace.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["admit", "dispatch", "solve_start", "solve_end", "reply"]);
        assert!(trace.stages.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        // No events borrowed from solve 8.
        assert!(trace.events.iter().all(|e| e.solve == 7));
        assert_eq!(trace.events.len(), 3);
        // Overlapping span in, distant span out.
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].start_ns, 2_100);
        // Only this tenant's histogram is attached.
        assert_eq!(trace.hists.len(), 1);
        assert_eq!(trace.hists[0].name, "serve.tenant.acme.total_ns");

        // JSON document is valid and carries the schema + stage list.
        let doc = Json::parse(&trace.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(TRACE_SCHEMA));
        assert_eq!(
            doc.get("stages").and_then(Json::as_arr).map(<[Json]>::len),
            Some(5)
        );
        assert_eq!(
            doc.get("tenant").and_then(Json::as_str),
            Some(format!("{tenant:016x}").as_str())
        );
        // Text rendering mentions the tenant and every stage.
        let text = trace.render_text();
        assert!(text.contains("tenant=acme"));
        for s in ["admit", "dispatch", "solve_start", "solve_end", "reply"] {
            assert!(text.contains(&format!("[stage] {s}")), "missing {s} in:\n{text}");
        }

        // Unknown solve: no trace.
        assert!(assemble_from(&log, &spans, &live, 99).is_none());
    }

    #[test]
    fn assemble_without_serve_stages_uses_solve_events() {
        let log = FlightLog {
            events: vec![
                FlightEvent {
                    t_ns: 100,
                    rank: 0,
                    solve: 3,
                    kind: EventKind::SolveStart {
                        unknowns: 10,
                        threads: 1,
                    },
                },
                FlightEvent {
                    t_ns: 900,
                    rank: 0,
                    solve: 3,
                    kind: EventKind::SolveEnd {
                        converged: true,
                        steps: 2,
                        linear_iters: 4,
                        res: 1e-9,
                    },
                },
            ],
            dropped: 0,
        };
        let trace = assemble_from(&log, &Snapshot::default(), &MetricsSnapshot::default(), 3)
            .expect("assembles");
        assert_eq!(trace.tenant, None);
        let names: Vec<_> = trace.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["solve_start", "solve_end"]);
        assert_eq!(trace.window, (100, 900));
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
}
