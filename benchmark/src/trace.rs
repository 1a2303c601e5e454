//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start, end, parent, solve}`. Spans are kept in a
//! pre-allocated vector and written out when the run ends. A layer's self
//! time is its span minus the part of it its child spans cover.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one operation (a solve, a request) share this identifier.
    pub solve: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-writer span log; the open spans form a stack, which is what gives
/// each new span its parent.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    solve: u32,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(n),
            open: Vec::new(),
            solve: 0,
        }
    }

    /// An empty log on the same clock, for another thread to fill;
    /// [`Tracer::absorb`] brings it back.
    pub fn fork(&self, n: usize) -> Tracer {
        Tracer {
            epoch: self.epoch,
            spans: Vec::with_capacity(n),
            open: Vec::new(),
            solve: self.solve,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with operation `id`.
    pub fn set_solve(&mut self, id: u32) {
        self.solve = id;
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            solve: self.solve,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans close in the order they nest"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere on this log's clock.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            solve: self.solve,
        });
    }

    /// Appends a forked log; its root spans become children of the span
    /// open here.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed log has open spans");
        let base = self.spans.len() as u32;
        let adopt = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("solve".into(), Json::Num(s.solve as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (a child is clipped to its parent first).
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            own[p as usize] -= covered as i64;
        }
    }
    own
}

fn in_subtree(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p as usize,
            None => return false,
        }
    }
}

/// Total self time by span name within the subtree of `root`.
pub fn self_by_name(spans: &[Span], root: usize) -> Vec<(&'static str, i64)> {
    let own = self_times(spans);
    let mut out: Vec<(&'static str, i64)> = Vec::new();
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|&(i, _)| in_subtree(spans, i, root))
    {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own[i],
            None => out.push((s.name, own[i])),
        }
    }
    out
}

/// Total duration and count of the spans called `name` under `root`.
pub fn total_by_name(spans: &[Span], root: usize, name: &str) -> (u64, u64) {
    spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| s.name == name && in_subtree(spans, i, root))
        .fold((0, 0), |(t, n), (_, s)| (t + s.dur_ns(), n + 1))
}

/// How far the self times under `root` are from adding up to `root`, as a
/// share of it. 0 when every child lies inside its parent and siblings do
/// not overlap, which is what makes a table of self times trustworthy.
pub fn closure_err(spans: &[Span], root: usize) -> f64 {
    let total: i64 = self_by_name(spans, root)
        .iter()
        .map(|&(_, t)| t.abs())
        .sum();
    let dur = spans[root].dur_ns() as f64;
    (total as f64 - dur).abs() / dur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            solve: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_closes() {
        // solve [0,100) { residual [10,30), build [30,60) { factor [35,55) }, residual [70,90) }
        let spans = vec![
            span("solve", 0, 100, None),
            span("residual", 10, 30, Some(0)),
            span("build", 30, 60, Some(0)),
            span("factor", 35, 55, Some(2)),
            span("residual", 70, 90, Some(0)),
            span("elsewhere", 200, 300, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 20, 100]);
        let by_name = self_by_name(&spans, 0);
        assert_eq!(
            by_name,
            vec![
                ("solve", 30),
                ("residual", 40),
                ("build", 10),
                ("factor", 20)
            ]
        );
        assert_eq!(by_name.iter().map(|&(_, t)| t).sum::<i64>(), 100);
        assert_eq!(closure_err(&spans, 0), 0.0);
        assert_eq!(total_by_name(&spans, 0, "residual"), (40, 2));
        assert_eq!(total_by_name(&spans, 2, "residual"), (0, 0));
    }

    #[test]
    fn closure_error_shows_overlapping_siblings() {
        // Two children that overlap by 20 of the parent's 100.
        let spans = vec![
            span("solve", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 40, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], -20);
        assert!((closure_err(&spans, 0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_forks_and_absorbs() {
        let mut t = Tracer::with_capacity(8);
        t.set_solve(7);
        let root = t.begin("root");
        t.span("leaf", || ());
        let mut side = t.fork(4);
        side.span("rank", || ());
        let inner = side.begin("rank");
        side.span("halo", || ());
        side.end(inner);
        t.absorb(side);
        t.end(root);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.solve))
            .collect();
        assert_eq!(
            names,
            vec![
                ("root", None, 7),
                ("leaf", Some(0), 7),
                ("rank", Some(0), 7),
                ("rank", Some(0), 7),
                ("halo", Some(3), 7)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let doc = t.to_json("w", 3);
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(5)
        );
    }
}
