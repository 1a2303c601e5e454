//! The span-derived profile: exact self and total time per span name,
//! computed from span nesting on each thread's spans.
//!
//! A span's **self** time is its duration minus its direct children's;
//! a name's **total** time is the duration of its outermost spans (a
//! recursive name counted once per stack). Both are sums of recorded
//! nanoseconds, so a parent's self time plus its children's totals is its
//! total exactly — as long as no slot was lost to ring wraparound
//! (`Snapshot::dropped`). The timeline itself is exported as a Chrome
//! trace ([`render_chrome_trace`](super::render_chrome_trace)).

use super::{Snapshot, SpanEvent};
use std::collections::BTreeMap;

/// Per-name time attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelTime {
    /// Span name.
    pub name: &'static str,
    /// Time in the span's own code, ns.
    pub self_ns: u64,
    /// Time in the span or anything it called, ns.
    pub total_ns: u64,
    /// Spans of this name.
    pub spans: u64,
}

/// Self/total attribution of every thread's spans.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// One entry per span name, busiest self time first.
    pub kernels: Vec<KernelTime>,
}

/// One span still open on the nesting stack.
struct Open {
    name: &'static str,
    end_ns: u64,
    self_ns: u64,
}

type Acc = BTreeMap<&'static str, KernelTime>;

fn entry<'a>(acc: &'a mut Acc, name: &'static str) -> &'a mut KernelTime {
    acc.entry(name).or_insert(KernelTime {
        name,
        self_ns: 0,
        total_ns: 0,
        spans: 0,
    })
}

fn close(acc: &mut Acc, o: Open) {
    let k = entry(acc, o.name);
    k.self_ns += o.self_ns;
    k.spans += 1;
}

impl Profile {
    /// Derives the profile from span nesting on each thread's spans.
    pub fn from_snapshot(snap: &Snapshot) -> Profile {
        let mut acc = Acc::new();
        for t in &snap.threads {
            // Outer before inner: by start, longer first, and on a tie the
            // later-closed (pushed later) span is the parent.
            let mut spans: Vec<(usize, &SpanEvent)> = t.spans.iter().enumerate().collect();
            spans.sort_by(|(ia, a), (ib, b)| {
                (a.start_ns, b.dur_ns, ib).cmp(&(b.start_ns, a.dur_ns, ia))
            });
            let mut open: Vec<Open> = Vec::new();
            for (_, s) in spans {
                let end_ns = s.start_ns + s.dur_ns;
                while open.last().is_some_and(|o| end_ns > o.end_ns) {
                    close(&mut acc, open.pop().unwrap());
                }
                if let Some(parent) = open.last_mut() {
                    parent.self_ns = parent.self_ns.saturating_sub(s.dur_ns);
                }
                if !open.iter().any(|o| o.name == s.name) {
                    entry(&mut acc, s.name).total_ns += s.dur_ns;
                }
                open.push(Open {
                    name: s.name,
                    end_ns,
                    self_ns: s.dur_ns,
                });
            }
            for o in open {
                close(&mut acc, o);
            }
        }
        let mut kernels: Vec<KernelTime> = acc.into_values().collect();
        kernels.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        Profile { kernels }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CounterMap, ThreadProfile};
    use super::*;

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

    fn kernel(p: &Profile, name: &str) -> KernelTime {
        p.kernels.iter().find(|k| k.name == name).unwrap().clone()
    }

    #[test]
    fn profile_attribution_self_vs_total() {
        // gmres [0, 1000) holds trsv [100, 400) and flux [500, 900),
        // which holds a fine span [600, 700); a second gmres [2000, 2100)
        // stands alone. Another thread's trsv must not nest in gmres.
        let snap = Snapshot {
            threads: vec![
                thread(
                    "main",
                    &[
                        ("trsv", 100, 300),
                        ("chunk", 600, 100),
                        ("flux", 500, 400),
                        ("gmres", 0, 1000),
                        ("gmres", 2000, 100),
                    ],
                ),
                thread("worker", &[("trsv", 150, 50)]),
            ],
        };
        let p = Profile::from_snapshot(&snap);
        let gmres = kernel(&p, "gmres");
        assert_eq!((gmres.self_ns, gmres.total_ns, gmres.spans), (400, 1100, 2));
        let trsv = kernel(&p, "trsv");
        assert_eq!((trsv.self_ns, trsv.total_ns, trsv.spans), (350, 350, 2));
        let flux = kernel(&p, "flux");
        assert_eq!((flux.self_ns, flux.total_ns), (300, 400));
        assert_eq!(kernel(&p, "chunk").total_ns, 100);
        // Exactly: self + the children's totals = total, in ns, and the
        // self times add up to the outermost spans of both threads.
        assert_eq!(gmres.self_ns + 300 + flux.total_ns, gmres.total_ns);
        assert_eq!(flux.self_ns + 100, flux.total_ns);
        let all_self: u64 = p.kernels.iter().map(|k| k.self_ns).sum();
        assert_eq!(all_self, 1100 + 50);
        assert_eq!(p.kernels[0].name, "gmres", "busiest self time first");
    }

    #[test]
    fn recursion_counts_total_once() {
        // a [0, 100) ⊃ b [10, 90) ⊃ a [20, 80), and an identical-interval
        // child c of the inner a: the later-closed span is the parent.
        let snap = Snapshot {
            threads: vec![thread(
                "t",
                &[("c", 20, 60), ("a", 20, 60), ("b", 10, 80), ("a", 0, 100)],
            )],
        };
        let p = Profile::from_snapshot(&snap);
        let a = kernel(&p, "a");
        assert_eq!(a.total_ns, 100, "recursive frame counted once per stack");
        assert_eq!(a.self_ns, 20, "both occurrences accrue self");
        assert_eq!(kernel(&p, "b").self_ns, 20, "the inner a is b's child");
        assert_eq!(kernel(&p, "c").self_ns, 60);
        assert_eq!(kernel(&p, "c").total_ns, 60, "c nests in the inner a");
    }
}
