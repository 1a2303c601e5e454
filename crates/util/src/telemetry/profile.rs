//! The span-derived profile: exact self and total time per span name,
//! computed from span nesting on each thread's ring, and its two
//! interchange formats.
//!
//! A span's **self** time is its duration minus its direct children's;
//! a name's **total** time is the self time of every stack it appears on
//! (a recursive name counted once per stack), i.e. the duration of its
//! outermost spans. Both are sums of recorded nanoseconds, so a parent's
//! self time plus its children's totals is its total exactly — as long as
//! no span was lost to ring wraparound (`Snapshot::dropped_spans`).
//!
//! * **folded** — one line per distinct stack, `thread;frame;… ns`, the
//!   input format of Brendan Gregg's `flamegraph.pl` and of
//!   `inferno-flamegraph`. The thread label is the root frame, so one
//!   file holds every thread's flame side by side.
//! * **speedscope** — the JSON file format of <https://www.speedscope.app>
//!   (`"type": "sampled"` profiles, one per thread, each stack weighted
//!   by its self time in nanoseconds), viewable offline in any speedscope
//!   build.
//!
//! Both renderers have strict validating counterparts
//! ([`check_folded`], [`check_speedscope`]) used by
//! `perf_report --check` / `scripts/verify.sh` to keep the artifacts
//! machine-readable as the schema evolves.

use super::json::Json;
use super::{Snapshot, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The spans that closed with exactly this open-span path on one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StackTime {
    /// Label of the thread the spans ran on.
    pub thread: String,
    /// Span names, outermost first.
    pub frames: Vec<&'static str>,
    /// Their self time, ns.
    pub self_ns: u64,
    /// How many spans closed on this path.
    pub spans: u64,
}

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

/// Collapsed stacks of every thread's spans.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Sorted by thread label, then path.
    pub stacks: Vec<StackTime>,
}

/// One span still open on the nesting stack.
struct Open {
    end_ns: u64,
    self_ns: u64,
    path: Vec<&'static str>,
}

impl Profile {
    /// Derives the profile from span nesting on each thread's spans.
    pub fn from_snapshot(snap: &Snapshot) -> Profile {
        let mut acc: BTreeMap<(String, Vec<&'static str>), (u64, u64)> = BTreeMap::new();
        for t in &snap.threads {
            let mut add = |o: Open| {
                let e = acc.entry((t.label.clone(), o.path)).or_default();
                e.0 += o.self_ns;
                e.1 += 1;
            };
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
                    add(open.pop().unwrap());
                }
                let mut path = match open.last_mut() {
                    Some(parent) => {
                        parent.self_ns = parent.self_ns.saturating_sub(s.dur_ns);
                        parent.path.clone()
                    }
                    None => Vec::new(),
                };
                path.push(s.name);
                open.push(Open {
                    end_ns,
                    self_ns: s.dur_ns,
                    path,
                });
            }
            open.into_iter().for_each(add);
        }
        Profile {
            stacks: acc
                .into_iter()
                .map(|((thread, frames), (self_ns, spans))| StackTime {
                    thread,
                    frames,
                    self_ns,
                    spans,
                })
                .collect(),
        }
    }

    /// Per-name self/total attribution, busiest self time first.
    pub fn kernel_times(&self) -> Vec<KernelTime> {
        let mut acc: BTreeMap<&'static str, KernelTime> = BTreeMap::new();
        for s in &self.stacks {
            for (i, &name) in s.frames.iter().enumerate() {
                let k = acc.entry(name).or_insert(KernelTime {
                    name,
                    self_ns: 0,
                    total_ns: 0,
                    spans: 0,
                });
                if !s.frames[..i].contains(&name) {
                    k.total_ns += s.self_ns;
                }
                if i + 1 == s.frames.len() {
                    k.self_ns += s.self_ns;
                    k.spans += s.spans;
                }
            }
        }
        let mut times: Vec<KernelTime> = acc.into_values().collect();
        times.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        times
    }
}

/// Renders the folded-flamegraph text form: `thread;frame;… self_ns`,
/// sorted (stable across runs with identical stacks).
pub fn folded(p: &Profile) -> String {
    let mut out = String::new();
    for s in &p.stacks {
        let _ = write!(out, "{}", s.thread.replace(';', ","));
        for f in &s.frames {
            let _ = write!(out, ";{}", f.replace(';', ","));
        }
        let _ = writeln!(out, " {}", s.self_ns);
    }
    out
}

/// Validates folded text: every non-empty line must be
/// `stack<space>count` with a non-empty stack and a `u64` count.
/// Returns the number of stack lines.
pub fn check_folded(text: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no space-separated count", i + 1))?;
        if stack.trim().is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        count
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("line {}: count '{count}' is not a u64", i + 1))?;
        lines += 1;
    }
    if lines == 0 {
        return Err("no stack lines (empty profile)".to_string());
    }
    Ok(lines)
}

/// Renders a speedscope-format document: one `"sampled"` profile per
/// thread over a shared frame table, each stack weighted by its self time
/// in nanoseconds.
pub fn speedscope(p: &Profile, name: &str) -> Json {
    let mut frame_names: Vec<&str> = Vec::new();
    let mut frame_index = |name: &'static str| match frame_names.iter().position(|f| *f == name) {
        Some(i) => i,
        None => {
            frame_names.push(name);
            frame_names.len() - 1
        }
    };

    // Group stacks by thread label, preserving the profile's sort.
    let mut profiles: Vec<(String, Vec<Json>, Vec<Json>, u64)> = Vec::new();
    for s in &p.stacks {
        if profiles.last().map(|(t, ..)| t.as_str()) != Some(s.thread.as_str()) {
            profiles.push((s.thread.clone(), Vec::new(), Vec::new(), 0));
        }
        let (_, samples, weights, end) = profiles.last_mut().unwrap();
        let idxs: Vec<Json> = s
            .frames
            .iter()
            .map(|&f| Json::num(frame_index(f) as f64))
            .collect();
        samples.push(Json::Arr(idxs));
        weights.push(Json::num(s.self_ns as f64));
        *end += s.self_ns;
    }

    let profiles_json: Vec<Json> = profiles
        .into_iter()
        .map(|(thread, samples, weights, end)| {
            Json::obj(vec![
                ("type", Json::str("sampled")),
                ("name", Json::str(thread)),
                ("unit", Json::str("nanoseconds")),
                ("startValue", Json::num(0.0)),
                ("endValue", Json::num(end as f64)),
                ("samples", Json::Arr(samples)),
                ("weights", Json::Arr(weights)),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "$schema",
            Json::str("https://www.speedscope.app/file-format-schema.json"),
        ),
        ("name", Json::str(name)),
        ("exporter", Json::str("fun3d-rs span profile")),
        (
            "shared",
            Json::obj(vec![(
                "frames",
                Json::Arr(
                    frame_names
                        .iter()
                        .map(|f| Json::obj(vec![("name", Json::str(*f))]))
                        .collect(),
                ),
            )]),
        ),
        ("profiles", Json::Arr(profiles_json)),
    ])
}

/// Validates a parsed speedscope document: schema URL, a shared frame
/// table, and per-profile samples/weights arrays of equal length whose
/// frame indices stay inside the table. Returns the profile count.
pub fn check_speedscope(doc: &Json) -> Result<usize, String> {
    doc.get("$schema")
        .and_then(Json::as_str)
        .filter(|s| s.contains("speedscope"))
        .ok_or("missing speedscope $schema")?;
    let nframes = doc
        .get("shared")
        .and_then(|s| s.get("frames"))
        .and_then(Json::as_arr)
        .ok_or("missing shared.frames")?
        .iter()
        .map(|f| {
            f.get("name")
                .and_then(Json::as_str)
                .map(|_| ())
                .ok_or("frame without name")
        })
        .collect::<Result<Vec<()>, _>>()?
        .len();
    let profiles = doc
        .get("profiles")
        .and_then(Json::as_arr)
        .ok_or("missing profiles array")?;
    if profiles.is_empty() {
        return Err("empty profiles array".to_string());
    }
    for p in profiles {
        if p.get("type").and_then(Json::as_str) != Some("sampled") {
            return Err("profile is not of type 'sampled'".to_string());
        }
        p.get("name")
            .and_then(Json::as_str)
            .ok_or("profile without name")?;
        let samples = p
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("profile without samples")?;
        let weights = p
            .get("weights")
            .and_then(Json::as_arr)
            .ok_or("profile without weights")?;
        if samples.len() != weights.len() {
            return Err(format!(
                "samples/weights length mismatch: {} vs {}",
                samples.len(),
                weights.len()
            ));
        }
        for s in samples {
            for idx in s.as_arr().ok_or("sample is not an array")? {
                let i = idx.as_f64().ok_or("frame index is not a number")?;
                if i < 0.0 || i as usize >= nframes {
                    return Err(format!("frame index {i} out of range ({nframes} frames)"));
                }
            }
        }
    }
    Ok(profiles.len())
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
                })
                .collect(),
            dropped_spans: 0,
            counters: CounterMap::new(),
        }
    }

    /// Two threads; spans in the order they close (children first).
    fn sample_profile() -> Profile {
        Profile::from_snapshot(&Snapshot {
            threads: vec![
                thread(
                    "fun3d-worker-0",
                    &[("trsv", 100, 1_750_000), ("pool.region", 0, 2_500_000)],
                ),
                thread("main", &[("ptc.step", 0, 2_500_000)]),
            ],
        })
    }

    fn kernel(p: &Profile, name: &str) -> KernelTime {
        p.kernel_times()
            .into_iter()
            .find(|k| k.name == name)
            .unwrap()
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
        // self times of a thread add up to its outermost spans.
        assert_eq!(gmres.self_ns + 300 + flux.total_ns, gmres.total_ns);
        assert_eq!(flux.self_ns + 100, flux.total_ns);
        let main_self: u64 = p
            .stacks
            .iter()
            .filter(|s| s.thread == "main")
            .map(|s| s.self_ns)
            .sum();
        assert_eq!(main_self, 1100);
        assert_eq!(p.kernel_times()[0].name, "gmres", "busiest self time first");
        let paths: Vec<String> = p.stacks.iter().map(|s| s.frames.join(";")).collect();
        assert!(paths.contains(&"gmres;flux;chunk".to_string()), "{paths:?}");
        assert!(
            paths.contains(&"trsv".to_string()),
            "the worker's trsv is a root"
        );
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
        assert_eq!(kernel(&p, "c").self_ns, 60);
        assert_eq!(p.stacks.last().unwrap().frames, ["a", "b", "a", "c"]);
    }

    #[test]
    fn folded_roundtrips_through_its_checker() {
        let text = folded(&sample_profile());
        assert!(
            text.contains("fun3d-worker-0;pool.region;trsv 1750000"),
            "{text}"
        );
        assert!(text.contains("fun3d-worker-0;pool.region 750000"), "{text}");
        let lines = check_folded(&text).unwrap();
        assert_eq!(lines, 3);
    }

    #[test]
    fn folded_escapes_separator_in_labels() {
        let p = Profile::from_snapshot(&Snapshot {
            threads: vec![thread("a;b", &[("k", 0, 1)])],
        });
        let text = folded(&p);
        assert!(text.starts_with("a,b;k 1"));
        check_folded(&text).unwrap();
    }

    #[test]
    fn checker_rejects_malformed_folded() {
        assert!(check_folded("").is_err());
        assert!(check_folded("no-count-here").is_err());
        assert!(check_folded("stack notanumber").is_err());
        assert!(check_folded(" 12").is_err());
        assert_eq!(check_folded("a;b 3\n\nc 1\n").unwrap(), 2);
    }

    #[test]
    fn speedscope_roundtrips_through_its_checker() {
        let doc = speedscope(&sample_profile(), "unit-test");
        let text = doc.render_pretty();
        let back = Json::parse(&text).unwrap();
        let nprofiles = check_speedscope(&back).unwrap();
        assert_eq!(nprofiles, 2, "one profile per thread label");
        // weights are self times; they add up to the thread's root span
        let p0 = &back.get("profiles").unwrap().as_arr().unwrap()[0];
        let w = p0.get("weights").unwrap().as_arr().unwrap();
        assert_eq!(w[0].as_f64(), Some(750_000.0));
        assert_eq!(p0.get("endValue").and_then(Json::as_f64), Some(2_500_000.0));
    }

    #[test]
    fn checker_rejects_malformed_speedscope() {
        let ok = speedscope(&sample_profile(), "t");
        assert!(check_speedscope(&ok).is_ok());
        assert!(check_speedscope(&Json::obj(vec![])).is_err());
        // out-of-range frame index
        let bad = Json::obj(vec![
            (
                "$schema",
                Json::str("https://www.speedscope.app/file-format-schema.json"),
            ),
            (
                "shared",
                Json::obj(vec![(
                    "frames",
                    Json::Arr(vec![Json::obj(vec![("name", Json::str("f"))])]),
                )]),
            ),
            (
                "profiles",
                Json::Arr(vec![Json::obj(vec![
                    ("type", Json::str("sampled")),
                    ("name", Json::str("t")),
                    ("unit", Json::str("nanoseconds")),
                    ("startValue", Json::num(0.0)),
                    ("endValue", Json::num(1.0)),
                    ("samples", Json::Arr(vec![Json::Arr(vec![Json::num(5.0)])])),
                    ("weights", Json::Arr(vec![Json::num(1.0)])),
                ])]),
            ),
        ]);
        assert!(check_speedscope(&bad).is_err());
    }
}
