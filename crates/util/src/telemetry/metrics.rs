//! Live metrics plane: a lock-free registry of counters, gauges, and
//! log-bucketed latency histograms, recording at the default telemetry
//! level.
//!
//! Where spans ([`super::ring`]) and the flight recorder
//! ([`super::flight`]) reconstruct *what happened* after the fact, this
//! module answers "what are your p99 and hit rate **right now**" — the
//! continuous-measurement loop the paper's methodology (Fig. 5–8
//! profiles on live hardware) depends on, promoted from bench-time
//! sorted vectors to an in-process, queryable plane.
//!
//! ## Publication discipline
//!
//! Histograms follow the repo's single-writer publication protocol: each
//! thread's recorder holds one [`HistShard`] per histogram, and the
//! thread is its only writer. A record is one relaxed `fetch_add` on a
//! bucket word followed by a **Release** increment of the shard's record
//! count; a collector Acquire-loads the count first and then reads the
//! buckets relaxed, so every bucket increment covered by the count it
//! observed is visible (`sum(buckets) + overflow >= count`, never
//! less). The protocol is model-checked under `--cfg fun3d_check`
//! (`crates/util/tests/model_metrics_shard.rs`), including a
//! Release→Relaxed mutant the checker must catch. Counters and gauges
//! are single relaxed RMWs/stores on shared words — monotonic or
//! last-write-wins statistics with no multi-word invariant to protect.
//!
//! ## Bucket layout (HDR-style)
//!
//! Values are `u64` nanoseconds. The first 64 buckets are exact
//! (`0..64` ns); above that each power-of-two range `[2^t, 2^{t+1})` is
//! split into 64 equal sub-buckets, so the relative width of any bucket
//! is at most 1/64 (~1.6%, ≈2 significant digits) from 64 ns up to
//! 2^43 ns (~2.4 hours). The whole array is [`BUCKETS`] = 2432 `u64`
//! words (~19 KB) per shard — fixed footprint, no allocation on record.
//! Values past the top bucket land in an exact overflow counter and the
//! exact maximum is tracked separately, so nothing is silently lost.
//!
//! ## Enablement
//!
//! The plane records whenever the telemetry level is `counters` or above
//! (the default; see the [module docs](super)). At `off` every
//! instrumentation site costs one relaxed atomic load and a branch and
//! allocates nothing (asserted by `crates/util/tests/metrics_overhead.rs`).
//!
//! ## Shards live in the recorder
//!
//! A thread's histogram shards belong to its telemetry recorder, so when
//! the next thread adopts an exited thread's recorder it keeps writing the
//! same shards: a histogram's `count` and `sum_ns` never drop, and the
//! number of shards is bounded by the peak number of live threads times
//! the histograms each touched.

use super::json::Json;
use super::{enabled, now_ns, recorders, with_local, Local};
// Shim atomics carry the histogram shard's publication protocol: std
// atomics in normal builds, fun3d-check's tracked types under
// `--cfg fun3d_check` so the model tests explore the real orderings.
use fun3d_check::shim::{AtomicU64, Ordering};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------
// Bucket geometry
// ---------------------------------------------------------------------

/// log2 of the sub-bucket count per power-of-two range.
pub(crate) const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS; // 64
/// Highest power-of-two range start covered: values below
/// `2^(MAX_EXP + 1)` ns (~2.4 h) are bucketed, larger ones overflow.
const MAX_EXP: u32 = 42;
/// Total bucket count: 64 exact + 64 per range for ranges 2^6..=2^42.
pub(crate) const BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS + 1) as usize * SUB;

/// Bucket index for a value, or `None` when it exceeds the top range.
#[inline]
pub(crate) fn bucket_of(v: u64) -> Option<usize> {
    if v < SUB as u64 {
        return Some(v as usize);
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS here
    if top > MAX_EXP {
        return None;
    }
    let sub = ((v >> (top - SUB_BITS)) as usize) - SUB;
    Some(SUB + (top - SUB_BITS) as usize * SUB + sub)
}

/// Half-open value range `[lo, hi)` covered by bucket `i`.
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let block = (i - SUB) / SUB; // power-of-two range index
    let sub = ((i - SUB) % SUB) as u64;
    let shift = block as u32; // width = 2^shift within range 2^(6+block)
    let lo = (SUB as u64 + sub) << shift;
    (lo, lo + (1u64 << shift))
}

// ---------------------------------------------------------------------
// Histogram shard (the model-checked protocol)
// ---------------------------------------------------------------------

/// One thread's private histogram storage. The owning thread is the
/// only writer; collectors read concurrently via the count handshake.
/// Aligned to two cache lines: `count`, `sum` and `max` are written on
/// every record (every barrier wait), and the shards of threads that ran
/// one after another are allocated next to each other.
#[repr(align(128))]
pub struct HistShard {
    buckets: Box<[AtomicU64]>,
    /// Records published so far. The Release increment here is the
    /// publication edge a collector's Acquire load pairs with.
    count: AtomicU64,
    // Statistics outside the checked protocol (plain std atomics, like
    // `Bell::pace_ns`): exact accumulators a collector reads relaxed.
    sum: StdAtomicU64,
    max: StdAtomicU64,
    overflow: StdAtomicU64,
}

impl HistShard {
    /// A shard with the full production bucket array.
    fn new() -> HistShard {
        HistShard::with_buckets(BUCKETS)
    }

    /// A shard with a reduced bucket array — the model tests drive the
    /// publication protocol over a handful of tracked atomics instead
    /// of 2432.
    pub fn with_buckets(n: usize) -> HistShard {
        HistShard {
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: StdAtomicU64::new(0),
            max: StdAtomicU64::new(0),
            overflow: StdAtomicU64::new(0),
        }
    }

    /// Writer: records a value in nanoseconds. Single-writer only.
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        match bucket_of(v) {
            Some(i) if i < self.buckets.len() => {
                // Relaxed payload store; the Release count below orders it.
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.overflow.fetch_add(1, StdOrdering::Relaxed);
            }
        }
        self.sum.fetch_add(v, StdOrdering::Relaxed);
        self.max.fetch_max(v, StdOrdering::Relaxed);
        // Publish: a collector that Acquires this count sees the bucket
        // increment above (the protocol the model tests verify).
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Writer (model tests): records directly into bucket `i`, the
    /// protocol skeleton without the value→bucket mapping.
    pub fn record_bucket(&self, i: usize) {
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Collector: `(published count, bucket counts)`. The count is
    /// loaded first (Acquire), so the returned buckets account for at
    /// least that many records: `sum(buckets) >= count - overflow`.
    pub fn read(&self) -> (u64, Vec<u64>) {
        let c = self.count.load(Ordering::Acquire);
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (c, buckets)
    }
}

// ---------------------------------------------------------------------
// Metric types
// ---------------------------------------------------------------------

/// A monotonic counter (requests served, sheds, cache hits).
pub struct Counter {
    value: StdAtomicU64,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            value: StdAtomicU64::new(0),
        }
    }

    /// Adds `n`. One relaxed RMW; free branch at level `off`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, StdOrdering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(StdOrdering::Relaxed)
    }
}

/// A last-write-wins gauge (queue depth, inflight jobs, cache
/// occupancy).
pub struct Gauge {
    value: StdAtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            value: StdAtomicU64::new(0),
        }
    }

    /// Sets the gauge. One relaxed store.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, StdOrdering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(StdOrdering::Relaxed)
    }
}

/// A log-bucketed latency histogram: per-thread [`HistShard`]s, held by
/// the threads' recorders, merged at collection time.
pub struct Histogram {
    /// Process-unique id keying each recorder's shard of it.
    id: u64,
}

/// Records `ns` into this thread's shard of histogram `id`, found through
/// `cache` (keyed by `key`) or, on a miss, in the recorder's own shards —
/// where a thread that adopted a recorder finds its predecessor's shard
/// and carries its totals on.
fn record_local<K: Copy + PartialEq>(
    cache: impl FnOnce(&Local) -> &RefCell<Vec<(K, Arc<HistShard>)>>,
    key: K,
    id: impl FnOnce() -> u64,
    ns: u64,
) {
    with_local(|local| {
        let mut cache = cache(local).borrow_mut();
        if let Some((_, shard)) = cache.iter().find(|(k, _)| *k == key) {
            return shard.record(ns);
        }
        let id = id();
        let shard = {
            let mut shards = local.recorder().shards.lock().unwrap();
            match shards.iter().find(|(i, _)| *i == id) {
                Some((_, shard)) => Arc::clone(shard),
                None => {
                    shards.push((id, Arc::new(HistShard::new())));
                    Arc::clone(&shards.last().unwrap().1)
                }
            }
        };
        shard.record(ns);
        cache.push((key, shard));
    });
}

impl Histogram {
    fn new() -> Histogram {
        static NEXT: StdAtomicU64 = StdAtomicU64::new(1);
        Histogram {
            id: NEXT.fetch_add(1, StdOrdering::Relaxed),
        }
    }

    /// Records a value in nanoseconds. Lock-free after this thread's
    /// first record (which finds or adds its recorder's shard); a single
    /// relaxed load and branch at level `off`.
    #[inline]
    pub fn record(&self, ns: u64) {
        if enabled() {
            self.record_always(ns);
        }
    }

    fn record_always(&self, ns: u64) {
        record_local(|l| &l.shards, self.id, || self.id, ns);
    }

    /// Calls `f` on every recorder's shard of this histogram.
    fn for_each_shard(&self, mut f: impl FnMut(&HistShard)) {
        for rec in recorders().iter() {
            for (id, shard) in rec.shards.lock().unwrap().iter() {
                if *id == self.id {
                    f(shard);
                }
            }
        }
    }

    /// Merges every thread's shard into one [`HistSnapshot`].
    pub(crate) fn snapshot(&self, name: &str) -> HistSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        let (mut overflow, mut sum, mut max) = (0u64, 0u64, 0u64);
        self.for_each_shard(|shard| {
            let (_count, b) = shard.read();
            for (acc, v) in buckets.iter_mut().zip(&b) {
                *acc += v;
            }
            overflow += shard.overflow.load(StdOrdering::Relaxed);
            sum += shard.sum.load(StdOrdering::Relaxed);
            max = max.max(shard.max.load(StdOrdering::Relaxed));
        });
        let count = buckets.iter().sum::<u64>() + overflow;
        HistSnapshot {
            name: name.to_string(),
            count,
            sum_ns: sum,
            max_ns: max,
            overflow,
            buckets: buckets
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
    })
}

/// The entry for `name`, created on first use (the name is copied only
/// then).
fn entry<T>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str, new: fn() -> T) -> Arc<T> {
    let mut map = map.lock().unwrap();
    if let Some(v) = map.get(name) {
        return Arc::clone(v);
    }
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(new())),
    )
}

/// The named counter, created on first use. Hold the `Arc` at the call
/// site; the registry lock is for lookup, never for recording.
pub fn counter(name: &str) -> Arc<Counter> {
    entry(&registry().counters, name, Counter::new)
}

/// The named gauge, created on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    entry(&registry().gauges, name, Gauge::new)
}

/// The named histogram, created on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    entry(&registry().hists, name, Histogram::new)
}

/// Records `ns` into the named histogram — the one-line instrumentation
/// entry point for static metric names, lock-free after this thread's
/// first record of `name`. A single relaxed load and branch at level
/// `off`.
#[inline]
pub fn record_ns(name: &'static str, ns: u64) {
    if enabled() {
        record_local(|l| &l.named, name, || histogram(name).id, ns);
    }
}

/// Adds `n` to the named counter (one registry lookup; per-request
/// sites only — hot loops hold the [`counter`] handle).
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        counter(name).value.fetch_add(n, StdOrdering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Merged view of one histogram at a point in time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Registry name.
    pub name: String,
    /// Total records, including overflow.
    pub count: u64,
    /// Exact sum of recorded values, ns.
    pub sum_ns: u64,
    /// Exact maximum recorded value, ns.
    pub max_ns: u64,
    /// Records past the top bucket (still counted in `count`/`sum_ns`).
    pub overflow: u64,
    /// Sparse nonzero `(bucket index, count)` pairs, index-ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {

    /// Nearest-rank quantile in nanoseconds (bucket midpoint; exact max
    /// for ranks landing in overflow). `NaN` when empty; `q` is clamped
    /// to `[0, 1]`. Within one bucket width of the exact nearest-rank
    /// quantile of the recorded values (`quantiles_bounded_error`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(i);
                return (lo + hi) as f64 / 2.0;
            }
        }
        // Rank lands in the overflow region: the exact max is the best
        // (and an upper-bound-correct) answer.
        self.max_ns as f64
    }
}

/// Every registered metric at a point in time, names sorted.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the telemetry epoch at collection.
    pub t_ns: u64,
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// One merged snapshot per histogram.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// The named gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }
}

/// Collects every registered metric into a [`MetricsSnapshot`]. Safe at
/// any time (the shard protocol tolerates concurrent writers).
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(n, c)| (n.clone(), c.value()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(n, g)| (n.clone(), g.value()))
        .collect();
    let hists = reg
        .hists
        .lock()
        .unwrap()
        .iter()
        .map(|(n, h)| h.snapshot(n))
        .collect();
    MetricsSnapshot {
        t_ns: now_ns(),
        counters,
        gauges,
        hists,
    }
}

// ---------------------------------------------------------------------
// Exposition: strict JSON
// ---------------------------------------------------------------------

/// Schema tag on every JSON metrics snapshot.
pub(crate) const SCHEMA: &str = "fun3d.metrics.v1";

/// Renders one histogram as its JSON snapshot object (the per-name
/// value inside [`snapshot_json`]'s `histograms` map; also embedded by
/// `assemble_trace` as per-request stage context).
pub(crate) fn hist_json(h: &HistSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .map(|&(i, c)| {
            let (lo, hi) = bucket_bounds(i);
            Json::Arr(vec![
                Json::num(lo as f64),
                Json::num(hi as f64),
                Json::num(c as f64),
            ])
        })
        .collect();
    Json::obj(vec![
        ("count", Json::num(h.count as f64)),
        ("sum_ns", Json::num(h.sum_ns as f64)),
        ("max_ns", Json::num(h.max_ns as f64)),
        ("overflow", Json::num(h.overflow as f64)),
        ("p50_ns", super::flight::json_f64(h.quantile(0.50))),
        ("p90_ns", super::flight::json_f64(h.quantile(0.90))),
        ("p99_ns", super::flight::json_f64(h.quantile(0.99))),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// Renders a snapshot as the strict-JSON artifact the serve `stats`
/// reply and `--metrics-socket` endpoint carry (validated by
/// [`check_snapshot`]).
pub fn snapshot_json(snap: &MetricsSnapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), Json::num(*v as f64)))
        .collect::<Vec<_>>();
    let gauges = snap
        .gauges
        .iter()
        .map(|(n, v)| (n.as_str(), Json::num(*v as f64)))
        .collect::<Vec<_>>();
    let hists = snap
        .hists
        .iter()
        .map(|h| (h.name.as_str(), hist_json(h)))
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("t_ns", Json::num(snap.t_ns as f64)),
        ("counters", Json::obj(counters)),
        ("gauges", Json::obj(gauges)),
        ("histograms", Json::obj(hists)),
    ])
}

/// Strictly validates a JSON metrics snapshot: schema tag, non-negative
/// numeric counters/gauges, and per histogram — required keys, ordered
/// disjoint bucket bounds, bucket-count/overflow/count consistency, and
/// quantile ordering. Returns the number of metrics validated.
// Public as the validator of `crates/serve/tests/metrics_socket.rs`.
pub fn check_snapshot(doc: &Json) -> Result<usize, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, want {SCHEMA:?}"));
    }
    doc.get("t_ns")
        .and_then(Json::as_f64)
        .ok_or("missing t_ns")?;
    let mut metrics = 0usize;
    for section in ["counters", "gauges"] {
        let Json::Obj(entries) = doc.get(section).ok_or_else(|| format!("missing {section}"))?
        else {
            return Err(format!("{section} is not an object"));
        };
        for (name, v) in entries {
            let x = v
                .as_f64()
                .ok_or_else(|| format!("{section}.{name}: not a number"))?;
            if !(x >= 0.0) {
                return Err(format!("{section}.{name}: negative or NaN value {x}"));
            }
            metrics += 1;
        }
    }
    let Json::Obj(hists) = doc.get("histograms").ok_or("missing histograms")? else {
        return Err("histograms is not an object".to_string());
    };
    for (name, h) in hists {
        let field = |k: &str| -> Result<f64, String> {
            h.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histograms.{name}: missing {k}"))
        };
        let count = field("count")?;
        field("sum_ns")?;
        let max_ns = field("max_ns")?;
        let overflow = field("overflow")?;
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("histograms.{name}: missing buckets"))?;
        let mut prev_hi = -1.0f64;
        let mut total = 0.0f64;
        for (i, b) in buckets.iter().enumerate() {
            let row = b
                .as_arr()
                .filter(|r| r.len() == 3)
                .ok_or_else(|| format!("histograms.{name}: bucket[{i}] is not [lo, hi, count]"))?;
            let lo = row[0].as_f64().ok_or_else(|| format!("histograms.{name}: bucket[{i}] lo"))?;
            let hi = row[1].as_f64().ok_or_else(|| format!("histograms.{name}: bucket[{i}] hi"))?;
            let c = row[2].as_f64().ok_or_else(|| format!("histograms.{name}: bucket[{i}] count"))?;
            if !(lo < hi) || lo < prev_hi {
                return Err(format!(
                    "histograms.{name}: bucket[{i}] bounds [{lo}, {hi}) not ordered/disjoint"
                ));
            }
            if !(c > 0.0) {
                return Err(format!(
                    "histograms.{name}: bucket[{i}] count {c} not positive (sparse form)"
                ));
            }
            prev_hi = hi;
            total += c;
        }
        if (total + overflow - count).abs() > 0.5 {
            return Err(format!(
                "histograms.{name}: bucket sum {total} + overflow {overflow} != count {count}"
            ));
        }
        if count > 0.0 {
            let p50 = field("p50_ns")?;
            let p90 = field("p90_ns")?;
            let p99 = field("p99_ns")?;
            if !(p50 <= p90 && p90 <= p99) {
                return Err(format!(
                    "histograms.{name}: quantiles not ordered (p50 {p50}, p90 {p90}, p99 {p99})"
                ));
            }
            // The p99 is a bucket midpoint: it may exceed the exact max by
            // at most half its bucket's width (<= max/64 above 64 ns, < 1
            // below), never more.
            if p99 > max_ns.max(64.0) * (1.0 + 1.0 / SUB as f64) {
                return Err(format!(
                    "histograms.{name}: p99 {p99} above max_ns {max_ns} by more than bucket error"
                ));
            }
        }
        metrics += 1;
    }
    Ok(metrics)
}

// ---------------------------------------------------------------------
// Exposition: Prometheus text format
// ---------------------------------------------------------------------

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("fun3d_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format:
/// counters as `counter`, gauges as `gauge`, histograms as cumulative
/// `_bucket{le=...}` series (nanosecond bounds, sparse nonzero buckets
/// plus `+Inf`) with `_sum` / `_count`.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for h in &snap.hists {
        let n = prom_name(&h.name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cum = 0u64;
        for &(i, c) in &h.buckets {
            cum += c;
            let (_, hi) = bucket_bounds(i);
            out.push_str(&format!("{n}_bucket{{le=\"{hi}\"}} {cum}\n"));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n", h.sum_ns));
        out.push_str(&format!("{n}_count {}\n", h.count));
    }
    out
}

/// Validates Prometheus text exposition: every line is a `# TYPE` /
/// `# HELP` comment or a `name[{labels}] value` sample with a finite
/// value; histogram `le` bounds strictly increase with non-decreasing
/// cumulative counts, end at `+Inf`, and the `+Inf` count equals the
/// family's `_count` sample. Returns the number of samples.
// Public as the validator of `crates/serve/tests/metrics_socket.rs`.
pub fn check_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    // Per histogram family: (last le, last cum, +Inf count).
    let mut cur_hist: Option<(String, f64, f64, Option<f64>)> = None;
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut infs: BTreeMap<String, f64> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kw = parts.next().unwrap_or("");
            if kw != "TYPE" && kw != "HELP" {
                return Err(format!("line {}: unknown comment {line:?}", ln + 1));
            }
            if kw == "TYPE" {
                let name = parts.next().ok_or(format!("line {}: TYPE without name", ln + 1))?;
                let ty = parts.next().ok_or(format!("line {}: TYPE without type", ln + 1))?;
                if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {}: unknown metric type {ty:?}", ln + 1));
                }
                cur_hist = (ty == "histogram")
                    .then(|| (name.to_string(), f64::NEG_INFINITY, 0.0, None));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find(' ') {
            Some(sp) => (&line[..sp], line[sp + 1..].trim()),
            None => return Err(format!("line {}: sample without value: {line:?}", ln + 1)),
        };
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: bad sample value {value_part:?}", ln + 1))?;
        if !value.is_finite() {
            return Err(format!("line {}: non-finite sample value", ln + 1));
        }
        samples += 1;
        let (name, labels) = match name_part.find('{') {
            Some(b) => {
                if !name_part.ends_with('}') {
                    return Err(format!("line {}: unterminated labels: {line:?}", ln + 1));
                }
                (&name_part[..b], &name_part[b + 1..name_part.len() - 1])
            }
            None => (name_part, ""),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", ln + 1));
        }
        if let Some(stripped) = name.strip_suffix("_count") {
            counts.insert(stripped.to_string(), value);
        }
        if let Some((fam, last_le, last_cum, inf)) = cur_hist.as_mut() {
            if name == format!("{fam}_bucket") {
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or(format!("line {}: bucket without le label", ln + 1))?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {}: bad le bound {le:?}", ln + 1))?
                };
                if bound <= *last_le {
                    return Err(format!("line {}: le bounds not increasing", ln + 1));
                }
                if value < *last_cum {
                    return Err(format!("line {}: bucket counts not cumulative", ln + 1));
                }
                *last_le = bound;
                *last_cum = value;
                if bound.is_infinite() {
                    *inf = Some(value);
                    infs.insert(fam.clone(), value);
                }
            }
        }
    }
    for (fam, inf) in &infs {
        match counts.get(fam) {
            Some(c) if (c - inf).abs() < 0.5 => {}
            Some(c) => {
                return Err(format!(
                    "histogram {fam}: +Inf bucket {inf} != _count {c}"
                ))
            }
            None => return Err(format!("histogram {fam}: missing _count sample")),
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::super::{set_level, Level, TEST_LOCK};
    use super::*;
    use crate::{prop_assert, prop_cases};

    impl MetricsSnapshot {
        /// The named counter's value (0 when absent).
        fn counter(&self, name: &str) -> u64 {
            self.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        }
    }

    /// Exact nearest-rank quantile of an ascending-sorted slice: the
    /// reference [`HistSnapshot::quantile`] is held to. An empty slice
    /// yields `NaN`, a single sample is every quantile of itself, `q` is
    /// clamped to `[0, 1]`, and `q = 1.0` indexes the last element exactly.
    fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
        let n = sorted.len();
        // Nearest rank: smallest k with k/n >= q, clamped to [1, n].
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    #[test]
    fn bucket_mapping_round_trips_and_is_monotone() {
        // Exhaustive low range + sampled high range: every value lands in
        // a bucket whose bounds contain it, and indices are monotone.
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let i = bucket_of(v).unwrap();
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "v={v} not in [{lo}, {hi})");
            assert!(i >= prev);
            prev = i;
        }
        for shift in 12..43u32 {
            for off in [0u64, 1, 12345] {
                let v = (1u64 << shift) + off;
                let i = bucket_of(v).unwrap();
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v < hi, "v={v} not in [{lo}, {hi})");
                // Relative bucket width is the 2-significant-digit claim.
                assert!((hi - lo) as f64 / lo as f64 <= 1.0 / SUB as f64 + 1e-12);
            }
        }
        // Top edge: the largest covered value and the first overflow.
        assert!(bucket_of((1u64 << 43) - 1).is_some());
        assert_eq!(bucket_of(1u64 << 43), None);
        assert_eq!(bucket_of(u64::MAX), None);
        // The last bucket's hi is exactly the overflow threshold.
        assert_eq!(bucket_bounds(BUCKETS - 1).1, 1u64 << 43);
    }

    #[test]
    fn quantile_sorted_edges() {
        // The reference's contract: no panic on empty, sane single
        // sample, exact p=0/p=1 indexing.
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile_sorted(&[7.0], 0.0), 7.0);
        assert_eq!(quantile_sorted(&[7.0], 0.5), 7.0);
        assert_eq!(quantile_sorted(&[7.0], 1.0), 7.0);
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 100.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 50.0);
        assert_eq!(quantile_sorted(&xs, 0.99), 99.0);
        // Clamping, not panicking, outside [0, 1].
        assert_eq!(quantile_sorted(&xs, -1.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 2.0), 100.0);
        // Two samples: p50 is the first (rank ceil(0.5*2)=1).
        assert_eq!(quantile_sorted(&[1.0, 9.0], 0.5), 1.0);
        assert_eq!(quantile_sorted(&[1.0, 9.0], 0.51), 9.0);
    }

    #[test]
    fn histogram_records_and_extracts() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 1000, 2000, 1_000_000] {
            h.record_always(v);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum_ns, 10 + 20 + 30 + 1000 + 2000 + 1_000_000);
        assert_eq!(snap.max_ns, 1_000_000);
        assert_eq!(snap.overflow, 0);
        // Exact buckets below 64 ns.
        assert!((snap.quantile(0.0) - 10.5).abs() < 1.0);
        // p100 rank = count → last bucket (1 ms, ~1.6% wide).
        let p100 = snap.quantile(1.0);
        assert!((p100 - 1_000_000.0).abs() / 1_000_000.0 < 0.02, "{p100}");
    }

    #[test]
    fn histogram_overflow_is_exact() {
        let h = Histogram::new();
        h.record_always(1u64 << 43); // first value past the top bucket
        h.record_always(100);
        let snap = h.snapshot("o");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.max_ns, 1u64 << 43);
        // p100 lands in overflow → exact max.
        assert_eq!(snap.quantile(1.0), (1u64 << 43) as f64);
    }

    #[test]
    fn shards_merge_across_threads() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record_always(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot("m");
        assert_eq!(snap.count, 4000);
        // One shard per recorder: a thread that started after another
        // exited may have adopted its recorder, and with it the shard.
        let mut shards = 0;
        h.for_each_shard(|_| shards += 1);
        assert!((1..=4).contains(&shards), "{shards} shards for 4 threads");
    }

    #[test]
    fn registry_returns_same_metric_for_same_name() {
        let c1 = counter("test.reg.counter");
        let c2 = counter("test.reg.counter");
        assert!(Arc::ptr_eq(&c1, &c2));
        let h1 = histogram("test.reg.hist");
        let h2 = histogram("test.reg.hist");
        assert!(Arc::ptr_eq(&h1, &h2));
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Counters);
        c1.add(3);
        c2.add(4);
        assert_eq!(c1.value(), 7);
        let g1 = gauge("test.reg.gauge");
        g1.set(42);
        assert_eq!(gauge("test.reg.gauge").value(), 42);
        let snap = snapshot();
        assert_eq!(snap.counter("test.reg.counter"), 7);
        assert_eq!(snap.gauge("test.reg.gauge"), 42);
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Off);
        let c = counter("test.gate.counter");
        let h = histogram("test.gate.hist");
        let gge = gauge("test.gate.gauge");
        c.add(10);
        h.record(123);
        gge.set(9);
        record_ns("test.gate.free", 55);
        counter_add("test.gate.free_ctr", 5);
        set_level(Level::Counters);
        let snap = snapshot();
        assert_eq!(snap.counter("test.gate.counter"), 0);
        assert_eq!(snap.gauge("test.gate.gauge"), 0);
        assert_eq!(snap.hist("test.gate.hist").map(|h| h.count), Some(0));
        assert_eq!(snap.hist("test.gate.free").map(|h| h.count).unwrap_or(0), 0);
        assert_eq!(snap.counter("test.gate.free_ctr"), 0);
    }

    #[test]
    fn json_snapshot_round_trips_and_validates() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Counters);
        let h = histogram("test.json.hist");
        for v in [1_000u64, 2_000, 50_000, 1_000_000] {
            h.record_always(v);
        }
        counter("test.json.ctr").add(5);
        gauge("test.json.gauge").set(17);
        let snap = snapshot();
        let doc = snapshot_json(&snap);
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("snapshot renders to valid JSON");
        let n = check_snapshot(&parsed).expect("snapshot validates");
        assert!(n >= 3);
        // Corruptions must fail: schema, and a count inconsistency.
        let bad_schema = rendered.replace(SCHEMA, "fun3d.metrics.v0");
        assert!(check_snapshot(&Json::parse(&bad_schema).unwrap()).is_err());
        let bad_count = rendered.replace("\"count\":4", "\"count\":40");
        if bad_count != rendered {
            assert!(check_snapshot(&Json::parse(&bad_count).unwrap()).is_err());
        }
    }

    #[test]
    fn prometheus_exposition_validates_and_catches_corruption() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Counters);
        let h = histogram("test.prom.hist");
        for v in [500u64, 1500, 2500, 100_000] {
            h.record_always(v);
        }
        counter("test.prom.ctr").add(2);
        let text = render_prometheus(&snapshot());
        let samples = check_prometheus(&text).expect("exposition validates");
        assert!(samples >= 5);
        assert!(text.contains("# TYPE fun3d_test_prom_hist histogram"));
        assert!(text.contains("fun3d_test_prom_hist_bucket{le=\"+Inf\"}"));
        // Corrupt the +Inf bucket: cumulative consistency must fail.
        let bad = text.replace("le=\"+Inf\"} 4", "le=\"+Inf\"} 400");
        if bad != text {
            assert!(check_prometheus(&bad).is_err());
        }
        assert!(check_prometheus("bogus line without value\n").is_err());
        assert!(check_prometheus("# WAT comment\n").is_err());
    }

    prop_cases! {
        /// The acceptance-criteria property: histogram quantiles agree
        /// with exact sorted percentiles within one log-bucket width,
        /// over randomized value distributions spanning ns → seconds.
        fn quantiles_bounded_error(g, cases = 32) {
            let n = g.usize_range(1, 400);
            let h = Histogram::new();
            let mut exact: Vec<f64> = Vec::with_capacity(n);
            for _ in 0..n {
                // Log-uniform over ~9 decades, the shape of a latency mix.
                let exp = g.f64_range(0.0, 9.0);
                let v = 10f64.powf(exp) as u64;
                h.record_always(v);
                exact.push(v as f64);
            }
            exact.sort_by(|a, b| a.total_cmp(b));
            let snap = h.snapshot("prop");
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let approx = snap.quantile(q);
                let truth = quantile_sorted(&exact, q);
                // One bucket width: relative 1/64 above 64 ns, absolute 1
                // below (exact integer buckets, half-step midpoints).
                let tol = (truth / SUB as f64).max(1.0);
                prop_assert!(
                    (approx - truth).abs() <= tol,
                    "q={} approx={} truth={} tol={}", q, approx, truth, tol
                );
            }
        }
    }
}
