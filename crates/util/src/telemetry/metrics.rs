//! Live metrics plane: a registry of log-bucketed latency histograms,
//! recording at the default telemetry level, and its one rendering, a
//! strict-JSON snapshot ([`snapshot_json`], validated by
//! [`check_snapshot`]) that serve's `stats` reply carries.
//!
//! Where spans and the flight recorder ([`super::flight`]) reconstruct
//! *what happened* after the fact, this module answers "what is your p99
//! **right now**" — the continuous-measurement loop the paper's
//! methodology (Fig. 5–8 profiles on live hardware) depends on, promoted
//! from bench-time sorted vectors to an in-process, queryable plane.
//! Counts and totals are not metrics: they are kernel counters
//! ([`super::record_kernel`]) or the owning subsystem's own state (serve's
//! `ServeStats`), so each fact is recorded once.
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
//! less). The protocol is model-checked under `--cfg fun3d_check` (the
//! `model` tests below), including a Release→Relaxed mutant the checker
//! must catch.
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
//! allocates nothing (asserted by `crates/bench/tests/metrics_overhead.rs`).
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
use std::sync::{Arc, Mutex};

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
pub(crate) struct HistShard {
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
    fn with_buckets(n: usize) -> HistShard {
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

    /// Collector: `(published count, bucket counts)`. The count is
    /// loaded first (Acquire), so the returned buckets account for at
    /// least that many records: `sum(buckets) >= count - overflow`.
    pub(crate) fn read(&self) -> (u64, Vec<u64>) {
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
// Histogram
// ---------------------------------------------------------------------

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

/// Every histogram by name.
static REGISTRY: Mutex<BTreeMap<String, Arc<Histogram>>> = Mutex::new(BTreeMap::new());

/// The named histogram, created on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = REGISTRY.lock().unwrap();
    if let Some(h) = map.get(name) {
        return Arc::clone(h);
    }
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
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

/// Every histogram at a point in time, names sorted.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the telemetry epoch at collection.
    pub t_ns: u64,
    /// One merged snapshot per histogram.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }
}

/// Collects every histogram into a [`MetricsSnapshot`]. Safe at any time
/// (the shard protocol tolerates concurrent writers).
pub fn snapshot() -> MetricsSnapshot {
    let hists = REGISTRY
        .lock()
        .unwrap()
        .iter()
        .map(|(n, h)| h.snapshot(n))
        .collect();
    MetricsSnapshot {
        t_ns: now_ns(),
        hists,
    }
}

// ---------------------------------------------------------------------
// Exposition: strict JSON
// ---------------------------------------------------------------------

/// Schema tag on every JSON metrics snapshot.
pub(crate) const SCHEMA: &str = "fun3d.metrics.v2";

/// Renders one histogram as its JSON snapshot object (the per-name
/// value inside [`snapshot_json`]'s `histograms` map).
fn hist_json(h: &HistSnapshot) -> Json {
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
/// reply carries (validated by [`check_snapshot`]).
pub fn snapshot_json(snap: &MetricsSnapshot) -> Json {
    let hists = snap
        .hists
        .iter()
        .map(|h| (h.name.as_str(), hist_json(h)))
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("t_ns", Json::num(snap.t_ns as f64)),
        ("histograms", Json::obj(hists)),
    ])
}

/// Strictly validates a JSON metrics snapshot: schema tag, and per
/// histogram — required keys, ordered disjoint bucket bounds,
/// bucket-count/overflow/count consistency, and quantile ordering.
/// Returns the number of histograms validated.
// Public as the validator of serve's `stats` reply tests.
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

#[cfg(test)]
mod tests {
    use super::super::{set_level, Level, TEST_LOCK};
    use super::*;
    use crate::{prop_assert, prop_cases};

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
        let h1 = histogram("test.reg.hist");
        let h2 = histogram("test.reg.hist");
        assert!(Arc::ptr_eq(&h1, &h2));
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Counters);
        h1.record(3);
        h2.record(4);
        record_ns("test.reg.hist", 5);
        let snap = snapshot();
        let h = snap.hist("test.reg.hist").expect("registered");
        assert_eq!((h.count, h.sum_ns), (3, 12));
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Off);
        let h = histogram("test.gate.hist");
        h.record(123);
        record_ns("test.gate.free", 55);
        set_level(Level::Counters);
        let snap = snapshot();
        assert_eq!(snap.hist("test.gate.hist").map(|h| h.count), Some(0));
        assert_eq!(snap.hist("test.gate.free").map(|h| h.count).unwrap_or(0), 0);
    }

    #[test]
    fn json_snapshot_round_trips_and_validates() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_level(Level::Counters);
        let h = histogram("test.json.hist");
        for v in [1_000u64, 2_000, 50_000, 1_000_000] {
            h.record_always(v);
        }
        let snap = snapshot();
        let doc = snapshot_json(&snap);
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("snapshot renders to valid JSON");
        let n = check_snapshot(&parsed).expect("snapshot validates");
        assert!(n >= 1);
        assert_eq!(
            parsed
                .get("histograms")
                .and_then(|h| h.get("test.json.hist"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        // Corruptions must fail: schema, a count inconsistency, and a
        // negative bucket count.
        let bad_schema = rendered.replace(SCHEMA, "fun3d.metrics.v1");
        assert!(check_snapshot(&Json::parse(&bad_schema).unwrap()).is_err());
        let bad_count = rendered.replace("\"count\":4", "\"count\":40");
        assert_ne!(bad_count, rendered);
        assert!(check_snapshot(&Json::parse(&bad_count).unwrap()).is_err());
        let (lo, hi) = bucket_bounds(bucket_of(1_000).unwrap());
        let bucket = format!("[{lo},{hi},1]");
        assert!(rendered.contains(&bucket), "{bucket} in {rendered}");
        let negative = rendered.replace(&bucket, &format!("[{lo},{hi},-1]"));
        let err = check_snapshot(&Json::parse(&negative).unwrap()).expect_err("a negative count");
        assert!(err.contains("not positive"), "{err}");
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

/// Model check for the metrics histogram shard's single-writer
/// publication protocol. Compiled only under `--cfg fun3d_check`,
/// where [`HistShard`]'s bucket and count atomics are fun3d-check's
/// tracked types.
///
/// The shard inverts the telemetry ring's discipline: relaxed bucket
/// increments, one Release count increment, and a collector that
/// Acquire-loads the count *first*, then the buckets relaxed. The
/// invariant a live `{"cmd":"stats"}` reply rests on is that the
/// buckets account for at least every published record — a collector
/// can over-read (racing increments it never Acquired), never
/// under-read. The positive model lets the checker try every
/// interleaving of a writer/collector pair; the mutant downgrades the
/// count publication to `Relaxed` and the checker must find the
/// schedule where the Acquire handshake is satisfied but the bucket
/// store is not yet visible — a live quantile computed from a record
/// that is not there.
#[cfg(all(test, fun3d_check))]
mod model {
    use super::HistShard;
    use fun3d_check::shim::{spin_hint, AtomicU64, Ordering};
    use fun3d_check::{explore, thread, Config, FailureKind};
    use std::sync::Arc;

    impl HistShard {
        /// Writer: records directly into bucket `i`, the protocol
        /// skeleton without the value→bucket mapping.
        fn record_bucket(&self, i: usize) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Release);
        }
    }

    fn cfg() -> Config {
        Config {
            max_threads: 4,
            preemption_bound: Some(2),
            max_schedules: 400_000,
            history: 3,
        }
    }

    #[test]
    fn concurrent_read_never_undercounts_published_records() {
        // Writer records into two buckets while the collector reads
        // concurrently; afterwards a quiescent (join-ordered) read checks
        // the totals exactly. Mid-flight, whatever count the collector
        // Acquired must already be covered by the bucket sums it then
        // loads: `sum(buckets) >= count` is what makes a snapshot's
        // quantile ranks real records rather than speculation.
        let report = explore(&cfg(), || {
            let shard = Arc::new(HistShard::with_buckets(2));
            let s2 = Arc::clone(&shard);
            let writer = thread::spawn(move || {
                s2.record_bucket(0);
                s2.record_bucket(1);
                s2.record_bucket(0);
            });
            let (count, buckets) = shard.read();
            let total: u64 = buckets.iter().sum();
            assert!(
                total >= count,
                "collector undercounted: count {count}, buckets sum {total}"
            );
            assert!(count <= 3 && total <= 3);
            writer.join();
            let (count, buckets) = shard.read();
            assert_eq!(count, 3);
            assert_eq!(buckets, vec![2, 1]);
        });
        eprintln!(
            "explored {} schedules (exhaustive: {})",
            report.schedules, report.exhaustive
        );
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhaustive, "budget too small: {}", report.schedules);
        assert!(report.schedules >= 2);
    }

    #[test]
    fn two_collectors_agree_with_one_writer() {
        // Two connections' `stats` requests can snapshot the same shard
        // at once: two concurrent readers, one writer. Each reader
        // independently must see buckets covering its Acquired count.
        let report = explore(&cfg(), || {
            let shard = Arc::new(HistShard::with_buckets(1));
            let s2 = Arc::clone(&shard);
            let writer = thread::spawn(move || {
                s2.record_bucket(0);
                s2.record_bucket(0);
            });
            let s3 = Arc::clone(&shard);
            let reader = thread::spawn(move || {
                let (count, buckets) = s3.read();
                assert!(buckets[0] >= count, "reader 2 undercounted");
            });
            let (count, buckets) = shard.read();
            assert!(buckets[0] >= count, "reader 1 undercounted");
            writer.join();
            reader.join();
            let (count, buckets) = shard.read();
            assert_eq!((count, buckets[0]), (2, 2));
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhaustive, "budget too small: {}", report.schedules);
    }

    #[test]
    fn relaxed_count_publication_is_caught() {
        // Mutant skeleton of `HistShard::record` with the count increment
        // downgraded to Relaxed: one bucket word stands in for the 2432.
        // The checker must find the schedule where the collector's Acquire
        // count load observes the increment but the relaxed bucket store
        // is not yet visible — the undercount the Release edge forbids.
        let report = explore(&cfg(), || {
            let bucket = Arc::new(AtomicU64::new(0));
            let count = Arc::new(AtomicU64::new(0));
            let (b2, c2) = (Arc::clone(&bucket), Arc::clone(&count));
            let writer = thread::spawn(move || {
                b2.fetch_add(1, Ordering::Relaxed);
                c2.fetch_add(1, Ordering::Relaxed); // BUG: record() uses Release
            });
            while count.load(Ordering::Acquire) != 1 {
                spin_hint();
            }
            let b = bucket.load(Ordering::Relaxed);
            assert!(b >= 1, "collector saw published count without its record");
            writer.join();
        });
        let f = report.failure.expect("checker must catch the relaxed count");
        assert_eq!(f.kind, FailureKind::Panic, "{}", f.message);
        assert!(!f.schedule.is_empty());
    }
}
