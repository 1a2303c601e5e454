//! Cross-request artifact caching: one bounded cache type, [`Cache`],
//! used by both layers.
//!
//! Each artifact is keyed by what it depends on, and stored once for
//! every app that depends on the same thing:
//!
//! * **Prepared apps** ([`TeamAppCache`], one per dispatcher team):
//!   a complete `Fun3dApp` — owner-writes partitions, tilings, ILU
//!   structure, LSQ weights, P2P schedules — keyed by
//!   [`crate::SolveRequest::prep_key`] (mesh, team size, ILU fill, lag,
//!   limiter, LSQ). An app is built on its team's persistent pool
//!   (`Fun3dApp::with_pool`) and its owner-writes plan and P2P
//!   schedules are sized to that team, so instances never migrate:
//!   each team caches the apps it built, *taking* one out while a job
//!   runs on it and putting it back afterwards. Reuse is
//!   bitwise-identical to a fresh build (pinned by `fun3d-core`'s
//!   `reuse_and_factor_seed_are_bitwise_identical` test).
//! * **Mesh artifacts** (`fun3d_core::MeshArtifacts`: dual metrics,
//!   edge geometry, boundary table, volumes, half-edges, Jacobian
//!   pattern) live in the apps, not in a cache of their own. A cold app
//!   on a mesh that one of its team's resident apps already uses shares
//!   that app's artifacts through an `Arc`
//!   ([`TeamAppCache::resident_on`], `Fun3dApp::sharing_mesh`) and
//!   builds only its shape's own parts; the artifacts live exactly as
//!   long as some cached app holds them.
//! * **First ILU factors** (one process-wide `Cache<Arc<IluFactors>>`
//!   behind a `Mutex`): factors are plain `Send + Sync` data, so every
//!   team shares one cache keyed by [`crate::SolveRequest::factor_key`]
//!   — mesh, ILU fill and `dt0`, what the first build reads — so one
//!   entry serves every shape that differs only in limiter, gradients or
//!   lag: `ilu_lag` generalized across requests. A lookup clones the
//!   `Arc`, leaving the entry resident.
//!
//! Both layers evict by one rule: past capacity the least-recently-used
//! entry that was never reused goes first, and only if every entry was
//! reused, the least-recently-used one — so a stream of one-off requests
//! cycles through one slot instead of evicting the hot set. Each layer
//! counts into one [`LayerCounts`] (the app layer's is fed by every
//! team), which the service reports as a [`CacheSnapshot`]. A capacity
//! of 0 makes a layer an always-miss cache
//! (`ServeConfig::{app_cache_per_team, factor_cache_cap}`).

use fun3d_core::Fun3dApp;
use fun3d_mesh::generator::MeshPreset;
use fun3d_sparse::IluFactors;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counters describing one cache layer over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values stored (including replacements of a resident key).
    pub insertions: u64,
    /// Values displaced by the capacity bound.
    pub evictions: u64,
}

/// One layer's lifetime counters: atomics, so every cache of the layer
/// counts into them and the service reads them while the teams run.
#[derive(Default)]
pub(crate) struct LayerCounts {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl LayerCounts {
    fn lookup(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A bounded map from `u64` keys (callers hash what the value depends
/// on) to values, evicting never-reused entries first (module docs).
pub(crate) struct Cache<V> {
    entries: Vec<Entry<V>>,
    capacity: usize,
    /// Logical clock for recency; bumped on every `get` and `put`.
    clock: u64,
}

struct Entry<V> {
    key: u64,
    value: V,
    last_used: u64,
    /// The value has served a lookup since it was built.
    reused: bool,
}

impl<V> Cache<V> {
    /// A cache holding at most `capacity` values (0 disables it).
    pub(crate) fn new(capacity: usize) -> Cache<V> {
        Cache {
            entries: Vec::new(),
            capacity,
            clock: 0,
        }
    }

    /// Removes and returns the value for `key`, counting a hit or a miss.
    /// The caller puts it back with [`Cache::put`] once done with it.
    pub(crate) fn take(&mut self, key: u64, counts: &LayerCounts) -> Option<V> {
        let pos = self.entries.iter().position(|e| e.key == key);
        counts.lookup(pos.is_some());
        pos.map(|pos| self.entries.swap_remove(pos).value)
    }

    /// Stores `value` under `key` — `reused` if it has served a lookup
    /// since it was built — replacing a resident value for the key. Past
    /// capacity it evicts the least-recently-used value that was never
    /// reused, and only if every value was, the least-recently-used one.
    /// A zero-capacity cache drops the value.
    pub(crate) fn put(&mut self, key: u64, value: V, reused: bool, counts: &LayerCounts) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        self.entries.retain(|e| e.key != key);
        if self.entries.len() >= self.capacity {
            if let Some(pos) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.reused, e.last_used))
                .map(|(pos, _)| pos)
            {
                self.entries.swap_remove(pos);
                counts.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.entries.push(Entry {
            key,
            value,
            last_used: self.clock,
            reused,
        });
        counts.insertions.fetch_add(1, Ordering::Relaxed);
    }
}

impl<V: Clone> Cache<V> {
    /// A clone of the value for `key`, counting a hit or a miss. A hit
    /// leaves the value resident, marked reused and most recently used.
    pub(crate) fn get(&mut self, key: u64, counts: &LayerCounts) -> Option<V> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.iter_mut().find(|e| e.key == key);
        counts.lookup(entry.is_some());
        entry.map(|e| {
            e.last_used = clock;
            e.reused = true;
            e.value.clone()
        })
    }
}

/// One dispatcher team's prepared apps, each with the mesh it was built
/// on. Apps are taken out while a job runs (the job holds `&mut` on the
/// app) and put back afterwards, so the cache never aliases a live solve.
pub(crate) type TeamAppCache = Cache<(MeshPreset, Fun3dApp)>;

impl TeamAppCache {
    /// A resident app on `mesh`, whose mesh artifacts a cold app on the
    /// same mesh can share (`Fun3dApp::sharing_mesh`). Looking counts
    /// nothing: it is part of an app miss.
    pub(crate) fn resident_on(&self, mesh: MeshPreset) -> Option<&Fun3dApp> {
        self.entries
            .iter()
            .find(|e| e.value.0 == mesh)
            .map(|e| &e.value.1)
    }
}

/// The process-wide cache state: the app layer's counters, fed by every
/// team's [`TeamAppCache`], and the shared first-factor cache.
pub(crate) struct CacheCounters {
    pub(crate) apps: LayerCounts,
    pub(crate) factors: Mutex<Cache<Arc<IluFactors>>>,
    factor_counts: LayerCounts,
}

impl CacheCounters {
    /// App-layer counters plus a factor cache bounded to `factor_cap`
    /// entries.
    pub(crate) fn new(factor_cap: usize) -> CacheCounters {
        CacheCounters {
            apps: LayerCounts::default(),
            factors: Mutex::new(Cache::new(factor_cap)),
            factor_counts: LayerCounts::default(),
        }
    }

    /// The cached first factors for `factor_key`, if any.
    pub(crate) fn first_factors(&self, factor_key: u64) -> Option<Arc<IluFactors>> {
        let mut cache = self
            .factors
            .lock()
            .expect("a team panicked holding the factor cache");
        cache.get(factor_key, &self.factor_counts)
    }

    /// Caches a solve's first factors under `factor_key`.
    pub(crate) fn insert_first_factors(&self, factor_key: u64, factors: Arc<IluFactors>) {
        let mut cache = self
            .factors
            .lock()
            .expect("a team panicked holding the factor cache");
        cache.put(factor_key, factors, false, &self.factor_counts);
    }

    /// Point-in-time view of both layers.
    pub(crate) fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            app: self.apps.snapshot(),
            factor: self.factor_counts.snapshot(),
        }
    }
}

/// Point-in-time view of both cache layers.
#[derive(Clone, Copy, Debug)]
pub struct CacheSnapshot {
    /// Prepared-app layer (summed over all teams).
    pub app: CacheStats,
    /// Shared first-factor layer.
    pub factor: CacheStats,
}

impl CacheSnapshot {
    /// Hit rate over both layers' lookups combined — the
    /// `cache_hit_rate` of the `stats` reply.
    pub fn combined_hit_rate(&self) -> f64 {
        let hits = self.app.hits + self.factor.hits;
        let total = hits + self.app.misses + self.factor.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_core::{FlowConditions, OptConfig};

    impl<V> Cache<V> {
        /// Values currently resident.
        pub(crate) fn len(&self) -> usize {
            self.entries.len()
        }
    }

    impl TeamAppCache {
        /// The resident app for `key`, without counting a lookup.
        pub(crate) fn peek(&self, key: u64) -> Option<&Fun3dApp> {
            self.entries
                .iter()
                .find(|e| e.key == key)
                .map(|e| &e.value.1)
        }
    }

    fn tiny_app() -> (MeshPreset, Fun3dApp) {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let app = Fun3dApp::new(mesh, FlowConditions::default(), OptConfig::baseline());
        (MeshPreset::Tiny, app)
    }

    fn tally(c: &LayerCounts) -> (u64, u64, u64, u64) {
        let s = c.snapshot();
        (s.hits, s.misses, s.insertions, s.evictions)
    }

    #[test]
    fn take_put_cycle_counts_and_evicts() {
        let counts = LayerCounts::default();
        let mut cache = TeamAppCache::new(1);
        assert!(cache.take(1, &counts).is_none());
        cache.put(1, tiny_app(), false, &counts);
        let app = cache.take(1, &counts).expect("hit");
        assert_eq!(cache.len(), 0, "taken apps leave the cache");
        cache.put(1, app, true, &counts);
        cache.put(2, tiny_app(), false, &counts); // evicts key 1, the only one
        assert!(cache.take(1, &counts).is_none());
        assert!(cache.take(2, &counts).is_some());
        let s = counts.snapshot();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!((s.insertions, s.evictions), (3, 1));
    }

    #[test]
    fn one_off_apps_are_evicted_before_reused_ones() {
        // A hot set of two reused apps and a stream of one-off apps
        // through a cache of three: each one-off evicts the one before
        // it, never a hot app — even the least recently used one.
        let counts = LayerCounts::default();
        let mut cache = TeamAppCache::new(3);
        for key in [1, 2] {
            cache.put(key, tiny_app(), false, &counts);
            let app = cache.take(key, &counts).expect("just stored");
            cache.put(key, app, true, &counts);
        }
        for cold in 10..14 {
            cache.put(cold, tiny_app(), false, &counts);
            assert_eq!(cache.len(), 3);
        }
        for key in [1, 2, 13] {
            assert!(cache.take(key, &counts).is_some(), "key {key} was evicted");
        }
        assert_eq!(counts.snapshot().evictions, 3);
    }

    #[test]
    fn resident_on_finds_an_app_on_the_same_mesh_without_counting() {
        let counts = LayerCounts::default();
        let mut cache = TeamAppCache::new(2);
        assert!(cache.resident_on(MeshPreset::Tiny).is_none());
        cache.put(1, tiny_app(), false, &counts);
        assert!(cache.resident_on(MeshPreset::Tiny).is_some());
        assert!(cache.resident_on(MeshPreset::Small).is_none());
        assert_eq!(
            tally(&counts),
            (0, 0, 1, 0),
            "a mesh lookup is no hit or miss"
        );
    }

    #[test]
    fn taken_values_resist_a_scan_of_one_off_keys() {
        // The take/put protocol without apps: a value put back as reused
        // outlives any number of one-off keys, and the newest one-off is
        // what stays beside it.
        let counts = LayerCounts::default();
        let mut cache: Cache<u32> = Cache::new(2);
        cache.put(1, 10, false, &counts);
        let hot = cache.take(1, &counts).unwrap();
        cache.put(1, hot, true, &counts);
        for cold in 100..110 {
            cache.put(cold, cold as u32, false, &counts);
        }
        assert_eq!(cache.take(1, &counts), Some(10));
        assert_eq!(cache.take(109, &counts), Some(109));
        assert_eq!(tally(&counts), (3, 0, 12, 9));
    }

    #[test]
    fn a_factor_get_marks_its_entry_reused() {
        // Clone-on-hit values (the first-factor layer): a hit leaves the
        // entry resident and reused, so the one-off key goes first even
        // though it was stored after the hot one was last read.
        let counts = LayerCounts::default();
        let mut cache: Cache<Arc<u32>> = Cache::new(2);
        cache.put(1, Arc::new(1), false, &counts);
        let hot = cache.get(1, &counts).expect("hit");
        assert_eq!(cache.len(), 1, "a get leaves the entry resident");
        assert_eq!(Arc::strong_count(&hot), 2);
        cache.put(2, Arc::new(2), false, &counts); // one-off, most recent
        cache.put(3, Arc::new(3), false, &counts); // evicts 2, not 1
        assert!(
            cache.get(2, &counts).is_none(),
            "the one-off key is evicted first"
        );
        assert_eq!(cache.get(1, &counts).as_deref(), Some(&1));
        assert_eq!(cache.get(3, &counts).as_deref(), Some(&3));
        assert_eq!(tally(&counts), (3, 1, 3, 1));
    }

    #[test]
    fn hit_miss_and_counters() {
        let counts = LayerCounts::default();
        let mut cache: Cache<Arc<u32>> = Cache::new(4);
        assert!(cache.get(1, &counts).is_none());
        let value = Arc::new(10);
        cache.put(1, Arc::clone(&value), false, &counts);
        let hit = cache.get(1, &counts).expect("hit");
        assert!(Arc::ptr_eq(&hit, &value), "a hit is the cached Arc");
        let want = CacheStats {
            hits: 1,
            misses: 1,
            insertions: 1,
            evictions: 0,
        };
        assert_eq!(counts.snapshot(), want);
    }

    #[test]
    fn overwrite_keeps_len_and_counts_insertion() {
        let counts = LayerCounts::default();
        let mut cache: Cache<Arc<u32>> = Cache::new(2);
        cache.put(1, Arc::new(1), false, &counts);
        cache.put(1, Arc::new(2), false, &counts);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(1, &counts).as_deref(), Some(&2));
        assert_eq!(tally(&counts), (1, 0, 2, 0));
    }

    #[test]
    fn zero_capacity_disables_the_layer() {
        let counts = LayerCounts::default();
        let mut cache = TeamAppCache::new(0);
        cache.put(1, tiny_app(), false, &counts);
        assert!(cache.take(1, &counts).is_none());
        assert_eq!(counts.snapshot().insertions, 0);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let counts = LayerCounts::default();
        let mut cache: Cache<Arc<u32>> = Cache::new(0);
        cache.put(1, Arc::new(1), false, &counts);
        assert!(cache.get(1, &counts).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(tally(&counts), (0, 1, 0, 0));
    }

    #[test]
    fn combined_hit_rate_spans_both_layers() {
        let counters = CacheCounters::new(4);
        let mut cache = TeamAppCache::new(2);
        cache.take(9, &counters.apps); // app miss
        cache.put(9, tiny_app(), false, &counters.apps);
        cache.take(9, &counters.apps); // app hit
        counters.first_factors(1); // factor miss
        let snap = counters.snapshot();
        assert!((snap.combined_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
