//! Cross-request artifact caching.
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
//!   each team caches the apps it built, and the bounded,
//!   scan-resistant LRU keeps a team's resident set small — an app
//!   never reused goes before any reused one, so a stream of one-off
//!   requests cycles through one slot instead of evicting the hot set.
//!   Reuse is bitwise-identical to a fresh build (pinned by
//!   `fun3d-core`'s `reuse_and_factor_seed_are_bitwise_identical`
//!   test).
//! * **Mesh artifacts** (`fun3d_core::MeshArtifacts`: dual metrics,
//!   edge geometry, boundary table, volumes, half-edges, Jacobian
//!   pattern) live in the apps, not in a cache of their own. A cold app
//!   on a mesh that one of its team's resident apps already uses shares
//!   that app's artifacts through an `Arc`
//!   ([`TeamAppCache::resident_on`], `Fun3dApp::sharing_mesh`) and
//!   builds only its shape's own parts; the artifacts live exactly as
//!   long as some cached app holds them.
//! * **First ILU factors** (a process-wide
//!   [`KeyedCache`]`<IluFactors>`): factors are plain `Send + Sync`
//!   data, so every team shares one cache keyed by
//!   [`crate::SolveRequest::factor_key`] — mesh, ILU fill and `dt0`,
//!   what the first build reads — so one entry serves every shape that
//!   differs only in limiter, gradients or lag: `ilu_lag` generalized
//!   across requests.
//!
//! All counters aggregate into one [`CacheCounters`] so the service can
//! report hit rates over all teams. A capacity of 0 makes a layer an
//! always-miss cache (`ServeConfig::{app_cache_per_team,
//! factor_cache_cap}`).

use fun3d_core::Fun3dApp;
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::{CacheStats, KeyedCache};
use fun3d_sparse::IluFactors;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide cache counters: the app layer's atomics (fed by every
/// team) plus the shared factor cache itself.
pub struct CacheCounters {
    app_hits: AtomicU64,
    app_misses: AtomicU64,
    app_insertions: AtomicU64,
    app_evictions: AtomicU64,
    /// The shared first-factor cache.
    pub factors: KeyedCache<IluFactors>,
}

impl CacheCounters {
    /// Counters plus a factor cache bounded to `factor_cap` entries.
    pub(crate) fn new(factor_cap: usize) -> CacheCounters {
        CacheCounters {
            app_hits: AtomicU64::new(0),
            app_misses: AtomicU64::new(0),
            app_insertions: AtomicU64::new(0),
            app_evictions: AtomicU64::new(0),
            factors: KeyedCache::new(factor_cap),
        }
    }

    /// Aggregated snapshot of both layers.
    pub(crate) fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            app: CacheStats {
                hits: self.app_hits.load(Ordering::Relaxed),
                misses: self.app_misses.load(Ordering::Relaxed),
                insertions: self.app_insertions.load(Ordering::Relaxed),
                evictions: self.app_evictions.load(Ordering::Relaxed),
            },
            factor: self.factors.stats(),
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

/// Bounded, scan-resistant LRU of prepared apps, owned by one dispatcher
/// thread. Entries are *taken out* while a job runs (the job holds `&mut`
/// on the app) and put back afterwards, so the cache never aliases a live
/// solve.
pub(crate) struct TeamAppCache {
    entries: Vec<Entry>,
    capacity: usize,
    clock: u64,
}

struct Entry {
    key: u64,
    /// The mesh the app was built on.
    mesh: MeshPreset,
    app: Fun3dApp,
    last_used: u64,
    /// The app has served a request since it was built.
    reused: bool,
}

impl TeamAppCache {
    /// A cache holding at most `capacity` prepared apps (0 disables).
    pub(crate) fn new(capacity: usize) -> TeamAppCache {
        TeamAppCache {
            entries: Vec::new(),
            capacity,
            clock: 0,
        }
    }

    /// Removes and returns the app for `key`, counting hit/miss into
    /// the shared counters.
    pub(crate) fn take(&mut self, key: u64, counters: &CacheCounters) -> Option<Fun3dApp> {
        match self.entries.iter().position(|e| e.key == key) {
            Some(pos) => {
                counters.app_hits.fetch_add(1, Ordering::Relaxed);
                Some(self.entries.swap_remove(pos).app)
            }
            None => {
                counters.app_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// A resident app on `mesh`, whose mesh artifacts a cold app on the
    /// same mesh can share (`Fun3dApp::sharing_mesh`). Looking counts
    /// nothing: it is part of an app miss.
    pub(crate) fn resident_on(&self, mesh: MeshPreset) -> Option<&Fun3dApp> {
        self.entries.iter().find(|e| e.mesh == mesh).map(|e| &e.app)
    }

    /// Returns an app built on `mesh` to the cache — `reused` if it came
    /// from [`TeamAppCache::take`] — or stores a freshly built one. Past
    /// capacity it evicts the least-recently-used app that was never
    /// reused, and only if every app was, the least-recently-used one.
    pub(crate) fn put(
        &mut self,
        key: u64,
        mesh: MeshPreset,
        app: Fun3dApp,
        reused: bool,
        counters: &CacheCounters,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        // Same-key duplicates can't happen (take removes), but keep the
        // invariant anyway if a caller puts without taking.
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
                counters.app_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.entries.push(Entry {
            key,
            mesh,
            app,
            last_used: self.clock,
            reused,
        });
        counters.app_insertions.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_core::{FlowConditions, OptConfig};

    impl TeamAppCache {
        /// Prepared apps currently resident.
        fn len(&self) -> usize {
            self.entries.len()
        }

        /// The resident app for `key`, without counting a lookup.
        pub(crate) fn peek(&self, key: u64) -> Option<&Fun3dApp> {
            self.entries.iter().find(|e| e.key == key).map(|e| &e.app)
        }
    }

    fn tiny_app() -> Fun3dApp {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        Fun3dApp::new(mesh, FlowConditions::default(), OptConfig::baseline())
    }

    #[test]
    fn take_put_cycle_counts_and_evicts() {
        let counters = CacheCounters::new(4);
        let mut cache = TeamAppCache::new(1);
        assert!(cache.take(1, &counters).is_none());
        cache.put(1, MeshPreset::Tiny, tiny_app(), false, &counters);
        let app = cache.take(1, &counters).expect("hit");
        assert_eq!(cache.len(), 0, "taken apps leave the cache");
        cache.put(1, MeshPreset::Tiny, app, true, &counters);
        cache.put(2, MeshPreset::Tiny, tiny_app(), false, &counters); // evicts key 1, the only one
        assert!(cache.take(1, &counters).is_none());
        assert!(cache.take(2, &counters).is_some());
        let s = counters.snapshot().app;
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!((s.insertions, s.evictions), (3, 1));
    }

    #[test]
    fn one_off_apps_are_evicted_before_reused_ones() {
        // A hot set of two reused apps and a stream of one-off apps
        // through a cache of three: each one-off evicts the one before
        // it, never a hot app — even the least recently used one.
        let counters = CacheCounters::new(4);
        let mut cache = TeamAppCache::new(3);
        for key in [1, 2] {
            cache.put(key, MeshPreset::Tiny, tiny_app(), false, &counters);
            let app = cache.take(key, &counters).expect("just stored");
            cache.put(key, MeshPreset::Tiny, app, true, &counters);
        }
        for cold in 10..14 {
            cache.put(cold, MeshPreset::Tiny, tiny_app(), false, &counters);
            assert_eq!(cache.len(), 3);
        }
        for key in [1, 2, 13] {
            assert!(
                cache.take(key, &counters).is_some(),
                "key {key} was evicted"
            );
        }
        assert_eq!(counters.snapshot().app.evictions, 3);
    }

    #[test]
    fn zero_capacity_disables_the_layer() {
        let counters = CacheCounters::new(0);
        let mut cache = TeamAppCache::new(0);
        cache.put(1, MeshPreset::Tiny, tiny_app(), false, &counters);
        assert!(cache.take(1, &counters).is_none());
        assert_eq!(counters.snapshot().app.insertions, 0);
    }

    #[test]
    fn combined_hit_rate_spans_both_layers() {
        let counters = CacheCounters::new(4);
        let mut cache = TeamAppCache::new(2);
        cache.take(9, &counters); // app miss
        cache.put(9, MeshPreset::Tiny, tiny_app(), false, &counters);
        cache.take(9, &counters); // app hit
        counters.factors.get(1); // factor miss
        let snap = counters.snapshot();
        assert!((snap.combined_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
