//! Hash-keyed cross-solve cache for expensive solver artifacts.
//!
//! `OptConfig::ilu_lag` already amortizes ILU factorization *within* one
//! solve by freezing the preconditioner for several pseudo-time steps.
//! This module generalizes the idea *across* solves: the first ILU
//! factors of a ΨTC run are fully determined by what the first build
//! reads — the mesh, the ILU fill and `dt0`, since that build always
//! happens at `dt = dt0` on the free-stream state and the Jacobian reads
//! neither the limiter, the gradients nor the lag — so a later request
//! with the same three can seed its preconditioner from a previous run's
//! factors bitwise-identically instead of re-assembling and re-factoring.
//!
//! [`KeyedCache`] itself is artifact-agnostic; values travel as `Arc<V>`
//! so a hit is a pointer clone, and hit/miss/insert/evict counters are
//! atomics readable while other threads keep using the cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counters describing cache behaviour over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Values stored (including overwrites of an existing key).
    pub insertions: u64,
    /// Values displaced by the capacity bound.
    pub evictions: u64,
}

/// A bounded LRU map from `u64` keys (callers hash their request
/// signature) to shared artifacts.
pub struct KeyedCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

struct Inner<V> {
    map: HashMap<u64, Entry<V>>,
    /// Logical clock for LRU ordering; bumped on every touch.
    clock: u64,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

impl<V> KeyedCache<V> {
    /// A cache holding at most `capacity` values (`capacity == 0` is a
    /// valid always-miss cache).
    pub fn new(capacity: usize) -> KeyedCache<V> {
        KeyedCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks the key up, refreshing its LRU position on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a value, evicting the least-recently-used entry when the
    /// capacity bound is hit. A zero-capacity cache drops the value.
    pub fn insert(&self, key: u64, value: Arc<V>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value,
                last_used: clock,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently resident.
    // No caller asks for emptiness, so there is no `is_empty` to pair with.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_counters() {
        let cache: KeyedCache<u32> = KeyedCache::new(4);
        assert!(cache.get(1).is_none());
        cache.insert(1, Arc::new(10));
        assert_eq!(*cache.get(1).unwrap(), 10);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache: KeyedCache<u32> = KeyedCache::new(2);
        cache.insert(1, Arc::new(1));
        cache.insert(2, Arc::new(2));
        cache.get(1); // touch 1 so 2 is now coldest
        cache.insert(3, Arc::new(3));
        assert!(cache.get(2).is_none(), "coldest entry must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let cache: KeyedCache<u32> = KeyedCache::new(0);
        cache.insert(1, Arc::new(1));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn overwrite_keeps_len_and_counts_insertion() {
        let cache: KeyedCache<u32> = KeyedCache::new(2);
        cache.insert(1, Arc::new(1));
        cache.insert(1, Arc::new(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.get(1).unwrap(), 2);
        assert_eq!(cache.stats().insertions, 2);
        assert_eq!(cache.stats().evictions, 0);
    }
}
