//! Pool checkout/checkin for multi-tenant reuse of persistent pools.
//!
//! [`ThreadPool::run`] requires an exclusive launcher — concurrent `run`
//! calls on one pool would race on the doorbell (the pool panics on the
//! reentrancy guard). A service executing many jobs concurrently
//! therefore needs *pool handoff*, not pool sharing: a fixed set of
//! pools is created once (no churn between requests — the whole point
//! of the persistent doorbell substrate), and each job checks one out
//! for the duration of its solve, returning it on drop.
//!
//! [`PoolSet`] is that free-list: a `Mutex`-guarded set of pool indices
//! plus a `Condvar` for blocked borrowers. It also keeps the
//! *high-water* worker count — the maximum number of workers leased out
//! simultaneously — so a scheduler can prove it never exceeded its
//! configured budget (asserted in the serve tests).

use crate::pool::ThreadPool;
use std::sync::{Arc, Condvar, Mutex};

/// A fixed set of persistent [`ThreadPool`]s handed out one borrower at
/// a time. Created once, leased per job, never resized.
pub struct PoolSet {
    pools: Vec<Arc<ThreadPool>>,
    state: Mutex<FreeState>,
    available: Condvar,
}

struct FreeState {
    /// Free pool indices (LIFO: the most recently returned pool has the
    /// warmest workers).
    free: Vec<usize>,
    /// Workers currently leased out.
    leased_workers: usize,
    /// Maximum of `leased_workers` ever observed.
    high_water: usize,
}

impl PoolSet {
    /// Builds one pool per entry of `sizes` (workers each), the pools on
    /// consecutive core ranges: worker `t` of pool `i` is pinned to core
    /// `(sizes[..i].sum() + t) mod ncores`, so pools that run side by side
    /// share a core only once the set has more workers than the host has
    /// cores. An empty list is a valid set on which every checkout fails.
    pub fn new(sizes: &[usize]) -> PoolSet {
        let mut first_core = 0;
        let pools: Vec<Arc<ThreadPool>> = sizes
            .iter()
            .map(|&n| {
                let pool = ThreadPool::spawn(n, true, first_core);
                first_core += n;
                Arc::new(pool)
            })
            .collect();
        let free = (0..pools.len()).collect();
        PoolSet {
            pools,
            state: Mutex::new(FreeState {
                free,
                leased_workers: 0,
                high_water: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Largest single pool in the set.
    pub(crate) fn max_pool_size(&self) -> usize {
        self.pools.iter().map(|p| p.size()).max().unwrap_or(0)
    }

    /// Maximum number of workers that were ever leased out
    /// simultaneously. Can never exceed the sum of the pool sizes; a
    /// scheduler asserts this against its budget after a load run.
    pub fn high_water(&self) -> usize {
        self.state.lock().unwrap().high_water
    }

    /// Checks out a free pool with at least `min(want, largest)`
    /// workers, blocking until one is returned. Returns `None` only on
    /// an empty set (nothing could ever satisfy the request). The lease
    /// owns an `Arc` of the set, so it may outlive the scope holding the
    /// set (a service's dispatcher threads each check a pool out once at
    /// startup and keep it for the thread's lifetime).
    pub fn checkout_owned(self: &Arc<Self>, want: usize) -> Option<OwnedPoolLease> {
        if self.pools.is_empty() {
            return None;
        }
        let want = want.min(self.max_pool_size());
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(pos) = self.pick(&st, want) {
                let idx = st.free.swap_remove(pos);
                st.leased_workers += self.pools[idx].size();
                st.high_water = st.high_water.max(st.leased_workers);
                return Some(OwnedPoolLease {
                    set: Arc::clone(self),
                    idx,
                });
            }
            st = self.available.wait(st).unwrap();
        }
    }

    /// Position in `free` of the best satisfying pool: the *smallest*
    /// free pool with `size >= want`, so big pools stay available for
    /// big requests.
    fn pick(&self, st: &FreeState, want: usize) -> Option<usize> {
        st.free
            .iter()
            .enumerate()
            .filter(|&(_, &idx)| self.pools[idx].size() >= want)
            .min_by_key(|&(_, &idx)| self.pools[idx].size())
            .map(|(pos, _)| pos)
    }
}

/// An exclusive borrow of one pool from a [`PoolSet`]; checks the pool
/// back in (and wakes one blocked borrower) on drop.
pub struct OwnedPoolLease {
    set: Arc<PoolSet>,
    idx: usize,
}

impl OwnedPoolLease {
    /// The leased pool. The lease guarantees exclusive `run` access.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.set.pools[self.idx]
    }
}

impl Drop for OwnedPoolLease {
    fn drop(&mut self) {
        checkin(&self.set, self.idx);
    }
}

fn checkin(set: &PoolSet, idx: usize) {
    let mut st = set.state.lock().unwrap();
    st.leased_workers -= set.pools[idx].size();
    st.free.push(idx);
    drop(st);
    set.available.notify_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn checkout_prefers_smallest_satisfying_pool() {
        let set = Arc::new(PoolSet::new(&[4, 2, 2]));
        let a = set.checkout_owned(1).unwrap();
        assert_eq!(a.pool().size(), 2);
        let b = set.checkout_owned(3).unwrap();
        assert_eq!(b.pool().size(), 4);
        assert_eq!(set.high_water(), 6);
    }

    #[test]
    fn pools_of_a_set_pin_to_consecutive_cores() {
        let set = PoolSet::new(&[2, 2, 3]);
        let cores = |ncores| -> Vec<Vec<usize>> {
            let pool_cores = |p: &Arc<ThreadPool>| (0..p.size()).map(|t| p.core_of(t, ncores)).collect();
            set.pools.iter().map(pool_cores).collect()
        };
        // Enough cores: every worker of the set on a core of its own.
        assert_eq!(cores(8), [vec![0, 1], vec![2, 3], vec![4, 5, 6]]);
        // Fewer: the ranges wrap around the host, still consecutive.
        assert_eq!(cores(4), [vec![0, 1], vec![2, 3], vec![0, 1, 2]]);
        // A pool on its own starts at core 0.
        let pool = ThreadPool::new(3);
        assert_eq!((0..3).map(|t| pool.core_of(t, 2)).collect::<Vec<_>>(), [0, 1, 0]);
    }

    #[test]
    fn oversized_requests_clamp_to_largest_pool() {
        let set = Arc::new(PoolSet::new(&[2]));
        let lease = set.checkout_owned(64).unwrap();
        assert_eq!(lease.pool().size(), 2);
        assert!(set.state.lock().unwrap().free.is_empty());
    }

    #[test]
    fn owned_lease_moves_across_threads_and_checks_in() {
        let set = Arc::new(PoolSet::new(&[2]));
        let lease = set.checkout_owned(2).unwrap();
        let h = std::thread::spawn(move || {
            lease.pool().run(&|_tid| {});
            drop(lease);
        });
        h.join().unwrap();
        assert_eq!(
            set.state.lock().unwrap().free,
            [0],
            "pool must be back in the free list"
        );
        assert_eq!(set.high_water(), 2);
    }

    #[test]
    fn empty_set_refuses() {
        let set = Arc::new(PoolSet::new(&[]));
        assert!(set.checkout_owned(1).is_none());
        assert_eq!(set.high_water(), 0);
    }

    #[test]
    fn drop_wakes_a_blocked_borrower_and_budget_holds() {
        let set = Arc::new(PoolSet::new(&[2, 2]));
        let peak = Arc::new(AtomicUsize::new(0));
        let live = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (set, peak, live) = (set.clone(), peak.clone(), live.clone());
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let lease = set.checkout_owned(2).unwrap();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        lease.pool().run(&|_tid| {
                            std::hint::spin_loop();
                        });
                        live.fetch_sub(1, Ordering::SeqCst);
                        drop(lease);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Two pools -> at most two concurrent borrowers, and the set's
        // own high-water mark stays within the configured budget.
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert_eq!(set.high_water(), 4, "two pools of two workers");
    }
}
