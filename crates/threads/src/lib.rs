//! Shared-memory threading runtime for the FUN3D kernels.
//!
//! This crate replaces the OpenMP runtime the paper used. It provides the
//! exact scheduling ingredients the paper's strategies need:
//!
//! * a persistent [`ThreadPool`] whose workers execute SPMD regions
//!   (`f(tid)` on every thread, like an `omp parallel` region), launched
//!   through a spin-doorbell so a region costs a few atomic ops
//!   ([`ThreadPool::with_first_core`] places a pool on a core range of
//!   its own, so pools side by side — one per serve team — do not share
//!   cores),
//! * a [`Team`] context — barrier and a deterministic [`TreeReduce`] —
//!   so whole solver iterations run inside one region separated by
//!   barrier phases,
//! * static range chunking ([`chunk_range`]) for "basic partitioning",
//! * a spinning sense-reversing [`SpinBarrier`] for level-scheduled sparse
//!   recurrences (barrier after each level),
//! * per-thread progress counters ([`P2pProgress`]) — the one hand-off
//!   primitive of the sparsified-synchronization TRSV/ILU of Park et al.
//!   [26]: single-writer, one cache line each, never reset,
//! * atomic `f64` accumulation ([`AtomicF64View`]) for the
//!   "basic partitioning with atomics" edge-loop strategy,
//! * a cfg-switched synchronization shim (`sync_shim`) — std atomics
//!   in normal builds, `fun3d-check`'s tracked atomics under
//!   `--cfg fun3d_check` — so every protocol above runs unmodified
//!   beneath the deterministic model checker.

#![deny(unreachable_pub)]

mod atomicf64;
mod barrier;
mod p2p;
mod pool;
mod probe;
mod sync_shim;
mod team;

// No production loop uses `AtomicF64View`: `tests/model_check.rs`
// model-checks it and the atomics row of the bench's flux table runs it.
pub use atomicf64::AtomicF64View;
pub use barrier::{total_crossings, SpinBarrier};
pub use p2p::{P2pProgress, P2pSweep};
pub use pool::{Bell, JobPtr, ThreadPool};
pub use probe::{process_cpu_time_ns, SyncCosts};
pub use team::{Team, TeamMember, TeamSlice, TreeReduce};

/// Schedulable cores as the OS reports them (`available_parallelism`,
/// which respects affinity masks and cgroup quotas), 1 on failure.
/// Kernels with barrier phases consult this to avoid spinning an
/// oversubscribed pool through scheduler round-trips.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `0..n` into `nthreads` near-equal contiguous chunks and returns
/// chunk `tid` as a half-open range. The first `n % nthreads` chunks get
/// one extra element, so sizes differ by at most one.
pub fn chunk_range(n: usize, nthreads: usize, tid: usize) -> std::ops::Range<usize> {
    assert!(nthreads > 0 && tid < nthreads);
    let base = n / nthreads;
    let extra = n % nthreads;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..(start + len).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_exactly() {
        for n in [0usize, 1, 7, 64, 1000, 1001] {
            for t in [1usize, 2, 3, 7, 16] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for tid in 0..t {
                    let r = chunk_range(n, t, tid);
                    assert_eq!(r.start, prev_end, "chunks must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, n);
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn chunks_balanced_within_one() {
        for n in [10usize, 11, 99] {
            let t = 4;
            let sizes: Vec<usize> = (0..t).map(|tid| chunk_range(n, t, tid).len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    #[should_panic]
    fn tid_out_of_range_panics() {
        chunk_range(10, 2, 2);
    }
}
