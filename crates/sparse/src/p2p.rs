//! Sparsified point-to-point synchronization (Park et al. [26]).
//!
//! Rows are assigned to threads in contiguous, nnz-balanced chunks; each
//! thread processes its rows in order and publishes a per-thread progress
//! counter. A row that reads a row owned by another thread must wait for
//! that thread's counter to pass the producer's position. Two
//! sparsifications shrink the synchronization:
//!
//! 1. **per-thread aggregation** — waiting for position `p` of thread `t`
//!    implies every earlier row of `t` is done, so only the *maximum*
//!    needed position per producer thread is waited on;
//! 2. **transitive reduction over program order** — a thread's rows
//!    execute in order, so a wait already performed by an earlier row of
//!    the same thread never needs repeating.
//!
//! Together these remove the per-level barriers (and most of the waits)
//! of level scheduling; the number of surviving waits is exposed for the
//! machine model.

use crate::block;
use crate::ilu::IluFactors;
use crate::Bcsr4;
use fun3d_threads::{TeamSlice, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One row's task in a thread's program: the row id and the (sparsified)
/// waits that must complete first.
#[derive(Clone, Debug)]
pub struct RowTask {
    /// The row to process.
    pub row: u32,
    /// `(producer thread, position)` pairs: wait until the producer's
    /// progress counter is `> position`.
    pub waits: Vec<(u32, u32)>,
}

/// A P2P schedule for one triangular sweep direction.
#[derive(Clone, Debug)]
pub struct P2pSchedule {
    /// Per-thread ordered task lists.
    pub tasks: Vec<Vec<RowTask>>,
    /// Owning thread of each row.
    pub owner: Vec<u32>,
    /// Position of each row within its owner's program.
    pub position: Vec<u32>,
    /// Total waits after sparsification.
    pub nwaits: usize,
    /// Total cross-thread dependency edges before sparsification.
    pub raw_cross_deps: usize,
}

impl P2pSchedule {
    /// Builds the forward-sweep schedule from the `L` pattern: row `i`
    /// depends on the columns of `L` row `i`.
    pub fn forward(l: &Bcsr4, nthreads: usize) -> P2pSchedule {
        let n = l.nrows();
        let order: Vec<u32> = (0..n as u32).collect();
        Self::build(n, nthreads, &order, |i| {
            l.col_idx[l.row_ptr[i]..l.row_ptr[i + 1]].iter().copied()
        })
    }

    /// Builds the backward-sweep schedule from the `U` pattern: rows are
    /// processed in descending order and row `i` depends on the columns of
    /// `U` row `i` (all `> i`).
    pub fn backward(u: &Bcsr4, nthreads: usize) -> P2pSchedule {
        let n = u.nrows();
        let order: Vec<u32> = (0..n as u32).rev().collect();
        Self::build(n, nthreads, &order, |i| {
            u.col_idx[u.row_ptr[i]..u.row_ptr[i + 1]].iter().copied()
        })
    }

    /// `order` is the global processing order (a topological order of the
    /// dependency DAG); contiguous chunks of it go to each thread.
    fn build<I>(
        n: usize,
        nthreads: usize,
        order: &[u32],
        deps: impl Fn(usize) -> I,
    ) -> P2pSchedule
    where
        I: Iterator<Item = u32>,
    {
        assert!(nthreads >= 1);
        // nnz-balanced contiguous chunking of the processing order.
        let weights: Vec<usize> = order
            .iter()
            .map(|&r| 1 + deps(r as usize).count())
            .collect();
        let chunks = balanced_chunks(&weights, nthreads);

        let mut owner = vec![0u32; n];
        let mut position = vec![0u32; n];
        for (t, range) in chunks.iter().enumerate() {
            for (pos, idx) in range.clone().enumerate() {
                let row = order[idx] as usize;
                owner[row] = t as u32;
                position[row] = pos as u32;
            }
        }

        let mut tasks: Vec<Vec<RowTask>> = vec![Vec::new(); nthreads];
        let mut nwaits = 0usize;
        let mut raw_cross = 0usize;
        for (t, range) in chunks.iter().enumerate() {
            // last position of each producer thread already waited for
            let mut last_waited = vec![-1i64; nthreads];
            for idx in range.clone() {
                let row = order[idx] as usize;
                // max needed position per producer thread for this row
                let mut needed = vec![-1i64; nthreads];
                for d in deps(row) {
                    let pt = owner[d as usize] as usize;
                    if pt != t {
                        raw_cross += 1;
                        needed[pt] = needed[pt].max(position[d as usize] as i64);
                    }
                }
                let mut waits = Vec::new();
                for (pt, &p) in needed.iter().enumerate() {
                    if p > last_waited[pt] {
                        waits.push((pt as u32, p as u32));
                        last_waited[pt] = p;
                        nwaits += 1;
                    }
                }
                tasks[t].push(RowTask {
                    row: row as u32,
                    waits,
                });
            }
        }
        P2pSchedule {
            tasks,
            owner,
            position,
            nwaits,
            raw_cross_deps: raw_cross,
        }
    }

    /// Number of threads.
    pub fn nthreads(&self) -> usize {
        self.tasks.len()
    }

    /// Fraction of raw cross-thread dependencies eliminated by the
    /// sparsification (0 when there were none).
    pub fn sparsification_ratio(&self) -> f64 {
        if self.raw_cross_deps == 0 {
            0.0
        } else {
            1.0 - self.nwaits as f64 / self.raw_cross_deps as f64
        }
    }
}

/// Splits indices `0..weights.len()` into `k` contiguous chunks with
/// near-equal total weight.
fn balanced_chunks(weights: &[usize], k: usize) -> Vec<std::ops::Range<usize>> {
    let total: usize = weights.iter().sum();
    let mut out = Vec::with_capacity(k);
    let mut start = 0usize;
    let mut acc = 0usize;
    let mut consumed = 0usize;
    for t in 0..k {
        let remaining_chunks = k - t;
        let target = (total - consumed + remaining_chunks - 1) / remaining_chunks;
        let mut end = start;
        while end < weights.len() && (acc < target || remaining_chunks == 1) {
            acc += weights[end];
            end += 1;
        }
        // Leave enough rows for the remaining chunks when possible.
        let max_end = weights.len().saturating_sub(remaining_chunks - 1);
        if end > max_end && max_end > start {
            while end > max_end {
                end -= 1;
                acc -= weights[end];
            }
        }
        out.push(start..end);
        consumed += acc;
        acc = 0;
        start = end;
    }
    debug_assert_eq!(start, weights.len());
    out
}

/// Per-thread progress counters for the P2P protocol. One instance may
/// be reused across sweeps: each thread resets **its own** counter and a
/// barrier must separate the resets from the first wait of the sweep.
pub struct P2pProgress {
    counters: Vec<AtomicUsize>,
}

impl P2pProgress {
    /// Fresh counters (all zero) for `nthreads` producers.
    pub fn new(nthreads: usize) -> P2pProgress {
        P2pProgress {
            counters: (0..nthreads).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Number of producer threads.
    pub fn nthreads(&self) -> usize {
        self.counters.len()
    }

    /// Resets this thread's counter. Call from every team member, then
    /// cross a barrier before the sweep begins.
    pub fn reset_mine(&self, tid: usize) {
        self.counters[tid].store(0, Ordering::Relaxed);
    }

    /// Resets every counter. Call between regions: the launch of the
    /// sweep's region orders the stores before its first wait.
    pub fn reset(&self) {
        (0..self.nthreads()).for_each(|tid| self.reset_mine(tid));
    }

    /// Acquire-spins until producer `pt`'s counter passes `pos`.
    fn wait_for(&self, pt: usize, pos: usize) {
        let target = pos + 1;
        let cell = &self.counters[pt];
        let mut spins = 0u32;
        while cell.load(Ordering::Acquire) < target {
            spins = spins.wrapping_add(1);
            if spins % 64 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Publishes one more completed row for this thread.
    fn publish(&self, tid: usize) {
        self.counters[tid].fetch_add(1, Ordering::Release);
    }
}

/// P2P forward sweep slice for one member of an already-running SPMD
/// region. `progress` must be zeroed (fresh, or `reset_mine` + barrier)
/// on entry. `b` and `y` may alias: row `i`'s input is read before its
/// output is stored.
pub fn forward_p2p_team(
    f: &IluFactors,
    b: TeamSlice,
    y: TeamSlice,
    tid: usize,
    sched: &P2pSchedule,
    progress: &P2pProgress,
) {
    for task in &sched.tasks[tid] {
        for &(pt, pos) in &task.waits {
            progress.wait_for(pt as usize, pos as usize);
        }
        let i = task.row as usize;
        // SAFETY: row i is owned by this thread; b[i] is never written
        // during the sweep (in-place aliasing reads before the store).
        let mut acc: [f64; 4] = unsafe { *(b.as_ptr().add(i * 4) as *const [f64; 4]) };
        for k in f.l.row_ptr[i]..f.l.row_ptr[i + 1] {
            let j = f.l.col_idx[k] as usize;
            // SAFETY: producer write ordered by the Acquire spin above
            // (or same-thread program order).
            let xj: &[f64; 4] = unsafe { &*(y.as_ptr().add(j * 4) as *const [f64; 4]) };
            block::matvec_sub_simd(f.l.block(k), xj, &mut acc);
        }
        // SAFETY: each row written by exactly one thread.
        unsafe { std::ptr::copy_nonoverlapping(acc.as_ptr(), y.as_ptr().add(i * 4), 4) };
        progress.publish(tid);
    }
}

/// P2P backward sweep slice for one member of an already-running SPMD
/// region. Same contract as [`forward_p2p_team`].
pub fn backward_p2p_team(
    f: &IluFactors,
    y: TeamSlice,
    x: TeamSlice,
    tid: usize,
    sched: &P2pSchedule,
    progress: &P2pProgress,
) {
    for task in &sched.tasks[tid] {
        for &(pt, pos) in &task.waits {
            progress.wait_for(pt as usize, pos as usize);
        }
        let i = task.row as usize;
        // SAFETY: row ownership as in the forward sweep.
        let mut acc: [f64; 4] = unsafe { *(y.as_ptr().add(i * 4) as *const [f64; 4]) };
        for k in f.u.row_ptr[i]..f.u.row_ptr[i + 1] {
            let j = f.u.col_idx[k] as usize;
            // SAFETY: ordered by Acquire spin or program order.
            let xj: &[f64; 4] = unsafe { &*(x.as_ptr().add(j * 4) as *const [f64; 4]) };
            block::matvec_sub_simd(f.u.block(k), xj, &mut acc);
        }
        let mut out = [0.0f64; 4];
        block::matvec_acc(f.dinv_block(i), &acc, &mut out);
        // SAFETY: unique row ownership.
        unsafe { std::ptr::copy_nonoverlapping(out.as_ptr(), x.as_ptr().add(i * 4), 4) };
        progress.publish(tid);
    }
}

/// Executes a P2P-scheduled forward sweep on `progress` counters the
/// caller keeps between sweeps (zeroed here, before the region starts).
pub fn forward_p2p(
    f: &IluFactors,
    b: &[f64],
    y: &mut [f64],
    pool: &ThreadPool,
    sched: &P2pSchedule,
    progress: &P2pProgress,
) {
    assert_eq!(pool.size(), sched.nthreads());
    progress.reset();
    let bp = TeamSlice::from_raw(b.as_ptr() as *mut f64, b.len());
    let yp = TeamSlice::new(y);
    pool.run(|tid| forward_p2p_team(f, bp, yp, tid, sched, progress));
}

/// Executes a P2P-scheduled backward sweep; `progress` as in
/// [`forward_p2p`].
pub fn backward_p2p(
    f: &IluFactors,
    y: &[f64],
    x: &mut [f64],
    pool: &ThreadPool,
    sched: &P2pSchedule,
    progress: &P2pProgress,
) {
    assert_eq!(pool.size(), sched.nthreads());
    progress.reset();
    let yp = TeamSlice::from_raw(y.as_ptr() as *mut f64, y.len());
    let xp = TeamSlice::new(x);
    pool.run(|tid| backward_p2p_team(f, yp, xp, tid, sched, progress));
}

/// Full P2P preconditioner application `x = (LU)⁻¹ b` into
/// caller-provided buffers, as [`crate::trsv::solve_into`]: `scratch`
/// receives the forward sweep and each sweep reuses its `progress`
/// counters, so nothing is allocated per application.
#[allow(clippy::too_many_arguments)]
pub fn solve_p2p_into(
    f: &IluFactors,
    b: &[f64],
    pool: &ThreadPool,
    (fwd, fwd_progress): (&P2pSchedule, &P2pProgress),
    (bwd, bwd_progress): (&P2pSchedule, &P2pProgress),
    scratch: &mut [f64],
    x: &mut [f64],
) {
    forward_p2p(f, b, scratch, pool, fwd, fwd_progress);
    backward_p2p(f, scratch, x, pool, bwd, bwd_progress);
}

/// [`solve_p2p_into`] with fresh buffers and fresh progress counters.
pub fn solve_p2p(
    f: &IluFactors,
    b: &[f64],
    pool: &ThreadPool,
    fwd: &P2pSchedule,
    bwd: &P2pSchedule,
) -> Vec<f64> {
    let fwd = (fwd, &P2pProgress::new(fwd.nthreads()));
    let bwd = (bwd, &P2pProgress::new(bwd.nthreads()));
    let mut y = vec![0.0; b.len()];
    let mut x = vec![0.0; b.len()];
    solve_p2p_into(f, b, pool, fwd, bwd, &mut y, &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ilu, trsv};

    fn mesh_factors(seed: u64) -> IluFactors {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(seed);
        ilu::ilu0(&a)
    }

    #[test]
    fn schedule_covers_all_rows_once() {
        let f = mesh_factors(41);
        for nt in [1usize, 3, 4] {
            let s = P2pSchedule::forward(&f.l, nt);
            let mut seen = vec![false; f.nrows()];
            for t in &s.tasks {
                for task in t {
                    assert!(!seen[task.row as usize]);
                    seen[task.row as usize] = true;
                }
            }
            assert!(seen.iter().all(|&x| x));
        }
    }

    #[test]
    fn waits_respect_dependencies() {
        // Every cross-thread dependency must be covered by some wait with
        // position >= the producer's position.
        let f = mesh_factors(42);
        let nt = 4;
        let s = P2pSchedule::forward(&f.l, nt);
        for (t, tasks) in s.tasks.iter().enumerate() {
            let mut waited = vec![-1i64; nt];
            for task in tasks {
                for &(pt, pos) in &task.waits {
                    waited[pt as usize] = waited[pt as usize].max(pos as i64);
                }
                let i = task.row as usize;
                for k in f.l.row_ptr[i]..f.l.row_ptr[i + 1] {
                    let j = f.l.col_idx[k] as usize;
                    let pt = s.owner[j] as usize;
                    if pt != t {
                        assert!(
                            waited[pt] >= s.position[j] as i64,
                            "row {i} dep {j} not covered"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sparsification_reduces_waits() {
        let f = mesh_factors(43);
        let s = P2pSchedule::forward(&f.l, 4);
        assert!(s.nwaits <= s.raw_cross_deps);
        if s.raw_cross_deps > 0 {
            assert!(
                s.sparsification_ratio() > 0.3,
                "expected substantial reduction, got {}",
                s.sparsification_ratio()
            );
        }
    }

    #[test]
    fn p2p_solve_matches_serial() {
        let f = mesh_factors(44);
        let n = f.nrows() * 4;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let serial = trsv::solve(&f, &b);
        for nt in [1usize, 2, 4] {
            let pool = ThreadPool::new(nt);
            let fwd = P2pSchedule::forward(&f.l, nt);
            let bwd = P2pSchedule::backward(&f.u, nt);
            let par = solve_p2p(&f, &b, &pool, &fwd, &bwd);
            assert_eq!(serial, par, "nt={nt} must be bitwise identical");
        }
    }

    #[test]
    fn balanced_chunks_cover_and_balance() {
        let w = vec![1usize; 100];
        let chunks = balanced_chunks(&w, 7);
        assert_eq!(chunks.len(), 7);
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, 100);
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 2);
    }

    #[test]
    fn balanced_chunks_weighted() {
        // One heavy item early: later chunks get more items.
        let mut w = vec![1usize; 20];
        w[0] = 50;
        let chunks = balanced_chunks(&w, 4);
        assert_eq!(chunks[0].len(), 1, "heavy head isolated: {chunks:?}");
        assert_eq!(chunks.last().unwrap().end, 20);
    }

    #[test]
    fn backward_schedule_positions_descend() {
        let f = mesh_factors(45);
        let s = P2pSchedule::backward(&f.u, 3);
        for tasks in &s.tasks {
            for pair in tasks.windows(2) {
                assert!(pair[0].row > pair[1].row, "backward order must descend");
            }
        }
    }
}
