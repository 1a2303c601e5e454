//! Team execution context for persistent SPMD regions.
//!
//! A [`Team`] gives the threads of one pool region the collective
//! machinery an OpenMP parallel region would have: a shared
//! [`SpinBarrier`], per-thread cache-padded scratch slots, a leader
//! broadcast cell, and a deterministic [`TreeReduce`] combining
//! primitive. With these, an entire GMRES iteration (SpMV → triangular
//! solves → orthogonalization → update) runs inside **one**
//! `ThreadPool::run`, separated by barrier phases instead of region
//! boundaries — the paper's "whole solve in one parallel region"
//! restructuring.
//!
//! Reductions are **bitwise reproducible at a fixed thread count**: each
//! thread deposits its partial into its own slot, the fan-in combines the
//! slots in thread order (0, 1, …, nt−1), and the result is fanned out
//! through a broadcast cell. The combine order never depends on arrival
//! order, so repeated runs agree bit-for-bit, whichever region a
//! reduction runs in — which is what makes the persistent-region solver
//! path and its region-per-op reference produce identical histories.

use crate::barrier::SpinBarrier;
use crate::sync_shim::ShimCell;
use std::cell::UnsafeCell;

/// f64s per padding unit: slots are rounded to 64-byte lines so two
/// threads' partials never share a cache line (no reduction false
/// sharing).
const LINE_F64: usize = 8;

fn padded(width: usize) -> usize {
    width.div_ceil(LINE_F64) * LINE_F64
}

/// A borrow-erased view of an `f64` slice shared across the threads of a
/// region. The type is `Send + Sync` so a region closure can capture it;
/// every access is `unsafe` because disjointness and phase ordering are
/// the caller's contract (the same discipline as the kernels' `SendPtr`).
#[derive(Clone, Copy)]
pub struct TeamSlice {
    ptr: *mut f64,
    len: usize,
}

unsafe impl Send for TeamSlice {}
unsafe impl Sync for TeamSlice {}

impl TeamSlice {
    /// Wraps a uniquely borrowed slice. The borrow is erased: the caller
    /// must not touch `s` through any other path until the region using
    /// the view has completed.
    pub fn new(s: &mut [f64]) -> TeamSlice {
        TeamSlice {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// Wraps a raw pointer/length pair. Used for read-only shared inputs
    /// (cast from `*const`) where the team protocol guarantees no write,
    /// or for buffers whose unique borrow was erased further up the
    /// stack. The caller owns all aliasing reasoning.
    pub fn from_raw(ptr: *mut f64, len: usize) -> TeamSlice {
        TeamSlice { ptr, len }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw base pointer.
    pub fn as_ptr(&self) -> *mut f64 {
        self.ptr
    }

    /// Reads element `i`.
    ///
    /// # Safety
    /// `i < len`, and no thread may be writing `i` concurrently (order
    /// cross-thread write→read pairs with a barrier or published flag).
    #[inline]
    pub unsafe fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Writes element `i`.
    ///
    /// # Safety
    /// `i < len`, and no other thread may access `i` concurrently.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }

    /// A shared sub-slice view.
    ///
    /// # Safety
    /// In-bounds, and reads must be ordered after any cross-thread writes.
    #[inline]
    pub unsafe fn slice(&self, range: std::ops::Range<usize>) -> &[f64] {
        debug_assert!(range.end <= self.len);
        std::slice::from_raw_parts(self.ptr.add(range.start), range.len())
    }

    /// A mutable sub-slice view.
    ///
    /// # Safety
    /// In-bounds, and the range must be accessed by exactly one thread
    /// for the duration of the borrow.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [f64] {
        debug_assert!(range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }
}

/// Deterministic fan-in/fan-out reduction over per-thread partials.
///
/// Every thread writes up to `width` partials into its padded slot, the
/// fan-in barrier closes, the phase leader combines slot values **in
/// thread order** and publishes the sums, and the fan-out barrier
/// releases all threads with identical results. Two barrier crossings per
/// combine, zero allocation, and a combine order independent of thread
/// arrival — fixed-`nt` bitwise reproducibility.
pub struct TreeReduce {
    nt: usize,
    width: usize,
    stride: usize,
    slots: UnsafeCell<Box<[f64]>>,
    result: UnsafeCell<Box<[f64]>>,
    /// One zero-sized tracked tag per slot: model builds bracket each
    /// slot access through its tag so the checker sees per-slot
    /// happens-before (whole-array tracking would flag the *disjoint*
    /// slot writes as races; separate boxed slots would lose the
    /// cache-line padding). Zero bytes and fully inlined away in normal
    /// builds.
    slot_tags: Box<[ShimCell<()>]>,
    /// Tracked tag bracketing the leader's `result` writes and the
    /// fan-out reads.
    result_tag: ShimCell<()>,
}

// SAFETY: slot `tid` is written only by thread `tid` before the fan-in
// barrier; `result` is written only by the phase leader between the two
// barriers. All cross-thread reads are barrier-ordered after the writes.
unsafe impl Sync for TreeReduce {}

impl TreeReduce {
    /// A reducer for `nt` threads combining up to `width` values at once.
    pub fn new(nt: usize, width: usize) -> TreeReduce {
        assert!(nt >= 1 && width >= 1);
        let stride = padded(width);
        TreeReduce {
            nt,
            width,
            stride,
            slots: UnsafeCell::new(vec![0.0; nt * stride].into_boxed_slice()),
            result: UnsafeCell::new(vec![0.0; width].into_boxed_slice()),
            slot_tags: (0..nt).map(|_| ShimCell::new(())).collect(),
            result_tag: ShimCell::new(()),
        }
    }

    /// Maximum values combined per call.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Combines `partials` (one set per thread, `partials.len() <= width`)
    /// into thread-order sums visible to every thread in `out`.
    ///
    /// Every thread of the team must call this with the same `k =
    /// partials.len()`; the call synchronizes through `barrier` twice.
    pub fn combine(&self, tid: usize, barrier: &SpinBarrier, partials: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), partials.len());
        out.copy_from_slice(partials);
        self.combine_in_place(tid, barrier, out);
    }

    /// [`TreeReduce::combine`] with the partials replaced by the sums:
    /// `vals` goes in holding this thread's partials and comes out
    /// holding the thread-order sums.
    pub fn combine_in_place(&self, tid: usize, barrier: &SpinBarrier, vals: &mut [f64]) {
        let k = vals.len();
        assert!(k <= self.width, "combine of {k} > width {}", self.width);
        assert!(tid < self.nt);
        // SAFETY: slot `tid` is this thread's alone until the barrier.
        // The slot's tag cell brackets the write so model builds check
        // the per-slot happens-before the barrier is supposed to supply.
        self.slot_tags[tid].with_mut(|_| unsafe {
            let slots = &mut *self.slots.get();
            slots[tid * self.stride..tid * self.stride + k].copy_from_slice(vals);
        });
        if barrier.wait() {
            // Fan-in leader: thread-order sum per component.
            // SAFETY: all slot writes are ordered before this barrier;
            // only the single leader writes `result`.
            self.result_tag.with_mut(|_| unsafe {
                let slots = &*self.slots.get();
                let result = &mut *self.result.get();
                for j in 0..k {
                    let mut acc = 0.0;
                    for t in 0..self.nt {
                        acc += self.slot_tags[t].with(|_| slots[t * self.stride + j]);
                    }
                    result[j] = acc;
                }
            });
        }
        barrier.wait();
        // SAFETY: the leader's `result` write is ordered before the
        // fan-out barrier; the next `combine`'s leader write is ordered
        // after every thread re-arrives at its fan-in barrier, which is
        // after this read in each thread's program order.
        self.result_tag.with(|_| unsafe {
            let result = &*self.result.get();
            vals.copy_from_slice(&result[..k]);
        });
    }

    /// Scalar convenience form of [`TreeReduce::combine`].
    pub fn combine1(&self, tid: usize, barrier: &SpinBarrier, partial: f64) -> f64 {
        let mut out = [0.0];
        self.combine(tid, barrier, &[partial], &mut out);
        out[0]
    }
}

/// Shared collective state for the threads of one persistent region.
pub struct Team {
    nthreads: usize,
    barrier: SpinBarrier,
    reduce: TreeReduce,
    scratch_stride: usize,
    scratch: UnsafeCell<Box<[f64]>>,
    /// Tracked cell: model builds race-check the root-write /
    /// barrier / all-read broadcast protocol.
    bcast: ShimCell<f64>,
}

// SAFETY: scratch slot `tid` is only handed to thread `tid` (member
// contract below); `bcast` is written by one root thread and read after a
// barrier.
unsafe impl Sync for Team {}

impl Team {
    /// A team of `nthreads` with `scratch` f64s of per-thread scratch and
    /// reductions up to `scratch.max(1)` wide.
    pub fn new(nthreads: usize, scratch: usize) -> Team {
        let width = scratch.max(1);
        Team {
            nthreads,
            barrier: SpinBarrier::new(nthreads),
            reduce: TreeReduce::new(nthreads, width),
            scratch_stride: padded(width),
            scratch: UnsafeCell::new(vec![0.0; nthreads * padded(width)].into_boxed_slice()),
            bcast: ShimCell::new(0.0),
        }
    }

    /// Team size.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The team barrier.
    pub fn barrier(&self) -> &SpinBarrier {
        &self.barrier
    }

    /// The reduction primitive.
    pub fn reduce(&self) -> &TreeReduce {
        &self.reduce
    }

    /// This thread's view of the team.
    ///
    /// # Safety
    /// At most one live member per `tid`: the per-thread scratch slot is
    /// exclusive to the member, so two members with the same `tid` would
    /// alias mutable state.
    pub unsafe fn member(&self, tid: usize) -> TeamMember<'_> {
        assert!(tid < self.nthreads, "tid {tid} out of team of {}", self.nthreads);
        TeamMember { team: self, tid }
    }
}

/// One thread's handle on a [`Team`] (create via [`Team::member`]).
pub struct TeamMember<'a> {
    team: &'a Team,
    tid: usize,
}

impl<'a> TeamMember<'a> {
    /// This thread's id within the team.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Team size.
    pub fn nthreads(&self) -> usize {
        self.team.nthreads
    }

    /// The underlying team.
    pub fn team(&self) -> &'a Team {
        self.team
    }

    /// This thread's static chunk of `0..n`.
    pub fn chunk(&self, n: usize) -> std::ops::Range<usize> {
        crate::chunk_range(n, self.team.nthreads, self.tid)
    }

    /// Barrier phase; returns the leader flag.
    pub fn barrier(&self) -> bool {
        self.team.barrier.wait()
    }

    /// Deterministic sum of one partial per thread (two barrier phases).
    pub fn sum(&self, partial: f64) -> f64 {
        self.team.reduce.combine1(self.tid, &self.team.barrier, partial)
    }

    /// Deterministic k-way sum of per-thread partials (two barrier
    /// phases for the whole batch).
    pub fn sums(&self, partials: &[f64], out: &mut [f64]) {
        self.team
            .reduce
            .combine(self.tid, &self.team.barrier, partials, out)
    }

    /// [`TeamMember::sums`] in place: `vals` goes in holding this
    /// thread's partials and comes out holding the sums.
    pub fn sums_in_place(&self, vals: &mut [f64]) {
        self.team
            .reduce
            .combine_in_place(self.tid, &self.team.barrier, vals)
    }

    /// Broadcasts `value` from thread `root` to every thread (two
    /// barrier phases).
    pub fn broadcast(&self, root: usize, value: f64) -> f64 {
        if self.tid == root {
            // SAFETY: only the root writes, before the barrier.
            self.team.bcast.with_mut(|p| unsafe { *p = value });
        }
        self.barrier();
        // SAFETY: write ordered before the barrier; the next write to the
        // cell is ordered after every thread passes the closing barrier.
        let v = self.team.bcast.with(|p| unsafe { *p });
        self.barrier();
        v
    }

    /// This thread's exclusive scratch slot (cache-line padded).
    pub fn scratch(&mut self) -> &mut [f64] {
        let stride = self.team.scratch_stride;
        // SAFETY: slot `tid` belongs to this member alone (Team::member
        // contract) and `&mut self` prevents overlapping borrows.
        unsafe {
            let all = &mut *self.team.scratch.get();
            &mut all[self.tid * stride..(self.tid + 1) * stride]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;

    #[test]
    fn tree_reduce_matches_thread_order_sum() {
        let nt = 4;
        let pool = ThreadPool::new(nt);
        let team = Team::new(nt, 3);
        let outs = std::sync::Mutex::new(vec![vec![0.0; 3]; nt]);
        pool.run(|tid| {
            let tm = unsafe { team.member(tid) };
            let partials = [tid as f64 + 0.5, (tid * tid) as f64, -(tid as f64)];
            let mut out = vec![0.0; 3];
            tm.sums(&partials, &mut out);
            outs.lock().unwrap()[tid] = out;
        });
        let want = [
            (0..nt).map(|t| t as f64 + 0.5).sum::<f64>(),
            (0..nt).map(|t| (t * t) as f64).sum::<f64>(),
            (0..nt).map(|t| -(t as f64)).sum::<f64>(),
        ];
        for o in outs.lock().unwrap().iter() {
            assert_eq!(o.as_slice(), &want);
        }
    }

    #[test]
    fn tree_reduce_deterministic_across_repeats() {
        let nt = 3;
        let pool = ThreadPool::new(nt);
        let team = Team::new(nt, 1);
        let collect = || {
            let out = std::sync::Mutex::new(vec![0.0; nt]);
            pool.run(|tid| {
                let tm = unsafe { team.member(tid) };
                // Partials with rounding sensitivity: 0.1 is inexact.
                let s = tm.sum(0.1 * (tid as f64 + 1.0));
                out.lock().unwrap()[tid] = s;
            });
            out.into_inner().unwrap()
        };
        let a = collect();
        for _ in 0..10 {
            let b = collect();
            assert_eq!(a, b, "combine order must not depend on arrival order");
        }
        // All threads see the identical bit pattern.
        assert!(a.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn broadcast_reaches_all_threads() {
        let nt = 4;
        let pool = ThreadPool::new(nt);
        let team = Team::new(nt, 1);
        let got = std::sync::Mutex::new(vec![0.0; nt]);
        pool.run(|tid| {
            let tm = unsafe { team.member(tid) };
            for round in 0..5 {
                let root = round % nt;
                let v = tm.broadcast(root, if tid == root { root as f64 + 7.0 } else { -1.0 });
                if round == 4 {
                    got.lock().unwrap()[tid] = v;
                }
            }
        });
        assert!(got.lock().unwrap().iter().all(|&v| v == (4 % nt) as f64 + 7.0));
    }

    #[test]
    fn scratch_slots_are_disjoint() {
        let nt = 4;
        let pool = ThreadPool::new(nt);
        let team = Team::new(nt, 5);
        pool.run(|tid| {
            let mut tm = unsafe { team.member(tid) };
            for (i, s) in tm.scratch().iter_mut().enumerate() {
                *s = (tid * 100 + i) as f64;
            }
            tm.barrier();
            for (i, s) in tm.scratch().iter().enumerate().take(5) {
                assert_eq!(*s, (tid * 100 + i) as f64, "scratch overlap at tid {tid}");
            }
        });
    }

    #[test]
    fn team_slice_chunked_writes() {
        let nt = 3;
        let pool = ThreadPool::new(nt);
        let team = Team::new(nt, 1);
        let mut v = vec![0.0; 100];
        let vs = TeamSlice::new(&mut v);
        pool.run(|tid| {
            let tm = unsafe { team.member(tid) };
            let r = tm.chunk(vs.len());
            let mine = unsafe { vs.slice_mut(r.clone()) };
            for (off, x) in mine.iter_mut().enumerate() {
                *x = (r.start + off) as f64;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as f64);
        }
    }
}
