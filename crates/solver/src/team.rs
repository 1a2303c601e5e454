//! Team (in-region) vector primitives: the threaded forms of
//! [`crate::vecops`].
//!
//! Launching one pool region per vector operation makes the region
//! launches and their implicit full-pool rendezvous dominate at solver
//! scale (the paper's fork-join overhead). These variants instead run
//! **inside** an already-open SPMD region: every thread executes its
//! static chunk, and only the reductions synchronize (two barrier phases
//! through the team's [`TreeReduce`]). A region-per-op call is the same
//! kernel run in a region of its own.
//!
//! Bitwise contract: each op partitions `0..n` by
//! [`chunk_range`](fun3d_threads::chunk_range), calls the serial op or
//! chunk kernel of [`crate::vecops`] on its chunk, and combines
//! per-thread partials in thread order from `+0.0` — so a result's bits
//! depend on the vectors and the thread count only, not on which region
//! the op ran in. That is what lets the persistent-region GMRES
//! reproduce the region-per-op history exactly.
//!
//! Synchronization contract (callers): elementwise ops (`maxpy`, `bsub`,
//! `div_into`, `copy`) do **not** barrier — each thread only
//! touches its own chunk, and a barrier is required before any op that
//! reads another thread's chunk (SpMV, dot). Reductions (`dot`, `norm2`,
//! `mdot`) barrier internally and return the same value on every thread.
//! Vectors a region only reads (the Krylov basis) are passed as plain
//! shared borrows; [`TeamSlice`] is for the ones some thread writes.
//!
//! [`TreeReduce`]: fun3d_threads::TreeReduce

use crate::vecops;
use fun3d_simd::Isa;
use fun3d_threads::{TeamMember, TeamSlice};

/// This thread's chunk of `v`, to read.
///
/// # Safety
/// No thread writes the chunk while the borrow lives: the caller ordered
/// all earlier writes before the call (barrier or region entry).
unsafe fn chunk<'a>(tm: &TeamMember, v: &'a TeamSlice) -> &'a [f64] {
    // SAFETY: in bounds by `chunk_range`; unwritten per the contract.
    unsafe { v.slice(tm.chunk(v.len())) }
}

/// This thread's chunk of `v`, to write.
///
/// # Safety
/// As [`chunk`], and no thread reads the chunk either: it is this
/// thread's alone until the next barrier.
#[allow(clippy::mut_from_ref)]
unsafe fn chunk_mut<'a>(tm: &TeamMember, v: &'a TeamSlice) -> &'a mut [f64] {
    // SAFETY: in bounds by `chunk_range`, which hands every index to
    // exactly one thread; exclusive per the contract.
    unsafe { v.slice_mut(tm.chunk(v.len())) }
}

/// Team `<x, y>`: chunk-local partial + deterministic thread-order
/// combine. Returns the same bits on every thread; synchronizes (2
/// barrier phases).
pub(crate) fn dot(tm: &TeamMember, x: TeamSlice, y: TeamSlice) -> f64 {
    assert_eq!(x.len(), y.len());
    // SAFETY: reads of both vectors; caller ordered all writes before
    // this call (barrier), and no thread writes during it.
    let partial = unsafe { vecops::dot_chunk(Isa::detect(), chunk(tm, &x), chunk(tm, &y)) };
    tm.sum(partial)
}

/// Team 2-norm (synchronizes; identical on every thread).
pub(crate) fn norm2(tm: &TeamMember, x: TeamSlice) -> f64 {
    dot(tm, x, x).sqrt()
}

/// Team multi-dot: `out[j] = <x, ys[j]>` in a single pass over this
/// thread's chunk of `x` per block of vectors, then ONE tree combine for
/// all components (2 barrier phases total). `out` is thread-local
/// storage, sized as for [`vecops::mdot`] and no wider than the team's
/// reduction width; after the call every thread holds identical values.
pub(crate) fn mdot(tm: &TeamMember, x: TeamSlice, ys: &[Vec<f64>], out: &mut [f64]) {
    if out.is_empty() {
        return;
    }
    vecops::assert_lens(x.len(), ys);
    let lo = tm.chunk(x.len()).start;
    // SAFETY: reads only; caller ordered writes before the call.
    let x = unsafe { chunk(tm, &x) };
    vecops::mdot_chunk(Isa::detect(), x, ys, lo, out);
    tm.sums_in_place(out);
}

/// Team `y += Σ_k alpha[k]·xs[k]` on this thread's chunk, `y` traversed
/// once. No barrier.
pub(crate) fn maxpy(tm: &TeamMember, y: TeamSlice, alpha: &[f64], xs: &[Vec<f64>]) {
    vecops::assert_lens(y.len(), xs);
    let lo = tm.chunk(y.len()).start;
    // SAFETY: chunk-disjoint writes; reads ordered by caller.
    let y = unsafe { chunk_mut(tm, &y) };
    vecops::maxpy_chunk(Isa::detect(), y, lo, alpha, xs);
}

/// Team `w = b - w` in place on this thread's chunk. No barrier.
pub(crate) fn bsub(tm: &TeamMember, w: TeamSlice, b: TeamSlice) {
    assert_eq!(w.len(), b.len());
    // SAFETY: chunk-disjoint read-modify-write.
    unsafe { vecops::bsub(chunk_mut(tm, &w), chunk(tm, &b)) }
}

/// Team `dst = src / s` elementwise on this thread's chunk (division,
/// not reciprocal-multiply, to round identically to the serial path).
/// No barrier.
pub(crate) fn div_into(tm: &TeamMember, dst: TeamSlice, src: TeamSlice, s: f64) {
    assert_eq!(dst.len(), src.len());
    // SAFETY: chunk-disjoint writes.
    unsafe { vecops::div_into(chunk_mut(tm, &dst), chunk(tm, &src), s) }
}

/// Team copy `dst = src` on this thread's chunk. No barrier.
pub(crate) fn copy(tm: &TeamMember, dst: TeamSlice, src: TeamSlice) {
    assert_eq!(dst.len(), src.len());
    // SAFETY: chunk-disjoint writes; reads ordered by caller.
    unsafe { chunk_mut(tm, &dst).copy_from_slice(chunk(tm, &src)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::tests::{random_vectors, same, VECTOR_COUNTS};
    use fun3d_threads::{Team, ThreadPool};
    use fun3d_util::{prop_assert, prop_cases};
    use std::sync::Mutex;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        (x, y)
    }

    prop_cases! {
        fn team_reductions_are_thread_order_sums_of_chunk_kernels(g, cases = 12) {
            // At every thread count dot, norm2 and mdot (every
            // vector-count residue, with and without the fused <x, x>)
            // are the chunk kernels' partials added in thread order from
            // +0.0, identical on every thread; at one thread that is the
            // serial result. maxpy is the serial result at every count.
            let seed = g.u64();
            let n = g.usize_range(0, 1100);
            let isa = Isa::detect();
            for nt in [1usize, 2, 3] {
                let pool = ThreadPool::new(nt);
                let team = Team::new(nt, 33);
                let chunks: Vec<_> = (0..nt).map(|t| fun3d_threads::chunk_range(n, nt, t)).collect();
                let mut vs = random_vectors(seed, 33, n, 0);
                let (ys, rest) = vs.split_at_mut(31);
                let (x, y) = (&rest[0].clone(), &rest[1].clone());
                let (xs, y_s) = (TeamSlice::new(&mut rest[0]), TeamSlice::new(&mut rest[1]));

                for k in VECTOR_COUNTS {
                    for fused in [0, 1] {
                        let mut want = vec![0.0; k + fused];
                        for r in &chunks {
                            let mut partial = vec![0.0; k + fused];
                            vecops::mdot_chunk(isa, &x[r.clone()], &ys[..k], r.start, &mut partial);
                            want.iter_mut().zip(&partial).for_each(|(w, p)| *w += p);
                        }
                        let got = Mutex::new(vec![Vec::new(); nt]);
                        pool.run(|tid| {
                            // SAFETY: one member per tid per region.
                            let tm = unsafe { team.member(tid) };
                            let mut out = vec![0.0; k + fused];
                            mdot(&tm, xs, &ys[..k], &mut out);
                            got.lock().unwrap()[tid] = out;
                        });
                        for out in got.lock().unwrap().iter() {
                            prop_assert!(same(out, &want), "mdot nt={nt} n={n} k={k} fused={fused}");
                        }
                        if nt == 1 {
                            let mut serial = vec![0.0; k + fused];
                            vecops::mdot(x, &ys[..k], &mut serial);
                            prop_assert!(same(&serial, &want), "serial mdot n={n} k={k} fused={fused}");
                        }
                    }
                    let alpha = &random_vectors(seed ^ 1, 1, k, 0)[0];
                    let mut want = y.clone();
                    vecops::maxpy(&mut want, alpha, &ys[..k]);
                    let mut got = y.clone();
                    let got_s = TeamSlice::new(&mut got);
                    pool.run(|tid| {
                        // SAFETY: one member per tid per region.
                        let tm = unsafe { team.member(tid) };
                        maxpy(&tm, got_s, alpha, &ys[..k]);
                    });
                    prop_assert!(same(&got, &want), "maxpy nt={nt} n={n} k={k}");
                }

                let partial = |a: &[f64], b: &[f64]| {
                    chunks
                        .iter()
                        .fold(0.0, |acc, r| acc + vecops::dot_chunk(isa, &a[r.clone()], &b[r.clone()]))
                };
                let want = [partial(x, y), partial(x, x).sqrt()];
                let got = Mutex::new(vec![[0.0; 2]; nt]);
                pool.run(|tid| {
                    // SAFETY: one member per tid per region.
                    let tm = unsafe { team.member(tid) };
                    let d = [dot(&tm, xs, y_s), norm2(&tm, xs)];
                    got.lock().unwrap()[tid] = d;
                });
                for d in got.lock().unwrap().iter() {
                    prop_assert!(same(d, &want), "dot/norm2 nt={nt} n={n}");
                }
                if nt == 1 {
                    prop_assert!(same(&[vecops::dot(x, y), vecops::norm2(x)], &want), "serial dot n={n}");
                }
            }
        }
    }

    #[test]
    fn team_elementwise_match_serial_bitwise() {
        let nt = 4;
        let pool = ThreadPool::new(nt);
        let team = Team::new(nt, 4);
        let n = 513;
        let (x, y) = vecs(n);

        // serial references
        let basis = [x.clone(), y.iter().map(|v| 1.3 * v).collect()];
        let mut y_maxpy = y.clone();
        vecops::maxpy(&mut y_maxpy, &[0.2, -0.4], &basis);
        let mut b_ref = y.clone();
        vecops::bsub(&mut b_ref, &x);
        let mut d_ref = vec![0.0; n];
        vecops::div_into(&mut d_ref, &x, 7.0);

        let mut xb = x.clone();
        let mut mb = y.clone();
        let mut bb = y.clone();
        let mut db = vec![0.0; n];
        let mut cb = vec![0.0; n];
        let xs = TeamSlice::new(&mut xb);
        let ms = TeamSlice::new(&mut mb);
        let bs = TeamSlice::new(&mut bb);
        let ds = TeamSlice::new(&mut db);
        let cs = TeamSlice::new(&mut cb);
        pool.run(|tid| {
            let tm = unsafe { team.member(tid) };
            maxpy(&tm, ms, &[0.2, -0.4], &basis);
            bsub(&tm, bs, xs);
            div_into(&tm, ds, xs, 7.0);
            copy(&tm, cs, xs);
        });
        assert_eq!(mb, y_maxpy);
        assert_eq!(bb, b_ref);
        assert_eq!(db, d_ref);
        assert_eq!(cb, x);
    }
}
