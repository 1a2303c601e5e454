//! Preconditioners: identity, global ILU, and block-Jacobi (zero-overlap
//! additive Schwarz) ILU.
//!
//! The Schwarz preconditioner solves an ILU factorization *per subdomain*
//! concurrently; the paper notes this also improves flop rates serially
//! because smaller subdomain blocks stay cache-resident [14]. The ILU
//! application runs serially or with P2P sparsified synchronization; Fig.
//! 7's third strategy, a barrier per level, is a modelled row only.

use fun3d_sparse::{ilu, p2p, trsv, Bcsr4, IluFactors, P2pSchedule, Sweep};
use fun3d_threads::{P2pProgress, TeamMember, TeamSlice, ThreadPool};
use std::cell::RefCell;
use std::sync::Arc;

/// Anything that can apply `z = M⁻¹ r`.
pub trait Preconditioner {
    /// Applies the preconditioner.
    fn apply(&self, r: &[f64], z: &mut [f64]);
    /// Scalar dimension.
    fn dim(&self) -> usize;

    /// Applies this thread's share of `z = M⁻¹ r` inside a running SPMD
    /// region. Contract: `r` is fully published (barrier/region entry)
    /// before the call, and on return `z` is fully published to every
    /// thread (implementations end with a barrier).
    ///
    /// The default routes the whole apply through the team leader —
    /// correct for any preconditioner (one thread, barrier-ordered),
    /// with zero intra-apply parallelism. Threaded TRSV preconditioners
    /// override it with team sweeps.
    ///
    /// # Safety
    /// Called concurrently by every thread of the team. Implementations
    /// must be data-race free under that pattern; the default is, because
    /// only the leader dereferences shared state between two barriers.
    unsafe fn apply_team(&self, tm: &TeamMember, r: TeamSlice, z: TeamSlice) {
        if tm.tid() == 0 {
            // SAFETY: r is published (contract); nobody else touches z
            // until the barrier below.
            unsafe {
                let rs = r.slice(0..r.len());
                let zs = z.slice_mut(0..z.len());
                self.apply(rs, zs);
            }
        }
        tm.barrier();
    }
}

/// No preconditioning: `z = r`.
pub struct IdentityPrecond(pub usize);

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
    fn dim(&self) -> usize {
        self.0
    }

    unsafe fn apply_team(&self, tm: &TeamMember, r: TeamSlice, z: TeamSlice) {
        crate::team::copy(tm, z, r);
        tm.barrier();
    }
}

/// How an ILU triangular solve is parallelized. The schedules are
/// shared (`Arc`): they depend on the factor pattern only, so a caller
/// that refactors keeps them across preconditioners.
pub enum IluApply {
    /// Single-threaded sweeps.
    Serial,
    /// Sparsified point-to-point synchronization.
    P2p {
        /// Executing pool.
        pool: Arc<ThreadPool>,
        /// Forward-sweep schedule.
        fwd: Arc<P2pSchedule>,
        /// Backward-sweep schedule.
        bwd: Arc<P2pSchedule>,
        /// Forward-sweep progress counters, never reset.
        fwd_progress: P2pProgress,
        /// Backward-sweep progress counters, never reset.
        bwd_progress: P2pProgress,
    },
}

impl IluApply {
    /// P2P-synchronized application on `pool`, whose size the schedules
    /// were built for. Waits that block are counted and timed per thread
    /// and sweep direction (`trsv.p2p.blocked_waits.fwd.t0`, …
    /// `trsv.p2p.blocked_ns.bwd.t1`, …).
    pub fn p2p(pool: Arc<ThreadPool>, fwd: Arc<P2pSchedule>, bwd: Arc<P2pSchedule>) -> Self {
        let nt = pool.size();
        assert_eq!(nt, fwd.nthreads());
        assert_eq!(nt, bwd.nthreads());
        IluApply::P2p {
            fwd_progress: fwd.progress().attributed("trsv.p2p", "fwd.t"),
            bwd_progress: bwd.progress().attributed("trsv.p2p", "bwd.t"),
            pool,
            fwd,
            bwd,
        }
    }
}

/// A single ILU preconditioner over the rows this process owns: global
/// for one process, the zero-overlap Schwarz block of a rank.
pub struct SerialIlu {
    /// The factors; shared so that a caller may hand out, adopt or
    /// refactor them (`Arc::get_mut`) without copying.
    pub factors: Arc<IluFactors>,
    /// Application strategy.
    pub apply_mode: IluApply,
    /// Forward-sweep result of [`Preconditioner::apply`].
    scratch: RefCell<Vec<f64>>,
}

impl SerialIlu {
    /// Factors `a` with ILU(`fill`), serial application.
    pub fn new(a: &Bcsr4, fill: usize) -> Self {
        SerialIlu::from_factors(Arc::new(ilu::iluk(a, fill)), IluApply::Serial)
    }

    /// A preconditioner applying existing factors.
    pub fn from_factors(factors: Arc<IluFactors>, apply_mode: IluApply) -> Self {
        let scratch = RefCell::new(vec![0.0; factors.nrows() * 4]);
        SerialIlu {
            factors,
            apply_mode,
            scratch,
        }
    }

    /// Upgrades the application strategy to P2P synchronization.
    pub fn with_p2p(mut self, pool: Arc<ThreadPool>) -> Self {
        let nt = pool.size();
        let fwd = Arc::new(P2pSchedule::forward(&self.factors.l, nt));
        let bwd = Arc::new(P2pSchedule::backward(&self.factors.u, nt));
        self.apply_mode = IluApply::p2p(pool, fwd, bwd);
        self
    }
}

impl Preconditioner for SerialIlu {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let (f, scratch) = (&*self.factors, &mut self.scratch.borrow_mut()[..]);
        match &self.apply_mode {
            IluApply::Serial => trsv::solve_into(f, r, scratch, z),
            IluApply::P2p {
                pool,
                fwd,
                bwd,
                fwd_progress,
                bwd_progress,
            } => p2p::solve_p2p_into(
                f,
                r,
                pool,
                (fwd, fwd_progress),
                (bwd, bwd_progress),
                scratch,
                z,
            ),
        }
    }

    fn dim(&self) -> usize {
        self.factors.nrows() * 4
    }

    unsafe fn apply_team(&self, tm: &TeamMember, r: TeamSlice, z: TeamSlice) {
        let (tid, nt) = (tm.tid(), tm.nthreads());
        match &self.apply_mode {
            // No threaded sweep available: leader applies serially.
            IluApply::Serial => {
                if tid == 0 {
                    // SAFETY: r published (contract); z, and the scratch
                    // `apply` borrows, are untouched by the other threads
                    // until the barrier.
                    unsafe {
                        let rs = r.slice(0..r.len());
                        let zs = z.slice_mut(0..z.len());
                        self.apply(rs, zs);
                    }
                }
                tm.barrier();
            }
            // P2P sweeps on counters that continue from the last
            // application's. A barrier between the sweeps because forward
            // ownership and backward ownership partition the rows
            // differently, and one after, to publish z.
            IluApply::P2p {
                fwd,
                bwd,
                fwd_progress,
                bwd_progress,
                ..
            } => {
                assert_eq!(nt, fwd.nthreads());
                p2p::sweep_p2p_team(Sweep::Forward, &self.factors, r, z, tid, fwd, fwd_progress);
                tm.barrier();
                p2p::sweep_p2p_team(Sweep::Backward, &self.factors, z, z, tid, bwd, bwd_progress);
                tm.barrier();
            }
        }
    }
}

/// Block-Jacobi / zero-overlap additive Schwarz: the matrix rows are
/// grouped into subdomains; each subdomain's diagonal block is factored
/// with ILU and solved independently (couplings between subdomains are
/// dropped from the preconditioner, as in PETSc's `PCBJACOBI` + `PCILU`).
pub struct BlockJacobiIlu {
    /// Per-subdomain factors of the local diagonal block.
    pub locals: Vec<IluFactors>,
    /// Block-row ranges of each subdomain (contiguous after reordering).
    pub ranges: Vec<std::ops::Range<usize>>,
    dim: usize,
}

impl BlockJacobiIlu {
    /// Builds from a matrix and a list of contiguous block-row ranges
    /// covering `0..a.nrows()`.
    pub fn new(a: &Bcsr4, ranges: Vec<std::ops::Range<usize>>, fill: usize) -> Self {
        let mut locals = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let local = extract_diagonal_block(a, r.clone());
            locals.push(ilu::iluk(&local, fill));
        }
        BlockJacobiIlu {
            locals,
            ranges,
            dim: a.dim(),
        }
    }

    /// Splits `nrows` into `k` near-equal contiguous subdomains.
    pub fn even_ranges(nrows: usize, k: usize) -> Vec<std::ops::Range<usize>> {
        (0..k).map(|t| fun3d_threads::chunk_range(nrows, k, t)).collect()
    }
}

/// Extracts the square diagonal sub-block of `a` for the given contiguous
/// block-row range, renumbering columns locally.
fn extract_diagonal_block(a: &Bcsr4, range: std::ops::Range<usize>) -> Bcsr4 {
    let lo = range.start as u32;
    let hi = range.end as u32;
    let cols: Vec<Vec<u32>> = range
        .clone()
        .map(|r| {
            a.col_idx[a.row_ptr[r]..a.row_ptr[r + 1]]
                .iter()
                .copied()
                .filter(|&c| c >= lo && c < hi)
                .map(|c| c - lo)
                .collect()
        })
        .collect();
    let mut local = Bcsr4::from_pattern(&cols);
    for (lr, r) in range.clone().enumerate() {
        for k in a.row_ptr[r]..a.row_ptr[r + 1] {
            let c = a.col_idx[k];
            if c >= lo && c < hi {
                let lk = local.find(lr, c - lo).unwrap();
                local.blocks[lk * 16..(lk + 1) * 16]
                    .copy_from_slice(&a.blocks[k * 16..(k + 1) * 16]);
            }
        }
    }
    local
}

impl Preconditioner for BlockJacobiIlu {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for (local, range) in self.locals.iter().zip(&self.ranges) {
            let s = range.start * 4..range.end * 4;
            let x = trsv::solve(local, &r[s.clone()]);
            z[s].copy_from_slice(&x);
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_matrix(seed: u64) -> Bcsr4 {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(seed);
        a
    }

    fn residual_reduction(a: &Bcsr4, p: &dyn Preconditioner) -> f64 {
        // one Richardson step: how much does M⁻¹ shrink the error of Ax=b?
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let mut z = vec![0.0; n];
        p.apply(&b, &mut z); // z ≈ xref
        let err: f64 = z
            .iter()
            .zip(&xref)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = xref.iter().map(|v| v * v).sum::<f64>().sqrt();
        err / norm
    }

    #[test]
    fn identity_copies() {
        let p = IdentityPrecond(4);
        let r = vec![1.0, 2.0, 3.0, 4.0];
        let mut z = vec![0.0; 4];
        p.apply(&r, &mut z);
        assert_eq!(z, r);
        assert_eq!(p.dim(), 4);
    }

    #[test]
    fn global_ilu_is_strong() {
        let a = mesh_matrix(61);
        let p = SerialIlu::new(&a, 0);
        assert!(residual_reduction(&a, &p) < 0.3);
    }

    #[test]
    fn ilu1_stronger_than_ilu0() {
        let a = mesh_matrix(62);
        let r0 = residual_reduction(&a, &SerialIlu::new(&a, 0));
        let r1 = residual_reduction(&a, &SerialIlu::new(&a, 1));
        assert!(r1 < r0, "ILU(1) {r1} should beat ILU(0) {r0}");
    }

    #[test]
    fn block_jacobi_weaker_than_global_but_usable() {
        let a = mesh_matrix(63);
        let global = residual_reduction(&a, &SerialIlu::new(&a, 0));
        let ranges = BlockJacobiIlu::even_ranges(a.nrows(), 4);
        let bj = BlockJacobiIlu::new(&a, ranges, 0);
        let blocked = residual_reduction(&a, &bj);
        assert!(blocked < 0.9, "block-Jacobi too weak: {blocked}");
        assert!(
            blocked >= global * 0.5,
            "sanity: dropping couplings should not *improve* much"
        );
    }

    #[test]
    fn threaded_applications_match_serial() {
        // Twice through each preconditioner: the second application runs
        // on the scratch, the barrier and the progress counters where the
        // first left them.
        let a = mesh_matrix(64);
        let n = a.dim();
        let serial = SerialIlu::new(&a, 1);
        let pool = Arc::new(ThreadPool::new(3));
        let pp = SerialIlu::new(&a, 1).with_p2p(pool);
        for pass in 0..2 {
            let r: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.13 + pass as f64).cos())
                .collect();
            let mut z0 = vec![0.0; n];
            serial.apply(&r, &mut z0);
            let mut z2 = vec![0.0; n];
            pp.apply(&r, &mut z2);
            assert_eq!(z0, z2, "p2p apply differs (pass {pass})");
        }
    }

    #[test]
    fn even_ranges_cover() {
        let ranges = BlockJacobiIlu::even_ranges(10, 3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 10);
    }

    #[test]
    fn extract_diagonal_block_values() {
        let a = mesh_matrix(65);
        let sub = extract_diagonal_block(&a, 2..5);
        assert_eq!(sub.nrows(), 3);
        // diagonal blocks must match the original
        for (lr, r) in (2..5).enumerate() {
            let orig = a.find(r, r as u32).unwrap();
            let loc = sub.find(lr, lr as u32).unwrap();
            assert_eq!(a.block(orig), sub.block(loc));
        }
    }
}
