//! A genuinely distributed GMRES + block-Jacobi-ILU solve over the rank
//! runtime — the correctness backbone of the multi-node experiments.
//!
//! Each rank owns the matrix rows of its subdomain's vertices; matrix
//! columns reference owned + ghost vertices, and a halo exchange
//! refreshes ghost values before every matrix application (PETSc's
//! `VecScatter`). The preconditioner is one ILU per rank on the
//! owned-owned diagonal block — single-level additive Schwarz with zero
//! overlap, whose convergence degradation with rank count is exactly the
//! effect the paper reports (+30% iterations at 256 nodes, Section
//! VI.B.3).
//!
//! There is no Krylov loop here: a rank's rows are a
//! [`LinearOperator`] whose [`reducer`](LinearOperator::reducer) is the
//! communicator ([`DistSystem::on`]), its block ILU is the solver's
//! [`SerialIlu`], and [`gmres`] hands both to
//! [`fun3d_solver::Gmres`] — the code one process runs, with every inner
//! product completed by an allreduce.

use crate::comm::Comm;
use crate::decompose::Subdomain;
use fun3d_solver::{Gmres, GmresConfig, GmresOutcome, LinearOperator, Reducer, SerialIlu};
use fun3d_sparse::Bcsr4;
use std::cell::RefCell;

/// Halo exchange with an arbitrary per-vertex stride: sends owned
/// boundary values, fills ghost slots.
pub(crate) fn halo_exchange_stride(comm: &Comm, sub: &Subdomain, x: &mut [f64], stride: usize) {
    assert_eq!(x.len(), sub.nlocal() * stride);
    const TAG: u32 = 11;
    for (nbr, list) in &sub.send_lists {
        let mut buf = Vec::with_capacity(list.len() * stride);
        for &l in list {
            buf.extend_from_slice(&x[l as usize * stride..(l as usize + 1) * stride]);
        }
        comm.send(*nbr, TAG, buf);
    }
    for (nbr, list) in &sub.recv_lists {
        let buf = comm.recv(*nbr, TAG);
        assert_eq!(buf.len(), list.len() * stride);
        for (i, &l) in list.iter().enumerate() {
            x[l as usize * stride..(l as usize + 1) * stride]
                .copy_from_slice(&buf[i * stride..(i + 1) * stride]);
        }
    }
}

/// Halo exchange of a 4-vars-per-vertex vector (the state layout).
pub(crate) fn halo_exchange(comm: &Comm, sub: &Subdomain, x: &mut [f64]) {
    halo_exchange_stride(comm, sub, x, 4);
}

/// Extracts the local block rows of a global BCSR matrix: rows for owned
/// vertices (local row ids), columns remapped to local (owned + ghost)
/// ids; ghost rows are left empty.
pub(crate) fn localize_matrix(aglob: &Bcsr4, sub: &Subdomain) -> Bcsr4 {
    let nlocal = sub.nlocal();
    let mut g2l = std::collections::HashMap::with_capacity(nlocal);
    for (l, &g) in sub.owned.iter().enumerate() {
        g2l.insert(g, l as u32);
    }
    for (l, &g) in sub.ghosts.iter().enumerate() {
        g2l.insert(g, (sub.nowned() + l) as u32);
    }
    let mut cols: Vec<Vec<u32>> = vec![Vec::new(); nlocal];
    for (lr, &g) in sub.owned.iter().enumerate() {
        let g = g as usize;
        for k in aglob.row_ptr[g]..aglob.row_ptr[g + 1] {
            if let Some(&lc) = g2l.get(&aglob.col_idx[k]) {
                cols[lr].push(lc);
            }
            // columns outside owned+ghost can only appear if the matrix
            // pattern is wider than the mesh edges; the Jacobian's is not.
        }
        cols[lr].sort_unstable();
    }
    let mut local = Bcsr4::from_pattern(&cols);
    for (lr, &g) in sub.owned.iter().enumerate() {
        let g = g as usize;
        for k in aglob.row_ptr[g]..aglob.row_ptr[g + 1] {
            if let Some(&lc) = g2l.get(&aglob.col_idx[k]) {
                let lk = local.find(lr, lc).unwrap();
                local.blocks[lk * 16..(lk + 1) * 16]
                    .copy_from_slice(&aglob.blocks[k * 16..(k + 1) * 16]);
            }
        }
    }
    local
}

/// The owned-owned diagonal block of a rank's local rows — what its
/// Schwarz ILU factors: the blocks of `local`'s first `nowned` rows whose
/// column is owned too.
fn owned_block(local: &Bcsr4, nowned: usize) -> Bcsr4 {
    let mut block = Bcsr4 {
        row_ptr: vec![0],
        col_idx: Vec::new(),
        blocks: Vec::new(),
    };
    for r in 0..nowned {
        let owned = |&k: &usize| (local.col_idx[k] as usize) < nowned;
        for k in (local.row_ptr[r]..local.row_ptr[r + 1]).filter(owned) {
            block.col_idx.push(local.col_idx[k]);
            block.blocks.extend_from_slice(local.block(k));
        }
        block.row_ptr.push(block.col_idx.len());
    }
    block
}

/// One rank's distributed linear-system context.
pub struct DistSystem {
    /// This rank's subdomain.
    pub sub: Subdomain,
    /// Local matrix rows (owned rows, owned+ghost columns).
    pub a: Bcsr4,
    /// Block-Jacobi ILU of the owned-owned block.
    pub precond: SerialIlu,
}

impl DistSystem {
    /// Builds from the global matrix and a subdomain.
    pub fn new(aglob: &Bcsr4, sub: Subdomain, fill: usize) -> DistSystem {
        let a = localize_matrix(aglob, &sub);
        let precond = SerialIlu::new(&owned_block(&a, sub.nowned()), fill);
        DistSystem { sub, a, precond }
    }

    /// Owned scalar dimension.
    pub fn nowned(&self) -> usize {
        self.sub.nowned() * 4
    }

    /// This rank's rows as the operator of a solve over `comm`.
    pub fn on<'a>(&'a self, comm: &'a Comm) -> RankRows<'a> {
        let nlocal = self.sub.nlocal() * 4;
        RankRows {
            comm,
            sys: self,
            local: RefCell::new((vec![0.0; nlocal], vec![0.0; nlocal])),
        }
    }
}

/// A [`DistSystem`]'s rows bound to a communicator: the distributed
/// matvec over owned vectors, with inner products completed by `comm`.
pub struct RankRows<'a> {
    comm: &'a Comm,
    sys: &'a DistSystem,
    /// Owned + ghost copies of the operand and of the product.
    local: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl LinearOperator for RankRows<'_> {
    fn dim(&self) -> usize {
        self.sys.nowned()
    }

    /// Halo-exchanges `x`, then `y = A_local · x_local` on the owned rows.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        let (xl, yl) = &mut *self.local.borrow_mut();
        xl[..n].copy_from_slice(x);
        halo_exchange(self.comm, &self.sys.sub, xl);
        self.sys.a.spmv(xl, yl);
        y.copy_from_slice(&yl[..n]);
    }

    fn reducer(&self) -> Reducer<'_> {
        Some(self.comm)
    }
}

/// Result of a distributed GMRES solve (per rank; identical on all).
#[derive(Clone, Copy, Debug)]
pub struct DistSolveResult {
    /// Iterations used.
    pub iterations: usize,
    /// Final preconditioned residual norm.
    pub residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Distributed left-preconditioned GMRES(restart). `b` and `x` are the
/// owned parts; returns identical results on every rank.
pub fn gmres(
    comm: &Comm,
    sys: &DistSystem,
    b: &[f64],
    x: &mut [f64],
    restart: usize,
    rtol: f64,
    max_iters: usize,
) -> DistSolveResult {
    let config = GmresConfig {
        restart,
        rtol,
        max_iters,
        ..Default::default()
    };
    let res = Gmres::new(sys.nowned(), config).solve(&sys.on(comm), &sys.precond, b, x);
    DistSolveResult {
        iterations: res.iterations,
        residual: res.residual,
        converged: res.outcome != GmresOutcome::MaxIterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;
    use crate::decompose::Decomposition;
    use fun3d_mesh::generator::MeshPreset;

    fn global_system() -> (Bcsr4, Vec<f64>, Vec<f64>) {
        let m = MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(123);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        (a, b, xref)
    }

    fn solve_distributed(nranks: usize) -> (Vec<f64>, usize) {
        let (a, b, _) = global_system();
        let nv = a.nrows();
        let edges = {
            let m = MeshPreset::Tiny.build();
            m.edges()
        };
        let decomp = Decomposition::build(nv, &edges, nranks);
        let subs = decomp.subdomains.clone();
        let results = Universe::run(nranks, |comm| {
            let sub = subs[comm.rank()].clone();
            let sys = DistSystem::new(&a, sub, 0);
            let blocal: Vec<f64> = sys
                .sub
                .owned
                .iter()
                .flat_map(|&g| b[g as usize * 4..g as usize * 4 + 4].to_vec())
                .collect();
            let mut x = vec![0.0; sys.nowned()];
            let stats = gmres(&comm, &sys, &blocal, &mut x, 30, 1e-10, 500);
            assert!(stats.converged, "rank {} diverged", comm.rank());
            (sys.sub.owned.clone(), x, stats.iterations)
        });
        // stitch the global solution
        let mut xg = vec![0.0; nv * 4];
        let mut iters = 0;
        for (owned, x, it) in results {
            iters = it;
            for (l, &g) in owned.iter().enumerate() {
                xg[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&x[l * 4..l * 4 + 4]);
            }
        }
        (xg, iters)
    }

    #[test]
    fn distributed_matches_reference_solution() {
        let (_, _, xref) = global_system();
        for nranks in [1usize, 2, 4] {
            let (xg, _) = solve_distributed(nranks);
            let err: f64 = xg
                .iter()
                .zip(&xref)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let norm: f64 = xref.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(err < 1e-6 * norm, "nranks={nranks}: err {err} norm {norm}");
        }
    }

    #[test]
    fn more_subdomains_weaker_preconditioner() {
        // Schwarz convergence degradation: iterations grow (or stay
        // equal) as the domain is split more finely.
        let (_, i1) = solve_distributed(1);
        let (_, i4) = solve_distributed(4);
        assert!(
            i4 >= i1,
            "iterations should not drop with more subdomains: {i1} -> {i4}"
        );
    }

    #[test]
    fn halo_exchange_moves_owned_to_ghosts() {
        let m = MeshPreset::Tiny.build();
        let edges = m.edges();
        let nv = m.nvertices();
        let decomp = Decomposition::build(nv, &edges, 3);
        let subs = decomp.subdomains.clone();
        Universe::run(3, |comm| {
            let sub = &subs[comm.rank()];
            let mut x = vec![0.0; sub.nlocal() * 4];
            // owned entries = global id, ghosts = -1
            for (l, &g) in sub.owned.iter().enumerate() {
                for c in 0..4 {
                    x[l * 4 + c] = g as f64;
                }
            }
            for l in sub.nowned()..sub.nlocal() {
                for c in 0..4 {
                    x[l * 4 + c] = -1.0;
                }
            }
            halo_exchange(&comm, sub, &mut x);
            for (l, &g) in sub.ghosts.iter().enumerate() {
                let li = sub.nowned() + l;
                for c in 0..4 {
                    assert_eq!(x[li * 4 + c], g as f64, "ghost {g} not filled");
                }
            }
        });
    }

    #[test]
    fn halo_exchange_telemetry_matches_ghost_size_formula() {
        use fun3d_util::telemetry;
        telemetry::set_level(telemetry::Level::Counters);
        let m = MeshPreset::Tiny.build();
        let edges = m.edges();
        let nv = m.nvertices();
        let decomp = Decomposition::build(nv, &edges, 3);
        let subs = decomp.subdomains.clone();
        Universe::run(3, |comm| {
            // Each rank thread is fresh, so its local counters start empty;
            // delta against the baseline anyway in case the runtime reuses
            // threads someday.
            let sub = &subs[comm.rank()];
            let base = |n: &str| {
                telemetry::local_counters().get(n).copied().unwrap_or_default()
            };
            let (s0, r0) = (base("comm.send"), base("comm.recv"));
            let mut x = vec![1.0; sub.nlocal() * 4];
            halo_exchange(&comm, sub, &mut x);
            let (s1, r1) = (base("comm.send"), base("comm.recv"));
            // analytic ghost-size formula: halo_doubles() doubles sent,
            // one message per neighbor
            assert_eq!(s1.bytes_written - s0.bytes_written, (sub.halo_doubles() * 8) as u64);
            assert_eq!(s1.items - s0.items, sub.send_lists.len() as u64);
            let recv_doubles: usize = sub.recv_lists.iter().map(|(_, l)| l.len() * 4).sum();
            assert_eq!(r1.bytes_read - r0.bytes_read, (recv_doubles * 8) as u64);
            assert_eq!(r1.items - r0.items, sub.recv_lists.len() as u64);
        });
    }

    #[test]
    fn localize_matrix_preserves_owned_rows() {
        let (a, _, _) = global_system();
        let m = MeshPreset::Tiny.build();
        let decomp = Decomposition::build(a.nrows(), &m.edges(), 2);
        let sub = decomp.subdomains[0].clone();
        let local = localize_matrix(&a, &sub);
        assert_eq!(local.nrows(), sub.nlocal());
        // row sums of owned rows must match the global rows (all columns
        // of a mesh-pattern row are owned or ghost)
        for (lr, &g) in sub.owned.iter().enumerate() {
            let g = g as usize;
            let global_blocks = a.row_ptr[g + 1] - a.row_ptr[g];
            let local_blocks = local.row_ptr[lr + 1] - local.row_ptr[lr];
            assert_eq!(global_blocks, local_blocks, "row {g}");
            let gsum: f64 = a.blocks[a.row_ptr[g] * 16..a.row_ptr[g + 1] * 16].iter().sum();
            let lsum: f64 =
                local.blocks[local.row_ptr[lr] * 16..local.row_ptr[lr + 1] * 16].iter().sum();
            assert!((gsum - lsum).abs() < 1e-12);
        }
    }
}
