//! The distributed nonlinear application: rank-parallel PETSc-FUN3D.
//!
//! Each rank owns a subdomain of the mesh and runs the full ΨNKS stack
//! through real message passing:
//!
//! * residual: halo-exchange state → local Green-Gauss gradients
//!   (owner-only writes) → halo-exchange gradients → masked Roe flux loop
//!   → local boundary fluxes;
//! * Jacobian: first-order assembly of the *owned rows* (columns span
//!   owned + ghost), pseudo-time shift, per-rank ILU of the owned-owned
//!   block (zero-overlap additive Schwarz);
//! * linear solve: matrix-free distributed GMRES — the operator action
//!   finite-differences the distributed residual; inner products
//!   allreduce;
//! * pseudo-transient continuation with SER time-step growth, with the
//!   residual norm agreed by allreduce so every rank steps identically.
//!
//! This is the execution model of the paper's multi-node experiments
//! (Section VI.B): MPI-only when every rank is one core, "Hybrid" when a
//! rank spans a socket. In-process, ranks are threads.

use crate::comm::Comm;
use crate::decompose::{Decomposition, Subdomain};
use crate::dsolve::{dnorm2, halo_exchange, halo_exchange_stride, local_ilu};
use fun3d_core::bc::BcData;
use fun3d_core::euler::{self, FlowConditions};
use fun3d_core::geom::EdgeGeom;
use fun3d_mesh::{DualMesh, Mesh};
use fun3d_sparse::{trsv, Bcsr4, IluFactors};
use std::cell::RefCell;

/// Immutable global inputs shared (read-only) by all ranks.
pub struct GlobalSetup {
    /// The mesh.
    pub mesh: Mesh,
    /// Dual metrics.
    pub dual: DualMesh,
    /// Global edge geometry.
    pub geom: EdgeGeom,
    /// Global boundary table.
    pub bc: BcData,
    /// Flow conditions.
    pub cond: FlowConditions,
    /// The decomposition.
    pub decomp: Decomposition,
}

impl GlobalSetup {
    /// Decomposes a mesh over `nranks`.
    pub fn new(mesh: Mesh, cond: FlowConditions, nranks: usize) -> GlobalSetup {
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let decomp = Decomposition::build(mesh.nvertices(), &geom.edges, nranks);
        GlobalSetup {
            mesh,
            dual,
            geom,
            bc,
            cond,
            decomp,
        }
    }
}

/// One rank's local problem data.
pub struct RankApp<'a> {
    /// Shared read-only globals.
    pub setup: &'a GlobalSetup,
    /// This rank's subdomain.
    pub sub: Subdomain,
    /// Local edge geometry (subdomain edges, local vertex ids).
    nx: Vec<f64>,
    ny: Vec<f64>,
    nz: Vec<f64>,
    rx: Vec<f64>,
    ry: Vec<f64>,
    rz: Vec<f64>,
    /// Boundary entries for owned vertices: (local vertex, normal, tag).
    bc_local: Vec<(u32, [f64; 3], fun3d_mesh::BcTag)>,
    /// Dual volumes of owned vertices.
    vol: Vec<f64>,
    /// Jacobian rows for owned vertices (local columns).
    jac: Bcsr4,
    factors: Option<IluFactors>,
    /// Forward-sweep result of `apply_precond`, owned-unknowns long.
    trsv_scratch: RefCell<Vec<f64>>,
}

impl<'a> RankApp<'a> {
    /// Builds rank `rank`'s local problem.
    pub fn new(setup: &'a GlobalSetup, rank: usize) -> RankApp<'a> {
        let sub = setup.decomp.subdomains[rank].clone();
        let ne = sub.edges.len();
        let mut nx = Vec::with_capacity(ne);
        let mut ny = Vec::with_capacity(ne);
        let mut nz = Vec::with_capacity(ne);
        let mut rx = Vec::with_capacity(ne);
        let mut ry = Vec::with_capacity(ne);
        let mut rz = Vec::with_capacity(ne);
        for &gid in &sub.edge_gids {
            let g = gid as usize;
            nx.push(setup.geom.nx[g]);
            ny.push(setup.geom.ny[g]);
            nz.push(setup.geom.nz[g]);
            rx.push(setup.geom.rx[g]);
            ry.push(setup.geom.ry[g]);
            rz.push(setup.geom.rz[g]);
        }
        // global->local vertex map for owned vertices
        let mut g2l = std::collections::HashMap::with_capacity(sub.nlocal());
        for (l, &g) in sub.owned.iter().enumerate() {
            g2l.insert(g, l as u32);
        }
        for (l, &g) in sub.ghosts.iter().enumerate() {
            g2l.insert(g, (sub.nowned() + l) as u32);
        }
        let mut bc_local = Vec::new();
        for i in 0..setup.bc.len() {
            if let Some(&l) = g2l.get(&setup.bc.vertex[i]) {
                if (l as usize) < sub.nowned() {
                    bc_local.push((
                        l,
                        [setup.bc.nx[i], setup.bc.ny[i], setup.bc.nz[i]],
                        setup.bc.tag[i],
                    ));
                }
            }
        }
        let vol: Vec<f64> = sub.owned.iter().map(|&g| setup.dual.vol[g as usize]).collect();
        // Jacobian pattern: owned rows over their local-edge neighbors.
        let nowned = sub.nowned();
        let mut cols: Vec<Vec<u32>> = (0..nowned).map(|v| vec![v as u32]).collect();
        for (le, &mask) in sub.edges.iter().zip(&sub.write_masks) {
            let (a, b) = (le[0], le[1]);
            if mask & 1 != 0 {
                cols[a as usize].push(b);
            }
            if mask & 2 != 0 {
                cols[b as usize].push(a);
            }
        }
        for c in cols.iter_mut() {
            c.sort_unstable();
            c.dedup();
        }
        // extend to nlocal rows (ghost rows empty) so columns are valid
        let mut full_cols = cols;
        full_cols.resize(sub.nlocal(), Vec::new());
        let jac = Bcsr4::from_pattern(&full_cols);

        RankApp {
            setup,
            sub,
            nx,
            ny,
            nz,
            rx,
            ry,
            rz,
            bc_local,
            vol,
            jac,
            factors: None,
            trsv_scratch: RefCell::new(vec![0.0; nowned * 4]),
        }
    }

    /// Owned scalar unknowns.
    pub fn nowned4(&self) -> usize {
        self.sub.nowned() * 4
    }

    /// Local scalar unknowns (owned + ghost).
    pub fn nlocal4(&self) -> usize {
        self.sub.nlocal() * 4
    }

    /// Free-stream local state.
    pub fn initial_state(&self) -> Vec<f64> {
        let mut u = vec![0.0; self.nlocal4()];
        for v in 0..self.sub.nlocal() {
            u[v * 4..v * 4 + 4].copy_from_slice(&self.setup.cond.qinf);
        }
        u
    }

    /// Distributed residual: `u` is the local state (owned part
    /// significant on entry; ghosts refreshed here); writes the owned
    /// residual into `r`. `grad` is a `nlocal*12` scratch buffer.
    pub fn residual(&self, comm: &Comm, u: &mut [f64], grad: &mut [f64], r: &mut [f64]) {
        assert_eq!(u.len(), self.nlocal4());
        assert_eq!(grad.len(), self.sub.nlocal() * 12);
        assert_eq!(r.len(), self.nowned4());
        let beta = self.setup.cond.beta;
        halo_exchange(comm, &self.sub, u);

        // Green-Gauss on owned vertices (owner-only writes), then
        // exchange ghost gradients.
        grad.iter_mut().for_each(|x| *x = 0.0);
        for (k, (le, &mask)) in self.sub.edges.iter().zip(&self.sub.write_masks).enumerate() {
            let (a, b) = (le[0] as usize, le[1] as usize);
            let s = [self.nx[k], self.ny[k], self.nz[k]];
            for c in 0..4 {
                let qf = 0.5 * (u[a * 4 + c] + u[b * 4 + c]);
                for d in 0..3 {
                    if mask & 1 != 0 {
                        grad[a * 12 + c * 3 + d] += qf * s[d];
                    }
                    if mask & 2 != 0 {
                        grad[b * 12 + c * 3 + d] -= qf * s[d];
                    }
                }
            }
        }
        for &(v, n, _) in &self.bc_local {
            let v = v as usize;
            for c in 0..4 {
                let qv = u[v * 4 + c];
                for d in 0..3 {
                    grad[v * 12 + c * 3 + d] += qv * n[d];
                }
            }
        }
        for v in 0..self.sub.nowned() {
            let inv = 1.0 / self.vol[v];
            for f in 0..12 {
                grad[v * 12 + f] *= inv;
            }
        }
        halo_exchange_stride(comm, &self.sub, grad, 12);

        // Masked Roe flux loop (second-order reconstruction).
        r.iter_mut().for_each(|x| *x = 0.0);
        for (k, (le, &mask)) in self.sub.edges.iter().zip(&self.sub.write_masks).enumerate() {
            let (a, b) = (le[0] as usize, le[1] as usize);
            let n = [self.nx[k], self.ny[k], self.nz[k]];
            let rr = [self.rx[k], self.ry[k], self.rz[k]];
            let mut ql = [0.0f64; 4];
            let mut qr = [0.0f64; 4];
            for c in 0..4 {
                let ga = &grad[a * 12 + c * 3..a * 12 + c * 3 + 3];
                let gb = &grad[b * 12 + c * 3..b * 12 + c * 3 + 3];
                let da = ga[0] * rr[0] + ga[1] * rr[1] + ga[2] * rr[2];
                let db = gb[0] * rr[0] + gb[1] * rr[1] + gb[2] * rr[2];
                ql[c] = u[a * 4 + c] + 0.5 * da;
                qr[c] = u[b * 4 + c] - 0.5 * db;
            }
            let f = euler::roe_flux(&ql, &qr, &n, beta);
            for c in 0..4 {
                if mask & 1 != 0 {
                    r[a * 4 + c] += f[c];
                }
                if mask & 2 != 0 {
                    r[b * 4 + c] -= f[c];
                }
            }
        }
        for &(v, n, tag) in &self.bc_local {
            let v = v as usize;
            let q: [f64; 4] = u[v * 4..v * 4 + 4].try_into().unwrap();
            let f = match tag {
                fun3d_mesh::BcTag::SlipWall | fun3d_mesh::BcTag::Symmetry => {
                    fun3d_core::bc::wall_flux(&q, &n)
                }
                fun3d_mesh::BcTag::FarField => {
                    fun3d_core::bc::farfield_flux(&q, &self.setup.cond.qinf, &n, beta)
                }
            };
            for c in 0..4 {
                r[v * 4 + c] += f[c];
            }
        }
    }

    /// Assembles the first-order Jacobian of the owned rows (columns over
    /// owned + ghost), adds the pseudo-time shift, and refreshes the
    /// per-rank ILU factors. `u` must have current ghost values.
    pub fn build_preconditioner(&mut self, u: &[f64], dt: f64, fill: usize) {
        let beta = self.setup.cond.beta;
        self.jac.zero_values();
        for (k, (le, &mask)) in self.sub.edges.iter().zip(&self.sub.write_masks).enumerate() {
            let (a, b) = (le[0] as usize, le[1] as usize);
            let n = [self.nx[k], self.ny[k], self.nz[k]];
            let qa: [f64; 4] = u[a * 4..a * 4 + 4].try_into().unwrap();
            let qb: [f64; 4] = u[b * 4..b * 4 + 4].try_into().unwrap();
            let lam = euler::spectral_radius(&qa, &n, beta)
                .max(euler::spectral_radius(&qb, &n, beta));
            let mut da = euler::flux_jacobian(&qa, &n, beta);
            let mut db = euler::flux_jacobian(&qb, &n, beta);
            for x in da.iter_mut() {
                *x *= 0.5;
            }
            for x in db.iter_mut() {
                *x *= 0.5;
            }
            for d in 0..4 {
                da[d * 4 + d] += 0.5 * lam;
                db[d * 4 + d] -= 0.5 * lam;
            }
            let neg = |m: &[f64; 16]| {
                let mut o = *m;
                for x in o.iter_mut() {
                    *x = -*x;
                }
                o
            };
            if mask & 1 != 0 {
                self.jac.add_block(a, a as u32, &da);
                self.jac.add_block(a, b as u32, &db);
            }
            if mask & 2 != 0 {
                self.jac.add_block(b, a as u32, &neg(&da));
                self.jac.add_block(b, b as u32, &neg(&db));
            }
        }
        for &(v, n, tag) in &self.bc_local {
            let v = v as usize;
            let q: [f64; 4] = u[v * 4..v * 4 + 4].try_into().unwrap();
            let block = match tag {
                fun3d_mesh::BcTag::SlipWall | fun3d_mesh::BcTag::Symmetry => {
                    let mut b = [0.0f64; 16];
                    b[4] = n[0];
                    b[8] = n[1];
                    b[12] = n[2];
                    b
                }
                fun3d_mesh::BcTag::FarField => {
                    let qm = [
                        0.5 * (q[0] + self.setup.cond.qinf[0]),
                        0.5 * (q[1] + self.setup.cond.qinf[1]),
                        0.5 * (q[2] + self.setup.cond.qinf[2]),
                        0.5 * (q[3] + self.setup.cond.qinf[3]),
                    ];
                    let lam = euler::spectral_radius(&qm, &n, beta);
                    let mut b = euler::flux_jacobian(&q, &n, beta);
                    for x in b.iter_mut() {
                        *x *= 0.5;
                    }
                    for d in 0..4 {
                        b[d * 4 + d] += 0.5 * lam;
                    }
                    b
                }
            };
            self.jac.add_block(v, v as u32, &block);
        }
        // pseudo-time shift on owned diagonals
        for v in 0..self.sub.nowned() {
            let vdt = self.vol[v] / dt;
            let k = self.jac.find(v, v as u32).unwrap();
            self.jac.blocks[k * 16] += vdt / beta;
            for d in 1..4 {
                self.jac.blocks[k * 16 + d * 4 + d] += vdt;
            }
        }
        self.factors = Some(local_ilu(&self.jac, &self.sub, fill));
    }

    fn apply_precond(&self, r: &[f64], z: &mut [f64]) {
        let f = self.factors.as_ref().expect("preconditioner built");
        trsv::solve_into(f, r, &mut self.trsv_scratch.borrow_mut(), z);
    }
}

/// Per-rank outcome of a distributed pseudo-transient solve.
#[derive(Clone, Debug)]
pub struct DistPtcStats {
    /// Pseudo-time steps.
    pub time_steps: usize,
    /// Total linear iterations.
    pub linear_iters: usize,
    /// Global residual norms per step.
    pub res_history: Vec<f64>,
    /// Converged?
    pub converged: bool,
}

/// Runs the distributed ΨNKS solve on one rank (call from every rank of
/// a [`crate::comm::Universe`]). Returns the owned state and statistics
/// (identical stats on every rank).
pub fn solve(
    comm: &Comm,
    app: &mut RankApp<'_>,
    dt0: f64,
    rtol: f64,
    max_steps: usize,
    fill: usize,
) -> (Vec<f64>, DistPtcStats) {
    let n = app.nowned4();
    let mut u = app.initial_state();
    let mut grad = vec![0.0; app.sub.nlocal() * 12];
    let mut r = vec![0.0; n];
    let mut shift_dt;

    app.residual(comm, &mut u, &mut grad, &mut r);
    let res0 = dnorm2(comm, &r);
    let mut res = res0;
    let mut stats = DistPtcStats {
        time_steps: 0,
        linear_iters: 0,
        res_history: vec![res0],
        converged: false,
    };

    for step in 0..max_steps {
        shift_dt = (dt0 * res0 / res).min(1e12);
        app.build_preconditioner(&u, shift_dt, fill);

        // matrix-free distributed GMRES on (V/Δt + J) δ = −r
        let mut delta = vec![0.0; n];
        let iters = dist_gmres_matrix_free(comm, app, &u, &r, shift_dt, &mut delta, 30, 1e-3, 200);
        stats.linear_iters += iters;
        for i in 0..n {
            u[i] += delta[i];
        }
        app.residual(comm, &mut u, &mut grad, &mut r);
        res = dnorm2(comm, &r);
        stats.time_steps = step + 1;
        stats.res_history.push(res);
        if res <= rtol * res0 {
            stats.converged = true;
            break;
        }
        if !res.is_finite() {
            break;
        }
    }
    (u[..n].to_vec(), stats)
}

/// Left-preconditioned distributed GMRES where the operator action is a
/// finite difference of the distributed residual plus the pseudo-time
/// diagonal. Returns iterations.
#[allow(clippy::too_many_arguments)]
fn dist_gmres_matrix_free(
    comm: &Comm,
    app: &RankApp<'_>,
    u: &[f64],
    r0: &[f64],
    dt: f64,
    x: &mut [f64],
    restart: usize,
    rtol: f64,
    max_iters: usize,
) -> usize {
    let n = app.nowned4();
    let nlocal = app.nlocal4();
    let unorm = dnorm2(comm, &u[..n]);
    let mut grad = vec![0.0; app.sub.nlocal() * 12];
    let mut upert = vec![0.0; nlocal];
    let mut rpert = vec![0.0; n];

    // operator: y = shift .* v + (R(u + eps v) - R(u)) / eps
    let mut apply = |v: &[f64], y: &mut [f64], comm: &Comm| {
        let vnorm = dnorm2(comm, v);
        if vnorm == 0.0 {
            y.iter_mut().for_each(|z| *z = 0.0);
            return;
        }
        let eps = f64::EPSILON.sqrt() * (1.0 + unorm) / vnorm;
        upert[..n].copy_from_slice(&u[..n]);
        for i in 0..n {
            upert[i] += eps * v[i];
        }
        app.residual(comm, &mut upert, &mut grad, &mut rpert);
        let inv = 1.0 / eps;
        for i in 0..n {
            y[i] = (rpert[i] - r0[i]) * inv;
        }
        for vtx in 0..app.sub.nowned() {
            let vdt = app.vol[vtx] / dt;
            y[vtx * 4] += vdt / app.setup.cond.beta * v[vtx * 4];
            for c in 1..4 {
                y[vtx * 4 + c] += vdt * v[vtx * 4 + c];
            }
        }
    };

    let b: Vec<f64> = r0.iter().map(|x| -x).collect();
    let mut w = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut basis: Vec<Vec<f64>> = (0..restart + 1).map(|_| vec![0.0; n]).collect();
    let mut h = vec![0.0; (restart + 1) * restart];
    let mut total = 0usize;
    let mut res0g = f64::NAN;

    loop {
        apply(x, &mut w, comm);
        for i in 0..n {
            w[i] = b[i] - w[i];
        }
        app.apply_precond(&w, &mut z);
        let beta = dnorm2(comm, &z);
        if res0g.is_nan() {
            res0g = beta;
        }
        if beta <= rtol * res0g || beta == 0.0 || total >= max_iters {
            return total;
        }
        for i in 0..n {
            basis[0][i] = z[i] / beta;
        }
        let mut g = vec![0.0; restart + 1];
        g[0] = beta;
        let mut cs = vec![0.0; restart];
        let mut sn = vec![0.0; restart];
        let mut kdone = 0usize;
        let mut res = beta;
        let mut converged = false;

        for k in 0..restart {
            if total >= max_iters {
                break;
            }
            total += 1;
            apply(&basis[k], &mut w, comm);
            app.apply_precond(&w, &mut z);
            let mut dots_local = vec![0.0; k + 1];
            for (j, vj) in basis[..=k].iter().enumerate() {
                dots_local[j] = z.iter().zip(vj).map(|(a, b)| a * b).sum();
            }
            let dots = comm.allreduce_sum(&dots_local);
            for (j, vj) in basis[..=k].iter().enumerate() {
                for i in 0..n {
                    z[i] -= dots[j] * vj[i];
                }
                h[k * (restart + 1) + j] = dots[j];
            }
            let hnorm = dnorm2(comm, &z);
            h[k * (restart + 1) + k + 1] = hnorm;
            kdone = k + 1;
            if hnorm > 1e-14 * res.max(1.0) {
                for i in 0..n {
                    basis[k + 1][i] = z[i] / hnorm;
                }
            }
            let col = &mut h[k * (restart + 1)..(k + 1) * (restart + 1)];
            for i in 0..k {
                let t = cs[i] * col[i] + sn[i] * col[i + 1];
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1];
                col[i] = t;
            }
            let denom = (col[k] * col[k] + col[k + 1] * col[k + 1]).sqrt();
            let (c, s) = if col[k + 1] == 0.0 {
                (1.0, 0.0)
            } else {
                (col[k] / denom, col[k + 1] / denom)
            };
            cs[k] = c;
            sn[k] = s;
            col[k] = c * col[k] + s * col[k + 1];
            col[k + 1] = 0.0;
            let t = c * g[k] + s * g[k + 1];
            g[k + 1] = -s * g[k] + c * g[k + 1];
            g[k] = t;
            res = g[k + 1].abs();
            if res <= rtol * res0g || hnorm <= 1e-14 * res.max(1.0) {
                converged = true;
                break;
            }
        }
        let mut y = vec![0.0; kdone];
        for i in (0..kdone).rev() {
            let mut acc = g[i];
            for j in i + 1..kdone {
                acc -= h[j * (restart + 1) + i] * y[j];
            }
            y[i] = acc / h[i * (restart + 1) + i];
        }
        for (j, vj) in basis[..kdone].iter().enumerate() {
            for i in 0..n {
                x[i] += y[j] * vj[i];
            }
        }
        if converged || total >= max_iters {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;
    use fun3d_core::{Fun3dApp, OptConfig};
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_solver::ptc::PtcConfig;

    fn serial_reference() -> (Mesh, Vec<f64>) {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let mut app = Fun3dApp::new(mesh.clone(), FlowConditions::default(), OptConfig::baseline());
        let (u, stats) = app.run(&PtcConfig {
            dt0: 2.0,
            rtol: 1e-8,
            max_steps: 80,
            ..Default::default()
        });
        assert!(stats.converged);
        (mesh, u)
    }

    fn distributed_solution(mesh: &Mesh, nranks: usize) -> Vec<f64> {
        let setup = GlobalSetup::new(mesh.clone(), FlowConditions::default(), nranks);
        let setup_ref = &setup;
        let results = Universe::run(nranks, move |comm| {
            let mut app = RankApp::new(setup_ref, comm.rank());
            let (u, stats) = solve(&comm, &mut app, 2.0, 1e-8, 80, 1);
            assert!(stats.converged, "rank {} diverged", comm.rank());
            (app.sub.owned.clone(), u)
        });
        let n = mesh.nvertices() * 4;
        let mut ug = vec![0.0; n];
        for (owned, u) in results {
            for (l, &g) in owned.iter().enumerate() {
                ug[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&u[l * 4..l * 4 + 4]);
            }
        }
        ug
    }

    #[test]
    fn distributed_residual_matches_serial_residual() {
        // The masked distributed residual, stitched over ranks, must equal
        // the serial residual of the same state bit-for-bit in structure
        // (same discretization; FP order differs only in gradient halo
        // rounding — expect agreement to tight tolerance).
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let cond = FlowConditions::default();

        // serial residual at a randomized state
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let mut node = fun3d_core::NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&cond.qinf);
        let mut rng = fun3d_util::Rng64::new(77);
        for x in node.q.iter_mut() {
            *x += rng.range_f64(-0.05, 0.05);
        }
        let ug = node.q.clone();
        fun3d_core::gradient::green_gauss(&geom, &bc, &dual.vol, &mut node);
        let mut r_serial = vec![0.0; mesh.nvertices() * 4];
        fun3d_core::flux::serial_aos(&geom, &node, cond.beta, &mut r_serial);
        fun3d_core::bc::residual(&bc, &node, &cond, &mut r_serial);

        // distributed residual at the same state
        let nranks = 3;
        let setup = GlobalSetup::new(mesh.clone(), cond, nranks);
        let setup_ref = &setup;
        let ug_ref = &ug;
        let results = Universe::run(nranks, move |comm| {
            let app = RankApp::new(setup_ref, comm.rank());
            let mut u = vec![0.0; app.nlocal4()];
            for (l, &g) in app.sub.owned.iter().enumerate() {
                u[l * 4..l * 4 + 4]
                    .copy_from_slice(&ug_ref[g as usize * 4..g as usize * 4 + 4]);
            }
            let mut grad = vec![0.0; app.sub.nlocal() * 12];
            let mut r = vec![0.0; app.nowned4()];
            app.residual(&comm, &mut u, &mut grad, &mut r);
            (app.sub.owned.clone(), r)
        });
        let mut r_dist = vec![0.0; mesh.nvertices() * 4];
        for (owned, r) in results {
            for (l, &g) in owned.iter().enumerate() {
                r_dist[g as usize * 4..g as usize * 4 + 4]
                    .copy_from_slice(&r[l * 4..l * 4 + 4]);
            }
        }
        let scale = r_serial.iter().map(|x| x.abs()).fold(0.0, f64::max);
        for i in 0..r_serial.len() {
            assert!(
                (r_serial[i] - r_dist[i]).abs() < 1e-11 * scale.max(1.0),
                "entry {i}: serial {} vs dist {}",
                r_serial[i],
                r_dist[i]
            );
        }
    }

    #[test]
    fn distributed_nonlinear_solve_matches_serial() {
        let (mesh, u_serial) = serial_reference();
        for nranks in [1usize, 3] {
            let u_dist = distributed_solution(&mesh, nranks);
            let diff: f64 = u_serial
                .iter()
                .zip(&u_dist)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let norm: f64 = u_serial.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                diff < 1e-4 * norm,
                "nranks={nranks}: states differ by {diff} (norm {norm})"
            );
        }
    }
}
