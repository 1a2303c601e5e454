//! The distributed nonlinear application: rank-parallel PETSc-FUN3D.
//!
//! Each rank owns a subdomain of the mesh and runs the full ΨNKS stack
//! through real message passing — with the kernels and the solver of the
//! shared-memory application, not copies of them. A rank is one owner of
//! an owner-writes plan, so between its halo exchanges it calls the
//! core's kernels on an `EdgeGeom`/`NodeAos`/`BcData` in local numbering
//! (the masked flux loop over its one share, the gradient gather over the
//! half-edges of its owned vertices); and it is a [`PtcProblem`] whose
//! [`reducer`](PtcProblem::reducer) is the communicator, so
//! [`fun3d_solver::ptc::solve`] drives it like any other:
//!
//! * residual: halo-exchange state → [`green_gauss`] over the
//!   owned vertices' half-edges → halo-exchange gradients →
//!   [`flux_run`] on the rank's one owner-writes share → local boundary
//!   fluxes;
//! * Jacobian: [`jacobian_assemble`] over the local edges (the owned
//!   rows, columns over owned + ghost, are the ones kept), pseudo-time
//!   shift, per-rank ILU of the owned-owned block (zero-overlap additive
//!   Schwarz), refactored in place on a structure built once;
//! * linear solve: the solver's matrix-free GMRES — the operator action
//!   finite-differences the distributed residual; inner products
//!   allreduce through the reducer;
//! * pseudo-transient continuation with SER time-step growth, with the
//!   residual norm agreed by allreduce so every rank steps identically.
//!
//! This is the execution model of the paper's multi-node experiments
//! (Section VI.B): MPI-only when every rank is one core, "Hybrid" when a
//! rank spans a socket. In-process, ranks are threads.

use crate::comm::Comm;
use crate::decompose::{Decomposition, Subdomain};
use crate::dsolve::{halo_exchange, halo_exchange_stride, OwnedBlock};
use fun3d_core::{
    add_time_diagonal, bc_residual, flux_run, green_gauss, jacobian_assemble, time_diagonal,
    BcData, EdgeGeom, Exec, FlowConditions, HalfEdges, Isa, JacobianSlots, NodeAos, Traversal,
    GRAD_ROW,
};
use fun3d_mesh::{DualMesh, Mesh};
use fun3d_partition::OwnerWritesPlan;
use fun3d_solver::precond::{IluApply, Preconditioner, SerialIlu};
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem, PtcStats};
use fun3d_solver::{GmresConfig, Reducer};
use fun3d_sparse::{ilu, Bcsr4, IluSymbolic};
use std::sync::Arc;

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
        let decomp = Decomposition::build(mesh.nvertices(), geom.edges(), nranks);
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
    /// The subdomain's edges in local vertex numbering. Endpoint order is
    /// the global edge's, so `a < b` need not hold locally.
    geom: EdgeGeom,
    /// A rank is one owner: a plan of one share, every local edge in
    /// order under the subdomain's write masks.
    plan: OwnerWritesPlan,
    /// The half-edges of the owned vertices (ghost gradients arrive by
    /// halo exchange).
    adj: HalfEdges,
    /// Boundary entries of owned vertices, local numbering.
    bc: BcData,
    /// Dual volumes of the local vertices (owned, then ghosts).
    vol: Vec<f64>,
    /// Local state and gradients (owned, then ghosts).
    node: NodeAos,
    /// Local residual rows; the owned ones are the result.
    res: Vec<f64>,
    /// The first-order Jacobian over the local vertices (owned, then
    /// ghosts); its owned rows are the rank's.
    jac: Bcsr4,
    /// Where assembly adds each local edge's and vertex's blocks.
    slots: JacobianSlots,
    /// The owned-owned block of `jac` the Schwarz ILU factors.
    block: OwnedBlock,
    /// The static half of every factorization of `block` at one fill
    /// level, built when the first solve names the level.
    symbolic: Option<(usize, IluSymbolic)>,
    precond: Option<SerialIlu>,
}

impl<'a> RankApp<'a> {
    /// Builds rank `rank`'s local problem.
    pub fn new(setup: &'a GlobalSetup, rank: usize) -> RankApp<'a> {
        let sub = setup.decomp.subdomains[rank].clone();
        let (nowned, nlocal) = (sub.nowned(), sub.nlocal());
        // The subdomain's indices are checked here, once: local endpoints
        // against the local vertex count, edge ids against the edge list.
        let pick = |src: &[f64]| sub.edge_gids.iter().map(|&g| src[g as usize]).collect();
        let geom = EdgeGeom::try_new(
            nlocal,
            sub.edges.clone(),
            setup.geom.normals().map(pick),
            setup.geom.deltas().map(pick),
        )
        .unwrap_or_else(|e| panic!("rank {rank}: local edge geometry: {e}"));
        let every_edge: Vec<u32> = (0..sub.edges.len() as u32).collect();
        let masks = sub.write_masks.clone();
        let plan = OwnerWritesPlan::try_from_shares(&sub.edges, vec![every_edge], vec![masks])
            .unwrap_or_else(|e| panic!("rank {rank}: owner-writes share: {e}"));
        // `owned` ascends, and local ids count along it.
        let mut bc = BcData::default();
        for i in 0..setup.bc.len() {
            if let Ok(l) = sub.owned.binary_search(&setup.bc.vertex[i]) {
                bc.vertex.push(l as u32);
                bc.nx.push(setup.bc.nx[i]);
                bc.ny.push(setup.bc.ny[i]);
                bc.nz.push(setup.bc.nz[i]);
                bc.tag.push(setup.bc.tag[i]);
            }
        }
        let local_gids = sub.owned.iter().chain(&sub.ghosts);
        let vol: Vec<f64> = local_gids.map(|&g| setup.dual.vol[g as usize]).collect();
        let adj = HalfEdges::try_build(&geom, &bc, &vol, nowned)
            .unwrap_or_else(|e| panic!("rank {rank}: half-edges: {e}"));
        // Jacobian pattern: every local vertex over its local-edge
        // neighbours, all of which `jacobian_assemble` writes. Every edge
        // at an owned vertex is local, so the owned rows come out whole; a
        // ghost row holds only the halves of cut edges that the ghost's
        // own rank assembles too, and the owned-owned block drops it.
        let jac = Bcsr4::from_edges(nlocal, &sub.edges);
        let slots = JacobianSlots::new(&jac, &sub.edges);
        let block = OwnedBlock::new(&jac, nowned);

        RankApp {
            setup,
            sub,
            geom,
            plan,
            adj,
            bc,
            vol,
            node: NodeAos::zeros(nlocal),
            res: vec![0.0; nlocal * 4],
            jac,
            slots,
            block,
            symbolic: None,
            precond: None,
        }
    }

    /// Owned scalar unknowns.
    pub(crate) fn nowned4(&self) -> usize {
        self.sub.nowned() * 4
    }

    /// Free-stream state of the owned unknowns.
    pub(crate) fn initial_state(&self) -> Vec<f64> {
        self.setup.cond.qinf.repeat(self.sub.nowned())
    }

    /// Distributed residual of the owned state `u`, into the owned
    /// residual `r`: the shared-memory kernels between two halo
    /// exchanges.
    pub(crate) fn residual(&mut self, comm: &Comm, u: &[f64], r: &mut [f64]) {
        let n = self.nowned4();
        assert_eq!(u.len(), n);
        assert_eq!(r.len(), n);
        // A rank is one owner: a single share, walked on this thread.
        let walk = Traversal::owner(&self.geom, &self.plan);
        let isa = Isa::detect();
        self.node.q[..n].copy_from_slice(u);
        halo_exchange(comm, &self.sub, &mut self.node.q);
        green_gauss(isa, Exec::Caller, &self.adj, &mut self.node);
        halo_exchange_stride(comm, &self.sub, &mut self.node.grad, GRAD_ROW);
        self.res.fill(0.0);
        let beta = self.setup.cond.beta;
        flux_run(Some(isa), Exec::Caller, walk, &self.node, beta, &mut self.res);
        bc_residual(&self.bc, &self.node, &self.setup.cond, &mut self.res);
        r.copy_from_slice(&self.res[..n]);
    }

    /// Assembles the first-order Jacobian at the owned state `u` with
    /// [`jacobian_assemble`] over the local edges (the owned rows are
    /// the shared-memory application's, block for block), adds the
    /// pseudo-time diagonal to the owned rows, and refreshes the per-rank
    /// ILU(`fill`) factors of the owned-owned block. The ghost values are
    /// those of the last [`RankApp::residual`], which ΨTC always
    /// evaluates at this `u` before it rebuilds.
    pub(crate) fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64], fill: usize) {
        let n = self.nowned4();
        assert_eq!(time_diag.len(), n);
        self.node.q[..n].copy_from_slice(u);
        let cond = &self.setup.cond;
        jacobian_assemble(&self.geom, &self.bc, &self.node, cond, &self.slots, &mut self.jac);
        add_time_diagonal(&self.slots, &mut self.jac, time_diag);

        let block = self.block.refresh(&self.jac);
        if self.symbolic.as_ref().map(|(level, _)| *level) != Some(fill) {
            let symbolic = IluSymbolic::new(block, &ilu::symbolic_iluk(block, fill));
            self.symbolic = Some((fill, symbolic));
            self.precond = None;
        }
        let (_, symbolic) = self.symbolic.as_ref().expect("built above");
        match &mut self.precond {
            Some(p) => {
                let factors = Arc::get_mut(&mut p.factors).expect("factors never shared");
                symbolic.refactor(block, factors);
            }
            None => {
                let factors = Arc::new(symbolic.factor(block));
                self.precond = Some(SerialIlu::from_factors(factors, IluApply::Serial));
            }
        }
    }
}

/// A rank's problem bound to its communicator — what ΨTC drives.
struct OnComm<'c, 'a> {
    comm: &'c Comm,
    app: &'c mut RankApp<'a>,
    fill: usize,
}

impl PtcProblem for OnComm<'_, '_> {
    fn dim(&self) -> usize {
        self.app.nowned4()
    }

    fn residual(&mut self, u: &[f64], r: &mut [f64]) {
        self.app.residual(self.comm, u, r);
    }

    fn time_diag(&self, dt: f64, out: &mut [f64]) {
        time_diagonal(&self.app.vol, self.app.setup.cond.beta, dt, out);
    }

    fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64]) {
        self.app.build_preconditioner(u, time_diag, self.fill);
    }

    fn preconditioner(&self) -> &dyn Preconditioner {
        self.app.precond.as_ref().expect("preconditioner not built")
    }

    fn reducer(&self) -> Reducer<'_> {
        Some(self.comm)
    }
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
) -> (Vec<f64>, PtcStats) {
    let config = PtcConfig {
        dt0,
        rtol,
        max_steps,
        gmres: GmresConfig {
            rtol: 1e-3,
            max_iters: 200,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut u = app.initial_state();
    let stats = ptc::solve(&mut OnComm { comm, app, fill }, &mut u, &config);
    (u, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;
    use fun3d_core::{Fun3dApp, OptConfig};
    use fun3d_mesh::generator::MeshPreset;

    fn reordered_mesh() -> Mesh {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        mesh
    }

    /// Stitches per-rank owned vectors into the global one.
    fn stitch(nv: usize, parts: Vec<(Vec<u32>, Vec<f64>)>) -> Vec<f64> {
        let mut global = vec![0.0; nv * 4];
        for (owned, x) in parts {
            for (l, &g) in owned.iter().enumerate() {
                global[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&x[l * 4..l * 4 + 4]);
            }
        }
        global
    }

    /// Free stream plus a fixed random perturbation, global numbering.
    fn perturbed_state(app: &Fun3dApp) -> Vec<f64> {
        let mut ug = app.initial_state();
        let mut rng = fun3d_util::Rng64::new(77);
        for x in ug.iter_mut() {
            *x += rng.range_f64(-0.05, 0.05);
        }
        ug
    }

    /// The owned part of a global vector, in the rank's local order.
    fn owned_part(app: &RankApp, ug: &[f64]) -> Vec<f64> {
        let owned = app.sub.owned.iter();
        owned.flat_map(|&g| ug[g as usize * 4..g as usize * 4 + 4].to_vec()).collect()
    }

    #[test]
    fn distributed_residual_matches_serial_residual() {
        // The rank residual, stitched over ranks, is the shared-memory
        // application's at the same state: bit for bit on one rank (the
        // same kernels over the same edge order), and to rounding on
        // three (cut edges reorder each vertex's accumulation).
        let mesh = reordered_mesh();
        let cond = FlowConditions::default();
        let mut serial = Fun3dApp::new(mesh.clone(), cond, OptConfig::optimized(1));
        let ug = perturbed_state(&serial);
        let mut r_serial = vec![0.0; ug.len()];
        serial.residual(&ug, &mut r_serial);

        for nranks in [1usize, 3] {
            let setup = GlobalSetup::new(mesh.clone(), cond, nranks);
            let (setup, ug) = (&setup, &ug);
            let parts = Universe::run(nranks, move |comm| {
                let mut app = RankApp::new(setup, comm.rank());
                let u = owned_part(&app, ug);
                let mut r = vec![0.0; app.nowned4()];
                app.residual(&comm, &u, &mut r);
                (app.sub.owned.clone(), r)
            });
            let r_dist = stitch(mesh.nvertices(), parts);
            if nranks == 1 {
                assert_eq!(
                    r_dist, r_serial,
                    "one rank must be the serial kernels exactly"
                );
            }
            let scale = r_serial.iter().map(|x| x.abs()).fold(1.0, f64::max);
            for (i, (s, d)) in r_serial.iter().zip(&r_dist).enumerate() {
                assert!(
                    (s - d).abs() < 1e-11 * scale,
                    "entry {i}: serial {s} vs dist {d}"
                );
            }
        }
    }

    #[test]
    fn rank_jacobian_is_the_serial_assembly() {
        // One preconditioner build at one state. A rank assembles with the
        // core's loop over its local edges, and every edge at an owned
        // vertex is local and in global order, with the ghosts' state
        // halo-exchanged by the residual before it: so the owned rows are
        // the shared-memory application's blocks, bit for bit, on one rank
        // (the whole matrix) and on three.
        let mesh = reordered_mesh();
        let cond = FlowConditions::default();
        let dt = 3.0;
        let mut serial = Fun3dApp::new(mesh.clone(), cond, OptConfig::optimized(1));
        let ug = perturbed_state(&serial);
        let mut scratch = vec![0.0; ug.len()];
        serial.residual(&ug, &mut scratch);
        serial.time_diag(dt, &mut scratch);
        serial.build_preconditioner(&ug, &scratch);
        let want = serial.jacobian_matrix();

        for nranks in [1usize, 3] {
            let setup = GlobalSetup::new(mesh.clone(), cond, nranks);
            let (setup, ug) = (&setup, &ug);
            let parts = Universe::run(nranks, move |comm| {
                let mut app = RankApp::new(setup, comm.rank());
                let u = owned_part(&app, ug);
                let mut scratch = vec![0.0; app.nowned4()];
                app.residual(&comm, &u, &mut scratch);
                time_diagonal(&app.vol, cond.beta, dt, &mut scratch);
                app.build_preconditioner(&u, &scratch, 1);
                // Each owned row in global numbering: its columns and the
                // bits of their blocks.
                let l2g: Vec<u32> = app.sub.owned.iter().chain(&app.sub.ghosts).copied().collect();
                let jac = &app.jac;
                (0..app.sub.nowned())
                    .map(|lr| {
                        let blocks = (jac.row_ptr[lr]..jac.row_ptr[lr + 1]).map(|k| {
                            (l2g[jac.col_idx[k] as usize], jac.block(k).map(f64::to_bits))
                        });
                        (l2g[lr] as usize, blocks.collect::<Vec<_>>())
                    })
                    .collect::<Vec<_>>()
            });
            let mut rows = 0;
            for (g, blocks) in parts.into_iter().flatten() {
                rows += 1;
                assert_eq!(blocks.len(), want.row_ptr[g + 1] - want.row_ptr[g], "P = {nranks}, row {g}");
                for (col, bits) in blocks {
                    let k = want.find(g, col).expect("a column of the serial row");
                    let serial_bits = want.block(k).map(f64::to_bits);
                    assert_eq!(bits, serial_bits, "P = {nranks}, block ({g}, {col})");
                }
            }
            assert_eq!(rows, want.nrows(), "P = {nranks}: every row owned once");
        }
    }

    #[test]
    fn distributed_nonlinear_solve_matches_serial() {
        let mesh = reordered_mesh();
        let cond = FlowConditions::default();
        let mut app = Fun3dApp::new(mesh.clone(), cond, OptConfig::baseline());
        let (u_serial, stats) = app.run(&PtcConfig {
            dt0: 2.0,
            rtol: 1e-8,
            max_steps: 80,
            ..Default::default()
        });
        assert!(stats.converged);
        let norm: f64 = u_serial.iter().map(|v| v * v).sum::<f64>().sqrt();
        for nranks in [1usize, 3] {
            let setup = GlobalSetup::new(mesh.clone(), cond, nranks);
            let setup = &setup;
            let parts = Universe::run(nranks, move |comm| {
                let mut app = RankApp::new(setup, comm.rank());
                let (u, stats) = solve(&comm, &mut app, 2.0, 1e-8, 80, 1);
                assert!(stats.converged, "rank {} diverged", comm.rank());
                (app.sub.owned.clone(), u)
            });
            let u_dist = stitch(mesh.nvertices(), parts);
            let diff: f64 = u_serial
                .iter()
                .zip(&u_dist)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(
                diff < 1e-4 * norm,
                "nranks={nranks}: states differ by {diff} (norm {norm})"
            );
        }
    }
}
