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
//! * Jacobian: per-rank ILU of the owned-owned block (zero-overlap
//!   additive Schwarz), refactored in place on a structure built once
//!   when the shared-memory application's reuse rule says so
//!   ([`FactorAge`], capped at [`FACTOR_AGE_CAP`] steps), taking each
//!   owned row from the core's Jacobian row kernel ([`JacobianAt`]) over
//!   the owned vertex's half-edges, ghost columns skipped — no rank
//!   stores its Jacobian;
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
use crate::dsolve::{halo_exchange, halo_exchange_stride};
use fun3d_core::{
    bc_residual, counts, flux_run, green_gauss, time_diagonal, BcData, EdgeGeom, Exec,
    FlowConditions, HalfEdges, Isa, JacobianAt, JacobianRows, NodeAos, Traversal, GRAD_ROW,
};
use fun3d_mesh::{DualMesh, Mesh};
use fun3d_partition::OwnerWritesPlan;
use fun3d_solver::precond::{FactorAge, IluApply, Preconditioner, SerialIlu, FACTOR_AGE_CAP};
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem, PtcStats};
use fun3d_solver::{GmresConfig, Reducer};
use fun3d_sparse::{ilu, IluSymbolic};
use fun3d_util::telemetry;
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
    /// halo exchange); the Jacobian's row kernel walks them too.
    adj: HalfEdges,
    /// Boundary entries of owned vertices, local numbering.
    bc: BcData,
    /// Dual volumes of the local vertices (owned, then ghosts).
    vol: Vec<f64>,
    /// Local state and gradients (owned, then ghosts).
    node: NodeAos,
    /// Local residual rows; the owned ones are the result.
    res: Vec<f64>,
    /// The owned rows of the Jacobian over the owned columns: the block
    /// the Schwarz ILU factors.
    jac_rows: JacobianRows,
    /// The static half of every factorization of that block at one fill
    /// level, built when the first solve names the level.
    symbolic: Option<(usize, IluSymbolic)>,
    precond: Option<SerialIlu>,
    /// When the factors are rebuilt: the application's reuse rule and
    /// cap. Every rank decides alike, from step counts and reduced norms.
    factor_age: FactorAge,
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
        // Every edge at an owned vertex is local, so an owned row's
        // half-edges are all there: its diagonal block is the serial one,
        // and its ghost columns are skipped.
        let jac_rows = JacobianRows::new(&adj, &bc, nowned);

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
            jac_rows,
            symbolic: None,
            precond: None,
            factor_age: FactorAge::new(FACTOR_AGE_CAP),
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

    /// Refreshes the per-rank ILU(`fill`) factors of the owned-owned
    /// block of the first-order Jacobian at the owned state `u`, plus the
    /// pseudo-time diagonal, when the reuse rule says so (a new fill level
    /// always does): the factorization takes each owned row from the row
    /// kernel (the shared-memory application's row, block for block,
    /// without its ghost columns). The ghost values are those of the last
    /// [`RankApp::residual`], which ΨTC always evaluates at this `u`
    /// before it rebuilds.
    pub(crate) fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64], fill: usize) {
        let pattern = self.jac_rows.pattern();
        if self.symbolic.as_ref().map(|(level, _)| *level) != Some(fill) {
            let symbolic = IluSymbolic::new(pattern, &ilu::symbolic_iluk(pattern, fill));
            self.symbolic = Some((fill, symbolic));
            self.precond = None;
            self.factor_age.reset();
        }
        if !self.factor_age.refactor_now() {
            return;
        }
        let n = self.nowned4();
        self.node.q[..n].copy_from_slice(u);
        let (_, symbolic) = self.symbolic.as_ref().expect("built above");
        // One kernel, as in the application: the factorization takes each
        // owned row from the row kernel when it reaches the row.
        let _k = telemetry::kernel("ilu", counts::ilu_build(symbolic, self.geom.nedges()));
        let jac = JacobianAt::new(
            &self.jac_rows,
            &self.adj,
            &self.bc,
            &self.setup.cond,
            &self.node.q,
            time_diag,
        );
        match &mut self.precond {
            Some(p) => {
                let factors = Arc::get_mut(&mut p.factors).expect("factors never shared");
                symbolic.refactor(&jac, factors);
            }
            None => {
                let factors = Arc::new(symbolic.factor(&jac));
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

    fn on_step(&mut self, step: usize, res_norm: f64, _dt: f64) {
        self.app.factor_age.on_step(step, res_norm);
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
            max_iters: 200,
            ..PtcConfig::default().gmres
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
        // One preconditioner build at one state. A rank's row kernel walks
        // its owned vertices' half-edges, and every edge at an owned
        // vertex is local and in global order, with the ghosts' state
        // halo-exchanged by the residual before it: so the rank's owned
        // rows over its owned columns are the shared-memory application's
        // blocks, bit for bit, on one rank (the whole matrix) and on three.
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
                // The block the rank factored, each owned row in global
                // numbering: its columns and the bits of their blocks.
                let (rows, q) = (&app.jac_rows, &app.node.q);
                let jac = JacobianAt::new(rows, &app.adj, &app.bc, &cond, q, &scratch).assemble();
                let owned = &app.sub.owned;
                (0..app.sub.nowned())
                    .map(|lr| {
                        let blocks = (jac.row_ptr[lr]..jac.row_ptr[lr + 1]).map(|k| {
                            (owned[jac.col_idx[k] as usize], jac.block(k).map(f64::to_bits))
                        });
                        (owned[lr] as usize, blocks.collect::<Vec<_>>(), owned.clone())
                    })
                    .collect::<Vec<_>>()
            });
            let mut rows = 0;
            for (g, blocks, owned) in parts.into_iter().flatten() {
                rows += 1;
                let owned_cols = (want.row_ptr[g]..want.row_ptr[g + 1])
                    .filter(|&k| owned.binary_search(&want.col_idx[k]).is_ok());
                assert_eq!(blocks.len(), owned_cols.count(), "P = {nranks}, row {g}");
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
    fn a_rank_solve_factors_once_per_rank() {
        // Every rank asks the one reuse rule with the same step counts and
        // reduced norms: at the default cap each factors once, and the
        // ranks step identically.
        telemetry::set_level(telemetry::Level::Counters);
        let mesh = reordered_mesh();
        for nranks in [2usize, 3] {
            let setup = GlobalSetup::new(mesh.clone(), FlowConditions::default(), nranks);
            let setup = &setup;
            let runs = Universe::run(nranks, move |comm| {
                let mut app = RankApp::new(setup, comm.rank());
                // A rank's kernels record on its own thread.
                let before = telemetry::local_counters();
                let (_, stats) = solve(&comm, &mut app, 2.0, 1e-8, 80, 1);
                let kernels = telemetry::local_counters().since(&before);
                (stats, kernels.get("ilu").map_or(0, |c| c.calls))
            });
            let bits = |s: &PtcStats| s.res_history.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            let (first, _) = &runs[0];
            let log = telemetry::flight_log();
            for (rank, (s, factorizations)) in runs.iter().enumerate() {
                let at = format!("P = {nranks}, rank {rank}");
                assert!(s.converged && s.time_steps > 1, "{at}: {:?}", s.res_history);
                assert_eq!(*factorizations, 1, "{at}: factorizations");
                let logged: Vec<_> = log
                    .solve(s.solve_id)
                    .into_iter()
                    .filter(|e| matches!(e.kind, telemetry::EventKind::IluRefactor { .. }))
                    .collect();
                assert_eq!(logged.len(), 1, "{at}: ilu_refactor events");
                assert_eq!(logged[0].rank, rank as u64, "{at}: the rank tag");
                assert_eq!(bits(s), bits(first), "{at}: res_history");
                assert_eq!(s.linear_iters, first.linear_iters, "{at}: linear_iters");
            }
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
            let runs = Universe::run(nranks, move |comm| {
                let mut app = RankApp::new(setup, comm.rank());
                let (u, stats) = solve(&comm, &mut app, 2.0, 1e-8, 80, 1);
                assert!(stats.converged, "rank {} diverged", comm.rank());
                ((app.sub.owned.clone(), u), stats)
            });
            // Every rank steps identically: the forcing term and every
            // stopping decision come from reduced norms.
            let bits = |s: &PtcStats| s.res_history.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            let (_, first) = &runs[0];
            for (rank, (_, s)) in runs.iter().enumerate() {
                let at = format!("P = {nranks}, rank {rank}");
                assert_eq!(s.time_steps, first.time_steps, "{at}: time_steps");
                assert_eq!(s.linear_iters, first.linear_iters, "{at}: linear_iters");
                assert_eq!(bits(s), bits(first), "{at}: res_history");
            }
            let parts = runs.into_iter().map(|(part, _)| part).collect();
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
