//! The full PETSc-FUN3D application: mesh + kernels + ΨNKS solver with
//! per-kernel telemetry counters (time, bytes, flops) and selectable
//! optimization level.

use crate::bc::{self, BcData};
use crate::edge_loop::{Exec, Traversal, PREFETCH_DIST};
use crate::euler::FlowConditions;
use crate::geom::{EdgeGeom, HalfEdges, NodeAos, TiledGeom};
use crate::jacobian::{self, JacobianAt, JacobianRows, LastBuild};
use crate::{flux, gradient};
use fun3d_machine::MachineSpec;
use fun3d_mesh::{rcm, DualMesh, Mesh};
use fun3d_partition::{
    partition_graph, EdgeTiling, MultilevelConfig, OwnerWritesPlan, TilingConfig,
};
use fun3d_simd::Isa;
use fun3d_solver::precond::{FactorAge, IluApply, Preconditioner, SerialIlu, FACTOR_AGE_CAP};
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem, PtcStats};
use fun3d_solver::{ExecMode, FluxScheme};
use fun3d_sparse::{ilu, Bcsr4, IluFactors, IluSymbolic, P2pSchedule};
use fun3d_threads::{P2pProgress, TeamMember, TeamSlice, ThreadPool};
use fun3d_util::telemetry;
use std::sync::{Arc, OnceLock};

/// The optimization configuration of a run — the knobs the paper's
/// "baseline" vs "optimized" comparison turns. With more than one thread
/// the owner-writes plan partitions the vertices with the multilevel
/// (METIS-like) partitioner, and the ILU recurrences — the triangular
/// solves and the numeric refactorization — run on level-interleaved row
/// ownership with sparsified point-to-point synchronization (P2P),
/// bitwise the serial sweeps.
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Worker threads (1 = serial execution everywhere).
    pub nthreads: usize,
    /// Run the flux kernel's lane body (4-edge SIMD batches, with software
    /// prefetch where the traversal streams) instead of the scalar one.
    pub use_simd: bool,
    /// ILU fill level (PETSc-FUN3D default is 1).
    pub ilu_fill: usize,
    /// Limit the reconstruction gradients with Venkatakrishnan's smooth
    /// limiter, `K = 0.3` (the "variable-order" part of the paper's Roe
    /// scheme; Barth–Jespersen's hard clip stalls steady solves).
    pub use_limiter: bool,
    /// The most pseudo-time steps one ILU factorization serves: the age
    /// cap of the solver's one reuse rule ([`FactorAge`]), which also
    /// refactors on a solve's first step and after a step whose residual
    /// did not fall. 1 refactors every step, the paper's configuration
    /// (`baseline`); `optimized` uses KINSOL's [`FACTOR_AGE_CAP`] of 10.
    /// The paper notes factor reuse "is a problem-dependent optimization
    /// that is worth pursuing".
    pub ilu_lag: usize,
    /// Use weighted least-squares nodal gradients (FUN3D's production
    /// scheme; exact for linear fields at all vertices) instead of
    /// edge-midpoint Green-Gauss.
    pub use_lsq_gradients: bool,
    /// Linear-solve execution scheme: serial, persistent SPMD team
    /// regions, or `Auto` (pick per solve from the machine model +
    /// measured sync costs).
    pub exec: ExecMode,
    /// Residual-path edge-kernel scheme: streaming (the paper's
    /// kernels), cache-blocked tiling, or `Auto` (tile when the node
    /// working set overflows the private L2 of the cores in use).
    pub flux: FluxScheme,
}

impl OptConfig {
    /// The out-of-the-box single-threaded configuration.
    pub fn baseline() -> OptConfig {
        OptConfig {
            nthreads: 1,
            use_simd: false,
            ilu_fill: 1,
            use_limiter: false,
            ilu_lag: 1,
            use_lsq_gradients: false,
            exec: ExecMode::Serial,
            flux: FluxScheme::Stream,
        }
    }

    /// The fully optimized configuration of Section VI.A.
    pub fn optimized(nthreads: usize) -> OptConfig {
        OptConfig {
            nthreads,
            use_simd: true,
            ilu_fill: 1,
            use_limiter: false,
            ilu_lag: FACTOR_AGE_CAP,
            use_lsq_gradients: false,
            // Let the policy model pick serial/team per solve:
            // hard-coding team mode here is exactly the thread-scaling
            // inversion on small meshes (sync cost > parallel payoff).
            exec: ExecMode::Auto,
            // Same reasoning for the edge kernels: tile only the meshes
            // whose node working set actually misses cache.
            flux: FluxScheme::Auto,
        }
    }
}

/// The flux kernel's edge traversal and where it runs, from what
/// [`Fun3dApp::with_pool`] resolved: tiles if the scheme is tiled (on the
/// pool only while its barriers can spin), else the owner-writes plan on
/// the pool, else the prefetching stream on the calling thread.
fn edge_walk<'a>(
    geom: &'a EdgeGeom,
    pool: Option<&'a ThreadPool>,
    plan: &'a Option<OwnerWritesPlan>,
    tiles: &'a Option<TiledGeom>,
) -> (Exec<'a>, Traversal<'a>) {
    match (tiles, pool, plan) {
        (Some(geom), pool, _) => {
            (pool.map_or(Exec::Caller, Exec::unless_oversubscribed), Traversal::Tiled { geom })
        }
        (None, Some(pool), Some(plan)) => (Exec::Pool(pool), Traversal::owner(geom, plan)),
        _ => (Exec::Caller, Traversal::Stream { geom, prefetch: Some(PREFETCH_DIST) }),
    }
}

/// What the P2P recurrences run on at T ≥ 2, built once per application
/// from the factor patterns: every preconditioner of every solve shares
/// the sweep schedules, and every refactorization runs the forward one.
struct P2pSchedules {
    fwd: Arc<P2pSchedule>,
    bwd: Arc<P2pSchedule>,
    /// The refactorization's progress counters, each thread's sweeps
    /// recorded under the kernel counter `ilu.p2p_wait`.
    ilu_progress: P2pProgress,
}

/// The application's preconditioner: the solver's ILU preconditioner,
/// each application recorded as one `trsv` kernel call.
struct AppPrecond {
    /// Its factors are shared with the serve tier's cross-request factor
    /// cache: a seeded or captured first build is the same allocation,
    /// never a copy.
    ilu: SerialIlu,
}

impl Preconditioner for AppPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _k = telemetry::kernel("trsv", crate::counts::trsv(&self.ilu.factors));
        self.ilu.apply(r, z);
    }

    fn dim(&self) -> usize {
        self.ilu.dim()
    }

    unsafe fn apply_team(&self, tm: &TeamMember, r: TeamSlice, z: TeamSlice) {
        // Leader-only: one record per application, like the serial sweep.
        let _k = (tm.tid() == 0)
            .then(|| telemetry::kernel("trsv", crate::counts::trsv(&self.ilu.factors)));
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { self.ilu.apply_team(tm, r, z) };
    }
}

/// What a mesh alone decides: the dual metrics, the streaming edge
/// geometry, the boundary table, the half-edges the gradient and
/// Jacobian row kernels gather over, and the Jacobian's pattern. None of
/// it reads the configuration, the flow conditions or the state, so
/// every application on one mesh can share one copy
/// ([`Fun3dApp::sharing_mesh`]); the serve tier shares it between the
/// apps a team holds on one mesh.
pub struct MeshArtifacts {
    /// Median-dual metrics (its `vol` is the control volumes).
    pub dual: DualMesh,
    /// Streaming edge geometry.
    pub geom: EdgeGeom,
    /// Boundary table.
    pub bc: BcData,
    /// What the gradient kernels gather over, and the Jacobian's row
    /// kernel too.
    adj: HalfEdges,
    /// The Jacobian's pattern and where each half-edge writes in its row.
    jac_rows: JacobianRows,
}

impl MeshArtifacts {
    fn build(mesh: &Mesh) -> MeshArtifacts {
        let dual = DualMesh::build(mesh);
        let geom = EdgeGeom::build(mesh, &dual);
        let bc = BcData::build(&dual);
        let adj = HalfEdges::build(&geom, &bc, &dual.vol);
        let jac_rows = JacobianRows::new(&adj, &bc, mesh.nvertices());
        MeshArtifacts {
            dual,
            geom,
            bc,
            adj,
            jac_rows,
        }
    }
}

/// The assembled FUN3D application.
pub struct Fun3dApp {
    /// The (reordered) mesh.
    pub mesh: Mesh,
    /// What the mesh alone decides, possibly shared with other apps on
    /// the same mesh.
    shared: Arc<MeshArtifacts>,
    /// Flow conditions.
    pub cond: FlowConditions,
    /// Optimization configuration.
    pub cfg: OptConfig,
    node: NodeAos,
    /// What [`Fun3dApp::jacobian_matrix`] assembles from.
    last_build: LastBuild,
    /// The ILU fill pattern, computed when first asked for.
    ilu_pattern: OnceLock<Vec<Vec<u32>>>,
    /// The static half of every factorization of the Jacobian.
    ilu_symbolic: IluSymbolic,
    pool: Option<Arc<ThreadPool>>,
    plan: Option<OwnerWritesPlan>,
    /// What the residual path walks when its scheme resolved to tiled.
    tiles: Option<TiledGeom>,
    /// The lanes the edge kernels run on.
    isa: Isa,
    schedules: Option<P2pSchedules>,
    precond: Option<AppPrecond>,
    lsq: Option<gradient::LsqGradient>,
    /// Residual evaluations performed (flux kernel invocations).
    pub residual_evals: usize,
    /// When the factors are rebuilt: the solver's one reuse rule, capped
    /// at `cfg.ilu_lag` steps.
    factor_age: FactorAge,
    /// Factors to seed the *first* preconditioner build of the next
    /// solve with, skipping its Jacobian assembly + factorization. Only
    /// bitwise-safe when the seed came from the same first build: ΨTC's
    /// first build always happens at `dt = dt0` on the free-stream
    /// state, and [`JacobianAt`] reads neither the limiter, the LSQ
    /// weights nor the lag, so the first factors are a pure function of
    /// (mesh, `ilu_fill`, conditions, dt0) — the serve tier keys its
    /// factor cache on exactly that. The solve's operator is
    /// matrix-free (`FdJacobian`), so the skipped assembled matrix feeds
    /// nothing else.
    factor_seed: Option<Arc<IluFactors>>,
    /// First-build factors captured for the cross-request cache
    /// (`None` unless [`Fun3dApp::capture_first_factors`] is on).
    first_factors: Option<Arc<IluFactors>>,
    capture_first: bool,
}

// An application can move to another thread: its kernels record into
// the per-thread telemetry counters and share nothing thread-bound.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Fun3dApp>();
};

impl Fun3dApp {
    /// Reorders a mesh the way the paper's optimized runs do: RCM vertex
    /// numbering plus sorted edges (the generator scrambles on purpose).
    pub fn rcm_reorder(mesh: &mut Mesh) {
        let graph = mesh.vertex_graph();
        let perm = rcm(&graph);
        mesh.renumber(&perm);
    }

    /// Builds the application over a mesh. The mesh should already be
    /// RCM-reordered for the optimized configurations.
    pub fn new(mesh: Mesh, cond: FlowConditions, cfg: OptConfig) -> Fun3dApp {
        let pool = (cfg.nthreads > 1).then(|| Arc::new(ThreadPool::new(cfg.nthreads)));
        Fun3dApp::with_pool(mesh, cond, cfg, pool)
    }

    /// [`Fun3dApp::new`] with the worker pool supplied by the caller —
    /// the serve tier hands one persistent per-team pool to every app it
    /// builds instead of churning a fresh pool per request. The pool
    /// size must match `cfg.nthreads`; `None` requires a serial config.
    pub fn with_pool(
        mesh: Mesh,
        cond: FlowConditions,
        cfg: OptConfig,
        pool: Option<Arc<ThreadPool>>,
    ) -> Fun3dApp {
        let shared = Arc::new(MeshArtifacts::build(&mesh));
        Fun3dApp::assemble(mesh, shared, cond, cfg, pool)
    }

    /// [`Fun3dApp::with_pool`] on `donor`'s mesh: a clone of its mesh and
    /// its [`MeshArtifacts`] themselves, shared, so only what `cfg`
    /// shapes is built. Bit for bit the app a fresh build on that mesh
    /// gives.
    pub fn sharing_mesh(
        donor: &Fun3dApp,
        cond: FlowConditions,
        cfg: OptConfig,
        pool: Option<Arc<ThreadPool>>,
    ) -> Fun3dApp {
        let mesh = donor.mesh.clone();
        Fun3dApp::assemble(mesh, Arc::clone(&donor.shared), cond, cfg, pool)
    }

    /// The one constructor body: builds everything `cfg` shapes — the ILU
    /// structure, the LSQ weights, the owner-writes plan, the tiles and
    /// the P2P schedules — over `shared`, the artifacts of `mesh`.
    fn assemble(
        mesh: Mesh,
        shared: Arc<MeshArtifacts>,
        cond: FlowConditions,
        cfg: OptConfig,
        pool: Option<Arc<ThreadPool>>,
    ) -> Fun3dApp {
        match &pool {
            Some(p) => assert_eq!(
                p.size(),
                cfg.nthreads,
                "supplied pool size must match cfg.nthreads"
            ),
            None => assert_eq!(cfg.nthreads, 1, "threaded config needs a pool"),
        }
        let MeshArtifacts { geom, adj, jac_rows, .. } = &*shared;
        let nv = mesh.nvertices();
        let node = NodeAos::zeros(nv);
        let ilu_symbolic = IluSymbolic::new(
            jac_rows.pattern(),
            &ilu::symbolic_iluk(jac_rows.pattern(), cfg.ilu_fill),
        );

        // Residual-path scheme: Auto weighs the node working set against
        // the private L2 of the cores in use.
        let machine = MachineSpec::host();
        let scheme = cfg.flux.resolve(&machine, nv, cfg.nthreads);
        let tiles = (scheme == FluxScheme::Tiled).then(|| {
            let tiling = EdgeTiling::build(nv, geom.edges(), &TilingConfig::for_machine(&machine));
            TiledGeom::new(tiling, geom)
        });

        let plan = pool.as_ref().map(|_| {
            let graph = fun3d_mesh::Graph::from_edges(nv, geom.edges());
            let part = partition_graph(&graph, cfg.nthreads, &MultilevelConfig::default());
            OwnerWritesPlan::build(geom.edges(), &part, cfg.nthreads)
        });

        // Schedules depend only on the static factor patterns.
        let schedules = pool.as_ref().map(|_| {
            let fwd = P2pSchedule::forward(ilu_symbolic.l_pattern(), cfg.nthreads);
            let bwd = P2pSchedule::backward(ilu_symbolic.u_pattern(), cfg.nthreads);
            P2pSchedules {
                ilu_progress: fwd.progress().attributed("ilu.p2p_wait"),
                fwd: Arc::new(fwd),
                bwd: Arc::new(bwd),
            }
        });

        let lsq = cfg
            .use_lsq_gradients
            .then(|| gradient::LsqGradient::build(&mesh.coords, adj));

        Fun3dApp {
            mesh,
            shared,
            cond,
            cfg,
            node,
            last_build: LastBuild::new(nv * 4),
            ilu_pattern: OnceLock::new(),
            ilu_symbolic,
            pool,
            plan,
            tiles,
            isa: Isa::detect(),
            schedules,
            precond: None,
            lsq,
            residual_evals: 0,
            factor_age: FactorAge::new(cfg.ilu_lag),
            factor_seed: None,
            first_factors: None,
            capture_first: false,
        }
    }

    /// What the mesh alone decides: one allocation for this app and
    /// every app [`Fun3dApp::sharing_mesh`] built from it or it from.
    pub fn mesh_artifacts(&self) -> &Arc<MeshArtifacts> {
        &self.shared
    }

    /// Clears per-solve state so the instance can serve another request
    /// with bitwise-identical results to a fresh build: drops the last
    /// request's preconditioner, seed and captured factors, resets the
    /// reuse rule and zeroes the counters. (A solve's first step
    /// refactors whatever the rule held, so an app that skips this also
    /// re-solves bit for bit; the reset releases the factors early.) The
    /// expensive immutable artifacts stay: the reordered mesh, the
    /// [`MeshArtifacts`] (shared or not), and what the configuration
    /// shaped — ILU structure, LSQ weights, partitions, tilings,
    /// schedules, pool.
    pub fn reset_for_reuse(&mut self) {
        self.precond = None;
        self.factor_age.reset();
        self.residual_evals = 0;
        self.factor_seed = None;
        self.first_factors = None;
    }

    /// Seeds the next solve's first preconditioner build (see the field
    /// doc for the identical-problem contract).
    pub fn set_factor_seed(&mut self, seed: Option<Arc<IluFactors>>) {
        self.factor_seed = seed;
    }

    /// Captures the first build's factors for [`Fun3dApp::first_factors`]
    /// (off by default — it keeps the first factors alive past the next
    /// rebuild).
    pub fn capture_first_factors(&mut self, on: bool) {
        self.capture_first = on;
    }

    /// The first preconditioner build of the current solve, if captured
    /// — what the serve tier inserts into its cross-request factor cache.
    pub fn first_factors(&self) -> Option<Arc<IluFactors>> {
        self.first_factors.clone()
    }

    /// Number of scalar unknowns.
    pub(crate) fn nunknowns(&self) -> usize {
        self.node.n * 4
    }

    /// Free-stream initial state vector.
    pub fn initial_state(&self) -> Vec<f64> {
        let mut u = vec![0.0; self.nunknowns()];
        for v in 0..self.node.n {
            u[v * 4..v * 4 + 4].copy_from_slice(&self.cond.qinf);
        }
        u
    }

    /// Runs the full pseudo-transient solve from free stream. Returns the
    /// converged state and statistics; each kernel call adds its time and
    /// traffic to the telemetry counters (`telemetry::kernel`).
    pub fn run(&mut self, ptc_cfg: &PtcConfig) -> (Vec<f64>, PtcStats) {
        let mut u = self.initial_state();
        let stats = ptc::solve(self, &mut u, ptc_cfg);
        (u, stats)
    }

    /// The owner-writes plan (None when single-threaded).
    pub fn plan(&self) -> Option<&OwnerWritesPlan> {
        self.plan.as_ref()
    }

    /// The Jacobian the last preconditioner build factored (valid after
    /// a `build_preconditioner` that was not seeded). No build stores it:
    /// the first call after a build assembles it from the build's state
    /// and pseudo-time shift, which the app keeps.
    pub fn jacobian_matrix(&self) -> &Bcsr4 {
        let m = &*self.shared;
        self.last_build.matrix(&m.jac_rows, &m.adj, &m.bc, &self.cond)
    }

    /// The ILU fill pattern (computed on the first call).
    pub fn ilu_pattern(&self) -> &[Vec<u32>] {
        self.ilu_pattern
            .get_or_init(|| ilu::symbolic_iluk(self.shared.jac_rows.pattern(), self.cfg.ilu_fill))
    }

    /// Points the preconditioner at `factors`, building its schedule
    /// bindings and scratch on the solve's first build only.
    fn install_factors(&mut self, factors: Arc<IluFactors>) {
        if let Some(p) = &mut self.precond {
            p.ilu.factors = factors;
            return;
        }
        let mode = match &self.schedules {
            None => IluApply::Serial,
            Some(s) => IluApply::p2p(
                self.pool.clone().expect("checked with the schedules"),
                s.fwd.clone(),
                s.bwd.clone(),
            ),
        };
        self.precond = Some(AppPrecond {
            ilu: SerialIlu::from_factors(factors, mode),
        });
    }

    fn run_flux(&mut self, r: &mut [f64]) {
        let m = &*self.shared;
        let _k = telemetry::kernel(
            "flux",
            match &self.tiles {
                Some(t) => crate::counts::flux_tiled(m.geom.nedges(), t.tiling().vertex_slots()),
                None => crate::counts::flux(m.geom.nedges()),
            },
        );
        r.iter_mut().for_each(|x| *x = 0.0);
        let (exec, walk) = edge_walk(&m.geom, self.pool.as_deref(), &self.plan, &self.tiles);
        let lanes = self.cfg.use_simd.then_some(self.isa);
        flux::run(lanes, exec, walk, &self.node, self.cond.beta, r);
        bc::residual(&m.bc, &self.node, &self.cond, r);
    }
}

impl PtcProblem for Fun3dApp {
    fn dim(&self) -> usize {
        self.nunknowns()
    }

    fn residual(&mut self, u: &[f64], r: &mut [f64]) {
        self.residual_evals += 1;
        self.node.q.copy_from_slice(u);
        {
            let m = &*self.shared;
            let _k = telemetry::kernel(
                "gradient",
                crate::counts::gradient_gather(m.adj.neighbours().len(), m.adj.rows()),
            );
            if let Some(lsq) = &self.lsq {
                lsq.evaluate(&m.adj, &mut self.node);
            } else {
                let exec = self.pool.as_deref().map_or(Exec::Caller, Exec::Pool);
                gradient::green_gauss(self.isa, exec, &m.adj, &mut self.node);
            }
            if self.cfg.use_limiter {
                // Venkatakrishnan (smooth) rather than Barth–Jespersen:
                // BJ's hard clip produces limit cycles in steady solvers.
                crate::limiter::apply_venkatakrishnan(&m.geom, &mut self.node, 0.3);
            }
        }
        self.run_flux(r);
    }

    fn time_diag(&self, dt: f64, out: &mut [f64]) {
        jacobian::time_diagonal(&self.shared.dual.vol, self.cond.beta, dt, out);
    }

    fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64]) {
        // Between the rule's rebuilds the factors and their Δt shift go
        // stale, the accepted trade of factor reuse. A seeded first build
        // counts as a factorization.
        let first_build = self.factor_age.first_build();
        if !self.factor_age.refactor_now() {
            return;
        }
        let seed = if first_build { self.factor_seed.take() } else { None };
        if let Some(seed) = seed {
            // Seeded first build: the factors are a pure function of the
            // problem key at dt0 (see `factor_seed`), so adopt them and
            // skip both the Jacobian assembly and the factorization.
            // The solve's operator is matrix-free, so nothing else reads
            // the skipped assembled matrix before the next rebuild.
            if self.capture_first {
                self.first_factors = Some(Arc::clone(&seed));
            }
            self.install_factors(seed);
            return;
        }
        self.last_build.record(u, time_diag);
        let m = &*self.shared;
        // One kernel: the factorization takes each row of the Jacobian
        // from the row kernel when it reaches the row.
        let _k = telemetry::kernel(
            "ilu",
            crate::counts::ilu_build(&self.ilu_symbolic, m.geom.nedges()),
        );
        let jac = JacobianAt::new(&m.jac_rows, &m.adj, &m.bc, &self.cond, u, time_diag);
        // Refactor into the factors the preconditioner already owns when
        // nobody else holds them. A seed adopted from, or a first build
        // captured for, the serve factor cache is shared — the cache must
        // never see a refactor — so that one rebuild allocates.
        let owned = self
            .precond
            .as_mut()
            .and_then(|p| Arc::get_mut(&mut p.ilu.factors));
        // With P2P schedules the team factors, each thread the rows of its
        // forward-sweep program, which it also computes: the same factors,
        // bit for bit.
        let sym = &self.ilu_symbolic;
        let team = self.schedules.as_ref().zip(self.pool.as_deref());
        let refactor = |f: &mut IluFactors| match team {
            Some((s, pool)) => sym.refactor_team(&jac, f, pool, &s.fwd, &s.ilu_progress),
            None => sym.refactor(&jac, f),
        };
        match owned {
            Some(f) => refactor(f),
            None => {
                let mut f = sym.allocate();
                refactor(&mut f);
                let f = Arc::new(f);
                if first_build && self.capture_first {
                    self.first_factors = Some(Arc::clone(&f));
                }
                self.install_factors(f);
            }
        }
    }

    fn preconditioner(&self) -> &dyn Preconditioner {
        self.precond.as_ref().expect("preconditioner not built")
    }

    fn on_step(&mut self, step: usize, res_norm: f64, _dt: f64) {
        self.factor_age.on_step(step, res_norm);
    }

    fn solver_pool(&self) -> Option<Arc<ThreadPool>> {
        self.pool.clone()
    }

    fn exec_mode(&self) -> ExecMode {
        if self.pool.is_some() {
            self.cfg.exec
        } else {
            ExecMode::Serial
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobian::tests::scatter_oracle;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_util::telemetry::CounterMap;

    /// The kernel counters a serial solve recorded: every kernel of a
    /// serial app runs on the calling thread, so the delta of this
    /// thread's counters is the solve's, whatever other tests record.
    fn counted(app: &mut Fun3dApp, cfg: &PtcConfig) -> (Vec<f64>, PtcStats, CounterMap) {
        telemetry::set_level(telemetry::Level::Counters);
        let before = telemetry::local_counters();
        let (u, stats) = app.run(cfg);
        (u, stats, telemetry::local_counters().since(&before))
    }

    fn calls(kernels: &CounterMap, name: &str) -> u64 {
        kernels.get(name).map_or(0, |c| c.calls)
    }

    /// The `ilu_refactor` flight events a solve logged.
    fn refactor_events(solve_id: u64) -> usize {
        telemetry::flight_log()
            .solve(solve_id)
            .iter()
            .filter(|e| matches!(e.kind, telemetry::EventKind::IluRefactor { .. }))
            .count()
    }

    fn solve_config() -> PtcConfig {
        PtcConfig {
            dt0: 2.0,
            rtol: 1e-6,
            max_steps: 60,
            ..Default::default()
        }
    }

    fn build(cfg: OptConfig) -> Fun3dApp {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        Fun3dApp::new(mesh, FlowConditions::default(), cfg)
    }

    #[test]
    fn baseline_converges() {
        let mut app = build(OptConfig::baseline());
        let (_, stats, kernels) = counted(&mut app, &solve_config());
        assert!(
            stats.converged,
            "residual history: {:?}",
            stats.res_history
        );
        assert!(stats.linear_iters > 0);
        for kernel in ["flux", "gradient", "ilu", "trsv"] {
            assert!(calls(&kernels, kernel) > 0, "missing kernel {kernel}");
            assert!(kernels.seconds(kernel) > 0.0, "untimed kernel {kernel}");
        }
    }

    #[test]
    fn jacobian_matrix_is_the_oracle_at_the_last_build() {
        // No build stores the Jacobian; asked for it, the app assembles
        // the one its last build factored, bit for bit the edge scatter's
        // at that build's state and shift — and a later build moves it.
        let mut app = build(OptConfig::baseline());
        let mut u = app.initial_state();
        let mut rng = fun3d_util::Rng64::new(31);
        let mut shift = vec![0.0; u.len()];
        for dt in [2.0, 0.5] {
            u.iter_mut().for_each(|x| *x += rng.range_f64(-0.05, 0.05));
            app.time_diag(dt, &mut shift);
            app.build_preconditioner(&u, &shift);
            let want = scatter_oracle(&app.shared.geom, &app.shared.bc, &u, &app.cond, &shift);
            let got = app.jacobian_matrix();
            assert_eq!((&got.row_ptr, &got.col_idx), (&want.row_ptr, &want.col_idx));
            let bits = |m: &Bcsr4| m.blocks.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "dt = {dt}");
        }
    }

    #[test]
    fn telemetry_counters_match_analytic_model() {
        telemetry::set_level(telemetry::Level::Counters);
        let mut app = build(OptConfig::baseline());
        // serial run: every kernel records on this thread, so the delta
        // of our own per-thread counters is deterministic even with other
        // tests running concurrently
        let before = telemetry::local_counters().get("flux").copied().unwrap_or_default();
        let (_, stats) = app.run(&solve_config());
        assert!(stats.converged);
        let after = telemetry::local_counters().get("flux").copied().unwrap_or_default();
        let evals = app.residual_evals as u64;
        let nedges = app.shared.geom.nedges() as u64;
        assert_eq!(after.calls - before.calls, evals);
        assert_eq!(after.items - before.items, evals * nedges);
        assert_eq!(
            (after.bytes() - before.bytes()) as f64,
            EdgeGeom::FLUX_BYTES_PER_EDGE * (evals * nedges) as f64
        );
        assert_eq!(
            (after.flops - before.flops) as f64,
            EdgeGeom::FLUX_FLOPS_PER_EDGE * (evals * nedges) as f64
        );
    }

    #[test]
    fn optimized_matches_baseline_solution() {
        let mut base = build(OptConfig::baseline());
        let (ub, sb) = base.run(&solve_config());
        let mut opt = build(OptConfig::optimized(3));
        let (uo, so) = opt.run(&solve_config());
        assert!(sb.converged && so.converged);
        // Same discretization, same convergence test: states agree to
        // solver tolerance levels.
        let diff: f64 = ub
            .iter()
            .zip(&uo)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = ub.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(diff < 1e-3 * norm, "solutions diverged: {diff} vs {norm}");
    }

    #[test]
    fn auto_flux_scheme_streams_on_tiny() {
        // The tiny fixture's node working set is cache-resident, so the
        // Auto scheme must keep the streaming kernels (and the solver
        // tests above keep their bitwise histories).
        let app = build(OptConfig::optimized(2));
        assert!(app.tiles.is_none(), "tiny mesh must resolve to streaming");
    }

    #[test]
    fn tiled_residual_path_converges_and_matches() {
        let mut base = build(OptConfig::baseline());
        let (ub, sb) = base.run(&solve_config());
        assert!(sb.converged);
        let norm: f64 = ub.iter().map(|v| v * v).sum::<f64>().sqrt();
        for nt in [1usize, 3] {
            let mut cfg = OptConfig::optimized(nt);
            cfg.flux = FluxScheme::Tiled;
            let mut app = build(cfg);
            assert!(app.tiles.is_some(), "explicit tiled must build a tiling");
            let (uo, so) = app.run(&solve_config());
            assert!(so.converged, "nt={nt} history: {:?}", so.res_history);
            let diff: f64 = ub
                .iter()
                .zip(&uo)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(diff < 1e-3 * norm, "nt={nt}: solutions diverged: {diff} vs {norm}");
        }
    }

    #[test]
    fn ilu0_needs_more_iterations_than_ilu1() {
        // Table II's convergence half: less fill => weaker preconditioner
        // => more linear iterations.
        let run_fill = |fill: usize| {
            let mut cfg = OptConfig::baseline();
            cfg.ilu_fill = fill;
            let mut app = build(cfg);
            let (_, stats) = app.run(&solve_config());
            assert!(stats.converged, "fill={fill}");
            stats.linear_iters
        };
        let it0 = run_fill(0);
        let it1 = run_fill(1);
        assert!(
            it0 >= it1,
            "ILU(0) {it0} iterations should be >= ILU(1) {it1}"
        );
    }

    #[test]
    fn residual_decreases_monotonically_enough() {
        let mut app = build(OptConfig::baseline());
        let (_, stats) = app.run(&solve_config());
        let h = &stats.res_history;
        assert!(h.last().unwrap() < &(h[0] * 1e-5));
    }

    #[test]
    fn solution_has_pressure_rise_at_bump() {
        // Physics smoke test: the converged flow must differ from free
        // stream (nonzero pressure field driven by the bump).
        let mut app = build(OptConfig::baseline());
        let (u, stats) = app.run(&solve_config());
        assert!(stats.converged);
        let p_max = (0..app.node.n)
            .map(|v| u[v * 4].abs())
            .fold(0.0, f64::max);
        assert!(p_max > 1e-3, "pressure field suspiciously flat: {p_max}");
    }

    #[test]
    fn limiter_config_converges() {
        let mut cfg = OptConfig::baseline();
        cfg.use_limiter = true;
        let mut app = build(cfg);
        let (u, stats) = app.run(&solve_config());
        assert!(stats.converged, "history: {:?}", stats.res_history);
        assert!(u.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn lagged_ilu_converges_with_fewer_factorizations() {
        // While the residual falls every step, the reuse rule refactors
        // every `ilu_lag`-th step only.
        for lag in [2, 3] {
            let mut cfg = OptConfig::baseline();
            cfg.ilu_lag = lag;
            let mut app = build(cfg);
            let (_, stats, kernels) = counted(&mut app, &solve_config());
            assert!(stats.converged);
            let h = &stats.res_history;
            assert!(h.windows(2).all(|w| w[1] < w[0]), "lag {lag}: a refresh fired: {h:?}");
            let factorizations = calls(&kernels, "ilu") as usize;
            assert_eq!(factorizations, stats.time_steps.div_ceil(lag), "lag {lag}");
            assert_eq!(refactor_events(stats.solve_id), factorizations, "lag {lag}: logged");
            assert!(
                factorizations < stats.time_steps,
                "lagging must skip factorizations: {factorizations} vs {} steps",
                stats.time_steps
            );
        }
    }

    #[test]
    fn a_default_solve_factors_once() {
        // The one reuse rule at its default cap: the first factors serve
        // the whole solve, on Tiny and on the benchmark's Small mesh.
        for preset in [MeshPreset::Tiny, MeshPreset::Small] {
            let mut mesh = preset.build();
            Fun3dApp::rcm_reorder(&mut mesh);
            let mut app = Fun3dApp::new(mesh, FlowConditions::default(), OptConfig::optimized(1));
            let (_, stats, kernels) = counted(&mut app, &solve_config());
            assert!(stats.converged, "{preset:?}: {:?}", stats.res_history);
            let at = format!("{preset:?}: {} steps", stats.time_steps);
            assert!(stats.time_steps > 1, "{at}");
            assert_eq!(calls(&kernels, "ilu"), 1, "{at}");
            assert_eq!(refactor_events(stats.solve_id), 1, "{at}: logged");
        }
    }

    #[test]
    fn a_second_solve_without_a_reset_is_a_fresh_solve() {
        // Step 0 refactors whatever factors the last solve left, so an
        // app that is not reset re-solves bit for bit like a fresh one.
        for lag in [1, FACTOR_AGE_CAP] {
            let mut cfg = OptConfig::optimized(1);
            cfg.ilu_lag = lag;
            let (u_ref, s_ref) = build(cfg).run(&solve_config());
            let mut app = build(cfg);
            app.run(&solve_config());
            let (u, s, kernels) = counted(&mut app, &solve_config());
            assert_eq!(u, u_ref, "lag {lag}: state");
            assert_eq!(s.res_history, s_ref.res_history, "lag {lag}: history");
            assert_eq!(s.linear_iters, s_ref.linear_iters, "lag {lag}: iterations");
            let builds = s.time_steps.div_ceil(lag) as u64;
            assert_eq!(calls(&kernels, "ilu"), builds, "lag {lag}: factorizations");
        }
    }

    /// Stands in for the app the way a tracing decorator does: it
    /// forwards the trait methods that existed before the app decided its
    /// own factor reuse, and nothing else.
    struct Forwarding(Fun3dApp);

    impl PtcProblem for Forwarding {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn residual(&mut self, u: &[f64], r: &mut [f64]) {
            self.0.residual(u, r);
        }
        fn time_diag(&self, dt: f64, out: &mut [f64]) {
            self.0.time_diag(dt, out);
        }
        fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64]) {
            self.0.build_preconditioner(u, time_diag);
        }
        fn preconditioner(&self) -> &dyn Preconditioner {
            self.0.preconditioner()
        }
        fn on_step(&mut self, step: usize, res_norm: f64, dt: f64) {
            self.0.on_step(step, res_norm, dt);
        }
        fn solver_pool(&self) -> Option<Arc<ThreadPool>> {
            self.0.solver_pool()
        }
        fn exec_mode(&self) -> ExecMode {
            self.0.exec_mode()
        }
    }

    #[test]
    fn a_forwarding_decorator_solves_bitwise_like_the_app() {
        for (nt, exec) in [(1, ExecMode::Serial), (2, ExecMode::Team)] {
            let mut cfg = OptConfig::optimized(nt);
            cfg.exec = exec;
            let (u_ref, s_ref) = build(cfg).run(&solve_config());
            let mut decorated = Forwarding(build(cfg));
            let mut u = decorated.0.initial_state();
            let s = ptc::solve(&mut decorated, &mut u, &solve_config());
            assert!(s.converged, "T = {nt}");
            assert_eq!(u, u_ref, "T = {nt}: state");
            assert_eq!(s.res_history, s_ref.res_history, "T = {nt}: history");
            assert_eq!(s.linear_iters, s_ref.linear_iters, "T = {nt}: iterations");
        }
    }

    #[test]
    fn lsq_gradient_config_converges() {
        let mut cfg = OptConfig::baseline();
        cfg.use_lsq_gradients = true;
        let mut app = build(cfg);
        let (u, stats) = app.run(&solve_config());
        assert!(stats.converged, "history: {:?}", stats.res_history);
        assert!(u.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn first_factors_depend_only_on_mesh_fill_and_dt0() {
        // The serve tier's factor key: the first build factors the
        // Jacobian at the free stream and the dt0 shift, which reads
        // neither the limiter, the LSQ weights nor the lag.
        let first = |cfg: OptConfig, dt0: f64| -> Vec<u32> {
            let mut app = build(cfg);
            app.capture_first_factors(true);
            app.run(&PtcConfig {
                dt0,
                max_steps: 1,
                ..solve_config()
            });
            let f = app.first_factors().expect("first factors captured");
            let values = f.l.blocks.iter().chain(&f.u.blocks).chain(&f.dinv);
            values.map(|x| x.to_bits()).collect()
        };
        let base = OptConfig::optimized(1);
        let want = first(base, 2.0);
        let variants: [(&str, fn(&mut OptConfig)); 3] = [
            ("limiter", |c| c.use_limiter = true),
            ("lsq", |c| c.use_lsq_gradients = true),
            ("lag", |c| c.ilu_lag = 1),
        ];
        for (name, turn) in variants {
            let mut cfg = base;
            turn(&mut cfg);
            assert_eq!(first(cfg, 2.0), want, "{name} moved the first factors");
        }
        let mut fill0 = base;
        fill0.ilu_fill = 0;
        assert_ne!(first(fill0, 2.0), want, "fill shapes the factors");
        assert_ne!(first(base, 4.0), want, "dt0 shifts the factors");
    }

    #[test]
    fn an_app_sharing_mesh_artifacts_solves_like_a_fresh_one() {
        // Shared artifacts are the ones a fresh build makes: an app built
        // on a donor's mesh re-solves bit for bit, serial and on a team.
        let donor = build(OptConfig::baseline());
        for nt in [1, 2] {
            let mut cfg = OptConfig::optimized(nt);
            cfg.use_limiter = true;
            let (u_ref, s_ref) = build(cfg).run(&solve_config());
            let pool = (nt > 1).then(|| Arc::new(ThreadPool::new(nt)));
            let mut app = Fun3dApp::sharing_mesh(&donor, FlowConditions::default(), cfg, pool);
            assert!(Arc::ptr_eq(app.mesh_artifacts(), donor.mesh_artifacts()));
            let (u, s) = app.run(&solve_config());
            assert!(s.converged, "T = {nt}");
            assert_eq!(u, u_ref, "T = {nt}: state");
            assert_eq!(s.res_history, s_ref.res_history, "T = {nt}: history");
            assert_eq!(s.linear_iters, s_ref.linear_iters, "T = {nt}: iterations");
        }
    }

    #[test]
    fn reuse_and_factor_seed_are_bitwise_identical() {
        // The serve tier's two reuse layers, pinned at the app level:
        // (1) a reset instance re-solves bitwise-identically to a fresh
        // build, (2) seeding the first preconditioner build from a
        // previous run's captured factors skips one assembly+factor
        // without changing a single bit of the solution or history.
        let mut fresh = build(OptConfig::baseline());
        let (u_ref, s_ref, kernels) = counted(&mut fresh, &solve_config());
        assert!(s_ref.converged);
        let fresh_factor_calls = calls(&kernels, "ilu");

        let mut app = build(OptConfig::baseline());
        app.capture_first_factors(true);
        let (u1, s1) = app.run(&solve_config());
        assert_eq!(u1, u_ref);
        assert_eq!(s1.res_history, s_ref.res_history);
        let seed = app.first_factors().expect("first factors captured");
        assert!(
            s1.time_steps > 2,
            "test premise: rebuilds followed the captured build"
        );

        // The serve cache must never see a refactor. (3) A captured
        // first build is shared, so the rebuilds that followed it in the
        // solve above went to other storage: it still holds what a solve
        // stopped right after its first build captures.
        let bits = |f: &IluFactors| -> Vec<u32> {
            let values = f.l.blocks.iter().chain(&f.u.blocks).chain(&f.dinv);
            values.map(|x| x.to_bits()).collect()
        };
        let mut one_step = build(OptConfig::baseline());
        one_step.capture_first_factors(true);
        let (_, _, kernels) = counted(
            &mut one_step,
            &PtcConfig {
                max_steps: 1,
                ..solve_config()
            },
        );
        let first_only = one_step.first_factors().expect("first factors captured");
        assert_eq!(calls(&kernels, "ilu"), 1);
        assert_eq!(
            bits(&seed),
            bits(&first_only),
            "a later rebuild wrote into captured factors"
        );

        app.reset_for_reuse();
        app.set_factor_seed(Some(Arc::clone(&seed)));
        let (u2, s2, kernels) = counted(&mut app, &solve_config());
        assert_eq!(u2, u_ref, "seeded reuse must be bitwise identical");
        assert_eq!(s2.res_history, s_ref.res_history);
        // (4) Nor may a seeded solve's rebuilds touch the seed it adopted.
        assert_eq!(
            bits(&seed),
            bits(&first_only),
            "a rebuild wrote into the adopted seed"
        );
        // After the one rebuild that had to allocate, the solve refactors
        // in place: the factors it ends with are its own.
        let last = &app.precond.as_ref().expect("preconditioner built").ilu.factors;
        assert!(!Arc::ptr_eq(last, &seed));
        assert_eq!(Arc::strong_count(last), 1);
        assert_eq!(
            calls(&kernels, "ilu") + 1,
            fresh_factor_calls,
            "the seeded first build must skip exactly one factorization"
        );
    }
}
