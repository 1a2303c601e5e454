//! The full PETSc-FUN3D application: mesh + kernels + ΨNKS solver with
//! per-kernel telemetry counters (time, bytes, flops) and selectable
//! optimization level.

use crate::bc::{self, BcData};
use crate::edge_loop::{Exec, Traversal, PREFETCH_DIST};
use crate::euler::FlowConditions;
use crate::geom::{EdgeGeom, HalfEdges, NodeAos, TiledGeom};
use crate::{flux, gradient, jacobian};
use fun3d_machine::MachineSpec;
use fun3d_mesh::{rcm, DualMesh, Mesh};
use fun3d_partition::{
    partition_graph, EdgeTiling, MultilevelConfig, OwnerWritesPlan, TilingConfig,
};
use fun3d_simd::Isa;
use fun3d_solver::precond::{IluApply, Preconditioner, SerialIlu};
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem, PtcStats};
use fun3d_solver::{ExecMode, FluxScheme};
use fun3d_sparse::{ilu, Bcsr4, IluFactors, IluSymbolic, P2pSchedule};
use fun3d_threads::{P2pProgress, TeamMember, TeamSlice, ThreadPool};
use fun3d_util::telemetry;
use std::sync::Arc;

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
    /// Rebuild the ILU factors only every `n` pseudo-time steps
    /// (1 = every step, the paper's default; the paper notes factor
    /// reuse "is a problem-dependent optimization that is worth
    /// pursuing").
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
            ilu_lag: 1,
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
    /// The refactorization's progress counters (`ilu.p2p.blocked_*.t0`, …).
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

/// The assembled FUN3D application.
pub struct Fun3dApp {
    /// The (reordered) mesh.
    pub mesh: Mesh,
    /// Median-dual metrics.
    pub dual: DualMesh,
    /// Streaming edge geometry.
    pub geom: EdgeGeom,
    /// Boundary table.
    pub bc: BcData,
    /// Flow conditions.
    pub cond: FlowConditions,
    /// Optimization configuration.
    pub cfg: OptConfig,
    node: NodeAos,
    vol: Vec<f64>,
    /// What the gradient kernels gather over.
    adj: HalfEdges,
    jac: Bcsr4,
    /// Where `jacobian::assemble` adds each edge's and vertex's blocks.
    jac_slots: jacobian::JacobianSlots,
    ilu_pattern: Vec<Vec<u32>>,
    /// The static half of every factorization of `jac` on `ilu_pattern`.
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
    /// Pseudo-time steps since the factors were last rebuilt.
    precond_age: usize,
    /// Factors to seed the *first* preconditioner build of the next
    /// solve with, skipping its Jacobian assembly + factorization. Only
    /// bitwise-safe when the seed came from an identical problem: ΨTC's
    /// first build always happens at `dt = dt0` on the free-stream
    /// state, so the first factors are a pure function of (mesh, cfg,
    /// conditions, dt0) — the serve tier keys its factor cache on
    /// exactly that. The solve's operator is matrix-free (`FdJacobian`),
    /// so the skipped assembled matrix feeds nothing else.
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
        match &pool {
            Some(p) => assert_eq!(
                p.size(),
                cfg.nthreads,
                "supplied pool size must match cfg.nthreads"
            ),
            None => assert_eq!(cfg.nthreads, 1, "threaded config needs a pool"),
        }
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let nv = mesh.nvertices();
        let node = NodeAos::zeros(nv);
        let vol = dual.vol.clone();
        let adj = HalfEdges::build(&geom, &bc, &vol);
        let jac = Bcsr4::from_edges(nv, geom.edges());
        let jac_slots = jacobian::JacobianSlots::new(&jac, geom.edges());
        let ilu_pattern = ilu::symbolic_iluk(&jac, cfg.ilu_fill);
        let ilu_symbolic = IluSymbolic::new(&jac, &ilu_pattern);

        // Residual-path scheme: Auto weighs the node working set against
        // the private L2 of the cores in use.
        let machine = MachineSpec::host();
        let scheme = cfg.flux.resolve(&machine, nv, cfg.nthreads);
        let tiles = (scheme == FluxScheme::Tiled).then(|| {
            let tiling = EdgeTiling::build(nv, geom.edges(), &TilingConfig::for_machine(&machine));
            TiledGeom::new(tiling, &geom)
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
                ilu_progress: fwd.progress().attributed("ilu.p2p", "t"),
                fwd: Arc::new(fwd),
                bwd: Arc::new(bwd),
            }
        });

        let lsq = cfg
            .use_lsq_gradients
            .then(|| gradient::LsqGradient::build(&mesh.coords, &adj));

        Fun3dApp {
            mesh,
            dual,
            geom,
            bc,
            cond,
            cfg,
            node,
            vol,
            adj,
            jac,
            jac_slots,
            ilu_pattern,
            ilu_symbolic,
            pool,
            plan,
            tiles,
            isa: Isa::detect(),
            schedules,
            precond: None,
            lsq,
            residual_evals: 0,
            precond_age: 0,
            factor_seed: None,
            first_factors: None,
            capture_first: false,
        }
    }

    /// Clears per-solve state so the instance can serve another request
    /// with bitwise-identical results to a fresh build: drops the stale
    /// preconditioner (a lagged `ilu_lag > 1` config would otherwise
    /// reuse last request's factors) and zeroes the counters. The
    /// expensive immutable artifacts — reordered mesh, dual metrics,
    /// partitions, tilings, ILU pattern, schedules, pool — are exactly
    /// what stays.
    pub fn reset_for_reuse(&mut self) {
        self.precond = None;
        self.precond_age = 0;
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

    /// The assembled Jacobian (valid after a `build_preconditioner`).
    pub fn jacobian_matrix(&self) -> &Bcsr4 {
        &self.jac
    }

    /// The cached ILU fill pattern.
    pub fn ilu_pattern(&self) -> &[Vec<u32>] {
        &self.ilu_pattern
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
        let _k = telemetry::kernel(
            "flux",
            match &self.tiles {
                Some(t) => crate::counts::flux_tiled(self.geom.nedges(), t.tiling().vertex_slots()),
                None => crate::counts::flux(self.geom.nedges()),
            },
        );
        r.iter_mut().for_each(|x| *x = 0.0);
        let (exec, walk) = edge_walk(&self.geom, self.pool.as_deref(), &self.plan, &self.tiles);
        let lanes = self.cfg.use_simd.then_some(self.isa);
        flux::run(lanes, exec, walk, &self.node, self.cond.beta, r);
        bc::residual(&self.bc, &self.node, &self.cond, r);
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
            let _k = telemetry::kernel(
                "gradient",
                crate::counts::gradient_gather(self.adj.neighbours().len(), self.adj.rows()),
            );
            if let Some(lsq) = &self.lsq {
                lsq.evaluate(&self.adj, &mut self.node);
            } else {
                let exec = self.pool.as_deref().map_or(Exec::Caller, Exec::Pool);
                gradient::green_gauss(self.isa, exec, &self.adj, &mut self.node);
            }
            if self.cfg.use_limiter {
                // Venkatakrishnan (smooth) rather than Barth–Jespersen:
                // BJ's hard clip produces limit cycles in steady solvers.
                crate::limiter::apply_venkatakrishnan(&self.geom, &mut self.node, 0.3);
            }
        }
        self.run_flux(r);
    }

    fn time_diag(&self, dt: f64, out: &mut [f64]) {
        jacobian::time_diagonal(&self.vol, self.cond.beta, dt, out);
    }

    fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64]) {
        // Lagged preconditioner: reuse the existing factors for
        // `ilu_lag - 1` further steps (the Δt shift goes stale too, which
        // is the accepted trade of factor reuse).
        if self.precond.is_some() && self.cfg.ilu_lag > 1 {
            self.precond_age += 1;
            if self.precond_age < self.cfg.ilu_lag {
                return;
            }
        }
        self.precond_age = 0;
        let first_build = self.precond.is_none();
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
        self.node.q.copy_from_slice(u);
        {
            let _k = telemetry::kernel(
                "jacobian",
                crate::counts::jacobian(self.geom.nedges(), self.node.n),
            );
            jacobian::assemble(
                &self.geom,
                &self.bc,
                &self.node,
                &self.cond,
                &self.jac_slots,
                &mut self.jac,
            );
            jacobian::add_time_diagonal(&self.jac_slots, &mut self.jac, time_diag);
        }
        let _k = telemetry::kernel("ilu", crate::counts::ilu_factor(&self.ilu_symbolic));
        // Refactor into the factors the preconditioner already owns when
        // nobody else holds them. A seed adopted from, or a first build
        // captured for, the serve factor cache is shared — the cache must
        // never see a refactor — so that one rebuild allocates.
        let owned = self
            .precond
            .as_mut()
            .and_then(|p| Arc::get_mut(&mut p.ilu.factors));
        // With P2P schedules the team factors, each thread the rows of its
        // forward-sweep program: the same factors, bit for bit.
        let (sym, jac) = (&self.ilu_symbolic, &self.jac);
        let team = self.schedules.as_ref().zip(self.pool.as_deref());
        let refactor = |f: &mut IluFactors| match team {
            Some((s, pool)) => sym.refactor_team(jac, f, pool, &s.fwd, &s.ilu_progress),
            None => sym.refactor(jac, f),
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
        for kernel in ["flux", "gradient", "jacobian", "ilu", "trsv"] {
            assert!(calls(&kernels, kernel) > 0, "missing kernel {kernel}");
            assert!(kernels.seconds(kernel) > 0.0, "untimed kernel {kernel}");
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
        let nedges = app.geom.nedges() as u64;
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
        let mut cfg = OptConfig::baseline();
        cfg.ilu_lag = 3;
        let mut app = build(cfg);
        let (_, stats, kernels) = counted(&mut app, &solve_config());
        assert!(stats.converged);
        let factorizations = calls(&kernels, "ilu");
        assert!(
            (factorizations as usize) < stats.time_steps,
            "lagging must skip factorizations: {factorizations} vs {} steps",
            stats.time_steps
        );
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
