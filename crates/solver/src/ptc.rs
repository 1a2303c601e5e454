//! Pseudo-transient continuation (ΨTC) with inexact Newton.
//!
//! The implicit step (paper Eq. 2): `F(u_l) = (u_l − u_{l−1})/Δt_l +
//! f(u_l) = 0` with `Δt_l → ∞`, solved by an inexact Newton method whose
//! corrections come from preconditioned GMRES (Eq. 3). The time step
//! follows **switched evolution relaxation**: `Δt_l = Δt_0 · ‖f(u_0)‖ /
//! ‖f(u_{l−1})‖` (capped), so the method behaves like time marching far
//! from the solution and like Newton near it.

use crate::anomaly::{Anomaly, AnomalyConfig, AnomalyDetector};
use crate::gmres::{Gmres, GmresConfig, GmresExec};
use crate::op::{reduce_sum, reduced_norm2, FdJacobian, Reducer};
use crate::policy::ExecMode;
use crate::precond::Preconditioner;
use crate::vecops;
use fun3d_threads::ThreadPool;
use fun3d_util::telemetry;
use std::sync::Arc;
use std::time::Instant;

/// The problem interface the CFD application implements.
pub trait PtcProblem {
    /// Number of scalar unknowns.
    fn dim(&self) -> usize;

    /// Steady residual `r = f(u)` (time term excluded).
    fn residual(&mut self, u: &[f64], r: &mut [f64]);

    /// Writes the pseudo-time diagonal `V_i / Δt` per unknown.
    fn time_diag(&self, dt: f64, out: &mut [f64]);

    /// Rebuilds the preconditioner for state `u` with the given time
    /// diagonal, returning it for this step's linear solves.
    fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64]);

    /// The preconditioner built by the last `build_preconditioner` call.
    fn preconditioner(&self) -> &dyn Preconditioner;

    /// Hook called once per time step with the current residual norm
    /// (used by the application's progress logging). Default: no-op.
    fn on_step(&mut self, _step: usize, _res_norm: f64, _dt: f64) {}

    /// Thread pool for the linear solver's vector ops, or `None` for
    /// serial execution. Default: serial.
    fn solver_pool(&self) -> Option<Arc<ThreadPool>> {
        None
    }

    /// How GMRES executes when a pool is available: serially,
    /// in persistent SPMD regions (one region per Arnoldi iteration — the
    /// FD Jacobian is matrix-free and launches its own regions, so the
    /// operator apply stays between regions, hybrid mode), or
    /// [`ExecMode::Auto`] to pick per solve from the machine model plus
    /// measured sync costs. Ignored without a pool (always serial).
    fn exec_mode(&self) -> ExecMode {
        ExecMode::Team
    }

    /// The reduction that completes sums over the unknowns: problems
    /// whose unknowns are spread over processes (`dim` then counts this
    /// process's) return theirs, and every norm the driver, the
    /// finite-difference Jacobian and GMRES take goes through it, so all
    /// processes step identically. Default: one process.
    fn reducer(&self) -> Reducer<'_> {
        None
    }
}

/// ΨTC driver parameters.
#[derive(Clone, Copy, Debug)]
pub struct PtcConfig {
    /// Initial CFL-like pseudo-time step.
    pub dt0: f64,
    /// Upper bound on Δt (keeps the shifted system nonsingular).
    pub dt_max: f64,
    /// Stop when ‖f(u)‖ ≤ rtol · ‖f(u₀)‖.
    pub rtol: f64,
    /// Stop when ‖f(u)‖ ≤ atol.
    pub atol: f64,
    /// Maximum pseudo-time steps (one Newton iteration each, as in
    /// PETSc-FUN3D).
    pub max_steps: usize,
    /// Linear solver settings.
    pub gmres: GmresConfig,
    /// Residual anomaly detection thresholds (flight-dump triggers).
    /// `FUN3D_WALL_BUDGET=<seconds>` overrides the wall budget.
    pub anomaly: AnomalyConfig,
}

impl Default for PtcConfig {
    fn default() -> Self {
        PtcConfig {
            dt0: 1.0,
            dt_max: 1e12,
            rtol: 1e-8,
            atol: 1e-300,
            max_steps: 200,
            gmres: GmresConfig {
                rtol: 1e-3, // inexact Newton: loose inner tolerance
                ..Default::default()
            },
            anomaly: AnomalyConfig::default(),
        }
    }
}

/// Convergence record of a ΨTC solve.
#[derive(Clone, Debug)]
pub struct PtcStats {
    /// Pseudo-time steps taken (one Newton iteration each).
    pub time_steps: usize,
    /// Total linear (GMRES) iterations — the paper's "linear iterations".
    pub linear_iters: usize,
    /// ‖f(u)‖ after each time step.
    pub res_history: Vec<f64>,
    /// True when the tolerance was met.
    pub converged: bool,
    /// The concrete scheme the last linear solve ran (`"serial"` or
    /// `"team"`) — with [`ExecMode::Auto`], whatever the policy picked.
    /// `"serial"` when no linear solve ran.
    pub exec: &'static str,
    /// Flight-recorder id of this solve (every event the solve emitted
    /// carries it).
    pub solve_id: u64,
    /// The anomaly that aborted the solve, if any (a flight dump with
    /// the matching trigger was written when the recorder is enabled).
    pub anomaly: Option<Anomaly>,
}

/// Runs ΨTC on `problem`, updating `u` in place.
pub fn solve(problem: &mut dyn PtcProblem, u: &mut [f64], config: &PtcConfig) -> PtcStats {
    let n = problem.dim();
    assert_eq!(u.len(), n);
    let mut r = vec![0.0; n];
    let mut shift = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut gmres = Gmres::new(n, config.gmres);
    let pool = problem.solver_pool();
    let mode = problem.exec_mode();

    let threads = pool.as_deref().map(ThreadPool::size).unwrap_or(1) as u64;
    let solve_id = telemetry::begin_solve(n as u64, threads);
    let t0 = Instant::now();
    let mut detector = {
        let mut acfg = config.anomaly;
        if let Some(budget) = std::env::var("FUN3D_WALL_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
        {
            acfg.wall_budget_s = Some(budget);
        }
        AnomalyDetector::new(acfg)
    };
    let regions0 = pool.as_deref().map(ThreadPool::regions_launched);
    let barriers0 = fun3d_threads::total_crossings();

    problem.residual(u, &mut r);
    let res0 = reduced_norm2(problem.reducer(), &r);
    let mut res = res0;
    telemetry::emit(telemetry::EventKind::PtcStep {
        step: 0,
        res: res0,
        dt: 0.0,
        gmres_iters: 0,
    });
    let mut stats = PtcStats {
        time_steps: 0,
        linear_iters: 0,
        res_history: vec![res0],
        converged: res0 <= config.atol,
        exec: "serial",
        solve_id: solve_id.0,
        anomaly: None,
    };
    if stats.converged || res0 == 0.0 {
        stats.converged = true;
        telemetry::end_solve(solve_id, true, 0, 0, res0);
        return stats;
    }

    for step in 0..config.max_steps {
        let _step_span = telemetry::span("ptc.step");
        let step_t0 = Instant::now();
        // SER time step growth.
        let dt = (config.dt0 * res0 / res).min(config.dt_max);
        problem.time_diag(dt, &mut shift);
        {
            let _pc_span = telemetry::span("ptc.precond_build");
            problem.build_preconditioner(u, &shift);
        }

        // Solve (diag(shift) + J) δ = −f(u), matrix-free.
        for i in 0..n {
            rhs[i] = -r[i];
        }
        delta.iter_mut().for_each(|d| *d = 0.0);
        let lin = {
            // Borrow problem immutably for the residual closure: we
            // copy the state into the jacobian via a local closure
            // around a RefCell-free trick — residual needs &mut self,
            // so evaluate through a raw pointer with care.
            let prob_ptr: *mut dyn PtcProblem = problem;
            let residual_fn = move |x: &[f64], out: &mut [f64]| {
                // SAFETY: FdJacobian::apply is only invoked from
                // gmres.solve below, while no other borrow of
                // `problem` is live; calls are strictly sequential.
                unsafe { (*prob_ptr).residual(x, out) };
            };
            let jac = FdJacobian::new(residual_fn, u, &r, &shift, problem.reducer());
            let _gmres_span = telemetry::span("ptc.gmres");
            let exec = match (pool.as_deref(), mode) {
                (None, _) | (Some(_), ExecMode::Serial) => GmresExec::Serial,
                (Some(p), ExecMode::Team) => GmresExec::Team(p),
                (Some(p), ExecMode::Auto) => GmresExec::Auto(p),
            };
            let gmres_t0 = Instant::now();
            let lin = gmres.solve_with(&jac, problem.preconditioner(), &rhs, &mut delta, exec);
            telemetry::metrics::record_ns(
                "solver.gmres_ns",
                gmres_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
            lin
        };
        stats.linear_iters += lin.iterations;
        stats.exec = lin.exec;
        if let Some(tag) = telemetry::ExecTag::parse(lin.exec) {
            telemetry::emit(telemetry::EventKind::Gmres {
                exec: tag,
                iterations: lin.iterations as u64,
                residual: lin.residual,
                reductions: lin.reductions as u64,
            });
        }
        vecops::axpy(u, 1.0, &delta);
        problem.residual(u, &mut r);

        res = reduced_norm2(problem.reducer(), &r);
        stats.time_steps = step + 1;
        stats.res_history.push(res);
        telemetry::metrics::record_ns(
            "solver.ptc_step_ns",
            step_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
        telemetry::emit(telemetry::EventKind::PtcStep {
            step: (step + 1) as u64,
            res,
            dt,
            gmres_iters: lin.iterations as u64,
        });
        problem.on_step(step + 1, res, dt);

        if res <= config.rtol * res0 || res <= config.atol {
            stats.converged = true;
            break;
        }
        // The detector subsumes the old bare `!res.is_finite()` bail: a
        // NaN/Inf residual is a divergence anomaly, and blow-up /
        // stagnation / budget overruns abort too — each with a flight
        // dump naming the trigger, so the black box survives the failure.
        // The clock is summed over processes like every other number a
        // decision rests on: ranks that disagreed on an abort would leave
        // each other waiting in the next collective.
        let mut elapsed = [t0.elapsed().as_secs_f64()];
        reduce_sum(problem.reducer(), &mut elapsed);
        if let Some(anomaly) = detector.observe(step + 1, res, elapsed[0]) {
            telemetry::emit(telemetry::EventKind::Anomaly {
                trigger: anomaly.trigger(),
                step: anomaly.step() as u64,
                value: anomaly.value(),
            });
            stats.anomaly = Some(anomaly);
            if telemetry::enabled() {
                let _ = telemetry::dump(anomaly.trigger());
            }
            break;
        }
    }

    if let (Some(p), Some(r0)) = (pool.as_deref(), regions0) {
        telemetry::emit(telemetry::EventKind::RegionSummary {
            regions: p.regions_launched() - r0,
            barriers: fun3d_threads::total_crossings() - barriers0,
        });
    }
    telemetry::end_solve(
        solve_id,
        stats.converged,
        stats.time_steps as u64,
        stats.linear_iters as u64,
        res,
    );
    if telemetry::enabled() && telemetry::dump_requested() {
        let _ = telemetry::dump(telemetry::Trigger::Request);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, SerialIlu};
    use fun3d_sparse::Bcsr4;

    /// Linear test problem: f(u) = A u − b. Steady state solves A u = b.
    struct LinearProblem {
        a: Bcsr4,
        b: Vec<f64>,
        precond: Option<SerialIlu>,
        vol: Vec<f64>,
    }

    impl LinearProblem {
        fn new(seed: u64) -> Self {
            let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
            let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
            a.fill_diag_dominant(seed);
            let n = a.dim();
            let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 0.1).collect();
            let vol = vec![1.0; n];
            LinearProblem {
                a,
                b,
                precond: None,
                vol,
            }
        }
    }

    impl PtcProblem for LinearProblem {
        fn dim(&self) -> usize {
            self.a.dim()
        }
        fn residual(&mut self, u: &[f64], r: &mut [f64]) {
            self.a.spmv(u, r);
            for i in 0..r.len() {
                r[i] -= self.b[i];
            }
        }
        fn time_diag(&self, dt: f64, out: &mut [f64]) {
            for (o, v) in out.iter_mut().zip(&self.vol) {
                *o = v / dt;
            }
        }
        fn build_preconditioner(&mut self, _u: &[f64], _time_diag: &[f64]) {
            // Note: for simplicity the test preconditioner ignores the
            // time shift; it stays a valid (slightly lagged) M⁻¹.
            if self.precond.is_none() {
                self.precond = Some(SerialIlu::new(&self.a, 0));
            }
        }
        fn preconditioner(&self) -> &dyn Preconditioner {
            self.precond.as_ref().unwrap()
        }
    }

    #[test]
    fn converges_to_linear_steady_state() {
        let mut p = LinearProblem::new(81);
        let n = p.dim();
        let mut u = vec![0.0; n];
        let stats = solve(
            &mut p,
            &mut u,
            &PtcConfig {
                dt0: 10.0,
                rtol: 1e-10,
                max_steps: 100,
                ..Default::default()
            },
        );
        assert!(stats.converged, "history: {:?}", stats.res_history);
        // u solves A u = b
        let mut r = vec![0.0; n];
        p.residual(&u, &mut r);
        assert!(vecops::norm2(&r) < 1e-8 * vecops::norm2(&p.b).max(1.0));
    }

    #[test]
    fn residual_history_decreases() {
        let mut p = LinearProblem::new(82);
        let n = p.dim();
        let mut u = vec![0.0; n];
        let stats = solve(
            &mut p,
            &mut u,
            &PtcConfig {
                dt0: 5.0,
                rtol: 1e-9,
                ..Default::default()
            },
        );
        let h = &stats.res_history;
        assert!(h.len() >= 3);
        assert!(h.last().unwrap() < &(h[0] * 1e-6));
        // broadly monotone: each step no worse than 10x the previous
        for w in h.windows(2) {
            assert!(w[1] < 10.0 * w[0]);
        }
    }

    #[test]
    fn small_dt_needs_more_steps_than_large() {
        let run = |dt0: f64| {
            let mut p = LinearProblem::new(83);
            let mut u = vec![0.0; p.dim()];
            solve(
                &mut p,
                &mut u,
                &PtcConfig {
                    dt0,
                    rtol: 1e-8,
                    max_steps: 500,
                    ..Default::default()
                },
            )
        };
        let slow = run(0.05);
        let fast = run(50.0);
        assert!(slow.converged && fast.converged);
        assert!(
            fast.time_steps <= slow.time_steps,
            "dt0=50 took {} steps, dt0=0.05 took {}",
            fast.time_steps,
            slow.time_steps
        );
    }

    #[test]
    fn telemetry_series_record_convergence() {
        telemetry::set_level(telemetry::Level::Counters);
        let mut p = LinearProblem::new(85);
        let mut u = vec![0.0; p.dim()];
        let stats = solve(&mut p, &mut u, &PtcConfig::default());
        assert!(stats.time_steps >= 1);
        // The solve's ptc_step events, step 0 the initial residual, are
        // its convergence history bit for bit.
        let history = telemetry::flight_log().convergence(stats.solve_id);
        let steps: Vec<u64> = history.iter().map(|h| h.0).collect();
        assert_eq!(steps, (0..=stats.time_steps as u64).collect::<Vec<_>>());
        let res: Vec<u64> = history.iter().map(|h| h.1.to_bits()).collect();
        let want: Vec<u64> = stats.res_history.iter().map(|r| r.to_bits()).collect();
        assert_eq!(res, want);
        let iters: u64 = history.iter().map(|h| h.3).sum();
        assert_eq!(iters, stats.linear_iters as u64);
    }

    #[test]
    fn counts_linear_iterations() {
        let mut p = LinearProblem::new(84);
        let mut u = vec![0.0; p.dim()];
        let stats = solve(&mut p, &mut u, &PtcConfig::default());
        assert!(stats.time_steps >= 1);
        assert!(stats.linear_iters >= stats.time_steps);
    }

    /// A genuinely nonlinear scalar-ish problem: f(u)_i = u_i + u_i^3 − c_i.
    struct CubicProblem {
        c: Vec<f64>,
        ident: IdentityPrecond,
    }

    impl PtcProblem for CubicProblem {
        fn dim(&self) -> usize {
            self.c.len()
        }
        fn residual(&mut self, u: &[f64], r: &mut [f64]) {
            for i in 0..u.len() {
                r[i] = u[i] + u[i] * u[i] * u[i] - self.c[i];
            }
        }
        fn time_diag(&self, dt: f64, out: &mut [f64]) {
            out.iter_mut().for_each(|o| *o = 1.0 / dt);
        }
        fn build_preconditioner(&mut self, _u: &[f64], _s: &[f64]) {}
        fn preconditioner(&self) -> &dyn Preconditioner {
            &self.ident
        }
    }

    #[test]
    fn nonlinear_problem_converges() {
        let n = 32;
        let c: Vec<f64> = (0..n).map(|i| ((i as f64 * 0.3).sin()) * 2.0).collect();
        let mut p = CubicProblem {
            c: c.clone(),
            ident: IdentityPrecond(n),
        };
        let mut u = vec![0.0; n];
        let stats = solve(
            &mut p,
            &mut u,
            &PtcConfig {
                dt0: 1.0,
                rtol: 1e-10,
                max_steps: 200,
                ..Default::default()
            },
        );
        assert!(stats.converged);
        for i in 0..n {
            let f = u[i] + u[i].powi(3) - c[i];
            assert!(f.abs() < 1e-7, "i={i}: residual {f}");
        }
    }
}
