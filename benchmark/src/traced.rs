//! The decorator that records spans around an application's layer calls.

use crate::trace::Tracer;
use fun3d_core::Fun3dApp;
use fun3d_solver::precond::Preconditioner;
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem, PtcStats};
use fun3d_solver::ExecMode;
use fun3d_threads::{TeamMember, TeamSlice, ThreadPool};
use std::cell::RefCell;
use std::sync::Arc;

pub const SOLVE: &str = "solver.solve";
pub const RESIDUAL: &str = "core.residual";
pub const PRECOND_BUILD: &str = "core.precond_build";
pub const TRSV: &str = "sparse.trsv";

/// Owns a `Fun3dApp` and stands in for it as both the ΨTC problem and its
/// preconditioner, delegating every call and timing the three that cross
/// into another layer. The program under test is not instrumented; the
/// solver sees an ordinary problem.
pub struct Traced {
    app: Fun3dApp,
    /// Written by the thread driving the solve and, inside team regions,
    /// by the team leader alone. The driving thread is parked in the
    /// pool's region launch while the leader runs, so the two never hold
    /// the cell at once.
    log: RefCell<Tracer>,
}

impl Traced {
    pub fn new(app: Fun3dApp, log: Tracer) -> Traced {
        Traced {
            app,
            log: RefCell::new(log),
        }
    }

    pub fn into_parts(self) -> (Fun3dApp, Tracer) {
        (self.app, self.log.into_inner())
    }

    /// One ΨTC solve from free stream under a [`SOLVE`] span: the same
    /// calls as `Fun3dApp::run`, made through the decorator.
    pub fn solve(&mut self, config: &PtcConfig) -> (Vec<f64>, PtcStats) {
        let mut u = self.app.initial_state();
        let root = self.log.get_mut().begin(SOLVE);
        let stats = ptc::solve(self, &mut u, config);
        self.log.get_mut().end(root);
        (u, stats)
    }
}

impl PtcProblem for Traced {
    fn dim(&self) -> usize {
        PtcProblem::dim(&self.app)
    }

    fn residual(&mut self, u: &[f64], r: &mut [f64]) {
        let app = &mut self.app;
        self.log.get_mut().span(RESIDUAL, || app.residual(u, r));
    }

    fn time_diag(&self, dt: f64, out: &mut [f64]) {
        self.app.time_diag(dt, out);
    }

    fn build_preconditioner(&mut self, u: &[f64], time_diag: &[f64]) {
        let app = &mut self.app;
        self.log
            .get_mut()
            .span(PRECOND_BUILD, || app.build_preconditioner(u, time_diag));
    }

    fn preconditioner(&self) -> &dyn Preconditioner {
        self
    }

    fn on_step(&mut self, step: usize, res_norm: f64, dt: f64) {
        self.app.on_step(step, res_norm, dt);
    }

    fn solver_pool(&self) -> Option<Arc<ThreadPool>> {
        self.app.solver_pool()
    }

    fn exec_mode(&self) -> ExecMode {
        self.app.exec_mode()
    }
}

impl Preconditioner for Traced {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let id = self.log.borrow_mut().begin(TRSV);
        self.app.preconditioner().apply(r, z);
        self.log.borrow_mut().end(id);
    }

    fn dim(&self) -> usize {
        self.app.preconditioner().dim()
    }

    unsafe fn apply_team(&self, tm: &TeamMember, r: TeamSlice, z: TeamSlice) {
        // Only the leader touches the log; see the field's comment.
        let id = (tm.tid() == 0).then(|| self.log.borrow_mut().begin(TRSV));
        // SAFETY: the caller's contract is passed through unchanged to the
        // application's own preconditioner.
        unsafe { self.app.preconditioner().apply_team(tm, r, z) };
        if let Some(id) = id {
            self.log.borrow_mut().end(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::team_size;
    use crate::trace::{closure_err, total_by_name};
    use fun3d_core::{FlowConditions, OptConfig};
    use fun3d_mesh::generator::MeshPreset;

    fn fresh(cfg: OptConfig) -> Fun3dApp {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        Fun3dApp::new(mesh, FlowConditions::default(), cfg)
    }

    #[test]
    fn traced_solve_is_bitwise_the_untraced_one() {
        let ptc = PtcConfig {
            dt0: 2.0,
            rtol: 1e-8,
            max_steps: 80,
            ..Default::default()
        };
        // A team of two exercises `apply_team` even on a one-core host;
        // the claim is about equal results, not about speed.
        for nt in [1, team_size().max(2)] {
            let (u_plain, s_plain) = fresh(OptConfig::optimized(nt)).run(&ptc);
            let mut traced =
                Traced::new(fresh(OptConfig::optimized(nt)), Tracer::with_capacity(4096));
            let (u, s) = traced.solve(&ptc);
            assert!(s.converged && s_plain.converged);
            assert_eq!(u, u_plain, "nt={nt}: state differs");
            assert_eq!(
                (s.linear_iters, s.time_steps),
                (s_plain.linear_iters, s_plain.time_steps)
            );
            assert_eq!(s.res_history, s_plain.res_history);

            let (_, log) = traced.into_parts();
            let spans = log.spans();
            assert_eq!(spans[0].name, SOLVE);
            assert_eq!(
                total_by_name(spans, 0, PRECOND_BUILD).1,
                s.time_steps as u64
            );
            // One residual before the first step, one after each, and one
            // per matrix-free operator application inside GMRES.
            assert!(total_by_name(spans, 0, RESIDUAL).1 > (s.time_steps + s.linear_iters) as u64);
            assert!(total_by_name(spans, 0, TRSV).1 >= s.linear_iters as u64);
            assert!(
                spans[1..].iter().all(|sp| sp.parent == Some(0)),
                "layer calls do not nest"
            );
            assert!(closure_err(spans, 0) < 1e-9);
        }
    }
}
