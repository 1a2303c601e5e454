//! Preconditioners: identity and global ILU.
//!
//! The ILU application runs serially or with P2P sparsified
//! synchronization; Fig. 7's third strategy, a barrier per level, is a
//! modelled row only.

use fun3d_sparse::{
    ilu, solve_p2p_into, sweep_p2p_team, trsv_solve_into, Bcsr4, IluFactors, P2pSchedule, Sweep,
};
use fun3d_threads::{P2pProgress, TeamMember, TeamSlice, ThreadPool};
use fun3d_util::telemetry;
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
    /// were built for. Each thread's sweeps record their blocked waits
    /// under the kernel counters `trsv.p2p_wait.fwd` and
    /// `trsv.p2p_wait.bwd`.
    pub fn p2p(pool: Arc<ThreadPool>, fwd: Arc<P2pSchedule>, bwd: Arc<P2pSchedule>) -> Self {
        let nt = pool.size();
        assert_eq!(nt, fwd.nthreads());
        assert_eq!(nt, bwd.nthreads());
        IluApply::P2p {
            fwd_progress: fwd.progress().attributed("trsv.p2p_wait.fwd"),
            bwd_progress: bwd.progress().attributed("trsv.p2p_wait.bwd"),
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
            IluApply::Serial => trsv_solve_into(f, r, scratch, z),
            IluApply::P2p {
                pool,
                fwd,
                bwd,
                fwd_progress,
                bwd_progress,
            } => solve_p2p_into(
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
                sweep_p2p_team(Sweep::Forward, &self.factors, r, z, tid, fwd, fwd_progress);
                tm.barrier();
                sweep_p2p_team(Sweep::Backward, &self.factors, z, z, tid, bwd, bwd_progress);
                tm.barrier();
            }
        }
    }
}

/// The most pseudo-time steps one set of factors serves: KINSOL's default
/// `msbset`, the number of nonlinear iterations between preconditioner
/// set-ups (Hindmarsh et al., "SUNDIALS: Suite of nonlinear and
/// differential/algebraic equation solvers", ACM TOMS 31, 2005). Newton–
/// Krylov codes lag the preconditioner by default (Knoll and Keyes,
/// "Jacobian-free Newton–Krylov methods", J. Comput. Phys. 193, 2004).
pub const FACTOR_AGE_CAP: usize = 10;

/// The one factor-reuse rule of a ΨTC problem that factors its own
/// preconditioner: asked once per `build_preconditioner`, fed by the
/// problem's [`PtcProblem::on_step`](crate::ptc::PtcProblem::on_step). It
/// says refactor when
/// * the solve has no factors yet (`ptc::solve` reports step 0 before
///   its first step);
/// * the factors have served `cap` steps;
/// * the last step's residual norm did not fall — KINSOL's re-setup after
///   a failed step on stale data.
///
/// Every input is a step count or a reduced residual norm, so the ranks
/// of a distributed solve decide alike.
#[derive(Clone, Copy, Debug)]
pub struct FactorAge {
    cap: usize,
    /// Steps the current factors have served in this solve; `None` before
    /// the solve's first build.
    age: Option<usize>,
    /// The residual norm of the last step reported.
    last_res: f64,
    /// That step's residual norm did not fall below the one before.
    stalled: bool,
}

impl FactorAge {
    /// Refactors at least every `cap` steps (0 reads as 1: every step).
    pub fn new(cap: usize) -> FactorAge {
        FactorAge {
            cap: cap.max(1),
            age: None,
            last_res: f64::INFINITY,
            stalled: false,
        }
    }

    /// Records a step's residual norm; step 0, the initial residual,
    /// begins a solve, which has no factors yet.
    pub fn on_step(&mut self, step: usize, res_norm: f64) {
        if step == 0 {
            self.age = None;
        }
        self.stalled = step > 0 && !(res_norm < self.last_res);
        self.last_res = res_norm;
    }

    /// Forgets the factors: the next build refactors.
    pub fn reset(&mut self) {
        self.age = None;
    }

    /// The next build is the solve's first.
    pub fn first_build(&self) -> bool {
        self.age.is_none()
    }

    /// Whether this step's build refactors; counts the step either way.
    /// A yes is logged as an `ilu_refactor` flight event with the age of
    /// the factors it replaces.
    pub fn refactor_now(&mut self) -> bool {
        let (due, age) = match self.age {
            Some(age) if age < self.cap && !self.stalled => (false, age + 1),
            _ => (true, 1),
        };
        if due {
            telemetry::emit(telemetry::EventKind::IluRefactor {
                age: self.age.unwrap_or(0) as u64,
                stalled: self.stalled,
            });
        }
        self.age = Some(age);
        due
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

    /// The steps at which `rule` refactors over a residual history, step
    /// 0 the initial residual.
    fn refactor_steps(mut rule: FactorAge, history: &[f64]) -> Vec<usize> {
        rule.on_step(0, history[0]);
        let mut steps = Vec::new();
        for (step, &res) in history[1..].iter().enumerate() {
            if rule.refactor_now() {
                steps.push(step);
            }
            rule.on_step(step + 1, res);
        }
        steps
    }

    #[test]
    fn factors_are_rebuilt_at_the_age_cap() {
        let falling: Vec<f64> = (0..12).map(|k| 0.5f64.powi(k)).collect();
        let all: Vec<usize> = (0..11).collect();
        assert_eq!(refactor_steps(FactorAge::new(1), &falling), all);
        assert_eq!(refactor_steps(FactorAge::new(0), &falling), all);
        assert_eq!(refactor_steps(FactorAge::new(4), &falling), [0, 4, 8]);
        assert_eq!(
            refactor_steps(FactorAge::new(FACTOR_AGE_CAP), &falling),
            [0, 10]
        );
    }

    #[test]
    fn a_residual_that_does_not_fall_rebuilds_the_factors() {
        // Steps 1 and 4 end no lower than they started: steps 2 and 5
        // refactor, and the age counts from there.
        let history = [1.0, 0.5, 0.6, 0.3, 0.2, 0.2, 0.1, 0.05];
        assert_eq!(refactor_steps(FactorAge::new(10), &history), [0, 2, 5]);
        assert_eq!(refactor_steps(FactorAge::new(2), &history), [0, 2, 4, 5]);
    }

    #[test]
    fn step_zero_begins_a_solve_without_factors() {
        let mut rule = FactorAge::new(10);
        assert!(rule.first_build());
        assert!(rule.refactor_now());
        assert!(!rule.first_build());
        rule.on_step(1, 0.5);
        assert!(!rule.refactor_now());
        // A second solve: its step 0 is larger than the last step's
        // residual, but the rule refactors because the solve is new.
        rule.on_step(0, 1.0);
        assert!(rule.first_build());
        assert!(rule.refactor_now());
        rule.on_step(1, 0.5);
        rule.reset();
        assert!(rule.refactor_now());
    }
}
