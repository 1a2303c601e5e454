//! Left-preconditioned restarted GMRES with classical Gram-Schmidt.
//!
//! This mirrors PETSc's default KSP configuration for PETSc-FUN3D:
//! GMRES(30), left preconditioning, classical Gram-Schmidt
//! orthogonalization (the `VecMDot`/`VecMAXPY`-heavy variant whose vector
//! primitives show up in the paper's profile), and a Givens-rotation
//! least-squares update so the residual norm is available every iteration
//! without forming the solution.
//!
//! Three execution modes ([`GmresExec`]):
//!
//! * **Serial** — stock single-threaded vector ops (the baseline).
//! * **PerOp** — region-per-op threading: every vector op, SpMV, and
//!   triangular sweep launches its own pool region (how "parallelize the
//!   kernels one by one" naturally composes, and what the paper's
//!   fork-join overhead measurements are about).
//! * **Team** — persistent SPMD regions: each Arnoldi iteration (SpMV →
//!   preconditioner → orthogonalization → basis update) runs inside
//!   **one** region, with [`SpinBarrier`](fun3d_threads::SpinBarrier)
//!   phases instead of region boundaries and tree reductions instead of
//!   per-op rendezvous.
//!
//! PerOp and Team share identical chunking and thread-order reductions,
//! so at a fixed thread count they produce bitwise-identical iterates and
//! residual histories — the persistent-region restructuring changes only
//! synchronization cost, not numerics.

use crate::op::LinearOperator;
use crate::precond::Preconditioner;
use crate::team as team_ops;
use crate::vecops;
use fun3d_threads::{Team, TeamSlice, ThreadPool};

/// GMRES parameters.
#[derive(Clone, Copy, Debug)]
pub struct GmresConfig {
    /// Restart length (PETSc default 30).
    pub restart: usize,
    /// Relative tolerance on the preconditioned residual.
    pub rtol: f64,
    /// Absolute tolerance on the preconditioned residual.
    pub atol: f64,
    /// Iteration cap across restarts.
    pub max_iters: usize,
    /// Fuse the Gram-Schmidt coefficients and the new basis vector's norm
    /// into a single reduction per iteration ("l1-GMRES", the direction of
    /// Ghysels et al. [28] the paper lists as future work): `‖w⊥‖² =
    /// ‖w‖² − Σᵢ hᵢ²` by Pythagoras, so the separate norm reduction
    /// disappears. Halves the allreduce count at a small numerical-
    /// robustness cost (guarded by a re-normalization fallback).
    pub single_reduction: bool,
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig {
            restart: 30,
            rtol: 1e-6,
            atol: 1e-50,
            max_iters: 1000,
            single_reduction: false,
        }
    }
}

/// How the solve is executed (see module docs).
#[derive(Clone, Copy)]
pub enum GmresExec<'p> {
    /// Single-threaded vector ops.
    Serial,
    /// Region-per-op threading on the given pool.
    PerOp(&'p ThreadPool),
    /// Persistent SPMD regions on the given pool: one region per Arnoldi
    /// iteration.
    Team(&'p ThreadPool),
    /// Pick Serial / PerOp / Team per solve from the machine model plus
    /// the measured sync costs of this pool
    /// ([`AutoPolicy`](crate::policy::AutoPolicy)): serial below the
    /// size where the pool's threads can amortize region-launch and
    /// barrier cost, the cheapest parallel scheme above it.
    Auto(&'p ThreadPool),
}

/// Why GMRES stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GmresOutcome {
    /// Hit the relative tolerance.
    ConvergedRtol,
    /// Hit the absolute tolerance.
    ConvergedAtol,
    /// Ran out of iterations.
    MaxIterations,
    /// Arnoldi produced a zero vector: solution is exact in the subspace.
    Breakdown,
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct GmresResult {
    /// Why iteration stopped.
    pub outcome: GmresOutcome,
    /// Iterations performed (matrix applications).
    pub iterations: usize,
    /// Final preconditioned residual norm.
    pub residual: f64,
    /// Initial preconditioned residual norm.
    pub residual0: f64,
    /// Global reductions performed (dot-product/norm rounds — what an
    /// `MPI_Allreduce` would be in the distributed setting). Standard
    /// CGS-GMRES performs 2 per iteration; single-reduction mode 1.
    pub reductions: usize,
    /// Per-iteration Givens residual norms, in iteration order across
    /// restarts. Execution-path equivalence is asserted on this.
    pub history: Vec<f64>,
    /// The concrete execution scheme that ran (`"serial"`, `"per-op"`,
    /// `"team"`) — for [`GmresExec::Auto`], whichever the policy chose.
    pub exec: &'static str,
}

/// Shared-reference wrapper asserting team-call safety for trait objects
/// captured by a region closure.
///
/// SAFETY: inside regions the wrapped reference is only used through the
/// `apply_team` methods, whose trait contracts require data-race freedom
/// under concurrent calls from one team (the default `Preconditioner`
/// implementation confines `self` to the barrier-ordered leader, so even
/// non-`Sync` preconditioners are sound). Operators are dereferenced
/// in-region only when `team_capable()` holds.
struct AssertTeamSafe<'a, T: ?Sized>(&'a T);
unsafe impl<T: ?Sized> Sync for AssertTeamSafe<'_, T> {}
unsafe impl<T: ?Sized> Send for AssertTeamSafe<'_, T> {}

impl<T: ?Sized> AssertTeamSafe<'_, T> {
    /// Accessor (rather than field access) so region closures capture the
    /// wrapper — 2021-edition closures capture individual fields, which
    /// would reintroduce the raw non-`Sync` reference.
    fn get(&self) -> &T {
        self.0
    }
}

/// Workspace-owning GMRES solver (buffers reused across calls): nothing
/// is allocated per iteration or per restart cycle.
pub struct Gmres {
    /// Configuration.
    pub config: GmresConfig,
    basis: Vec<Vec<f64>>,
    h: Vec<f64>, // Hessenberg, column-major (restart+1) x restart
    work: Vec<f64>,
    work2: Vec<f64>,
    /// Least-squares right-hand side, `restart + 1`.
    g: Vec<f64>,
    /// Givens cosines and sines, `restart` each.
    cs: Vec<f64>,
    sn: Vec<f64>,
    /// Back-substituted correction coefficients, `restart`.
    y: Vec<f64>,
    /// Gram-Schmidt coefficients of the current iteration: one
    /// [`Gmres::coeff_stride`]-wide slot per thread (serial and per-op
    /// use the first), so team threads never share a cache line.
    coeffs: Vec<f64>,
}

impl Gmres {
    /// Creates a solver for vectors of length `n`.
    pub fn new(n: usize, config: GmresConfig) -> Self {
        let restart = config.restart;
        Gmres {
            config,
            basis: (0..restart + 1).map(|_| vec![0.0; n]).collect(),
            h: vec![0.0; (restart + 1) * restart],
            work: vec![0.0; n],
            work2: vec![0.0; n],
            g: vec![0.0; restart + 1],
            cs: vec![0.0; restart],
            sn: vec![0.0; restart],
            y: vec![0.0; restart],
            coeffs: vec![0.0; Self::coeff_stride(restart)],
        }
    }

    /// Width of one thread's coefficient slot: the `restart + 1`
    /// coefficients plus the fused `<w, w>`, rounded up to whole cache
    /// lines.
    fn coeff_stride(restart: usize) -> usize {
        (restart + 2).div_ceil(8) * 8
    }

    /// Solves `A x = b` with left preconditioning, starting from the
    /// current contents of `x` (use zeros for a fresh solve). Serial
    /// execution; see [`Gmres::solve_with`] for the threaded modes.
    pub fn solve(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
    ) -> GmresResult {
        self.solve_with(a, m, b, x, GmresExec::Serial)
    }

    /// Solves `A x = b` under the chosen execution mode.
    pub fn solve_with(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        exec: GmresExec,
    ) -> GmresResult {
        match exec {
            GmresExec::Serial => self.solve_seq(a, m, b, x, None),
            GmresExec::PerOp(pool) => self.solve_seq(a, m, b, x, Some(pool)),
            GmresExec::Team(pool) => self.solve_team(a, m, b, x, pool),
            GmresExec::Auto(pool) => {
                let decision =
                    crate::policy::AutoPolicy::for_pool(pool).decision(b.len(), pool.size());
                decision.record(b.len(), pool.size());
                match decision.mode {
                    crate::policy::ExecMode::Serial => self.solve_seq(a, m, b, x, None),
                    crate::policy::ExecMode::PerOp => self.solve_seq(a, m, b, x, Some(pool)),
                    _ => self.solve_team(a, m, b, x, pool),
                }
            }
        }
    }

    /// Serial and region-per-op paths: one control flow, ops dispatched
    /// per call site (`pool: None` = serial).
    fn solve_seq(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        pool: Option<&ThreadPool>,
    ) -> GmresResult {
        let n = b.len();
        assert_eq!(a.dim(), n);
        assert_eq!(x.len(), n);
        let restart = self.config.restart;
        let exec = if pool.is_some() { "per-op" } else { "serial" };

        let mut total_iters = 0usize;
        let mut reductions = 0usize;
        let mut residual0 = f64::NAN;
        let mut history = Vec::new();

        loop {
            // r = M^{-1} (b - A x)
            match pool {
                None => a.apply(x, &mut self.work),
                Some(p) => a.apply_parallel(p, x, &mut self.work),
            }
            match pool {
                None => vecops::bsub(&mut self.work, b),
                Some(p) => vecops::par::bsub(p, &mut self.work, b),
            }
            m.apply(&self.work, &mut self.work2);
            let beta = match pool {
                None => vecops::norm2(&self.work2),
                Some(p) => vecops::par::norm2(p, &self.work2),
            };
            reductions += 1;
            if residual0.is_nan() {
                residual0 = beta;
            }
            if beta <= self.config.atol {
                return GmresResult {
                    outcome: GmresOutcome::ConvergedAtol,
                    iterations: total_iters,
                    residual: beta,
                    residual0,
                    reductions,
                    history,
                    exec,
                };
            }
            if beta <= self.config.rtol * residual0 {
                return GmresResult {
                    outcome: GmresOutcome::ConvergedRtol,
                    iterations: total_iters,
                    residual: beta,
                    residual0,
                    reductions,
                    history,
                    exec,
                };
            }
            // v1 = r/beta
            match pool {
                None => vecops::div_into(&mut self.basis[0], &self.work2, beta),
                Some(p) => vecops::par::div_into(p, &mut self.basis[0], &self.work2, beta),
            }
            let (g, cs, sn) = (&mut self.g, &mut self.cs, &mut self.sn);
            g.fill(0.0);
            g[0] = beta;
            let mut k_done = 0usize;
            let mut finished: Option<GmresOutcome> = None;
            let mut res = beta;

            for k in 0..restart {
                if total_iters >= self.config.max_iters {
                    finished = Some(GmresOutcome::MaxIterations);
                    break;
                }
                total_iters += 1;
                // w = M^{-1} A v_k
                match pool {
                    None => a.apply(&self.basis[k], &mut self.work),
                    Some(p) => a.apply_parallel(p, &self.basis[k], &mut self.work),
                }
                m.apply(&self.work, &mut self.work2);
                // classical Gram-Schmidt: h[0..=k] = V^T w, w -= V h.
                // In single-reduction mode, <w,w> joins the same fused
                // mdot and the new norm comes from Pythagoras.
                let basis = &self.basis[..=k];
                let fused = usize::from(self.config.single_reduction);
                let out = &mut self.coeffs[..k + 1 + fused];
                match pool {
                    None => vecops::mdot(&self.work2, basis, out),
                    Some(p) => vecops::par::mdot(p, &self.work2, basis, out),
                }
                reductions += 1;
                // `<w, w>` when fused (read only then).
                let ww = out[k + fused];
                let coeffs = &mut out[..k + 1];
                self.h[k * (restart + 1)..][..k + 1].copy_from_slice(coeffs);
                let h2: f64 = coeffs.iter().map(|c| c * c).sum();
                coeffs.iter_mut().for_each(|c| *c = -*c);
                match pool {
                    None => vecops::maxpy(&mut self.work2, coeffs, basis),
                    Some(p) => vecops::par::maxpy(p, &mut self.work2, coeffs, basis),
                }
                let hkk = if self.config.single_reduction {
                    let mut hkk2 = ww - h2;
                    // Pythagoras holds only as far as the basis is
                    // orthonormal; one-pass CGS loses orthogonality
                    // exactly when the update cancels strongly, so
                    // fall back to a direct norm whenever less than
                    // 1% of ‖w‖² survives (one extra reduction on
                    // those iterations — still fewer on net).
                    if hkk2 < 1e-2 * ww {
                        hkk2 = match pool {
                            None => vecops::dot(&self.work2, &self.work2),
                            Some(p) => vecops::par::dot(p, &self.work2, &self.work2),
                        };
                        reductions += 1;
                    }
                    hkk2.max(0.0).sqrt()
                } else {
                    reductions += 1;
                    match pool {
                        None => vecops::norm2(&self.work2),
                        Some(p) => vecops::par::norm2(p, &self.work2),
                    }
                };
                self.h[k * (restart + 1) + k + 1] = hkk;
                k_done = k + 1;
                if hkk <= 1e-14 * res.max(1.0) {
                    finished = Some(GmresOutcome::Breakdown);
                } else {
                    let next = &mut self.basis[k + 1];
                    match pool {
                        None => vecops::div_into(next, &self.work2, hkk),
                        Some(p) => vecops::par::div_into(p, next, &self.work2, hkk),
                    }
                }
                // apply existing Givens rotations to column k
                let col = &mut self.h[k * (restart + 1)..(k + 1) * (restart + 1)];
                for i in 0..k {
                    let t = cs[i] * col[i] + sn[i] * col[i + 1];
                    col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1];
                    col[i] = t;
                }
                // new rotation to kill col[k+1]
                let (c, s) = givens(col[k], col[k + 1]);
                cs[k] = c;
                sn[k] = s;
                col[k] = c * col[k] + s * col[k + 1];
                col[k + 1] = 0.0;
                let t = c * g[k] + s * g[k + 1];
                g[k + 1] = -s * g[k] + c * g[k + 1];
                g[k] = t;
                res = g[k + 1].abs();
                history.push(res);

                if res <= self.config.atol {
                    finished = Some(GmresOutcome::ConvergedAtol);
                } else if res <= self.config.rtol * residual0 {
                    finished = Some(GmresOutcome::ConvergedRtol);
                }
                if finished.is_some() {
                    break;
                }
            }

            // back-substitute y from the triangularized Hessenberg
            let kk = k_done;
            let y = &mut self.y[..kk];
            back_substitute(&self.h, restart + 1, g, y);
            // x += V y
            match pool {
                None => vecops::maxpy(x, y, &self.basis[..kk]),
                Some(p) => vecops::par::maxpy(p, x, y, &self.basis[..kk]),
            }

            match finished {
                Some(outcome) => {
                    return GmresResult {
                        outcome,
                        iterations: total_iters,
                        residual: res,
                        residual0,
                        reductions,
                        history,
                        exec,
                    }
                }
                None => {
                    if total_iters >= self.config.max_iters {
                        return GmresResult {
                            outcome: GmresOutcome::MaxIterations,
                            iterations: total_iters,
                            residual: res,
                            residual0,
                            reductions,
                            history,
                            exec,
                        };
                    }
                    // restart
                }
            }
        }
    }

    /// Persistent-SPMD path: one pool region per Arnoldi iteration (plus
    /// one at cycle start and one for the solution update per restart
    /// cycle), barrier phases inside. Operators that are not
    /// `team_capable` are applied by the main thread *between* regions
    /// (hybrid mode — matrix-free operators launch their own regions).
    ///
    /// Scalar recurrences (Givens rotations, Hessenberg bookkeeping,
    /// convergence control) stay on the main thread between regions;
    /// regions hand back the reduced scalars through a mailbox buffer.
    fn solve_team(
        &mut self,
        a: &dyn LinearOperator,
        m: &dyn Preconditioner,
        b: &[f64],
        x: &mut [f64],
        pool: &ThreadPool,
    ) -> GmresResult {
        let n = b.len();
        assert_eq!(a.dim(), n);
        assert_eq!(x.len(), n);
        let restart = self.config.restart;
        let nt = pool.size();
        let team = Team::new(nt, restart + 2);
        let hybrid = !a.team_capable();
        let single = self.config.single_reduction;
        let (atol, rtol) = (self.config.atol, self.config.rtol);

        // Borrow-erased views shared with the region closures. From here
        // on, these buffers are touched only through the views: by the
        // team inside regions, by the main thread between them. The
        // basis is the exception: a region borrows the vectors it reads
        // (`&self.basis[..=k]`) and erases only the one it writes.
        let x_s = TeamSlice::new(x);
        let b_s = TeamSlice::from_raw(b.as_ptr() as *mut f64, n);
        let work_s = TeamSlice::new(&mut self.work);
        let work2_s = TeamSlice::new(&mut self.work2);
        // Region → main-thread mailbox: beta / Gram-Schmidt coefficients
        // in [0..restart+1), h_{k+1,k} at [restart+1], extra-reduction
        // flag at [restart+2]. Leader-written, read between regions.
        let mut cell = vec![0.0f64; restart + 3];
        let cell_s = TeamSlice::new(&mut cell);
        // One coefficient slot per thread (see the field).
        let stride = Self::coeff_stride(restart);
        self.coeffs.resize(nt * stride, 0.0);
        let coeffs_s = TeamSlice::new(&mut self.coeffs);

        let a_sync = AssertTeamSafe(a);
        let m_sync = AssertTeamSafe(m);

        let exec = "team";
        let mut total_iters = 0usize;
        let mut reductions = 0usize;
        let mut residual0 = f64::NAN;
        let mut history = Vec::new();

        loop {
            // Cycle start: r = M^{-1}(b - A x), beta, v1 — one region.
            if hybrid {
                // SAFETY: no region is active; main thread owns the views.
                unsafe {
                    let xs = x_s.slice(0..n);
                    let ws = work_s.slice_mut(0..n);
                    a.apply(xs, ws);
                }
            }
            let r0_in = residual0;
            let basis_first = TeamSlice::new(&mut self.basis[0]);
            pool.run(|tid| {
                // SAFETY: one member per tid per region.
                let tm = unsafe { team.member(tid) };
                if !hybrid {
                    // SAFETY: trait contract — team_capable() holds.
                    unsafe { a_sync.get().apply_team(&tm, x_s, work_s) };
                    tm.barrier();
                }
                team_ops::bsub(&tm, work_s, b_s);
                tm.barrier();
                // SAFETY: r (work) published by the barrier above.
                unsafe { m_sync.get().apply_team(&tm, work_s, work2_s) };
                let beta = team_ops::norm2(&tm, work2_s);
                if tid == 0 {
                    // SAFETY: leader-only write, read after the region.
                    unsafe { cell_s.set(0, beta) };
                }
                // Every thread holds identical beta (deterministic tree
                // reduce), so the convergence branch is uniform; the
                // main thread re-derives the same decision below.
                let r0v = if r0_in.is_nan() { beta } else { r0_in };
                if !(beta <= atol || beta <= rtol * r0v) {
                    team_ops::div_into(&tm, basis_first, work2_s, beta);
                }
            });
            let beta = cell[0];
            reductions += 1;
            if residual0.is_nan() {
                residual0 = beta;
            }
            if beta <= atol {
                return GmresResult {
                    outcome: GmresOutcome::ConvergedAtol,
                    iterations: total_iters,
                    residual: beta,
                    residual0,
                    reductions,
                    history,
                    exec,
                };
            }
            if beta <= rtol * residual0 {
                return GmresResult {
                    outcome: GmresOutcome::ConvergedRtol,
                    iterations: total_iters,
                    residual: beta,
                    residual0,
                    reductions,
                    history,
                    exec,
                };
            }
            let (g, cs, sn) = (&mut self.g, &mut self.cs, &mut self.sn);
            g.fill(0.0);
            g[0] = beta;
            let mut k_done = 0usize;
            let mut finished: Option<GmresOutcome> = None;
            let mut res = beta;

            for k in 0..restart {
                if total_iters >= self.config.max_iters {
                    finished = Some(GmresOutcome::MaxIterations);
                    break;
                }
                total_iters += 1;
                if hybrid {
                    // SAFETY: no region active.
                    unsafe { a.apply(&self.basis[k], work_s.slice_mut(0..n)) };
                }
                // One region: w = M⁻¹ A v_k, CGS orthogonalization, new
                // basis vector. Reduced scalars are identical on every
                // thread, so all branches are uniform across the team.
                let res_in = res;
                let (basis_prefix, basis_rest) = self.basis.split_at_mut(k + 1);
                let basis_prefix: &[Vec<f64>] = basis_prefix;
                let basis_next = TeamSlice::new(&mut basis_rest[0]);
                pool.run(|tid| {
                    // SAFETY: one member per tid per region.
                    let tm = unsafe { team.member(tid) };
                    if !hybrid {
                        let v_k = TeamSlice::from_raw(basis_prefix[k].as_ptr() as *mut f64, n);
                        // SAFETY: v_k is only read (it sits in the shared
                        // prefix); trait contract for concurrency.
                        unsafe { a_sync.get().apply_team(&tm, v_k, work_s) };
                        tm.barrier();
                    }
                    // SAFETY: work published (barrier above or region
                    // entry in hybrid mode).
                    unsafe { m_sync.get().apply_team(&tm, work_s, work2_s) };
                    // SAFETY: slot `tid` is this thread's alone.
                    let slot = unsafe { coeffs_s.slice_mut(tid * stride..(tid + 1) * stride) };
                    let out = &mut slot[..k + 1 + usize::from(single)];
                    team_ops::mdot(&tm, work2_s, basis_prefix, out);
                    // `<w, w>` when fused (read only then).
                    let ww = out[k + usize::from(single)];
                    let coeffs = &mut out[..k + 1];
                    if tid == 0 {
                        // SAFETY: leader-only mailbox write.
                        unsafe { cell_s.slice_mut(0..k + 1).copy_from_slice(coeffs) };
                    }
                    let h2: f64 = coeffs.iter().map(|c| c * c).sum();
                    coeffs.iter_mut().for_each(|c| *c = -*c);
                    team_ops::maxpy(&tm, work2_s, coeffs, basis_prefix);
                    let (hkk, extra) = if single {
                        let mut hkk2 = ww - h2;
                        let mut extra = 0.0;
                        if hkk2 < 1e-2 * ww {
                            hkk2 = team_ops::dot(&tm, work2_s, work2_s);
                            extra = 1.0;
                        }
                        (hkk2.max(0.0).sqrt(), extra)
                    } else {
                        (team_ops::norm2(&tm, work2_s), 0.0)
                    };
                    if tid == 0 {
                        // SAFETY: leader-only mailbox write.
                        unsafe {
                            cell_s.set(restart + 1, hkk);
                            cell_s.set(restart + 2, extra);
                        }
                    }
                    if !(hkk <= 1e-14 * res_in.max(1.0)) {
                        team_ops::div_into(&tm, basis_next, work2_s, hkk);
                    }
                });
                reductions += 1;
                if single {
                    reductions += cell[restart + 2] as usize;
                } else {
                    reductions += 1;
                }
                self.h[k * (restart + 1)..][..k + 1].copy_from_slice(&cell[..k + 1]);
                let hkk = cell[restart + 1];
                self.h[k * (restart + 1) + k + 1] = hkk;
                k_done = k + 1;
                if hkk <= 1e-14 * res.max(1.0) {
                    finished = Some(GmresOutcome::Breakdown);
                }
                // apply existing Givens rotations to column k
                let col = &mut self.h[k * (restart + 1)..(k + 1) * (restart + 1)];
                for i in 0..k {
                    let t = cs[i] * col[i] + sn[i] * col[i + 1];
                    col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1];
                    col[i] = t;
                }
                let (c, s) = givens(col[k], col[k + 1]);
                cs[k] = c;
                sn[k] = s;
                col[k] = c * col[k] + s * col[k + 1];
                col[k + 1] = 0.0;
                let t = c * g[k] + s * g[k + 1];
                g[k + 1] = -s * g[k] + c * g[k + 1];
                g[k] = t;
                res = g[k + 1].abs();
                history.push(res);

                if res <= atol {
                    finished = Some(GmresOutcome::ConvergedAtol);
                } else if res <= rtol * residual0 {
                    finished = Some(GmresOutcome::ConvergedRtol);
                }
                if finished.is_some() {
                    break;
                }
            }

            // back-substitution on the main thread
            let kk = k_done;
            let y = &mut self.y[..kk];
            back_substitute(&self.h, restart + 1, g, y);
            // x += V y — one region.
            if kk > 0 {
                let (y, basis_used) = (&*y, &self.basis[..kk]);
                pool.run(|tid| {
                    // SAFETY: one member per tid per region.
                    let tm = unsafe { team.member(tid) };
                    team_ops::maxpy(&tm, x_s, y, basis_used);
                });
            }

            match finished {
                Some(outcome) => {
                    return GmresResult {
                        outcome,
                        iterations: total_iters,
                        residual: res,
                        residual0,
                        reductions,
                        history,
                        exec,
                    }
                }
                None => {
                    if total_iters >= self.config.max_iters {
                        return GmresResult {
                            outcome: GmresOutcome::MaxIterations,
                            iterations: total_iters,
                            residual: res,
                            residual0,
                            reductions,
                            history,
                            exec,
                        };
                    }
                    // restart
                }
            }
        }
    }
}

/// Solves the triangularized `y.len()`-column Hessenberg system `H y = g`
/// (`h` column-major with `ld` rows per column).
fn back_substitute(h: &[f64], ld: usize, g: &[f64], y: &mut [f64]) {
    let kk = y.len();
    for i in (0..kk).rev() {
        let mut acc = g[i];
        for j in i + 1..kk {
            acc -= h[j * ld + i] * y[j];
        }
        y[i] = acc / h[i * ld + i];
    }
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else {
        let r = (a * a + b * b).sqrt();
        (a / r, b / r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, SerialIlu};
    use fun3d_sparse::Bcsr4;

    fn mesh_matrix(seed: u64) -> Bcsr4 {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(seed);
        a
    }

    fn check_solution(a: &Bcsr4, b: &[f64], x: &[f64], tol: f64) {
        let n = a.dim();
        let mut ax = vec![0.0; n];
        a.spmv(x, &mut ax);
        let res: f64 = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(res < tol * bnorm, "true residual {res} vs bnorm {bnorm}");
    }

    #[test]
    fn solves_spd_like_system_unpreconditioned() {
        let a = mesh_matrix(71);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let mut x = vec![0.0; n];
        let mut solver = Gmres::new(
            n,
            GmresConfig {
                rtol: 1e-10,
                max_iters: 2000,
                ..Default::default()
            },
        );
        let res = solver.solve(&a, &IdentityPrecond(n), &b, &mut x);
        assert!(matches!(
            res.outcome,
            GmresOutcome::ConvergedRtol | GmresOutcome::ConvergedAtol | GmresOutcome::Breakdown
        ));
        check_solution(&a, &b, &x, 1e-7);
        assert_eq!(res.history.len(), res.iterations);
    }

    #[test]
    fn ilu_preconditioning_cuts_iterations() {
        let a = mesh_matrix(72);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 500,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut x1);
        let mut x2 = vec![0.0; n];
        let ilu = SerialIlu::new(&a, 0);
        let r2 = Gmres::new(n, cfg).solve(&a, &ilu, &b, &mut x2);
        assert!(
            r2.iterations * 2 < r1.iterations.max(2),
            "ILU {} vs none {}",
            r2.iterations,
            r1.iterations
        );
        check_solution(&a, &b, &x2, 1e-6);
    }

    #[test]
    fn restart_path_exercised() {
        let a = mesh_matrix(73);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let cfg = GmresConfig {
            restart: 5, // force many restarts
            rtol: 1e-8,
            max_iters: 3000,
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let res = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut x);
        assert!(res.iterations > 5, "must restart at least once");
        check_solution(&a, &b, &x, 1e-6);
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = mesh_matrix(74);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let mut x = xref.clone(); // exact initial guess
        let res = Gmres::new(n, GmresConfig::default()).solve(
            &a,
            &IdentityPrecond(n),
            &b,
            &mut x,
        );
        assert!(res.iterations <= 1);
        assert!(res.residual <= 1e-8 * res.residual0.max(1.0));
    }

    #[test]
    fn identity_system_converges_in_one() {
        // A = I via a diagonal BCSR with identity blocks.
        let mut a = Bcsr4::from_pattern(&[vec![0], vec![1]]);
        for r in 0..2 {
            let k = a.find(r, r as u32).unwrap();
            for i in 0..4 {
                a.blocks[k * 16 + i * 4 + i] = 1.0;
            }
        }
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let mut x = vec![0.0; n];
        let res = Gmres::new(n, GmresConfig::default()).solve(
            &a,
            &IdentityPrecond(n),
            &b,
            &mut x,
        );
        assert!(res.iterations <= 2);
        for i in 0..n {
            assert!((x[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn single_reduction_matches_standard() {
        let a = mesh_matrix(76);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-9,
            max_iters: 800,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let ilu = SerialIlu::new(&a, 0);
        let r1 = Gmres::new(n, cfg).solve(&a, &ilu, &b, &mut x1);
        let mut cfg2 = cfg;
        cfg2.single_reduction = true;
        let mut x2 = vec![0.0; n];
        let r2 = Gmres::new(n, cfg2).solve(&a, &ilu, &b, &mut x2);
        // identical mathematics, different rounding: iterations within 1.
        assert!(
            (r1.iterations as i64 - r2.iterations as i64).abs() <= 1,
            "{} vs {}",
            r1.iterations,
            r2.iterations
        );
        check_solution(&a, &b, &x2, 1e-6);
    }

    #[test]
    fn single_reduction_reduces_reductions_when_convergence_is_slow() {
        // The fused reduction pays off when the Arnoldi update does not
        // cancel severely — i.e. in the slowly-converging regime where
        // collectives dominate in the first place; with a strong
        // preconditioner the robustness guard falls back to a direct
        // norm (correctness over savings). Use the unpreconditioned
        // system to exercise the winning regime.
        let a = mesh_matrix(77);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 600,
            ..Default::default()
        };
        let r_std = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        let mut cfg1 = cfg;
        cfg1.single_reduction = true;
        let r_one =
            Gmres::new(n, cfg1).solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        let per_std = r_std.reductions as f64 / r_std.iterations.max(1) as f64;
        let per_one = r_one.reductions as f64 / r_one.iterations.max(1) as f64;
        assert!(per_std > 1.8, "standard CGS should do ~2/iter: {per_std}");
        assert!(
            per_one < 1.35,
            "single-reduction should do ~1/iter here: {per_one}"
        );
    }

    #[test]
    fn residual_monotone_triangle() {
        // within a cycle the Givens residual is non-increasing; test via
        // two solves at different tolerances.
        let a = mesh_matrix(75);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let loose = Gmres::new(
            n,
            GmresConfig {
                rtol: 1e-2,
                ..Default::default()
            },
        )
        .solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        let tight = Gmres::new(
            n,
            GmresConfig {
                rtol: 1e-8,
                max_iters: 2000,
                ..Default::default()
            },
        )
        .solve(&a, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
        assert!(tight.iterations >= loose.iterations);
        assert!(tight.residual <= loose.residual);
    }

    // ---- persistent-region (team) execution ----

    use fun3d_threads::ThreadPool;

    fn solve_mode(
        a: &Bcsr4,
        m: &dyn Preconditioner,
        b: &[f64],
        cfg: GmresConfig,
        exec: GmresExec,
    ) -> (GmresResult, Vec<f64>) {
        let n = a.dim();
        let mut x = vec![0.0; n];
        let r = Gmres::new(n, cfg).solve_with(a, m, b, &mut x, exec);
        (r, x)
    }

    #[test]
    fn team_matches_per_op_bitwise_identity_precond() {
        let a = mesh_matrix(81);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 400,
            ..Default::default()
        };
        for nt in [1usize, 2, 4] {
            let pool = ThreadPool::new(nt);
            let m = IdentityPrecond(n);
            let (rp, xp) = solve_mode(&a, &m, &b, cfg, GmresExec::PerOp(&pool));
            let (rt, xt) = solve_mode(&a, &m, &b, cfg, GmresExec::Team(&pool));
            assert_eq!(rp.iterations, rt.iterations, "nt={nt}");
            assert_eq!(rp.history, rt.history, "nt={nt}: residual history must be identical");
            assert_eq!(xp, xt, "nt={nt}: iterates must be bitwise identical");
            assert_eq!(rp.reductions, rt.reductions, "nt={nt}");
        }
    }

    #[test]
    fn team_matches_per_op_bitwise_ilu_levels_and_p2p() {
        let a = mesh_matrix(82);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-9,
            max_iters: 300,
            ..Default::default()
        };
        for nt in [2usize, 4] {
            let pool = std::sync::Arc::new(ThreadPool::new(nt));
            for mode in ["levels", "p2p"] {
                let ilu = match mode {
                    "levels" => SerialIlu::new(&a, 0).with_levels(pool.clone()),
                    _ => SerialIlu::new(&a, 0).with_p2p(pool.clone()),
                };
                let (rp, xp) = solve_mode(&a, &ilu, &b, cfg, GmresExec::PerOp(&pool));
                let (rt, xt) = solve_mode(&a, &ilu, &b, cfg, GmresExec::Team(&pool));
                assert_eq!(rp.history, rt.history, "nt={nt} {mode}");
                assert_eq!(xp, xt, "nt={nt} {mode}");
            }
        }
    }

    #[test]
    fn team_single_reduction_matches_per_op() {
        let a = mesh_matrix(83);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 400,
            single_reduction: true,
            ..Default::default()
        };
        let pool = ThreadPool::new(3);
        let m = IdentityPrecond(n);
        let (rp, xp) = solve_mode(&a, &m, &b, cfg, GmresExec::PerOp(&pool));
        let (rt, xt) = solve_mode(&a, &m, &b, cfg, GmresExec::Team(&pool));
        assert_eq!(rp.history, rt.history);
        assert_eq!(xp, xt);
        assert_eq!(rp.reductions, rt.reductions);
    }

    #[test]
    fn team_one_region_per_iteration() {
        // Single restart cycle: regions = 1 (cycle start) + iterations
        // (one per Arnoldi step) + 1 (x += V y).
        let a = mesh_matrix(84);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 200,
            ..Default::default()
        };
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let ilu = SerialIlu::new(&a, 0).with_levels(pool.clone());
        let before = pool.regions_launched();
        let (rt, _) = solve_mode(&a, &ilu, &b, cfg, GmresExec::Team(&pool));
        let regions = pool.regions_launched() - before;
        assert!(
            rt.iterations < cfg.restart,
            "test premise: one cycle ({} iters)",
            rt.iterations
        );
        assert_eq!(regions, rt.iterations as u64 + 2);
    }

    #[test]
    fn team_hybrid_mode_for_non_team_operators() {
        // A matrix-free FD Jacobian is not team-capable (it launches its
        // own regions / holds RefCell scratch): the team path must apply
        // it between regions and still converge to the same solution.
        let a = mesh_matrix(85);
        let n = a.dim();
        let residual = |u: &[f64], r: &mut [f64]| a.spmv(u, r);
        let u = vec![0.0; n];
        let mut r0 = vec![0.0; n];
        residual(&u, &mut r0);
        let jac = crate::op::FdJacobian::new(residual, &u, &r0, &[]);
        assert!(!jac.team_capable());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 600,
            ..Default::default()
        };
        let pool = ThreadPool::new(2);
        let mut x = vec![0.0; n];
        let r = Gmres::new(n, cfg).solve_with(&jac, &IdentityPrecond(n), &b, &mut x, GmresExec::Team(&pool));
        assert!(matches!(
            r.outcome,
            GmresOutcome::ConvergedRtol | GmresOutcome::ConvergedAtol | GmresOutcome::Breakdown
        ));
        check_solution(&a, &b, &x, 1e-6);
    }

    #[test]
    fn result_reports_executed_mode() {
        let a = mesh_matrix(87);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 200,
            ..Default::default()
        };
        let pool = ThreadPool::new(2);
        let m = IdentityPrecond(n);
        let (r, _) = solve_mode(&a, &m, &b, cfg, GmresExec::Serial);
        assert_eq!(r.exec, "serial");
        let (r, _) = solve_mode(&a, &m, &b, cfg, GmresExec::PerOp(&pool));
        assert_eq!(r.exec, "per-op");
        let (r, _) = solve_mode(&a, &m, &b, cfg, GmresExec::Team(&pool));
        assert_eq!(r.exec, "team");
    }

    #[test]
    fn auto_matches_its_selected_mode_bitwise() {
        // Whatever concrete scheme the policy picks on this machine,
        // Auto must be indistinguishable from running that scheme
        // directly: same residual history, bitwise-identical iterates.
        let a = mesh_matrix(88);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 300,
            ..Default::default()
        };
        for nt in [1usize, 2] {
            let pool = ThreadPool::new(nt);
            let m = IdentityPrecond(n);
            let (ra, xa) = solve_mode(&a, &m, &b, cfg, GmresExec::Auto(&pool));
            let concrete = match ra.exec {
                "serial" => GmresExec::Serial,
                "per-op" => GmresExec::PerOp(&pool),
                "team" => GmresExec::Team(&pool),
                other => panic!("Auto reported unknown exec {other:?}"),
            };
            let (rc, xc) = solve_mode(&a, &m, &b, cfg, concrete);
            assert_eq!(rc.exec, ra.exec, "nt={nt}");
            assert_eq!(ra.history, rc.history, "nt={nt}");
            assert_eq!(xa, xc, "nt={nt}");
            assert_eq!(ra.reductions, rc.reductions, "nt={nt}");
        }
    }

    #[test]
    fn auto_on_single_worker_pool_is_serial() {
        // An nt=1 pool can never amortize sync cost: the policy must
        // resolve Auto to the serial path regardless of problem size.
        let a = mesh_matrix(89);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let cfg = GmresConfig {
            rtol: 1e-6,
            max_iters: 200,
            ..Default::default()
        };
        let pool = ThreadPool::new(1);
        let (r, _) = solve_mode(&a, &IdentityPrecond(n), &b, cfg, GmresExec::Auto(&pool));
        assert_eq!(r.exec, "serial");
    }

    #[test]
    fn serial_path_unchanged_by_refactor() {
        // solve() must still be the stock serial path: same outcome and
        // history as an explicit GmresExec::Serial.
        let a = mesh_matrix(86);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        let cfg = GmresConfig {
            rtol: 1e-8,
            max_iters: 300,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let r1 = Gmres::new(n, cfg).solve(&a, &IdentityPrecond(n), &b, &mut x1);
        let mut x2 = vec![0.0; n];
        let r2 = Gmres::new(n, cfg).solve_with(&a, &IdentityPrecond(n), &b, &mut x2, GmresExec::Serial);
        assert_eq!(r1.history, r2.history);
        assert_eq!(x1, x2);
    }
}
