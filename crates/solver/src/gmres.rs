//! Left-preconditioned restarted GMRES with classical Gram-Schmidt.
//!
//! This mirrors PETSc's default KSP configuration for PETSc-FUN3D:
//! GMRES(30), left preconditioning, classical Gram-Schmidt
//! orthogonalization (the `VecMDot`/`VecMAXPY`-heavy variant whose vector
//! primitives show up in the paper's profile), and a Givens-rotation
//! least-squares update so the residual norm is available every iteration
//! without forming the solution.
//!
//! # One control flow, two step backends
//!
//! Restart, Givens rotations, convergence control and back-substitution
//! are written once, in [`drive`], over the three vector-sized steps of a
//! cycle ([`Steps`]: cycle start, Arnoldi step, solution update). Two
//! backends implement the steps ([`GmresExec`]):
//!
//! * **Serial** — the [`crate::vecops`] kernels on the calling thread.
//!   This is also the distributed backend: every inner product is
//!   completed by the operator's [`reducer`](LinearOperator::reducer)
//!   (nothing for one process, an allreduce for ranks), so a rank layer
//!   drives this same code instead of owning a copy.
//! * **Team** — persistent SPMD regions: each step is a list of
//!   operations ([`Op`]: SpMV → preconditioner → orthogonalization →
//!   basis update) that every thread of **one** pool region executes on
//!   its chunk, with [`SpinBarrier`](fun3d_threads::SpinBarrier) phases
//!   instead of region boundaries and tree reductions instead of per-op
//!   rendezvous.
//!
//! [`GmresExec::PerOp`] runs the Team backend's operations one region
//! each — the fork-join scheme the paper measures against. It is not a
//! production mode ([`ExecMode`](crate::policy::ExecMode) cannot select
//! it): `sync_ablation` uses it as the "before" of the synchronization
//! ablation and the tests as Team's bitwise reference. The two launch the
//! same kernels on the same chunks, so at a fixed thread count they
//! produce bitwise-identical iterates and residual histories — the
//! persistent-region restructuring changes only synchronization cost, not
//! numerics.

use crate::op::{reduce_sum, reduced_dot, reduced_norm2, LinearOperator};
use crate::precond::Preconditioner;
use crate::team as team_ops;
use crate::vecops;
use fun3d_threads::{Team, TeamMember, TeamSlice, ThreadPool};

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
}

impl Default for GmresConfig {
    fn default() -> Self {
        GmresConfig {
            restart: 30,
            rtol: 1e-6,
            atol: 1e-50,
            max_iters: 1000,
        }
    }
}

/// How the solve is executed (see module docs).
#[derive(Clone, Copy)]
pub enum GmresExec<'p> {
    /// Single-threaded vector ops.
    Serial,
    /// Persistent SPMD regions on the given pool: one region per Arnoldi
    /// iteration.
    Team(&'p ThreadPool),
    /// The Team backend with one region per operation: the fork-join
    /// reference of the synchronization ablation and of the bitwise
    /// tests, not a production mode.
    PerOp(&'p ThreadPool),
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
    /// `MPI_Allreduce` is in the distributed setting): one per cycle
    /// start and 2 per iteration, the Gram-Schmidt products and the new
    /// vector's norm.
    pub reductions: usize,
    /// Per-iteration Givens residual norms, in iteration order across
    /// restarts. Execution-path equivalence is asserted on this.
    pub history: Vec<f64>,
    /// The execution scheme that ran (`"serial"`, `"team"`, or
    /// `"per-op"` for the ablation reference).
    pub exec: &'static str,
}

impl GmresConfig {
    /// The outcome a residual norm `res` stops the solve with, if any.
    fn met(&self, res: f64, residual0: f64) -> Option<GmresOutcome> {
        if res <= self.atol {
            Some(GmresOutcome::ConvergedAtol)
        } else if res <= self.rtol * residual0 {
            Some(GmresOutcome::ConvergedRtol)
        } else {
            None
        }
    }

    /// [`GmresConfig::met`] for the residual norm `beta` of a cycle
    /// start, which is also the reference norm on the first cycle
    /// (`residual0` still NaN).
    fn met_at_start(&self, beta: f64, residual0: f64) -> bool {
        let r0 = if residual0.is_nan() { beta } else { residual0 };
        self.met(beta, r0).is_some()
    }
}

/// Arnoldi produced (numerically) the zero vector: nothing to normalize.
fn breakdown(hkk: f64, res: f64) -> bool {
    hkk <= 1e-14 * res.max(1.0)
}

/// The vector-sized steps of a GMRES cycle: what an execution scheme
/// implements and [`drive`] sequences. The basis `v_0..` and the iterate
/// `x` live behind the implementation.
trait Steps {
    /// The scheme's name, for [`GmresResult::exec`].
    fn name(&self) -> &'static str;

    /// Cycle start: `r = M⁻¹(b − A x)`. Returns `β = ‖r‖` and, unless `β`
    /// already meets the tolerances against `residual0` (NaN on the
    /// first cycle), leaves `v_0 = r/β`.
    fn start(&mut self, residual0: f64) -> f64;

    /// Arnoldi step `k`: `w = M⁻¹ A v_k`, orthogonalized against
    /// `v_0..=v_k` by classical Gram-Schmidt. Writes the `k + 1`
    /// coefficients to `h[..=k]` and returns `‖w⊥‖`; unless that norm is
    /// a [`breakdown`] against the current residual norm `res`, leaves
    /// `v_{k+1} = w⊥/‖w⊥‖`.
    fn arnoldi(&mut self, k: usize, res: f64, h: &mut [f64]) -> f64;

    /// Solution update `x += Σⱼ y[j]·v_j`.
    fn update(&mut self, y: &[f64]);
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
    work: Vec<f64>,
    work2: Vec<f64>,
    /// Gram-Schmidt scratch of the current iteration: one
    /// [`Gmres::slot_len`]-wide slot per thread (serial uses the first),
    /// so team threads never share a cache line.
    slots: Vec<f64>,
    ls: LeastSquares,
}

/// The Hessenberg least-squares problem of one cycle, triangularized by
/// Givens rotations as the columns arrive.
struct LeastSquares {
    /// Hessenberg, column-major `(restart + 1) × restart`.
    h: Vec<f64>,
    /// Right-hand side, `restart + 1`.
    g: Vec<f64>,
    /// Givens cosines and sines, `restart` each.
    cs: Vec<f64>,
    sn: Vec<f64>,
    /// Back-substituted correction coefficients, `restart`.
    y: Vec<f64>,
}

impl Gmres {
    /// Creates a solver for vectors of length `n`. A cycle never runs
    /// past the iteration cap, so the restart length is clamped to
    /// `max_iters` (at least 1) and the basis holds `min(restart,
    /// max_iters) + 1` vectors: a probe capped at 4 iterations allocates
    /// 5, not 31. The iterations are the same either way.
    ///
    /// Panics if `config.restart` is 0: no Arnoldi step would ever run,
    /// so the iteration cap could never end the solve.
    pub fn new(n: usize, mut config: GmresConfig) -> Self {
        assert!(config.restart > 0, "GmresConfig::restart must be at least 1, got 0");
        config.restart = config.restart.min(config.max_iters.max(1));
        let restart = config.restart;
        Gmres {
            config,
            basis: (0..restart + 1).map(|_| vec![0.0; n]).collect(),
            work: vec![0.0; n],
            work2: vec![0.0; n],
            slots: vec![0.0; Self::slot_len(restart)],
            ls: LeastSquares {
                h: vec![0.0; (restart + 1) * restart],
                g: vec![0.0; restart + 1],
                cs: vec![0.0; restart],
                sn: vec![0.0; restart],
                y: vec![0.0; restart],
            },
        }
    }

    /// Width of one thread's slot: the Gram-Schmidt products (at most
    /// `restart` coefficients), their negations for the update, and the
    /// step's scalar result, rounded up to whole cache lines.
    fn slot_len(restart: usize) -> usize {
        (2 * restart + 1).div_ceil(8) * 8
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
        let n = b.len();
        assert_eq!(a.dim(), n);
        assert_eq!(x.len(), n);
        let (pool, per_op) = match exec {
            GmresExec::Serial => (None, false),
            GmresExec::Team(pool) => (Some(pool), false),
            GmresExec::PerOp(pool) => (Some(pool), true),
        };
        let config = self.config;
        let Gmres {
            basis,
            work,
            work2,
            slots,
            ls,
            ..
        } = self;
        match pool {
            None => {
                let mut steps = SerialSteps {
                    a,
                    m,
                    b,
                    x,
                    basis,
                    work,
                    work2,
                    slot: &mut slots[..Self::slot_len(config.restart)],
                    config,
                };
                drive(&config, ls, &mut steps)
            }
            Some(pool) => {
                assert!(
                    a.reducer().is_none(),
                    "threaded GMRES completes its sums inside one process"
                );
                let slot_len = Self::slot_len(config.restart);
                slots.resize(pool.size() * slot_len, 0.0);
                // Borrow-erased views shared with the region closures.
                // From here on these buffers are touched only through the
                // views: by the team inside regions, by this thread
                // between them.
                let regions = Regions {
                    pool,
                    team: Team::new(pool.size(), config.restart),
                    per_op,
                    a: AssertTeamSafe(a),
                    m: AssertTeamSafe(m),
                    x: TeamSlice::new(x),
                    b: TeamSlice::from_raw(b.as_ptr() as *mut f64, n),
                    work: TeamSlice::new(work),
                    work2: TeamSlice::new(work2),
                    slots: TeamSlice::new(slots),
                    slot_len,
                    config,
                };
                drive(&config, ls, &mut TeamSteps { regions, basis })
            }
        }
    }
}

/// The GMRES control flow: restart cycles, the Givens-rotated
/// least-squares problem, convergence control and the back-substituted
/// update, over the [`Steps`] of an execution scheme. Scalar recurrences
/// run here, on the calling thread, between the steps.
fn drive(config: &GmresConfig, ls: &mut LeastSquares, steps: &mut impl Steps) -> GmresResult {
    let ld = config.restart + 1;
    let LeastSquares { h, g, cs, sn, y } = ls;
    let mut out = GmresResult {
        outcome: GmresOutcome::MaxIterations,
        iterations: 0,
        residual: f64::NAN,
        residual0: f64::NAN,
        reductions: 0,
        history: Vec::new(),
        exec: steps.name(),
    };
    loop {
        let beta = steps.start(out.residual0);
        out.reductions += 1;
        if out.residual0.is_nan() {
            out.residual0 = beta;
        }
        out.residual = beta;
        if let Some(outcome) = config.met(beta, out.residual0) {
            out.outcome = outcome;
            return out;
        }
        g.fill(0.0);
        g[0] = beta;
        let mut kk = 0usize;
        let mut finished: Option<GmresOutcome> = None;

        for k in 0..config.restart {
            if out.iterations >= config.max_iters {
                finished = Some(GmresOutcome::MaxIterations);
                break;
            }
            out.iterations += 1;
            let col = &mut h[k * ld..(k + 1) * ld];
            let hkk = steps.arnoldi(k, out.residual, col);
            // The Gram-Schmidt products, then the norm.
            out.reductions += 2;
            col[k + 1] = hkk;
            kk = k + 1;
            if breakdown(hkk, out.residual) {
                finished = Some(GmresOutcome::Breakdown);
            }
            // apply existing Givens rotations to column k
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
            out.residual = g[k + 1].abs();
            out.history.push(out.residual);

            if let Some(outcome) = config.met(out.residual, out.residual0) {
                finished = Some(outcome);
            }
            if finished.is_some() {
                break;
            }
        }

        // x += V y, with y back-substituted from the triangularized
        // Hessenberg.
        if kk > 0 {
            let y = &mut y[..kk];
            back_substitute(h, ld, g, y);
            steps.update(y);
        }
        if finished.is_none() && out.iterations >= config.max_iters {
            finished = Some(GmresOutcome::MaxIterations);
        }
        if let Some(outcome) = finished {
            out.outcome = outcome;
            return out;
        }
        // restart
    }
}

/// The serial step backend, which is also the distributed one: every
/// sum is completed by the operator's reducer.
struct SerialSteps<'a> {
    a: &'a dyn LinearOperator,
    m: &'a dyn Preconditioner,
    b: &'a [f64],
    x: &'a mut [f64],
    basis: &'a mut [Vec<f64>],
    work: &'a mut [f64],
    work2: &'a mut [f64],
    slot: &'a mut [f64],
    config: GmresConfig,
}

impl Steps for SerialSteps<'_> {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn start(&mut self, residual0: f64) -> f64 {
        self.a.apply(self.x, self.work);
        vecops::bsub(self.work, self.b);
        self.m.apply(self.work, self.work2);
        let beta = reduced_norm2(self.a.reducer(), self.work2);
        if !self.config.met_at_start(beta, residual0) {
            vecops::div_into(&mut self.basis[0], self.work2, beta);
        }
        beta
    }

    fn arnoldi(&mut self, k: usize, res: f64, h: &mut [f64]) -> f64 {
        self.a.apply(&self.basis[k], self.work);
        self.m.apply(self.work, self.work2);
        // h[0..=k] = V^T w, w -= V h.
        let (basis, next) = self.basis.split_at_mut(k + 1);
        let coeffs = &mut self.slot[..k + 1];
        vecops::mdot(self.work2, basis, coeffs);
        reduce_sum(self.a.reducer(), coeffs);
        h[..k + 1].copy_from_slice(coeffs);
        coeffs.iter_mut().for_each(|c| *c = -*c);
        vecops::maxpy(self.work2, coeffs, basis);
        let hkk = reduced_dot(self.a.reducer(), self.work2, self.work2).sqrt();
        if !breakdown(hkk, res) {
            vecops::div_into(&mut next[0], self.work2, hkk);
        }
        hkk
    }

    fn update(&mut self, y: &[f64]) {
        vecops::maxpy(self.x, y, &self.basis[..y.len()]);
    }
}

/// One operation of the threaded step backend: what every thread of a
/// region executes on its chunk ([`Regions::exec`]). The vectors of the
/// basis an operation reads or writes travel in it; the other buffers are
/// the persistent views of [`Regions`].
#[derive(Clone, Copy)]
enum Op<'s> {
    /// `work = A src`, for operators that can run inside a region.
    Apply(TeamSlice),
    /// `work = b − work`.
    Bsub,
    /// `work2 = M⁻¹ work`.
    Precondition,
    /// `β = ‖work2‖`, and `dst = work2/β` unless `β` already meets the
    /// tolerances against `residual0`.
    Beta { residual0: f64, dst: TeamSlice },
    /// The products of `work2` with the basis vectors given into the
    /// thread's slot, and their negations beside them.
    Mdot(&'s [Vec<f64>]),
    /// `work2 −= Σⱼ slot[j]·vⱼ` over the basis vectors given.
    Maxpy(&'s [Vec<f64>]),
    /// `‖work2‖` after the step's update, into the slot, and `dst =
    /// work2/‖work2‖` unless that is a breakdown against `res`.
    Hkk { res: f64, dst: TeamSlice },
    /// `x += Σⱼ y[j]·vⱼ`.
    Update(&'s [f64], &'s [Vec<f64>]),
}

/// The threaded step backend's shared state: the pool, the team, and the
/// persistent buffers as views every thread of a region may hold.
///
/// A thread's slot is `[products | negated products | β or h_{k+1,k}]`;
/// reductions leave identical values in every
/// thread's slot, and between regions the calling thread reads slot 0.
struct Regions<'a> {
    pool: &'a ThreadPool,
    team: Team,
    /// One region per operation (the fork-join reference) instead of one
    /// per step.
    per_op: bool,
    a: AssertTeamSafe<'a, dyn LinearOperator + 'a>,
    m: AssertTeamSafe<'a, dyn Preconditioner + 'a>,
    x: TeamSlice,
    b: TeamSlice,
    work: TeamSlice,
    work2: TeamSlice,
    slots: TeamSlice,
    slot_len: usize,
    config: GmresConfig,
}

impl Regions<'_> {
    /// Offset of the negated products in a slot.
    fn negated(&self) -> usize {
        self.config.restart
    }

    /// Offset of the step's scalar result (`β` or `h_{k+1,k}`) in a slot.
    fn scalar(&self) -> usize {
        2 * self.config.restart
    }

    /// Runs `ops` in every thread of the pool: one region for all of
    /// them, or one region each for the fork-join reference.
    fn run(&self, ops: &[Op]) {
        // SAFETY (both arms): one member per tid per region.
        if self.per_op {
            for &op in ops {
                self.pool
                    .run(|tid| self.exec(&unsafe { self.team.member(tid) }, op));
            }
        } else {
            self.pool.run(|tid| {
                let tm = unsafe { self.team.member(tid) };
                ops.iter().for_each(|&op| self.exec(&tm, op));
            });
        }
    }

    /// `work = A src` for operators that cannot run inside a region
    /// (matrix-free ones launch their own): applied here, by the calling
    /// thread between regions (hybrid mode). Returns how many leading
    /// [`Op::Apply`]s of the step that makes redundant.
    fn apply_between_regions(&self, src: TeamSlice) -> usize {
        let a = self.a.get();
        if a.team_capable() {
            return 0;
        }
        let work = self.work;
        // SAFETY: no region is active; this thread owns the views.
        unsafe { a.apply(src.slice(0..src.len()), work.slice_mut(0..work.len())) };
        1
    }

    /// Slot 0 after a region: the values every thread holds.
    fn results(&self) -> &[f64] {
        // SAFETY: no region is active, so nothing writes the slots.
        unsafe { self.slots.slice(0..self.slot_len) }
    }

    /// This thread's share of `op`. Reduced scalars are identical on
    /// every thread, so all branches are uniform across the team.
    fn exec(&self, tm: &TeamMember, op: Op) {
        let (work, work2) = (self.work, self.work2);
        let mine = tm.tid() * self.slot_len..(tm.tid() + 1) * self.slot_len;
        // SAFETY: slot `tid` is this thread's alone.
        let slot = unsafe { self.slots.slice_mut(mine) };
        match op {
            Op::Apply(src) => {
                // SAFETY: `src` is published (region entry) and only
                // read; trait contract for concurrency, team_capable()
                // checked by `apply_between_regions`.
                unsafe { self.a.get().apply_team(tm, src, work) };
                tm.barrier();
            }
            Op::Bsub => {
                team_ops::bsub(tm, work, self.b);
                tm.barrier();
            }
            // SAFETY: `work` is published by the barrier that ends the
            // operation before, or by region entry.
            Op::Precondition => unsafe { self.m.get().apply_team(tm, work, work2) },
            Op::Beta { residual0, dst } => {
                let beta = team_ops::norm2(tm, work2);
                slot[self.scalar()] = beta;
                if !self.config.met_at_start(beta, residual0) {
                    team_ops::div_into(tm, dst, work2, beta);
                }
            }
            Op::Mdot(basis) => {
                let (out, negated) = slot.split_at_mut(self.negated());
                team_ops::mdot(tm, work2, basis, &mut out[..basis.len()]);
                for (n, c) in negated.iter_mut().zip(&out[..basis.len()]) {
                    *n = -*c;
                }
            }
            Op::Maxpy(basis) => {
                let coeffs = &slot[self.negated()..][..basis.len()];
                team_ops::maxpy(tm, work2, coeffs, basis);
            }
            Op::Hkk { res, dst } => {
                let hkk = team_ops::dot(tm, work2, work2).sqrt();
                slot[self.scalar()] = hkk;
                if !breakdown(hkk, res) {
                    team_ops::div_into(tm, dst, work2, hkk);
                }
            }
            Op::Update(y, basis) => team_ops::maxpy(tm, self.x, y, basis),
        }
    }
}

/// The threaded step backend: every step is one list of [`Op`]s, run by
/// [`Regions::run`] in one pool region (Team) or one region each (the
/// per-op reference).
struct TeamSteps<'a> {
    regions: Regions<'a>,
    basis: &'a mut [Vec<f64>],
}

/// A vector a region only reads, as the view [`Op::Apply`] takes.
fn read_only(v: &[f64]) -> TeamSlice {
    TeamSlice::from_raw(v.as_ptr() as *mut f64, v.len())
}

impl Steps for TeamSteps<'_> {
    fn name(&self) -> &'static str {
        if self.regions.per_op {
            "per-op"
        } else {
            "team"
        }
    }

    fn start(&mut self, residual0: f64) -> f64 {
        let r = &self.regions;
        let dst = TeamSlice::new(&mut self.basis[0]);
        let ops = [
            Op::Apply(r.x),
            Op::Bsub,
            Op::Precondition,
            Op::Beta { residual0, dst },
        ];
        r.run(&ops[r.apply_between_regions(r.x)..]);
        r.results()[r.scalar()]
    }

    fn arnoldi(&mut self, k: usize, res: f64, h: &mut [f64]) -> f64 {
        let r = &self.regions;
        // The region borrows the vectors it reads and erases only the
        // one it writes.
        let (basis, next) = self.basis.split_at_mut(k + 1);
        let (basis, dst) = (&*basis, TeamSlice::new(&mut next[0]));
        let v_k = read_only(&basis[k]);
        let ops = [
            Op::Apply(v_k),
            Op::Precondition,
            Op::Mdot(basis),
            Op::Maxpy(basis),
            Op::Hkk { res, dst },
        ];
        r.run(&ops[r.apply_between_regions(v_k)..]);
        let slot = r.results();
        h[..k + 1].copy_from_slice(&slot[..k + 1]);
        slot[r.scalar()]
    }

    fn update(&mut self, y: &[f64]) {
        self.regions.run(&[Op::Update(y, &self.basis[..y.len()])]);
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
    #[should_panic(expected = "GmresConfig::restart must be at least 1, got 0")]
    fn zero_restart_is_rejected_at_construction() {
        Gmres::new(8, GmresConfig { restart: 0, ..GmresConfig::default() });
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
    fn basis_is_sized_to_the_iteration_cap_bitwise() {
        // A probe-shaped solve (restart 30, capped at 4 iterations) holds
        // five basis vectors and is the solve on a full 31-vector basis
        // bit for bit: the same iterate, history and counts.
        let a = mesh_matrix(74);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let ilu = SerialIlu::new(&a, 0);
        let probe = GmresConfig { max_iters: 4, rtol: 1e-14, ..GmresConfig::default() };
        let mut sized = Gmres::new(n, probe);
        assert_eq!((sized.basis.len(), sized.config.restart), (5, 4));
        let mut full = Gmres::new(n, GmresConfig { max_iters: 1000, ..probe });
        full.config.max_iters = 4;
        assert_eq!(full.basis.len(), 31);
        let (mut x1, mut x2) = (vec![0.0; n], vec![0.0; n]);
        let r1 = sized.solve(&a, &ilu, &b, &mut x1);
        let r2 = full.solve(&a, &ilu, &b, &mut x2);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x1), bits(&x2));
        assert_eq!(bits(&r1.history), bits(&r2.history));
        assert_eq!((r1.iterations, r1.reductions), (4, r2.reductions));
        let capped = |o| matches!(o, GmresOutcome::MaxIterations);
        assert!(capped(r1.outcome) && capped(r2.outcome));
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
    fn team_matches_per_op_reference_and_serial_at_one_thread() {
        // One table: thread count × preconditioner. The
        // persistent regions must reproduce, bit for bit, the same
        // operations run one region each — and at one thread both are the
        // serial solve. Histories, iterates and reduction counts.
        let a = mesh_matrix(81);
        let n = a.dim();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i % 11) as f64) - 5.0 + (i as f64 * 0.31).sin())
            .collect();
        let cfg = GmresConfig {
            rtol: 1e-9,
            max_iters: 400,
            ..Default::default()
        };
        for nt in [1usize, 2, 3, 4, 7] {
            let pool = std::sync::Arc::new(ThreadPool::new(nt));
            for precond in ["identity", "p2p"] {
                let m: Box<dyn Preconditioner> = match precond {
                    "identity" => Box::new(IdentityPrecond(n)),
                    _ => Box::new(SerialIlu::new(&a, 0).with_p2p(pool.clone())),
                };
                let case = format!("nt={nt} {precond}");
                let (rt, xt) = solve_mode(&a, &*m, &b, cfg, GmresExec::Team(&pool));
                let mut references = vec![GmresExec::PerOp(&pool)];
                if nt == 1 {
                    references.push(GmresExec::Serial);
                }
                for reference in references {
                    let (rr, xr) = solve_mode(&a, &*m, &b, cfg, reference);
                    assert_eq!(rr.history, rt.history, "{case} vs {}", rr.exec);
                    assert_eq!(xr, xt, "{case} vs {}: iterates", rr.exec);
                    assert_eq!(rr.iterations, rt.iterations, "{case} vs {}", rr.exec);
                    assert_eq!(rr.reductions, rt.reductions, "{case} vs {}", rr.exec);
                    assert_eq!(rr.outcome, rt.outcome, "{case} vs {}", rr.exec);
                }
            }
        }
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
        let ilu = SerialIlu::new(&a, 0).with_p2p(pool.clone());
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
        let jac = crate::op::FdJacobian::new(residual, &u, &r0, &[], None);
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
