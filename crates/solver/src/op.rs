//! Linear operators for the Krylov solver, and the one seam a
//! distributed caller needs: [`SumReduce`].

use crate::vecops;
use fun3d_sparse::Bcsr4;
use fun3d_threads::{TeamMember, TeamSlice};

/// Completes a sum whose terms are spread over processes: on entry
/// `partial` holds this process's terms, on return the totals, the same
/// bits on every process (an `MPI_Allreduce`).
pub trait SumReduce {
    /// Replaces each element of `partial` by its sum over all processes.
    fn sum(&self, partial: &mut [f64]);
}

/// How the inner products of a vector space are completed: `None` when
/// this process holds the whole vector, which leaves every result as the
/// local kernel computed it.
pub type Reducer<'a> = Option<&'a dyn SumReduce>;

/// Completes `partial` over the processes of `reduce`.
pub(crate) fn reduce_sum(reduce: Reducer, partial: &mut [f64]) {
    if let Some(r) = reduce {
        r.sum(partial);
    }
}

/// `<x, y>` of vectors whose rows are spread over the processes of
/// `reduce`.
pub(crate) fn reduced_dot(reduce: Reducer, x: &[f64], y: &[f64]) -> f64 {
    let mut d = [vecops::dot(x, y)];
    reduce_sum(reduce, &mut d);
    d[0]
}

/// `‖x‖₂` of such a vector.
pub(crate) fn reduced_norm2(reduce: Reducer, x: &[f64]) -> f64 {
    reduced_dot(reduce, x, x).sqrt()
}

/// Anything that can apply `y = A x`.
pub trait LinearOperator {
    /// Scalar dimension of the operator (of this process's rows).
    fn dim(&self) -> usize;

    /// Applies the operator: `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// The reduction that completes inner products of this operator's
    /// vectors. Operators whose rows are spread over processes return
    /// theirs; the default is one process.
    fn reducer(&self) -> Reducer<'_> {
        None
    }

    /// True when [`LinearOperator::apply_team`] is implemented, i.e. the
    /// operator can run inside a persistent SPMD region. Matrix-free
    /// operators that launch their own pool regions (e.g. an FD Jacobian
    /// whose residual is threaded) must return `false`; the solver then
    /// applies them on the main thread *between* regions (hybrid mode).
    fn team_capable(&self) -> bool {
        false
    }

    /// Applies this thread's share of `y = A x` inside a running SPMD
    /// region. `x` must be fully published (barrier or region entry)
    /// before the call; the caller barriers before any cross-chunk read
    /// of `y`.
    ///
    /// # Safety
    /// Called concurrently by every thread of the team. Implementations
    /// (and the data they touch) must be data-race free under that
    /// calling pattern. Only called when [`LinearOperator::team_capable`]
    /// returns `true`.
    unsafe fn apply_team(&self, _tm: &TeamMember, _x: TeamSlice, _y: TeamSlice) {
        unimplemented!("operator is not team-capable (team_capable() == false)")
    }
}

impl LinearOperator for Bcsr4 {
    fn dim(&self) -> usize {
        Bcsr4::dim(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }

    fn team_capable(&self) -> bool {
        true
    }

    unsafe fn apply_team(&self, tm: &TeamMember, x: TeamSlice, y: TeamSlice) {
        // SAFETY: x is published per the trait contract; spmv_team writes
        // disjoint row chunks.
        let xs = unsafe { x.slice(0..x.len()) };
        self.spmv_team(tm.tid(), tm.nthreads(), xs, y);
    }
}

/// Matrix-free Jacobian-vector products by one-sided finite differences
/// [12]:  `J v ≈ (F(u + εv) − F(u)) / ε` with the standard step
/// `ε = sqrt(machine-eps) · (1 + ‖u‖) / ‖v‖`.
///
/// An optional per-unknown diagonal shift models the pseudo-transient
/// term `V/Δt`, so the operator applied is `diag(shift) + ∂F/∂u`.
pub struct FdJacobian<'a, F: Fn(&[f64], &mut [f64])> {
    residual: F,
    /// Base state `u`.
    u: &'a [f64],
    /// Residual at the base state, `F(u)`.
    r0: &'a [f64],
    /// Pseudo-time diagonal (`V_i/Δt` per unknown), empty for none.
    shift: &'a [f64],
    /// Completes the norms of `u` and of every direction `v`.
    reduce: Reducer<'a>,
    unorm: f64,
    /// Scratch for the perturbed state and residual.
    scratch: std::cell::RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a, F: Fn(&[f64], &mut [f64])> FdJacobian<'a, F> {
    /// Creates the operator. `shift` must be empty or `u.len()` long;
    /// `reduce` is the reduction of the space `u` lives in.
    pub fn new(
        residual: F,
        u: &'a [f64],
        r0: &'a [f64],
        shift: &'a [f64],
        reduce: Reducer<'a>,
    ) -> Self {
        assert_eq!(u.len(), r0.len());
        assert!(shift.is_empty() || shift.len() == u.len());
        let unorm = reduced_norm2(reduce, u);
        let n = u.len();
        FdJacobian {
            residual,
            u,
            r0,
            shift,
            reduce,
            unorm,
            scratch: std::cell::RefCell::new((vec![0.0; n], vec![0.0; n])),
        }
    }

    /// Number of residual evaluations performed so far is not tracked
    /// here; the application layer counts them in its profiler.
    pub fn epsilon(&self, vnorm: f64) -> f64 {
        let sqrt_eps = f64::EPSILON.sqrt();
        sqrt_eps * (1.0 + self.unorm) / vnorm.max(1e-300)
    }
}

impl<F: Fn(&[f64], &mut [f64])> LinearOperator for FdJacobian<'_, F> {
    fn dim(&self) -> usize {
        self.u.len()
    }

    fn reducer(&self) -> Reducer<'_> {
        self.reduce
    }

    fn apply(&self, v: &[f64], y: &mut [f64]) {
        let n = self.u.len();
        assert_eq!(v.len(), n);
        assert_eq!(y.len(), n);
        let vnorm = reduced_norm2(self.reduce, v);
        if vnorm == 0.0 {
            y.iter_mut().for_each(|x| *x = 0.0);
            return;
        }
        let eps = self.epsilon(vnorm);
        let mut scratch = self.scratch.borrow_mut();
        let (up, rp) = &mut *scratch;
        for i in 0..n {
            up[i] = self.u[i] + eps * v[i];
        }
        (self.residual)(up, rp);
        let inv_eps = 1.0 / eps;
        // One pass either way; with a shift, element i is the difference
        // quotient rounded, then the rounded product added to it.
        if self.shift.is_empty() {
            for i in 0..n {
                y[i] = (rp[i] - self.r0[i]) * inv_eps;
            }
        } else {
            for i in 0..n {
                y[i] = (rp[i] - self.r0[i]) * inv_eps + self.shift[i] * v[i];
            }
        }
    }
}

/// An assembled operator plus a diagonal shift: `(diag(s) + A) x`.
/// Used in tests and as the "assembled Jacobian" path.
pub struct ShiftedOperator<'a> {
    /// The assembled matrix.
    pub a: &'a Bcsr4,
    /// Per-unknown diagonal shift.
    pub shift: &'a [f64],
}

impl LinearOperator for ShiftedOperator<'_> {
    fn dim(&self) -> usize {
        self.a.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.spmv(x, y);
        if !self.shift.is_empty() {
            for i in 0..y.len() {
                y[i] += self.shift[i] * x[i];
            }
        }
    }

    fn team_capable(&self) -> bool {
        true
    }

    unsafe fn apply_team(&self, tm: &TeamMember, x: TeamSlice, y: TeamSlice) {
        let (tid, nt) = (tm.tid(), tm.nthreads());
        // SAFETY: x published per the trait contract.
        let xs = unsafe { x.slice(0..x.len()) };
        self.a.spmv_team(tid, nt, xs, y);
        if !self.shift.is_empty() {
            // Shift over the scalar span of this thread's *row* chunk, so
            // every element touched here was just written by this thread
            // (no barrier needed between SpMV and shift).
            let rows = fun3d_threads::chunk_range(self.a.nrows(), nt, tid);
            // SAFETY: disjoint per-thread spans.
            unsafe {
                for i in rows.start * 4..rows.end * 4 {
                    y.set(i, y.get(i) + self.shift[i] * x.get(i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> Bcsr4 {
        let mut a = Bcsr4::from_pattern(&[vec![0, 1], vec![0, 1]]);
        a.fill_diag_dominant(51);
        a
    }

    #[test]
    fn fd_jacobian_of_linear_function_is_exact() {
        // For linear F(u) = A u, the FD Jacobian action equals A v up to
        // rounding for any base state.
        let a = small_matrix();
        let n = a.dim();
        let residual = |u: &[f64], r: &mut [f64]| a.spmv(u, r);
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut r0 = vec![0.0; n];
        residual(&u, &mut r0);
        let jac = FdJacobian::new(residual, &u, &r0, &[], None);
        let v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut jv = vec![0.0; n];
        jac.apply(&v, &mut jv);
        let mut av = vec![0.0; n];
        a.spmv(&v, &mut av);
        for i in 0..n {
            assert!(
                (jv[i] - av[i]).abs() < 1e-6 * (1.0 + av[i].abs()),
                "i={i}: {} vs {}",
                jv[i],
                av[i]
            );
        }
    }

    #[test]
    fn fd_jacobian_of_quadratic_function() {
        // F(u)_i = u_i^2 has Jacobian diag(2u); FD should be close.
        let residual = |u: &[f64], r: &mut [f64]| {
            for i in 0..u.len() {
                r[i] = u[i] * u[i];
            }
        };
        let u = vec![1.0, 2.0, -3.0, 0.5];
        let mut r0 = vec![0.0; 4];
        residual(&u, &mut r0);
        let jac = FdJacobian::new(residual, &u, &r0, &[], None);
        let v = vec![1.0, 1.0, 1.0, 1.0];
        let mut jv = vec![0.0; 4];
        jac.apply(&v, &mut jv);
        for i in 0..4 {
            assert!(
                (jv[i] - 2.0 * u[i]).abs() < 1e-5,
                "i={i}: {} vs {}",
                jv[i],
                2.0 * u[i]
            );
        }
    }

    #[test]
    fn shift_adds_diagonal_term() {
        let a = small_matrix();
        let n = a.dim();
        let residual = |u: &[f64], r: &mut [f64]| a.spmv(u, r);
        let u = vec![0.0; n];
        let mut r0 = vec![0.0; n];
        residual(&u, &mut r0);
        let shift: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let jac = FdJacobian::new(residual, &u, &r0, &shift, None);
        let v: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.1).collect();
        let mut jv = vec![0.0; n];
        jac.apply(&v, &mut jv);
        let mut want = vec![0.0; n];
        a.spmv(&v, &mut want);
        for i in 0..n {
            want[i] += shift[i] * v[i];
        }
        for i in 0..n {
            assert!((jv[i] - want[i]).abs() < 1e-6 * (1.0 + want[i].abs()));
        }
    }

    #[test]
    fn zero_vector_maps_to_zero() {
        let a = small_matrix();
        let n = a.dim();
        let residual = |u: &[f64], r: &mut [f64]| a.spmv(u, r);
        let u = vec![1.0; n];
        let mut r0 = vec![0.0; n];
        residual(&u, &mut r0);
        let jac = FdJacobian::new(residual, &u, &r0, &[], None);
        let v = vec![0.0; n];
        let mut jv = vec![1.0; n];
        jac.apply(&v, &mut jv);
        assert!(jv.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn shifted_operator_matches_manual() {
        let a = small_matrix();
        let n = a.dim();
        let shift: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let op = ShiftedOperator { a: &a, shift: &shift };
        assert_eq!(op.dim(), n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        let mut want = vec![0.0; n];
        a.spmv(&x, &mut want);
        for i in 0..n {
            want[i] += shift[i] * x[i];
            assert!((y[i] - want[i]).abs() < 1e-14);
        }
    }
}
