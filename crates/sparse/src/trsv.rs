//! Block sparse triangular solves.
//!
//! `solve` applies `x = U⁻¹ L⁻¹ b` with the stored inverted diagonals:
//! the forward sweep has an implied unit diagonal, the backward sweep
//! multiplies by `D⁻¹` instead of dividing — the PETSc data-layout
//! optimization [17]. The per-block kernel is a 4×4 matvec with no reuse
//! across blocks (streaming), which is why the paper's TRSV is bandwidth-
//! bound — and why the factors are stored the way this loop loads them:
//! column-major `f32` blocks, widened exactly before any arithmetic
//! ([`crate::block`]'s layout rule; single precision is storage only).
//!
//! **One row kernel.** A sweep is rows in some order, and a row is the
//! same arithmetic whoever runs it: the forward and the backward row are
//! written once, here, and the serial sweeps below and the P2P ones
//! ([`crate::p2p`]) only say which rows a caller runs and what it waits
//! for ([`RowOrder`]) — so the two agree bit for bit, and only this file
//! touches the factors' block format. The rows run on the detected
//! [`Simd`] lanes (bitwise the portable ones; measured in EXPERIMENTS,
//! "TRSV bytes per row").

use crate::block;
use crate::ilu::{IluFactors, Triangle};
use fun3d_simd::{with_lanes, Isa, Simd};
use fun3d_threads::TeamSlice;

/// One of the two triangular sweeps of a preconditioner application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `dst = L⁻¹ src` (unit diagonal), rows ascending.
    Forward,
    /// `dst = U⁻¹ src` with the stored `D⁻¹`, rows descending.
    Backward,
}

/// The rows one caller runs of a sweep, and when.
pub(crate) trait RowOrder {
    /// Calls `row(i)` for each of them, each after the rows it reads are
    /// finished and visible to this thread. Implementations are
    /// `#[inline(always)]`: the row kernel must inline into its lanes.
    fn each_row(&self, row: impl FnMut(usize));
}

/// One thread, the rows in the order the iterator yields them.
impl<I: Iterator<Item = usize> + Clone> RowOrder for I {
    #[inline(always)]
    fn each_row(&self, mut row: impl FnMut(usize)) {
        // A plain loop: `for_each` would run the rows inside an iterator
        // adaptor that is not compiled for the lanes.
        for i in self.clone() {
            row(i);
        }
    }
}

/// `b_i − Σ_k T_ik·x_k` over the stored blocks of row `i` of `t`, the four
/// results in one vector: the body of both sweeps' rows and the only loop
/// over stored factor blocks.
///
/// # Safety
/// As [`run_rows`], whose `src` and `dst` are `b` and `x`.
#[inline(always)]
unsafe fn row_residual<S: Simd>(s: S, t: &Triangle, i: usize, b: TeamSlice, x: TeamSlice) -> S::V {
    // SAFETY: in bounds and unwritten by the contract.
    let mut acc = s.load(unsafe { b.slice(i * 4..i * 4 + 4) });
    for k in t.row_ptr[i]..t.row_ptr[i + 1] {
        let j = t.col_idx[k] as usize;
        assert!(j * 4 + 4 <= x.len(), "factor column past the vector");
        // SAFETY: in bounds by the assert; finished by the contract.
        let xj: &[f64; 4] = unsafe { &*(x.as_ptr().add(j * 4) as *const [f64; 4]) };
        acc = acc - block::factor_matvec(s, t.block(k), xj);
    }
    acc
}

/// Row `i` of the forward sweep: `y_i = b_i − Σ_k L_ik·y_k`.
///
/// # Safety
/// As [`run_rows`].
#[inline(always)]
unsafe fn forward_row<S: Simd>(s: S, f: &IluFactors, i: usize, b: TeamSlice, y: TeamSlice) {
    // SAFETY: the caller's contract, passed on.
    let acc = unsafe { row_residual(s, &f.l, i, b, y) };
    // SAFETY: row i of y is this caller's alone.
    s.store(acc, unsafe { y.slice_mut(i * 4..i * 4 + 4) });
}

/// Row `i` of the backward sweep: `x_i = D_i⁻¹·(y_i − Σ_k U_ik·x_k)`.
///
/// # Safety
/// As [`run_rows`].
#[inline(always)]
unsafe fn backward_row<S: Simd>(s: S, f: &IluFactors, i: usize, y: TeamSlice, x: TeamSlice) {
    // SAFETY: the caller's contract, passed on.
    let acc = s.to_array(unsafe { row_residual(s, &f.u, i, y, x) });
    let xi = block::factor_matvec(s, f.dinv_block(i), &acc);
    // SAFETY: row i of x is this caller's alone.
    s.store(xi, unsafe { x.slice_mut(i * 4..i * 4 + 4) });
}

/// Runs the rows of `sweep` that `order` gives this caller, from `src`
/// into `dst` (checked against `f`'s dimension), on the lanes of `isa` —
/// [`Isa::detect`] outside the tests. The vectors may alias: a row's input
/// is read before its output is stored.
///
/// # Safety
/// Nobody writes `src` during the sweep (but through `dst`, if they
/// alias); every row of `dst` is accessed by the one caller whose `order`
/// holds it, and `order` keeps [`RowOrder::each_row`]'s promise.
pub(crate) unsafe fn run_rows<O: RowOrder>(
    isa: Isa,
    sweep: Sweep,
    f: &IluFactors,
    src: TeamSlice,
    dst: TeamSlice,
    order: &O,
) {
    assert_eq!(src.len(), f.nrows() * 4);
    assert_eq!(dst.len(), f.nrows() * 4);
    // SAFETY: checked against `f`; the rest is the caller's contract.
    with_lanes!(isa, unsafe rows_on<O: RowOrder>(
        sweep: Sweep, f: &IluFactors, src: TeamSlice, dst: TeamSlice, order: &O
    ));
}

/// # Safety
/// As [`run_rows`], which checked the lengths.
#[inline(always)]
unsafe fn rows_on<S: Simd, O: RowOrder>(
    s: S,
    sweep: Sweep,
    f: &IluFactors,
    src: TeamSlice,
    dst: TeamSlice,
    order: &O,
) {
    // SAFETY (both): the caller's contract, row by row.
    match sweep {
        Sweep::Forward => order.each_row(|i| unsafe { forward_row(s, f, i, src, dst) }),
        Sweep::Backward => order.each_row(|i| unsafe { backward_row(s, f, i, src, dst) }),
    }
}

/// A read-only input as the view the sweeps take: the cast discards
/// constness for the type, and no write ever goes through it.
pub(crate) fn read_only(v: &[f64]) -> TeamSlice {
    TeamSlice::from_raw(v.as_ptr() as *mut f64, v.len())
}

/// Serial forward substitution: `y = L⁻¹ b` (unit diagonal).
pub(crate) fn forward(f: &IluFactors, b: &[f64], y: &mut [f64]) {
    let rows = 0..f.nrows();
    // SAFETY: two distinct borrows, one thread, rows ascending: the rows
    // a row reads came before it.
    unsafe { run_rows(Isa::detect(), Sweep::Forward, f, read_only(b), TeamSlice::new(y), &rows) }
}

/// Serial backward substitution: `x = U⁻¹ y`, using the stored `D⁻¹`.
pub(crate) fn backward(f: &IluFactors, y: &[f64], x: &mut [f64]) {
    let rows = (0..f.nrows()).rev();
    // SAFETY: as in `forward`, rows descending.
    unsafe { run_rows(Isa::detect(), Sweep::Backward, f, read_only(y), TeamSlice::new(x), &rows) }
}

/// Full preconditioner application `x = (LU)⁻¹ b`.
pub fn solve(f: &IluFactors, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; b.len()];
    let mut x = vec![0.0; b.len()];
    solve_into(f, b, &mut y, &mut x);
    x
}

/// In-place variant writing into caller-provided buffers (no allocation
/// in the solver hot loop).
pub fn solve_into(f: &IluFactors, b: &[f64], scratch: &mut [f64], x: &mut [f64]) {
    forward(f, b, scratch);
    backward(f, scratch, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcsr::Bcsr4;
    use crate::ilu;

    #[test]
    fn forward_solves_lower_system() {
        // Random lower-triangular block system built via ILU of a
        // tridiagonal matrix; verify L y = b by applying L back.
        let edges: Vec<[u32; 2]> = (0..5).map(|i| [i, i + 1]).collect();
        let mut a = Bcsr4::from_edges(6, &edges);
        a.fill_diag_dominant(21);
        let f = ilu::ilu0(&a);
        let n = f.nrows() * 4;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y = vec![0.0; n];
        forward(&f, &b, &mut y);
        // apply L (unit diag): r_i = y_i + Σ L_ij y_j must equal b
        for i in 0..f.nrows() {
            let mut acc: [f64; 4] = y[i * 4..i * 4 + 4].try_into().unwrap();
            for k in f.l.row_ptr[i]..f.l.row_ptr[i + 1] {
                let j = f.l.col_idx[k] as usize;
                let yj: &[f64; 4] = y[j * 4..j * 4 + 4].try_into().unwrap();
                crate::block::matvec_acc(&crate::block::widen(f.l.block(k)), yj, &mut acc);
            }
            for c in 0..4 {
                assert!((acc[c] - b[i * 4 + c]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn backward_solves_upper_system() {
        let edges: Vec<[u32; 2]> = (0..5).map(|i| [i, i + 1]).collect();
        let mut a = Bcsr4::from_edges(6, &edges);
        a.fill_diag_dominant(22);
        let f = ilu::ilu0(&a);
        let n = f.nrows() * 4;
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut x = vec![0.0; n];
        backward(&f, &y, &mut x);
        // apply U (D + strict upper): r_i = D_i x_i + Σ U_ij x_j == y
        for i in 0..f.nrows() {
            let d = crate::block::invert(&crate::block::widen(f.dinv_block(i))).unwrap();
            let xi: &[f64; 4] = x[i * 4..i * 4 + 4].try_into().unwrap();
            let mut acc = [0.0f64; 4];
            crate::block::matvec_acc(&d, xi, &mut acc);
            for k in f.u.row_ptr[i]..f.u.row_ptr[i + 1] {
                let j = f.u.col_idx[k] as usize;
                let xj: &[f64; 4] = x[j * 4..j * 4 + 4].try_into().unwrap();
                crate::block::matvec_acc(&crate::block::widen(f.u.block(k)), xj, &mut acc);
            }
            for c in 0..4 {
                assert!(
                    (acc[c] - y[i * 4 + c]).abs() < 1e-9,
                    "row {i} comp {c}: {} vs {}",
                    acc[c],
                    y[i * 4 + c]
                );
            }
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let edges: Vec<[u32; 2]> = (0..7).map(|i| [i, i + 1]).collect();
        let mut a = Bcsr4::from_edges(8, &edges);
        a.fill_diag_dominant(23);
        let f = ilu::ilu0(&a);
        let n = f.nrows() * 4;
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x1 = solve(&f, &b);
        let mut scratch = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        solve_into(&f, &b, &mut scratch, &mut x2);
        assert_eq!(x1, x2);
    }
}
