//! Block-sparse linear algebra: the PETSc substrate.
//!
//! PETSc-FUN3D stores its Jacobian in **block CSR** with 4×4 blocks (one
//! block per vertex pair, 4 unknowns per vertex), which the 1999 papers
//! [2,3] showed is crucial: coalesced loads (a 4×4 f64 block spans exactly
//! two cache lines), amortized index arithmetic, lower bandwidth pressure.
//! On top of the storage this crate implements the paper's "sparse,
//! narrow-band recurrence" kernels and the parallelization that runs them:
//!
//! * [`ilu`] — ILU(0) and ILU(k) factorization with the fill pattern
//!   computed symbolically, diagonal blocks inverted and stored (PETSc's
//!   layout optimization [17]), the paper's compressed-temporary-buffer
//!   optimization, a static structure built once per pattern that every
//!   numeric refactorization streams over, and the factors stored the way
//!   the sweeps load them: column-major `f32` blocks (`block`'s layout
//!   rule — single precision is storage only, all arithmetic is `f64`);
//! * `trsv` — block forward/backward substitution: the one forward and
//!   the one backward row that every sweep below runs;
//! * `levels` — level scheduling (Anderson & Saad [24], Naumov [25]):
//!   the dependency DAG's levels, which P2P ownership is built from (the
//!   barrier-per-level sweep is Fig. 7a's modelled row, not a kernel);
//! * `p2p` — sparsified point-to-point synchronization (Park et al.
//!   [26]): the levels decide which thread owns a row, an approximate
//!   transitive reduction of the cross-thread dependency edges decides
//!   which rows wait, and the waits are on per-thread progress counters
//!   instead of barriers; drives the triangular sweeps and the numeric
//!   ILU refactorization.
//!
//! The scalar CSR of the blocking ablation and the DAG metric of Table II
//! are paper-figure tools and live in `crates/bench`.

#![deny(unreachable_pub)]

mod bcsr;
mod block;
pub mod ilu;
mod levels;
mod p2p;
#[cfg(test)]
mod storage_tests;
mod trsv;

pub use bcsr::{Bcsr4, Pattern};
pub use block::{widen, Block4, FactorBlock, FACTOR_BLOCK_BYTES};
pub use ilu::{IluFactors, IluSymbolic, TempBuffer, Triangle};
pub use levels::LevelSchedule;
pub use p2p::{solve_p2p, solve_p2p_into, sweep_p2p_team, P2pSchedule};
pub use trsv::{solve as trsv_solve, solve_into as trsv_solve_into, Sweep};

/// The unit tests' dense reference solver.
#[cfg(test)]
mod dense {
    /// Solves the dense system `a x = b` (n×n row-major) by Gaussian
    /// elimination with partial pivoting. Panics on singular input.
    pub(crate) fn solve(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        assert_eq!(a.len(), n * n);
        assert_eq!(b.len(), n);
        let mut m = a.to_vec();
        let mut x = b.to_vec();
        for col in 0..n {
            // pivot
            let mut piv = col;
            for r in col + 1..n {
                if m[r * n + col].abs() > m[piv * n + col].abs() {
                    piv = r;
                }
            }
            assert!(m[piv * n + col].abs() > 1e-300, "singular matrix");
            if piv != col {
                for c in 0..n {
                    m.swap(col * n + c, piv * n + c);
                }
                x.swap(col, piv);
            }
            let d = m[col * n + col];
            for r in col + 1..n {
                let f = m[r * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    m[r * n + c] -= f * m[col * n + c];
                }
                x[r] -= f * x[col];
            }
        }
        for col in (0..n).rev() {
            x[col] /= m[col * n + col];
            for r in 0..col {
                x[r] -= m[r * n + col] * x[col];
            }
        }
        x
    }

    mod tests {
        use super::*;

        #[test]
        fn solves_identity() {
            let a = vec![1.0, 0.0, 0.0, 1.0];
            let b = vec![3.0, 4.0];
            assert_eq!(solve(&a, &b, 2), b);
        }

        #[test]
        fn solves_2x2() {
            let a = vec![2.0, 1.0, 1.0, 3.0];
            let x = solve(&a, &[5.0, 10.0], 2);
            assert!((x[0] - 1.0).abs() < 1e-12);
            assert!((x[1] - 3.0).abs() < 1e-12);
        }

        #[test]
        fn pivoting_handles_zero_diagonal() {
            let a = vec![0.0, 1.0, 1.0, 0.0];
            let x = solve(&a, &[2.0, 3.0], 2);
            assert!((x[0] - 3.0).abs() < 1e-12);
            assert!((x[1] - 2.0).abs() < 1e-12);
        }
    }
}
