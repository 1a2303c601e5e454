//! Scalar (point) CSR — the ablation baseline for BCSR.
//!
//! The 1999 PETSc-FUN3D work showed blocking the Jacobian 4×4 is a large
//! win over scalar CSR (fewer index loads, two cache lines per block).
//! This module provides the scalar equivalent so the `bcsr_vs_csr`
//! microbench can re-measure that claim.

use fun3d_sparse::Bcsr4;

/// A scalar CSR matrix.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Row pointers, length `n + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Nonzero values.
    pub values: Vec<f64>,
}

impl Csr {
    /// Expands a BCSR matrix into scalar CSR (each 4×4 block becomes 16
    /// scalar entries).
    pub fn from_bcsr(a: &Bcsr4) -> Csr {
        let nrows = a.nrows() * 4;
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for br in 0..a.nrows() {
            for i in 0..4 {
                for k in a.row_ptr[br]..a.row_ptr[br + 1] {
                    let bc = a.col_idx[k] as usize;
                    let b = a.block(k);
                    for j in 0..4 {
                        col_idx.push((bc * 4 + j) as u32);
                        values.push(b[i * 4 + j]);
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
        Csr {
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows());
        assert_eq!(y.len(), self.nrows());
        for r in 0..self.nrows() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            y[r] = acc;
        }
    }

    /// Scalar forward/backward solve of `L U x = b` where this matrix
    /// holds a scalar ILU factorization in-place (unit lower, upper with
    /// explicit diagonal). Used only by the ablation bench to compare
    /// solve costs; the production path is the block solver.
    pub fn trsv_inplace_factors(&self, b: &[f64]) -> Vec<f64> {
        let n = self.nrows();
        let mut x = b.to_vec();
        // forward: unit lower part (cols < r)
        for r in 0..n {
            let mut acc = x[r];
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                if c < r {
                    acc -= self.values[k] * x[c];
                }
            }
            x[r] = acc;
        }
        // backward: upper incl. diagonal
        for r in (0..n).rev() {
            let mut acc = x[r];
            let mut diag = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                if c > r {
                    acc -= self.values[k] * x[c];
                } else if c == r {
                    diag = self.values[k];
                }
            }
            assert!(diag != 0.0, "zero diagonal in scalar factors");
            x[r] = acc / diag;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_matrix() -> Bcsr4 {
        let mut a = Bcsr4::from_pattern(&[vec![0, 1], vec![0, 1]]);
        a.fill_diag_dominant(3);
        a
    }

    #[test]
    fn expansion_dimensions() {
        let a = block_matrix();
        let c = Csr::from_bcsr(&a);
        assert_eq!(c.nrows(), a.dim());
        assert_eq!(c.nnz(), a.nblocks() * 16);
    }

    #[test]
    fn spmv_matches_block_spmv() {
        let a = block_matrix();
        let c = Csr::from_bcsr(&a);
        let n = a.dim();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut yb = vec![0.0; n];
        let mut ys = vec![0.0; n];
        a.spmv(&x, &mut yb);
        c.spmv(&x, &mut ys);
        for i in 0..n {
            assert!((yb[i] - ys[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn scalar_trsv_solves_triangular_system() {
        // Build explicit scalar factors: L = [[1,0],[0.5,1]], U = [[2,1],[0,4]]
        // A = L*U = [[2,1],[1,4.5]]
        // row 1 holds L10=0.5 at col 0 plus U11=4.0 at col 1.
        let csr = Csr {
            row_ptr: vec![0, 2, 4],
            col_idx: vec![0, 1, 0, 1],
            values: vec![2.0, 1.0, 0.5, 4.0],
        };
        let b = vec![5.0, 10.5];
        let x = csr.trsv_inplace_factors(&b);
        // forward: y0=5, y1=10.5-0.5*5=8; backward: x1=8/4=2, x0=(5-1*2)/2=1.5
        assert!((x[0] - 1.5).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }
}
