//! Block compressed sparse row storage (4×4 blocks).

use crate::block::{self, Block4, BLOCK_DIM, BLOCK_LEN};
use fun3d_threads::TeamSlice;

/// A square block-sparse matrix with 4×4 blocks (PETSc's BAIJ/"BCSR").
///
/// Block row `r` owns blocks `row_ptr[r]..row_ptr[r+1]`; `col_idx` holds
/// block column indices sorted ascending within each row; `blocks` holds
/// the 16 doubles of each block row-major, contiguous in row order — the
/// access order of SpMV and of the factorization.
#[derive(Clone, Debug)]
pub struct Bcsr4 {
    /// Block-row pointers, length `nrows + 1`.
    pub row_ptr: Vec<usize>,
    /// Block-column indices, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Block values, 16 doubles per block.
    pub blocks: Vec<f64>,
}

/// The index half of a block CSR matrix — which block columns each row
/// holds — borrowed from whoever owns it: a [`Bcsr4`] (`Pattern::from`)
/// or a factorization's static structure
/// ([`IluSymbolic::l_pattern`](crate::IluSymbolic::l_pattern)). The
/// schedules of a triangular sweep depend on nothing else.
#[derive(Clone, Copy, Debug)]
pub struct Pattern<'a> {
    /// Row pointers, length `nrows + 1`.
    pub row_ptr: &'a [usize],
    /// Column indices, rows back to back.
    pub col_idx: &'a [u32],
}

impl<'a> Pattern<'a> {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The columns of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [u32] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }
}

impl<'a> From<&'a Bcsr4> for Pattern<'a> {
    fn from(m: &'a Bcsr4) -> Pattern<'a> {
        Pattern {
            row_ptr: &m.row_ptr,
            col_idx: &m.col_idx,
        }
    }
}

impl Bcsr4 {
    /// Builds a zero matrix with the given pattern. `cols_of_row[r]` must
    /// be sorted ascending and unique.
    pub fn from_pattern(cols_of_row: &[Vec<u32>]) -> Self {
        let mut row_ptr = Vec::with_capacity(cols_of_row.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        for cols in cols_of_row {
            debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "unsorted pattern row");
            col_idx.extend_from_slice(cols);
            row_ptr.push(col_idx.len());
        }
        let blocks = vec![0.0; col_idx.len() * BLOCK_LEN];
        Bcsr4 {
            row_ptr,
            col_idx,
            blocks,
        }
    }

    /// Builds the vertex-neighbor pattern of a mesh: every row holds its
    /// diagonal plus one block per incident edge.
    ///
    /// The rows are built in place in one `col_idx`: counted, scattered,
    /// then each sorted and deduplicated where it lies, compacting toward
    /// the front when an edge repeats.
    pub fn from_edges(nvertices: usize, edges: &[[u32; 2]]) -> Self {
        let mut row_ptr = vec![1usize; nvertices + 1];
        row_ptr[0] = 0;
        for e in edges {
            row_ptr[e[0] as usize + 1] += 1;
            row_ptr[e[1] as usize + 1] += 1;
        }
        for r in 0..nvertices {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut col_idx = vec![0u32; row_ptr[nvertices]];
        let mut cursor = row_ptr[..nvertices].to_vec();
        for (r, c) in cursor.iter_mut().enumerate() {
            col_idx[*c] = r as u32;
            *c += 1;
        }
        for e in edges {
            for (row, col) in [(e[0], e[1]), (e[1], e[0])] {
                let c = &mut cursor[row as usize];
                col_idx[*c] = col;
                *c += 1;
            }
        }
        // Sort and deduplicate each row, writing it back at `kept`, which
        // never passes the start of the row being read.
        let mut kept = 0;
        for r in 0..nvertices {
            let (start, end) = (row_ptr[r], row_ptr[r + 1]);
            col_idx[start..end].sort_unstable();
            row_ptr[r] = kept;
            for k in start..end {
                let c = col_idx[k];
                if kept == row_ptr[r] || col_idx[kept - 1] != c {
                    col_idx[kept] = c;
                    kept += 1;
                }
            }
        }
        row_ptr[nvertices] = kept;
        col_idx.truncate(kept);
        let blocks = vec![0.0; kept * BLOCK_LEN];
        Bcsr4 {
            row_ptr,
            col_idx,
            blocks,
        }
    }

    /// Number of block rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Scalar dimension (`4 * nrows`).
    pub fn dim(&self) -> usize {
        self.nrows() * BLOCK_DIM
    }

    /// Immutable view of block `k` (position in `col_idx`).
    #[inline]
    pub fn block(&self, k: usize) -> &Block4 {
        self.blocks[k * BLOCK_LEN..(k + 1) * BLOCK_LEN]
            .try_into()
            .unwrap()
    }

    /// Mutable view of block `k`.
    #[inline]
    pub(crate) fn block_mut(&mut self, k: usize) -> &mut Block4 {
        (&mut self.blocks[k * BLOCK_LEN..(k + 1) * BLOCK_LEN])
            .try_into()
            .unwrap()
    }

    /// Position of block `(row, col)` in the storage, if present.
    pub fn find(&self, row: usize, col: u32) -> Option<usize> {
        let r = self.row_ptr[row]..self.row_ptr[row + 1];
        self.col_idx[r.clone()]
            .binary_search(&col)
            .ok()
            .map(|k| r.start + k)
    }

    /// Adds a whole block into storage position `k`, as [`Bcsr4::find`]
    /// returns it: assembly looks its positions up once
    /// (`fun3d_core::JacobianSlots`).
    #[inline]
    pub fn add_block_at(&mut self, k: usize, b: &Block4) {
        for (dst, src) in self.block_mut(k).iter_mut().zip(b) {
            *dst += src;
        }
    }

    /// Zeroes all values (pattern preserved).
    pub fn zero_values(&mut self) {
        self.blocks.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Serial block SpMV: `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        for r in 0..self.nrows() {
            let mut acc = [0.0f64; 4];
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let xv: &[f64; 4] = x[c * 4..c * 4 + 4].try_into().unwrap();
                block::matvec_acc(self.block(k), xv, &mut acc);
            }
            y[r * 4..r * 4 + 4].copy_from_slice(&acc);
        }
    }

    /// Row-range slice of the SpMV, writing through a raw pointer.
    ///
    /// # Safety
    /// Rows in `range` must be written by exactly this caller, and `y`
    /// must have room for `dim()` values.
    unsafe fn spmv_rows(&self, range: std::ops::Range<usize>, x: &[f64], y: *mut f64) {
        for r in range {
            let mut acc = [0.0f64; 4];
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let xv: &[f64; 4] = x[c * 4..c * 4 + 4].try_into().unwrap();
                block::matvec_acc(self.block(k), xv, &mut acc);
            }
            std::ptr::copy_nonoverlapping(acc.as_ptr(), y.add(r * 4), 4);
        }
    }

    /// SpMV slice for one member of an already-running SPMD region: this
    /// thread computes its static chunk of rows, each with the arithmetic
    /// of [`Bcsr4::spmv`], hence bitwise-identical results. Synchronization
    /// is the caller's: `x` must be fully published (barrier) before the
    /// call, and a barrier must separate the call from any cross-chunk
    /// read of `y`.
    pub fn spmv_team(&self, tid: usize, nthreads: usize, x: &[f64], y: TeamSlice) {
        assert_eq!(x.len(), self.dim());
        assert_eq!(y.len(), self.dim());
        let range = fun3d_threads::chunk_range(self.nrows(), nthreads, tid);
        // SAFETY: chunk_range assigns each row to exactly one tid.
        unsafe { self.spmv_rows(range, x, y.as_ptr()) };
    }

    /// Extracts the dense equivalent (for small test matrices only).
    // Public for `fun3d_core`'s Jacobian tests; no production caller.
    pub fn to_dense(&self) -> Vec<f64> {
        let n = self.dim();
        let mut d = vec![0.0; n * n];
        for r in 0..self.nrows() {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let b = self.block(k);
                for i in 0..4 {
                    for j in 0..4 {
                        d[(r * 4 + i) * n + (c * 4 + j)] = b[i * 4 + j];
                    }
                }
            }
        }
        d
    }

    /// Fills values to make the matrix block diagonally dominant with
    /// deterministic pseudo-random off-diagonals — the synthetic stand-in
    /// for an assembled Jacobian in kernel-level experiments.
    pub fn fill_diag_dominant(&mut self, seed: u64) {
        let mut rng = fun3d_util::Rng64::new(seed);
        let nrows = self.nrows();
        for r in 0..nrows {
            let mut diag_boost = [0.0f64; 4];
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let is_diag = self.col_idx[k] as usize == r;
                let b = self.block_mut(k);
                for (pos, x) in b.iter_mut().enumerate() {
                    *x = rng.range_f64(-1.0, 1.0);
                    if !is_diag {
                        diag_boost[pos / 4] += x.abs();
                    }
                }
            }
            let kd = self.find(r, r as u32).expect("diagonal block present");
            let b = self.block_mut(kd);
            for i in 0..4 {
                let off_in_block: f64 =
                    (0..4).filter(|&j| j != i).map(|j| b[i * 4 + j].abs()).sum();
                b[i * 4 + i] = 2.0 + diag_boost[i] + off_in_block;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::ZERO_BLOCK;
    use crate::dense;

    fn tiny_matrix() -> Bcsr4 {
        // 3 block rows, tridiagonal pattern.
        let mut a = Bcsr4::from_pattern(&[vec![0, 1], vec![0, 1, 2], vec![1, 2]]);
        a.fill_diag_dominant(42);
        a
    }

    #[test]
    fn from_edges_sorts_and_merges_repeated_edges() {
        // Both orientations of one edge, a repeat, and a self-loop land
        // on the pattern of the plain edge list.
        let a = Bcsr4::from_edges(4, &[[2, 0], [0, 2], [1, 3], [0, 2], [3, 3]]);
        let b = Bcsr4::from_pattern(&[vec![0, 2], vec![1, 3], vec![0, 2], vec![1, 3]]);
        assert_eq!((&a.row_ptr, &a.col_idx), (&b.row_ptr, &b.col_idx));
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert!(Bcsr4::from_edges(0, &[]).col_idx.is_empty());
    }

    #[test]
    fn pattern_construction() {
        let a = tiny_matrix();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nblocks(), 7);
        assert_eq!(a.dim(), 12);
        assert!(a.find(0, 0).is_some());
        assert!(a.find(0, 2).is_none());
    }

    #[test]
    fn from_edges_pattern() {
        let a = Bcsr4::from_edges(3, &[[0, 1], [1, 2]]);
        assert_eq!(a.nblocks(), 3 + 2 * 2);
        assert!(a.find(0, 1).is_some());
        assert!(a.find(1, 0).is_some());
        assert!(a.find(0, 2).is_none());
    }

    #[test]
    fn spmv_matches_dense() {
        let a = tiny_matrix();
        let n = a.dim();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; n];
        a.spmv(&x, &mut y);
        let d = a.to_dense();
        for i in 0..n {
            let expect: f64 = (0..n).map(|j| d[i * n + j] * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn team_spmv_matches_serial() {
        let a = Bcsr4::from_edges(
            64,
            &(0..63).map(|i| [i as u32, i as u32 + 1]).collect::<Vec<_>>(),
        );
        let mut a = a;
        a.fill_diag_dominant(7);
        let n = a.dim();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut y1 = vec![0.0; n];
        a.spmv(&x, &mut y1);
        for nt in [1usize, 3, 4] {
            let mut y2 = vec![0.0; n];
            let view = TeamSlice::new(&mut y2);
            fun3d_threads::ThreadPool::new(nt).run(|tid| a.spmv_team(tid, nt, &x, view));
            assert_eq!(y1, y2, "team SpMV must be bitwise identical at nt={nt}");
        }
    }

    #[test]
    fn add_block_at_and_zero_values() {
        let mut a = Bcsr4::from_pattern(&[vec![0]]);
        let mut b = ZERO_BLOCK;
        b[0] = 1.0;
        a.add_block_at(0, &b);
        assert_eq!(a.block(0)[0], 1.0);
        a.zero_values();
        assert!(a.blocks.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn diag_dominance_holds() {
        let a = tiny_matrix();
        let d = a.to_dense();
        let n = a.dim();
        for i in 0..n {
            let diag = d[i * n + i].abs();
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| d[i * n + j].abs()).sum();
            assert!(diag > off, "row {i}: diag {diag} <= off {off}");
        }
    }

    #[test]
    fn dense_solve_consistency() {
        // to_dense + dense::solve gives a usable reference path.
        let a = tiny_matrix();
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let x = dense::solve(&a.to_dense(), &b, n);
        for i in 0..n {
            assert!((x[i] - xref[i]).abs() < 1e-9);
        }
    }
}
