//! The triangular sweeps on `f64` copies of the factors — reference
//! variants for Fig. 7a's table, so that what the production storage
//! (`fun3d_sparse`: column-major `f32` blocks) gains reads apart into
//! *layout* and *precision*:
//!
//! * [`Layout::RowMajor`]: the blocks as the solver stored them until the
//!   factors moved to single precision, applied by that code's kernel — a
//!   block's four columns are rebuilt from sixteen strided scalar loads
//!   before each multiply;
//! * [`Layout::ColumnMajor`]: the same `f64` values stored the way the
//!   sweep loads them, a column per load, on the lanes production uses.
//!
//! Both hold the *stored* (rounded) factor values, widened, and run the
//! production order of operations per entry, so their solutions are the
//! production ones bit for bit: the table's three rows time the same
//! arithmetic on three storage formats. Nothing outside this crate stores
//! factor blocks as `f64` (`scripts/verify.sh` holds that).

use fun3d_simd::{with_lanes, F64x4, Isa, Portable, Simd};
use fun3d_sparse::{widen, IluFactors, Triangle};

/// How a reference copy stores its 4×4 `f64` blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Entry `(r, c)` at `r * 4 + c`.
    RowMajor,
    /// Entry `(r, c)` at `c * 4 + r`.
    ColumnMajor,
}

/// `f64` copies of factors' values in one [`Layout`], on their patterns.
pub struct F64Factors<'a> {
    of: &'a IluFactors,
    layout: Layout,
    l: Vec<f64>,
    u: Vec<f64>,
    dinv: Vec<f64>,
}

impl<'a> F64Factors<'a> {
    /// Widens the stored values of `of` into `layout`.
    pub fn of(of: &'a IluFactors, layout: Layout) -> F64Factors<'a> {
        let widen = |stored: &[f32]| -> Vec<f64> {
            let blocks = stored
                .chunks_exact(16)
                .map(|b| b.try_into().expect("16 values"));
            match layout {
                Layout::RowMajor => blocks.flat_map(widen).collect(),
                Layout::ColumnMajor => blocks.flat_map(|b: &[f32; 16]| b.map(f64::from)).collect(),
            }
        };
        F64Factors {
            of,
            layout,
            l: widen(&of.l.blocks),
            u: widen(&of.u.blocks),
            dinv: widen(&of.dinv),
        }
    }

    /// Bytes one forward + backward application touches, by the model of
    /// [`IluFactors::sweep_bytes`] with 128-byte blocks.
    pub fn sweep_bytes(&self) -> usize {
        let wider = std::mem::size_of::<f64>() - std::mem::size_of::<f32>();
        self.of.sweep_bytes() + (self.l.len() + self.u.len() + self.dinv.len()) * wider
    }

    /// `x = (LU)⁻¹ b` into caller-provided buffers, as
    /// `fun3d_sparse::trsv_solve_into`.
    pub fn solve_into(&self, b: &[f64], scratch: &mut [f64], x: &mut [f64]) {
        let f = self;
        match self.layout {
            Layout::RowMajor => row_major_sweeps(f, b, scratch, x),
            // SAFETY: the body has no contract of its own.
            Layout::ColumnMajor => with_lanes!(Isa::detect(), unsafe column_major_sweeps(
                f: &F64Factors, b: &[f64], scratch: &mut [f64], x: &mut [f64]
            )),
        }
    }
}

fn block_at(values: &[f64], k: usize) -> &[f64; 16] {
    values[k * 16..(k + 1) * 16].try_into().expect("16 values")
}

fn row_at(v: &[f64], i: usize) -> &[f64; 4] {
    v[i * 4..i * 4 + 4].try_into().expect("4 values")
}

/// `rhs_i − Σ_k T_ik·x_k` with `step(acc, block, x_k)` per stored block.
#[inline(always)]
fn row_residual<V>(
    (t, values): (&Triangle, &[f64]),
    i: usize,
    init: V,
    x: &[f64],
    mut step: impl FnMut(V, &[f64; 16], &[f64; 4]) -> V,
) -> V {
    let mut acc = init;
    for k in t.row_ptr[i]..t.row_ptr[i + 1] {
        acc = step(acc, block_at(values, k), row_at(x, t.col_idx[k] as usize));
    }
    acc
}

/// The sweeps as `fun3d_sparse::trsv` ran them on row-major `f64` blocks.
fn row_major_sweeps(f: &F64Factors, b: &[f64], y: &mut [f64], x: &mut [f64]) {
    // y -= a·x with the block's columns gathered from its rows.
    let matvec_sub = |acc: F64x4, a: &[f64; 16], x: &[f64; 4]| {
        let col = |c: usize| F64x4([a[c], a[4 + c], a[8 + c], a[12 + c]]);
        acc - (col(0) * x[0] + col(1) * x[1] + col(2) * x[2] + col(3) * x[3])
    };
    let n = f.of.nrows();
    for i in 0..n {
        let acc = row_residual(
            (&f.of.l, &f.l),
            i,
            Portable.load(row_at(b, i)),
            y,
            matvec_sub,
        );
        Portable.store(acc, &mut y[i * 4..i * 4 + 4]);
    }
    for i in (0..n).rev() {
        let acc = row_residual(
            (&f.of.u, &f.u),
            i,
            Portable.load(row_at(y, i)),
            x,
            matvec_sub,
        )
        .0;
        let d = block_at(&f.dinv, i);
        for r in 0..4 {
            let row = &d[r * 4..r * 4 + 4];
            x[i * 4 + r] = row[0] * acc[0] + row[1] * acc[1] + row[2] * acc[2] + row[3] * acc[3];
        }
    }
}

/// The production sweeps with `f64` column loads in place of the widening
/// `f32` ones.
///
/// # Safety
/// None; `with_lanes!` takes kernel bodies, which are unsafe.
#[inline(always)]
unsafe fn column_major_sweeps<S: Simd>(
    s: S,
    f: &F64Factors,
    b: &[f64],
    y: &mut [f64],
    x: &mut [f64],
) {
    let matvec = |a: &[f64; 16], x: &[f64; 4]| {
        let col = |c: usize| s.load(&a[c * 4..c * 4 + 4]) * s.splat(x[c]);
        col(0) + col(1) + col(2) + col(3)
    };
    let matvec_sub = |acc: S::V, a: &[f64; 16], x: &[f64; 4]| acc - matvec(a, x);
    let n = f.of.nrows();
    for i in 0..n {
        let acc = row_residual((&f.of.l, &f.l), i, s.load(row_at(b, i)), y, matvec_sub);
        s.store(acc, &mut y[i * 4..i * 4 + 4]);
    }
    for i in (0..n).rev() {
        let acc = row_residual((&f.of.u, &f.u), i, s.load(row_at(y, i)), x, matvec_sub);
        let xi = matvec(block_at(&f.dinv, i), &s.to_array(acc));
        s.store(xi, &mut x[i * 4..i * 4 + 4]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_sparse::{ilu, trsv_solve, Bcsr4};

    #[test]
    fn reference_variants_solve_to_the_production_bits() {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(7);
        let f = ilu::iluk(&a, 1);
        let b: Vec<f64> = (0..a.dim())
            .map(|i| (i as f64 * 0.3).sin() * 100.0)
            .collect();
        let want = trsv_solve(&f, &b);
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let reference = F64Factors::of(&f, layout);
            let (mut y, mut x) = (vec![0.0; b.len()], vec![0.0; b.len()]);
            reference.solve_into(&b, &mut y, &mut x);
            assert_eq!(x, want, "{layout:?}");
            assert_eq!(
                reference.sweep_bytes() - f.sweep_bytes(),
                (f.l.nblocks() + f.u.nblocks() + f.nrows()) * 64
            );
        }
    }
}
