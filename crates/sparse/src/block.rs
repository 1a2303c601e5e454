//! Dense 4×4 block primitives.
//!
//! **Layout rule: a block is stored the way its hot loop loads it, and
//! single precision is storage only.** Two formats are stored, each with
//! one block·vector kernel:
//!
//! * [`Block4`], the matrix `A`: row-major `f64`. Assembly adds into rows
//!   and SpMV ([`matvec_acc`]) walks them.
//! * [`FactorBlock`], the ILU factors `L`, `U`, `D⁻¹`: **column-major
//!   `f32`**, 64 bytes. The triangular sweeps keep a row's four results in
//!   one vector and subtract `column_c · x_c`, so a column is one
//!   contiguous load that [`Simd::load_f32`] widens — exactly — and every
//!   product and sum is `f64` ([`factor_matvec`]): half the bytes of `f64`
//!   factors, and no columns rebuilt from sixteen strided scalars.
//!
//! The factorization works in `f64` on column-major blocks
//! ([`factor_matmul`], [`factor_matmul_sub`]), so finished factor blocks
//! are read as they are stored and a finished row leaves by [`narrow`]
//! alone. The kernels are generic over [`Simd`], without fused
//! multiply-add, and fix the order of operations per entry: the bits do
//! not depend on the lanes.

use fun3d_simd::Simd;

/// Block dimension: 4 unknowns per vertex (p, u, v, w).
pub(crate) const BLOCK_DIM: usize = 4;
/// Values per block.
pub(crate) const BLOCK_LEN: usize = BLOCK_DIM * BLOCK_DIM;

/// A 4×4 block of `f64`: row-major in a matrix ([`crate::Bcsr4`]),
/// column-major as a working block of the factorization.
pub type Block4 = [f64; BLOCK_LEN];

/// A stored factor block: column-major `f32`, entry `(r, c)` at
/// `c * 4 + r`.
pub type FactorBlock = [f32; BLOCK_LEN];

/// Bytes of a stored factor block — the one constant the byte models of
/// the sweeps and the factorization derive from.
pub const FACTOR_BLOCK_BYTES: usize = BLOCK_LEN * std::mem::size_of::<f32>();

/// The zero block.
pub(crate) const ZERO_BLOCK: Block4 = [0.0; BLOCK_LEN];

/// The identity block.
pub(crate) fn identity() -> Block4 {
    let mut b = ZERO_BLOCK;
    for i in 0..BLOCK_DIM {
        b[i * BLOCK_DIM + i] = 1.0;
    }
    b
}

/// `y += a * x` for a row-major matrix block.
#[inline]
pub(crate) fn matvec_acc(a: &Block4, x: &[f64; 4], y: &mut [f64; 4]) {
    for r in 0..4 {
        let row = &a[r * 4..r * 4 + 4];
        y[r] += row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3];
    }
}

/// `a · x` for a stored factor block, the four row results in one vector:
/// entry `r` is `((a_r0·x_0 + a_r1·x_1) + a_r2·x_2) + a_r3·x_3`.
#[inline(always)]
pub(crate) fn factor_matvec<S: Simd>(s: S, a: &FactorBlock, x: &[f64; 4]) -> S::V {
    let col = |c: usize| s.load_f32(&a[c * 4..c * 4 + 4]) * s.splat(x[c]);
    col(0) + col(1) + col(2) + col(3)
}

/// A stored factor block's values as `f64`, still column-major: four
/// widening loads, so that the products below splat from `f64` memory.
#[inline(always)]
fn widened<S: Simd>(s: S, b: &FactorBlock) -> Block4 {
    let mut wide = ZERO_BLOCK;
    for at in [0, 4, 8, 12] {
        s.store(s.load_f32(&b[at..at + 4]), &mut wide[at..at + 4]);
    }
    wide
}

/// `c[i][j] = step(c[i][j], a[i][k]·b[k][j])` for `k` ascending, each
/// product rounded before its step: `a` and `c` column-major working
/// blocks, `b` a stored factor block.
#[inline(always)]
fn fold_products<S: Simd>(
    s: S,
    a: &Block4,
    b: &FactorBlock,
    c: &mut Block4,
    step: impl Fn(S::V, S::V) -> S::V,
) {
    let (acol, b) = (
        [0, 4, 8, 12].map(|at| s.load(&a[at..at + 4])),
        widened(s, b),
    );
    for j in 0..4 {
        let mut acc = s.load(&c[j * 4..j * 4 + 4]);
        for k in 0..4 {
            acc = step(acc, acol[k] * s.splat(b[j * 4 + k]));
        }
        s.store(acc, &mut c[j * 4..j * 4 + 4]);
    }
}

/// `c = a · b`: entry `(i, j)` sums `a[i][k]·b[k][j]` for `k` ascending
/// from `+0.0`.
#[inline(always)]
pub(crate) fn factor_matmul<S: Simd>(s: S, a: &Block4, b: &FactorBlock, c: &mut Block4) {
    *c = ZERO_BLOCK;
    fold_products(s, a, b, c, |acc, product| acc + product);
}

/// `c -= a · b`: entry `(i, j)` subtracts `a[i][k]·b[k][j]` for `k`
/// ascending.
#[inline(always)]
pub(crate) fn factor_matmul_sub<S: Simd>(s: S, a: &Block4, b: &FactorBlock, c: &mut Block4) {
    fold_products(s, a, b, c, |acc, product| acc - product);
}

/// The transpose: row-major to column-major and back.
#[inline]
pub(crate) fn transpose(a: &Block4) -> Block4 {
    std::array::from_fn(|at| a[(at % 4) * 4 + at / 4])
}

/// Whether every value survives [`narrow`] as a finite `f32`: false for a
/// NaN, an infinity, or a finite `f64` beyond the `f32` range.
#[inline]
pub(crate) fn narrows(values: &[f64]) -> bool {
    values.iter().all(|&v| (v as f32).is_finite())
}

/// Rounds `src` to `f32` into `dst`, element by element (to nearest, as
/// `as` does) — the one place a factor value loses precision.
#[inline]
pub(crate) fn narrow(src: &[f64], dst: &mut [f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v as f32;
    }
}

/// A stored factor block as a row-major `f64` block (for tests, models
/// and figures; the kernels read the stored form directly).
pub fn widen(a: &FactorBlock) -> Block4 {
    transpose(&a.map(f64::from))
}

/// `c = a * b` for row-major blocks: entry `(i, j)` sums `a[i][k]·b[k][j]`
/// for `k` ascending from `+0.0` — [`factor_matmul`]'s order, in scalar code.
#[inline]
pub(crate) fn matmul(a: &Block4, b: &Block4) -> Block4 {
    let mut c = ZERO_BLOCK;
    for i in 0..4 {
        for k in 0..4 {
            let aik = a[i * 4 + k];
            for j in 0..4 {
                c[i * 4 + j] += aik * b[k * 4 + j];
            }
        }
    }
    c
}

/// Inverts a 4×4 block by Gauss-Jordan with partial pivoting.
/// Returns `None` when the block is numerically singular.
pub(crate) fn invert(a: &Block4) -> Option<Block4> {
    let mut m = *a;
    let mut inv = identity();
    for col in 0..4 {
        let mut piv = col;
        for r in col + 1..4 {
            if m[r * 4 + col].abs() > m[piv * 4 + col].abs() {
                piv = r;
            }
        }
        let p = m[piv * 4 + col];
        if p.abs() < 1e-300 {
            return None;
        }
        if piv != col {
            for c in 0..4 {
                m.swap(col * 4 + c, piv * 4 + c);
                inv.swap(col * 4 + c, piv * 4 + c);
            }
        }
        let d = 1.0 / m[col * 4 + col];
        for c in 0..4 {
            m[col * 4 + c] *= d;
            inv[col * 4 + c] *= d;
        }
        for r in 0..4 {
            if r == col {
                continue;
            }
            let f = m[r * 4 + col];
            if f == 0.0 {
                continue;
            }
            for c in 0..4 {
                m[r * 4 + c] -= f * m[col * 4 + c];
                inv[r * 4 + c] -= f * inv[col * 4 + c];
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_simd::{Isa, Portable};
    use fun3d_util::Rng64;

    fn random_block(rng: &mut Rng64) -> Block4 {
        let mut b = ZERO_BLOCK;
        for x in &mut b {
            *x = rng.range_f64(-1.0, 1.0);
        }
        // make diagonally dominant so inversion is well-conditioned
        for i in 0..4 {
            b[i * 4 + i] += 5.0;
        }
        b
    }

    /// The stored form of a row-major block (rounded).
    fn stored(a: &Block4) -> FactorBlock {
        let mut f = [0.0f32; BLOCK_LEN];
        narrow(&transpose(a), &mut f);
        f
    }

    #[test]
    fn matvec_identity() {
        let i = identity();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        matvec_acc(&i, &x, &mut y);
        assert_eq!(y, x);
        assert_eq!(
            Portable.to_array(factor_matvec(Portable, &stored(&i), &x)),
            x
        );
    }

    /// `(b·x, a·b, c − a·b)` by the factor kernels on the lanes of `isa`,
    /// row-major in and out.
    fn by_lanes(
        isa: Isa,
        a: &Block4,
        fb: &FactorBlock,
        c: &Block4,
        x: &[f64; 4],
    ) -> ([f64; 4], Block4, Block4) {
        fn run<S: Simd>(
            s: S,
            a: &Block4,
            fb: &FactorBlock,
            c: &Block4,
            x: &[f64; 4],
        ) -> ([f64; 4], Block4, Block4) {
            let (at, mut ab, mut ct) = (transpose(a), ZERO_BLOCK, transpose(c));
            factor_matmul(s, &at, fb, &mut ab);
            factor_matmul_sub(s, &at, fb, &mut ct);
            (
                s.to_array(factor_matvec(s, fb, x)),
                transpose(&ab),
                transpose(&ct),
            )
        }
        match isa {
            Isa::Portable(s) => run(s, a, fb, c, x),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(s) => run(s, a, fb, c, x),
        }
    }

    // Same products, same order per entry: the column-major f32 kernels on
    // a stored block equal scalar row-major f64 code on its widened values
    // bit for bit, on either lane implementation.

    #[test]
    fn simd_matvec_matches_scalar() {
        let mut rng = Rng64::new(5);
        for _ in 0..100 {
            let fb = stored(&random_block(&mut rng));
            let x = [
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
            ];
            let mut want = [0.0; 4];
            matvec_acc(&widen(&fb), &x, &mut want);
            for isa in [Some(Isa::portable()), Isa::avx2()].into_iter().flatten() {
                let (got, ..) = by_lanes(isa, &ZERO_BLOCK, &fb, &ZERO_BLOCK, &x);
                assert_eq!(got, want, "{} lanes", isa.name());
            }
        }
    }

    #[test]
    fn simd_matmul_matches_scalar() {
        let mut rng = Rng64::new(6);
        for _ in 0..100 {
            let (a, c) = (random_block(&mut rng), random_block(&mut rng));
            let fb = stored(&random_block(&mut rng));
            let b = widen(&fb);
            let mut want_c = c;
            for (at, w) in want_c.iter_mut().enumerate() {
                for k in 0..4 {
                    *w -= a[at / 4 * 4 + k] * b[k * 4 + at % 4];
                }
            }
            for isa in [Some(Isa::portable()), Isa::avx2()].into_iter().flatten() {
                let (_, ab, cab) = by_lanes(isa, &a, &fb, &c, &[0.0; 4]);
                assert_eq!((ab, cab), (matmul(&a, &b), want_c), "{} lanes", isa.name());
            }
        }
    }

    #[test]
    fn narrowing_rounds_to_nearest_and_names_what_does_not_fit() {
        let mut out = [0.0f32; 4];
        narrow(&[0.1, -1.0, 1e-50, f64::from(f32::MAX)], &mut out);
        assert_eq!(out, [0.1f32, -1.0, 0.0, f32::MAX]);
        assert!(narrows(&[0.0, -3.5, 1e38, 1e-300]));
        for bad in [1e39, -1e300, f64::NAN, f64::INFINITY] {
            assert!(!narrows(&[1.0, bad]), "{bad}");
        }
        let a: Block4 = std::array::from_fn(|at| at as f64);
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(widen(&stored(&a)), a);
        assert_eq!(FACTOR_BLOCK_BYTES, 64);
    }

    #[test]
    fn invert_roundtrip() {
        let mut rng = Rng64::new(7);
        for _ in 0..100 {
            let a = random_block(&mut rng);
            let ainv = invert(&a).expect("dominant block is invertible");
            let prod = matmul(&a, &ainv);
            let id = identity();
            for k in 0..16 {
                assert!((prod[k] - id[k]).abs() < 1e-10, "entry {k}: {}", prod[k]);
            }
        }
    }

    #[test]
    fn invert_singular_returns_none() {
        let mut a = ZERO_BLOCK;
        a[0] = 1.0; // rank-1
        assert!(invert(&a).is_none());
    }

    #[test]
    fn invert_permutation_block() {
        // A permutation block has zero diagonal: exercises pivoting.
        let mut p = ZERO_BLOCK;
        p[0 * 4 + 1] = 1.0;
        p[1 * 4 + 0] = 1.0;
        p[2 * 4 + 3] = 1.0;
        p[3 * 4 + 2] = 1.0;
        let pinv = invert(&p).unwrap();
        let prod = matmul(&p, &pinv);
        let id = identity();
        for k in 0..16 {
            assert!((prod[k] - id[k]).abs() < 1e-14);
        }
    }

    #[test]
    fn matmul_associates_with_matvec() {
        let mut rng = Rng64::new(8);
        let a = random_block(&mut rng);
        let b = random_block(&mut rng);
        let x = [1.0, 2.0, -1.0, 0.5];
        // (a*b)x == a(bx)
        let ab = matmul(&a, &b);
        let mut y1 = [0.0; 4];
        matvec_acc(&ab, &x, &mut y1);
        let mut bx = [0.0; 4];
        matvec_acc(&b, &x, &mut bx);
        let mut y2 = [0.0; 4];
        matvec_acc(&a, &bx, &mut y2);
        for k in 0..4 {
            assert!((y1[k] - y2[k]).abs() < 1e-12);
        }
    }
}
