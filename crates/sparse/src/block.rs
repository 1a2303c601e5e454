//! Dense 4×4 block primitives.
//!
//! The recurrences' inner kernels are 4×4 matrix · 4-vector products
//! (TRSV) and 4×4 matrix·matrix multiply-subtracts plus one 4×4 inversion
//! per row (ILU). Blocks are stored row-major. Each op has a scalar and a
//! SIMD variant; the SIMD variants vectorize *within* the block, as the
//! paper does ("vectorization is done within a block"). The TRSV ones
//! stay on the [`Portable`] lanes: TRSV at application size is bound by L3
//! bandwidth, not by the block arithmetic (3.75 ns/block with L2-resident
//! factors, 6.6 ns/block at 3 549 vertices), and the intrinsic port tried
//! when the edge kernels moved to `Avx2` was slower (8.5 ns/block; figures
//! from that change's sizing runs). The ILU's block·block ops
//! ([`matmul_lanes`], [`matmul_sub_lanes`]) are generic over [`Simd`]:
//! the numeric factorization is arithmetic-bound (32 packed operations
//! per update) and runs them on the detected lanes.

use fun3d_simd::{F64x4, Portable, Simd};

/// Block dimension: 4 unknowns per vertex (p, u, v, w).
pub const BLOCK_DIM: usize = 4;
/// Doubles per block.
pub const BLOCK_LEN: usize = BLOCK_DIM * BLOCK_DIM;

/// A row-major 4×4 block.
pub type Block4 = [f64; BLOCK_LEN];

/// The zero block.
pub const ZERO_BLOCK: Block4 = [0.0; BLOCK_LEN];

/// The identity block.
pub fn identity() -> Block4 {
    let mut b = ZERO_BLOCK;
    for i in 0..BLOCK_DIM {
        b[i * BLOCK_DIM + i] = 1.0;
    }
    b
}

/// `y += a * x` (block·vector, scalar code).
#[inline]
pub fn matvec_acc(a: &Block4, x: &[f64; 4], y: &mut [f64; 4]) {
    for r in 0..4 {
        let row = &a[r * 4..r * 4 + 4];
        y[r] += row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3];
    }
}

/// `y -= a * x` (block·vector, scalar code).
#[inline]
pub fn matvec_sub(a: &Block4, x: &[f64; 4], y: &mut [f64; 4]) {
    for r in 0..4 {
        let row = &a[r * 4..r * 4 + 4];
        y[r] -= row[0] * x[0] + row[1] * x[1] + row[2] * x[2] + row[3] * x[3];
    }
}

/// `y -= a * x` vectorized: broadcast each x-lane and accumulate whole
/// columns, keeping the block's rows in SIMD registers.
#[inline]
pub fn matvec_sub_simd(a: &Block4, x: &[f64; 4], y: &mut [f64; 4]) {
    // Treat y as one SIMD register of the 4 row results: y_r = Σ_c a[r][c]x[c].
    // Column c of a (strided) times x[c]: gather columns once.
    let col = |c: usize| F64x4([a[c], a[4 + c], a[8 + c], a[12 + c]]);
    let mut acc = Portable.load(y);
    acc = acc - (col(0) * x[0] + col(1) * x[1] + col(2) * x[2] + col(3) * x[3]);
    Portable.store(acc, y);
}

/// `c -= a * b` (block·block multiply-subtract, scalar).
#[inline]
pub fn matmul_sub(a: &Block4, b: &Block4, c: &mut Block4) {
    for i in 0..4 {
        for k in 0..4 {
            let aik = a[i * 4 + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..4 {
                c[i * 4 + j] -= aik * b[k * 4 + j];
            }
        }
    }
}

/// `c -= a * b` vectorized over the rows of `b`.
#[inline]
pub fn matmul_sub_simd(a: &Block4, b: &Block4, c: &mut Block4) {
    matmul_sub_lanes(Portable, a, b, c);
}

/// `c -= a * b` on the lanes of `s`, one row of `c` per vector: entry
/// `(i, j)` subtracts `a[i][k]·b[k][j]` for `k` ascending, each product
/// rounded before its subtraction — the same bits on every [`Simd`].
#[inline(always)]
pub fn matmul_sub_lanes<S: Simd>(s: S, a: &Block4, b: &Block4, c: &mut Block4) {
    let brow = [
        s.load(&b[0..4]),
        s.load(&b[4..8]),
        s.load(&b[8..12]),
        s.load(&b[12..16]),
    ];
    for i in 0..4 {
        let mut acc = s.load(&c[i * 4..i * 4 + 4]);
        for k in 0..4 {
            acc = acc - brow[k] * s.splat(a[i * 4 + k]);
        }
        s.store(acc, &mut c[i * 4..i * 4 + 4]);
    }
}

/// `c = a * b` on the lanes of `s`: entry `(i, j)` sums `a[i][k]·b[k][j]`
/// for `k` ascending from `+0.0`, as [`matmul`] does, so the two agree
/// bit for bit on every [`Simd`].
#[inline(always)]
pub fn matmul_lanes<S: Simd>(s: S, a: &Block4, b: &Block4, c: &mut Block4) {
    let brow = [
        s.load(&b[0..4]),
        s.load(&b[4..8]),
        s.load(&b[8..12]),
        s.load(&b[12..16]),
    ];
    for i in 0..4 {
        let mut acc = s.splat(0.0);
        for k in 0..4 {
            acc = acc + brow[k] * s.splat(a[i * 4 + k]);
        }
        s.store(acc, &mut c[i * 4..i * 4 + 4]);
    }
}

/// `c = a * b` (block·block product into a fresh block).
#[inline]
pub fn matmul(a: &Block4, b: &Block4) -> Block4 {
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
pub fn invert(a: &Block4) -> Option<Block4> {
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

/// Frobenius norm of a block.
pub fn fro_norm(a: &Block4) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn matvec_identity() {
        let i = identity();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        matvec_acc(&i, &x, &mut y);
        assert_eq!(y, x);
        matvec_sub(&i, &x, &mut y);
        assert_eq!(y, [0.0; 4]);
    }

    #[test]
    fn simd_matvec_matches_scalar() {
        let mut rng = Rng64::new(5);
        for _ in 0..100 {
            let a = random_block(&mut rng);
            let x = [
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
                rng.next_f64(),
            ];
            let mut y1 = [1.0, -1.0, 2.0, -2.0];
            let mut y2 = y1;
            matvec_sub(&a, &x, &mut y1);
            matvec_sub_simd(&a, &x, &mut y2);
            for k in 0..4 {
                assert!((y1[k] - y2[k]).abs() < 1e-13, "lane {k}");
            }
        }
    }

    #[test]
    fn simd_matmul_matches_scalar() {
        let mut rng = Rng64::new(6);
        for _ in 0..100 {
            let a = random_block(&mut rng);
            let b = random_block(&mut rng);
            let mut c1 = random_block(&mut rng);
            let mut c2 = c1;
            matmul_sub(&a, &b, &mut c1);
            matmul_sub_simd(&a, &b, &mut c2);
            for k in 0..16 {
                assert!((c1[k] - c2[k]).abs() < 1e-12, "entry {k}");
            }
        }
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

    #[test]
    fn fro_norm_of_identity() {
        assert!((fro_norm(&identity()) - 2.0).abs() < 1e-15);
    }
}
