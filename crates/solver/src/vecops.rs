//! PETSc-named vector primitives.
//!
//! The paper finds that after optimizing the main kernels, the PETSc
//! native vector primitives (`VecMAXPY`, `VecWAXPY`, `VecMDOT`, `VecNorm`)
//! and `VecScatter` become a significant fraction of runtime and are not
//! thread-parallel in stock PETSc; it replaces them with threaded,
//! vectorized implementations. The serial forms live here; the threaded
//! ones are [`crate::team`], which runs the same kernels on each thread's
//! chunk inside a pool region.
//!
//! # One kernel per primitive
//!
//! `dot`, `mdot` and `maxpy` each have exactly one accumulation loop, a
//! *chunk kernel* over a contiguous index range, generic over
//! [`fun3d_simd::Simd`] and run on the lanes [`Isa::detect`] picks. The
//! serial functions call it on `0..n`; [`crate::team`] calls the same
//! kernel on each thread's [`chunk_range`](fun3d_threads::chunk_range)
//! and adds the per-thread partials in thread order, starting from
//! `+0.0`.
//!
//! # Reduction order inside a chunk
//!
//! With `i` counted from the start of the chunk of length `m` and
//! `m4 = 4·⌊m/4⌋`:
//!
//! * **`dot`** keeps four 4-lane accumulators, all starting at `+0.0`.
//!   Element `i < m4` is added to lane `i mod 4` of accumulator
//!   `(i mod 16) div 4`, in increasing `i`. The accumulators combine as
//!   `(A0 + A1) + (A2 + A3)` lane by lane, the lanes as
//!   `(l0 + l1) + (l2 + l3)`, and the products of elements `m4..m` are
//!   added last, in increasing `i`. `norm2` is `sqrt(dot(x, x))`.
//! * **`mdot`** keeps one 4-lane accumulator per vector `yⱼ` and reads
//!   `x` once per block of four vectors: element `i < m4` is added to
//!   lane `i mod 4` in increasing `i`, the lanes combine as
//!   `(l0 + l1) + (l2 + l3)`, the tail is added last. Component `j`
//!   depends on `x`, `yⱼ` and the chunk bounds only — not on the other
//!   vectors of the call. It is *not* the bits of `dot(x, yⱼ)`.
//! * **`maxpy`** has no reduction: element `i` is
//!   `acc = y[i]; acc += α₀·x₀[i]; …; acc += αₖ·xₖ[i]`, every product
//!   rounded before its addition, 16 elements at a time — the bits of
//!   the textbook scalar loop.
//!
//! There is no fused multiply-add and nothing reassociates, so a result's
//! bits depend on the vectors and the chunk bounds only. Hence:
//!
//! * `Avx2` ≡ `Portable`, bit for bit (a NaN result may differ in its
//!   payload, never in being NaN);
//! * serial ≡ [`crate::team`] at one thread (a chunk partial is never
//!   `-0.0`, so adding it to `+0.0` changes nothing);
//! * [`crate::team`] gives the same bits whether an operation runs in a
//!   region of its own or as one phase of a longer region.

use fun3d_simd::{with_lanes, Isa, Simd};

/// `y += a*x` (PETSc `VecAXPY`).
pub(crate) fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len());
    for i in 0..y.len() {
        y[i] += a * x[i];
    }
}

/// `y += Σ_k alpha[k] * xs[k]` (PETSc `VecMAXPY`): `y` is read and written
/// once, whatever the number of vectors.
pub fn maxpy(y: &mut [f64], alpha: &[f64], xs: &[Vec<f64>]) {
    assert_lens(y.len(), xs);
    maxpy_chunk(Isa::detect(), y, 0, alpha, xs);
}

/// `out[j] = <x, ys[j]>` (PETSc `VecMDot`): `x` is read once per block of
/// four vectors. `out` may be one longer than `ys`; the extra last
/// component is then `<x, x>` (the norm single-reduction GMRES fuses into
/// the same reduction).
pub fn mdot(x: &[f64], ys: &[Vec<f64>], out: &mut [f64]) {
    assert_lens(x.len(), ys);
    mdot_chunk(Isa::detect(), x, ys, 0, out);
}

/// `w = b - w` in place (residual formation step).
pub(crate) fn bsub(w: &mut [f64], b: &[f64]) {
    assert_eq!(w.len(), b.len());
    for i in 0..w.len() {
        w[i] = b[i] - w[i];
    }
}

/// `dst = src / s` elementwise (basis normalization; kept as a division
/// so all execution paths round identically).
pub(crate) fn div_into(dst: &mut [f64], src: &[f64], s: f64) {
    assert_eq!(dst.len(), src.len());
    for i in 0..dst.len() {
        dst[i] = src[i] / s;
    }
}

/// `<x, y>` (PETSc `VecDot`).
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    dot_chunk(Isa::detect(), x, y)
}

/// 2-norm (PETSc `VecNorm` with `NORM_2`).
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Every vector of a multi-vector op must be as long as the first operand.
pub(crate) fn assert_lens(n: usize, vs: &[Vec<f64>]) {
    for v in vs {
        assert_eq!(v.len(), n, "vector length differs from the first operand's");
    }
}

/// Elements per `dot`/`maxpy` strip: four 4-lane vectors.
const STRIP: usize = 16;
/// Vectors per `mdot` block: one 4-lane accumulator each.
const MDOT_BLOCK: usize = 4;

/// `(l0 + l1) + (l2 + l3)`: the one lane combine of every reduction.
#[inline(always)]
fn lane_sum<S: Simd>(s: S, v: S::V) -> f64 {
    let l = s.to_array(v);
    (l[0] + l[1]) + (l[2] + l[3])
}

/// The `dot` chunk kernel: `<x, y>` over one chunk, in the order the
/// module docs fix.
pub(crate) fn dot_chunk(isa: Isa, x: &[f64], y: &[f64]) -> f64 {
    /// # Safety
    /// None; `with_lanes!` takes kernel bodies, which are unsafe.
    #[inline(always)]
    unsafe fn body<S: Simd>(s: S, x: &[f64], y: &[f64], out: &mut f64) {
        let m4 = x.len() / 4 * 4;
        let mut acc = [s.splat(0.0); STRIP / 4];
        let (mut xs, mut ys) = (x[..m4].chunks_exact(STRIP), y[..m4].chunks_exact(STRIP));
        for (xc, yc) in xs.by_ref().zip(ys.by_ref()) {
            for (a, acc) in acc.iter_mut().enumerate() {
                *acc = *acc + s.load(&xc[a * 4..]) * s.load(&yc[a * 4..]);
            }
        }
        // The last, short strip fills accumulators 0, 1, 2 in turn.
        let (xr, yr) = (xs.remainder(), ys.remainder());
        for (acc, (xg, yg)) in acc
            .iter_mut()
            .zip(xr.chunks_exact(4).zip(yr.chunks_exact(4)))
        {
            *acc = *acc + s.load(xg) * s.load(yg);
        }
        let mut sum = lane_sum(s, (acc[0] + acc[1]) + (acc[2] + acc[3]));
        for (a, b) in x[m4..].iter().zip(&y[m4..]) {
            sum += a * b;
        }
        *out = sum;
    }
    assert_eq!(x.len(), y.len());
    let mut sum = 0.0;
    let out = &mut sum;
    // SAFETY: `body` has no contract of its own (it is all safe code).
    with_lanes!(isa, unsafe body(x: &[f64], y: &[f64], out: &mut f64));
    sum
}

/// The `mdot` chunk kernel: `out[j] = <x, ys[j][lo..lo + x.len()]>`, with
/// `x` already cut to the chunk, in the order the module docs fix. When
/// `out` is one longer than `ys`, the last component is `<x, x>`.
pub(crate) fn mdot_chunk(isa: Isa, x: &[f64], ys: &[Vec<f64>], lo: usize, out: &mut [f64]) {
    /// # Safety
    /// None; `with_lanes!` takes kernel bodies, which are unsafe.
    #[inline(always)]
    unsafe fn body<S: Simd>(s: S, x: &[f64], ys: &[Vec<f64>], lo: usize, out: &mut [f64]) {
        let m4 = x.len() / 4 * 4;
        let vector = |j: usize| {
            if j < ys.len() {
                &ys[j][lo..lo + x.len()]
            } else {
                x
            }
        };
        for (b, out) in out.chunks_mut(MDOT_BLOCK).enumerate() {
            // A short last block repeats its last vector; the surplus
            // accumulators are dropped, so no component sees the padding.
            let y: [&[f64]; MDOT_BLOCK] =
                std::array::from_fn(|a| vector(b * MDOT_BLOCK + a.min(out.len() - 1)));
            let mut acc = [s.splat(0.0); MDOT_BLOCK];
            for i in (0..m4).step_by(4) {
                let xv = s.load(&x[i..]);
                for (acc, y) in acc.iter_mut().zip(&y) {
                    *acc = *acc + xv * s.load(&y[i..]);
                }
            }
            for (out, (acc, y)) in out.iter_mut().zip(acc.into_iter().zip(&y)) {
                let mut sum = lane_sum(s, acc);
                for (a, b) in x[m4..].iter().zip(&y[m4..]) {
                    sum += a * b;
                }
                *out = sum;
            }
        }
    }
    assert!(
        out.len() == ys.len() || out.len() == ys.len() + 1,
        "mdot: {} results for {} vectors",
        out.len(),
        ys.len()
    );
    // SAFETY: `body` has no contract of its own (it is all safe code).
    with_lanes!(
        isa,
        unsafe body(x: &[f64], ys: &[Vec<f64>], lo: usize, out: &mut [f64])
    );
}

/// The `maxpy` chunk kernel: `y[i] += Σ_k alpha[k]·xs[k][lo + i]`, with
/// `y` already cut to the chunk, in the per-element order the module docs
/// fix.
pub(crate) fn maxpy_chunk(isa: Isa, y: &mut [f64], lo: usize, alpha: &[f64], xs: &[Vec<f64>]) {
    /// # Safety
    /// None; `with_lanes!` takes kernel bodies, which are unsafe.
    #[inline(always)]
    unsafe fn body<S: Simd>(s: S, y: &mut [f64], lo: usize, alpha: &[f64], xs: &[Vec<f64>]) {
        let m4 = y.len() / 4 * 4;
        let mut i = 0;
        while i < m4 {
            // A full strip, or what is left of the last one.
            let width = (m4 - i).min(STRIP);
            let mut acc = [s.splat(0.0); STRIP / 4];
            for (a, acc) in acc.iter_mut().enumerate().take(width / 4) {
                *acc = s.load(&y[i + a * 4..]);
            }
            for (&alpha, x) in alpha.iter().zip(xs) {
                let (av, x) = (s.splat(alpha), &x[lo + i..lo + i + width]);
                for (acc, xg) in acc.iter_mut().zip(x.chunks_exact(4)) {
                    *acc = *acc + av * s.load(xg);
                }
            }
            for (a, acc) in acc.into_iter().enumerate().take(width / 4) {
                s.store(acc, &mut y[i + a * 4..]);
            }
            i += width;
        }
        for (i, yi) in y.iter_mut().enumerate().skip(m4) {
            let mut acc = *yi;
            for (a, x) in alpha.iter().zip(xs) {
                acc += a * x[lo + i];
            }
            *yi = acc;
        }
    }
    assert_eq!(alpha.len(), xs.len());
    // SAFETY: `body` has no contract of its own (it is all safe code).
    with_lanes!(
        isa,
        unsafe body(y: &mut [f64], lo: usize, alpha: &[f64], xs: &[Vec<f64>])
    );
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fun3d_util::{prop_assert, prop_cases, Rng64};

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        (x, y)
    }

    /// Vector counts covering an empty call, a short block, a full block,
    /// a block plus one, and GMRES(30)'s last iteration.
    pub(crate) const VECTOR_COUNTS: [usize; 6] = [0, 1, 3, 4, 5, 31];

    /// Lane values that separate a packed op from its scalar form if
    /// anything does (as `tests/kernel_equivalence.rs` uses).
    const SPECIAL_LANES: [f64; 13] = [
        0.0,
        -0.0,
        5e-324,
        -2.2e-308,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e300,
        -1e300,
        1e-300,
        1.0,
        -3.0,
    ];

    /// `count` vectors of length `n` in `[-1, 1)`, every `special`-th
    /// element (0 = none) replaced by a special lane value.
    pub(crate) fn random_vectors(
        seed: u64,
        count: usize,
        n: usize,
        special: usize,
    ) -> Vec<Vec<f64>> {
        let mut rng = Rng64::new(seed);
        (0..count)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let v = rng.range_f64(-1.0, 1.0);
                        if special > 0 && rng.below(special) == 0 {
                            SPECIAL_LANES[rng.below(SPECIAL_LANES.len())]
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Same bits — or both NaN, whose payload is the one thing two lane
    /// implementations may disagree on.
    pub(crate) fn same(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    /// The parent's `maxpy`: the textbook scalar loop the kernel must
    /// reproduce bit for bit.
    fn scalar_maxpy(y: &mut [f64], alpha: &[f64], xs: &[Vec<f64>]) {
        for i in 0..y.len() {
            let mut acc = y[i];
            for (a, x) in alpha.iter().zip(xs) {
                acc += a * x[i];
            }
            y[i] = acc;
        }
    }

    #[test]
    fn axpy_adds_a_multiple() {
        let (x, _) = vecs(9);
        let mut y = vec![1.0; 9];
        axpy(&mut y, 3.0, &x);
        for i in 0..9 {
            assert!((y[i] - (1.0 + 3.0 * x[i])).abs() < 1e-15);
        }
    }

    #[test]
    fn maxpy_matches_sequential_axpys() {
        let (x, y) = vecs(23);
        let z: Vec<f64> = (0..23).map(|i| i as f64).collect();
        let mut a = z.clone();
        maxpy(&mut a, &[0.5, -1.5], &[x.clone(), y.clone()]);
        let mut b = z;
        axpy(&mut b, 0.5, &x);
        axpy(&mut b, -1.5, &y);
        for i in 0..23 {
            assert!((a[i] - b[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn mdot_and_norm() {
        let (x, y) = vecs(11);
        let mut out = [0.0; 3];
        mdot(&x, &[x.clone(), y.clone()], &mut out);
        assert!((out[0] - dot(&x, &x)).abs() < 1e-14);
        assert!((out[1] - dot(&x, &y)).abs() < 1e-14);
        assert!((norm2(&x) - out[0].sqrt()).abs() < 1e-14);
        // the optional extra component is <x, x>, with the bits of a
        // listed copy of x
        assert_eq!(out[2].to_bits(), out[0].to_bits());
    }

    prop_cases! {
        fn lane_implementations_agree_bitwise(g, cases = 12) {
            let Some(avx2) = Isa::avx2() else {
                eprintln!("skipped: AVX2 not detected on this host, Portable is the only lane implementation");
                return Ok(());
            };
            let seed = g.u64();
            let lo = g.usize_range(0, 9);
            // every length residue modulo the 16-element strip, thrice
            for n in 0..48 {
                for special in [0, 5] {
                    let vs = random_vectors(seed ^ n as u64, 33, lo + n + 3, special);
                    let (x, y0) = (&vs[31][lo..lo + n], &vs[32]);
                    let alpha = &random_vectors(seed, 1, 31, special)[0];
                    let d = [Isa::portable(), avx2].map(|isa| dot_chunk(isa, x, &vs[0][lo..lo + n]));
                    prop_assert!(same(&d[..1], &d[1..]), "dot n={n} special={special}: {d:?}");
                    for k in VECTOR_COUNTS {
                        for fused in [0, 1] {
                            let out = [Isa::portable(), avx2].map(|isa| {
                                let mut out = vec![0.0; k + fused];
                                mdot_chunk(isa, x, &vs[..k], lo, &mut out);
                                out
                            });
                            prop_assert!(same(&out[0], &out[1]), "mdot n={n} k={k} fused={fused} special={special}");
                        }
                        let y = [Isa::portable(), avx2].map(|isa| {
                            let mut y = y0[..n].to_vec();
                            maxpy_chunk(isa, &mut y, lo, &alpha[..k], &vs[..k]);
                            y
                        });
                        prop_assert!(same(&y[0], &y[1]), "maxpy n={n} k={k} special={special}");
                    }
                }
            }
        }

        fn maxpy_is_the_scalar_loop_bitwise(g, cases = 12) {
            let seed = g.u64();
            for n in (0..40).chain([1003]) {
                for k in VECTOR_COUNTS {
                    for special in [0, 5] {
                        let vs = random_vectors(seed ^ (n * 64 + k) as u64, k + 1, n, special);
                        let (xs, y0) = (&vs[..k], &vs[k]);
                        let alpha = &random_vectors(seed, 1, k, special)[0];
                        let mut want = y0.clone();
                        scalar_maxpy(&mut want, alpha, xs);
                        let mut got = y0.clone();
                        maxpy(&mut got, alpha, xs);
                        prop_assert!(same(&want, &got), "serial n={n} k={k} special={special}");
                    }
                }
            }
        }

        fn dot_is_within_the_forward_error_bound(g, cases = 24) {
            let seed = g.u64();
            let n = g.usize_range(0, 5000);
            let vs = random_vectors(seed, 2, n, 0);
            // Neumaier-compensated sum of the products as the reference.
            let (mut sum, mut comp, mut abs_sum) = (0.0f64, 0.0f64, 0.0f64);
            for (a, b) in vs[0].iter().zip(&vs[1]) {
                let p = a * b;
                let t = sum + p;
                comp += if sum.abs() >= p.abs() { (sum - t) + p } else { (p - t) + sum };
                sum = t;
                abs_sum += p.abs();
            }
            let reference = sum + comp;
            let bound = n as f64 * f64::EPSILON * abs_sum;
            let mut fused = [0.0; 2];
            mdot(&vs[0], &vs[1..], &mut fused);
            for got in [dot(&vs[0], &vs[1]), fused[0]] {
                prop_assert!((got - reference).abs() <= bound, "n={n}: {got} vs {reference} (bound {bound:e})");
            }
        }
    }
}
