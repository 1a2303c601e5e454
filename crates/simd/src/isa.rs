//! The lane-vector abstraction the edge kernels are written against, its
//! two implementations, and the run-time choice between them.
//!
//! A [`Simd`] value is a zero-sized proof that an instruction set runs on
//! this CPU; it constructs that set's 4-lane vectors ([`Simd::V`]), which
//! carry the arithmetic operators. A kernel body is written once, generic
//! over `S: Simd`, and instantiated twice by [`with_lanes!`]: with
//! [`Portable`] (plain `[f64; 4]` code, the only path on non-x86 or
//! pre-AVX2 hosts and the reference the tests compare against) and with
//! [`Avx2`] (`std::arch` `__m256d`), behind a
//! `#[target_feature(enable = "avx2")]` entry.
//!
//! **Determinism rule.** Packed IEEE add/sub/mul/div/sqrt round exactly
//! like their scalar forms, so the two implementations agree bit for bit
//! as long as a body performs the same operations in the same order.
//! That is why the trait has **no fused multiply-add** and nothing that
//! reassociates (no horizontal sums): results, iteration counts and state
//! hashes do not depend on which implementation ran.

use crate::vec4::F64x4;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 4-lane `f64` instruction set: proof that it is available, and the
/// constructor of its vectors.
pub trait Simd: Copy {
    /// Four `f64` lanes; all arithmetic is lane-wise.
    type V: Copy
        + Add<Output = Self::V>
        + Sub<Output = Self::V>
        + Mul<Output = Self::V>
        + Div<Output = Self::V>
        + Neg<Output = Self::V>;

    /// All lanes equal to `x`.
    fn splat(self, x: f64) -> Self::V;
    /// The first four elements of `xs` (panics if there are fewer).
    fn load(self, xs: &[f64]) -> Self::V;
    /// The first four elements of `xs`, widened to `f64` (panics if there
    /// are fewer). Every `f32` is an `f64`, so the conversion is exact.
    fn load_f32(self, xs: &[f32]) -> Self::V;
    /// Writes the lanes to the first four elements of `out` (panics if
    /// there are fewer).
    fn store(self, v: Self::V, out: &mut [f64]);
    /// Lane-wise square root.
    fn sqrt(self, v: Self::V) -> Self::V;
    /// Lane-wise absolute value.
    fn abs(self, v: Self::V) -> Self::V;
    /// 4×4 transpose: lane `j` of output `i` is lane `i` of `rows[j]`.
    fn transpose(self, rows: [Self::V; 4]) -> [Self::V; 4];
    /// The lanes as an array.
    fn to_array(self, v: Self::V) -> [f64; 4];
}

/// The portable implementation: [`F64x4`] array code, always available.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

impl Simd for Portable {
    type V = F64x4;

    #[inline(always)]
    fn splat(self, x: f64) -> F64x4 {
        F64x4([x; 4])
    }
    #[inline(always)]
    fn load(self, xs: &[f64]) -> F64x4 {
        F64x4([xs[0], xs[1], xs[2], xs[3]])
    }
    #[inline(always)]
    fn load_f32(self, xs: &[f32]) -> F64x4 {
        F64x4([xs[0], xs[1], xs[2], xs[3]].map(f64::from))
    }
    #[inline(always)]
    fn store(self, v: F64x4, out: &mut [f64]) {
        out[..4].copy_from_slice(&v.0);
    }
    #[inline(always)]
    fn sqrt(self, v: F64x4) -> F64x4 {
        F64x4(v.0.map(f64::sqrt))
    }
    #[inline(always)]
    fn abs(self, v: F64x4) -> F64x4 {
        F64x4(v.0.map(f64::abs))
    }
    #[inline(always)]
    fn transpose(self, r: [F64x4; 4]) -> [F64x4; 4] {
        let col = |i: usize| F64x4([r[0].0[i], r[1].0[i], r[2].0[i], r[3].0[i]]);
        [col(0), col(1), col(2), col(3)]
    }
    #[inline(always)]
    fn to_array(self, v: F64x4) -> [f64; 4] {
        v.0
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::{Avx2, M256d};

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Simd;
    use std::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    /// The AVX2 implementation. A value exists only after
    /// `is_x86_feature_detected!("avx2")` returned true
    /// ([`Avx2::detect`]), which is what makes its safe methods sound.
    #[derive(Clone, Copy, Debug)]
    pub struct Avx2(());

    impl Avx2 {
        /// `Some` iff this CPU executes AVX2 (the check is cached by std).
        #[inline]
        pub(crate) fn detect() -> Option<Avx2> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    /// One `__m256d`. Only [`Avx2`] methods and operators on existing
    /// values produce one, so holding a value proves AVX2 was detected.
    #[derive(Clone, Copy, Debug)]
    pub struct M256d(__m256d);

    impl Simd for Avx2 {
        type V = M256d;

        #[inline(always)]
        fn splat(self, x: f64) -> M256d {
            // SAFETY: `self` proves AVX2 (hence AVX) was detected.
            M256d(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn load(self, xs: &[f64]) -> M256d {
            assert!(xs.len() >= 4);
            // SAFETY: `self` proves AVX; the four doubles read are inside
            // `xs` by the assert, and `loadu` has no alignment demand.
            M256d(unsafe { _mm256_loadu_pd(xs.as_ptr()) })
        }
        #[inline(always)]
        fn load_f32(self, xs: &[f32]) -> M256d {
            assert!(xs.len() >= 4);
            // SAFETY: `self` proves AVX; the four floats read are inside
            // `xs` by the assert, and `loadu` has no alignment demand.
            M256d(unsafe { _mm256_cvtps_pd(_mm_loadu_ps(xs.as_ptr())) })
        }
        #[inline(always)]
        fn store(self, v: M256d, out: &mut [f64]) {
            assert!(out.len() >= 4);
            // SAFETY: `self` proves AVX; the four doubles written are
            // inside `out` by the assert, unaligned store.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v.0) }
        }
        #[inline(always)]
        fn sqrt(self, v: M256d) -> M256d {
            // SAFETY: `self` proves AVX.
            M256d(unsafe { _mm256_sqrt_pd(v.0) })
        }
        #[inline(always)]
        fn abs(self, v: M256d) -> M256d {
            // SAFETY: `self` proves AVX. Clears the sign bit, as
            // `f64::abs` does.
            M256d(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), v.0) })
        }
        #[inline(always)]
        fn transpose(self, r: [M256d; 4]) -> [M256d; 4] {
            // SAFETY: `self` proves AVX; register shuffles only.
            unsafe {
                let t0 = _mm256_unpacklo_pd(r[0].0, r[1].0); // r0[0] r1[0] r0[2] r1[2]
                let t1 = _mm256_unpackhi_pd(r[0].0, r[1].0); // r0[1] r1[1] r0[3] r1[3]
                let t2 = _mm256_unpacklo_pd(r[2].0, r[3].0);
                let t3 = _mm256_unpackhi_pd(r[2].0, r[3].0);
                [
                    M256d(_mm256_permute2f128_pd::<0x20>(t0, t2)),
                    M256d(_mm256_permute2f128_pd::<0x20>(t1, t3)),
                    M256d(_mm256_permute2f128_pd::<0x31>(t0, t2)),
                    M256d(_mm256_permute2f128_pd::<0x31>(t1, t3)),
                ]
            }
        }
        #[inline(always)]
        fn to_array(self, v: M256d) -> [f64; 4] {
            let mut out = [0.0; 4];
            self.store(v, &mut out);
            out
        }
    }

    macro_rules! impl_binop {
        ($trait:ident, $method:ident, $intrinsic:ident) => {
            impl $trait for M256d {
                type Output = M256d;
                #[inline(always)]
                fn $method(self, rhs: M256d) -> M256d {
                    // SAFETY: an `M256d` exists only on a CPU where AVX2
                    // was detected (see the type's doc).
                    M256d(unsafe { $intrinsic(self.0, rhs.0) })
                }
            }
        };
    }
    impl_binop!(Add, add, _mm256_add_pd);
    impl_binop!(Sub, sub, _mm256_sub_pd);
    impl_binop!(Mul, mul, _mm256_mul_pd);
    impl_binop!(Div, div, _mm256_div_pd);

    impl Neg for M256d {
        type Output = M256d;
        #[inline(always)]
        fn neg(self) -> M256d {
            // SAFETY: as for the binary operators. Flips the sign bit,
            // as scalar negation does.
            M256d(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
    }
}

/// The implementation a kernel call runs on: one [`Simd`] proof, chosen
/// at run time.
#[derive(Clone, Copy, Debug)]
pub enum Isa {
    /// [`Portable`].
    Portable(Portable),
    /// [`Avx2`].
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

impl Isa {
    /// The best implementation this CPU executes — what every production
    /// kernel call uses.
    #[inline]
    pub fn detect() -> Isa {
        Isa::avx2().unwrap_or(Isa::portable())
    }

    /// The portable implementation.
    #[inline]
    pub fn portable() -> Isa {
        Isa::Portable(Portable)
    }

    /// The AVX2 implementation, if this CPU executes it.
    #[inline]
    pub fn avx2() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        {
            Avx2::detect().map(Isa::Avx2)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            None
        }
    }

    /// `"portable"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable(_) => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(_) => "avx2",
        }
    }
}

/// Name of the implementation the kernels run on in this process
/// (`"avx2"` | `"portable"`), for reports: a latency difference between
/// two hosts should name its cause.
pub fn active_isa() -> &'static str {
    Isa::detect().name()
}

/// Calls the generic kernel body `unsafe fn $body<S: Simd>(s: S, args…)`
/// with the [`Simd`] proof inside `$isa`. The AVX2 instantiation sits
/// behind a `#[target_feature(enable = "avx2")]` entry, so a body marked
/// `#[inline(always)]` (as must be everything it calls that touches
/// lanes) compiles to packed instructions there and to baseline code for
/// [`Portable`]. Arguments are `name: Type` pairs naming variables in
/// scope; the body returns `()`. A body with further type parameters
/// names those its argument types mention, with their bounds, after its
/// name: `unsafe body<B: Trait>(x: B)`.
///
/// Kernel bodies write through raw views, hence the mandatory `unsafe`:
/// the invocation needs a `// SAFETY:` comment discharging the body's
/// contract, exactly as a direct call would.
#[macro_export]
macro_rules! with_lanes {
    ($isa:expr, unsafe $body:ident $(<$($g:ident: $bound:path),+>)? ($($arg:ident: $ty:ty),* $(,)?)) => {
        match $isa {
            $crate::Isa::Portable(s) => unsafe { $body(s, $($arg),*) },
            #[cfg(target_arch = "x86_64")]
            $crate::Isa::Avx2(s) => {
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2_entry$(<$($g: $bound),+>)?(s: $crate::Avx2, $($arg: $ty),*) {
                    unsafe { $body(s, $($arg),*) }
                }
                // An `Avx2` value exists only after
                // `is_x86_feature_detected!("avx2")` returned true, which
                // is all the entry adds to the body's own contract.
                unsafe { avx2_entry(s, $($arg),*) }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops<S: Simd>(s: S) -> Vec<[f64; 4]> {
        let a = s.load(&[1.0, -2.0, 3.0, -4.0]);
        let b = s.splat(2.0);
        let t = s.transpose([
            s.load(&[0.0, 1.0, 2.0, 3.0]),
            s.load(&[10.0, 11.0, 12.0, 13.0]),
            s.load(&[20.0, 21.0, 22.0, 23.0]),
            s.load(&[30.0, 31.0, 32.0, 33.0]),
        ]);
        let mut stored = [0.0; 5];
        s.store(a, &mut stored);
        // 0.1f32 is not 0.1f64: widening keeps the f32's value.
        let widened = s.load_f32(&[0.1, -2.5, f32::MAX, f32::MIN_POSITIVE, 9.0]);
        vec![
            s.to_array(a + b),
            s.to_array(a - b),
            s.to_array(a * b),
            s.to_array(a / b),
            s.to_array(-a),
            s.to_array(s.abs(a)),
            s.to_array(s.sqrt(s.abs(a))),
            s.to_array(t[0]),
            s.to_array(t[3]),
            stored[..4].try_into().unwrap(),
            s.to_array(widened),
        ]
    }

    #[test]
    fn portable_ops_are_lanewise() {
        let r = ops(Portable);
        assert_eq!(r[0], [3.0, 0.0, 5.0, -2.0]);
        assert_eq!(r[1], [-1.0, -4.0, 1.0, -6.0]);
        assert_eq!(r[2], [2.0, -4.0, 6.0, -8.0]);
        assert_eq!(r[3], [0.5, -1.0, 1.5, -2.0]);
        assert_eq!(r[4], [-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(r[5], [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r[6], [1.0, 2.0f64.sqrt(), 3.0f64.sqrt(), 2.0]);
        assert_eq!(r[7], [0.0, 10.0, 20.0, 30.0]);
        assert_eq!(r[8], [3.0, 13.0, 23.0, 33.0]);
        assert_eq!(r[9], [1.0, -2.0, 3.0, -4.0]);
        let exact = [0.1f32, -2.5, f32::MAX, f32::MIN_POSITIVE].map(f64::from);
        assert_eq!(r[10], exact);
        assert_ne!(r[10][0], 0.1f64);
    }

    #[test]
    fn with_lanes_runs_the_detected_implementation() {
        /// # Safety
        /// None; `with_lanes!` takes kernel bodies, which are unsafe.
        #[inline(always)]
        unsafe fn body<S: Simd>(s: S, out: &mut Vec<[f64; 4]>) {
            *out = ops(s);
        }
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (got_ref, want_ref) = (&mut got, &mut want);
        // SAFETY: `body` has no contract.
        with_lanes!(Isa::detect(), unsafe body(got_ref: &mut Vec<[f64; 4]>));
        // SAFETY: as above.
        with_lanes!(Isa::portable(), unsafe body(want_ref: &mut Vec<[f64; 4]>));
        assert_eq!(got, want, "{} vs portable", active_isa());
        assert!(["avx2", "portable"].contains(&active_isa()));
        assert_eq!(Isa::portable().name(), "portable");
    }

    #[test]
    #[should_panic]
    fn short_load_panics() {
        Portable.load(&[1.0, 2.0, 3.0]);
    }
}
