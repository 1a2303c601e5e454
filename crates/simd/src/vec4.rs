//! The portable 4-lane f64 vector type.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// Four `f64` lanes as a 32-byte-aligned array: the vector type of the
/// [`Portable`](crate::Portable) implementation.
///
/// All arithmetic is lane-wise scalar IEEE arithmetic. LLVM packs some of
/// it and scalarizes most of it on baseline x86-64, so this is the
/// reference and the fallback, not the fast path: kernels reach packed
/// instructions through [`Avx2`](crate::Avx2), never through compiler
/// flags. Lanes are constructed through [`Simd`](crate::Simd) methods.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
#[repr(C, align(32))]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// Lane-wise maximum.
    #[inline]
    pub fn max(self, o: F64x4) -> F64x4 {
        let mut out = [0.0; 4];
        for i in 0..4 {
            out[i] = self.0[i].max(o.0[i]);
        }
        F64x4(out)
    }

    /// Lane-wise minimum.
    #[inline]
    pub fn min(self, o: F64x4) -> F64x4 {
        let mut out = [0.0; 4];
        for i in 0..4 {
            out[i] = self.0[i].min(o.0[i]);
        }
        F64x4(out)
    }

    /// Horizontal sum of the four lanes.
    #[inline]
    pub fn hsum(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = F64x4;
            #[inline]
            fn $method(self, rhs: F64x4) -> F64x4 {
                let mut out = [0.0; 4];
                for i in 0..4 {
                    out[i] = self.0[i] $op rhs.0[i];
                }
                F64x4(out)
            }
        }
        impl $trait<f64> for F64x4 {
            type Output = F64x4;
            #[inline]
            fn $method(self, rhs: f64) -> F64x4 {
                let mut out = [0.0; 4];
                for i in 0..4 {
                    out[i] = self.0[i] $op rhs;
                }
                F64x4(out)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl AddAssign for F64x4 {
    #[inline]
    fn add_assign(&mut self, rhs: F64x4) {
        *self = *self + rhs;
    }
}

impl SubAssign for F64x4 {
    #[inline]
    fn sub_assign(&mut self, rhs: F64x4) {
        *self = *self - rhs;
    }
}

impl MulAssign for F64x4 {
    #[inline]
    fn mul_assign(&mut self, rhs: F64x4) {
        *self = *self * rhs;
    }
}

impl Neg for F64x4 {
    type Output = F64x4;
    #[inline]
    fn neg(self) -> F64x4 {
        F64x4([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

impl Index<usize> for F64x4 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for F64x4 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_lanewise() {
        let a = F64x4([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4([10.0, 20.0, 30.0, 40.0]);
        assert_eq!((a + b).0, [11.0, 22.0, 33.0, 44.0]);
        assert_eq!((b - a).0, [9.0, 18.0, 27.0, 36.0]);
        assert_eq!((a * b).0, [10.0, 40.0, 90.0, 160.0]);
        assert_eq!((b / a).0, [10.0, 10.0, 10.0, 10.0]);
        assert_eq!((a * 2.0).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn minmax_hsum() {
        let b = F64x4([-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(b.max(F64x4::default()).0, [0.0, 2.0, 0.0, 4.0]);
        assert_eq!(b.min(F64x4::default()).0, [-1.0, 0.0, -3.0, 0.0]);
        assert_eq!(F64x4([1.0, 2.0, 3.0, 4.0]).hsum(), 10.0);
    }

    #[test]
    fn alignment_is_32() {
        assert_eq!(std::mem::align_of::<F64x4>(), 32);
        assert_eq!(std::mem::size_of::<F64x4>(), 32);
    }

    #[test]
    fn assign_ops() {
        let mut a = F64x4([1.0; 4]);
        a += F64x4([2.0; 4]);
        a -= F64x4([0.5; 4]);
        a *= F64x4([2.0; 4]);
        assert_eq!(a.0, [5.0; 4]);
    }
}
