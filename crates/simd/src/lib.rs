//! 4-wide double-precision SIMD primitives, chosen at run time.
//!
//! The paper's single-node machine (Xeon E5-2690v2) has 4-wide DP AVX
//! units, and its flux-kernel vectorization processes **four edges per
//! thread concurrently**, one edge per SIMD lane. The paper found that
//! its compiler's auto-vectorizer matched hand intrinsics; rustc/LLVM on
//! baseline x86-64 does not — it scalarizes most of a `[f64; 4]` kernel
//! — so the packed code here is explicit: kernels are written once
//! against the [`Simd`] trait and instantiated for [`Portable`]
//! ([`F64x4`] array code, the fallback and the tests' reference) and for
//! [`Avx2`] (`std::arch` intrinsics), picked per call by
//! [`Isa::detect`]. No build flag, feature or environment variable is
//! involved, and the two agree bit for bit (see [`isa`]'s determinism
//! rule: no FMA, no reassociation). The same kernels written against
//! `f64` are the scalar baselines.

pub mod isa;
pub mod layout;
pub mod prefetch;
pub mod vec4;

#[cfg(target_arch = "x86_64")]
pub use isa::{Avx2, M256d};
pub use isa::{active_isa, Isa, Portable, Simd};
pub use layout::aos_load_transpose;
pub use prefetch::{prefetch_l1, prefetch_l2};
pub use vec4::F64x4;

/// Number of lanes in the SIMD value type, matching 256-bit AVX doubles.
pub const LANES: usize = 4;
