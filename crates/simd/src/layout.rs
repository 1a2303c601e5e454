//! AoS gather and AoS / SoA conversion helpers for vertex data.
//!
//! The paper's data-structure study (Section V.A, "Data structures"): edge
//! data is streamed and therefore kept as Structure-of-Arrays, while *node*
//! data — whose 4 state variables per vertex are consumed together — is
//! kept as (multiple) Array-of-Structures so one vector load grabs a whole
//! vertex and the lane transpose happens in registers.

use crate::isa::Simd;

/// Loads all `N` fields (`N` a multiple of 4) of four AoS vertices
/// (`data[v * N + f]`) and transposes them so that output `[f]` holds
/// field `f` of the four vertices, one vertex per lane. This is the
/// "vector load + register permutation" access the paper prefers: `N`
/// vector loads and `N / 4` in-register 4×4 transposes instead of `4 N`
/// scalar gathers.
#[inline(always)]
pub fn aos_load_transpose<S: Simd, const N: usize>(
    s: S,
    data: &[f64],
    idx: [usize; 4],
) -> [S::V; N] {
    const { assert!(N.is_multiple_of(4)) };
    let rows = [
        &data[idx[0] * N..][..N],
        &data[idx[1] * N..][..N],
        &data[idx[2] * N..][..N],
        &data[idx[3] * N..][..N],
    ];
    let mut out = [s.splat(0.0); N];
    for j in (0..N).step_by(4) {
        let t = s.transpose([
            s.load(&rows[0][j..]),
            s.load(&rows[1][j..]),
            s.load(&rows[2][j..]),
            s.load(&rows[3][j..]),
        ]);
        out[j..j + 4].copy_from_slice(&t);
    }
    out
}

/// Converts an SoA set of `nf` field slices (each `n` long) into a single
/// AoS buffer of stride `nf`.
pub fn soa_to_aos(fields: &[&[f64]]) -> Vec<f64> {
    let nf = fields.len();
    if nf == 0 {
        return Vec::new();
    }
    let n = fields[0].len();
    assert!(fields.iter().all(|f| f.len() == n), "ragged SoA fields");
    let mut out = vec![0.0; n * nf];
    for (fi, field) in fields.iter().enumerate() {
        for (vi, &x) in field.iter().enumerate() {
            out[vi * nf + fi] = x;
        }
    }
    out
}

/// Converts an AoS buffer with the given stride into per-field SoA vectors.
pub fn aos_to_soa(data: &[f64], stride: usize) -> Vec<Vec<f64>> {
    assert!(stride > 0 && data.len() % stride == 0);
    let n = data.len() / stride;
    let mut out = vec![vec![0.0; n]; stride];
    for vi in 0..n {
        for fi in 0..stride {
            out[fi][vi] = data[vi * stride + fi];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F64x4, Portable};

    #[test]
    fn load_transpose_puts_one_vertex_per_lane() {
        // 5 vertices, 8 fields: data[v*8+f] = 100*v + f
        let d: Vec<f64> = (0..40).map(|i| (100 * (i / 8) + i % 8) as f64).collect();
        let idx = [3, 1, 4, 0];
        let t: [F64x4; 8] = aos_load_transpose(Portable, &d, idx);
        for f in 0..8 {
            assert_eq!(t[f].0, idx.map(|v| d[v * 8 + f]), "field {f}");
        }
    }

    #[test]
    fn soa_aos_roundtrip() {
        let a: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let soa = aos_to_soa(&a, 4);
        let refs: Vec<&[f64]> = soa.iter().map(|v| v.as_slice()).collect();
        let back = soa_to_aos(&refs);
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_soa_panics() {
        let a = [1.0, 2.0];
        let b = [1.0];
        soa_to_aos(&[&a, &b]);
    }
}
