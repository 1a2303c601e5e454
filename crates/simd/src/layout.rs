//! The AoS gather-and-transpose for vertex data.
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
}
