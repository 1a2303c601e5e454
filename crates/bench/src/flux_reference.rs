//! The streamed flux lane body as it was while a vertex's gradient row was
//! stored comp-major (`∂p/∂x, ∂p/∂y, ∂p/∂z, ∂u/∂x, …`) and every gather
//! was bounds-checked — the reference variant for Fig. 6a's table, so
//! that what the production body (`fun3d_core::flux`: dim-major rows,
//! reconstruction in component lanes, indices validated at construction)
//! gains can be read off one run.
//!
//! Per 4-edge batch it loads `2 × (4 + 12)` vectors and turns them into
//! edge lanes with **eight** 4×4 transposes before the first multiply (the
//! production body reconstructs first and transposes the two
//! reconstructed states: two), keeps 38 vectors live across the
//! reconstruction (the AVX2 register file holds 16), and checks every
//! index it forms. The arithmetic per element is the production body's —
//! it calls the same [`flux::roe_lanes`] — so the two agree **bit for
//! bit**, and the table times the same flux on two row layouts.
//! Comp-major gradient rows exist nowhere outside this module
//! (`scripts/verify.sh` holds the dim-major index to one file of
//! `crates/*/src`).

use fun3d_core::{euler, flux, EdgeGeom, NodeAos};
use fun3d_simd::{aos_load_transpose, with_lanes, Isa, Simd};

/// Node data with comp-major gradient rows: `grad[v * 12 + c * 3 + d]`.
pub struct CompMajorNode {
    q: Vec<f64>,
    grad: Vec<f64>,
}

impl CompMajorNode {
    /// The state and gradients of `node`, gradient rows re-laid.
    pub fn from_node(node: &NodeAos) -> CompMajorNode {
        let mut grad = vec![0.0; node.n * 12];
        for (v, row) in grad.chunks_exact_mut(12).enumerate() {
            for c in 0..4 {
                for d in 0..3 {
                    row[c * 3 + d] = node.dq(v, c, d);
                }
            }
        }
        CompMajorNode { q: node.q.clone(), grad }
    }
}

/// Adds every edge's Roe flux to `res`, all edges of `geom` in order on
/// the lanes `isa` names: 4-edge batches, the leftover edges one at a
/// time with the scalar arithmetic.
pub fn stream(isa: Isa, geom: &EdgeGeom, node: &CompMajorNode, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.q.len());
    // SAFETY: `stream_body` has no contract; it is `unsafe` because
    // `with_lanes!` takes kernel bodies.
    with_lanes!(
        isa,
        unsafe stream_body(geom: &EdgeGeom, node: &CompMajorNode, beta: f64, res: &mut [f64])
    );
}

/// # Safety
/// None; `with_lanes!` takes kernel bodies, which are unsafe.
#[inline(always)]
unsafe fn stream_body<S: Simd>(
    s: S,
    geom: &EdgeGeom,
    node: &CompMajorNode,
    beta: f64,
    res: &mut [f64],
) {
    let (edges, n, r) = (geom.edges(), geom.normals(), geom.deltas());
    let (q, grad) = (&node.q[..], &node.grad[..]);
    let half = s.splat(0.5);
    let nbatch = edges.len() / 4 * 4;
    for k in (0..nbatch).step_by(4) {
        let e = &edges[k..k + 4];
        let ia = [e[0][0] as usize, e[1][0] as usize, e[2][0] as usize, e[3][0] as usize];
        let ib = [e[0][1] as usize, e[1][1] as usize, e[2][1] as usize, e[3][1] as usize];
        let qa = aos_load_transpose::<S, 4>(s, q, ia);
        let qb = aos_load_transpose::<S, 4>(s, q, ib);
        let ga = aos_load_transpose::<S, 12>(s, grad, ia);
        let gb = aos_load_transpose::<S, 12>(s, grad, ib);
        let nk = [s.load(&n[0][k..k + 4]), s.load(&n[1][k..k + 4]), s.load(&n[2][k..k + 4])];
        let rk = [s.load(&r[0][k..k + 4]), s.load(&r[1][k..k + 4]), s.load(&r[2][k..k + 4])];
        let (mut ql, mut qr) = (qa, qb);
        for c in 0..4 {
            let da = ga[c * 3] * rk[0] + ga[c * 3 + 1] * rk[1] + ga[c * 3 + 2] * rk[2];
            let db = gb[c * 3] * rk[0] + gb[c * 3 + 1] * rk[1] + gb[c * 3 + 2] * rk[2];
            ql[c] = qa[c] + da * half;
            qr[c] = qb[c] - db * half;
        }
        let rows = s.transpose(flux::roe_lanes(s, &ql, &qr, &nk, beta));
        for lane in 0..4 {
            let ra = &mut res[ia[lane] * 4..ia[lane] * 4 + 4];
            s.store(s.load(ra) + rows[lane], ra);
            let rb = &mut res[ib[lane] * 4..ib[lane] * 4 + 4];
            s.store(s.load(rb) - rows[lane], rb);
        }
    }
    for k in nbatch..edges.len() {
        let (a, b) = (edges[k][0] as usize, edges[k][1] as usize);
        let (mut ql, mut qr) = ([0.0; 4], [0.0; 4]);
        for c in 0..4 {
            let slope = |g: &[f64]| g[c * 3] * r[0][k] + g[c * 3 + 1] * r[1][k] + g[c * 3 + 2] * r[2][k];
            ql[c] = q[a * 4 + c] + 0.5 * slope(&grad[a * 12..a * 12 + 12]);
            qr[c] = q[b * 4 + c] - 0.5 * slope(&grad[b * 12..b * 12 + 12]);
        }
        let f = euler::roe_flux(&ql, &qr, &[n[0][k], n[1][k], n[2][k]], beta);
        for c in 0..4 {
            res[a * 4 + c] += f[c];
            res[b * 4 + c] -= f[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelFixture;
    use fun3d_core::{Exec, Traversal};
    use fun3d_mesh::generator::MeshPreset;

    #[test]
    fn reference_body_is_the_production_body_bit_for_bit() {
        // Same products, same association, other row layout: the timing
        // rows of Fig. 6a compare two ways of computing one result.
        let fix = KernelFixture::new(MeshPreset::Tiny);
        assert_ne!(fix.geom.nedges() % 4, 0, "premise: the scalar tail runs too");
        let node = CompMajorNode::from_node(&fix.node);
        for isa in std::iter::once(Isa::portable()).chain(Isa::avx2()) {
            let mut want = vec![0.0; fix.node.n * 4];
            flux::run(Some(isa), Exec::Caller, Traversal::stream(&fix.geom), &fix.node, 1.0, &mut want);
            let mut got = vec![0.0; fix.node.n * 4];
            stream(isa, &fix.geom, &node, 1.0, &mut got);
            assert_eq!(want, got, "{} lanes", isa.name());
        }
    }
}
