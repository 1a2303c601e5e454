//! Green-Gauss nodal gradients — the paper's "Grad" kernel (13% of the
//! baseline profile) — and the least-squares alternative, both as
//! owner-computes vertex loops over the mesh's [`HalfEdges`].
//!
//! `∇q_v = (1/V_v) [ Σ_edges ±s_e · ½(q_a + q_b) + Σ_bnd n_b · q_v ]`
//!
//! The closure identity `Σ ±s_e + n_b = 0` makes the gradient of a
//! constant field exactly zero.
//!
//! Written as an edge loop, that sum is a chain of read-modify-writes of
//! `grad[a]` (edges are sorted by `a`, so consecutive edges forward
//! through the same three stores), a zeroing pass before it and a
//! closure-and-volume pass after it, and needs a write-conflict strategy
//! per thread count. Written per vertex it trades the shared face value for
//! conflict-free accumulation in registers (Sulyok et al., PAPERS.md):
//! each vertex gathers its neighbours in edge order — the order the edge
//! loop added them in, so the result is that loop's **bit for bit**, at
//! any thread count — closes with its boundary entries as half-edges to
//! itself, scales by `1/V_v` and stores its row once, the way the flux
//! kernel loads it ([`crate::geom::grad_slot`]). The neighbour ids were
//! validated when the [`HalfEdges`] were built, so the gathers are
//! unchecked.

use crate::edge_loop::{self, Exec};
use crate::geom::{grad_slot, HalfEdges, NodeAos, VertexRows, GRAD_ROW};
use fun3d_simd::{with_lanes, Isa, Simd};
use std::ops::Range;

/// Green-Gauss gradients: reads `node.q`, writes the `node.grad` rows of
/// the vertices `adj` has rows for, on the lanes `isa` names — on the
/// calling thread, or as one region of a pool over vertex ranges balanced
/// by half-edge count. Bitwise identical at any thread count and on either
/// lane instantiation. On a rank, `adj` has rows for the owned vertices
/// only; ghost rows are not touched, for the halo exchange to fill.
pub fn green_gauss(isa: Isa, exec: Exec, adj: &HalfEdges, node: &mut NodeAos) {
    assert_eq!(adj.nvertices(), node.n, "half-edges of another mesh");
    assert_eq!(node.q.len(), node.n * 4);
    assert_eq!(node.grad.len(), node.n * GRAD_ROW);
    let q = &node.q[..];
    let grad = VertexRows::new(&mut node.grad);
    edge_loop::row_ranges(exec, adj.offsets(), |rows| {
        // SAFETY: `q` and `grad` have a row per vertex `adj` can name
        // (asserted above), `grad` is exclusively borrowed for the region,
        // and `row_ranges` hands its workers disjoint ranges of `adj`'s
        // rows.
        with_lanes!(
            isa,
            unsafe gather_rows(adj: &HalfEdges, q: &[f64], rows: Range<usize>, grad: VertexRows)
        );
    });
}

/// The gradient rows `rows`: for each vertex, `Σ ½(q_v + q_j)·n` over its
/// half-edges in order as three 4-lane accumulators (`∂q/∂x`, `∂q/∂y`,
/// `∂q/∂z`), times `1/V_v`, stored once. Per entry the products and sums
/// of the scalar edge loop, in its order, from `0.0`.
///
/// # Safety
/// `rows` lies within `adj`'s rows, `q` and `grad` have 4 and
/// [`GRAD_ROW`] doubles per vertex of `adj.nvertices()`, and nothing else
/// touches the `grad` rows `rows` meanwhile.
#[inline(always)]
unsafe fn gather_rows<S: Simd>(
    s: S,
    adj: &HalfEdges,
    q: &[f64],
    rows: Range<usize>,
    grad: VertexRows,
) {
    debug_assert_eq!((q.len(), grad.len()), (adj.nvertices() * 4, adj.nvertices() * GRAD_ROW));
    let (nbr, normal) = (adj.neighbours(), adj.normals());
    let offsets = &adj.offsets()[rows.start..rows.end + 1];
    let inv_vol = &adj.inv_volumes()[rows.clone()];
    let (half, zero) = (s.splat(0.5), s.splat(0.0));
    for (v, (row, &inv)) in rows.zip(offsets.windows(2).zip(inv_vol)) {
        let (lo, hi) = (row[0] as usize, row[1] as usize);
        // SAFETY: `HalfEdges::try_build` — offsets ascend to the half-edge
        // count, the length of `nbr` and `normal`, and every neighbour is
        // a vertex `< adj.nvertices()`, a row of `q` per the caller's
        // contract, as is `v`, a row of `adj`.
        let (qv, nbr, normal) = unsafe {
            (s.load(q.get_unchecked(v * 4..v * 4 + 4)), nbr.get_unchecked(lo..hi), normal.get_unchecked(lo..hi))
        };
        let (mut gx, mut gy, mut gz) = (zero, zero, zero);
        for (&j, n) in nbr.iter().zip(normal) {
            let j = j as usize;
            debug_assert!(j < adj.nvertices());
            // SAFETY: a validated neighbour, as above.
            let qf = (qv + s.load(unsafe { q.get_unchecked(j * 4..j * 4 + 4) })) * half;
            gx = gx + qf * s.splat(n[0]);
            gy = gy + qf * s.splat(n[1]);
            gz = gz + qf * s.splat(n[2]);
        }
        let inv = s.splat(inv);
        // SAFETY: `v < adj.nvertices()` rows of `grad`, and the row is
        // ours, per the caller's contract.
        let out = unsafe { grad.row(v * GRAD_ROW, GRAD_ROW) };
        s.store(gx * inv, &mut out[grad_slot(0, 0)..]);
        s.store(gy * inv, &mut out[grad_slot(0, 1)..]);
        s.store(gz * inv, &mut out[grad_slot(0, 2)..]);
    }
}

/// Weighted least-squares gradients (FUN3D's production gradient scheme).
///
/// For each vertex the gradient minimizes
/// `Σ_j w_j (q_j − q_v − g·d_j)²` over edge neighbors `j`, with
/// inverse-distance-squared weights. The 3×3 normal matrix depends only
/// on geometry, so its inverse is precomputed once; each evaluation is
/// then one weighted gather over the same [`HalfEdges`] Green-Gauss walks.
/// Unlike edge-midpoint Green-Gauss, LSQ is exact for linear fields at
/// *every* vertex, including the boundary.
pub struct LsqGradient {
    /// Per half-edge of the adjacency it was built for: 3 coefficients `c`
    /// such that `g_v += c · (q_j − q_v)` (zero for a boundary entry, a
    /// half-edge to the vertex itself).
    coeff: Vec<[f64; 3]>,
}

impl LsqGradient {
    /// Precomputes the LSQ coefficients from the vertex coordinates, one
    /// per half-edge of `adj` (which must have a row for every vertex).
    /// Panics if some vertex's neighbors do not span 3D (never the case
    /// for a valid tetrahedral mesh).
    pub fn build(coords: &[fun3d_mesh::Vec3], adj: &HalfEdges) -> LsqGradient {
        assert_eq!((adj.rows(), adj.nvertices()), (coords.len(), coords.len()));
        let mut coeff = vec![[0.0f64; 3]; adj.neighbours().len()];
        for (v, row) in adj.offsets().windows(2).enumerate() {
            let row = row[0] as usize..row[1] as usize;
            // Neighbour deltas and weights; a boundary entry has neither.
            let stencil: Vec<Option<([f64; 3], f64)>> = adj.neighbours()[row.clone()]
                .iter()
                .map(|&j| {
                    (j as usize != v).then(|| {
                        let d = coords[j as usize] - coords[v];
                        ([d.x, d.y, d.z], 1.0 / d.norm2().max(1e-300))
                    })
                })
                .collect();
            // assemble A = Σ w d dᵀ (symmetric 3×3)
            let mut a = [0.0f64; 9];
            for (dv, w) in stencil.iter().flatten() {
                for i in 0..3 {
                    for j in 0..3 {
                        a[i * 3 + j] += w * dv[i] * dv[j];
                    }
                }
            }
            let ainv = invert3(&a)
                .unwrap_or_else(|| panic!("degenerate LSQ stencil at vertex {v}"));
            for (c, entry) in coeff[row].iter_mut().zip(&stencil) {
                let Some((dv, w)) = entry else { continue };
                for i in 0..3 {
                    c[i] = w * (ainv[i * 3] * dv[0] + ainv[i * 3 + 1] * dv[1] + ainv[i * 3 + 2] * dv[2]);
                }
            }
        }
        LsqGradient { coeff }
    }

    /// Computes all nodal gradients of the AoS state into `node.grad`,
    /// over the adjacency the coefficients were built for.
    pub fn evaluate(&self, adj: &HalfEdges, node: &mut NodeAos) {
        assert_eq!((adj.rows(), adj.nvertices()), (node.n, node.n));
        assert_eq!(adj.neighbours().len(), self.coeff.len(), "another adjacency's coefficients");
        let q = &node.q;
        let rows = node.grad.chunks_exact_mut(GRAD_ROW).zip(q.chunks_exact(4));
        for ((g, qv), row) in rows.zip(adj.offsets().windows(2)) {
            let row = row[0] as usize..row[1] as usize;
            g.fill(0.0);
            for (&j, c) in adj.neighbours()[row.clone()].iter().zip(&self.coeff[row]) {
                let qj = &q[j as usize * 4..j as usize * 4 + 4];
                for comp in 0..4 {
                    let dq = qj[comp] - qv[comp];
                    for d in 0..3 {
                        g[grad_slot(comp, d)] += c[d] * dq;
                    }
                }
            }
        }
    }
}

/// Inverts a symmetric 3×3 matrix (row-major); `None` when singular.
fn invert3(a: &[f64; 9]) -> Option<[f64; 9]> {
    let det = a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6])
        + a[2] * (a[3] * a[7] - a[4] * a[6]);
    if det.abs() < 1e-300 {
        return None;
    }
    let inv_det = 1.0 / det;
    Some([
        (a[4] * a[8] - a[5] * a[7]) * inv_det,
        (a[2] * a[7] - a[1] * a[8]) * inv_det,
        (a[1] * a[5] - a[2] * a[4]) * inv_det,
        (a[5] * a[6] - a[3] * a[8]) * inv_det,
        (a[0] * a[8] - a[2] * a[6]) * inv_det,
        (a[2] * a[3] - a[0] * a[5]) * inv_det,
        (a[3] * a[7] - a[4] * a[6]) * inv_det,
        (a[1] * a[6] - a[0] * a[7]) * inv_det,
        (a[0] * a[4] - a[1] * a[3]) * inv_det,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::BcData;
    use crate::geom::EdgeGeom;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::{DualMesh, Mesh};
    use fun3d_threads::ThreadPool;

    /// The kernel on the calling thread, on the detected lanes.
    fn serial(adj: &HalfEdges, node: &mut NodeAos) {
        green_gauss(Isa::detect(), Exec::Caller, adj, node);
    }

    fn setup() -> (Mesh, HalfEdges, NodeAos) {
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let adj = HalfEdges::build(&geom, &BcData::build(&dual), &dual.vol);
        let node = NodeAos::zeros(mesh.nvertices());
        (mesh, adj, node)
    }

    #[test]
    fn constant_field_has_zero_gradient() {
        let (_, adj, mut node) = setup();
        node.set_freestream(&[0.7, 1.0, -0.5, 0.25]);
        serial(&adj, &mut node);
        let max = node.grad.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert!(max < 1e-10, "constant field gradient {max}");
    }

    #[test]
    fn linear_field_gradient_accurate_in_interior() {
        // Green-Gauss with edge-midpoint face values on the median dual
        // reproduces linear fields at interior vertices (the boundary
        // closure uses the vertex value, so hull vertices are only
        // first-order accurate).
        let (mesh, adj, mut node) = setup();
        // p = 2x − y + 3z, u = x, v = y, w = z
        for (q, c) in node.q.chunks_exact_mut(4).zip(&mesh.coords) {
            q.copy_from_slice(&[2.0 * c.x - c.y + 3.0 * c.z, c.x, c.y, c.z]);
        }
        serial(&adj, &mut node);
        let expect = [
            [2.0, -1.0, 3.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        let on_boundary: std::collections::HashSet<u32> =
            mesh.boundary.iter().flat_map(|t| t.verts).collect();
        let mut checked = 0usize;
        let mut worst: f64 = 0.0;
        for v in 0..node.n {
            if on_boundary.contains(&(v as u32)) {
                continue;
            }
            checked += 1;
            for c in 0..4 {
                for d in 0..3 {
                    worst = worst.max((node.dq(v, c, d) - expect[c][d]).abs());
                }
            }
        }
        assert!(checked > 0, "no interior vertices in tiny mesh");
        // Edge-midpoint Green-Gauss is consistent but not pointwise exact
        // for linear fields on irregular duals; demand small relative
        // error at interior vertices.
        assert!(worst < 0.15, "interior gradient error {worst}");
    }

    #[test]
    fn lsq_exact_for_linear_fields_everywhere() {
        // Including boundary vertices — the property Green-Gauss with
        // edge-midpoint values lacks.
        let (mesh, adj, mut node) = setup();
        let lsq = LsqGradient::build(&mesh.coords, &adj);
        for (q, c) in node.q.chunks_exact_mut(4).zip(&mesh.coords) {
            q.copy_from_slice(&[2.0 * c.x - c.y + 3.0 * c.z, c.x, -0.5 * c.y + c.z, 7.0]);
        }
        lsq.evaluate(&adj, &mut node);
        let expect = [
            [2.0, -1.0, 3.0],
            [1.0, 0.0, 0.0],
            [0.0, -0.5, 1.0],
            [0.0, 0.0, 0.0],
        ];
        for v in 0..node.n {
            for c in 0..4 {
                for d in 0..3 {
                    let g = node.dq(v, c, d);
                    assert!(
                        (g - expect[c][d]).abs() < 1e-10,
                        "vertex {v} comp {c} dim {d}: {g} vs {}",
                        expect[c][d]
                    );
                }
            }
        }
    }

    #[test]
    fn lsq_constant_field_zero_gradient() {
        let (mesh, adj, mut node) = setup();
        let lsq = LsqGradient::build(&mesh.coords, &adj);
        node.set_freestream(&[0.7, 1.0, -0.2, 0.1]);
        lsq.evaluate(&adj, &mut node);
        assert!(node.grad.iter().all(|g| g.abs() < 1e-12));
    }

    #[test]
    fn invert3_roundtrip() {
        let a = [4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 5.0];
        let inv = invert3(&a).unwrap();
        // A * A^-1 == I
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += a[i * 3 + k] * inv[k * 3 + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-12, "({i},{j}): {s}");
            }
        }
        assert!(invert3(&[0.0; 9]).is_none());
    }

    #[test]
    fn threaded_matches_serial_bitwise() {
        let (_, adj, mut node) = setup();
        for (i, x) in node.q.iter_mut().enumerate() {
            *x = ((i * 37) % 19) as f64 * 0.1 - 0.9;
        }
        let mut serial = node.clone();
        self::serial(&adj, &mut serial);
        for nt in [1usize, 3, 7] {
            let pool = ThreadPool::new(nt);
            let mut par = node.clone();
            par.grad.fill(f64::NAN);
            green_gauss(Isa::detect(), Exec::Pool(&pool), &adj, &mut par);
            assert_eq!(serial.grad, par.grad, "nt={nt}");
        }
    }
}
