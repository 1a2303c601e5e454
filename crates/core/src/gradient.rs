//! Green-Gauss nodal gradients — the paper's "Grad" kernel (13% of the
//! baseline profile), an edge-based loop like the flux kernel and run by
//! the same traversals ([`crate::edge_loop`]) — and the least-squares
//! alternative.
//!
//! `∇q_v = (1/V_v) [ Σ_edges ±s_e · ½(q_a + q_b) + Σ_bnd n_b · q_v ]`
//!
//! The closure identity `Σ ±s_e + n_b = 0` makes the gradient of a
//! constant field exactly zero.

use crate::bc::BcData;
use crate::edge_loop::{self, EdgeBody, Exec, Reads, Traversal};
use crate::geom::{NodeAos, VertexRows};
use fun3d_simd::{Isa, Simd};

/// The Green-Gauss edge body: `grad[a][c][d] += qf[c]·s[d]` and
/// `grad[b][c][d] -= qf[c]·s[d]` with `qf = ½(q_a + q_b)`, as three
/// 4-lane updates of each endpoint's 12 contiguous gradient entries
/// (entry `3c + d` pairs `qf[c]` with `s[d]`). The same products and sums
/// as the scalar double loop, so bitwise what it computes — on either
/// lane instantiation, which is why there is no scalar twin.
#[derive(Clone, Copy)]
struct GreenGauss;

impl EdgeBody for GreenGauss {
    const ROW: usize = 12;

    #[inline(always)]
    unsafe fn edge<S: Simd>(
        self,
        s: S,
        src: Reads,
        k: usize,
        (ia, ib): (usize, usize),
        grad: VertexRows,
        mask: u8,
    ) {
        let q = src.q;
        let (wa, wb) = src.endpoints(k);
        let qf = (s.load(&q[ia * 4..ia * 4 + 4]) + s.load(&q[ib * 4..ib * 4 + 4])) * s.splat(0.5);
        let qf = s.to_array(qf);
        let n = [src.n[0][k], src.n[1][k], src.n[2][k]];
        let w = [
            s.load(&[qf[0], qf[0], qf[0], qf[1]]) * s.load(&[n[0], n[1], n[2], n[0]]),
            s.load(&[qf[1], qf[1], qf[2], qf[2]]) * s.load(&[n[1], n[2], n[0], n[1]]),
            s.load(&[qf[2], qf[3], qf[3], qf[3]]) * s.load(&[n[2], n[0], n[1], n[2]]),
        ];
        if mask & 1 != 0 {
            // SAFETY: exclusive per the caller's contract.
            let ga = unsafe { grad.row(wa * 12, 12) };
            for j in 0..3 {
                s.store(s.load(&ga[4 * j..]) + w[j], &mut ga[4 * j..]);
            }
        }
        if mask & 2 != 0 {
            // SAFETY: exclusive per the caller's contract.
            let gb = unsafe { grad.row(wb * 12, 12) };
            for j in 0..3 {
                s.store(s.load(&gb[4 * j..]) - w[j], &mut gb[4 * j..]);
            }
        }
    }
}

/// Green-Gauss gradients: reads `node.q`, writes `node.grad` (comp-major
/// 12 per vertex) — the edge loop over `walk` on `exec` on the lanes
/// `isa` names, then the boundary closure over `bc` and the division by
/// the dual volumes `vol`. `Stream` and `Owner` are bitwise identical at
/// any thread count; `Tiled` matches them to rounding (the tile order
/// permutes each vertex's accumulation). On a single `Owner` share — a
/// rank — `bc` lists the owner's boundary vertices only, and vertices no
/// mask selects (ghosts) come out zero, for the halo exchange to fill.
pub fn green_gauss(
    isa: Isa,
    exec: Exec,
    walk: Traversal,
    bc: &BcData,
    vol: &[f64],
    node: &mut NodeAos,
) {
    assert_eq!(vol.len(), node.n);
    node.grad.iter_mut().for_each(|x| *x = 0.0);
    edge_loop::run(isa, exec, walk, GreenGauss, &node.q, &[], &mut node.grad);
    gradient_epilogue(bc, vol, node);
}

/// Boundary closure + dual-volume division.
fn gradient_epilogue(bc: &BcData, vol: &[f64], node: &mut NodeAos) {
    for i in 0..bc.len() {
        let v = bc.vertex[i] as usize;
        let nb = [bc.nx[i], bc.ny[i], bc.nz[i]];
        for c in 0..4 {
            let qv = node.q[v * 4 + c];
            for d in 0..3 {
                node.grad[v * 12 + c * 3 + d] += qv * nb[d];
            }
        }
    }
    for v in 0..node.n {
        let inv = 1.0 / vol[v];
        for f in 0..12 {
            node.grad[v * 12 + f] *= inv;
        }
    }
}

/// Weighted least-squares gradients (FUN3D's production gradient scheme).
///
/// For each vertex the gradient minimizes
/// `Σ_j w_j (q_j − q_v − g·d_j)²` over edge neighbors `j`, with
/// inverse-distance-squared weights. The 3×3 normal matrix depends only
/// on geometry, so its inverse is precomputed once; each evaluation is
/// then one weighted sweep over the edges. Unlike edge-midpoint
/// Green-Gauss, LSQ is exact for linear fields at *every* vertex,
/// including the boundary.
pub struct LsqGradient {
    /// CSR row pointers over vertices.
    xadj: Vec<usize>,
    /// Neighbor vertex per entry.
    nbr: Vec<u32>,
    /// Per entry: 3 coefficients `c` such that `g_v += c · (q_j − q_v)`.
    coeff: Vec<[f64; 3]>,
}

impl LsqGradient {
    /// Precomputes the LSQ coefficients from the mesh geometry.
    /// Panics if some vertex's neighbors do not span 3D (never the case
    /// for a valid tetrahedral mesh).
    pub fn build(coords: &[fun3d_mesh::Vec3], edges: &[[u32; 2]]) -> LsqGradient {
        let n = coords.len();
        // adjacency
        let mut degree = vec![0usize; n];
        for e in edges {
            degree[e[0] as usize] += 1;
            degree[e[1] as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + degree[v];
        }
        let mut nbr = vec![0u32; xadj[n]];
        let mut cursor = xadj.clone();
        for e in edges {
            nbr[cursor[e[0] as usize]] = e[1];
            cursor[e[0] as usize] += 1;
            nbr[cursor[e[1] as usize]] = e[0];
            cursor[e[1] as usize] += 1;
        }
        // per-vertex normal matrix and its inverse applied to each d_j
        let mut coeff = vec![[0.0f64; 3]; xadj[n]];
        for v in 0..n {
            let xv = coords[v];
            // assemble A = Σ w d dᵀ (symmetric 3×3)
            let mut a = [0.0f64; 9];
            for k in xadj[v]..xadj[v + 1] {
                let d = coords[nbr[k] as usize] - xv;
                let w = 1.0 / d.norm2().max(1e-300);
                let dv = [d.x, d.y, d.z];
                for i in 0..3 {
                    for j in 0..3 {
                        a[i * 3 + j] += w * dv[i] * dv[j];
                    }
                }
            }
            let ainv = invert3(&a)
                .unwrap_or_else(|| panic!("degenerate LSQ stencil at vertex {v}"));
            for k in xadj[v]..xadj[v + 1] {
                let d = coords[nbr[k] as usize] - xv;
                let w = 1.0 / d.norm2().max(1e-300);
                let dv = [d.x, d.y, d.z];
                for i in 0..3 {
                    coeff[k][i] =
                        w * (ainv[i * 3] * dv[0] + ainv[i * 3 + 1] * dv[1] + ainv[i * 3 + 2] * dv[2]);
                }
            }
        }
        LsqGradient { xadj, nbr, coeff }
    }

    /// Computes all nodal gradients of the AoS state into `node.grad`.
    pub fn evaluate(&self, node: &mut NodeAos) {
        let n = node.n;
        assert_eq!(self.xadj.len(), n + 1);
        node.grad.iter_mut().for_each(|x| *x = 0.0);
        for v in 0..n {
            let qv: [f64; 4] = node.q[v * 4..v * 4 + 4].try_into().unwrap();
            for k in self.xadj[v]..self.xadj[v + 1] {
                let j = self.nbr[k] as usize;
                let c = self.coeff[k];
                for comp in 0..4 {
                    let dq = node.q[j * 4 + comp] - qv[comp];
                    for d in 0..3 {
                        node.grad[v * 12 + comp * 3 + d] += c[d] * dq;
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
    use crate::edge_loop::TileExec;
    use crate::geom::{EdgeGeom, TiledGeom};
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::DualMesh;
    use fun3d_partition::{partition_graph, EdgeTiling, MultilevelConfig, OwnerWritesPlan};
    use fun3d_threads::ThreadPool;

    /// The serial streaming kernel on the detected lanes.
    fn serial(geom: &EdgeGeom, bc: &BcData, vol: &[f64], node: &mut NodeAos) {
        green_gauss(Isa::detect(), Exec::Caller, Traversal::stream(geom), bc, vol, node);
    }

    fn setup() -> (EdgeGeom, BcData, Vec<f64>, NodeAos) {
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let vol = dual.vol.clone();
        let node = NodeAos::zeros(mesh.nvertices());
        (geom, bc, vol, node)
    }

    #[test]
    fn constant_field_has_zero_gradient() {
        let (geom, bc, vol, mut node) = setup();
        node.set_freestream(&[0.7, 1.0, -0.5, 0.25]);
        serial(&geom, &bc, &vol, &mut node);
        let max = node.grad.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert!(max < 1e-10, "constant field gradient {max}");
    }

    #[test]
    fn linear_field_gradient_accurate_in_interior() {
        // Green-Gauss with edge-midpoint face values on the median dual
        // reproduces linear fields at interior vertices (the boundary
        // closure uses the vertex value, so hull vertices are only
        // first-order accurate).
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let vol = dual.vol.clone();
        let mut node = NodeAos::zeros(mesh.nvertices());
        // p = 2x − y + 3z, u = x, v = y, w = z
        for (vtx, c) in mesh.coords.iter().enumerate() {
            node.q[vtx * 4] = 2.0 * c.x - c.y + 3.0 * c.z;
            node.q[vtx * 4 + 1] = c.x;
            node.q[vtx * 4 + 2] = c.y;
            node.q[vtx * 4 + 3] = c.z;
        }
        serial(&geom, &bc, &vol, &mut node);
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
                    let g = node.grad[v * 12 + c * 3 + d];
                    worst = worst.max((g - expect[c][d]).abs());
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
        let mesh = MeshPreset::Tiny.build();
        let edges = mesh.edges();
        let lsq = LsqGradient::build(&mesh.coords, &edges);
        let mut node = NodeAos::zeros(mesh.nvertices());
        for (v, c) in mesh.coords.iter().enumerate() {
            node.q[v * 4] = 2.0 * c.x - c.y + 3.0 * c.z;
            node.q[v * 4 + 1] = c.x;
            node.q[v * 4 + 2] = -0.5 * c.y + c.z;
            node.q[v * 4 + 3] = 7.0;
        }
        lsq.evaluate(&mut node);
        let expect = [
            [2.0, -1.0, 3.0],
            [1.0, 0.0, 0.0],
            [0.0, -0.5, 1.0],
            [0.0, 0.0, 0.0],
        ];
        for v in 0..node.n {
            for c in 0..4 {
                for d in 0..3 {
                    let g = node.grad[v * 12 + c * 3 + d];
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
        let mesh = MeshPreset::Tiny.build();
        let lsq = LsqGradient::build(&mesh.coords, &mesh.edges());
        let mut node = NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&[0.7, 1.0, -0.2, 0.1]);
        lsq.evaluate(&mut node);
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
    fn tiled_matches_serial_to_rounding() {
        let (geom, bc, vol, mut node) = setup();
        for (i, x) in node.q.iter_mut().enumerate() {
            *x = ((i * 53) % 23) as f64 * 0.07 - 0.8;
        }
        let mut serial = node.clone();
        self::serial(&geom, &bc, &vol, &mut serial);
        for budget in [1usize, 4096, usize::MAX] {
            let tiling = EdgeTiling::build(
                node.n,
                &geom.edges,
                &fun3d_partition::TilingConfig::with_target_bytes(budget),
            );
            let tg = TiledGeom::new(&tiling, &geom);
            let tiles = |mode| Traversal::Tiled { tiling: &tiling, geom: &tg, mode };
            let isa = Isa::detect();
            let mut t = node.clone();
            green_gauss(isa, Exec::Caller, tiles(TileExec::Staged), &bc, &vol, &mut t);
            for i in 0..t.grad.len() {
                assert!(
                    (t.grad[i] - serial.grad[i]).abs() <= 1e-11 * (1.0 + serial.grad[i].abs()),
                    "budget {budget} entry {i}: {} vs {}",
                    t.grad[i],
                    serial.grad[i]
                );
            }
            // Direct execution skips the scratch pad but runs the same
            // arithmetic in the same order: bitwise equal to staged.
            let mut d = node.clone();
            green_gauss(isa, Exec::Caller, tiles(TileExec::Direct), &bc, &vol, &mut d);
            assert_eq!(t.grad, d.grad, "budget {budget}: direct vs staged");
        }
    }

    #[test]
    fn tiled_pooled_matches_tiled_bitwise() {
        let (geom, bc, vol, mut node) = setup();
        for (i, x) in node.q.iter_mut().enumerate() {
            *x = ((i * 29) % 17) as f64 * 0.09 - 0.7;
        }
        let tiling = EdgeTiling::build(
            node.n,
            &geom.edges,
            &fun3d_partition::TilingConfig::with_target_bytes(4096),
        );
        let tg = TiledGeom::new(&tiling, &geom);
        let tiles = |mode| Traversal::Tiled { tiling: &tiling, geom: &tg, mode };
        let isa = Isa::detect();
        let mut serial = node.clone();
        green_gauss(isa, Exec::Caller, tiles(TileExec::Staged), &bc, &vol, &mut serial);
        for exec in [TileExec::Staged, TileExec::Direct] {
            for nt in [1usize, 2, 4] {
                let pool = ThreadPool::new(nt);
                let mut par = node.clone();
                green_gauss(isa, Exec::Pool(&pool), tiles(exec), &bc, &vol, &mut par);
                assert_eq!(serial.grad, par.grad, "{exec:?} nt={nt}");
            }
        }
    }

    #[test]
    fn threaded_matches_serial_bitwise() {
        let (geom, bc, vol, mut node) = setup();
        for (i, x) in node.q.iter_mut().enumerate() {
            *x = ((i * 37) % 19) as f64 * 0.1 - 0.9;
        }
        let mut serial = node.clone();
        self::serial(&geom, &bc, &vol, &mut serial);
        let graph = fun3d_mesh::Graph::from_edges(node.n, &geom.edges);
        for nt in [1usize, 3] {
            let part = partition_graph(&graph, nt, &MultilevelConfig::default());
            let plan = OwnerWritesPlan::build(&geom.edges, &part, nt);
            let pool = ThreadPool::new(nt);
            let mut par = node.clone();
            let walk = Traversal::owner(&geom, &plan);
            green_gauss(Isa::detect(), Exec::Pool(&pool), walk, &bc, &vol, &mut par);
            assert_eq!(serial.grad, par.grad, "nt={nt}");
        }
    }
}
