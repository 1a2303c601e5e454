//! Kernel-facing geometry and state layouts.
//!
//! * **Edge data** is streamed in edge order, so it is stored SoA (one
//!   array per field) as the paper prescribes;
//! * **Node data** is gathered irregularly; the paper's data-structure
//!   optimization stores it AoS — all 4 state variables of a vertex
//!   contiguous (`nVertices × 4`), the 12 gradient entries contiguous
//!   (`nVertices × 4 × 3`) — so one vector load per vertex replaces four
//!   gathers. Both layouts are provided; converting between them is
//!   allowed only outside timed regions.

use fun3d_mesh::{DualMesh, Mesh};
use fun3d_partition::EdgeTiling;

/// Streaming (SoA) edge geometry: dual-face normals and across-edge
/// coordinate deltas, plus the endpoint list.
#[derive(Clone, Debug)]
pub struct EdgeGeom {
    /// Edge endpoints `[a, b]` with `a < b`.
    pub edges: Vec<[u32; 2]>,
    /// Dual-face area-weighted normal, x component (oriented a→b).
    pub nx: Vec<f64>,
    /// Normal y component.
    pub ny: Vec<f64>,
    /// Normal z component.
    pub nz: Vec<f64>,
    /// Coordinate delta `x_b − x_a`, x component.
    pub rx: Vec<f64>,
    /// Delta y component.
    pub ry: Vec<f64>,
    /// Delta z component.
    pub rz: Vec<f64>,
}

impl EdgeGeom {
    /// Extracts edge geometry from a mesh and its dual metrics.
    pub fn build(mesh: &Mesh, dual: &DualMesh) -> EdgeGeom {
        let ne = dual.nedges();
        let mut g = EdgeGeom {
            edges: dual.edges.clone(),
            nx: Vec::with_capacity(ne),
            ny: Vec::with_capacity(ne),
            nz: Vec::with_capacity(ne),
            rx: Vec::with_capacity(ne),
            ry: Vec::with_capacity(ne),
            rz: Vec::with_capacity(ne),
        };
        for (e, n) in dual.edges.iter().zip(&dual.edge_normal) {
            g.nx.push(n.x);
            g.ny.push(n.y);
            g.nz.push(n.z);
            let d = mesh.coords[e[1] as usize] - mesh.coords[e[0] as usize];
            g.rx.push(d.x);
            g.ry.push(d.y);
            g.rz.push(d.z);
        }
        g
    }

    /// Number of edges.
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Flops per edge of the optimized Roe flux kernel (counted once,
    /// used by the machine model's roofline).
    pub const FLUX_FLOPS_PER_EDGE: f64 = 345.0;

    /// Bytes streamed/gathered per edge by the flux kernel: 6 edge
    /// doubles + 2 endpoints (u32) + two gathered nodes (4 state + 12
    /// gradient doubles each) + two residual read-modify-writes.
    pub const FLUX_BYTES_PER_EDGE: f64 = (6.0 * 8.0) + 8.0 + 2.0 * 16.0 * 8.0 + 2.0 * 2.0 * 32.0;
}

/// Edge geometry permuted into an [`EdgeTiling`]'s color-major tile
/// order: tile `t` owns the contiguous range `tiling.tile_start[t] ..
/// + tiles[t].edges.len()`, so the tiled kernels walk every geometry
/// array strictly sequentially — no per-edge id gather, and the
/// hardware prefetcher covers the whole stream. The endpoint pairs
/// travel with the permutation, so global scatter indices still come
/// straight out of `edges`. Built once per tiling, outside timed
/// regions; the newtype keeps an unpermuted geometry from reaching a
/// tiled kernel by accident.
#[derive(Clone, Debug)]
pub struct TiledGeom(EdgeGeom);

impl TiledGeom {
    /// Permutes `geom` into `tiling`'s color-major tile order.
    pub fn new(tiling: &EdgeTiling, geom: &EdgeGeom) -> TiledGeom {
        assert_eq!(tiling.nedges, geom.nedges());
        let pick = |src: &[f64]| tiling.perm.iter().map(|&e| src[e as usize]).collect();
        TiledGeom(EdgeGeom {
            edges: tiling.perm.iter().map(|&e| geom.edges[e as usize]).collect(),
            nx: pick(&geom.nx),
            ny: pick(&geom.ny),
            nz: pick(&geom.nz),
            rx: pick(&geom.rx),
            ry: pick(&geom.ry),
            rz: pick(&geom.rz),
        })
    }

    /// The permuted geometry (tile-range order).
    #[inline]
    pub fn geom(&self) -> &EdgeGeom {
        &self.0
    }
}

/// Raw view of a per-vertex output array (the residual, the gradient)
/// for the drivers whose write exclusivity the borrow checker cannot see:
/// owner-only writes across threads and vertex-disjoint colored tiles.
#[derive(Clone, Copy)]
pub(crate) struct VertexRows<'a> {
    ptr: *mut f64,
    len: usize,
    _data: std::marker::PhantomData<&'a mut [f64]>,
}

// SAFETY: the view is a pointer and a length into a buffer borrowed for
// `'a`; all access goes through `row`, whose caller vouches that no two
// threads touch the same range.
unsafe impl Send for VertexRows<'_> {}
// SAFETY: as above.
unsafe impl Sync for VertexRows<'_> {}

impl<'a> VertexRows<'a> {
    pub(crate) fn new(data: &'a mut [f64]) -> Self {
        VertexRows {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _data: std::marker::PhantomData,
        }
    }

    /// The `w` doubles starting at `at` (bounds-checked).
    ///
    /// # Safety
    /// While the returned slice lives, nothing else reads or writes that
    /// range: the caller owns those vertices (owner-writes plan, tile
    /// coloring) or is the only thread.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn row(&self, at: usize, w: usize) -> &mut [f64] {
        assert!(at + w <= self.len);
        // SAFETY: in bounds by the assert; exclusive by the caller's
        // contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(at), w) }
    }
}

/// SoA node state: one array per variable (the baseline layout).
#[derive(Clone, Debug)]
pub struct NodeSoa {
    /// Pressure per vertex.
    pub p: Vec<f64>,
    /// x-velocity per vertex.
    pub u: Vec<f64>,
    /// y-velocity per vertex.
    pub v: Vec<f64>,
    /// z-velocity per vertex.
    pub w: Vec<f64>,
    /// Gradients: `grad[(comp*3 + dim)][vertex]`, 12 arrays flattened
    /// into one buffer field-major: `grad[f * n + v]`.
    pub grad: Vec<f64>,
    /// Vertex count.
    pub n: usize,
}

impl NodeSoa {
    /// Zero state for `n` vertices.
    pub fn zeros(n: usize) -> NodeSoa {
        NodeSoa {
            p: vec![0.0; n],
            u: vec![0.0; n],
            v: vec![0.0; n],
            w: vec![0.0; n],
            grad: vec![0.0; 12 * n],
            n,
        }
    }

    /// Builds from an AoS layout.
    pub fn from_aos(aos: &NodeAos) -> NodeSoa {
        let n = aos.n;
        let mut s = NodeSoa::zeros(n);
        for v in 0..n {
            s.p[v] = aos.q[v * 4];
            s.u[v] = aos.q[v * 4 + 1];
            s.v[v] = aos.q[v * 4 + 2];
            s.w[v] = aos.q[v * 4 + 3];
            for f in 0..12 {
                s.grad[f * n + v] = aos.grad[v * 12 + f];
            }
        }
        s
    }

    /// Gathers the 4 state variables of vertex `i`.
    #[inline]
    pub fn state(&self, i: usize) -> [f64; 4] {
        [self.p[i], self.u[i], self.v[i], self.w[i]]
    }

    /// Gathers the 12 gradient entries of vertex `i`.
    #[inline]
    pub fn gradient(&self, i: usize) -> [f64; 12] {
        let mut g = [0.0; 12];
        for f in 0..12 {
            g[f] = self.grad[f * self.n + i];
        }
        g
    }
}

/// AoS node state: `q[v*4..v*4+4]` and `grad[v*12..v*12+12]` (the paper's
/// optimized layout).
#[derive(Clone, Debug)]
pub struct NodeAos {
    /// Interleaved state `(p,u,v,w)` per vertex.
    pub q: Vec<f64>,
    /// Interleaved gradients, 12 per vertex (comp-major: `∂p/∂x, ∂p/∂y,
    /// ∂p/∂z, ∂u/∂x, …`).
    pub grad: Vec<f64>,
    /// Vertex count.
    pub n: usize,
}

impl NodeAos {
    /// Zero state for `n` vertices.
    pub fn zeros(n: usize) -> NodeAos {
        NodeAos {
            q: vec![0.0; 4 * n],
            grad: vec![0.0; 12 * n],
            n,
        }
    }

    /// Fills the state with the free-stream value.
    pub fn set_freestream(&mut self, qinf: &[f64; 4]) {
        for v in 0..self.n {
            self.q[v * 4..v * 4 + 4].copy_from_slice(qinf);
        }
    }

    /// State of vertex `i`.
    #[inline]
    pub fn state(&self, i: usize) -> [f64; 4] {
        self.q[i * 4..i * 4 + 4].try_into().unwrap()
    }

    /// Gradient block of vertex `i`.
    #[inline]
    pub fn gradient(&self, i: usize) -> &[f64] {
        &self.grad[i * 12..i * 12 + 12]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::DualMesh;

    #[test]
    fn edge_geom_matches_dual() {
        let m = MeshPreset::Tiny.build();
        let d = DualMesh::build(&m);
        let g = EdgeGeom::build(&m, &d);
        assert_eq!(g.nedges(), d.nedges());
        for (k, e) in g.edges.iter().enumerate() {
            assert_eq!(g.nx[k], d.edge_normal[k].x);
            let delta = m.coords[e[1] as usize] - m.coords[e[0] as usize];
            assert!((g.rx[k] - delta.x).abs() < 1e-15);
            assert!((g.ry[k] - delta.y).abs() < 1e-15);
            assert!((g.rz[k] - delta.z).abs() < 1e-15);
        }
    }

    #[test]
    fn layout_conversion_roundtrip() {
        let n = 13;
        let mut aos = NodeAos::zeros(n);
        for (i, x) in aos.q.iter_mut().enumerate() {
            *x = i as f64 * 0.5;
        }
        for (i, x) in aos.grad.iter_mut().enumerate() {
            *x = i as f64 * -0.25;
        }
        let soa = NodeSoa::from_aos(&aos);
        for v in 0..n {
            assert_eq!(soa.state(v), aos.state(v));
            let ga = aos.gradient(v);
            let gs = soa.gradient(v);
            for f in 0..12 {
                assert_eq!(gs[f], ga[f]);
            }
        }
    }

    #[test]
    fn freestream_fill() {
        let mut aos = NodeAos::zeros(5);
        aos.set_freestream(&[0.1, 1.0, 0.0, -0.5]);
        for v in 0..5 {
            assert_eq!(aos.state(v), [0.1, 1.0, 0.0, -0.5]);
        }
    }
}
