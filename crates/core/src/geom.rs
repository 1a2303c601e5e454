//! Kernel-facing geometry and state layouts.
//!
//! * **Edge data** is streamed in edge order, so it is stored SoA (one
//!   array per field) as the paper prescribes;
//! * **Node data** is gathered irregularly; the paper's data-structure
//!   optimization stores it AoS — all 4 state variables of a vertex
//!   contiguous (`nVertices × 4`), the 12 gradient entries contiguous
//!   (`nVertices × 3 × 4`) — so one vector load per vertex replaces four
//!   gathers. The SoA layout it replaces is Fig. 6a's reference row and
//!   lives with the benches.
//!
//! Two rules hold for everything here. **A vertex row is stored the way
//! its hot loop loads it**: the gradient row is the three 4-vectors
//! `∂q/∂x, ∂q/∂y, ∂q/∂z` ([`grad_slot`] is the one place that index is
//! spelled), because the flux kernel reconstructs `q ± ½ ∇q·r` one vertex
//! at a time in component lanes, and Green-Gauss stores exactly those
//! three vectors. **An index is checked where it is made**: [`EdgeGeom`],
//! [`TiledGeom`] and [`HalfEdges`] validate every index they hold in their
//! constructors (a hostile input is a [`GeomError`] naming the edge),
//! keep their fields private and have no `&mut` access, so the loops in
//! [`crate::edge_loop`], [`crate::flux`] and [`crate::gradient`] index
//! with them unchecked (`debug_assert!` per access in debug builds).

use crate::bc::BcData;
use fun3d_mesh::{DualMesh, Mesh};
use fun3d_partition::EdgeTiling;
use std::fmt;

/// Why a structure the hot loops index unchecked could not be built: the
/// message names the offending edge, stream, tile or boundary entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeomError(String);

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for GeomError {}

fn err<T>(msg: String) -> Result<T, GeomError> {
    Err(GeomError(msg))
}

/// Every endpoint of `edges` is a vertex of `0..nvertices`.
fn check_endpoints(nvertices: usize, edges: &[[u32; 2]]) -> Result<(), GeomError> {
    match edges.iter().position(|e| e.iter().any(|&v| v as usize >= nvertices)) {
        None => Ok(()),
        Some(k) => err(format!(
            "edge {k} = {:?}: an endpoint is not one of the {nvertices} vertices",
            edges[k]
        )),
    }
}

/// Streaming (SoA) edge geometry: dual-face normals and across-edge
/// coordinate deltas, plus the endpoint list.
///
/// Invariant, established by every constructor and never changed: the six
/// streams and the endpoint list have one length, and every endpoint is
/// `< nvertices()`.
#[derive(Clone, Debug)]
pub struct EdgeGeom {
    nvertices: usize,
    edges: Vec<[u32; 2]>,
    /// Dual-face area-weighted normal (oriented a→b), one stream per
    /// component.
    n: [Vec<f64>; 3],
    /// Coordinate delta `x_b − x_a`, one stream per component.
    r: [Vec<f64>; 3],
}

impl EdgeGeom {
    /// Edge geometry over `nvertices` vertices from its parts: endpoint
    /// pairs, normals `n` and deltas `r` (one stream per component).
    /// Fails when a stream's length is not the edge count or an endpoint
    /// is not a vertex.
    pub fn try_new(
        nvertices: usize,
        edges: Vec<[u32; 2]>,
        n: [Vec<f64>; 3],
        r: [Vec<f64>; 3],
    ) -> Result<EdgeGeom, GeomError> {
        let names = ["nx", "ny", "nz", "rx", "ry", "rz"];
        for (stream, name) in n.iter().chain(&r).zip(names) {
            if stream.len() != edges.len() {
                return err(format!(
                    "stream {name} has {} entries for {} edges",
                    stream.len(),
                    edges.len()
                ));
            }
        }
        check_endpoints(nvertices, &edges)?;
        Ok(EdgeGeom { nvertices, edges, n, r })
    }

    /// Extracts edge geometry from a mesh and its dual metrics; fails on
    /// dual metrics that do not belong to the mesh.
    pub fn try_build(mesh: &Mesh, dual: &DualMesh) -> Result<EdgeGeom, GeomError> {
        if dual.edge_normal.len() != dual.edges.len() {
            return err(format!(
                "{} edge normals for {} edges",
                dual.edge_normal.len(),
                dual.edges.len()
            ));
        }
        check_endpoints(mesh.nvertices(), &dual.edges)?;
        // Six streams of one length by construction, endpoints just checked.
        let delta = |e: &[u32; 2]| mesh.coords[e[1] as usize] - mesh.coords[e[0] as usize];
        let normals = &dual.edge_normal;
        Ok(EdgeGeom {
            nvertices: mesh.nvertices(),
            edges: dual.edges.clone(),
            n: [
                normals.iter().map(|n| n.x).collect(),
                normals.iter().map(|n| n.y).collect(),
                normals.iter().map(|n| n.z).collect(),
            ],
            r: [
                dual.edges.iter().map(|e| delta(e).x).collect(),
                dual.edges.iter().map(|e| delta(e).y).collect(),
                dual.edges.iter().map(|e| delta(e).z).collect(),
            ],
        })
    }

    /// [`EdgeGeom::try_build`] for dual metrics computed from `mesh`;
    /// panics with the error's message otherwise.
    pub fn build(mesh: &Mesh, dual: &DualMesh) -> EdgeGeom {
        EdgeGeom::try_build(mesh, dual).unwrap_or_else(|e| panic!("edge geometry: {e}"))
    }

    /// The edges `ids` of `self`, in that order, as a geometry of their
    /// own (a tiling's permutation, a shuffled ablation); fails on an id
    /// that is not an edge.
    pub fn try_select(&self, ids: &[u32]) -> Result<EdgeGeom, GeomError> {
        if let Some(at) = ids.iter().position(|&k| k as usize >= self.nedges()) {
            return err(format!("position {at}: edge id {} of {} edges", ids[at], self.nedges()));
        }
        let pick = |src: &Vec<f64>| ids.iter().map(|&k| src[k as usize]).collect();
        Ok(EdgeGeom {
            nvertices: self.nvertices,
            edges: ids.iter().map(|&k| self.edges[k as usize]).collect(),
            n: [pick(&self.n[0]), pick(&self.n[1]), pick(&self.n[2])],
            r: [pick(&self.r[0]), pick(&self.r[1]), pick(&self.r[2])],
        })
    }

    /// Number of edges.
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices every endpoint is below.
    pub fn nvertices(&self) -> usize {
        self.nvertices
    }

    /// Edge endpoints `[a, b]` (`a < b` for a mesh's own numbering).
    pub fn edges(&self) -> &[[u32; 2]] {
        &self.edges
    }

    /// Dual-face area-weighted normals (oriented a→b): the x, y and z
    /// streams.
    pub fn normals(&self) -> [&[f64]; 3] {
        [&self.n[0], &self.n[1], &self.n[2]]
    }

    /// Coordinate deltas `x_b − x_a`: the x, y and z streams.
    pub fn deltas(&self) -> [&[f64]; 3] {
        [&self.r[0], &self.r[1], &self.r[2]]
    }

    /// Normal x component per edge.
    pub fn nx(&self) -> &[f64] {
        &self.n[0]
    }

    /// Normal y component per edge.
    pub fn ny(&self) -> &[f64] {
        &self.n[1]
    }

    /// Normal z component per edge.
    pub fn nz(&self) -> &[f64] {
        &self.n[2]
    }

    /// Delta x component per edge.
    pub fn rx(&self) -> &[f64] {
        &self.r[0]
    }

    /// Delta y component per edge.
    pub fn ry(&self) -> &[f64] {
        &self.r[1]
    }

    /// Delta z component per edge.
    pub fn rz(&self) -> &[f64] {
        &self.r[2]
    }

    /// Flops per edge of the optimized Roe flux kernel (counted once,
    /// used by the machine model's roofline).
    pub const FLUX_FLOPS_PER_EDGE: f64 = 345.0;

    /// Bytes streamed/gathered per edge by the flux kernel: 6 edge
    /// doubles + 2 endpoints (u32) + two gathered nodes (4 state + 12
    /// gradient doubles each) + two residual read-modify-writes.
    pub const FLUX_BYTES_PER_EDGE: f64 = (6.0 * 8.0) + 8.0 + 2.0 * 16.0 * 8.0 + 2.0 * 2.0 * 32.0;
}

/// An [`EdgeTiling`] together with the edge geometry permuted into its
/// color-major tile order: tile `t` owns the contiguous range
/// `tile_start[t] .. + tiles[t].edges.len()`, so the tiled kernels walk
/// every geometry array strictly sequentially — no per-edge id gather, and
/// the hardware prefetcher covers the whole stream. The endpoint pairs
/// travel with the permutation, so global scatter indices still come
/// straight out of `edges`. Built once per tiling, outside timed regions.
///
/// It owns the tiling it validated, read-only, because the tiled loops
/// rest on what [`EdgeTiling::validate`] checked: the permutation is one,
/// every tile's range lies inside the edge list and holds exactly the
/// tile's edges, its vertices are vertices and every endpoint of its
/// edges is one of them, and the tiles of one colour are vertex-disjoint
/// and every tile has one colour (what makes colour-parallel writes
/// exclusive).
#[derive(Clone, Debug)]
pub struct TiledGeom {
    geom: EdgeGeom,
    tiling: EdgeTiling,
}

impl TiledGeom {
    /// Validates `tiling` against `geom` ([`EdgeTiling::validate`]) and
    /// permutes `geom` into its tile order.
    pub fn try_new(tiling: EdgeTiling, geom: &EdgeGeom) -> Result<TiledGeom, GeomError> {
        tiling.validate(geom.nvertices(), geom.edges()).map_err(GeomError)?;
        Ok(TiledGeom { geom: geom.try_select(&tiling.perm)?, tiling })
    }

    /// [`TiledGeom::try_new`] for a tiling built from `geom`'s own edge
    /// list; panics with the error's message otherwise.
    pub fn new(tiling: EdgeTiling, geom: &EdgeGeom) -> TiledGeom {
        TiledGeom::try_new(tiling, geom).unwrap_or_else(|e| panic!("tiled geometry: {e}"))
    }

    /// The permuted geometry (tile-range order).
    #[inline]
    pub fn geom(&self) -> &EdgeGeom {
        &self.geom
    }

    /// The tiling the geometry was permuted for.
    #[inline]
    pub fn tiling(&self) -> &EdgeTiling {
        &self.tiling
    }
}

/// The mesh as each vertex sees it: a CSR of **half-edges**, what the
/// owner-computes Green-Gauss loop and the least-squares gradient gather
/// over. Row `v` lists, in edge order, every edge at `v` as (the other
/// endpoint, the dual-face normal oriented *out of* `v` — `−n` stored for
/// an edge's `b` side), then `v`'s boundary entries in table order as
/// half-edges to `v` itself (the face value `½(q_v + q_v)` is `q_v`
/// exactly, so the boundary closure is the same multiply-add as an edge).
/// Beside it, the inverse dual volume per row.
///
/// `rows() ≤ nvertices()`: a rank builds rows for its owned vertices only
/// and gathers from owned and ghost states alike. Invariant, established
/// by [`HalfEdges::try_build`]: offsets ascend from 0 to the half-edge
/// count, and every neighbour is `< nvertices()`.
#[derive(Clone, Debug)]
pub struct HalfEdges {
    nvertices: usize,
    start: Vec<u32>,
    nbr: Vec<u32>,
    normal: Vec<[f64; 3]>,
    inv_vol: Vec<f64>,
}

impl HalfEdges {
    /// The half-edges of the first `rows` vertices of `geom`, closed by
    /// the boundary table `bc`, with the dual volumes `vol` (one per
    /// vertex of `geom`) inverted. An edge endpoint `≥ rows` gets no row:
    /// it is a ghost, whose gradient another rank computes.
    pub fn try_build(
        geom: &EdgeGeom,
        bc: &BcData,
        vol: &[f64],
        rows: usize,
    ) -> Result<HalfEdges, GeomError> {
        let nv = geom.nvertices();
        if rows > nv || vol.len() != nv {
            return err(format!("{rows} rows and {} volumes for {nv} vertices", vol.len()));
        }
        let nbc = bc.len();
        if [bc.nx.len(), bc.ny.len(), bc.nz.len()] != [nbc; 3] {
            return err(format!("boundary normal streams are not all {nbc} long"));
        }
        if let Some(i) = bc.vertex.iter().position(|&v| v as usize >= rows) {
            return err(format!(
                "boundary entry {i}: vertex {} has none of the {rows} rows",
                bc.vertex[i]
            ));
        }
        let mut start = vec![0u32; rows + 1];
        let ends = geom.edges().iter().flatten().chain(&bc.vertex);
        for &v in ends.filter(|&&v| (v as usize) < rows) {
            start[v as usize + 1] += 1;
        }
        let mut total = 0u64;
        for s in start.iter_mut() {
            total += u64::from(*s);
            *s = u32::try_from(total)
                .map_err(|_| GeomError(format!("{total} half-edges do not fit a u32 offset")))?;
        }
        let mut cursor = start.clone();
        let mut nbr = vec![0u32; total as usize];
        let mut normal = vec![[0.0f64; 3]; total as usize];
        let mut push = |v: u32, other: u32, n: [f64; 3]| {
            if (v as usize) < rows {
                let at = &mut cursor[v as usize];
                nbr[*at as usize] = other;
                normal[*at as usize] = n;
                *at += 1;
            }
        };
        let [nx, ny, nz] = geom.normals();
        for (k, &[a, b]) in geom.edges().iter().enumerate() {
            push(a, b, [nx[k], ny[k], nz[k]]);
            push(b, a, [-nx[k], -ny[k], -nz[k]]);
        }
        for (i, &v) in bc.vertex.iter().enumerate() {
            push(v, v, [bc.nx[i], bc.ny[i], bc.nz[i]]);
        }
        let inv_vol = vol[..rows].iter().map(|v| 1.0 / v).collect();
        Ok(HalfEdges { nvertices: nv, start, nbr, normal, inv_vol })
    }

    /// [`HalfEdges::try_build`] with a row for every vertex, for a
    /// boundary table and volumes that belong to `geom`'s mesh; panics
    /// with the error's message otherwise.
    pub fn build(geom: &EdgeGeom, bc: &BcData, vol: &[f64]) -> HalfEdges {
        HalfEdges::try_build(geom, bc, vol, geom.nvertices())
            .unwrap_or_else(|e| panic!("half-edges: {e}"))
    }

    /// Vertices with a row.
    pub fn rows(&self) -> usize {
        self.inv_vol.len()
    }

    /// Vertices a neighbour can name (the length of the arrays gathered
    /// from).
    pub fn nvertices(&self) -> usize {
        self.nvertices
    }

    /// Row offsets: row `v` is `offsets()[v] .. offsets()[v + 1]`.
    pub fn offsets(&self) -> &[u32] {
        &self.start
    }

    /// The other endpoint of each half-edge (the row's own vertex for a
    /// boundary entry).
    pub fn neighbours(&self) -> &[u32] {
        &self.nbr
    }

    /// Each half-edge's normal, oriented out of its row's vertex.
    pub fn normals(&self) -> &[[f64; 3]] {
        &self.normal
    }

    /// `1 / V_v` per row.
    pub fn inv_volumes(&self) -> &[f64] {
        &self.inv_vol
    }
}

/// Raw view of a per-vertex output array (the residual, the gradient)
/// for the drivers whose write exclusivity the borrow checker cannot see:
/// owner-only writes across threads, vertex-disjoint colored tiles and
/// disjoint vertex ranges.
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

    /// Doubles viewed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The `w` doubles starting at `at`.
    ///
    /// # Safety
    /// `at + w <= self.len()` — the kernels prove it once per call, from
    /// the array's length and the vertex bound their validated index
    /// structure carries. And while the returned slice lives, nothing
    /// else reads or writes that range: the caller owns those vertices
    /// (owner-writes plan, tile coloring, vertex range) or is the only
    /// thread.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn row(&self, at: usize, w: usize) -> &mut [f64] {
        debug_assert!(at + w <= self.len);
        // SAFETY: in bounds and exclusive by the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(at), w) }
    }
}

/// Doubles per vertex of [`NodeAos::grad`].
pub const GRAD_ROW: usize = 12;

/// Where `∂q_c/∂x_d` (variable `c` of `(p,u,v,w)`, dimension `d`) sits in
/// a vertex's [`GRAD_ROW`]-entry gradient row: **dim-major**, the three
/// 4-vectors `∂q/∂x`, `∂q/∂y`, `∂q/∂z`, so that `row[grad_slot(0, d)..]`
/// is one vector load of `∂q/∂x_d`. The only place the layout is spelled.
#[inline(always)]
pub const fn grad_slot(c: usize, d: usize) -> usize {
    d * 4 + c
}

/// AoS node state: `q[v*4..v*4+4]` and `grad[v*12..v*12+12]` (the paper's
/// optimized layout).
#[derive(Clone, Debug)]
pub struct NodeAos {
    /// Interleaved state `(p,u,v,w)` per vertex.
    pub q: Vec<f64>,
    /// Interleaved gradients, [`GRAD_ROW`] per vertex, each row laid out
    /// by [`grad_slot`] (read single entries through [`NodeAos::dq`]).
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

    /// Gradient row of vertex `i`, laid out by [`grad_slot`].
    #[inline]
    pub fn gradient(&self, i: usize) -> &[f64] {
        &self.grad[i * GRAD_ROW..(i + 1) * GRAD_ROW]
    }

    /// `∂q_c/∂x_d` at vertex `v`.
    #[inline]
    pub fn dq(&self, v: usize, c: usize, d: usize) -> f64 {
        self.grad[v * GRAD_ROW + grad_slot(c, d)]
    }

    /// `∂q_c/∂x_d` at vertex `v`, to assign.
    #[inline]
    pub fn dq_mut(&mut self, v: usize, c: usize, d: usize) -> &mut f64 {
        &mut self.grad[v * GRAD_ROW + grad_slot(c, d)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::DualMesh;
    use fun3d_partition::TilingConfig;

    fn tiny() -> (Mesh, DualMesh, EdgeGeom) {
        let m = MeshPreset::Tiny.build();
        let d = DualMesh::build(&m);
        let g = EdgeGeom::build(&m, &d);
        (m, d, g)
    }

    /// `geom`'s parts, for a test to corrupt and hand back to `try_new`.
    type Parts = (Vec<[u32; 2]>, [Vec<f64>; 3], [Vec<f64>; 3]);
    fn parts(g: &EdgeGeom) -> Parts {
        (g.edges().to_vec(), g.normals().map(<[f64]>::to_vec), g.deltas().map(<[f64]>::to_vec))
    }

    #[test]
    fn edge_geom_matches_dual() {
        let (m, d, g) = tiny();
        assert_eq!(g.nedges(), d.nedges());
        assert_eq!(g.nvertices(), m.nvertices());
        for (k, e) in g.edges().iter().enumerate() {
            assert_eq!(g.nx()[k], d.edge_normal[k].x);
            let delta = m.coords[e[1] as usize] - m.coords[e[0] as usize];
            assert!((g.rx()[k] - delta.x).abs() < 1e-15);
            assert!((g.ry()[k] - delta.y).abs() < 1e-15);
            assert!((g.rz()[k] - delta.z).abs() < 1e-15);
        }
    }

    #[test]
    fn edge_geom_rejects_hostile_parts_naming_the_edge() {
        let (_, _, g) = tiny();
        let nv = g.nvertices();
        let (edges, n, r) = parts(&g);
        assert!(EdgeGeom::try_new(nv, edges.clone(), n.clone(), r.clone()).is_ok());
        // An endpoint one past the last vertex.
        let mut bad = edges.clone();
        bad[17][1] = nv as u32;
        let e = EdgeGeom::try_new(nv, bad, n.clone(), r.clone()).expect_err("endpoint = nv");
        assert!(e.to_string().starts_with("edge 17 = "), "{e}");
        // A short `nz`.
        let mut short = n.clone();
        short[2].pop();
        let e = EdgeGeom::try_new(nv, edges.clone(), short, r.clone()).expect_err("ragged nz");
        assert!(e.to_string().contains("stream nz has"), "{e}");
        // Dual metrics of another mesh: an error value at build time.
        let (m, mut d, _) = tiny();
        d.edges[3] = [0, nv as u32];
        let e = EdgeGeom::try_build(&m, &d).expect_err("foreign dual");
        assert!(e.to_string().starts_with("edge 3 = "), "{e}");
        let e = g.try_select(&[0, g.nedges() as u32]).expect_err("id = ne");
        assert!(e.to_string().contains("position 1"), "{e}");
    }

    #[test]
    fn tiled_geom_permutes_and_rejects_hostile_tilings() {
        let (_, _, g) = tiny();
        let build = || {
            EdgeTiling::build(g.nvertices(), g.edges(), &TilingConfig::with_target_bytes(4096))
        };
        let tg = TiledGeom::new(build(), &g);
        assert!(tg.tiling().ntiles() > 1, "premise: several tiles");
        for (p, &k) in tg.tiling().perm.iter().enumerate() {
            assert_eq!(tg.geom().edges()[p], g.edges()[k as usize]);
            assert_eq!(tg.geom().nz()[p], g.nz()[k as usize]);
        }
        let reject = |hostile: EdgeTiling, what: &str| {
            let e = TiledGeom::try_new(hostile, &g).expect_err(what);
            assert!(e.to_string().contains(what), "{what}: {e}");
        };
        // A tile edge whose endpoint is not one of the tile's vertices:
        // the colouring would no longer make its write the tile's own.
        let mut t = build();
        let end = g.edges()[t.tiles[1].edges[0] as usize][1];
        t.tiles[1].verts.retain(|&v| v != end);
        reject(t, &format!("tile 1, edge 0: endpoint {end} is not one of the tile's vertices"));
        // A permutation that repeats an edge, an edge id = ne, a range
        // that runs off the list (the colouring's hostile cases are with
        // `EdgeTiling::validate`'s own tests).
        let mut t = build();
        t.perm[1] = t.perm[0];
        reject(t, "occurs twice");
        let mut t = build();
        t.perm[0] = g.nedges() as u32;
        reject(t, "edge id");
        let mut t = build();
        *t.tile_start.iter_mut().max().unwrap() += 1;
        reject(t, "range from");
    }

    #[test]
    fn half_edges_list_each_vertex_in_edge_order_and_reject_hostile_tables() {
        let (_, d, g) = tiny();
        let bc = BcData::build(&d);
        let h = HalfEdges::build(&g, &bc, &d.vol);
        assert_eq!(h.rows(), g.nvertices());
        assert_eq!(h.neighbours().len(), 2 * g.nedges() + bc.len());
        assert_eq!(*h.offsets().last().unwrap() as usize, h.neighbours().len());
        // Row by row: the edges at v in edge order with the normal
        // pointing out of v, then v's boundary entries as self-edges.
        let mut want: Vec<Vec<(u32, [f64; 3])>> = vec![Vec::new(); g.nvertices()];
        for (k, &[a, b]) in g.edges().iter().enumerate() {
            let n = [g.nx()[k], g.ny()[k], g.nz()[k]];
            want[a as usize].push((b, n));
            want[b as usize].push((a, n.map(|x| -x)));
        }
        for i in 0..bc.len() {
            want[bc.vertex[i] as usize].push((bc.vertex[i], [bc.nx[i], bc.ny[i], bc.nz[i]]));
        }
        for (v, want) in want.iter().enumerate() {
            let row = h.offsets()[v] as usize..h.offsets()[v + 1] as usize;
            let got: Vec<_> =
                h.neighbours()[row.clone()].iter().copied().zip(h.normals()[row].iter().copied()).collect();
            assert_eq!(&got, want, "row {v}");
            assert_eq!(h.inv_volumes()[v], 1.0 / d.vol[v]);
        }
        // Fewer rows than vertices (a rank's owned prefix): the other
        // endpoints keep their ids, and a boundary entry needs a row.
        let rows = g.nvertices() / 2;
        let mut owned = bc.clone();
        let keep: Vec<usize> = (0..bc.len()).filter(|&i| (bc.vertex[i] as usize) < rows).collect();
        owned.vertex = keep.iter().map(|&i| bc.vertex[i]).collect();
        owned.nx = keep.iter().map(|&i| bc.nx[i]).collect();
        owned.ny = keep.iter().map(|&i| bc.ny[i]).collect();
        owned.nz = keep.iter().map(|&i| bc.nz[i]).collect();
        owned.tag = keep.iter().map(|&i| bc.tag[i]).collect();
        let part = HalfEdges::try_build(&g, &owned, &d.vol, rows).expect("owned prefix");
        assert_eq!((part.rows(), part.nvertices()), (rows, g.nvertices()));
        assert_eq!(part.offsets()[..rows + 1], h.offsets()[..rows + 1]);
        let e = HalfEdges::try_build(&g, &bc, &d.vol, rows).expect_err("boundary vertex without a row");
        assert!(e.to_string().starts_with("boundary entry "), "{e}");
        let e = HalfEdges::try_build(&g, &bc, &d.vol[1..], g.nvertices()).expect_err("short volumes");
        assert!(e.to_string().contains("volumes for"), "{e}");
        let mut ragged = bc.clone();
        ragged.nz.pop();
        assert!(HalfEdges::try_build(&g, &ragged, &d.vol, g.nvertices()).is_err());
    }

    #[test]
    fn gradient_rows_are_dim_major() {
        // `∂q/∂x_d` of a vertex is four contiguous doubles, `d` apart by 4.
        let mut aos = NodeAos::zeros(3);
        *aos.dq_mut(2, 1, 2) = 7.0;
        assert_eq!(aos.gradient(2)[grad_slot(0, 2) + 1], 7.0);
        assert_eq!(aos.grad[2 * GRAD_ROW + 9], 7.0);
        assert_eq!(aos.dq(2, 1, 2), 7.0);
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
