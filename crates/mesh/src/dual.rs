//! Median-dual control-volume metrics.
//!
//! For a vertex-centered scheme the control volume of vertex `v` is its
//! median-dual cell: inside each incident tet, the region bounded by the
//! planes through edge midpoints, face centroids and the tet centroid.
//! Three geometric quantities drive the discretization:
//!
//! * **edge dual-face area vectors** `s_e`: the directed area of the dual
//!   face crossed by edge `e = (a, b)`, oriented from `a` to `b`. Each tet
//!   containing the edge contributes the quadrilateral (edge midpoint →
//!   face centroid → tet centroid → other face centroid);
//! * **vertex dual volumes** `V_v`: each tet donates a quarter of its
//!   volume to each of its vertices (exact for the median dual);
//! * **boundary vertex normals**: each outward-wound boundary triangle
//!   donates a third of its directed area to each of its vertices, split
//!   per BC tag.
//!
//! The discrete Gauss identity ties them together: for every vertex,
//! `Σ_out s_e − Σ_in s_e + n_bnd(v) = 0`. Free-stream preservation of the
//! flux scheme is a corollary, and the property tests below enforce it.

use crate::bucket::Buckets;
use crate::{BcTag, Mesh, Vec3};

/// Signed volume of the tet `(a, b, c, d)`; positive when `d` lies on the
/// positive side of triangle `(a, b, c)`.
#[inline]
pub(crate) fn tet_volume(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    (b - a).cross(c - a).dot(d - a) / 6.0
}

/// Directed area of triangle `(a, b, c)` (right-hand rule, magnitude =
/// area).
#[inline]
pub(crate) fn tri_area_vec(a: Vec3, b: Vec3, c: Vec3) -> Vec3 {
    (b - a).cross(c - a) * 0.5
}

/// Per-vertex aggregated boundary normal for one BC tag.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryNormal {
    /// Vertex index.
    pub vertex: u32,
    /// Outward area-weighted normal (sum of tri-area/3 contributions).
    pub normal: Vec3,
    /// Which boundary this belongs to.
    pub tag: BcTag,
}

/// The median-dual metric data for a tetrahedral mesh.
#[derive(Clone, Debug)]
pub struct DualMesh {
    /// Unique mesh edges `[lo, hi]`, `lo < hi`, lexicographically sorted.
    pub edges: Vec<[u32; 2]>,
    /// Directed dual-face area per edge, oriented `lo → hi`.
    pub edge_normal: Vec<Vec3>,
    /// Median-dual volume per vertex.
    pub vol: Vec<f64>,
    /// Aggregated outward boundary normals, one entry per (vertex, tag)
    /// pair that occurs on the boundary.
    pub boundary: Vec<BoundaryNormal>,
}

/// The six edges of a tet in local indices, each quadruple
/// `(i, j, k, l)` an even permutation of `(0, 1, 2, 3)`; `k` and `l`
/// identify the two faces `(i, j, k)` and `(i, j, l)` flanking the edge.
const TET_EDGES: [[usize; 4]; 6] = [
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [1, 2, 0, 3],
    [1, 3, 2, 0],
    [2, 3, 0, 1],
];

impl DualMesh {
    /// Computes all dual metrics for `mesh`. Tets with non-positive volume
    /// are re-oriented on the fly (the generator always produces positive
    /// tets, but external meshes may not).
    pub fn build(mesh: &Mesh) -> DualMesh {
        let edges = mesh.edges();
        let edge_index = EdgeIndex::new(&edges, mesh.nvertices());
        let mut edge_normal = vec![Vec3::ZERO; edges.len()];
        let mut vol = vec![0.0; mesh.nvertices()];

        for tet in &mesh.tets {
            let mut t = *tet;
            let mut p = [
                mesh.coords[t[0] as usize],
                mesh.coords[t[1] as usize],
                mesh.coords[t[2] as usize],
                mesh.coords[t[3] as usize],
            ];
            let mut v6 = tet_volume(p[0], p[1], p[2], p[3]);
            if v6 < 0.0 {
                t.swap(2, 3);
                p.swap(2, 3);
                v6 = -v6;
            }
            let quarter = v6 / 4.0;
            for &vi in &t {
                vol[vi as usize] += quarter;
            }
            let centroid = (p[0] + p[1] + p[2] + p[3]) / 4.0;
            for le in &TET_EDGES {
                let (i, j, k, l) = (le[0], le[1], le[2], le[3]);
                let m = (p[i] + p[j]) * 0.5;
                let g1 = (p[i] + p[j] + p[k]) / 3.0;
                let g2 = (p[i] + p[j] + p[l]) / 3.0;
                // Directed area of the planar-fan quad m → g1 → c → g2,
                // oriented from local vertex i toward j for an even
                // permutation (validated by the closure tests).
                let area = tri_area_vec(m, g1, centroid) + tri_area_vec(m, centroid, g2);
                let (a, b) = (t[i], t[j]);
                let (eid, flip) = edge_index.lookup(a, b);
                edge_normal[eid] += if flip { -area } else { area };
            }
        }

        let boundary = aggregate_boundary(mesh);

        DualMesh {
            edges,
            edge_normal,
            vol,
            boundary,
        }
    }

    /// Number of edges.
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices.
    pub(crate) fn nvertices(&self) -> usize {
        self.vol.len()
    }

    /// Maximum closure defect `‖Σ s_e + n_bnd‖` over all vertices; zero up
    /// to rounding for a valid mesh. Exposed so integration tests and the
    /// generator's self-check can assert mesh validity.
    pub fn max_closure_defect(&self) -> f64 {
        let mut defect = vec![Vec3::ZERO; self.nvertices()];
        for (e, &n) in self.edges.iter().zip(&self.edge_normal) {
            defect[e[0] as usize] += n;
            defect[e[1] as usize] -= n;
        }
        for b in &self.boundary {
            defect[b.vertex as usize] += b.normal;
        }
        defect.iter().map(|d| d.norm()).fold(0.0, f64::max)
    }
}

/// Maps an unordered vertex pair to its edge id, via per-vertex sorted
/// neighbor lists (CSR); O(log degree) per lookup.
struct EdgeIndex {
    xadj: Vec<usize>,
    adj: Vec<u32>,
    eid: Vec<usize>,
}

impl EdgeIndex {
    fn new(edges: &[[u32; 2]], nvertices: usize) -> Self {
        // Only the lo→hi direction is stored: lookups normalize first.
        let mut degree = vec![0usize; nvertices];
        for e in edges {
            degree[e[0] as usize] += 1;
        }
        let mut xadj = vec![0usize; nvertices + 1];
        for v in 0..nvertices {
            xadj[v + 1] = xadj[v] + degree[v];
        }
        let mut adj = vec![0u32; edges.len()];
        let mut eid = vec![0usize; edges.len()];
        let mut cursor = xadj.clone();
        for (id, e) in edges.iter().enumerate() {
            let lo = e[0] as usize;
            adj[cursor[lo]] = e[1];
            eid[cursor[lo]] = id;
            cursor[lo] += 1;
        }
        // edges are lexicographically sorted, so each bucket is sorted too.
        EdgeIndex { xadj, adj, eid }
    }

    /// Returns `(edge id, flipped)` where `flipped` is true when the query
    /// direction `a→b` is opposite the stored `lo→hi` orientation.
    fn lookup(&self, a: u32, b: u32) -> (usize, bool) {
        let (lo, hi, flip) = if a < b { (a, b, false) } else { (b, a, true) };
        let lo = lo as usize;
        let bucket = &self.adj[self.xadj[lo]..self.xadj[lo + 1]];
        let k = bucket.binary_search(&hi).expect("edge must exist");
        (self.eid[self.xadj[lo] + k], flip)
    }
}

/// Sums each boundary triangle's third of its directed area into its
/// three vertices, one normal per (vertex, tag), sorted by vertex then
/// tag. The triangles are grouped by vertex in one counting-sort pass,
/// which keeps them in mesh order, so every normal is summed in the
/// order the triangles are listed.
fn aggregate_boundary(mesh: &Mesh) -> Vec<BoundaryNormal> {
    let thirds: Vec<Vec3> = mesh
        .boundary
        .iter()
        .map(|tri| {
            let [a, b, c] = tri.verts.map(|v| mesh.coords[v as usize]);
            tri_area_vec(a, b, c) / 3.0
        })
        .collect();
    let by_vertex = Buckets::new(
        mesh.nvertices(),
        mesh.boundary
            .iter()
            .enumerate()
            .flat_map(|(i, tri)| tri.verts.map(|v| (v, i as u32))),
    );
    let mut out = Vec::new();
    for vertex in 0..by_vertex.nkeys() {
        let mut sums: [Option<Vec3>; TAGS.len()] = [None; TAGS.len()];
        for &i in by_vertex.get(vertex) {
            let sum = sums[mesh.boundary[i as usize].tag as usize].get_or_insert(Vec3::ZERO);
            *sum += thirds[i as usize];
        }
        for (tag, sum) in TAGS.into_iter().zip(sums) {
            if let Some(normal) = sum {
                out.push(BoundaryNormal { vertex: vertex as u32, normal, tag });
            }
        }
    }
    out
}

/// Every boundary tag, in the order of its discriminant.
const TAGS: [BcTag; 3] = [BcTag::FarField, BcTag::SlipWall, BcTag::Symmetry];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{single_tet, BoundaryTri};

    /// Boundary normals as they were first summed: one hash-map entry per
    /// (vertex, tag). The oracle for the bucketed pass, bit for bit.
    fn reference_boundary(mesh: &Mesh) -> Vec<BoundaryNormal> {
        let mut acc: std::collections::HashMap<(u32, BcTag), Vec3> = Default::default();
        for tri in &mesh.boundary {
            let [a, b, c] = tri.verts.map(|v| mesh.coords[v as usize]);
            let third = tri_area_vec(a, b, c) / 3.0;
            for &v in &tri.verts {
                *acc.entry((v, tri.tag)).or_insert(Vec3::ZERO) += third;
            }
        }
        let mut out: Vec<BoundaryNormal> = acc
            .into_iter()
            .map(|((vertex, tag), normal)| BoundaryNormal { vertex, normal, tag })
            .collect();
        out.sort_by_key(|b| (b.vertex, b.tag as u8));
        out
    }

    fn bits(normals: &[BoundaryNormal]) -> Vec<(u32, BcTag, [u64; 3])> {
        normals
            .iter()
            .map(|b| (b.vertex, b.tag, [b.normal.x, b.normal.y, b.normal.z].map(f64::to_bits)))
            .collect()
    }

    fun3d_util::prop_cases! {
        fn bucketed_boundary_normals_are_the_hash_map_oracle(g, cases = 64) {
            // A tet soup's triangles under random tags; repeats and a
            // vertex on several tags included.
            let mut m = crate::tet_soup(g);
            let ntris = g.usize_range(0, 40);
            for _ in 0..ntris {
                let verts = [0; 3].map(|_| g.usize_range(0, m.nvertices()) as u32);
                let tag = TAGS[g.usize_range(0, TAGS.len())];
                m.boundary.push(BoundaryTri { verts, tag });
            }
            fun3d_util::prop_assert_eq!(bits(&aggregate_boundary(&m)), bits(&reference_boundary(&m)));
        }
    }

    #[test]
    fn tags_are_listed_in_discriminant_order() {
        for (i, tag) in TAGS.into_iter().enumerate() {
            assert_eq!(tag as usize, i);
        }
    }

    #[test]
    fn tet_volume_reference() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let d = Vec3::new(0.0, 0.0, 1.0);
        assert!((tet_volume(a, b, c, d) - 1.0 / 6.0).abs() < 1e-15);
        assert!((tet_volume(a, c, b, d) + 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn tri_area_reference() {
        let a = Vec3::ZERO;
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let s = tri_area_vec(a, b, c);
        assert_eq!(s, Vec3::new(0.0, 0.0, 0.5));
    }

    #[test]
    fn dual_volumes_sum_to_mesh_volume() {
        let m = single_tet();
        let d = DualMesh::build(&m);
        let total: f64 = d.vol.iter().sum();
        assert!((total - m.total_volume()).abs() < 1e-14);
        // Median dual on a single tet: each vertex gets exactly a quarter.
        for &v in &d.vol {
            assert!((v - m.total_volume() / 4.0).abs() < 1e-14);
        }
    }

    #[test]
    fn edge_normals_oriented_lo_to_hi() {
        // For the reference tet, each dual face normal must have positive
        // dot product with the edge direction lo → hi.
        let m = single_tet();
        let d = DualMesh::build(&m);
        for (e, &n) in d.edges.iter().zip(&d.edge_normal) {
            let dir = m.coords[e[1] as usize] - m.coords[e[0] as usize];
            assert!(
                n.dot(dir) > 0.0,
                "edge {e:?} normal {n:?} points against the edge"
            );
        }
    }

    #[test]
    fn closure_identity_single_tet() {
        let m = single_tet();
        let d = DualMesh::build(&m);
        assert!(
            d.max_closure_defect() < 1e-13,
            "defect {}",
            d.max_closure_defect()
        );
    }

    #[test]
    fn closure_identity_two_tets() {
        // Two tets glued on a face; boundary = the 6 outer faces.
        use crate::BoundaryTri;
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let tets = vec![[0, 1, 2, 3], [1, 2, 3, 4]];
        // Verify orientations are positive before trusting windings.
        for t in &tets {
            assert!(
                tet_volume(
                    coords[t[0] as usize],
                    coords[t[1] as usize],
                    coords[t[2] as usize],
                    coords[t[3] as usize]
                ) > 0.0
            );
        }
        let boundary = vec![
            BoundaryTri { verts: [0, 2, 1], tag: BcTag::SlipWall },
            BoundaryTri { verts: [0, 1, 3], tag: BcTag::SlipWall },
            BoundaryTri { verts: [0, 3, 2], tag: BcTag::SlipWall },
            BoundaryTri { verts: [1, 2, 4], tag: BcTag::SlipWall },
            BoundaryTri { verts: [1, 4, 3], tag: BcTag::SlipWall },
            BoundaryTri { verts: [2, 3, 4], tag: BcTag::SlipWall },
        ];
        let m = Mesh { coords, tets, boundary };
        let d = DualMesh::build(&m);
        assert!(
            d.max_closure_defect() < 1e-13,
            "defect {}",
            d.max_closure_defect()
        );
        let total: f64 = d.vol.iter().sum();
        assert!((total - m.total_volume()).abs() < 1e-14);
    }

    #[test]
    fn negative_tet_reoriented() {
        // Same single tet but stored with negative orientation: metrics
        // must come out identical.
        let mut m = single_tet();
        let good = DualMesh::build(&m);
        m.tets[0] = [0, 2, 1, 3];
        let fixed = DualMesh::build(&m);
        let total: f64 = fixed.vol.iter().sum();
        assert!((total - 1.0 / 6.0).abs() < 1e-14);
        for (a, b) in good.edge_normal.iter().zip(&fixed.edge_normal) {
            assert!((*a - *b).norm() < 1e-14);
        }
    }

    #[test]
    fn boundary_normals_aggregate_per_tag() {
        let m = single_tet();
        let d = DualMesh::build(&m);
        // Every vertex lies on the boundary; total outward area over all
        // vertices equals total surface area vector = 0 for a closed body.
        let sum = d
            .boundary
            .iter()
            .fold(Vec3::ZERO, |acc, b| acc + b.normal);
        assert!(sum.norm() < 1e-14);
    }
}
