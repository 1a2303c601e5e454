//! Tetrahedral, vertex-centered unstructured meshes.
//!
//! FUN3D (Anderson & Bonhaus) is a tetrahedral vertex-centered code: the
//! unknowns live at mesh vertices, and the control volumes are the cells
//! of the **median dual** — each vertex's volume is bounded by pieces of
//! the surfaces that bisect the edges of its incident tetrahedra. Fluxes
//! are exchanged *per edge*, through the dual face associated with that
//! edge, which is why the hot loops of the application are edge-based.
//!
//! The paper's meshes (ONERA M6 wing, "Mesh-C" with 3.58e5 vertices /
//! 2.40e6 edges and "Mesh-D" with 2.76e6 / 1.89e7) are not publicly
//! available, so [`generator`] synthesizes an equivalent workload: a
//! channel with a swept, tapered wing-shaped bump, meshed with a
//! structured curvilinear hex grid split into tetrahedra (Kuhn
//! subdivision, which tiles conformingly), vertices jittered and then
//! randomly permuted so all structure must be rediscovered by reordering
//! — the same path a genuinely unstructured mesh takes. The resulting
//! edge-per-vertex ratio (~6.7) matches the paper's meshes.
//!
//! [`DualMesh`] computes the median-dual metrics (edge dual-face area
//! vectors, vertex dual volumes, boundary vertex normals) and the discrete
//! closure identities the flux discretization relies on. [`rcm`]
//! implements Reverse Cuthill-McKee, and [`Mesh::edges`] the edge sorting
//! the paper applies for locality.

#![deny(unreachable_pub)]

mod bucket;
mod dual;
pub mod generator;
mod graph;
mod reorder;
mod stats;
mod vec3;

pub use dual::{BoundaryNormal, DualMesh};
pub use generator::{ChannelSpec, MeshPreset};
pub use graph::Graph;
pub use reorder::rcm;
pub use stats::MeshStats;
pub use vec3::Vec3;

use bucket::Buckets;

/// The six edges of a tet as pairs of local vertex indices.
const TET_EDGE_ENDS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// Boundary-condition tag for a boundary face.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BcTag {
    /// Characteristic far-field (inflow/outflow) boundary.
    FarField,
    /// Inviscid slip wall (the wing surface / channel floor).
    SlipWall,
    /// Symmetry plane (treated identically to a slip wall for Euler).
    Symmetry,
}

/// A boundary triangle with its tag. Vertices are ordered so the triangle
/// normal points *out* of the domain.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryTri {
    /// The three vertex indices, outward-wound.
    pub verts: [u32; 3],
    /// The kind of boundary this face belongs to.
    pub tag: BcTag,
}

/// A tetrahedral mesh: vertex coordinates, positively-oriented tets, and
/// tagged boundary triangles.
#[derive(Clone, Debug)]
pub struct Mesh {
    /// Vertex coordinates.
    pub coords: Vec<Vec3>,
    /// Tetrahedra as vertex quadruples, oriented with positive volume.
    pub tets: Vec<[u32; 4]>,
    /// Boundary triangles, outward-wound, with BC tags.
    pub boundary: Vec<BoundaryTri>,
}

impl Mesh {
    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of tetrahedra.
    pub(crate) fn ntets(&self) -> usize {
        self.tets.len()
    }

    /// Extracts the unique undirected edge list, each edge stored as
    /// `[lo, hi]` with `lo < hi`, sorted lexicographically — the paper's
    /// "vertices at one end of each edge are sorted in an increasing
    /// order" normalization.
    ///
    /// One counting-sort pass groups the six edges of every tet by their
    /// low vertex. Each group (a few dozen entries, most of them repeats)
    /// is deduplicated through a marker row and only its distinct high
    /// ends are sorted, so the whole list is never compared.
    pub fn edges(&self) -> Vec<[u32; 2]> {
        let n = self.nvertices();
        let by_lo = Buckets::new(
            n,
            self.tets.iter().flat_map(|t| {
                TET_EDGE_ENDS.iter().map(move |&(a, b)| (t[a].min(t[b]), t[a].max(t[b])))
            }),
        );
        // `last_lo[hi] == lo` once edge (lo, hi) is in the list.
        let mut last_lo = vec![u32::MAX; n];
        let mut edges = Vec::with_capacity(by_lo.len() / 4);
        for lo in 0..n {
            let first = edges.len();
            for &hi in by_lo.get(lo) {
                if last_lo[hi as usize] != lo as u32 {
                    last_lo[hi as usize] = lo as u32;
                    edges.push([lo as u32, hi]);
                }
            }
            edges[first..].sort_unstable();
        }
        edges
    }

    /// Builds the vertex adjacency graph from the edge list.
    pub fn vertex_graph(&self) -> Graph {
        Graph::from_edges(self.nvertices(), &self.edges())
    }

    /// Applies a vertex renumbering: vertex `v` becomes `perm[v]`.
    /// Tets and boundary faces are rewritten; coordinates are moved.
    ///
    /// Panics, leaving the mesh as it was, unless `perm` is a bijection
    /// on `0..nvertices`: the message names the first target that is out
    /// of range or repeated.
    pub fn renumber(&mut self, perm: &[usize]) {
        let n = self.nvertices();
        assert_eq!(perm.len(), n, "renumber: permutation length != vertex count");
        let mut coords = vec![Vec3::ZERO; n];
        let mut taken = vec![false; n];
        for (old, &new) in perm.iter().enumerate() {
            assert!(new < n, "renumber: vertex {old} maps to {new}, out of range 0..{n}");
            assert!(
                !std::mem::replace(&mut taken[new], true),
                "renumber: vertex {old} maps to {new}, which an earlier vertex already took"
            );
            coords[new] = self.coords[old];
        }
        self.coords = coords;
        for t in &mut self.tets {
            for v in t.iter_mut() {
                *v = perm[*v as usize] as u32;
            }
        }
        for b in &mut self.boundary {
            for v in b.verts.iter_mut() {
                *v = perm[*v as usize] as u32;
            }
        }
    }

    /// Total volume of all tets (= volume of the meshed domain).
    pub fn total_volume(&self) -> f64 {
        self.tets
            .iter()
            .map(|t| {
                dual::tet_volume(
                    self.coords[t[0] as usize],
                    self.coords[t[1] as usize],
                    self.coords[t[2] as usize],
                    self.coords[t[3] as usize],
                )
            })
            .sum()
    }
}

#[cfg(test)]
pub(crate) fn single_tet() -> Mesh {
    let coords = vec![
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
    ];
    // Outward-wound boundary faces of the positively-oriented tet.
    let boundary = vec![
        BoundaryTri { verts: [0, 2, 1], tag: BcTag::SlipWall },
        BoundaryTri { verts: [0, 1, 3], tag: BcTag::SlipWall },
        BoundaryTri { verts: [0, 3, 2], tag: BcTag::SlipWall },
        BoundaryTri { verts: [1, 2, 3], tag: BcTag::SlipWall },
    ];
    Mesh {
        coords,
        tets: vec![[0, 1, 2, 3]],
        boundary,
    }
}

/// A random tet soup for the property tests of set-up's grouping passes:
/// up to 40 vertices with random coordinates (some used by no tet), up to
/// 30 tets of four distinct vertices each listed in a random order (so
/// either orientation), and, now and then, a tet repeated from earlier in
/// the list. No tets at all is one of the cases.
#[cfg(test)]
pub(crate) fn tet_soup(g: &mut fun3d_util::Gen) -> Mesh {
    let nv = g.usize_range(4, 40);
    let coords = (0..nv)
        .map(|_| Vec3::new(g.f64_range(-1.0, 1.0), g.f64_range(-1.0, 1.0), g.f64_range(-1.0, 1.0)))
        .collect();
    let ntets = g.usize_range(0, 30);
    let mut tets: Vec<[u32; 4]> = Vec::with_capacity(ntets);
    for _ in 0..ntets {
        if !tets.is_empty() && g.usize_range(0, 8) == 0 {
            let again = tets[g.usize_range(0, tets.len())];
            tets.push(again);
            continue;
        }
        let mut t = [0u32; 4];
        for i in 0..4 {
            t[i] = loop {
                let v = g.usize_range(0, nv) as u32;
                if !t[..i].contains(&v) {
                    break v;
                }
            };
        }
        tets.push(t);
    }
    Mesh { coords, tets, boundary: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The edge list as it was first written: all 6 × ntets pairs, one
    /// comparison sort, one dedup. The oracle for the bucketed pass.
    fn reference_edges(mesh: &Mesh) -> Vec<[u32; 2]> {
        let mut edges: Vec<[u32; 2]> = Vec::with_capacity(mesh.tets.len() * 6);
        for t in &mesh.tets {
            for (a, b) in TET_EDGE_ENDS {
                let (u, v) = (t[a], t[b]);
                edges.push(if u < v { [u, v] } else { [v, u] });
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    fun3d_util::prop_cases! {
        fn bucketed_edges_are_the_sorted_dedup_oracle(g, cases = 64) {
            let mesh = tet_soup(g);
            fun3d_util::prop_assert_eq!(mesh.edges(), reference_edges(&mesh));
        }
    }

    #[test]
    fn no_tets_no_edges() {
        let mut m = single_tet();
        m.tets.clear();
        assert!(m.edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "vertex 2 maps to 1, which an earlier vertex already took")]
    fn renumber_rejects_a_repeated_target() {
        let mut m = single_tet();
        m.renumber(&[0, 1, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "vertex 1 maps to 4, out of range 0..4")]
    fn renumber_rejects_a_target_out_of_range() {
        let mut m = single_tet();
        m.renumber(&[0, 4, 1, 2]);
    }

    #[test]
    fn a_rejected_renumbering_leaves_the_mesh_alone() {
        let mut m = single_tet();
        let before = m.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.renumber(&[3, 3, 1, 0])));
        assert!(caught.is_err());
        assert_eq!((m.coords, m.tets), (before.coords, before.tets));
    }

    #[test]
    fn single_tet_edges() {
        let m = single_tet();
        let e = m.edges();
        assert_eq!(e.len(), 6);
        assert_eq!(e[0], [0, 1]);
        assert!(e.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
    }

    #[test]
    fn edges_deduplicated_between_tets() {
        // Two tets sharing face (1,2,3): edges of the shared face counted once.
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let m = Mesh {
            coords,
            tets: vec![[0, 1, 2, 3], [4, 1, 3, 2]],
            boundary: vec![],
        };
        // 6 + 6 - 3 shared = 9 unique edges
        assert_eq!(m.edges().len(), 9);
    }

    #[test]
    fn renumber_is_consistent() {
        let mut m = single_tet();
        let before_vol = m.total_volume();
        m.renumber(&[3, 2, 1, 0]);
        assert!((m.total_volume() - before_vol).abs() < 1e-14);
        assert_eq!(m.coords[3], Vec3::new(0.0, 0.0, 0.0));
        assert_eq!(m.edges().len(), 6);
    }

    #[test]
    fn total_volume_of_reference_tet() {
        let m = single_tet();
        assert!((m.total_volume() - 1.0 / 6.0).abs() < 1e-14);
    }
}
