//! Synthetic unstructured-mesh generator.
//!
//! Stand-in for the paper's ONERA M6 wing meshes (see DESIGN.md,
//! *Substitutions*): a rectangular channel whose floor carries a swept,
//! tapered, smoothly-capped wing-shaped bump. A structured curvilinear hex
//! grid is fitted to the geometry, every hex is split into six tetrahedra
//! with the Kuhn subdivision (identical in every cell, hence conforming
//! across cell faces), interior vertices are jittered in parametric space
//! to break any residual regularity, and finally the vertex numbering is
//! scrambled with a seeded permutation so the delivered mesh behaves like
//! an arbitrary-order unstructured mesh file — locality must be recovered
//! by RCM, exactly as the paper does.
//!
//! The Kuhn split gives interior vertices 14 neighbors, i.e. ~7 edges per
//! vertex, matching the paper's meshes (2.40e6 edges / 3.58e5 vertices ≈
//! 6.7).

use crate::bucket::Buckets;
use crate::{BcTag, BoundaryTri, Mesh, Vec3};
use fun3d_util::Rng64;

/// Geometry and resolution of the synthetic channel-with-wing mesh.
#[derive(Clone, Copy, Debug)]
pub struct ChannelSpec {
    /// Grid points along x (streamwise).
    pub ni: usize,
    /// Grid points along y (spanwise).
    pub nj: usize,
    /// Grid points along z (wall-normal).
    pub nk: usize,
    /// Channel length.
    pub lx: f64,
    /// Channel span.
    pub ly: f64,
    /// Channel height.
    pub lz: f64,
    /// Chord of the bump at the root (y = 0).
    pub chord: f64,
    /// Leading-edge position of the bump at the root.
    pub x_le: f64,
    /// Maximum bump height (fraction of `lz` is up to the caller).
    pub thickness: f64,
    /// Spanwise extent of the bump; the cap is smooth at the tip.
    pub span: f64,
    /// Leading-edge sweep: dx of the leading edge per unit y.
    pub sweep: f64,
    /// Taper: chord at the tip is `chord * (1 - taper)`.
    pub taper: f64,
    /// Wall-normal clustering strength for the tanh stretching (0 = none).
    pub cluster: f64,
    /// Parametric jitter amplitude as a fraction of one grid step
    /// (0 ≤ jitter < 0.5 keeps the mapping injective).
    pub jitter: f64,
    /// Scramble the vertex numbering with a seeded random permutation.
    pub scramble: bool,
    /// RNG seed for jitter and scrambling.
    pub seed: u64,
}

impl ChannelSpec {
    /// A spec with the given resolution and the default wing geometry.
    pub fn with_resolution(ni: usize, nj: usize, nk: usize) -> Self {
        ChannelSpec {
            ni,
            nj,
            nk,
            lx: 4.0,
            ly: 2.0,
            lz: 2.0,
            chord: 1.0,
            x_le: 1.2,
            thickness: 0.12,
            span: 1.4,
            sweep: 0.55,
            taper: 0.45,
            cluster: 1.4,
            jitter: 0.18,
            scramble: true,
            seed: 0x00F0_4D3D,
        }
    }

    /// Height of the channel floor (bump) at `(x, y)`.
    pub(crate) fn floor(&self, x: f64, y: f64) -> f64 {
        if y >= self.span {
            return 0.0;
        }
        // Smooth spanwise cap and linear taper/sweep.
        let eta = y / self.span;
        let cap = (std::f64::consts::FRAC_PI_2 * eta).cos().powi(2);
        let chord = self.chord * (1.0 - self.taper * eta);
        let x_le = self.x_le + self.sweep * y;
        let xi = (x - x_le) / chord;
        if !(0.0..=1.0).contains(&xi) {
            return 0.0;
        }
        let profile = (std::f64::consts::PI * xi).sin().powi(2);
        self.thickness * cap * profile
    }

    /// Wall-normal stretching: maps `c ∈ [0,1]` to `[0,1]`, clustering
    /// points toward the wall when `cluster > 0`.
    fn stretch(&self, c: f64) -> f64 {
        if self.cluster <= 0.0 {
            c
        } else {
            (self.cluster * c).tanh() / self.cluster.tanh()
        }
    }

    /// Maps jittered parametric coordinates to physical space.
    fn map(&self, a: f64, b: f64, c: f64) -> Vec3 {
        let x = self.lx * a;
        let y = self.ly * b;
        let h = self.floor(x, y);
        let z = h + (self.lz - h) * self.stretch(c);
        Vec3::new(x, y, z)
    }

    /// Generates the mesh.
    pub fn build(&self) -> Mesh {
        assert!(
            self.ni >= 2 && self.nj >= 2 && self.nk >= 2,
            "need at least 2 grid points per direction"
        );
        assert!(self.jitter >= 0.0 && self.jitter < 0.5, "jitter must stay below half a step");
        let (ni, nj, nk) = (self.ni, self.nj, self.nk);
        let nv = ni * nj * nk;
        let vid = |i: usize, j: usize, k: usize| -> u32 { ((i * nj + j) * nk + k) as u32 };

        let mut rng = Rng64::new(self.seed);
        let mut coords = Vec::with_capacity(nv);
        let (da, db, dc) = (
            1.0 / (ni - 1) as f64,
            1.0 / (nj - 1) as f64,
            1.0 / (nk - 1) as f64,
        );
        for i in 0..ni {
            for j in 0..nj {
                for k in 0..nk {
                    let mut a = i as f64 * da;
                    let mut b = j as f64 * db;
                    let mut c = k as f64 * dc;
                    // Jitter only strictly interior coordinates so every
                    // boundary plane stays planar in parameter space.
                    if i > 0 && i < ni - 1 {
                        a += rng.range_f64(-self.jitter, self.jitter) * da;
                    }
                    if j > 0 && j < nj - 1 {
                        b += rng.range_f64(-self.jitter, self.jitter) * db;
                    }
                    if k > 0 && k < nk - 1 {
                        c += rng.range_f64(-self.jitter, self.jitter) * dc;
                    }
                    coords.push(self.map(a, b, c));
                }
            }
        }

        // Kuhn subdivision: 6 tets per hex, one per permutation of the
        // axis step order; identical in every cell => conforming.
        const AXIS_PERMS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut tets = Vec::with_capacity((ni - 1) * (nj - 1) * (nk - 1) * 6);
        for i in 0..ni - 1 {
            for j in 0..nj - 1 {
                for k in 0..nk - 1 {
                    for perm in &AXIS_PERMS {
                        let mut d = [0usize; 3]; // running (di, dj, dk)
                        let mut tet = [vid(i, j, k); 4];
                        for (step, &axis) in perm.iter().enumerate() {
                            d[axis] = 1;
                            tet[step + 1] = vid(i + d[0], j + d[1], k + d[2]);
                        }
                        // Orient positively in physical space.
                        let v = crate::dual::tet_volume(
                            coords[tet[0] as usize],
                            coords[tet[1] as usize],
                            coords[tet[2] as usize],
                            coords[tet[3] as usize],
                        );
                        if v < 0.0 {
                            tet.swap(2, 3);
                        }
                        tets.push(tet);
                    }
                }
            }
        }

        let boundary = extract_boundary(&coords, &tets, |v| {
            // Classify a vertex by the boundary planes it lies on, using
            // its structured index (valid because boundary coordinates are
            // never jittered).
            let v = v as usize;
            let i = v / (nj * nk);
            let j = (v / nk) % nj;
            let k = v % nk;
            PlaneSet {
                x_lo: i == 0,
                x_hi: i == ni - 1,
                y_lo: j == 0,
                y_hi: j == nj - 1,
                z_lo: k == 0,
                z_hi: k == nk - 1,
            }
        });

        let mut mesh = Mesh { coords, tets, boundary };
        if self.scramble {
            let perm = rng.permutation(nv);
            mesh.renumber(&perm);
        }
        mesh
    }
}

/// Which structured boundary planes a vertex lies on.
#[derive(Clone, Copy, Debug, Default)]
struct PlaneSet {
    x_lo: bool,
    x_hi: bool,
    y_lo: bool,
    y_hi: bool,
    z_lo: bool,
    z_hi: bool,
}

impl PlaneSet {
    fn intersect(self, o: PlaneSet) -> PlaneSet {
        PlaneSet {
            x_lo: self.x_lo && o.x_lo,
            x_hi: self.x_hi && o.x_hi,
            y_lo: self.y_lo && o.y_lo,
            y_hi: self.y_hi && o.y_hi,
            z_lo: self.z_lo && o.z_lo,
            z_hi: self.z_hi && o.z_hi,
        }
    }

    /// BC tag for a face whose three vertices share these planes.
    fn tag(self) -> BcTag {
        if self.z_lo {
            BcTag::SlipWall
        } else if self.y_lo || self.y_hi {
            BcTag::Symmetry
        } else if self.x_lo || self.x_hi || self.z_hi {
            BcTag::FarField
        } else {
            // A boundary face must lie on some plane; flag loudly.
            unreachable!("boundary face not on any structured plane")
        }
    }
}

/// Finds all tet faces that occur exactly once (the domain boundary),
/// winds them outward, and tags them via the vertex classifier.
fn extract_boundary(
    coords: &[Vec3],
    tets: &[[u32; 4]],
    classify: impl Fn(u32) -> PlaneSet,
) -> Vec<BoundaryTri> {
    boundary_faces(coords, tets)
        .into_iter()
        .map(|verts| {
            let [a, b, c] = verts.map(&classify);
            BoundaryTri { verts, tag: a.intersect(b).intersect(c).tag() }
        })
        .collect()
}

/// The four faces of a tet in local indices, each with the vertex
/// opposite it.
const TET_FACES: [([usize; 3], usize); 4] =
    [([0, 1, 2], 3), ([0, 1, 3], 2), ([0, 2, 3], 1), ([1, 2, 3], 0)];

/// One tet face as the boundary pass groups it: the two larger vertices
/// of its sorted key (the smallest is the group), the face as the tet
/// lists it, and the tet's fourth vertex.
#[derive(Clone, Copy, Default)]
struct FaceRec {
    rest: [u32; 2],
    face: [u32; 3],
    opp: u32,
}

/// The faces that occur in exactly one tet, wound so the normal points
/// away from that tet, sorted by their wound vertex triple. A face shared
/// by three or more tets is not a manifold mesh and panics, naming it.
///
/// The 4 × ntets faces are grouped by their smallest vertex in one
/// counting-sort pass; each group (a few dozen faces) is sorted on its
/// other two vertices, so equal faces sit together and are counted.
fn boundary_faces(coords: &[Vec3], tets: &[[u32; 4]]) -> Vec<[u32; 3]> {
    let mut by_min = Buckets::new(
        coords.len(),
        tets.iter().flat_map(|t| {
            TET_FACES.iter().map(move |&([a, b, c], opp)| {
                let face = [t[a], t[b], t[c]];
                let mut key = face;
                key.sort_unstable();
                (key[0], FaceRec { rest: [key[1], key[2]], face, opp: t[opp] })
            })
        }),
    );
    let mut out = Vec::new();
    for lo in 0..by_min.nkeys() {
        let group = by_min.get_mut(lo);
        group.sort_unstable_by_key(|f| f.rest);
        for run in group.chunk_by(|x, y| x.rest == y.rest) {
            let count = run.len();
            assert!(
                count <= 2,
                "non-manifold face [{lo}, {}, {}] is shared by {count} tets",
                run[0].rest[0],
                run[0].rest[1]
            );
            if count == 2 {
                continue;
            }
            // Outward winding: the opposite vertex must lie on the
            // *negative* side of the triangle.
            let FaceRec { face: [a, b, c], opp, .. } = run[0];
            let vol = crate::dual::tet_volume(
                coords[a as usize],
                coords[b as usize],
                coords[c as usize],
                coords[opp as usize],
            );
            out.push(if vol > 0.0 { [a, c, b] } else { [a, b, c] });
        }
    }
    out.sort_unstable();
    out
}

/// Named mesh sizes used across tests and experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshPreset {
    /// ~175 vertices — unit tests.
    Tiny,
    /// ~3.5k vertices — integration tests.
    Small,
    /// ~26k vertices — default experiment size on this container.
    Medium,
    /// ~90k vertices — larger experiment size.
    Large,
    /// 359k vertices / ~2.4M edges — the paper's Mesh-C scale.
    MeshC,
    /// ~2.76M vertices / ~19M edges — the paper's Mesh-D scale.
    MeshD,
}

impl MeshPreset {
    /// The generator spec for this preset.
    pub fn spec(self) -> ChannelSpec {
        match self {
            MeshPreset::Tiny => ChannelSpec::with_resolution(7, 5, 5),
            MeshPreset::Small => ChannelSpec::with_resolution(21, 13, 13),
            MeshPreset::Medium => ChannelSpec::with_resolution(41, 25, 25),
            MeshPreset::Large => ChannelSpec::with_resolution(61, 39, 38),
            MeshPreset::MeshC => ChannelSpec::with_resolution(121, 55, 54),
            MeshPreset::MeshD => ChannelSpec::with_resolution(239, 109, 106),
        }
    }

    /// Builds the mesh for this preset.
    pub fn build(self) -> Mesh {
        self.spec().build()
    }

    /// The canonical preset name (the form [`MeshPreset::parse`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            MeshPreset::Tiny => "tiny",
            MeshPreset::Small => "small",
            MeshPreset::Medium => "medium",
            MeshPreset::Large => "large",
            MeshPreset::MeshC => "mesh-c",
            MeshPreset::MeshD => "mesh-d",
        }
    }

    /// Parses a preset name (`tiny|small|medium|large|mesh-c|mesh-d`).
    pub fn parse(s: &str) -> Option<MeshPreset> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(MeshPreset::Tiny),
            "small" => Some(MeshPreset::Small),
            "medium" => Some(MeshPreset::Medium),
            "large" => Some(MeshPreset::Large),
            "mesh-c" | "meshc" | "c" => Some(MeshPreset::MeshC),
            "mesh-d" | "meshd" | "d" => Some(MeshPreset::MeshD),
        _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DualMesh;
    use std::collections::HashMap;

    /// The boundary pass as it was first written: every face counted in a
    /// hash map keyed by its sorted triple. The oracle for the bucketed
    /// pass; `None` when some face is shared by three or more tets.
    fn reference_boundary_faces(coords: &[Vec3], tets: &[[u32; 4]]) -> Option<Vec<[u32; 3]>> {
        let mut faces: HashMap<[u32; 3], (u32, [u32; 3], u32)> = HashMap::new();
        for t in tets {
            for (f, opp) in [
                ([t[0], t[1], t[2]], t[3]),
                ([t[0], t[1], t[3]], t[2]),
                ([t[0], t[2], t[3]], t[1]),
                ([t[1], t[2], t[3]], t[0]),
            ] {
                let mut key = f;
                key.sort_unstable();
                faces.entry(key).and_modify(|e| e.0 += 1).or_insert((1, f, opp));
            }
        }
        let mut out = Vec::new();
        for (_, (count, [a, b, c], opp)) in faces {
            match count {
                1 => {}
                2 => continue,
                _ => return None,
            }
            let vol = crate::dual::tet_volume(
                coords[a as usize],
                coords[b as usize],
                coords[c as usize],
                coords[opp as usize],
            );
            out.push(if vol > 0.0 { [a, c, b] } else { [a, b, c] });
        }
        out.sort_by_key(|&f| f);
        Some(out)
    }

    fun3d_util::prop_cases! {
        fn bucketed_boundary_is_the_hash_map_oracle(g, cases = 64) {
            let m = crate::tet_soup(g);
            let got = std::panic::catch_unwind(|| boundary_faces(&m.coords, &m.tets)).ok();
            fun3d_util::prop_assert_eq!(got, reference_boundary_faces(&m.coords, &m.tets));
        }
    }

    #[test]
    #[should_panic(expected = "non-manifold face [1, 2, 3] is shared by 3 tets")]
    fn a_face_shared_by_three_tets_is_rejected() {
        // Two tets glued on face (1, 2, 3), and the first one again: that
        // face now borders three tets, which no manifold mesh allows.
        let coords = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 1.0, 1.0),
        ];
        let tets = [[0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2, 3]];
        boundary_faces(&coords, &tets);
    }

    #[test]
    fn tiny_mesh_counts() {
        let spec = MeshPreset::Tiny.spec();
        let m = spec.build();
        assert_eq!(m.nvertices(), 7 * 5 * 5);
        assert_eq!(m.ntets(), 6 * 6 * 4 * 4);
    }

    #[test]
    fn all_tets_positively_oriented() {
        let m = MeshPreset::Tiny.build();
        for t in &m.tets {
            let v = crate::dual::tet_volume(
                m.coords[t[0] as usize],
                m.coords[t[1] as usize],
                m.coords[t[2] as usize],
                m.coords[t[3] as usize],
            );
            assert!(v > 1e-12, "tet volume {v} not positive");
        }
    }

    #[test]
    fn volume_matches_domain_minus_bump() {
        // With zero thickness and no clustering the domain is a box.
        let mut spec = ChannelSpec::with_resolution(9, 7, 7);
        spec.thickness = 0.0;
        spec.cluster = 0.0;
        spec.jitter = 0.0;
        let m = spec.build();
        let vol = m.total_volume();
        let expect = spec.lx * spec.ly * spec.lz;
        assert!(
            (vol - expect).abs() < 1e-10 * expect,
            "vol {vol} vs box {expect}"
        );
    }

    #[test]
    fn closure_identity_holds_on_generated_mesh() {
        let m = MeshPreset::Tiny.build();
        let d = DualMesh::build(&m);
        let scale = d.edge_normal.iter().map(|n| n.norm()).fold(0.0, f64::max);
        assert!(
            d.max_closure_defect() < 1e-12 * scale.max(1.0),
            "closure defect {} (scale {scale})",
            d.max_closure_defect()
        );
    }

    #[test]
    fn dual_volume_sums_to_total() {
        let m = MeshPreset::Tiny.build();
        let d = DualMesh::build(&m);
        let dv: f64 = d.vol.iter().sum();
        let tv = m.total_volume();
        assert!((dv - tv).abs() < 1e-10 * tv);
    }

    #[test]
    fn boundary_covers_the_hull() {
        // Sum of outward boundary normals of a closed surface is zero.
        let m = MeshPreset::Tiny.build();
        let total = m.boundary.iter().fold(Vec3::ZERO, |acc, t| {
            acc + crate::dual::tri_area_vec(
                m.coords[t.verts[0] as usize],
                m.coords[t.verts[1] as usize],
                m.coords[t.verts[2] as usize],
            )
        });
        assert!(total.norm() < 1e-12, "open hull: residual {total:?}");
        // Quad faces of the structured hull are split into 2 triangles:
        let spec = MeshPreset::Tiny.spec();
        let (ni, nj, nk) = (spec.ni - 1, spec.nj - 1, spec.nk - 1);
        let quads = 2 * (ni * nj + nj * nk + ni * nk);
        assert_eq!(m.boundary.len(), 2 * quads);
    }

    #[test]
    fn all_tags_present() {
        let m = MeshPreset::Tiny.build();
        let has = |t: BcTag| m.boundary.iter().any(|b| b.tag == t);
        assert!(has(BcTag::SlipWall));
        assert!(has(BcTag::Symmetry));
        assert!(has(BcTag::FarField));
    }

    #[test]
    fn scramble_changes_ordering_not_geometry() {
        let mut spec = MeshPreset::Tiny.spec();
        spec.scramble = false;
        let plain = spec.build();
        spec.scramble = true;
        let scrambled = spec.build();
        assert!((plain.total_volume() - scrambled.total_volume()).abs() < 1e-12);
        assert_eq!(plain.edges().len(), scrambled.edges().len());
        // Bandwidth of the scrambled mesh should be much larger.
        let bw_plain = plain.vertex_graph().bandwidth();
        let bw_scrambled = scrambled.vertex_graph().bandwidth();
        assert!(bw_scrambled > 2 * bw_plain);
    }

    #[test]
    fn edge_per_vertex_ratio_matches_paper() {
        let m = MeshPreset::Small.build();
        let ratio = m.edges().len() as f64 / m.nvertices() as f64;
        // Paper's Mesh-C: 6.7. Kuhn tets: ~7 interior, less on the hull.
        assert!(
            (5.5..7.2).contains(&ratio),
            "edges/vertex = {ratio}, expected ~6.7"
        );
    }

    #[test]
    fn floor_bump_inside_chord_only() {
        let spec = MeshPreset::Small.spec();
        assert_eq!(spec.floor(0.0, 0.0), 0.0);
        assert_eq!(spec.floor(spec.lx, 0.0), 0.0);
        let mid = spec.x_le + 0.5 * spec.chord;
        assert!(spec.floor(mid, 0.0) > 0.5 * spec.thickness);
        // Beyond the span the floor is flat.
        assert_eq!(spec.floor(mid, spec.span + 0.1), 0.0);
    }

    #[test]
    fn preset_parse() {
        assert_eq!(MeshPreset::parse("mesh-c"), Some(MeshPreset::MeshC));
        assert_eq!(MeshPreset::parse("TINY"), Some(MeshPreset::Tiny));
        assert_eq!(MeshPreset::parse("nope"), None);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = MeshPreset::Tiny.build();
        let b = MeshPreset::Tiny.build();
        assert_eq!(a.coords.len(), b.coords.len());
        for (p, q) in a.coords.iter().zip(&b.coords) {
            assert_eq!(p, q);
        }
        assert_eq!(a.tets, b.tets);
    }
}
