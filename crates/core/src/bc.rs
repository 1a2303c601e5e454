//! Boundary conditions: slip wall, symmetry, characteristic far field.
//!
//! For the inviscid equations a symmetry plane and a slip wall impose the
//! same condition (no flow through the face): the boundary flux reduces
//! to the pressure term `(0, nₓp, n_y p, n_z p)`. Far-field boundaries
//! use a one-sided Roe/Rusanov flux against the free-stream state, which
//! lets waves leave and enforces inflow data characteristically.

use crate::euler::{self, FlowConditions};
use crate::geom::NodeAos;
use fun3d_mesh::{BcTag, DualMesh};
use fun3d_sparse::Bcsr4;

/// SoA per-(vertex, tag) boundary data: the aggregated outward normals
/// from the dual metrics.
#[derive(Clone, Debug, Default)]
pub struct BcData {
    /// Vertex of each entry.
    pub vertex: Vec<u32>,
    /// Outward area-weighted normal, x.
    pub nx: Vec<f64>,
    /// Normal y.
    pub ny: Vec<f64>,
    /// Normal z.
    pub nz: Vec<f64>,
    /// Boundary kind.
    pub tag: Vec<BcTag>,
}

impl BcData {
    /// Extracts the boundary table from dual metrics.
    pub fn build(dual: &DualMesh) -> BcData {
        let m = dual.boundary.len();
        let mut b = BcData {
            vertex: Vec::with_capacity(m),
            nx: Vec::with_capacity(m),
            ny: Vec::with_capacity(m),
            nz: Vec::with_capacity(m),
            tag: Vec::with_capacity(m),
        };
        for e in &dual.boundary {
            b.vertex.push(e.vertex);
            b.nx.push(e.normal.x);
            b.ny.push(e.normal.y);
            b.nz.push(e.normal.z);
            b.tag.push(e.tag);
        }
        b
    }

    /// Number of (vertex, tag) boundary entries.
    // No caller asks for emptiness, so there is no `is_empty` to pair with.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.vertex.len()
    }
}

/// Adds boundary flux contributions to the residual.
pub fn residual(bc: &BcData, node: &NodeAos, cond: &FlowConditions, res: &mut [f64]) {
    let normals = bc.nx.iter().zip(&bc.ny).zip(&bc.nz);
    for ((&v, &tag), ((&nx, &ny), &nz)) in bc.vertex.iter().zip(&bc.tag).zip(normals) {
        let (v, n) = (v as usize, [nx, ny, nz]);
        let q = node.state(v);
        let f = match tag {
            BcTag::SlipWall | BcTag::Symmetry => wall_flux(&q, &n),
            BcTag::FarField => farfield_flux(&q, &cond.qinf, &n, cond.beta),
        };
        for (r, f) in res[v * 4..v * 4 + 4].iter_mut().zip(f) {
            *r += f;
        }
    }
}

/// Slip-wall flux: no mass flux through the face, pressure only.
#[inline]
pub(crate) fn wall_flux(q: &[f64; 4], n: &[f64; 3]) -> [f64; 4] {
    [0.0, n[0] * q[0], n[1] * q[0], n[2] * q[0]]
}

/// Far-field flux: Rusanov between the interior state and free stream.
#[inline]
pub(crate) fn farfield_flux(q: &[f64; 4], qinf: &[f64; 4], n: &[f64; 3], beta: f64) -> [f64; 4] {
    let fi = euler::flux(q, n, beta);
    let finf = euler::flux(qinf, n, beta);
    let qm = [
        0.5 * (q[0] + qinf[0]),
        0.5 * (q[1] + qinf[1]),
        0.5 * (q[2] + qinf[2]),
        0.5 * (q[3] + qinf[3]),
    ];
    let lam = euler::spectral_radius(&qm, n, beta);
    let mut f = [0.0; 4];
    for c in 0..4 {
        f[c] = 0.5 * (fi[c] + finf[c]) - 0.5 * lam * (qinf[c] - q[c]);
    }
    f
}

/// Adds the boundary flux Jacobian `∂F_bnd/∂q_v` into the diagonal blocks
/// of the assembled (first-order) Jacobian; `diag[v]` is the storage
/// position of row `v`'s diagonal block.
pub(crate) fn jacobian(
    bc: &BcData,
    node: &NodeAos,
    cond: &FlowConditions,
    diag: &[u32],
    jac: &mut Bcsr4,
) {
    for i in 0..bc.len() {
        let v = bc.vertex[i] as usize;
        let n = [bc.nx[i], bc.ny[i], bc.nz[i]];
        let block = match bc.tag[i] {
            BcTag::SlipWall | BcTag::Symmetry => {
                // dF/dq: only the pressure column is nonzero.
                let mut b = [0.0f64; 16];
                b[1 * 4] = n[0];
                b[2 * 4] = n[1];
                b[3 * 4] = n[2];
                b
            }
            BcTag::FarField => {
                // d/dq [½(F(q)+F(q∞)) − ½λ(q∞−q)] ≈ ½A(q) + ½λI (λ frozen).
                let q = node.state(v);
                let qm = [
                    0.5 * (q[0] + cond.qinf[0]),
                    0.5 * (q[1] + cond.qinf[1]),
                    0.5 * (q[2] + cond.qinf[2]),
                    0.5 * (q[3] + cond.qinf[3]),
                ];
                let lam = euler::spectral_radius(&qm, &n, cond.beta);
                let mut b = euler::flux_jacobian(&q, &n, cond.beta);
                for x in b.iter_mut() {
                    *x *= 0.5;
                }
                for d in 0..4 {
                    b[d * 4 + d] += 0.5 * lam;
                }
                b
            }
        };
        jac.add_block_at(diag[v] as usize, &block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::Vec3;

    #[test]
    fn bc_data_from_dual() {
        let m = MeshPreset::Tiny.build();
        let d = DualMesh::build(&m);
        let bc = BcData::build(&d);
        assert_eq!(bc.len(), d.boundary.len());
        assert_ne!(bc.len(), 0);
    }

    #[test]
    fn wall_flux_has_no_mass_flux() {
        let q = [2.5, 1.0, -1.0, 0.5];
        let n = [0.3, 0.4, -0.5];
        let f = wall_flux(&q, &n);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[1], n[0] * q[0]);
    }

    #[test]
    fn farfield_flux_consistent_at_freestream() {
        // Interior state == free stream: flux must equal F(q∞).
        let cond = FlowConditions::default();
        let n = [0.2, -0.7, 0.4];
        let f = farfield_flux(&cond.qinf, &cond.qinf, &n, cond.beta);
        let exact = euler::flux(&cond.qinf, &n, cond.beta);
        for c in 0..4 {
            assert!((f[c] - exact[c]).abs() < 1e-14);
        }
    }

    #[test]
    fn freestream_preservation_with_boundaries() {
        // Uniform free-stream state with far-field on EVERY boundary:
        // interior flux + boundary flux must vanish everywhere (discrete
        // free-stream preservation), because Σ ±s_e + n_bnd = 0 and the
        // far-field flux reduces to F(q∞)·n at the free stream. (With
        // slip walls preservation legitimately fails wherever the free
        // stream crosses the wall — e.g. on the bump — so walls are
        // retagged here.)
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = crate::geom::EdgeGeom::build(&mesh, &dual);
        let mut bc = BcData::build(&dual);
        bc.tag.iter_mut().for_each(|t| *t = BcTag::FarField);
        let cond = FlowConditions::default();
        let mut node = NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&cond.qinf);
        let mut res = vec![0.0; node.n * 4];
        crate::flux::serial_aos(&geom, &node, cond.beta, &mut res);
        residual(&bc, &node, &cond, &mut res);
        let max = res.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert!(max < 1e-11, "free-stream residual {max}");
    }

    #[test]
    fn farfield_jacobian_matches_fd() {
        let cond = FlowConditions::default();
        let q = [0.2, 0.8, 0.1, -0.3];
        let n = [0.5, 0.1, -0.2];
        // numeric dF/dq with λ frozen is approximated by the analytic
        // block up to the dλ/dq term; use a loose tolerance.
        let mut jac = Bcsr4::from_pattern(&[vec![0]]);
        let mut node = NodeAos::zeros(1);
        node.q[..4].copy_from_slice(&q);
        let bc = BcData {
            vertex: vec![0],
            nx: vec![n[0]],
            ny: vec![n[1]],
            nz: vec![n[2]],
            tag: vec![BcTag::FarField],
        };
        jacobian(&bc, &node, &cond, &[0], &mut jac);
        let b = jac.block(0);
        let f0 = farfield_flux(&q, &cond.qinf, &n, cond.beta);
        let h = 1e-6;
        for j in 0..4 {
            let mut qp = q;
            qp[j] += h;
            let fp = farfield_flux(&qp, &cond.qinf, &n, cond.beta);
            for i in 0..4 {
                let fd = (fp[i] - f0[i]) / h;
                assert!(
                    (fd - b[i * 4 + j]).abs() < 0.15 * (1.0 + fd.abs()),
                    "d f{i}/dq{j}: fd {fd} vs {}",
                    b[i * 4 + j]
                );
            }
        }
    }

    #[test]
    fn outward_normals_point_out() {
        // At the inflow plane (x = 0) the outward normal points in −x.
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let bc = BcData::build(&dual);
        let mut found = false;
        for i in 0..bc.len() {
            let v = bc.vertex[i] as usize;
            if mesh.coords[v].x.abs() < 1e-12 && bc.tag[i] == BcTag::FarField {
                // strictly interior inflow-plane vertices have dominant −x
                if mesh.coords[v].y > 0.3
                    && mesh.coords[v].y < 1.7
                    && mesh.coords[v].z > 0.3
                    && mesh.coords[v].z < 1.7
                {
                    assert!(bc.nx[i] < 0.0, "inflow normal x = {}", bc.nx[i]);
                    found = true;
                }
            }
        }
        assert!(found, "no interior inflow vertices checked");
        let _ = Vec3::ZERO; // keep the import used on all paths
    }
}
