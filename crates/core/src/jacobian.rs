//! First-order flux Jacobian assembly into 4×4-block BCSR.
//!
//! The preconditioning operator is derived "from a lower-order, sparser
//! and more diffusive discretization than that used for f(u) itself"
//! (paper Section II.B): first-order Rusanov flux, whose Jacobian blocks
//! are `∂F*/∂q_a = ½A(q_a) + ½λI` and `∂F*/∂q_b = ½A(q_b) − ½λI` with
//! the face spectral radius λ frozen. The pattern is exactly
//! vertex-neighbors (mesh edges) plus the diagonal — the narrow band the
//! ILU/TRSV kernels operate on.

use crate::bc::{self, BcData};
use crate::euler::{self, FlowConditions};
use crate::geom::{EdgeGeom, NodeAos};
use fun3d_sparse::Bcsr4;

/// Where assembly adds its blocks, looked up once per mesh pattern: the
/// storage positions `[ab, ba]` of every edge `(a, b)`'s off-diagonal
/// blocks and the diagonal position of every row. Assembly then runs
/// without a single search.
pub struct JacobianSlots {
    edge: Vec<[u32; 2]>,
    diag: Vec<u32>,
}

impl JacobianSlots {
    /// Looks up the positions of `edges` in `jac` (the mesh pattern from
    /// [`Bcsr4::from_edges`]). Each row keeps one cursor below and one
    /// above its diagonal; on a sorted edge list every off-diagonal block
    /// is the next one under its cursor, and any other order falls back
    /// to [`Bcsr4::find`] block by block.
    pub fn new(jac: &Bcsr4, edges: &[[u32; 2]]) -> JacobianSlots {
        assert!(
            jac.nblocks() <= u32::MAX as usize,
            "too many blocks for u32 slots"
        );
        let diag: Vec<u32> = (0..jac.nrows())
            .map(|r| jac.find(r, r as u32).expect("diagonal block") as u32)
            .collect();
        let mut below: Vec<usize> = jac.row_ptr[..jac.nrows()].to_vec();
        let mut above: Vec<usize> = diag.iter().map(|&d| d as usize + 1).collect();
        let mut slot = |row: u32, col: u32| -> u32 {
            let cursor = if col < row { &mut below } else { &mut above };
            let k = cursor[row as usize];
            if k < jac.row_ptr[row as usize + 1] && jac.col_idx[k] == col {
                cursor[row as usize] += 1;
                return k as u32;
            }
            jac.find(row as usize, col)
                .expect("edge block missing from sparsity pattern") as u32
        };
        let edge = edges.iter().map(|&[a, b]| [slot(a, b), slot(b, a)]).collect();
        JacobianSlots { edge, diag }
    }
}

/// Assembles the first-order Jacobian of the spatial residual, including
/// boundary contributions, into `jac` (pattern must be the mesh pattern
/// from [`Bcsr4::from_edges`], `slots` built from it). Values are
/// overwritten.
pub fn assemble(
    geom: &EdgeGeom,
    bc: &BcData,
    node: &NodeAos,
    cond: &FlowConditions,
    slots: &JacobianSlots,
    jac: &mut Bcsr4,
) {
    assert_eq!(slots.edge.len(), geom.edges().len());
    jac.zero_values();
    let beta = cond.beta;
    for (k, (e, &[ab, ba])) in geom.edges().iter().zip(&slots.edge).enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let (aa, bb) = (slots.diag[a], slots.diag[b]);
        let n = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
        let qa = node.state(a);
        let qb = node.state(b);
        let lam = euler::spectral_radius(&qa, &n, beta)
            .max(euler::spectral_radius(&qb, &n, beta));
        // dF*/dqa = ½A(qa) + ½λI ; dF*/dqb = ½A(qb) − ½λI
        let mut da = euler::flux_jacobian(&qa, &n, beta);
        let mut db = euler::flux_jacobian(&qb, &n, beta);
        for x in da.iter_mut() {
            *x *= 0.5;
        }
        for x in db.iter_mut() {
            *x *= 0.5;
        }
        for d in 0..4 {
            da[d * 4 + d] += 0.5 * lam;
            db[d * 4 + d] -= 0.5 * lam;
        }
        // res[a] += F* ; res[b] -= F*
        jac.add_block_at(aa as usize, &da);
        jac.add_block_at(ab as usize, &db);
        let neg = |m: &[f64; 16]| {
            let mut o = *m;
            for x in o.iter_mut() {
                *x = -*x;
            }
            o
        };
        jac.add_block_at(ba as usize, &neg(&da));
        jac.add_block_at(bb as usize, &neg(&db));
    }
    bc::jacobian(bc, node, cond, &slots.diag, jac);
}

/// The pseudo-time diagonal `V_v/Δt` of the vertices `out` covers (four
/// unknowns each; the pressure row carries the artificial-compressibility
/// `1/β`).
pub fn time_diagonal(vol: &[f64], beta: f64, dt: f64, out: &mut [f64]) {
    for (o, vol) in out.chunks_exact_mut(4).zip(vol) {
        let vdt = vol / dt;
        o.copy_from_slice(&[vdt / beta, vdt, vdt, vdt]);
    }
}

/// Adds the pseudo-time term `diag(shift)` (one scalar per unknown) onto
/// the diagonal blocks of the rows `shift` covers: all of them, or a
/// rank's owned prefix.
pub fn add_time_diagonal(slots: &JacobianSlots, jac: &mut Bcsr4, shift: &[f64]) {
    assert!(shift.len().is_multiple_of(4) && shift.len() <= jac.dim());
    for (&k, shift) in slots.diag.iter().zip(shift.chunks_exact(4)) {
        for (d, &s) in shift.iter().enumerate() {
            jac.blocks[k as usize * 16 + d * 4 + d] += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::DualMesh;
    use fun3d_util::Rng64;

    fn setup() -> (EdgeGeom, BcData, NodeAos, JacobianSlots, Bcsr4) {
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let mut node = NodeAos::zeros(mesh.nvertices());
        let mut rng = Rng64::new(7);
        let cond = FlowConditions::default();
        node.set_freestream(&cond.qinf);
        for x in node.q.iter_mut() {
            *x += rng.range_f64(-0.1, 0.1);
        }
        let jac = Bcsr4::from_edges(mesh.nvertices(), geom.edges());
        let slots = JacobianSlots::new(&jac, geom.edges());
        (geom, bc, node, slots, jac)
    }

    #[test]
    fn slots_are_the_searched_positions_for_any_edge_order() {
        // The generator's edge order, the sorted order the cursors are
        // built for, the reverse, and flipped orientations: every slot
        // must be what `find` returns.
        let (geom, _, _, _, jac) = setup();
        let mut sorted = geom.edges().to_vec();
        sorted.sort_unstable();
        let reversed: Vec<[u32; 2]> = sorted.iter().rev().copied().collect();
        let flipped: Vec<[u32; 2]> = sorted.iter().map(|&[a, b]| [b, a]).collect();
        for edges in [geom.edges(), &sorted[..], &reversed[..], &flipped[..]] {
            let slots = JacobianSlots::new(&jac, edges);
            for (&[a, b], got) in edges.iter().zip(&slots.edge) {
                let want = [(a, b), (b, a)].map(|(r, c)| jac.find(r as usize, c).unwrap() as u32);
                assert_eq!(*got, want, "edge ({a}, {b})");
            }
            for (r, &k) in slots.diag.iter().enumerate() {
                assert_eq!(jac.find(r, r as u32), Some(k as usize));
            }
        }
    }

    #[test]
    fn jacobian_matches_frozen_lambda_residual_fd() {
        // The assembled blocks are the exact derivative of the
        // first-order residual *with the dissipation coefficients λ
        // frozen at the base state* (the standard approximation). Build
        // that frozen residual explicitly and finite-difference it.
        let (geom, bc, node, slots, mut jac) = setup();
        let cond = FlowConditions::default();
        assemble(&geom, &bc, &node, &cond, &slots, &mut jac);
        let beta = cond.beta;

        // Freeze per-edge and per-boundary-entry λ at the base state.
        let lam_edge: Vec<f64> = geom
            .edges()
            .iter()
            .enumerate()
            .map(|(k, e)| {
                let n = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
                let qa = node.state(e[0] as usize);
                let qb = node.state(e[1] as usize);
                euler::spectral_radius(&qa, &n, beta)
                    .max(euler::spectral_radius(&qb, &n, beta))
            })
            .collect();
        let lam_bc: Vec<f64> = (0..bc.len())
            .map(|i| {
                let n = [bc.nx[i], bc.ny[i], bc.nz[i]];
                let q = node.state(bc.vertex[i] as usize);
                let qm = [
                    0.5 * (q[0] + cond.qinf[0]),
                    0.5 * (q[1] + cond.qinf[1]),
                    0.5 * (q[2] + cond.qinf[2]),
                    0.5 * (q[3] + cond.qinf[3]),
                ];
                euler::spectral_radius(&qm, &n, beta)
            })
            .collect();

        let frozen_residual = |nd: &NodeAos, out: &mut [f64]| {
            out.iter_mut().for_each(|x| *x = 0.0);
            for (k, e) in geom.edges().iter().enumerate() {
                let (a, b) = (e[0] as usize, e[1] as usize);
                let n = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
                let qa = nd.state(a);
                let qb = nd.state(b);
                let fa = euler::flux(&qa, &n, beta);
                let fb = euler::flux(&qb, &n, beta);
                for c in 0..4 {
                    let f = 0.5 * (fa[c] + fb[c]) - 0.5 * lam_edge[k] * (qb[c] - qa[c]);
                    out[a * 4 + c] += f;
                    out[b * 4 + c] -= f;
                }
            }
            for i in 0..bc.len() {
                let v = bc.vertex[i] as usize;
                let n = [bc.nx[i], bc.ny[i], bc.nz[i]];
                let q = nd.state(v);
                let f = match bc.tag[i] {
                    fun3d_mesh::BcTag::SlipWall | fun3d_mesh::BcTag::Symmetry => {
                        crate::bc::wall_flux(&q, &n)
                    }
                    fun3d_mesh::BcTag::FarField => {
                        let fi = euler::flux(&q, &n, beta);
                        let finf = euler::flux(&cond.qinf, &n, beta);
                        let mut f = [0.0; 4];
                        for c in 0..4 {
                            f[c] = 0.5 * (fi[c] + finf[c])
                                - 0.5 * lam_bc[i] * (cond.qinf[c] - q[c]);
                        }
                        f
                    }
                };
                for c in 0..4 {
                    out[v * 4 + c] += f[c];
                }
            }
        };

        let n = jac.dim();
        let mut rng = Rng64::new(8);
        let v: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut jv = vec![0.0; n];
        jac.spmv(&v, &mut jv);

        let h = 1e-7;
        let mut r0 = vec![0.0; n];
        frozen_residual(&node, &mut r0);
        let mut pert = node.clone();
        for i in 0..n {
            pert.q[i] += h * v[i];
        }
        let mut r1 = vec![0.0; n];
        frozen_residual(&pert, &mut r1);
        let scale = jv.iter().map(|x| x.abs()).fold(0.0, f64::max).max(1.0);
        for i in 0..n {
            let fd = (r1[i] - r0[i]) / h;
            assert!(
                (fd - jv[i]).abs() < 1e-5 * scale,
                "entry {i}: fd {fd} vs J*v {}",
                jv[i]
            );
        }
    }

    #[test]
    fn row_sums_reflect_conservation() {
        // Without boundaries, interior edge contributions are equal and
        // opposite: the column sums over each edge pair cancel. Check the
        // assembled matrix has bounded entries and correct pattern reuse.
        let (geom, bc, node, slots, mut jac) = setup();
        let cond = FlowConditions::default();
        assemble(&geom, &bc, &node, &cond, &slots, &mut jac);
        assert!(jac.blocks.iter().all(|x| x.is_finite()));
        // reassembly must give identical values (zeroing works)
        let snapshot = jac.blocks.clone();
        assemble(&geom, &bc, &node, &cond, &slots, &mut jac);
        assert_eq!(snapshot, jac.blocks);
    }

    #[test]
    fn time_diagonal_added_once_per_unknown() {
        let (geom, bc, node, slots, mut jac) = setup();
        let cond = FlowConditions::default();
        assemble(&geom, &bc, &node, &cond, &slots, &mut jac);
        let before = jac.blocks.clone();
        let n = jac.dim();
        let shift: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        add_time_diagonal(&slots, &mut jac, &shift);
        for r in 0..jac.nrows() {
            let k = jac.find(r, r as u32).unwrap();
            for d in 0..4 {
                let idx = k * 16 + d * 4 + d;
                assert!(
                    (jac.blocks[idx] - before[idx] - shift[r * 4 + d]).abs() < 1e-14
                );
            }
        }
    }

    #[test]
    fn diagonal_dominance_improves_with_time_term() {
        // A large V/Δt shift must make the matrix strongly diagonally
        // dominant (this is what makes early PTC steps easy to solve).
        let (geom, bc, node, slots, mut jac) = setup();
        let cond = FlowConditions::default();
        assemble(&geom, &bc, &node, &cond, &slots, &mut jac);
        let n = jac.dim();
        add_time_diagonal(&slots, &mut jac, &vec![1e3; n]);
        let d = jac.to_dense();
        for i in 0..n {
            let diag = d[i * n + i].abs();
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| d[i * n + j].abs()).sum();
            assert!(diag > off, "row {i} not dominant: {diag} vs {off}");
        }
    }
}
