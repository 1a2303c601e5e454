//! The first-order flux Jacobian, one block row at a time.
//!
//! The preconditioning operator is derived "from a lower-order, sparser
//! and more diffusive discretization than that used for f(u) itself"
//! (paper Section II.B): first-order Rusanov flux, whose Jacobian blocks
//! are `∂F*/∂q_a = ½A(q_a) + ½λI` and `∂F*/∂q_b = ½A(q_b) − ½λI` with
//! the face spectral radius λ frozen. The pattern is exactly
//! vertex-neighbors (mesh edges) plus the diagonal — the narrow band the
//! ILU/TRSV kernels operate on.
//!
//! The matrix is never stored. [`JacobianAt`] is a
//! [`BlockRows`] source: the ILU factorization asks it for row `i` when it
//! reaches row `i`, and the row kernel computes it into the factorization's
//! row buffer from vertex `i`'s half-edges in edge order, then its
//! boundary entries, then its pseudo-time diagonal. That is the order in
//! which the edge scatter PETSc-FUN3D assembles with adds into row `i`, so
//! the row is the scattered one bit for bit: the edge's normal is negated
//! on the half-edge out of its second endpoint, and negation is exact
//! (`A(q, −n) = −A(q, n)` and `−(x − y) = −x + y` round alike), an
//! off-diagonal block is written as `0.0 + x` the way a scatter into a
//! zeroed matrix writes it (so a `−0.0` leaves as `+0.0`), and a diagonal
//! sum starts from `+0.0` and cannot become `−0.0`. [`JacobianAt::assemble`]
//! stores every row, for whoever needs the matrix itself.

use crate::bc::{self, BcData};
use crate::euler::{self, FlowConditions};
use crate::geom::HalfEdges;
use fun3d_sparse::{Bcsr4, BlockRows, Pattern};
use std::sync::OnceLock;

/// Block length: a 4×4 block of `f64`, row-major.
const BLOCK: usize = 16;

/// Marks a half-edge whose column the pattern drops (a rank's ghost).
const SKIP: u32 = u32::MAX;

/// The static half of the row kernel, built once per mesh: the pattern of
/// A and, for every half-edge of the [`HalfEdges`] it was built on, the
/// position within its row of the block that half-edge writes.
pub struct JacobianRows {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// Per half-edge, its neighbour's position in its row, or [`SKIP`];
    /// a boundary entry's is the diagonal's.
    slot: Vec<u32>,
    /// Per row, the diagonal's position in it.
    diag: Vec<u32>,
    /// Row `i`'s boundary entries, in boundary-table order, are
    /// `bc_idx[bc_ptr[i]..bc_ptr[i + 1]]`: the last half-edges of its row.
    bc_ptr: Vec<u32>,
    bc_idx: Vec<u32>,
}

impl JacobianRows {
    /// The rows of `adj` (with the boundary table `bc` it was built with)
    /// over the columns `0..ncols`: each row holds its diagonal and one
    /// block per neighbour below `ncols`, ascending. A rank passes its
    /// owned count, so that its ghost columns drop out and the pattern is
    /// the owned-owned block its Schwarz ILU factors.
    ///
    /// # Panics
    /// When `ncols` is below the row count or beyond the vertices, or when
    /// `bc` is not the table `adj` closes its rows with.
    pub fn new(adj: &HalfEdges, bc: &BcData, ncols: usize) -> JacobianRows {
        let rows = adj.rows();
        assert!(
            rows <= ncols && ncols <= adj.nvertices(),
            "{ncols} columns for {rows} rows of {} vertices",
            adj.nvertices()
        );
        let mut bc_ptr = vec![0u32; rows + 1];
        for &v in &bc.vertex {
            assert!((v as usize) < rows, "boundary vertex {v} has no row");
            bc_ptr[v as usize + 1] += 1;
        }
        for i in 0..rows {
            bc_ptr[i + 1] += bc_ptr[i];
        }
        let mut bc_idx = vec![0u32; bc.len()];
        let mut cursor = bc_ptr.clone();
        for (k, &v) in bc.vertex.iter().enumerate() {
            bc_idx[cursor[v as usize] as usize] = k as u32;
            cursor[v as usize] += 1;
        }

        let (offsets, nbr) = (adj.offsets(), adj.neighbours());
        let mut m = JacobianRows {
            row_ptr: Vec::with_capacity(rows + 1),
            col_idx: Vec::with_capacity(nbr.len() + rows - bc.len()),
            slot: vec![SKIP; nbr.len()],
            diag: Vec::with_capacity(rows),
            bc_ptr,
            bc_idx,
        };
        m.row_ptr.push(0);
        let mut cols: Vec<u32> = Vec::new();
        for i in 0..rows {
            let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
            let nbc = (m.bc_ptr[i + 1] - m.bc_ptr[i]) as usize;
            assert!(
                hi - lo >= nbc && nbr[hi - nbc..hi].iter().all(|&v| v as usize == i),
                "row {i}: the half-edges do not end in its {nbc} boundary entries"
            );
            let edges = lo..hi - nbc;
            cols.clear();
            cols.push(i as u32);
            cols.extend(nbr[edges.clone()].iter().filter(|&&j| (j as usize) < ncols));
            cols.sort_unstable();
            cols.dedup();
            let at = |c: u32| cols.binary_search(&c).expect("a column of the row") as u32;
            let diag = at(i as u32);
            for h in edges {
                if (nbr[h] as usize) < ncols {
                    m.slot[h] = at(nbr[h]);
                }
            }
            m.slot[hi - nbc..hi].fill(diag);
            m.diag.push(diag);
            m.col_idx.extend_from_slice(&cols);
            m.row_ptr.push(m.col_idx.len());
        }
        m
    }

    /// A's pattern.
    pub fn pattern(&self) -> Pattern<'_> {
        Pattern {
            row_ptr: &self.row_ptr,
            col_idx: &self.col_idx,
        }
    }
}

/// The first-order Jacobian of the spatial residual at one state, plus the
/// pseudo-time diagonal: a [`BlockRows`] source whose rows are computed
/// when they are asked for.
pub struct JacobianAt<'a> {
    rows: &'a JacobianRows,
    adj: &'a HalfEdges,
    bc: &'a BcData,
    cond: &'a FlowConditions,
    q: &'a [f64],
    shift: &'a [f64],
}

impl<'a> JacobianAt<'a> {
    /// The Jacobian over `rows` (built on `adj` and `bc`) at the state `q`
    /// (four values per vertex `adj` names), with `shift` (four per row,
    /// [`time_diagonal`]) added onto the diagonal blocks.
    pub fn new(
        rows: &'a JacobianRows,
        adj: &'a HalfEdges,
        bc: &'a BcData,
        cond: &'a FlowConditions,
        q: &'a [f64],
        shift: &'a [f64],
    ) -> JacobianAt<'a> {
        let nrows = rows.diag.len();
        assert!(
            adj.rows() == nrows
                && adj.neighbours().len() == rows.slot.len()
                && bc.len() == rows.bc_idx.len(),
            "the rows were not built on these half-edges and boundary table"
        );
        assert!(
            q.len() >= adj.nvertices() * 4,
            "state shorter than the vertices"
        );
        assert_eq!(shift.len(), nrows * 4, "one shift per unknown of every row");
        JacobianAt {
            rows,
            adj,
            bc,
            cond,
            q,
            shift,
        }
    }

    /// Every row into a matrix.
    pub fn assemble(&self) -> Bcsr4 {
        let (row_ptr, col_idx) = (self.rows.row_ptr.clone(), self.rows.col_idx.clone());
        let mut blocks = vec![0.0; col_idx.len() * BLOCK];
        for i in 0..self.rows.diag.len() {
            self.fill_row(i, &mut blocks[row_ptr[i] * BLOCK..row_ptr[i + 1] * BLOCK]);
        }
        Bcsr4 {
            row_ptr,
            col_idx,
            blocks,
        }
    }

    fn state(&self, v: usize) -> [f64; 4] {
        self.q[v * 4..v * 4 + 4]
            .try_into()
            .expect("four values per vertex")
    }

    /// The row kernel: row `i`'s blocks into `out`, in the pattern's
    /// column order.
    fn fill_row(&self, i: usize, out: &mut [f64]) {
        let rows = self.rows;
        let beta = self.cond.beta;
        let (lo, hi) = (
            self.adj.offsets()[i] as usize,
            self.adj.offsets()[i + 1] as usize,
        );
        let boundary = &rows.bc_idx[rows.bc_ptr[i] as usize..rows.bc_ptr[i + 1] as usize];
        let (nbr, normal) = (self.adj.neighbours(), self.adj.normals());
        out.fill(0.0);
        let qi = self.state(i);
        let mut diag = [0.0; BLOCK];
        // res[i] += F*(q_i, q_j, m) over the half-edges out of i, m the
        // normal out of i: dF*/dq_i = ½A(q_i, m) + ½λI on the diagonal,
        // dF*/dq_j = ½A(q_j, m) − ½λI in column j.
        for h in lo..hi - boundary.len() {
            let m = &normal[h];
            let qj = self.state(nbr[h] as usize);
            let lam =
                euler::spectral_radius(&qi, m, beta).max(euler::spectral_radius(&qj, m, beta));
            let mut own = euler::flux_jacobian(&qi, m, beta);
            own.iter_mut().for_each(|x| *x *= 0.5);
            for d in 0..4 {
                own[d * 4 + d] += 0.5 * lam;
            }
            diag.iter_mut().zip(&own).for_each(|(acc, x)| *acc += x);
            let s = rows.slot[h];
            if s != SKIP {
                let mut other = euler::flux_jacobian(&qj, m, beta);
                other.iter_mut().for_each(|x| *x *= 0.5);
                for d in 0..4 {
                    other[d * 4 + d] -= 0.5 * lam;
                }
                let dst = &mut out[s as usize * BLOCK..(s as usize + 1) * BLOCK];
                dst.iter_mut().zip(&other).for_each(|(acc, x)| *acc += x);
            }
        }
        for &k in boundary {
            let k = k as usize;
            let n = [self.bc.nx[k], self.bc.ny[k], self.bc.nz[k]];
            let b = bc::jacobian_block(self.bc.tag[k], &n, &qi, self.cond);
            diag.iter_mut().zip(&b).for_each(|(acc, x)| *acc += x);
        }
        for (d, s) in self.shift[i * 4..i * 4 + 4].iter().enumerate() {
            diag[d * 4 + d] += s;
        }
        let d = rows.diag[i] as usize;
        out[d * BLOCK..(d + 1) * BLOCK].copy_from_slice(&diag);
    }
}

impl BlockRows for JacobianAt<'_> {
    fn pattern(&self) -> Pattern<'_> {
        self.rows.pattern()
    }

    fn row<'s>(&'s self, i: usize, buf: &'s mut [f64]) -> &'s [f64] {
        let len = (self.rows.row_ptr[i + 1] - self.rows.row_ptr[i]) * BLOCK;
        let out = &mut buf[..len];
        self.fill_row(i, out);
        out
    }
}

/// The state and pseudo-time shift of the last build, and the Jacobian at
/// them, assembled only when asked for: what a caller that needs the
/// matrix itself reads. No solve does.
pub(crate) struct LastBuild {
    u: Vec<f64>,
    shift: Vec<f64>,
    matrix: OnceLock<Bcsr4>,
}

impl LastBuild {
    /// No build yet: the zero state and shift of `n` unknowns.
    pub(crate) fn new(n: usize) -> LastBuild {
        LastBuild {
            u: vec![0.0; n],
            shift: vec![0.0; n],
            matrix: OnceLock::new(),
        }
    }

    /// Records a build at `u` with `shift`, dropping the matrix of the
    /// one before.
    pub(crate) fn record(&mut self, u: &[f64], shift: &[f64]) {
        self.u.copy_from_slice(u);
        self.shift.copy_from_slice(shift);
        self.matrix.take();
    }

    /// The Jacobian over `rows` (built on `adj` and `bc`) at the recorded
    /// build, assembled on the first call after it.
    pub(crate) fn matrix(
        &self,
        rows: &JacobianRows,
        adj: &HalfEdges,
        bc: &BcData,
        cond: &FlowConditions,
    ) -> &Bcsr4 {
        self.matrix
            .get_or_init(|| JacobianAt::new(rows, adj, bc, cond, &self.u, &self.shift).assemble())
    }
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::geom::{EdgeGeom, NodeAos};
    use fun3d_mesh::generator::{ChannelSpec, MeshPreset};
    use fun3d_mesh::DualMesh;
    use fun3d_sparse::{ilu, IluSymbolic, P2pSchedule};
    use fun3d_threads::ThreadPool;
    use fun3d_util::Rng64;

    /// The edge scatter the row kernel replaces, kept as its oracle: every
    /// edge adds its four blocks into a zeroed matrix with the mesh
    /// pattern, every boundary entry its block onto its diagonal, and then
    /// `shift` (one value per unknown of the first rows) lands on the
    /// diagonal.
    pub(crate) fn scatter_oracle(
        geom: &EdgeGeom,
        bc: &BcData,
        q: &[f64],
        cond: &FlowConditions,
        shift: &[f64],
    ) -> Bcsr4 {
        let mut jac = Bcsr4::from_edges(geom.nvertices(), geom.edges());
        let beta = cond.beta;
        let state = |v: usize| -> [f64; 4] { q[v * 4..v * 4 + 4].try_into().unwrap() };
        let mut add = |r: u32, c: u32, b: &[f64; 16]| {
            let k = jac.find(r as usize, c).expect("a block of the pattern");
            jac.blocks[k * 16..(k + 1) * 16]
                .iter_mut()
                .zip(b)
                .for_each(|(d, s)| *d += s);
        };
        for (k, &[a, b]) in geom.edges().iter().enumerate() {
            let n = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
            let (qa, qb) = (state(a as usize), state(b as usize));
            let lam =
                euler::spectral_radius(&qa, &n, beta).max(euler::spectral_radius(&qb, &n, beta));
            let mut da = euler::flux_jacobian(&qa, &n, beta);
            let mut db = euler::flux_jacobian(&qb, &n, beta);
            da.iter_mut().chain(db.iter_mut()).for_each(|x| *x *= 0.5);
            for d in 0..4 {
                da[d * 4 + d] += 0.5 * lam;
                db[d * 4 + d] -= 0.5 * lam;
            }
            add(a, a, &da);
            add(a, b, &db);
            add(b, a, &da.map(|x| -x));
            add(b, b, &db.map(|x| -x));
        }
        for k in 0..bc.len() {
            let v = bc.vertex[k];
            let n = [bc.nx[k], bc.ny[k], bc.nz[k]];
            add(
                v,
                v,
                &bc::jacobian_block(bc.tag[k], &n, &state(v as usize), cond),
            );
        }
        for (r, shift) in shift.chunks_exact(4).enumerate() {
            let k = jac.find(r, r as u32).unwrap();
            for (d, &s) in shift.iter().enumerate() {
                jac.blocks[k * 16 + d * 4 + d] += s;
            }
        }
        jac
    }

    struct Fixture {
        geom: EdgeGeom,
        bc: BcData,
        adj: HalfEdges,
        node: NodeAos,
        rows: JacobianRows,
        cond: FlowConditions,
    }

    fn setup() -> Fixture {
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let bc = BcData::build(&dual);
        let adj = HalfEdges::build(&geom, &bc, &dual.vol);
        let mut node = NodeAos::zeros(mesh.nvertices());
        let mut rng = Rng64::new(7);
        let cond = FlowConditions::default();
        node.set_freestream(&cond.qinf);
        for x in node.q.iter_mut() {
            *x += rng.range_f64(-0.1, 0.1);
        }
        let rows = JacobianRows::new(&adj, &bc, mesh.nvertices());
        Fixture {
            geom,
            bc,
            adj,
            node,
            rows,
            cond,
        }
    }

    impl Fixture {
        fn assemble(&self, shift: &[f64]) -> Bcsr4 {
            JacobianAt::new(
                &self.rows,
                &self.adj,
                &self.bc,
                &self.cond,
                &self.node.q,
                shift,
            )
            .assemble()
        }
    }

    /// `geom`'s edges in the order `order`, those marked flipped with
    /// their endpoints swapped and their normal and delta negated.
    fn reordered(geom: &EdgeGeom, order: &[usize], flip: &[bool]) -> EdgeGeom {
        let edges = order.iter().map(|&k| {
            if flip[k] {
                [geom.edges()[k][1], geom.edges()[k][0]]
            } else {
                geom.edges()[k]
            }
        });
        let pick = |s: &[f64]| {
            order
                .iter()
                .map(|&k| if flip[k] { -s[k] } else { s[k] })
                .collect()
        };
        EdgeGeom::try_new(
            geom.nvertices(),
            edges.collect(),
            geom.normals().map(pick),
            geom.deltas().map(pick),
        )
        .expect("a reordering of a valid geometry")
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn factor_bits(f: &fun3d_sparse::IluFactors) -> Vec<u32> {
        f.l.blocks
            .iter()
            .chain(&f.u.blocks)
            .chain(&f.dinv)
            .map(|x| x.to_bits())
            .collect()
    }

    /// The owned-owned block of `a`'s first `n` rows, as a rank's Schwarz
    /// ILU factors it.
    fn leading_block(a: &Bcsr4, n: usize) -> Bcsr4 {
        let mut cols = Vec::new();
        let mut blocks = Vec::new();
        let mut row_ptr = vec![0];
        for r in 0..n {
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                if (a.col_idx[k] as usize) < n {
                    cols.push(a.col_idx[k]);
                    blocks.extend_from_slice(a.block(k));
                }
            }
            row_ptr.push(cols.len());
        }
        Bcsr4 {
            row_ptr,
            col_idx: cols,
            blocks,
        }
    }

    fun3d_util::prop_cases! {
        fn fused_factors_are_the_assembled_matrix_factors_bitwise(g, cases = 8) {
            // A random mesh with its edge list permuted and partly flipped,
            // at a random state with planted signed zeros: the row kernel's
            // matrix is the edge scatter's bit for bit, and factors that
            // take their rows from the kernel — serially, by a team at
            // nt = 1, 2, 3, and over a rank-like owned prefix whose other
            // vertices are ghosts — are the factors of the scattered matrix.
            let seed = g.u64();
            let dims = [g.usize_range(3, 7), g.usize_range(3, 6), g.usize_range(3, 6)];
            let fill = g.usize_range(0, 3);
            let dt = g.f64_range(0.01, 1.0);
            let mut spec = ChannelSpec::with_resolution(dims[0], dims[1], dims[2]);
            spec.seed = seed;
            let mesh = spec.build();
            let dual = DualMesh::build(&mesh);
            let bc = BcData::build(&dual);
            let cond = FlowConditions::default();
            let mut rng = Rng64::new(seed ^ 0x5EED);
            let base = EdgeGeom::build(&mesh, &dual);
            let mut order: Vec<usize> = (0..base.nedges()).collect();
            for k in (1..order.len()).rev() {
                order.swap(k, rng.below(k + 1));
            }
            let flip: Vec<bool> = (0..base.nedges()).map(|_| rng.below(2) == 1).collect();
            let geom = reordered(&base, &order, &flip);
            let nv = mesh.nvertices();
            let mut q = cond.qinf.repeat(nv);
            for x in q.iter_mut() {
                *x = match rng.below(6) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => *x + rng.range_f64(-0.1, 0.1),
                };
            }
            let mut shift = vec![0.0; nv * 4];
            time_diagonal(&dual.vol, cond.beta, dt, &mut shift);

            let oracle = scatter_oracle(&geom, &bc, &q, &cond, &shift);
            let adj = HalfEdges::build(&geom, &bc, &dual.vol);
            let rows = JacobianRows::new(&adj, &bc, nv);
            let jac = JacobianAt::new(&rows, &adj, &bc, &cond, &q, &shift);
            let assembled = jac.assemble();
            fun3d_util::prop_assert!(
                (&assembled.row_ptr, &assembled.col_idx) == (&oracle.row_ptr, &oracle.col_idx),
                "the row kernel's pattern is the mesh pattern"
            );
            fun3d_util::prop_assert!(
                bits(&assembled.blocks) == bits(&oracle.blocks),
                "rows = scatter"
            );

            let sym = IluSymbolic::new(rows.pattern(), &ilu::symbolic_iluk(rows.pattern(), fill));
            let want = factor_bits(&sym.factor(&oracle));
            fun3d_util::prop_assert!(factor_bits(&sym.factor(&jac)) == want, "serial, fill {fill}");
            for nt in 1..=3 {
                let pool = ThreadPool::new(nt);
                let fwd = P2pSchedule::forward(sym.l_pattern(), nt);
                let mut f = sym.allocate();
                f.l.blocks.fill(f32::NAN);
                sym.refactor_team(&jac, &mut f, &pool, &fwd, &fwd.progress());
                fun3d_util::prop_assert!(factor_bits(&f) == want, "team at nt = {nt}, fill {fill}");
            }

            // An owned prefix: the other vertices are ghosts, whose columns
            // drop and whose boundary entries belong to another rank.
            let owned = nv / 2;
            let mut obc = BcData::default();
            for k in (0..bc.len()).filter(|&k| (bc.vertex[k] as usize) < owned) {
                obc.vertex.push(bc.vertex[k]);
                obc.nx.push(bc.nx[k]);
                obc.ny.push(bc.ny[k]);
                obc.nz.push(bc.nz[k]);
                obc.tag.push(bc.tag[k]);
            }
            let owned_shift = &shift[..owned * 4];
            let block = leading_block(&scatter_oracle(&geom, &obc, &q, &cond, owned_shift), owned);
            let adj = HalfEdges::try_build(&geom, &obc, &dual.vol, owned).expect("an owned prefix");
            let rows = JacobianRows::new(&adj, &obc, owned);
            let jac = JacobianAt::new(&rows, &adj, &obc, &cond, &q, owned_shift);
            let assembled = jac.assemble();
            fun3d_util::prop_assert!(
                (&assembled.row_ptr, &assembled.col_idx) == (&block.row_ptr, &block.col_idx)
                    && bits(&assembled.blocks) == bits(&block.blocks),
                "owned rows = the scatter's owned-owned block"
            );
            let sym = IluSymbolic::new(rows.pattern(), &ilu::symbolic_iluk(rows.pattern(), fill));
            fun3d_util::prop_assert!(
                factor_bits(&sym.factor(&jac)) == factor_bits(&sym.factor(&block)),
                "rank-local factors, fill {fill}"
            );
        }
    }

    #[test]
    fn slots_are_the_searched_positions_for_any_edge_order() {
        // The generator's edge order, sorted, reversed and with every edge
        // flipped: each half-edge's slot is where its neighbour sits in
        // the mesh pattern's row, and the pattern is the mesh pattern.
        let f = setup();
        let ne = f.geom.nedges();
        let mut sorted: Vec<usize> = (0..ne).collect();
        sorted.sort_unstable_by_key(|&k| f.geom.edges()[k]);
        let reversed: Vec<usize> = sorted.iter().rev().copied().collect();
        let natural: Vec<usize> = (0..ne).collect();
        let vol = vec![1.0; f.geom.nvertices()];
        for (order, flip) in [
            (&natural, false),
            (&sorted, false),
            (&reversed, false),
            (&sorted, true),
        ] {
            let geom = reordered(&f.geom, order, &vec![flip; ne]);
            let adj = HalfEdges::build(&geom, &f.bc, &vol);
            let rows = JacobianRows::new(&adj, &f.bc, geom.nvertices());
            let mesh_pattern = Bcsr4::from_edges(geom.nvertices(), geom.edges());
            assert_eq!(
                (&rows.row_ptr, &rows.col_idx),
                (&mesh_pattern.row_ptr, &mesh_pattern.col_idx)
            );
            for i in 0..adj.rows() {
                let (lo, hi) = (adj.offsets()[i] as usize, adj.offsets()[i + 1] as usize);
                for h in lo..hi {
                    let k = mesh_pattern.find(i, adj.neighbours()[h]).unwrap();
                    assert_eq!(
                        rows.slot[h] as usize,
                        k - mesh_pattern.row_ptr[i],
                        "row {i}, half-edge {h}"
                    );
                }
                assert_eq!(
                    mesh_pattern.find(i, i as u32),
                    Some(mesh_pattern.row_ptr[i] + rows.diag[i] as usize)
                );
            }
        }
    }

    #[test]
    fn jacobian_matches_frozen_lambda_residual_fd() {
        // The assembled blocks are the exact derivative of the
        // first-order residual *with the dissipation coefficients λ
        // frozen at the base state* (the standard approximation). Build
        // that frozen residual explicitly and finite-difference it.
        let f = setup();
        let (geom, bc, node, cond) = (&f.geom, &f.bc, &f.node, f.cond);
        let jac = f.assemble(&vec![0.0; node.q.len()]);
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
                euler::spectral_radius(&qa, &n, beta).max(euler::spectral_radius(&qb, &n, beta))
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
                            f[c] =
                                0.5 * (fi[c] + finf[c]) - 0.5 * lam_bc[i] * (cond.qinf[c] - q[c]);
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
        frozen_residual(node, &mut r0);
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
        // Bounded entries, and a row computed twice — through the matrix
        // and through the row source over a dirty buffer — is the same.
        let f = setup();
        let shift = vec![0.0; f.node.q.len()];
        let jac = f.assemble(&shift);
        assert!(jac.blocks.iter().all(|x| x.is_finite()));
        assert_eq!(jac.blocks, f.assemble(&shift).blocks);
        let at = JacobianAt::new(&f.rows, &f.adj, &f.bc, &f.cond, &f.node.q, &shift);
        let mut buf = vec![f64::NAN; 64 * BLOCK];
        for i in 0..jac.nrows() {
            let want = &jac.blocks[jac.row_ptr[i] * BLOCK..jac.row_ptr[i + 1] * BLOCK];
            assert_eq!(at.row(i, &mut buf), want, "row {i}");
        }
    }

    #[test]
    fn time_diagonal_added_once_per_unknown() {
        let f = setup();
        let n = f.node.q.len();
        let before = f.assemble(&vec![0.0; n]);
        let shift: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let jac = f.assemble(&shift);
        for r in 0..jac.nrows() {
            let k = jac.find(r, r as u32).unwrap();
            for d in 0..4 {
                let idx = k * 16 + d * 4 + d;
                assert!((jac.blocks[idx] - before.blocks[idx] - shift[r * 4 + d]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn diagonal_dominance_improves_with_time_term() {
        // A large V/Δt shift must make the matrix strongly diagonally
        // dominant (this is what makes early PTC steps easy to solve).
        let f = setup();
        let jac = f.assemble(&vec![1e3; f.node.q.len()]);
        for r in 0..jac.nrows() {
            for i in 0..4 {
                let (mut diag, mut off) = (0.0, 0.0);
                for k in jac.row_ptr[r]..jac.row_ptr[r + 1] {
                    let on_diag = jac.col_idx[k] as usize == r;
                    for j in 0..4 {
                        let v = jac.block(k)[i * 4 + j].abs();
                        if on_diag && i == j {
                            diag = v;
                        } else {
                            off += v;
                        }
                    }
                }
                let row = r * 4 + i;
                assert!(diag > off, "row {row} not dominant: {diag} vs {off}");
            }
        }
    }
}
