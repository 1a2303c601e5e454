//! The paper's "before" rows of the flux kernel, kept apart from the
//! application so that Fig. 6's tables can time them against it:
//!
//! * [`serial_soa`] over [`NodeSoa`] — Fig. 6a's baseline: the scalar
//!   loop on one array per variable, bitwise `flux_serial_aos`;
//! * [`atomics`] — Fig. 6b's "basic partitioning with atomics": natural
//!   edge ranges over threads, every vertex update an atomic CAS add
//!   (equal to `flux_serial_aos` to rounding only: the accumulation
//!   order is the race's);
//! * [`stream`] over [`CompMajorNode`], described below.
//!
//! All three take their arithmetic from `fun3d_core` (`edge_flux`,
//! `roe_lanes`, `roe_flux`), so a row differs from production
//! only in how it loads and commits.
//!
//! [`stream`] is the streamed flux lane body as it was while a vertex's
//! gradient row was stored comp-major (`∂p/∂x, ∂p/∂y, ∂p/∂z, ∂u/∂x, …`)
//! and every gather was bounds-checked — the reference variant for Fig.
//! 6a's table, so that what the production body (`fun3d_core::flux`:
//! dim-major rows, reconstruction in component lanes, indices validated
//! at construction) gains can be read off one run.
//!
//! Per 4-edge batch it loads `2 × (4 + 12)` vectors and turns them into
//! edge lanes with **eight** 4×4 transposes before the first multiply (the
//! production body reconstructs first and transposes the two
//! reconstructed states: two), keeps 38 vectors live across the
//! reconstruction (the AVX2 register file holds 16), and checks every
//! index it forms. The arithmetic per element is the production body's —
//! it calls the same [`roe_lanes`] — so the two agree **bit for
//! bit**, and the table times the same flux on two row layouts.
//! Comp-major gradient rows exist nowhere outside this module
//! (`scripts/verify.sh` holds the dim-major index to one file of
//! `crates/*/src`).

use fun3d_core::{edge_flux, grad_slot, roe_flux, roe_lanes, EdgeGeom, NodeAos, GRAD_ROW};
use fun3d_simd::{aos_load_transpose, with_lanes, Isa, Simd};
use fun3d_threads::{AtomicF64View, ThreadPool};

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
    /// into one buffer field-major: `grad[f * n + v]`, `f = comp*3 + dim`.
    pub grad: Vec<f64>,
    /// Vertex count.
    pub n: usize,
}

impl NodeSoa {
    /// Builds from the AoS layout.
    pub fn from_aos(aos: &NodeAos) -> NodeSoa {
        let n = aos.n;
        let mut s = NodeSoa {
            p: vec![0.0; n],
            u: vec![0.0; n],
            v: vec![0.0; n],
            w: vec![0.0; n],
            grad: vec![0.0; 12 * n],
            n,
        };
        for v in 0..n {
            s.p[v] = aos.q[v * 4];
            s.u[v] = aos.q[v * 4 + 1];
            s.v[v] = aos.q[v * 4 + 2];
            s.w[v] = aos.q[v * 4 + 3];
            for c in 0..4 {
                for d in 0..3 {
                    s.grad[(c * 3 + d) * n + v] = aos.dq(v, c, d);
                }
            }
        }
        s
    }

    /// Gathers the 4 state variables of vertex `i`.
    #[inline]
    pub fn state(&self, i: usize) -> [f64; 4] {
        [self.p[i], self.u[i], self.v[i], self.w[i]]
    }

    /// Gathers the 12 gradient entries of vertex `i` into a row laid out
    /// like [`NodeAos::gradient`]'s ([`grad_slot`]).
    #[inline]
    pub fn gradient(&self, i: usize) -> [f64; GRAD_ROW] {
        let mut g = [0.0; GRAD_ROW];
        for c in 0..4 {
            for d in 0..3 {
                g[grad_slot(c, d)] = self.grad[(c * 3 + d) * self.n + i];
            }
        }
        g
    }
}

/// Baseline: serial scalar loop over edges, SoA node data (4 + 12
/// separate gathers per endpoint).
pub fn serial_soa(geom: &EdgeGeom, node: &NodeSoa, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.n * 4);
    for (k, e) in geom.edges().iter().enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let n = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
        let r = [geom.rx()[k], geom.ry()[k], geom.rz()[k]];
        let (ga, gb) = (node.gradient(a), node.gradient(b));
        let f = edge_flux(&node.state(a), &node.state(b), &ga, &gb, &n, &r, beta);
        for c in 0..4 {
            res[a * 4 + c] += f[c];
            res[b * 4 + c] -= f[c];
        }
    }
}

/// "Basic partitioning with atomics": edges split in natural contiguous
/// ranges over threads; every vertex update is an atomic CAS add.
pub fn atomics(pool: &ThreadPool, geom: &EdgeGeom, node: &NodeAos, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.n * 4);
    let view = AtomicF64View::new(res);
    pool.parallel_for(geom.nedges(), |_tid, range| {
        for k in range {
            let e = geom.edges()[k];
            let (a, b) = (e[0] as usize, e[1] as usize);
            let n = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
            let r = [geom.rx()[k], geom.ry()[k], geom.rz()[k]];
            let (qa, qb) = (node.state(a), node.state(b));
            let f = edge_flux(&qa, &qb, node.gradient(a), node.gradient(b), &n, &r, beta);
            for c in 0..4 {
                view.fetch_add(a * 4 + c, f[c]);
                view.fetch_add(b * 4 + c, -f[c]);
            }
        }
    });
}

/// Node data with comp-major gradient rows: `grad[v * 12 + c * 3 + d]`.
pub struct CompMajorNode {
    q: Vec<f64>,
    grad: Vec<f64>,
}

impl CompMajorNode {
    /// The state and gradients of `node`, gradient rows re-laid.
    pub fn from_node(node: &NodeAos) -> CompMajorNode {
        let mut grad = vec![0.0; node.n * 12];
        for (v, row) in grad.chunks_exact_mut(12).enumerate() {
            for c in 0..4 {
                for d in 0..3 {
                    row[c * 3 + d] = node.dq(v, c, d);
                }
            }
        }
        CompMajorNode { q: node.q.clone(), grad }
    }
}

/// Adds every edge's Roe flux to `res`, all edges of `geom` in order on
/// the lanes `isa` names: 4-edge batches, the leftover edges one at a
/// time with the scalar arithmetic.
pub fn stream(isa: Isa, geom: &EdgeGeom, node: &CompMajorNode, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.q.len());
    // SAFETY: `stream_body` has no contract; it is `unsafe` because
    // `with_lanes!` takes kernel bodies.
    with_lanes!(
        isa,
        unsafe stream_body(geom: &EdgeGeom, node: &CompMajorNode, beta: f64, res: &mut [f64])
    );
}

/// # Safety
/// None; `with_lanes!` takes kernel bodies, which are unsafe.
#[inline(always)]
unsafe fn stream_body<S: Simd>(
    s: S,
    geom: &EdgeGeom,
    node: &CompMajorNode,
    beta: f64,
    res: &mut [f64],
) {
    let (edges, n, r) = (geom.edges(), geom.normals(), geom.deltas());
    let (q, grad) = (&node.q[..], &node.grad[..]);
    let half = s.splat(0.5);
    let nbatch = edges.len() / 4 * 4;
    for k in (0..nbatch).step_by(4) {
        let e = &edges[k..k + 4];
        let ia = [e[0][0] as usize, e[1][0] as usize, e[2][0] as usize, e[3][0] as usize];
        let ib = [e[0][1] as usize, e[1][1] as usize, e[2][1] as usize, e[3][1] as usize];
        let qa = aos_load_transpose::<S, 4>(s, q, ia);
        let qb = aos_load_transpose::<S, 4>(s, q, ib);
        let ga = aos_load_transpose::<S, 12>(s, grad, ia);
        let gb = aos_load_transpose::<S, 12>(s, grad, ib);
        let nk = [s.load(&n[0][k..k + 4]), s.load(&n[1][k..k + 4]), s.load(&n[2][k..k + 4])];
        let rk = [s.load(&r[0][k..k + 4]), s.load(&r[1][k..k + 4]), s.load(&r[2][k..k + 4])];
        let (mut ql, mut qr) = (qa, qb);
        for c in 0..4 {
            let da = ga[c * 3] * rk[0] + ga[c * 3 + 1] * rk[1] + ga[c * 3 + 2] * rk[2];
            let db = gb[c * 3] * rk[0] + gb[c * 3 + 1] * rk[1] + gb[c * 3 + 2] * rk[2];
            ql[c] = qa[c] + da * half;
            qr[c] = qb[c] - db * half;
        }
        let rows = s.transpose(roe_lanes(s, &ql, &qr, &nk, beta));
        for lane in 0..4 {
            let ra = &mut res[ia[lane] * 4..ia[lane] * 4 + 4];
            s.store(s.load(ra) + rows[lane], ra);
            let rb = &mut res[ib[lane] * 4..ib[lane] * 4 + 4];
            s.store(s.load(rb) - rows[lane], rb);
        }
    }
    for k in nbatch..edges.len() {
        let (a, b) = (edges[k][0] as usize, edges[k][1] as usize);
        let (mut ql, mut qr) = ([0.0; 4], [0.0; 4]);
        for c in 0..4 {
            let slope = |g: &[f64]| g[c * 3] * r[0][k] + g[c * 3 + 1] * r[1][k] + g[c * 3 + 2] * r[2][k];
            ql[c] = q[a * 4 + c] + 0.5 * slope(&grad[a * 12..a * 12 + 12]);
            qr[c] = q[b * 4 + c] - 0.5 * slope(&grad[b * 12..b * 12 + 12]);
        }
        let f = roe_flux(&ql, &qr, &[n[0][k], n[1][k], n[2][k]], beta);
        for c in 0..4 {
            res[a * 4 + c] += f[c];
            res[b * 4 + c] -= f[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelFixture;
    use fun3d_core::{
        flux_run, flux_serial_aos, green_gauss, BcData, Exec, FlowConditions, HalfEdges, Traversal,
    };
    use fun3d_mesh::generator::{ChannelSpec, MeshPreset};
    use fun3d_mesh::DualMesh;
    use fun3d_util::Gen;
    use fun3d_util::{prop_assert, prop_assert_eq, prop_cases, Rng64};

    /// A random channel mesh and a random state around free stream, its
    /// gradients from one Green-Gauss pass.
    fn random_fixture(g: &mut Gen) -> (EdgeGeom, NodeAos) {
        let mut spec = ChannelSpec::with_resolution(6, 5, 4);
        spec.seed = g.u64();
        spec.jitter = g.f64_range(0.0, 0.3);
        let amp = g.f64_range(0.0, 0.4);
        let mesh = spec.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let mut node = NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&FlowConditions::default().qinf);
        let mut rng = Rng64::new(spec.seed ^ 0xABCD);
        for x in node.q.iter_mut() {
            *x += rng.range_f64(-amp, amp);
        }
        let adj = HalfEdges::build(&geom, &BcData::build(&dual), &dual.vol);
        green_gauss(Isa::detect(), Exec::Caller, &adj, &mut node);
        (geom, node)
    }

    fn serial_aos(geom: &EdgeGeom, node: &NodeAos) -> Vec<f64> {
        let mut res = vec![0.0; node.n * 4];
        flux_serial_aos(geom, node, 1.0, &mut res);
        res
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
            assert_eq!(soa.gradient(v), aos.gradient(v));
            for c in 0..4 {
                for d in 0..3 {
                    assert_eq!(soa.grad[(c * 3 + d) * n + v], aos.dq(v, c, d));
                }
            }
        }
    }

    prop_cases! {
        fn soa_matches_aos_exactly(g, cases = 12) {
            let (geom, node) = random_fixture(g);
            let mut r = vec![0.0; node.n * 4];
            serial_soa(&geom, &NodeSoa::from_aos(&node), 1.0, &mut r);
            prop_assert_eq!(serial_aos(&geom, &node), r, "layouts must not change results");
        }

        fn atomics_matches_scalar(g, cases = 12) {
            let nthreads = g.usize_range(1, 5);
            let (geom, node) = random_fixture(g);
            let reference = serial_aos(&geom, &node);
            let pool = ThreadPool::new(nthreads);
            let mut r = vec![0.0; node.n * 4];
            atomics(&pool, &geom, &node, 1.0, &mut r);
            // atomic accumulation order is nondeterministic: tolerance only
            for (i, (a, b)) in reference.iter().zip(&r).enumerate() {
                prop_assert!((a - b).abs() <= 1e-11 * (1.0 + a.abs()), "entry {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn reference_body_is_the_production_body_bit_for_bit() {
        // Same products, same association, other row layout: the timing
        // rows of Fig. 6a compare two ways of computing one result.
        let fix = KernelFixture::new(MeshPreset::Tiny);
        assert_ne!(fix.geom.nedges() % 4, 0, "premise: the scalar tail runs too");
        let node = CompMajorNode::from_node(&fix.node);
        for isa in std::iter::once(Isa::portable()).chain(Isa::avx2()) {
            let mut want = vec![0.0; fix.node.n * 4];
            flux_run(Some(isa), Exec::Caller, Traversal::stream(&fix.geom), &fix.node, 1.0, &mut want);
            let mut got = vec![0.0; fix.node.n * 4];
            stream(isa, &fix.geom, &node, 1.0, &mut got);
            assert_eq!(want, got, "{} lanes", isa.name());
        }
    }
}
