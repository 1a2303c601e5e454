//! The edge-based flux kernel of Section V.A: the Roe flux of one edge,
//! as the bodies the traversals of [`crate::edge_loop`] run.
//!
//! Every variant computes the identical discrete residual contribution
//!
//! ```text
//! for each edge (a, b):  F* = Roe(qL, qR, n_ab);  res[a] += F*;  res[b] -= F*
//! ```
//!
//! with second-order reconstruction `qL = q_a + ½∇q_a·r`, `qR = q_b −
//! ½∇q_b·r`. [`run`] is the kernel: a body (rows) on a [`Traversal`]
//! (columns), each column on either [`Exec`] context.
//!
//! A vertex row is stored the way this loop loads it: the gradient row is
//! the three 4-vectors `∂q/∂x, ∂q/∂y, ∂q/∂z` ([`crate::geom::grad_slot`]),
//! so an endpoint's reconstruction is three loads, three multiplies by a
//! broadcast `r` component and two adds *in component lanes*, and only the
//! two reconstructed states of each edge are transposed into edge lanes —
//! two 4×4 transposes per batch where a comp-major row needed eight, and
//! no spills (EXPERIMENTS, "Residual: instructions per batch"). And an
//! index is checked where it is made: the gathers and the commit use the
//! traversal's validated endpoints unchecked ([`crate::edge_loop`]).
//!
//! | body \ traversal | `Stream` | `Owner` | `Tiled` |
//! |---|---|---|---|
//! | lanes (`Some(isa)`): 4-edge SIMD batch, per-vertex reconstruction, in-register transposes, scalar tail | Fig. 6a's SIMD and SIMD + prefetch rows | the optimized threaded kernel; a rank's kernel | cache-blocked tiles |
//! | scalar (`None`): one edge at a time | [`serial_aos`] | Fig. 6b's owner-writes rows | scalar tiles |
//!
//! The lane body follows the paper's restructuring: the dependency-free
//! compute ([`roe_lanes`]) runs one edge per lane; the four per-edge
//! fluxes are then transposed in registers and committed edge by edge, in
//! edge order. It
//! is written once, generic over [`fun3d_simd::Simd`], and runs on the
//! portable lanes or, behind a `#[target_feature(enable = "avx2")]`
//! entry, on AVX2 — bitwise identical (no FMA, no reassociation), so
//! which one ran never shows in a result. The scalar body is bitwise
//! [`serial_aos`] on `Stream` and `Owner` at any thread count; the lane
//! body agrees with it to rounding, and with itself bitwise per set of
//! edge lists (a list's leftover edges get the scalar arithmetic).
//!
//! One loop stands outside the grid on purpose. [`serial_aos`] is the
//! plain scalar loop of Table I / Fig. 6a: the oracle of every
//! equivalence suite and what `OptConfig::baseline()` runs, so it shares
//! nothing with the driver it checks but [`edge_flux`]. The paper's other
//! "before" rows — the SoA loop and Fig. 6b's atomics — live with the
//! benches (`crates/bench/src/flux_reference.rs`).

use crate::edge_loop::{self, EdgeBody, Exec, Reads, Traversal};
use crate::euler;
use crate::geom::{grad_slot, EdgeGeom, NodeAos, VertexRows};
use fun3d_simd::{Isa, Simd};

/// Shared per-edge physics, scalar form: the Roe flux of edge `(a, b)`
/// from the states `qa`, `qb`, the gradient rows `ga`, `gb`
/// ([`grad_slot`]), the normal `n` and the delta `r`. Every scalar loop
/// calls it, the benches' paper-figure references included.
#[inline(always)]
pub fn edge_flux(
    qa: &[f64; 4],
    qb: &[f64; 4],
    ga: &[f64],
    gb: &[f64],
    n: &[f64; 3],
    r: &[f64; 3],
    beta: f64,
) -> [f64; 4] {
    let mut ql = [0.0f64; 4];
    let mut qr = [0.0f64; 4];
    for c in 0..4 {
        let [x, y, z] = [grad_slot(c, 0), grad_slot(c, 1), grad_slot(c, 2)];
        let da = ga[x] * r[0] + ga[y] * r[1] + ga[z] * r[2];
        let db = gb[x] * r[0] + gb[y] * r[1] + gb[z] * r[2];
        ql[c] = qa[c] + 0.5 * da;
        qr[c] = qb[c] - 0.5 * db;
    }
    euler::roe_flux(&ql, &qr, n, beta)
}

/// Serial scalar loop with AoS node data (one contiguous load per
/// endpoint's state and gradient).
pub fn serial_aos(geom: &EdgeGeom, node: &NodeAos, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.n * 4);
    for (k, e) in geom.edges().iter().enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let qa = node.state(a);
        let qb = node.state(b);
        let ga = node.gradient(a);
        let gb = node.gradient(b);
        let n = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
        let r = [geom.rx()[k], geom.ry()[k], geom.rz()[k]];
        let f = edge_flux(&qa, &qb, ga, gb, &n, &r, beta);
        for c in 0..4 {
            res[a * 4 + c] += f[c];
            res[b * 4 + c] -= f[c];
        }
    }
}

/// Flux of one side's state, one edge per lane.
#[inline(always)]
fn flux_of<S: Simd>(n: &[S::V; 3], q: &[S::V; 4], beta: S::V) -> [S::V; 4] {
    let theta = n[0] * q[1] + n[1] * q[2] + n[2] * q[3];
    [
        theta * beta,
        q[1] * theta + n[0] * q[0],
        q[2] * theta + n[1] * q[0],
        q[3] * theta + n[2] * q[0],
    ]
}

/// `A(qm) · x`, one edge per lane (`theta` is Θ at the mean state).
#[inline(always)]
fn amul<S: Simd>(
    n: &[S::V; 3],
    qm: &[S::V; 4],
    theta: S::V,
    x: &[S::V; 4],
    beta: S::V,
) -> [S::V; 4] {
    let th_x = n[0] * x[1] + n[1] * x[2] + n[2] * x[3];
    [
        th_x * beta,
        x[0] * n[0] + x[1] * theta + qm[1] * th_x,
        x[0] * n[1] + x[2] * theta + qm[2] * th_x,
        x[0] * n[2] + x[3] * theta + qm[3] * th_x,
    ]
}

/// The Roe flux of four edges, one edge per SIMD lane, from their
/// reconstructed states: `ql[c]`, `qr[c]` hold variable `c` of the four
/// edges and `n[d]` component `d` of their normals. Output `[c]` is flux
/// component `c` of the four edges. No FMA, no reassociation: bitwise the
/// same on every [`Simd`] implementation. (Public for the benches'
/// reference lane body, which differs from the production one only in how
/// `ql`/`qr` are gathered.)
#[inline(always)]
pub fn roe_lanes<S: Simd>(
    s: S,
    ql: &[S::V; 4],
    qr: &[S::V; 4],
    n: &[S::V; 3],
    beta: f64,
) -> [S::V; 4] {
    let (half, beta) = (s.splat(0.5), s.splat(beta));
    // fluxes at both sides
    let fl = flux_of::<S>(n, ql, beta);
    let fr = flux_of::<S>(n, qr, beta);
    // mean state and wave structure
    let qm = [
        (ql[0] + qr[0]) * half,
        (ql[1] + qr[1]) * half,
        (ql[2] + qr[2]) * half,
        (ql[3] + qr[3]) * half,
    ];
    let theta = n[0] * qm[1] + n[1] * qm[2] + n[2] * qm[3];
    let s2 = n[0] * n[0] + n[1] * n[1] + n[2] * n[2];
    let c = s.sqrt(theta * theta + s2 * beta);
    // |A| polynomial coefficients per lane
    let m2 = theta + c;
    let m3 = theta - c;
    let c2inv = s.splat(1.0) / (c * c);
    let l1 = s.abs(theta) * c2inv * s.splat(-1.0);
    let l2 = s.abs(m2) * c2inv * half;
    let l3 = s.abs(m3) * c2inv * half;
    let pa = l1 + l2 + l3;
    let pb = -(l1 * (m2 + m3) + l2 * (theta + m3) + l3 * (theta + m2));
    let pd = l1 * m2 * m3 + l2 * theta * m3 + l3 * theta * m2;
    // A(qm) * x applied twice, lane-wise
    let dq = [qr[0] - ql[0], qr[1] - ql[1], qr[2] - ql[2], qr[3] - ql[3]];
    let adq = amul::<S>(n, &qm, theta, &dq, beta);
    let aadq = amul::<S>(n, &qm, theta, &adq, beta);
    let mut out = dq;
    for k in 0..4 {
        let diss = pa * aadq[k] + pb * adq[k] + pd * dq[k];
        out[k] = (fl[k] + fr[k] - diss) * half;
    }
    out
}

/// `q + ½ ∇q·r` (`left`, the edge's `a` side) or `q − ½ ∇q·r` at the row
/// `i`, in component lanes; `r` is the edge's delta broadcast per
/// component. The products and their association are the scalar kernel's
/// (`(g_x r_0 + g_y r_1) + g_z r_2`, then `· ½`, then `±`).
///
/// # Safety
/// `i < src.rows()`.
#[inline(always)]
unsafe fn reconstruct<S: Simd>(s: S, src: Reads, i: usize, r: &[S::V; 3], left: bool) -> S::V {
    // SAFETY: a row of `src` per the caller's contract.
    let (q, g) = unsafe { (s.load(src.q(i)), src.grad(i)) };
    let slope = s.load(&g[grad_slot(0, 0)..]) * r[0]
        + s.load(&g[grad_slot(0, 1)..]) * r[1]
        + s.load(&g[grad_slot(0, 2)..]) * r[2];
    let half = slope * s.splat(0.5);
    if left { q + half } else { q - half }
}

/// One SIMD batch over the edges `ks` of `src`: reconstructs the two
/// states of each edge from the rows `ia`/`ib` in component lanes,
/// transposes them into edge lanes, computes one edge per lane, and
/// returns the flux of edge `lane` as `rows[lane]`.
///
/// # Safety
/// Every `ks[lane] < src.nedges()` and every `ia[lane]`, `ib[lane]` `<
/// src.rows()`.
#[inline(always)]
unsafe fn flux_batch<S: Simd>(
    s: S,
    src: Reads,
    ks: [usize; 4],
    ia: [usize; 4],
    ib: [usize; 4],
    beta: f64,
) -> [S::V; 4] {
    let zero = s.splat(0.0);
    let (mut ql, mut qr) = ([zero; 4], [zero; 4]);
    for e in 0..4 {
        // SAFETY: edges and rows of `src` per the caller's contract.
        unsafe {
            let r = src.delta(ks[e]);
            let r = [s.splat(r[0]), s.splat(r[1]), s.splat(r[2])];
            ql[e] = reconstruct(s, src, ia[e], &r, true);
            qr[e] = reconstruct(s, src, ib[e], &r, false);
        }
    }
    let (ql, qr) = (s.transpose(ql), s.transpose(qr));
    // SAFETY: edges of `src` per the caller's contract.
    let n = unsafe {
        [src.normal_lanes(s, 0, ks), src.normal_lanes(s, 1, ks), src.normal_lanes(s, 2, ks)]
    };
    s.transpose(roe_lanes(s, &ql, &qr, &n, beta))
}

/// Commits a batch in edge order (later edges may share vertices with
/// earlier ones): `res[a] += rows[lane]` and `res[b] -= rows[lane]` for
/// the endpoints the edge's mask selects (bit 0 = `a`, bit 1 = `b`).
///
/// # Safety
/// `res` has a row of 4 at every `wa[lane]`, `wb[lane]`, and the caller
/// has exclusive access to those of every selected endpoint (see
/// [`VertexRows::row`]).
#[inline(always)]
unsafe fn commit<S: Simd>(
    s: S,
    res: VertexRows,
    wa: [usize; 4],
    wb: [usize; 4],
    masks: [u8; 4],
    rows: [S::V; 4],
) {
    for lane in 0..4 {
        if masks[lane] & 1 != 0 {
            // SAFETY: in range and exclusive per the caller's contract.
            let ra = unsafe { res.row(wa[lane] * 4, 4) };
            s.store(s.load(ra) + rows[lane], ra);
        }
        if masks[lane] & 2 != 0 {
            // SAFETY: in range and exclusive per the caller's contract.
            let rb = unsafe { res.row(wb[lane] * 4, 4) };
            s.store(s.load(rb) - rows[lane], rb);
        }
    }
}

/// The Roe flux as an edge body. `Roe<true>` is the lane body: 4-edge
/// SIMD batches, the leftover edges one at a time. `Roe<false>` is the
/// scalar body: it takes no batches, so every edge is a leftover edge —
/// [`serial_aos`]'s arithmetic.
#[derive(Clone, Copy)]
struct Roe<const LANES: bool> {
    beta: f64,
}

impl<const LANES: bool> EdgeBody for Roe<LANES> {
    const ROW: usize = 4;
    const BATCHED: bool = LANES;

    #[inline(always)]
    unsafe fn edge<S: Simd>(self, _s: S, src: Reads, k: usize, res: VertexRows, mask: u8) {
        // SAFETY: an edge of `src` per the caller's contract, whose
        // endpoints are rows of `src` (`Reads::new`).
        let ((wa, wb), qa, qb, ga, gb, n, r) = unsafe {
            let (a, b) = src.endpoints(k);
            let (qa, qb) = (src.q(a), src.q(b));
            (
                (a, b),
                [qa[0], qa[1], qa[2], qa[3]],
                [qb[0], qb[1], qb[2], qb[3]],
                src.grad(a),
                src.grad(b),
                src.normal(k),
                src.delta(k),
            )
        };
        let f = edge_flux(&qa, &qb, ga, gb, &n, &r, self.beta);
        if mask & 1 != 0 {
            // SAFETY: `res` has a row per endpoint, this one exclusive, per
            // the caller's contract.
            let ra = unsafe { res.row(wa * 4, 4) };
            for c in 0..4 {
                ra[c] += f[c];
            }
        }
        if mask & 2 != 0 {
            // SAFETY: as above.
            let rb = unsafe { res.row(wb * 4, 4) };
            for c in 0..4 {
                rb[c] -= f[c];
            }
        }
    }

    #[inline(always)]
    unsafe fn batch<S: Simd>(
        self,
        s: S,
        src: Reads,
        ks: [usize; 4],
        out: VertexRows,
        masks: [u8; 4],
    ) {
        // SAFETY: the caller's contract is `flux_batch`'s and `commit`'s
        // (the endpoints of edges of `src` are rows of `src`).
        unsafe {
            let (a, b) = src.endpoints4(ks);
            let rows = flux_batch(s, src, ks, a, b, self.beta);
            commit(s, out, a, b, masks, rows);
        }
    }

    #[inline(always)]
    unsafe fn prefetch(self, src: Reads, k: usize) {
        // SAFETY: an edge of `src` per the caller's contract.
        let (a, b) = unsafe { src.endpoints(k) };
        src.prefetch_rows(a);
        src.prefetch_rows(b);
    }
}

/// The flux kernel: adds every edge's Roe flux to the `res` rows `walk`
/// lets it write (`res` is not cleared), on `exec`. `lanes` picks the
/// body: `Some(isa)` the 4-edge SIMD batch on those lanes, `None` scalar
/// arithmetic — which on `Stream` is [`serial_aos`] itself.
pub fn run(
    lanes: Option<Isa>,
    exec: Exec,
    walk: Traversal,
    node: &NodeAos,
    beta: f64,
    res: &mut [f64],
) {
    match (lanes, walk) {
        (Some(isa), _) => edge_loop::run(isa, exec, walk, Roe::<true> { beta }, node, res),
        (None, Traversal::Stream { geom, .. }) => serial_aos(geom, node, beta, res),
        (None, _) => edge_loop::run(Isa::portable(), exec, walk, Roe::<false> { beta }, node, res),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_loop::PREFETCH_DIST;
    use crate::geom::TiledGeom;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::DualMesh;
    use fun3d_partition::{
        natural_partition, partition_graph, EdgeTiling, MultilevelConfig, OwnerWritesPlan,
    };
    use fun3d_threads::ThreadPool;
    use fun3d_util::Rng64;

    fn setup() -> (EdgeGeom, NodeAos) {
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let mut aos = NodeAos::zeros(mesh.nvertices());
        let mut rng = Rng64::new(99);
        for x in aos.q.iter_mut() {
            *x = rng.range_f64(-0.5, 1.5);
        }
        for x in aos.grad.iter_mut() {
            *x = rng.range_f64(-0.2, 0.2);
        }
        (geom, aos)
    }

    fn run_serial(geom: &EdgeGeom, aos: &NodeAos) -> Vec<f64> {
        let mut res = vec![0.0; aos.n * 4];
        serial_aos(geom, aos, 1.0, &mut res);
        res
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert!(
                (a[i] - b[i]).abs() <= tol * (1.0 + a[i].abs()),
                "{what}: entry {i}: {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn simd_matches_scalar() {
        let (geom, aos) = setup();
        let r1 = run_serial(&geom, &aos);
        let mut r2 = vec![0.0; aos.n * 4];
        run(Some(Isa::detect()), Exec::Caller, Traversal::stream(&geom), &aos, 1.0, &mut r2);
        assert_close(&r1, &r2, 1e-12, "simd");
    }

    #[test]
    fn prefetch_matches_scalar() {
        let (geom, aos) = setup();
        let r1 = run_serial(&geom, &aos);
        let mut r2 = vec![0.0; aos.n * 4];
        let walk = Traversal::Stream { geom: &geom, prefetch: Some(PREFETCH_DIST) };
        run(Some(Isa::detect()), Exec::Caller, walk, &aos, 1.0, &mut r2);
        assert_close(&r1, &r2, 1e-12, "prefetch");
    }

    #[test]
    fn owner_writes_natural_matches_serial_bitwise() {
        let (geom, aos) = setup();
        let r1 = run_serial(&geom, &aos);
        for nt in [1usize, 2, 5] {
            let pool = ThreadPool::new(nt);
            let part = natural_partition(aos.n, nt);
            let plan = OwnerWritesPlan::build(geom.edges(), &part, nt);
            let mut r2 = vec![0.0; aos.n * 4];
            run(None, Exec::Pool(&pool), Traversal::owner(&geom, &plan), &aos, 1.0, &mut r2);
            assert_eq!(r1, r2, "owner-writes nt={nt} must be bitwise equal");
        }
    }

    #[test]
    fn owner_writes_metis_matches_serial_bitwise() {
        let (geom, aos) = setup();
        let r1 = run_serial(&geom, &aos);
        let graph = fun3d_mesh::Graph::from_edges(aos.n, geom.edges());
        let nt = 4;
        let part = partition_graph(&graph, nt, &MultilevelConfig::default());
        let plan = OwnerWritesPlan::build(geom.edges(), &part, nt);
        let pool = ThreadPool::new(nt);
        let mut r2 = vec![0.0; aos.n * 4];
        run(None, Exec::Pool(&pool), Traversal::owner(&geom, &plan), &aos, 1.0, &mut r2);
        assert_eq!(r1, r2, "METIS owner-writes must be bitwise equal");
    }

    #[test]
    fn owner_writes_opt_matches_scalar() {
        let (geom, aos) = setup();
        let r1 = run_serial(&geom, &aos);
        let graph = fun3d_mesh::Graph::from_edges(aos.n, geom.edges());
        let nt = 3;
        let part = partition_graph(&graph, nt, &MultilevelConfig::default());
        let plan = OwnerWritesPlan::build(geom.edges(), &part, nt);
        let pool = ThreadPool::new(nt);
        let mut r2 = vec![0.0; aos.n * 4];
        let walk = Traversal::owner(&geom, &plan);
        run(Some(Isa::detect()), Exec::Pool(&pool), walk, &aos, 1.0, &mut r2);
        assert_close(&r1, &r2, 1e-12, "owner-writes-opt");
    }

    #[test]
    fn tiled_matches_scalar() {
        let (geom, aos) = setup();
        let r1 = run_serial(&geom, &aos);
        for budget in [1usize, 2048, 65536, usize::MAX] {
            let tiling = EdgeTiling::build(
                aos.n,
                geom.edges(),
                &fun3d_partition::TilingConfig::with_target_bytes(budget),
            );
            let tg = TiledGeom::new(tiling, &geom);
            let mut r2 = vec![0.0; aos.n * 4];
            run(Some(Isa::detect()), Exec::Caller, Traversal::Tiled { geom: &tg }, &aos, 1.0, &mut r2);
            // Tiling reorders the edge accumulation: tolerance compare.
            assert_close(&r1, &r2, 1e-11, "tiled");
        }
    }

    #[test]
    fn tiled_pooled_matches_tiled_bitwise() {
        let (geom, aos) = setup();
        let tiling = EdgeTiling::build(
            aos.n,
            geom.edges(),
            &fun3d_partition::TilingConfig::with_target_bytes(4096),
        );
        let tg = TiledGeom::new(tiling, &geom);
        let tiles = Traversal::Tiled { geom: &tg };
        let isa = Some(Isa::detect());
        let mut r1 = vec![0.0; aos.n * 4];
        run(isa, Exec::Caller, tiles, &aos, 1.0, &mut r1);
        for nt in [1usize, 2, 3, 5] {
            let pool = ThreadPool::new(nt);
            let mut r2 = vec![0.0; aos.n * 4];
            // The real region, barriers included, oversubscribed or not.
            run(isa, Exec::Pool(&pool), tiles, &aos, 1.0, &mut r2);
            // Color-major order makes the per-vertex accumulation order
            // thread-count independent: bitwise, not just close.
            assert_eq!(r1, r2, "tiled_pooled nt={nt} must be bitwise equal");
        }
    }

    #[test]
    fn freestream_residual_is_zero_on_interior() {
        // With a uniform state and zero gradients, interior flux
        // contributions telescope: Σ_edges s_e · F(q∞) per vertex equals
        // F(q∞) applied to the dual-face closure, which is minus the
        // boundary normal. So interior vertices (no boundary faces) get
        // exactly zero residual.
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let mut aos = NodeAos::zeros(mesh.nvertices());
        aos.set_freestream(&[0.3, 1.0, 0.1, -0.2]);
        let mut res = vec![0.0; aos.n * 4];
        serial_aos(&geom, &aos, 1.0, &mut res);
        let on_boundary: std::collections::HashSet<u32> = mesh
            .boundary
            .iter()
            .flat_map(|t| t.verts)
            .collect();
        let scale: f64 = res.iter().map(|x| x.abs()).fold(0.0, f64::max);
        for v in 0..aos.n {
            if !on_boundary.contains(&(v as u32)) {
                for c in 0..4 {
                    assert!(
                        res[v * 4 + c].abs() < 1e-12 * scale.max(1.0),
                        "interior vertex {v} comp {c}: {}",
                        res[v * 4 + c]
                    );
                }
            }
        }
    }

    #[test]
    fn replication_overhead_shows_in_plan_not_result() {
        // Natural partitioning has high replication but identical output.
        let (geom, aos) = setup();
        let nt = 6;
        let nat = OwnerWritesPlan::build(geom.edges(), &natural_partition(aos.n, nt), nt);
        assert!(nat.replication_overhead() > 0.0);
        let r1 = run_serial(&geom, &aos);
        let pool = ThreadPool::new(nt);
        let mut r2 = vec![0.0; aos.n * 4];
        run(None, Exec::Pool(&pool), Traversal::owner(&geom, &nat), &aos, 1.0, &mut r2);
        assert_eq!(r1, r2);
    }
}
