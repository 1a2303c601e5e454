//! The edge-based flux kernel in every optimization variant of Section V.A.
//!
//! All variants compute the identical discrete residual contribution
//!
//! ```text
//! for each edge (a, b):  F* = Roe(qL, qR, n_ab);  res[a] += F*;  res[b] -= F*
//! ```
//!
//! with second-order reconstruction `qL = q_a + ½∇q_a·r`, `qR = q_b −
//! ½∇q_b·r`. They differ in how they are scheduled and how node data is
//! laid out:
//!
//! | variant | threading | node layout | SIMD | prefetch |
//! |---|---|---|---|---|
//! | [`serial_soa`] | — | SoA | — | — |
//! | [`serial_aos`] | — | AoS | — | — |
//! | [`serial_aos_simd`] | — | AoS | 4-edge batch | — |
//! | [`serial_aos_simd_prefetch`] | — | AoS | 4-edge batch | L1+L2 |
//! | [`atomics`] | natural edge split | AoS | — | — |
//! | [`owner_writes`] | vertex partition, owner-only writes | AoS | — | — |
//! | [`owner_writes_opt`] | vertex partition, owner-only writes | AoS | 4-edge batch | L1+L2 |
//! | [`tiled`] | — (color-major tile order) | scratch-pad AoS | 4-edge batch | — |
//! | [`tiled_pooled`] | inter-tile coloring, tiles of a color in parallel | scratch-pad AoS | 4-edge batch | — |
//!
//! The SIMD batch follows the paper's restructuring: the dependency-free
//! compute runs one edge per lane; the four per-edge fluxes are then
//! transposed in registers and committed edge by edge, in edge order.
//! The batch steps ([`edge_flux_simd`], the transposing gathers, the
//! commit) are written once, generic over [`fun3d_simd::Simd`]; every
//! SIMD driver instantiates them for the portable lanes and, behind a
//! `#[target_feature(enable = "avx2")]` entry, for AVX2, and picks one
//! per call with [`Isa::detect`]. The two instantiations are bitwise
//! identical (no FMA, no reassociation), so which one ran never shows in
//! a result. The `*_on` entry points take the [`Isa`] from the caller;
//! the equivalence tests and the Fig. 6a bench use them to run both.
//!
//! The tiled variants go beyond the paper (ROADMAP item 2): vertex data
//! of a cache-sized [`EdgeTiling`] tile is staged once into a dense
//! scratch pad, every intra-tile edge reads and accumulates there with
//! full reuse, and the result is scattered back per unique vertex —
//! replacing the streaming kernels' two DRAM gathers per edge with one
//! stage + one scatter per staged vertex. Same-color tiles are
//! vertex-disjoint, so [`tiled_pooled`] runs each color class across the
//! pool with no atomics and no replicated work, separated by barriers.

use crate::euler;
use crate::geom::{EdgeGeom, NodeAos, NodeSoa, TiledGeom, VertexRows};
use fun3d_partition::{EdgeTiling, OwnerWritesPlan, Tile};
use fun3d_simd::{aos_load_transpose, prefetch_l1, prefetch_l2, with_lanes, Isa, Simd};
use fun3d_threads::{available_cores, chunk_range, AtomicF64View, SpinBarrier, ThreadPool};

/// Prefetch distance in edges. Tuned: the `prefetch_dist` microbench
/// group sweeps 4/8/16/32 on this host (artifact in
/// `target/experiments/microbench.csv`); 8 and 16 tie within noise,
/// 4 and 32 are measurably worse.
pub const PREFETCH_DIST: usize = 16;

/// Shared per-edge physics, scalar form.
#[inline(always)]
fn edge_flux(
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
        let da = ga[c * 3] * r[0] + ga[c * 3 + 1] * r[1] + ga[c * 3 + 2] * r[2];
        let db = gb[c * 3] * r[0] + gb[c * 3 + 1] * r[1] + gb[c * 3 + 2] * r[2];
        ql[c] = qa[c] + 0.5 * da;
        qr[c] = qb[c] - 0.5 * db;
    }
    euler::roe_flux(&ql, &qr, n, beta)
}

/// Baseline: serial scalar loop over edges, SoA node data (4 + 12
/// separate gathers per endpoint).
pub fn serial_soa(geom: &EdgeGeom, node: &NodeSoa, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.n * 4);
    for (k, e) in geom.edges.iter().enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let qa = node.state(a);
        let qb = node.state(b);
        let ga = node.gradient(a);
        let gb = node.gradient(b);
        let n = [geom.nx[k], geom.ny[k], geom.nz[k]];
        let r = [geom.rx[k], geom.ry[k], geom.rz[k]];
        let f = edge_flux(&qa, &qb, &ga, &gb, &n, &r, beta);
        for c in 0..4 {
            res[a * 4 + c] += f[c];
            res[b * 4 + c] -= f[c];
        }
    }
}

/// Serial scalar loop with AoS node data (one contiguous load per
/// endpoint's state and gradient).
pub fn serial_aos(geom: &EdgeGeom, node: &NodeAos, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.n * 4);
    for (k, e) in geom.edges.iter().enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let qa = node.state(a);
        let qb = node.state(b);
        let ga = node.gradient(a);
        let gb = node.gradient(b);
        let n = [geom.nx[k], geom.ny[k], geom.nz[k]];
        let r = [geom.rx[k], geom.ry[k], geom.rz[k]];
        let f = edge_flux(&qa, &qb, &ga, &gb, &n, &r, beta);
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

/// Vectorized per-edge physics: one edge per SIMD lane. Output `[c]` is
/// flux component `c` of the four edges.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn edge_flux_simd<S: Simd>(
    s: S,
    qa: &[S::V; 4],
    qb: &[S::V; 4],
    ga: &[S::V; 12],
    gb: &[S::V; 12],
    n: &[S::V; 3],
    r: &[S::V; 3],
    beta: f64,
) -> [S::V; 4] {
    let (half, beta) = (s.splat(0.5), s.splat(beta));
    // reconstruction
    let mut ql = *qa;
    let mut qr = *qb;
    for c in 0..4 {
        let da = ga[c * 3] * r[0] + ga[c * 3 + 1] * r[1] + ga[c * 3 + 2] * r[2];
        let db = gb[c * 3] * r[0] + gb[c * 3 + 1] * r[1] + gb[c * 3 + 2] * r[2];
        ql[c] = qa[c] + da * half;
        qr[c] = qb[c] - db * half;
    }
    // fluxes at both sides
    let fl = flux_of::<S>(n, &ql, beta);
    let fr = flux_of::<S>(n, &qr, beta);
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

/// The `a` endpoints and the `b` endpoints of a 4-edge batch.
#[inline(always)]
fn split4(e: [(usize, usize); 4]) -> ([usize; 4], [usize; 4]) {
    (
        [e[0].0, e[1].0, e[2].0, e[3].0],
        [e[0].1, e[1].1, e[2].1, e[3].1],
    )
}

/// Requests the state and gradient of both endpoints of edge `k` into L1.
#[inline(always)]
fn prefetch_nodes(geom: &EdgeGeom, node: &NodeAos, k: usize) {
    let (a, b) = geom.endpoints(k);
    prefetch_l1(&node.q, a * 4);
    prefetch_l1(&node.q, b * 4);
    prefetch_l1(&node.grad, a * 12);
    prefetch_l1(&node.grad, b * 12);
}

/// One edge-geometry stream at the edges `ks`, one edge per lane.
#[inline(always)]
fn edge_lanes<S: Simd>(s: S, f: &[f64], ks: [usize; 4]) -> S::V {
    if ks[1] == ks[0] + 1 && ks[2] == ks[0] + 2 && ks[3] == ks[0] + 3 {
        s.load(&f[ks[0]..ks[0] + 4])
    } else {
        s.load(&[f[ks[0]], f[ks[1]], f[ks[2]], f[ks[3]]])
    }
}

/// One SIMD batch over the edges `ks` (geometry indices): gathers the
/// endpoints `ia`/`ib` from `q`/`grad` with in-register transposes,
/// computes one edge per lane, and returns the flux of edge `lane` as
/// `rows[lane]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn flux_batch<S: Simd>(
    s: S,
    geom: &EdgeGeom,
    ks: [usize; 4],
    q: &[f64],
    grad: &[f64],
    ia: [usize; 4],
    ib: [usize; 4],
    beta: f64,
) -> [S::V; 4] {
    let qa = aos_load_transpose::<S, 4>(s, q, ia);
    let qb = aos_load_transpose::<S, 4>(s, q, ib);
    let ga = aos_load_transpose::<S, 12>(s, grad, ia);
    let gb = aos_load_transpose::<S, 12>(s, grad, ib);
    let n = [
        edge_lanes(s, &geom.nx, ks),
        edge_lanes(s, &geom.ny, ks),
        edge_lanes(s, &geom.nz, ks),
    ];
    let r = [
        edge_lanes(s, &geom.rx, ks),
        edge_lanes(s, &geom.ry, ks),
        edge_lanes(s, &geom.rz, ks),
    ];
    s.transpose(edge_flux_simd(s, &qa, &qb, &ga, &gb, &n, &r, beta))
}

/// Commits a batch in edge order (later edges may share vertices with
/// earlier ones): `res[a] += rows[lane]` and `res[b] -= rows[lane]` for
/// the endpoints the edge's mask selects (bit 0 = `a`, bit 1 = `b`).
///
/// # Safety
/// The caller has exclusive access to the `res` rows of every selected
/// endpoint (see [`VertexRows::row`]).
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
            // SAFETY: exclusive per the caller's contract.
            let ra = unsafe { res.row(wa[lane] * 4, 4) };
            s.store(s.load(ra) + rows[lane], ra);
        }
        if masks[lane] & 2 != 0 {
            // SAFETY: exclusive per the caller's contract.
            let rb = unsafe { res.row(wb[lane] * 4, 4) };
            s.store(s.load(rb) - rows[lane], rb);
        }
    }
}

/// One edge, scalar: the remainder of every SIMD driver's edge count
/// modulo 4, and the scalar owner-writes loop body. Gathers `(ia, ib)`
/// from `q`/`grad`, writes the `res` rows of `(wa, wb)` that `mask`
/// selects.
///
/// # Safety
/// Same exclusivity contract on `res` as [`commit`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn scalar_edge(
    geom: &EdgeGeom,
    k: usize,
    q: &[f64],
    grad: &[f64],
    (ia, ib): (usize, usize),
    beta: f64,
    res: VertexRows,
    (wa, wb): (usize, usize),
    mask: u8,
) {
    let qa: [f64; 4] = q[ia * 4..ia * 4 + 4].try_into().unwrap();
    let qb: [f64; 4] = q[ib * 4..ib * 4 + 4].try_into().unwrap();
    let ga = &grad[ia * 12..ia * 12 + 12];
    let gb = &grad[ib * 12..ib * 12 + 12];
    let n = [geom.nx[k], geom.ny[k], geom.nz[k]];
    let r = [geom.rx[k], geom.ry[k], geom.rz[k]];
    let f = edge_flux(&qa, &qb, ga, gb, &n, &r, beta);
    if mask & 1 != 0 {
        // SAFETY: exclusive per the caller's contract.
        let ra = unsafe { res.row(wa * 4, 4) };
        for c in 0..4 {
            ra[c] += f[c];
        }
    }
    if mask & 2 != 0 {
        // SAFETY: exclusive per the caller's contract.
        let rb = unsafe { res.row(wb * 4, 4) };
        for c in 0..4 {
            rb[c] -= f[c];
        }
    }
}

/// Serial SIMD variant: 4-edge batches, in-register write-out; scalar
/// tail loop.
pub fn serial_aos_simd(geom: &EdgeGeom, node: &NodeAos, beta: f64, res: &mut [f64]) {
    serial_aos_simd_on(Isa::detect(), geom, node, beta, res, None);
}

/// SIMD + software prefetch: node data of edges `PREFETCH_DIST` ahead is
/// requested into L1 and edge arrays into L2.
pub fn serial_aos_simd_prefetch(geom: &EdgeGeom, node: &NodeAos, beta: f64, res: &mut [f64]) {
    serial_aos_simd_prefetch_dist(geom, node, beta, res, PREFETCH_DIST);
}

/// Like [`serial_aos_simd_prefetch`] with an explicit prefetch distance
/// (in edges) — the knob the distance-sweep ablation turns.
pub fn serial_aos_simd_prefetch_dist(
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: &mut [f64],
    dist: usize,
) {
    serial_aos_simd_on(Isa::detect(), geom, node, beta, res, Some(dist));
}

/// The serial SIMD driver on the lanes `isa` names, prefetching
/// `prefetch` edges ahead (`None`: no prefetch).
pub fn serial_aos_simd_on(
    isa: Isa,
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: &mut [f64],
    prefetch: Option<usize>,
) {
    assert_eq!(res.len(), node.n * 4);
    let res = VertexRows::new(res);
    // SAFETY: `res` views an exclusively borrowed slice and this is the
    // only thread.
    with_lanes!(
        isa,
        unsafe serial_simd(geom: &EdgeGeom, node: &NodeAos, beta: f64, res: VertexRows, prefetch: Option<usize>)
    );
}

/// # Safety
/// The caller has exclusive access to all of `res`.
#[inline(always)]
unsafe fn serial_simd<S: Simd>(
    s: S,
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: VertexRows,
    prefetch: Option<usize>,
) {
    let ne = geom.nedges();
    let nbatch = ne / 4 * 4;
    for k in (0..nbatch).step_by(4) {
        if let Some(dist) = prefetch {
            let pk = k + dist;
            if pk + 4 <= ne {
                for lane in 0..4 {
                    prefetch_nodes(geom, node, pk + lane);
                }
                prefetch_l2(&geom.nx, pk);
                prefetch_l2(&geom.edges, pk);
            }
        }
        let ks = [k, k + 1, k + 2, k + 3];
        let (ia, ib) = split4(ks.map(|k| geom.endpoints(k)));
        let rows = flux_batch(s, geom, ks, &node.q, &node.grad, ia, ib, beta);
        // SAFETY: all of `res` is ours per the caller's contract.
        unsafe { commit(s, res, ia, ib, [3; 4], rows) };
    }
    for k in nbatch..ne {
        let e = geom.endpoints(k);
        // SAFETY: as above.
        unsafe { scalar_edge(geom, k, &node.q, &node.grad, e, beta, res, e, 3) };
    }
}

/// "Basic partitioning with atomics": edges split in natural contiguous
/// ranges over threads; every vertex update is an atomic CAS add.
pub fn atomics(pool: &ThreadPool, geom: &EdgeGeom, node: &NodeAos, beta: f64, res: &mut [f64]) {
    assert_eq!(res.len(), node.n * 4);
    let view = AtomicF64View::new(res);
    pool.parallel_for(geom.nedges(), |_tid, range| {
        for k in range {
            let e = geom.edges[k];
            let (a, b) = (e[0] as usize, e[1] as usize);
            let qa = node.state(a);
            let qb = node.state(b);
            let n = [geom.nx[k], geom.ny[k], geom.nz[k]];
            let r = [geom.rx[k], geom.ry[k], geom.rz[k]];
            let f = edge_flux(&qa, &qb, node.gradient(a), node.gradient(b), &n, &r, beta);
            for c in 0..4 {
                view.fetch_add(a * 4 + c, f[c]);
                view.fetch_add(b * 4 + c, -f[c]);
            }
        }
    });
}

/// Owner-only-writes threading (scalar AoS path): each thread walks its
/// plan edges (interior edges once, cut edges redundantly on both owning
/// threads) and writes only the endpoints it owns.
pub fn owner_writes(
    pool: &ThreadPool,
    plan: &OwnerWritesPlan,
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: &mut [f64],
) {
    assert_eq!(res.len(), node.n * 4);
    assert_eq!(pool.size(), plan.nthreads());
    let res = VertexRows::new(res);
    pool.run(|tid| {
        for (&eid, &mask) in plan.edges_of[tid].iter().zip(&plan.writes_of[tid]) {
            let k = eid as usize;
            let e = geom.endpoints(k);
            // SAFETY: owner-only writes — vertex a (resp. b) is written
            // only by the thread owning it, per the plan's write masks.
            unsafe { scalar_edge(geom, k, &node.q, &node.grad, e, beta, res, e, mask) };
        }
    });
}

/// Owner-only-writes with the full single-thread optimization stack:
/// 4-edge SIMD batches, in-register write-out, software prefetch.
pub fn owner_writes_opt(
    pool: &ThreadPool,
    plan: &OwnerWritesPlan,
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: &mut [f64],
) {
    owner_writes_opt_on(Isa::detect(), pool, plan, geom, node, beta, res);
}

/// [`owner_writes_opt`] on the lanes `isa` names.
pub fn owner_writes_opt_on(
    isa: Isa,
    pool: &ThreadPool,
    plan: &OwnerWritesPlan,
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: &mut [f64],
) {
    assert_eq!(res.len(), node.n * 4);
    assert_eq!(pool.size(), plan.nthreads());
    let res = VertexRows::new(res);
    pool.run(|tid| {
        let (edges, masks) = (&plan.edges_of[tid], &plan.writes_of[tid]);
        // SAFETY: owner-only writes — the plan's masks select, for each
        // vertex, the one thread that owns it.
        unsafe { owner_share(isa, edges, masks, geom, node, beta, res) };
    });
}

/// The masked flux loop of a single owner: a rank's subdomain is one
/// owner of an owner-writes plan, so this is a thread's share of
/// [`owner_writes_opt`] — the same 4-edge SIMD batches and prefetch —
/// with all of `res` to itself. Walks `edges` (indices into `geom`) in
/// order and adds each flux to the rows of the endpoints its mask selects
/// (bit 0 = `a`, bit 1 = `b`); what the masks leave out (ghosts) is read,
/// never written.
pub fn owner_flux(
    edges: &[u32],
    masks: &[u8],
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: &mut [f64],
) {
    assert_eq!(res.len(), node.n * 4);
    let res = VertexRows::new(res);
    // SAFETY: `res` views an exclusively borrowed slice and this is the
    // only thread.
    unsafe { owner_share(Isa::detect(), edges, masks, geom, node, beta, res) };
}

/// One owner's share of the masked loop on the lanes `isa` names.
///
/// # Safety
/// The caller has exclusive access to the `res` rows of every endpoint
/// the masks select.
unsafe fn owner_share(
    isa: Isa,
    edges: &[u32],
    masks: &[u8],
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: VertexRows,
) {
    assert_eq!(edges.len(), masks.len());
    // SAFETY: the caller's contract is the body's.
    with_lanes!(
        isa,
        unsafe owner_simd(edges: &[u32], masks: &[u8], geom: &EdgeGeom, node: &NodeAos, beta: f64, res: VertexRows)
    );
}

/// The lane-generic body of [`owner_share`]: an owner's `edges` with the
/// aligned write `masks`.
///
/// # Safety
/// The caller has exclusive access to the `res` rows of every endpoint
/// the masks select.
#[inline(always)]
unsafe fn owner_simd<S: Simd>(
    s: S,
    edges: &[u32],
    masks: &[u8],
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    res: VertexRows,
) {
    let ne = edges.len();
    let nbatch = ne / 4 * 4;
    for i in (0..nbatch).step_by(4) {
        // prefetch ahead within this thread's edge list
        let pi = i + PREFETCH_DIST;
        if pi + 4 <= ne {
            for lane in 0..4 {
                prefetch_nodes(geom, node, edges[pi + lane] as usize);
            }
        }
        // the 4 (possibly non-consecutive) edges of the batch
        let ks = [
            edges[i] as usize,
            edges[i + 1] as usize,
            edges[i + 2] as usize,
            edges[i + 3] as usize,
        ];
        let (ia, ib) = split4(ks.map(|k| geom.endpoints(k)));
        let rows = flux_batch(s, geom, ks, &node.q, &node.grad, ia, ib, beta);
        let m = [masks[i], masks[i + 1], masks[i + 2], masks[i + 3]];
        // SAFETY: the masked rows are ours per the caller's contract.
        unsafe { commit(s, res, ia, ib, m, rows) };
    }
    for i in nbatch..ne {
        let k = edges[i] as usize;
        let e = geom.endpoints(k);
        // SAFETY: as above.
        unsafe { scalar_edge(geom, k, &node.q, &node.grad, e, beta, res, e, masks[i]) };
    }
}

/// How a tile's vertex data reaches the compute loop.
///
/// Both modes run the identical arithmetic over the identical edge
/// order, so they produce **bitwise identical** results — the choice is
/// purely a traffic trade, made once per solve by [`TileExec::auto`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileExec {
    /// Explicit scratch-pad staging: copy the tile's unique vertices
    /// into a dense local pad, gather through the remap. Pays a copy
    /// per staged vertex to convert DRAM gathers into L1/L2 gathers —
    /// the win the paper-class machines (node arrays ≫ LLC) get from
    /// tiling.
    Staged,
    /// Direct global gathers in tile order: the tile's vertex working
    /// set is L2-sized by construction, so the hardware stages it on
    /// first touch and the remaining gathers hit cache — no copy, no
    /// remap traffic. The right mode when the node arrays are already
    /// LLC-resident and an explicit copy is pure overhead.
    Direct,
}

impl TileExec {
    /// Picks the mode for a machine and mesh: staging only pays when
    /// the flux kernel's node working set (state + gradient + residual
    /// per vertex) cannot live in the last-level cache.
    pub fn auto(machine: &fun3d_machine::MachineSpec, nvertices: usize) -> TileExec {
        let working_set = nvertices * (4 + 12 + 4) * 8;
        if working_set > machine.llc_bytes {
            TileExec::Staged
        } else {
            TileExec::Direct
        }
    }
}

/// Per-worker scratch pad for the tiled kernels, sized to the largest
/// tile: staged state (4/vertex) and gradient (12/vertex), local-index
/// addressed — the reuse-heavy *read* side of the kernel. The residual
/// is accumulated directly in the global array: the coloring already
/// makes the tile's slots exclusive, and they are cache-resident for
/// the tile's lifetime, so a third staged copy would be pure overhead.
pub struct TileScratch {
    q: Vec<f64>,
    grad: Vec<f64>,
}

impl TileScratch {
    /// Allocates a scratch pad holding up to `max_verts` staged vertices.
    pub fn new(max_verts: usize) -> TileScratch {
        TileScratch {
            q: vec![0.0; max_verts * 4],
            grad: vec![0.0; max_verts * 12],
        }
    }
}

/// One tile of the flux kernel: 4-edge SIMD batches over the tile's
/// contiguous edge range, accumulating into the global residual
/// (exclusive per the coloring, cache-resident for the tile).
///
/// `geom` is the tile-ordered geometry ([`TiledGeom`]) and `start` the
/// tile's offset in it: the loop walks `start..start+len` sequentially,
/// so every geometry array is a pure stream.
///
/// With a `scratch` pad ([`TileExec::Staged`]) the tile's unique vertices
/// are first copied into it and the gathers go through the tile's local
/// remap, so they hit L1. Without one ([`TileExec::Direct`]) the gathers
/// go straight to the global arrays — the tile's L2-sized working set is
/// staged by the hardware on first touch — with node data
/// [`PREFETCH_DIST`] ahead prefetched to L1 (the streaming kernels'
/// idiom) to cover the first-touch latency. Identical arithmetic in
/// identical edge order — staging copies values exactly — so the two
/// modes are bitwise identical.
///
/// # Safety
/// The caller must guarantee exclusive access to the `res` rows of this
/// tile's vertices for the duration of the call. The tiled drivers get
/// this from the inter-tile coloring: tiles of one color are
/// vertex-disjoint, and colors are separated by barriers.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_flux<S: Simd>(
    s: S,
    tile: &Tile,
    start: usize,
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    scratch: Option<&mut TileScratch>,
    res: VertexRows,
) {
    let (q, grad, local) = match scratch {
        Some(pad) => {
            // Stage: one contiguous copy per unique vertex (slots are
            // sorted by global id, so the global side of the copy is
            // quasi-sequential).
            for (l, &v) in tile.verts.iter().enumerate() {
                let v = v as usize;
                pad.q[l * 4..l * 4 + 4].copy_from_slice(&node.q[v * 4..v * 4 + 4]);
                pad.grad[l * 12..l * 12 + 12].copy_from_slice(&node.grad[v * 12..v * 12 + 12]);
            }
            (&pad.q[..], &pad.grad[..], Some(&tile.local[..]))
        }
        None => (&node.q[..], &node.grad[..], None),
    };
    // Where edge `i` of the tile gathers from: scratch slots or, with no
    // pad, the global vertices it also writes to.
    let gather = |i: usize, global: (usize, usize)| match local {
        Some(l) => (l[i][0] as usize, l[i][1] as usize),
        None => global,
    };
    let ne = tile.edges.len();
    let nbatch = ne / 4 * 4;
    for i in (0..nbatch).step_by(4) {
        let k = start + i;
        if local.is_none() && k + PREFETCH_DIST + 4 <= start + ne {
            for lane in 0..4 {
                prefetch_nodes(geom, node, k + PREFETCH_DIST + lane);
            }
        }
        let ks = [k, k + 1, k + 2, k + 3];
        let w = ks.map(|k| geom.endpoints(k));
        let (ia, ib) = split4([
            gather(i, w[0]),
            gather(i + 1, w[1]),
            gather(i + 2, w[2]),
            gather(i + 3, w[3]),
        ]);
        let (wa, wb) = split4(w);
        let rows = flux_batch(s, geom, ks, q, grad, ia, ib, beta);
        // SAFETY: exclusive res access for this tile's vertices per the
        // caller's coloring contract.
        unsafe { commit(s, res, wa, wb, [3; 4], rows) };
    }
    for i in nbatch..ne {
        let k = start + i;
        let w = geom.endpoints(k);
        // SAFETY: as above.
        unsafe { scalar_edge(geom, k, q, grad, gather(i, w), beta, res, w, 3) };
    }
}

/// One worker's share of the tiled kernel: for each color, its chunk of
/// the color's tiles, then the barrier that orders colors. The serial
/// driver is the `nt = 1` case with no barrier.
///
/// # Safety
/// Every thread of the region calls this with the same arguments but its
/// own `tid`, and nothing else touches `res` meanwhile: same-color tiles
/// are vertex-disjoint and the barrier orders colors, so each `res` row
/// has one writer at a time.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tiled_worker<S: Simd>(
    s: S,
    (tid, nt): (usize, usize),
    barrier: Option<&SpinBarrier>,
    tiling: &EdgeTiling,
    geom: &EdgeGeom,
    node: &NodeAos,
    beta: f64,
    exec: TileExec,
    res: VertexRows,
) {
    let mut scratch = (exec == TileExec::Staged).then(|| TileScratch::new(tiling.max_tile_verts()));
    for class in &tiling.color_tiles {
        for &t in &class[chunk_range(class.len(), nt, tid)] {
            let t = t as usize;
            let start = tiling.tile_start[t] as usize;
            // SAFETY: this tile's vertices are ours until the barrier
            // (see the function's contract).
            unsafe {
                tile_flux(
                    s,
                    &tiling.tiles[t],
                    start,
                    geom,
                    node,
                    beta,
                    scratch.as_mut(),
                    res,
                )
            };
        }
        if let Some(barrier) = barrier {
            barrier.wait();
        }
    }
}

/// Tiled flux, serial driver: tiles in color-major order (colors outer,
/// a color's tiles in order). Within one color every vertex is touched
/// by at most one tile, so the per-vertex accumulation order is the
/// color order — exactly the order [`tiled_pooled`] produces at any
/// thread count, making serial and pooled tiled bitwise identical.
pub fn tiled(
    tiling: &EdgeTiling,
    geom: &TiledGeom,
    node: &NodeAos,
    beta: f64,
    exec: TileExec,
    res: &mut [f64],
) {
    tiled_on(Isa::detect(), tiling, geom, node, beta, exec, res);
}

/// [`tiled`] on the lanes `isa` names.
pub fn tiled_on(
    isa: Isa,
    tiling: &EdgeTiling,
    geom: &TiledGeom,
    node: &NodeAos,
    beta: f64,
    exec: TileExec,
    res: &mut [f64],
) {
    assert_eq!(res.len(), node.n * 4);
    let geom = geom.geom();
    assert_eq!(tiling.nedges, geom.nedges());
    let res = VertexRows::new(res);
    let (worker, barrier) = ((0, 1), None);
    // SAFETY: `res` views an exclusively borrowed slice and this is the
    // only thread.
    with_lanes!(
        isa,
        unsafe tiled_worker(
            worker: (usize, usize),
            barrier: Option<&SpinBarrier>,
            tiling: &EdgeTiling,
            geom: &EdgeGeom,
            node: &NodeAos,
            beta: f64,
            exec: TileExec,
            res: VertexRows
        )
    );
}

/// Tiled flux on the persistent pool: one region for the whole kernel;
/// each color's tiles are chunked over the workers (vertex-disjoint, so
/// no masks, no atomics, no replicated edges), with a spin barrier
/// between colors. Bitwise identical to [`tiled`] at every thread count.
pub fn tiled_pooled(
    pool: &ThreadPool,
    tiling: &EdgeTiling,
    geom: &TiledGeom,
    node: &NodeAos,
    beta: f64,
    exec: TileExec,
    res: &mut [f64],
) {
    tiled_pooled_on(Isa::detect(), pool, tiling, geom, node, beta, exec, res);
}

/// [`tiled_pooled`] on the lanes `isa` names.
#[allow(clippy::too_many_arguments)]
pub fn tiled_pooled_on(
    isa: Isa,
    pool: &ThreadPool,
    tiling: &EdgeTiling,
    geom: &TiledGeom,
    node: &NodeAos,
    beta: f64,
    exec: TileExec,
    res: &mut [f64],
) {
    let nt = pool.size();
    // Oversubscribed pool (more workers than schedulable cores): the
    // per-color barriers would each cost scheduler round-trips instead
    // of spins, dwarfing the kernel. The serial driver produces the
    // bitwise-identical result (same color-major order), so use it.
    if nt > available_cores() {
        return tiled_on(isa, tiling, geom, node, beta, exec, res);
    }
    assert_eq!(res.len(), node.n * 4);
    let geom = geom.geom();
    assert_eq!(tiling.nedges, geom.nedges());
    let spin = SpinBarrier::new(nt);
    let barrier = Some(&spin);
    let res = VertexRows::new(res);
    pool.run(|tid| {
        let worker = (tid, nt);
        // SAFETY: every pool thread runs this with its own `tid` and the
        // shared barrier, and `res` is exclusively borrowed for the region.
        with_lanes!(
            isa,
            unsafe tiled_worker(
                worker: (usize, usize),
                barrier: Option<&SpinBarrier>,
                tiling: &EdgeTiling,
                geom: &EdgeGeom,
                node: &NodeAos,
                beta: f64,
                exec: TileExec,
                res: VertexRows
            )
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::DualMesh;
    use fun3d_partition::{natural_partition, partition_graph, MultilevelConfig};
    use fun3d_util::Rng64;

    fn setup() -> (EdgeGeom, NodeAos, NodeSoa) {
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
        let soa = NodeSoa::from_aos(&aos);
        (geom, aos, soa)
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
    fn soa_matches_aos_exactly() {
        let (geom, aos, soa) = setup();
        let r1 = run_serial(&geom, &aos);
        let mut r2 = vec![0.0; aos.n * 4];
        serial_soa(&geom, &soa, 1.0, &mut r2);
        assert_eq!(r1, r2, "layouts must not change results");
    }

    #[test]
    fn simd_matches_scalar() {
        let (geom, aos, _) = setup();
        let r1 = run_serial(&geom, &aos);
        let mut r2 = vec![0.0; aos.n * 4];
        serial_aos_simd(&geom, &aos, 1.0, &mut r2);
        assert_close(&r1, &r2, 1e-12, "simd");
    }

    #[test]
    fn prefetch_matches_scalar() {
        let (geom, aos, _) = setup();
        let r1 = run_serial(&geom, &aos);
        let mut r2 = vec![0.0; aos.n * 4];
        serial_aos_simd_prefetch(&geom, &aos, 1.0, &mut r2);
        assert_close(&r1, &r2, 1e-12, "prefetch");
    }

    #[test]
    fn atomics_matches_scalar() {
        let (geom, aos, _) = setup();
        let r1 = run_serial(&geom, &aos);
        let pool = ThreadPool::new(4);
        let mut r2 = vec![0.0; aos.n * 4];
        atomics(&pool, &geom, &aos, 1.0, &mut r2);
        // atomic accumulation order is nondeterministic: tolerance only
        assert_close(&r1, &r2, 1e-11, "atomics");
    }

    #[test]
    fn owner_writes_natural_matches_serial_bitwise() {
        let (geom, aos, _) = setup();
        let r1 = run_serial(&geom, &aos);
        for nt in [1usize, 2, 5] {
            let pool = ThreadPool::new(nt);
            let part = natural_partition(aos.n, nt);
            let plan = OwnerWritesPlan::build(&geom.edges, &part, nt);
            let mut r2 = vec![0.0; aos.n * 4];
            owner_writes(&pool, &plan, &geom, &aos, 1.0, &mut r2);
            assert_eq!(r1, r2, "owner-writes nt={nt} must be bitwise equal");
        }
    }

    #[test]
    fn owner_writes_metis_matches_serial_bitwise() {
        let (geom, aos, _) = setup();
        let r1 = run_serial(&geom, &aos);
        let graph = fun3d_mesh::Graph::from_edges(aos.n, &geom.edges);
        let nt = 4;
        let part = partition_graph(&graph, nt, &MultilevelConfig::default());
        let plan = OwnerWritesPlan::build(&geom.edges, &part, nt);
        let pool = ThreadPool::new(nt);
        let mut r2 = vec![0.0; aos.n * 4];
        owner_writes(&pool, &plan, &geom, &aos, 1.0, &mut r2);
        assert_eq!(r1, r2, "METIS owner-writes must be bitwise equal");
    }

    #[test]
    fn owner_writes_opt_matches_scalar() {
        let (geom, aos, _) = setup();
        let r1 = run_serial(&geom, &aos);
        let graph = fun3d_mesh::Graph::from_edges(aos.n, &geom.edges);
        let nt = 3;
        let part = partition_graph(&graph, nt, &MultilevelConfig::default());
        let plan = OwnerWritesPlan::build(&geom.edges, &part, nt);
        let pool = ThreadPool::new(nt);
        let mut r2 = vec![0.0; aos.n * 4];
        owner_writes_opt(&pool, &plan, &geom, &aos, 1.0, &mut r2);
        assert_close(&r1, &r2, 1e-12, "owner-writes-opt");
    }

    #[test]
    fn tiled_matches_scalar() {
        let (geom, aos, _) = setup();
        let r1 = run_serial(&geom, &aos);
        for budget in [1usize, 2048, 65536, usize::MAX] {
            let tiling = EdgeTiling::build(
                aos.n,
                &geom.edges,
                &fun3d_partition::TilingConfig::with_target_bytes(budget),
            );
            let tg = TiledGeom::new(&tiling, &geom);
            let mut r2 = vec![0.0; aos.n * 4];
            tiled(&tiling, &tg, &aos, 1.0, TileExec::Staged, &mut r2);
            // Tiling reorders the edge accumulation: tolerance compare.
            assert_close(&r1, &r2, 1e-11, "tiled");
            // Direct execution runs the same arithmetic in the same
            // order without the scratch pad: bitwise equal to staged.
            let mut r3 = vec![0.0; aos.n * 4];
            tiled(&tiling, &tg, &aos, 1.0, TileExec::Direct, &mut r3);
            assert_eq!(r2, r3, "budget {budget}: direct must match staged bitwise");
        }
    }

    #[test]
    fn tiled_pooled_matches_tiled_bitwise() {
        let (geom, aos, _) = setup();
        let tiling = EdgeTiling::build(
            aos.n,
            &geom.edges,
            &fun3d_partition::TilingConfig::with_target_bytes(4096),
        );
        let tg = TiledGeom::new(&tiling, &geom);
        let mut r1 = vec![0.0; aos.n * 4];
        tiled(&tiling, &tg, &aos, 1.0, TileExec::Staged, &mut r1);
        for exec in [TileExec::Staged, TileExec::Direct] {
            for nt in [1usize, 2, 3, 5] {
                let pool = ThreadPool::new(nt);
                let mut r2 = vec![0.0; aos.n * 4];
                tiled_pooled(&pool, &tiling, &tg, &aos, 1.0, exec, &mut r2);
                // Color-major order makes the per-vertex accumulation
                // order thread-count independent, and staged vs direct
                // is a pure traffic trade: bitwise, not just close.
                assert_eq!(r1, r2, "tiled_pooled {exec:?} nt={nt} must be bitwise equal");
            }
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
        let (geom, aos, _) = setup();
        let nt = 6;
        let nat = OwnerWritesPlan::build(&geom.edges, &natural_partition(aos.n, nt), nt);
        assert!(nat.replication_overhead() > 0.0);
        let r1 = run_serial(&geom, &aos);
        let pool = ThreadPool::new(nt);
        let mut r2 = vec![0.0; aos.n * 4];
        owner_writes(&pool, &nat, &geom, &aos, 1.0, &mut r2);
        assert_eq!(r1, r2);
    }
}
