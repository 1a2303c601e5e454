//! Property tests: every optimization variant of every kernel computes
//! the same answer as its scalar reference, over random states and
//! geometries — the contract that makes the paper's "optimizations" pure
//! performance transformations.
//!
//! The SIMD kernels have two lane instantiations, `Portable` and `Avx2`;
//! both are compiled in and called here directly, op by op and kernel by
//! kernel, and must agree **bit for bit** (on a host without AVX2 those
//! properties print a skip notice). That is what lets the application
//! pick one per call without any result depending on the pick.
//!
//! Runs on the in-tree `fun3d_util::proptest_mini` harness: each case is
//! seeded, failures shrink by halving the drawn inputs, and the report
//! prints a `FUN3D_PROP_SEED` that replays the case deterministically.

use fun3d_core::{
    flux_run, flux_serial_aos, grad_slot, green_gauss, roe_flux, BcData, EdgeGeom, Exec,
    FlowConditions, HalfEdges, NodeAos, TiledGeom, Traversal, GRAD_ROW, PREFETCH_DIST,
};
use fun3d_mesh::generator::ChannelSpec;
use fun3d_mesh::DualMesh;
use fun3d_partition::{EdgeTiling, TilingConfig};
use fun3d_partition::{natural_partition, partition_graph, MultilevelConfig, OwnerWritesPlan};
use fun3d_simd::{with_lanes, Isa, Simd};
use fun3d_threads::ThreadPool;
use fun3d_util::{prop_assert, prop_assert_eq, prop_cases};

struct Fixture {
    geom: EdgeGeom,
    node: NodeAos,
    bc: BcData,
    vol: Vec<f64>,
    /// The half-edges of `geom` closed by `bc`: what the gradient gathers.
    adj: HalfEdges,
}

impl Fixture {
    fn new(geom: EdgeGeom, node: NodeAos, bc: BcData, vol: Vec<f64>) -> Fixture {
        let adj = HalfEdges::build(&geom, &bc, &vol);
        Fixture { geom, node, bc, vol, adj }
    }
}

/// A random mesh and state with gradients populated, its edge list cut
/// short by `drop` edges so that every edge count modulo the 4-edge batch
/// occurs (the kernels only need endpoint indices in range).
fn random_fixture(seed: u64, jitter: f64, amp: f64, drop: usize) -> Fixture {
    let mut spec = ChannelSpec::with_resolution(6, 5, 4);
    spec.seed = seed;
    spec.jitter = jitter;
    let mesh = spec.build();
    let dual = DualMesh::build(&mesh);
    let full = EdgeGeom::build(&mesh, &dual);
    let kept: Vec<u32> = (0..(full.nedges() - drop) as u32).collect();
    let geom = full.try_select(&kept).expect("a prefix of the edge list");
    let cond = FlowConditions::default();
    let mut node = NodeAos::zeros(mesh.nvertices());
    node.set_freestream(&cond.qinf);
    let mut rng = fun3d_util::Rng64::new(seed ^ 0xABCD);
    for x in node.q.iter_mut() {
        *x += rng.range_f64(-amp, amp);
    }
    let mut fix = Fixture::new(geom, node, BcData::build(&dual), dual.vol);
    green_gauss(Isa::detect(), Exec::Caller, &fix.adj, &mut fix.node);
    fix
}

/// Green-Gauss as the textbook scalar edge loop, boundary closure and
/// volume division as passes of their own: the oracle every row of the
/// production kernel must reproduce bit for bit. It shares nothing with
/// that kernel but the gradient row's layout.
fn scalar_green_gauss(geom: &EdgeGeom, bc: &BcData, vol: &[f64], q: &[f64]) -> Vec<f64> {
    let mut grad = vec![0.0; vol.len() * GRAD_ROW];
    for (k, e) in geom.edges().iter().enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let s = [geom.nx()[k], geom.ny()[k], geom.nz()[k]];
        for c in 0..4 {
            let qf = 0.5 * (q[a * 4 + c] + q[b * 4 + c]);
            for d in 0..3 {
                grad[a * GRAD_ROW + grad_slot(c, d)] += qf * s[d];
                grad[b * GRAD_ROW + grad_slot(c, d)] -= qf * s[d];
            }
        }
    }
    for i in 0..bc.len() {
        let v = bc.vertex[i] as usize;
        let nb = [bc.nx[i], bc.ny[i], bc.nz[i]];
        for c in 0..4 {
            for d in 0..3 {
                grad[v * GRAD_ROW + grad_slot(c, d)] += q[v * 4 + c] * nb[d];
            }
        }
    }
    for (row, vol) in grad.chunks_exact_mut(GRAD_ROW).zip(vol) {
        let inv = 1.0 / vol;
        row.iter_mut().for_each(|g| *g *= inv);
    }
    grad
}

/// The gradient kernel's rows: lanes in {portable, avx2 when detected} on
/// the calling thread and on a pool of nt in {1, 2, 3, 4, 7} (the real
/// region, oversubscribed or not).
fn each_gradient_row(
    adj: &HalfEdges,
    node: &NodeAos,
    mut check: impl FnMut(&str, Vec<f64>) -> Result<(), String>,
) -> Result<(), String> {
    let lanes: Vec<Isa> = std::iter::once(Isa::portable()).chain(Isa::avx2()).collect();
    let run = |isa, exec: Exec<'_>| {
        let mut out = node.clone();
        // Whatever the rows held must not show: the kernel stores, it
        // does not accumulate.
        out.grad.fill(f64::NAN);
        green_gauss(isa, exec, adj, &mut out);
        out.grad
    };
    for &isa in &lanes {
        check(&format!("{} lanes, calling thread", isa.name()), run(isa, Exec::Caller))?;
    }
    for nt in [1usize, 2, 3, 4, 7] {
        let pool = ThreadPool::new(nt);
        for &isa in &lanes {
            check(&format!("{} lanes, pool nt={nt}", isa.name()), run(isa, Exec::Pool(&pool)))?;
        }
    }
    Ok(())
}

/// The two lane instantiations to hold against each other, or a skip
/// notice on a host that executes only one.
fn lane_pair() -> Option<(Isa, Isa)> {
    let avx2 = Isa::avx2();
    if avx2.is_none() {
        eprintln!("skipped: AVX2 not detected on this host, Portable is the only lane instantiation");
    }
    avx2.map(|avx2| (Isa::portable(), avx2))
}

/// Lane values that separate a packed op from its scalar form if anything
/// does: signed zeros, subnormals, infinities, NaN, and magnitudes whose
/// products and quotients overflow and underflow.
const SPECIAL_LANES: [f64; 14] = [
    0.0,
    -0.0,
    5e-324,
    -2.2e-308,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1e300,
    -1e300,
    1e-300,
    -1e-300,
    1.0,
    -3.0,
];

/// Every [`Simd`] op applied to the rows of `x`, as bit patterns.
///
/// # Safety
/// None; `with_lanes!` takes kernel bodies, which are unsafe.
#[inline(always)]
unsafe fn every_op<S: Simd>(s: S, x: &[[f64; 4]; 4], out: &mut Vec<[u64; 4]>) {
    let v = [s.load(&x[0]), s.load(&x[1]), s.load(&x[2]), s.load(&x[3])];
    let (a, b) = (v[0], v[1]);
    let mut stored = [0.0; 6];
    s.store(b, &mut stored[1..]);
    let mut results = vec![
        a + b,
        a - b,
        a * b,
        a / b,
        -a,
        s.abs(a),
        s.sqrt(a),
        s.sqrt(s.abs(b)),
        s.splat(x[2][0]),
        s.load(&stored[1..]),
    ];
    results.extend(s.transpose(v));
    out.extend(results.into_iter().map(|r| s.to_array(r).map(f64::to_bits)));
}

fn scalar_reference(geom: &EdgeGeom, node: &NodeAos) -> Vec<f64> {
    let mut r = vec![0.0; node.n * 4];
    flux_serial_aos(geom, node, 1.0, &mut r);
    r
}

fn close(a: &[f64], b: &[f64], tol: f64) -> Result<(), String> {
    let scale = a.iter().map(|x| x.abs()).fold(0.0, f64::max).max(1.0);
    for i in 0..a.len() {
        if (a[i] - b[i]).abs() > tol * scale {
            return Err(format!("entry {i}: {} vs {}", a[i], b[i]));
        }
    }
    Ok(())
}

/// One row of the traversal table: a traversal on a context on a lane
/// instantiation. `family` names rows that must agree bit for bit with
/// each other whatever the kernel: one tiling's rows, and the rows that
/// add a vertex's edges in edge order. `lists` names the edge lists an
/// edge-order row batches four at a time — all edges in order, or a
/// plan's shares — which is what the lane flux's bits also depend on
/// (the edges left over in a list's scalar tail are the list's).
struct Row<'a> {
    family: &'static str,
    lists: String,
    name: String,
    isa: Isa,
    exec: Exec<'a>,
    walk: Traversal<'a>,
}

impl Row<'_> {
    fn label(&self) -> String {
        format!("{} on {} lanes", self.name, self.isa.name())
    }

    /// The flux kernel's accumulated edge fluxes, before any boundary term.
    fn flux(&self, lanes: bool, node: &NodeAos) -> Vec<f64> {
        let mut r = vec![0.0; node.n * 4];
        flux_run(lanes.then_some(self.isa), self.exec, self.walk, node, 1.0, &mut r);
        r
    }
}

/// The flux kernel's traversal table, which both the determinism matrix
/// and the conservation oracle run through: traversal in {stream, stream + prefetch, owner on
/// a natural plan, owner on a multilevel plan, tiled}
/// x lanes in {portable, avx2 when detected} x nt in {1, 2, 3, 4, 7}.
/// The first row of each family is its (portable, one thread) row. Pool
/// rows run the real region — barrier path included — at every nt,
/// oversubscribed or not.
fn each_row(
    geom: &EdgeGeom,
    nv: usize,
    budget: usize,
    mut check: impl FnMut(&Row) -> Result<(), String>,
) -> Result<(), String> {
    let lanes: Vec<Isa> = std::iter::once(Isa::portable()).chain(Isa::avx2()).collect();
    let tiling = EdgeTiling::build(nv, geom.edges(), &TilingConfig::with_target_bytes(budget));
    let tg = TiledGeom::new(tiling, geom);
    let tiled = Traversal::Tiled { geom: &tg };
    let graph = fun3d_mesh::Graph::from_edges(nv, geom.edges());
    for &isa in &lanes {
        for prefetch in [None, Some(PREFETCH_DIST)] {
            let walk = Traversal::Stream { geom, prefetch };
            let (lists, name) = ("all edges".to_string(), format!("stream, prefetch {prefetch:?}"));
            check(&Row { family: "edge order", lists, name, isa, exec: Exec::Caller, walk })?;
        }
        let (lists, name) = (String::new(), "tiled, calling thread".to_string());
        check(&Row { family: "tiled", lists, name, isa, exec: Exec::Caller, walk: tiled })?;
    }
    for nt in [1usize, 2, 3, 4, 7] {
        let pool = ThreadPool::new(nt);
        let exec = Exec::Pool(&pool);
        let natural = natural_partition(nv, nt);
        let multilevel = partition_graph(&graph, nt, &MultilevelConfig::default());
        for (name, part) in [("natural", &natural), ("multilevel", &multilevel)] {
            let owners = OwnerWritesPlan::build(geom.edges(), part, nt);
            // One owner's share is every edge, in order.
            let lists = if nt == 1 { "all edges".to_string() } else { format!("{name} nt={nt}") };
            for &isa in &lanes {
                let (lists, name) = (lists.clone(), format!("owner {name} nt={nt}"));
                let walk = Traversal::owner(geom, &owners);
                check(&Row { family: "edge order", lists, name, isa, exec, walk })?;
            }
        }
        for &isa in &lanes {
            let (lists, name) = (String::new(), format!("tiled, pool nt={nt}"));
            check(&Row { family: "tiled", lists, name, isa, exec, walk: tiled })?;
        }
    }
    Ok(())
}

/// Tile budgets from single-edge tiles to one tile, so tile edge counts of
/// every residue modulo the 4-edge batch occur.
const BUDGETS: [usize; 4] = [1, 2048, 64 * 1024, usize::MAX];

prop_cases! {
    fn all_flux_variants_agree(g, cases = 12) {
        let seed = g.u64();
        let jitter = g.f64_range(0.0, 0.3);
        let amp = g.f64_range(0.0, 0.4);
        let nthreads = g.usize_range(1, 5);

        let Fixture { geom, node, .. } = random_fixture(seed, jitter, amp, 0);
        let reference = scalar_reference(&geom, &node);
        let n4 = node.n * 4;

        // SIMD batching
        let mut r = vec![0.0; n4];
        flux_run(Some(Isa::detect()), Exec::Caller, Traversal::stream(&geom), &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-12).is_ok());

        // SIMD + prefetch
        let mut r = vec![0.0; n4];
        flux_run(Some(Isa::detect()), Exec::Caller, Traversal::Stream { geom: &geom, prefetch: Some(PREFETCH_DIST) }, &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-12).is_ok());

        // threaded variants
        let pool = ThreadPool::new(nthreads);
        let nat = OwnerWritesPlan::build(geom.edges(), &natural_partition(node.n, nthreads), nthreads);
        let mut r = vec![0.0; n4];
        flux_run(None, Exec::Pool(&pool), Traversal::owner(&geom, &nat), &node, 1.0, &mut r);
        prop_assert_eq!(&reference, &r, "owner-writes must be bitwise identical");

        let graph = fun3d_mesh::Graph::from_edges(node.n, geom.edges());
        let ml = OwnerWritesPlan::build(
            geom.edges(),
            &partition_graph(&graph, nthreads, &MultilevelConfig::default()),
            nthreads,
        );
        let mut r = vec![0.0; n4];
        flux_run(Some(Isa::detect()), Exec::Pool(&pool), Traversal::owner(&geom, &ml), &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-12).is_ok());
    }

    fn simd_ops_agree_bitwise_across_lanes(g, cases = 64) {
        let Some((portable, avx2)) = lane_pair() else { return Ok(()) };
        let mut x = [[0.0f64; 4]; 4];
        for lane in x.iter_mut().flatten() {
            let k = g.usize_range(0, SPECIAL_LANES.len() + 6);
            *lane = match SPECIAL_LANES.get(k) {
                Some(&special) => special,
                None => g.f64_range(-8.0, 8.0),
            };
        }
        let x = &x;
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let (want_out, got_out) = (&mut want, &mut got);
        // SAFETY: `every_op` has no contract.
        with_lanes!(portable, unsafe every_op(x: &[[f64; 4]; 4], want_out: &mut Vec<[u64; 4]>));
        // SAFETY: as above.
        with_lanes!(avx2, unsafe every_op(x: &[[f64; 4]; 4], got_out: &mut Vec<[u64; 4]>));
        prop_assert_eq!(&want, &got, "Avx2 differs from Portable on lanes {x:?}");
    }

    fn simd_kernels_agree_bitwise_across_lanes(g, cases = 12) {
        let Some((portable, avx2)) = lane_pair() else { return Ok(()) };
        let seed = g.u64();
        let jitter = g.f64_range(0.0, 0.3);
        let amp = g.f64_range(0.0, 0.4);
        let drop = g.usize_range(0, 4);
        let fix = random_fixture(seed, jitter, amp, drop);
        let (geom, node) = (&fix.geom, &fix.node);
        let n4 = node.n * 4;

        // Gradient first (the flux reads it): serial, both lanes, against
        // the scalar oracle.
        let oracle = scalar_green_gauss(geom, &fix.bc, &fix.vol, &node.q);
        for isa in [portable, avx2] {
            let mut out = node.clone();
            green_gauss(isa, Exec::Caller, &fix.adj, &mut out);
            prop_assert_eq!(&oracle, &out.grad, "{} Green-Gauss vs the scalar loop", isa.name());
        }

        // Serial flux, without and with prefetch.
        let mut serial = vec![0.0; n4];
        flux_run(Some(portable), Exec::Caller, Traversal::stream(geom), node, 1.0, &mut serial);
        for prefetch in [None, Some(PREFETCH_DIST)] {
            let mut r = vec![0.0; n4];
            flux_run(Some(avx2), Exec::Caller, Traversal::Stream { geom, prefetch }, node, 1.0, &mut r);
            prop_assert_eq!(&serial, &r, "serial flux, {} edges, prefetch {prefetch:?}", geom.nedges());
        }

        // Owner-writes flux and the pooled gradient at 1, 2 and 3 threads.
        let graph = fun3d_mesh::Graph::from_edges(node.n, geom.edges());
        for nt in [1usize, 2, 3] {
            let pool = ThreadPool::new(nt);
            let plan = OwnerWritesPlan::build(
                geom.edges(),
                &partition_graph(&graph, nt, &MultilevelConfig::default()),
                nt,
            );
            let mut want = vec![0.0; n4];
            flux_run(Some(portable), Exec::Pool(&pool), Traversal::owner(geom, &plan), node, 1.0, &mut want);
            let mut got = vec![0.0; n4];
            flux_run(Some(avx2), Exec::Pool(&pool), Traversal::owner(geom, &plan), node, 1.0, &mut got);
            prop_assert_eq!(&want, &got, "owner-writes flux nt={nt}");
            for isa in [portable, avx2] {
                let mut out = node.clone();
                green_gauss(isa, Exec::Pool(&pool), &fix.adj, &mut out);
                prop_assert_eq!(&oracle, &out.grad, "{} pooled gradient nt={nt}", isa.name());
            }
        }
    }

    fn determinism_matrix(g, cases = 6) {
        // flux x traversal x lanes x nt, every row against its family's
        // (portable, one thread) row and against the scalar oracle; then
        // gradient x lanes x {caller, pool at every nt}, every row bitwise
        // the scalar edge-order oracle.
        let seed = g.u64();
        let jitter = g.f64_range(0.0, 0.3);
        let amp = g.f64_range(0.0, 0.4);
        let drop = g.usize_range(0, 4);
        let budget = BUDGETS[g.usize_range(0, 4)];
        let fix = random_fixture(seed, jitter, amp, drop);
        let flux_oracle = scalar_reference(&fix.geom, &fix.node);
        // What each family's first row computed, per kernel; for the lane
        // flux in edge order, per set of edge lists.
        let mut first = std::collections::HashMap::new();
        each_row(&fix.geom, fix.node.n, budget, |row| {
            let label = row.label();
            let kernels = [
                ("flux, lane body", row.flux(true, &fix.node), &flux_oracle),
                ("flux, scalar body", row.flux(false, &fix.node), &flux_oracle),
            ];
            for (kernel, got, oracle) in kernels {
                let lane_flux_in_edge_order = kernel == "flux, lane body" && row.family == "edge order";
                let lists = if lane_flux_in_edge_order { row.lists.clone() } else { String::new() };
                let want = first.entry((kernel, row.family, lists)).or_insert_with(|| got.clone());
                prop_assert_eq!(&*want, &got, "{kernel}: {label} differs from its family's first row");
                if row.family == "edge order" && !lane_flux_in_edge_order {
                    prop_assert_eq!(oracle, &got, "{kernel}: {label} differs from the scalar oracle");
                }
                let near = close(oracle, &got, 1e-12);
                prop_assert!(near.is_ok(), "{kernel}: {label} vs the scalar oracle: {near:?}");
            }
            Ok(())
        })?;
        let grad_oracle = scalar_green_gauss(&fix.geom, &fix.bc, &fix.vol, &fix.node.q);
        each_gradient_row(&fix.adj, &fix.node, |label, got| {
            prop_assert_eq!(&grad_oracle, &got, "gradient: {label} differs from the scalar oracle");
            Ok(())
        })?;
    }

    fn gradient_oracle_trips_on_a_planted_bug(g, cases = 4) {
        // The bitwise rows above can fail: hand the kernel half-edges with
        // one of the two defects the gather could have — a vertex's
        // neighbours out of edge order, a boundary self-edge missing — and
        // it no longer reproduces the oracle.
        let fix = random_fixture(g.u64(), g.f64_range(0.0, 0.3), g.f64_range(0.1, 0.4), 0);
        let oracle = scalar_green_gauss(&fix.geom, &fix.bc, &fix.vol, &fix.node.q);
        let kernel = |adj: &HalfEdges| {
            let mut out = fix.node.clone();
            green_gauss(Isa::detect(), Exec::Caller, adj, &mut out);
            out.grad
        };
        prop_assert_eq!(&oracle, &kernel(&fix.adj), "premise: the kernel reproduces the oracle");
        // Same edges, every vertex's half-edges in the opposite order: the
        // same sums to rounding, not to the bit.
        let reversed: Vec<u32> = (0..fix.geom.nedges() as u32).rev().collect();
        let swapped = fix.geom.try_select(&reversed).expect("a permutation");
        let got = kernel(&HalfEdges::build(&swapped, &fix.bc, &fix.vol));
        prop_assert!(close(&oracle, &got, 1e-12).is_ok());
        prop_assert!(oracle != got, "reversed half-edge order went unnoticed");
        // One boundary entry dropped: its vertex loses its closure.
        let mut open = fix.bc.clone();
        let dropped = open.vertex.pop().expect("a boundary") as usize;
        for f in [&mut open.nx, &mut open.ny, &mut open.nz] {
            f.pop();
        }
        open.tag.pop();
        let got = kernel(&HalfEdges::build(&fix.geom, &open, &fix.vol));
        let row = dropped * GRAD_ROW..(dropped + 1) * GRAD_ROW;
        prop_assert!(oracle[row.clone()] != got[row], "dropped boundary self-edge went unnoticed");
    }

    fn edge_fluxes_sum_to_zero_on_every_traversal(g, cases = 6) {
        // Discrete conservation: an edge adds its flux to one endpoint and
        // subtracts it from the other, so before the boundary terms the
        // residual sums to zero per component — unless a traversal skips
        // or doubles a write. Judged against the sum of the magnitudes
        // added, computed here from the physics alone.
        let seed = g.u64();
        let jitter = g.f64_range(0.0, 0.3);
        let amp = g.f64_range(0.0, 0.4);
        let drop = g.usize_range(0, 4);
        let budget = BUDGETS[g.usize_range(0, 4)];
        let fix = random_fixture(seed, jitter, amp, drop);
        let (geom, node) = (&fix.geom, &fix.node);
        let mut added = [0.0f64; 4];
        for (k, e) in geom.edges().iter().enumerate() {
            let (a, b) = (e[0] as usize, e[1] as usize);
            let r = [geom.rx()[k], geom.ry()[k], geom.rz()[k]];
            let (mut ql, mut qr) = (node.state(a), node.state(b));
            for c in 0..4 {
                let slope = |v| node.dq(v, c, 0) * r[0] + node.dq(v, c, 1) * r[1] + node.dq(v, c, 2) * r[2];
                ql[c] += 0.5 * slope(a);
                qr[c] -= 0.5 * slope(b);
            }
            let f = roe_flux(&ql, &qr, &[geom.nx()[k], geom.ny()[k], geom.nz()[k]], 1.0);
            for c in 0..4 {
                added[c] += 2.0 * f[c].abs();
            }
        }
        each_row(geom, node.n, budget, |row| {
            for lanes in [true, false] {
                let res = row.flux(lanes, node);
                for c in 0..4 {
                    let sum: f64 = res.iter().skip(c).step_by(4).sum();
                    prop_assert!(
                        sum.abs() <= 1e-12 * added[c],
                        "{} (lane body: {lanes}): component {c} sums to {sum:e} of {:e} added",
                        row.label(),
                        added[c]
                    );
                }
            }
            Ok(())
        })?;
    }

    fn constant_state_has_zero_gradient_on_every_traversal(g, cases = 6) {
        // The closure identity of the median dual: the edge normals around
        // a vertex and its boundary normals sum to zero, so a constant
        // state has zero Green-Gauss gradient at every vertex, boundary
        // included — unless a row skips or doubles a half-edge.
        let mut spec = ChannelSpec::with_resolution(g.usize_range(4, 8), g.usize_range(3, 6), 4);
        spec.seed = g.u64();
        spec.jitter = g.f64_range(0.0, 0.3);
        let mesh = spec.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let mut node = NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&[0.7, 1.0, -0.5, 0.25]);
        let fix = Fixture::new(geom, node, BcData::build(&dual), dual.vol);
        each_gradient_row(&fix.adj, &fix.node, |label, got| {
            let max = got.iter().map(|x| x.abs()).fold(0.0, f64::max);
            prop_assert!(max < 1e-10, "{label}: constant field gradient {max:e}");
            Ok(())
        })?;
    }

    fn triangular_solve_strategies_agree(g, cases = 12) {
        let seed = g.u64();
        let nthreads = g.usize_range(1, 5);

        use fun3d_sparse::{ilu, solve_p2p, trsv_solve, Bcsr4, P2pSchedule};
        let mut spec = ChannelSpec::with_resolution(5, 4, 4);
        spec.seed = seed;
        let mesh = spec.build();
        let mut a = Bcsr4::from_edges(mesh.nvertices(), &mesh.edges());
        a.fill_diag_dominant(seed);
        let f = ilu::iluk(&a, 1);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let serial = trsv_solve(&f, &b);

        let pool = ThreadPool::new(nthreads);
        let pf = P2pSchedule::forward(&f.l, nthreads);
        let pb = P2pSchedule::backward(&f.u, nthreads);
        let x = solve_p2p(&f, &b, &pool, &pf, &pb);
        prop_assert_eq!(&serial, &x, "p2p differs");
    }
}
