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

use fun3d_core::geom::{EdgeGeom, NodeAos, NodeSoa};
use fun3d_core::bc::BcData;
use fun3d_core::{flux, gradient, FlowConditions};
use fun3d_mesh::generator::ChannelSpec;
use fun3d_mesh::DualMesh;
use fun3d_core::{euler, Exec, TileExec, TiledGeom, Traversal};
use fun3d_partition::{natural_partition, partition_graph, MultilevelConfig, OwnerWritesPlan};
use fun3d_partition::{EdgeTiling, TilingConfig};
use fun3d_simd::{with_lanes, Isa, Simd};
use fun3d_threads::ThreadPool;
use fun3d_util::{prop_assert, prop_assert_eq, prop_cases};

struct Fixture {
    geom: EdgeGeom,
    node: NodeAos,
    bc: BcData,
    vol: Vec<f64>,
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
    let mut geom = EdgeGeom::build(&mesh, &dual);
    let ne = geom.nedges() - drop;
    geom.edges.truncate(ne);
    for f in [&mut geom.nx, &mut geom.ny, &mut geom.nz, &mut geom.rx, &mut geom.ry, &mut geom.rz] {
        f.truncate(ne);
    }
    let cond = FlowConditions::default();
    let mut node = NodeAos::zeros(mesh.nvertices());
    node.set_freestream(&cond.qinf);
    let mut rng = fun3d_util::Rng64::new(seed ^ 0xABCD);
    for x in node.q.iter_mut() {
        *x += rng.range_f64(-amp, amp);
    }
    let bc = BcData::build(&dual);
    gradient::green_gauss(Isa::detect(), flux::Exec::Caller, flux::Traversal::stream(&geom), &bc, &dual.vol, &mut node);
    Fixture { geom, node, bc, vol: dual.vol }
}

/// Green-Gauss as the textbook scalar double loop: the oracle both lane
/// instantiations of the production kernel must reproduce bit for bit.
fn scalar_green_gauss(fix: &Fixture) -> Vec<f64> {
    let (geom, q) = (&fix.geom, &fix.node.q);
    let mut grad = vec![0.0; fix.node.n * 12];
    for (k, e) in geom.edges.iter().enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let s = [geom.nx[k], geom.ny[k], geom.nz[k]];
        for c in 0..4 {
            let qf = 0.5 * (q[a * 4 + c] + q[b * 4 + c]);
            for d in 0..3 {
                grad[a * 12 + c * 3 + d] += qf * s[d];
                grad[b * 12 + c * 3 + d] -= qf * s[d];
            }
        }
    }
    for i in 0..fix.bc.len() {
        let v = fix.bc.vertex[i] as usize;
        let nb = [fix.bc.nx[i], fix.bc.ny[i], fix.bc.nz[i]];
        for c in 0..4 {
            for d in 0..3 {
                grad[v * 12 + c * 3 + d] += q[v * 4 + c] * nb[d];
            }
        }
    }
    for v in 0..fix.node.n {
        let inv = 1.0 / fix.vol[v];
        for f in 0..12 {
            grad[v * 12 + f] *= inv;
        }
    }
    grad
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
    flux::serial_aos(geom, node, 1.0, &mut r);
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
        flux::run(lanes.then_some(self.isa), self.exec, self.walk, node, 1.0, &mut r);
        r
    }

    fn gradient(&self, fix: &Fixture) -> Vec<f64> {
        let mut out = fix.node.clone();
        gradient::green_gauss(self.isa, self.exec, self.walk, &fix.bc, &fix.vol, &mut out);
        out.grad
    }
}

/// The traversal table both the determinism matrix and the physics
/// oracles run through: traversal in {stream, stream + prefetch, owner on
/// a natural plan, owner on a multilevel plan, tiled staged, tiled direct}
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
    let tiling = EdgeTiling::build(nv, &geom.edges, &TilingConfig::with_target_bytes(budget));
    let tg = TiledGeom::new(&tiling, geom);
    let tiled = |mode| Traversal::Tiled { tiling: &tiling, geom: &tg, mode };
    let modes = [TileExec::Staged, TileExec::Direct];
    let graph = fun3d_mesh::Graph::from_edges(nv, &geom.edges);
    for &isa in &lanes {
        for prefetch in [None, Some(flux::PREFETCH_DIST)] {
            let walk = Traversal::Stream { geom, prefetch };
            let (lists, name) = ("all edges".to_string(), format!("stream, prefetch {prefetch:?}"));
            check(&Row { family: "edge order", lists, name, isa, exec: Exec::Caller, walk })?;
        }
        for mode in modes {
            let (lists, name) = (String::new(), format!("tiled {mode:?}, calling thread"));
            check(&Row { family: "tiled", lists, name, isa, exec: Exec::Caller, walk: tiled(mode) })?;
        }
    }
    for nt in [1usize, 2, 3, 4, 7] {
        let pool = ThreadPool::new(nt);
        let exec = Exec::Pool(&pool);
        let natural = natural_partition(nv, nt);
        let multilevel = partition_graph(&graph, nt, &MultilevelConfig::default());
        for (name, part) in [("natural", &natural), ("multilevel", &multilevel)] {
            let owners = OwnerWritesPlan::build(&geom.edges, part, nt);
            // One owner's share is every edge, in order.
            let lists = if nt == 1 { "all edges".to_string() } else { format!("{name} nt={nt}") };
            for &isa in &lanes {
                let (lists, name) = (lists.clone(), format!("owner {name} nt={nt}"));
                let walk = Traversal::owner(geom, &owners);
                check(&Row { family: "edge order", lists, name, isa, exec, walk })?;
            }
        }
        for &isa in &lanes {
            for mode in modes {
                let (lists, name) = (String::new(), format!("tiled {mode:?}, pool nt={nt}"));
                check(&Row { family: "tiled", lists, name, isa, exec, walk: tiled(mode) })?;
            }
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

        // SoA layout
        let soa = NodeSoa::from_aos(&node);
        let mut r = vec![0.0; n4];
        flux::serial_soa(&geom, &soa, 1.0, &mut r);
        prop_assert_eq!(&reference, &r, "SoA must be bitwise identical");

        // SIMD batching
        let mut r = vec![0.0; n4];
        flux::run(Some(Isa::detect()), flux::Exec::Caller, flux::Traversal::stream(&geom), &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-12).is_ok());

        // SIMD + prefetch
        let mut r = vec![0.0; n4];
        flux::run(Some(Isa::detect()), flux::Exec::Caller, flux::Traversal::Stream { geom: &geom, prefetch: Some(flux::PREFETCH_DIST) }, &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-12).is_ok());

        // threaded variants
        let pool = ThreadPool::new(nthreads);
        let mut r = vec![0.0; n4];
        flux::atomics(&pool, &geom, &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-11).is_ok());

        let nat = OwnerWritesPlan::build(&geom.edges, &natural_partition(node.n, nthreads), nthreads);
        let mut r = vec![0.0; n4];
        flux::run(None, flux::Exec::Pool(&pool), flux::Traversal::owner(&geom, &nat), &node, 1.0, &mut r);
        prop_assert_eq!(&reference, &r, "owner-writes must be bitwise identical");

        let graph = fun3d_mesh::Graph::from_edges(node.n, &geom.edges);
        let ml = OwnerWritesPlan::build(
            &geom.edges,
            &partition_graph(&graph, nthreads, &MultilevelConfig::default()),
            nthreads,
        );
        let mut r = vec![0.0; n4];
        flux::run(Some(Isa::detect()), flux::Exec::Pool(&pool), flux::Traversal::owner(&geom, &ml), &node, 1.0, &mut r);
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
        let oracle = scalar_green_gauss(&fix);
        for isa in [portable, avx2] {
            let mut out = node.clone();
            gradient::green_gauss(isa, flux::Exec::Caller, flux::Traversal::stream(geom), &fix.bc, &fix.vol, &mut out);
            prop_assert_eq!(&oracle, &out.grad, "{} Green-Gauss vs the scalar loop", isa.name());
        }

        // Serial flux, without and with prefetch.
        let mut serial = vec![0.0; n4];
        flux::run(Some(portable), flux::Exec::Caller, flux::Traversal::stream(geom), node, 1.0, &mut serial);
        for prefetch in [None, Some(flux::PREFETCH_DIST)] {
            let mut r = vec![0.0; n4];
            flux::run(Some(avx2), flux::Exec::Caller, flux::Traversal::Stream { geom, prefetch }, node, 1.0, &mut r);
            prop_assert_eq!(&serial, &r, "serial flux, {} edges, prefetch {prefetch:?}", geom.nedges());
        }

        // Owner-writes flux and gradient at 1, 2 and 3 threads.
        let graph = fun3d_mesh::Graph::from_edges(node.n, &geom.edges);
        for nt in [1usize, 2, 3] {
            let pool = ThreadPool::new(nt);
            let plan = OwnerWritesPlan::build(
                &geom.edges,
                &partition_graph(&graph, nt, &MultilevelConfig::default()),
                nt,
            );
            let mut want = vec![0.0; n4];
            flux::run(Some(portable), flux::Exec::Pool(&pool), flux::Traversal::owner(geom, &plan), node, 1.0, &mut want);
            let mut got = vec![0.0; n4];
            flux::run(Some(avx2), flux::Exec::Pool(&pool), flux::Traversal::owner(geom, &plan), node, 1.0, &mut got);
            prop_assert_eq!(&want, &got, "owner-writes flux nt={nt}");
            for isa in [portable, avx2] {
                let mut out = node.clone();
                gradient::green_gauss(isa, flux::Exec::Pool(&pool), flux::Traversal::owner(geom, &plan), &fix.bc, &fix.vol, &mut out);
                prop_assert_eq!(&oracle, &out.grad, "{} owner-writes gradient nt={nt}", isa.name());
            }
        }
    }

    fn determinism_matrix(g, cases = 6) {
        // kernel x traversal x lanes x nt, every row against its family's
        // (portable, one thread) row and against the scalar oracles.
        let seed = g.u64();
        let jitter = g.f64_range(0.0, 0.3);
        let amp = g.f64_range(0.0, 0.4);
        let drop = g.usize_range(0, 4);
        let budget = BUDGETS[g.usize_range(0, 4)];
        let fix = random_fixture(seed, jitter, amp, drop);
        let flux_oracle = scalar_reference(&fix.geom, &fix.node);
        let grad_oracle = scalar_green_gauss(&fix);
        // What each family's first row computed, per kernel; for the lane
        // flux in edge order, per set of edge lists.
        let mut first = std::collections::HashMap::new();
        each_row(&fix.geom, fix.node.n, budget, |row| {
            let label = row.label();
            let kernels = [
                ("flux, lane body", row.flux(true, &fix.node), &flux_oracle),
                ("flux, scalar body", row.flux(false, &fix.node), &flux_oracle),
                ("gradient", row.gradient(&fix), &grad_oracle),
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
        for (k, e) in geom.edges.iter().enumerate() {
            let (a, b) = (e[0] as usize, e[1] as usize);
            let r = [geom.rx[k], geom.ry[k], geom.rz[k]];
            let (mut ql, mut qr) = (node.state(a), node.state(b));
            for c in 0..4 {
                let slope = |g: &[f64]| g[c * 3] * r[0] + g[c * 3 + 1] * r[1] + g[c * 3 + 2] * r[2];
                ql[c] += 0.5 * slope(node.gradient(a));
                qr[c] -= 0.5 * slope(node.gradient(b));
            }
            let f = euler::roe_flux(&ql, &qr, &[geom.nx[k], geom.ny[k], geom.nz[k]], 1.0);
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
        // included — unless a traversal skips or doubles a write.
        let mut spec = ChannelSpec::with_resolution(g.usize_range(4, 8), g.usize_range(3, 6), 4);
        spec.seed = g.u64();
        spec.jitter = g.f64_range(0.0, 0.3);
        let budget = BUDGETS[g.usize_range(0, 4)];
        let mesh = spec.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let mut node = NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&[0.7, 1.0, -0.5, 0.25]);
        let fix = Fixture { geom, node, bc: BcData::build(&dual), vol: dual.vol };
        each_row(&fix.geom, fix.node.n, budget, |row| {
            let max = row.gradient(&fix).iter().map(|x| x.abs()).fold(0.0, f64::max);
            prop_assert!(max < 1e-10, "{}: constant field gradient {max:e}", row.label());
            Ok(())
        })?;
    }

    fn triangular_solve_strategies_agree(g, cases = 12) {
        let seed = g.u64();
        let nthreads = g.usize_range(1, 5);

        use fun3d_sparse::{ilu, trsv, levels, p2p, Bcsr4, LevelSchedule, P2pSchedule};
        let mut spec = ChannelSpec::with_resolution(5, 4, 4);
        spec.seed = seed;
        let mesh = spec.build();
        let mut a = Bcsr4::from_edges(mesh.nvertices(), &mesh.edges());
        a.fill_diag_dominant(seed);
        let f = ilu::iluk(&a, 1);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let serial = trsv::solve(&f, &b);

        let pool = ThreadPool::new(nthreads);
        let lf = LevelSchedule::forward(&f.l);
        let lb = LevelSchedule::backward(&f.u);
        let x = levels::solve_levels(&f, &b, &pool, &lf, &lb);
        prop_assert_eq!(&serial, &x, "level-scheduled differs");

        let pf = P2pSchedule::forward(&f.l, nthreads);
        let pb = P2pSchedule::backward(&f.u, nthreads);
        let x = p2p::solve_p2p(&f, &b, &pool, &pf, &pb);
        prop_assert_eq!(&serial, &x, "p2p differs");
    }
}
