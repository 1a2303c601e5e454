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
use fun3d_partition::{natural_partition, partition_graph, MultilevelConfig, OwnerWritesPlan};
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
    gradient::green_gauss(&geom, &bc, &dual.vol, &mut node);
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
        flux::serial_aos_simd(&geom, &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-12).is_ok());

        // SIMD + prefetch
        let mut r = vec![0.0; n4];
        flux::serial_aos_simd_prefetch(&geom, &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-12).is_ok());

        // threaded variants
        let pool = ThreadPool::new(nthreads);
        let mut r = vec![0.0; n4];
        flux::atomics(&pool, &geom, &node, 1.0, &mut r);
        prop_assert!(close(&reference, &r, 1e-11).is_ok());

        let nat = OwnerWritesPlan::build(&geom.edges, &natural_partition(node.n, nthreads), nthreads);
        let mut r = vec![0.0; n4];
        flux::owner_writes(&pool, &nat, &geom, &node, 1.0, &mut r);
        prop_assert_eq!(&reference, &r, "owner-writes must be bitwise identical");

        let graph = fun3d_mesh::Graph::from_edges(node.n, &geom.edges);
        let ml = OwnerWritesPlan::build(
            &geom.edges,
            &partition_graph(&graph, nthreads, &MultilevelConfig::default()),
            nthreads,
        );
        let mut r = vec![0.0; n4];
        flux::owner_writes_opt(&pool, &ml, &geom, &node, 1.0, &mut r);
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
            gradient::green_gauss_on(isa, geom, &fix.bc, &fix.vol, &mut out);
            prop_assert_eq!(&oracle, &out.grad, "{} Green-Gauss vs the scalar loop", isa.name());
        }

        // Serial flux, without and with prefetch.
        let mut serial = vec![0.0; n4];
        flux::serial_aos_simd_on(portable, geom, node, 1.0, &mut serial, None);
        for prefetch in [None, Some(flux::PREFETCH_DIST)] {
            let mut r = vec![0.0; n4];
            flux::serial_aos_simd_on(avx2, geom, node, 1.0, &mut r, prefetch);
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
            flux::owner_writes_opt_on(portable, &pool, &plan, geom, node, 1.0, &mut want);
            let mut got = vec![0.0; n4];
            flux::owner_writes_opt_on(avx2, &pool, &plan, geom, node, 1.0, &mut got);
            prop_assert_eq!(&want, &got, "owner-writes flux nt={nt}");
            for isa in [portable, avx2] {
                let mut out = node.clone();
                gradient::green_gauss_threaded_on(isa, &pool, &plan, geom, &fix.bc, &fix.vol, &mut out);
                prop_assert_eq!(&oracle, &out.grad, "{} owner-writes gradient nt={nt}", isa.name());
            }
        }
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
