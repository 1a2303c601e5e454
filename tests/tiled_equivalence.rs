//! Property tests for the tiled (cache-blocked) edge-kernel strategy:
//! on random meshes and random scratch budgets, the tiled flux agrees
//! with the streaming serial kernel to rounding, and the pooled driver is
//! *bitwise* equal to its serial tiled counterpart at every thread count
//! (inter-tile coloring fixes the accumulation order).
//!
//! Both lane instantiations of the tile bodies, `Portable` and `Avx2`,
//! must agree bit for bit (skipped with a notice where AVX2 is not
//! detected); the random budgets make tile edge counts of every residue
//! modulo the 4-edge batch.
//!
//! Runs on the in-tree `fun3d_util::proptest_mini` harness; failures
//! print a `FUN3D_PROP_SEED` that replays deterministically.

use fun3d_core::{
    flux_run, flux_serial_aos, green_gauss, EdgeGeom, Exec, FlowConditions, HalfEdges, NodeAos,
    TiledGeom, Traversal,
};
use fun3d_mesh::generator::ChannelSpec;
use fun3d_mesh::DualMesh;
use fun3d_partition::{EdgeTiling, TilingConfig};
use fun3d_simd::Isa;
use fun3d_threads::ThreadPool;
use fun3d_util::{prop_assert, prop_assert_eq, prop_cases};

struct Fixture {
    geom: EdgeGeom,
    node: NodeAos,
}

fn random_fixture(seed: u64, jitter: f64, amp: f64) -> Fixture {
    let mut spec = ChannelSpec::with_resolution(6, 5, 4);
    spec.seed = seed;
    spec.jitter = jitter;
    let mesh = spec.build();
    let dual = DualMesh::build(&mesh);
    let geom = EdgeGeom::build(&mesh, &dual);
    let cond = FlowConditions::default();
    let mut node = NodeAos::zeros(mesh.nvertices());
    node.set_freestream(&cond.qinf);
    let mut rng = fun3d_util::Rng64::new(seed ^ 0x7155);
    for x in node.q.iter_mut() {
        *x += rng.range_f64(-amp, amp);
    }
    let bc = fun3d_core::BcData::build(&dual);
    let adj = HalfEdges::build(&geom, &bc, &dual.vol);
    green_gauss(Isa::detect(), Exec::Caller, &adj, &mut node);
    Fixture { geom, node }
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

/// The two lane instantiations to hold against each other, or a skip
/// notice on a host that executes only one.
fn lane_pair() -> Option<(Isa, Isa)> {
    let avx2 = Isa::avx2();
    if avx2.is_none() {
        eprintln!("skipped: AVX2 not detected on this host, Portable is the only lane instantiation");
    }
    avx2.map(|avx2| (Isa::portable(), avx2))
}

prop_cases! {
    fn tiled_flux_agrees_with_serial(g, cases = 10) {
        let seed = g.u64();
        let jitter = g.f64_range(0.0, 0.3);
        let amp = g.f64_range(0.0, 0.4);
        // Budgets from degenerate (single-edge tiles) through realistic
        // to whole-mesh-in-one-tile.
        let budget = [1usize, 2048, 64 * 1024, usize::MAX][g.usize_range(0, 4)];
        let nthreads = g.usize_range(1, 5);

        let fix = random_fixture(seed, jitter, amp);
        let n4 = fix.node.n * 4;
        let mut reference = vec![0.0; n4];
        flux_serial_aos(&fix.geom, &fix.node, 1.0, &mut reference);

        let tiling = EdgeTiling::build(
            fix.node.n,
            fix.geom.edges(),
            &TilingConfig::with_target_bytes(budget),
        );
        let tg = TiledGeom::new(tiling, &fix.geom);

        let tiles = Traversal::Tiled { geom: &tg };

        // Serial tiled: ULP-level agreement with the streaming reference
        // (edge order is permuted, so not bitwise).
        let mut serial = vec![0.0; n4];
        flux_run(Some(Isa::detect()), Exec::Caller, tiles, &fix.node, 1.0, &mut serial);
        prop_assert!(close(&reference, &serial, 1e-11).is_ok());

        // Pooled tiled: the inter-tile coloring pins the accumulation
        // order, so any thread count is bitwise equal to serial tiled.
        let pool = ThreadPool::new(nthreads);
        let mut pooled = vec![0.0; n4];
        flux_run(Some(Isa::detect()), Exec::Pool(&pool), tiles, &fix.node, 1.0, &mut pooled);
        prop_assert_eq!(&serial, &pooled, "pooled must be bitwise equal to serial");

        // Portable and Avx2 lanes: the same bits.
        if let Some((portable, avx2)) = lane_pair() {
            for isa in [portable, avx2] {
                let mut r = vec![0.0; n4];
                flux_run(Some(isa), Exec::Caller, tiles, &fix.node, 1.0, &mut r);
                prop_assert_eq!(&serial, &r, "{} lanes", isa.name());
            }
        }
    }
}
