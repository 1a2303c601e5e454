//! Kernel tuning walk-through: the paper's Section V optimizations, one
//! at a time, on the edge-based flux kernel — with live verification
//! that every variant produces the same residual. Each row past the two
//! plain baselines is one call of `flux::run`: a body (scalar, or SIMD
//! lanes) on a traversal (`Stream`, `Owner`) on a context (this thread,
//! the pool).
//!
//! ```sh
//! cargo run --release --example kernel_tuning
//! ```

use fun3d_core::geom::NodeSoa;
use fun3d_core::{flux, gradient, EdgeGeom, Exec, FlowConditions, Isa, NodeAos, Traversal};
use fun3d_mesh::generator::MeshPreset;
use fun3d_mesh::DualMesh;
use fun3d_partition::{natural_partition, partition_graph, MultilevelConfig, OwnerWritesPlan};
use fun3d_threads::ThreadPool;
use fun3d_util::Timer;

fn time_variant(name: &str, reference: Option<&[f64]>, mut run: impl FnMut(&mut [f64]), n4: usize) -> Vec<f64> {
    let mut res = vec![0.0; n4];
    run(&mut res); // warm-up + correctness sample
    let t = Timer::start();
    let reps = 5;
    for _ in 0..reps {
        res.iter_mut().for_each(|x| *x = 0.0);
        run(&mut res);
    }
    let secs = t.seconds() / reps as f64;
    let check = match reference {
        None => "reference".to_string(),
        Some(r) => {
            let max_err = r
                .iter()
                .zip(&res)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            format!("max |Δ| vs reference = {max_err:.2e}")
        }
    };
    println!("{name:<42} {secs:>10.6} s   {check}");
    res
}

fn main() {
    let mut mesh = MeshPreset::Medium.build();
    fun3d_core::Fun3dApp::rcm_reorder(&mut mesh);
    let dual = DualMesh::build(&mesh);
    let geom = EdgeGeom::build(&mesh, &dual);
    let cond = FlowConditions::default();
    let mut node = NodeAos::zeros(mesh.nvertices());
    node.set_freestream(&cond.qinf);
    let mut rng = fun3d_util::Rng64::new(3);
    for x in node.q.iter_mut() {
        *x += rng.range_f64(-0.05, 0.05);
    }
    let bc = fun3d_core::bc::BcData::build(&dual);
    let (isa, stream) = (Isa::detect(), Traversal::stream(&geom));
    let adj = fun3d_core::HalfEdges::build(&geom, &bc, &dual.vol);
    gradient::green_gauss(isa, Exec::Caller, &adj, &mut node);
    let soa = NodeSoa::from_aos(&node);
    let n4 = node.n * 4;
    println!(
        "mesh: {} vertices, {} edges\n",
        mesh.nvertices(),
        geom.nedges()
    );

    let reference = time_variant(
        "scalar, SoA node data (baseline)",
        None,
        |res| flux::serial_soa(&geom, &soa, cond.beta, res),
        n4,
    );
    time_variant(
        "scalar, AoS node data",
        Some(&reference),
        |res| flux::serial_aos(&geom, &node, cond.beta, res),
        n4,
    );
    time_variant(
        "AoS + SIMD 4-edge batching",
        Some(&reference),
        |res| flux::run(Some(isa), Exec::Caller, stream, &node, cond.beta, res),
        n4,
    );
    time_variant(
        "AoS + SIMD + software prefetch",
        Some(&reference),
        |res| {
            let ahead = Traversal::Stream { geom: &geom, prefetch: Some(flux::PREFETCH_DIST) };
            flux::run(Some(isa), Exec::Caller, ahead, &node, cond.beta, res)
        },
        n4,
    );

    // Threaded strategies (2 workers; this container has one core, so
    // these demonstrate correctness, not speed).
    let nt = 2;
    let pool = ThreadPool::new(nt);
    let nat_plan = OwnerWritesPlan::build(geom.edges(), &natural_partition(node.n, nt), nt);
    time_variant(
        "threaded: atomics (natural edge split)",
        Some(&reference),
        |res| flux::atomics(&pool, &geom, &node, cond.beta, res),
        n4,
    );
    println!(
        "  natural owner-writes replication overhead: {:.1}%",
        100.0 * nat_plan.replication_overhead()
    );
    time_variant(
        "threaded: owner-writes (natural split)",
        Some(&reference),
        |res| {
            let walk = Traversal::owner(&geom, &nat_plan);
            flux::run(None, Exec::Pool(&pool), walk, &node, cond.beta, res)
        },
        n4,
    );
    let graph = fun3d_mesh::Graph::from_edges(node.n, geom.edges());
    let ml_plan = OwnerWritesPlan::build(
        geom.edges(),
        &partition_graph(&graph, nt, &MultilevelConfig::default()),
        nt,
    );
    println!(
        "  multilevel owner-writes replication overhead: {:.1}%",
        100.0 * ml_plan.replication_overhead()
    );
    time_variant(
        "threaded: owner-writes (multilevel) + SIMD",
        Some(&reference),
        |res| {
            let walk = Traversal::owner(&geom, &ml_plan);
            flux::run(Some(isa), Exec::Pool(&pool), walk, &node, cond.beta, res)
        },
        n4,
    );
}
