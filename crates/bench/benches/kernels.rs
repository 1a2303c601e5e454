//! Microbenchmarks backing the figure harnesses: flux-kernel variants,
//! TRSV/ILU strategies, SpMV (BCSR vs scalar CSR), vector primitives, the
//! partitioner and set-up stage by stage. Runs on the in-tree
//! `fun3d_bench::microbench` runner (`harness = false`), so `cargo bench
//! -p fun3d-bench` works offline with zero external crates; pass a
//! substring to filter, e.g. `cargo bench -p fun3d-bench -- flux`.
//!
//! Sizes are deliberately small (the container has one core); the
//! statistically robust *ratios* between variants are what matters —
//! hence median/MAD rather than mean/stddev.

use fun3d_bench::csr::Csr;
use fun3d_bench::flux_reference::{self, NodeSoa};
use fun3d_bench::microbench::{BatchSize, Bench, Group};
use fun3d_core::{
    flux_run, flux_serial_aos, EdgeGeom, Exec, FlowConditions, HalfEdges, Isa, NodeAos, Traversal,
    PREFETCH_DIST,
};
use fun3d_mesh::generator::MeshPreset;
use fun3d_mesh::{rcm, DualMesh};
use fun3d_partition::{partition_graph, MultilevelConfig};
use fun3d_solver::{dot, maxpy, mdot, norm2};
use fun3d_sparse::{ilu, trsv_solve, Bcsr4, TempBuffer};
use fun3d_util::telemetry::{self, Level};
use fun3d_util::Rng64;

/// The flux kernel's lane body on the detected lanes.
fn lanes() -> Option<Isa> {
    Some(Isa::detect())
}

/// The streaming traversal prefetching `dist` edges ahead.
fn stream_ahead(geom: &EdgeGeom, dist: usize) -> Traversal<'_> {
    Traversal::Stream { geom, prefetch: Some(dist) }
}

/// Green-Gauss on this thread.
fn green_gauss(adj: &HalfEdges, node: &mut NodeAos) {
    fun3d_core::green_gauss(Isa::detect(), Exec::Caller, adj, node);
}

fn fixture() -> (EdgeGeom, HalfEdges, NodeAos, NodeSoa) {
    let mut mesh = MeshPreset::Small.build();
    fun3d_core::Fun3dApp::rcm_reorder(&mut mesh);
    let dual = DualMesh::build(&mesh);
    let geom = EdgeGeom::build(&mesh, &dual);
    let cond = FlowConditions::default();
    let mut node = NodeAos::zeros(mesh.nvertices());
    node.set_freestream(&cond.qinf);
    let mut rng = Rng64::new(1);
    for x in node.q.iter_mut() {
        *x += rng.range_f64(-0.05, 0.05);
    }
    let bc = fun3d_core::BcData::build(&dual);
    let adj = HalfEdges::build(&geom, &bc, &dual.vol);
    green_gauss(&adj, &mut node);
    let soa = NodeSoa::from_aos(&node);
    (geom, adj, node, soa)
}

fn bench_flux(c: &mut Bench) {
    let (geom, _, node, soa) = fixture();
    let n4 = node.n * 4;
    let mut g = c.group("flux");
    g.sample_size(20);
    g.bench_function("serial_soa", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| flux_reference::serial_soa(&geom, &soa, 1.0, res),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("serial_aos", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| flux_serial_aos(&geom, &node, 1.0, res),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("serial_aos_simd", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| flux_run(lanes(), Exec::Caller, Traversal::stream(&geom), &node, 1.0, res),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("serial_aos_simd_prefetch", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| flux_run(lanes(), Exec::Caller, stream_ahead(&geom, PREFETCH_DIST), &node, 1.0, res),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Prefetch-distance ablation: the same SIMD+prefetch flux kernel with
/// the lookahead swept across 4/8/16/32 edges. 16 is the shipped
/// [`PREFETCH_DIST`]; the sweep documents how flat (or not) the
/// optimum is on this host.
fn bench_prefetch_dist(c: &mut Bench) {
    let (geom, _, node, _) = fixture();
    let n4 = node.n * 4;
    let mut g = c.group("prefetch_dist");
    g.sample_size(20);
    for dist in [4usize, 8, 16, 32] {
        g.bench_function(&format!("dist_{dist}"), |b| {
            b.iter_batched_ref(
                || vec![0.0; n4],
                |res| flux_run(lanes(), Exec::Caller, stream_ahead(&geom, dist), &node, 1.0, res),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// The tiled (cache-blocked) flux kernel, gathering straight from the
/// node arrays in tile order (its streaming counterparts are the `flux`
/// group).
fn bench_tiled(c: &mut Bench) {
    let (geom, _, node, _) = fixture();
    let n4 = node.n * 4;
    let tiling = fun3d_partition::EdgeTiling::build(
        node.n,
        geom.edges(),
        &fun3d_partition::TilingConfig::for_machine(&fun3d_machine::MachineSpec::host()),
    );
    let tg = fun3d_core::TiledGeom::new(tiling, &geom);
    let tiles = Traversal::Tiled { geom: &tg };
    let mut g = c.group("flux_tiled");
    g.sample_size(20);
    g.bench_function("direct", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| flux_run(lanes(), Exec::Caller, tiles, &node, 1.0, res),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The Green-Gauss gather, which has one form whatever the flux walks.
fn bench_gradient(c: &mut Bench) {
    let (_, adj, node, _) = fixture();
    let mut g = c.group("gradient");
    g.sample_size(20);
    g.bench_function("green_gauss", |b| {
        b.iter_batched_ref(|| node.clone(), |n| green_gauss(&adj, n), BatchSize::LargeInput)
    });
    g.finish();
}

fn jacobian() -> Bcsr4 {
    let mesh = MeshPreset::Small.build();
    let mut a = Bcsr4::from_edges(mesh.nvertices(), &mesh.edges());
    a.fill_diag_dominant(7);
    a
}

fn bench_recurrences(c: &mut Bench) {
    let a = jacobian();
    let pattern1 = ilu::symbolic_iluk(&a, 1);
    let factors = ilu::factor(&a, &pattern1, TempBuffer::Compressed);
    let n = a.dim();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut g = c.group("recurrences");
    g.sample_size(15);
    g.bench_function("ilu1_full_buffer", |bch| {
        bch.iter(|| std::hint::black_box(ilu::factor(&a, &pattern1, TempBuffer::Full)))
    });
    g.bench_function("ilu1_compressed_buffer", |bch| {
        bch.iter(|| std::hint::black_box(ilu::factor(&a, &pattern1, TempBuffer::Compressed)))
    });
    let structure = ilu::IluSymbolic::new(&a, &pattern1);
    let mut reused = factors.clone();
    g.bench_function("ilu1_refactor_in_place", |bch| {
        bch.iter(|| structure.refactor(&a, std::hint::black_box(&mut reused)))
    });
    g.bench_function("ilu0", |bch| bch.iter(|| std::hint::black_box(ilu::ilu0(&a))));
    g.bench_function("trsv", |bch| {
        bch.iter(|| std::hint::black_box(trsv_solve(&factors, &b)))
    });
    g.finish();
}

fn bench_spmv(c: &mut Bench) {
    let a = jacobian();
    let scalar = Csr::from_bcsr(&a);
    let n = a.dim();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
    let mut y = vec![0.0; n];
    let mut g = c.group("spmv");
    g.sample_size(30);
    g.bench_function("bcsr4", |b| b.iter(|| a.spmv(&x, &mut y)));
    g.bench_function("scalar_csr", |b| b.iter(|| scalar.spmv(&x, &mut y)));
    g.finish();
}

/// The Krylov vector primitives at the benchmark mesh's vector length
/// (3 549 vertices × 4 unknowns) and at GMRES(30)'s first, typical and
/// last basis sizes, reported in GB/s of the bytes each must move
/// (`x` once plus every `yⱼ` for `mdot`, `y` read and written plus every
/// `xⱼ` for `maxpy`) beside a triad measured on vectors of the same
/// length — cache-resident, like the Krylov basis, so it is the fair
/// floor: the paper's finding that these primitives surface once the
/// main kernels are optimized, held against what this host can stream.
fn bench_vecops(c: &mut Bench) {
    const N: usize = 14_196;
    let x: Vec<f64> = (0..N).map(|i| (i as f64 * 0.01).sin()).collect();
    let ys: Vec<Vec<f64>> = (0..30)
        .map(|k| (0..N).map(|i| ((i + k) as f64 * 0.02).cos()).collect())
        .collect();
    let alpha: Vec<f64> = (0..30).map(|k| 1e-3 * (k as f64 + 1.0)).collect();
    let mut out = vec![0.0; 30];
    let mut w = vec![0.0; N];
    let mut vectors_moved = Vec::new();
    let first = c.records().len();
    let mut g = c.group("vecops");
    g.sample_size(30);
    g.bench_function("triad", |b| {
        b.iter(|| {
            for ((w, x), y) in w.iter_mut().zip(&x).zip(&ys[0]) {
                *w = x + 0.5 * y;
            }
            std::hint::black_box(&mut w);
        })
    });
    vectors_moved.push(3);
    g.bench_function("dot", |b| {
        b.iter(|| std::hint::black_box(dot(&x, &ys[0])))
    });
    vectors_moved.push(2);
    g.bench_function("norm2", |b| b.iter(|| std::hint::black_box(norm2(&x))));
    vectors_moved.push(1);
    for k in [1usize, 8, 30] {
        g.bench_function(&format!("mdot{k}"), |b| {
            b.iter(|| mdot(&x, &ys[..k], &mut out[..k]))
        });
        vectors_moved.push(k + 1);
        g.bench_function(&format!("maxpy{k}"), |b| {
            b.iter(|| maxpy(&mut w, &alpha[..k], &ys[..k]))
        });
        vectors_moved.push(k + 2);
    }
    g.finish();
    // A filter may have skipped some of the group; then no table.
    let ran = &c.records()[first..];
    if ran.len() == vectors_moved.len() {
        println!(
            "vecops at n = {N} on {} lanes, GB/s of the bytes each must move:",
            fun3d_simd::active_isa()
        );
        for (r, vectors) in ran.iter().zip(vectors_moved) {
            let gbps = (vectors * N * 8) as f64 / r.median_s / 1e9;
            println!("  {:<18} {gbps:>7.1} GB/s", r.id);
        }
    }
}

/// Telemetry overhead on the flux kernel: the same instrumented call
/// (one `telemetry::kernel` guard per invocation, exactly what
/// `Fun3dApp::run_flux` does) at `off` versus an uninstrumented baseline
/// and versus the default `counters` level. The off/uninstrumented pair
/// is the <2% acceptance claim; compare their medians in the CSV.
fn bench_telemetry_overhead(c: &mut Bench) {
    let (geom, _, node, _) = fixture();
    let n4 = node.n * 4;
    let nedges = geom.nedges();
    let mut g = c.group("telemetry");
    g.sample_size(20);
    g.bench_function("flux_uninstrumented", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| flux_serial_aos(&geom, &node, 1.0, res),
            BatchSize::LargeInput,
        )
    });
    telemetry::set_level(Level::Off);
    g.bench_function("flux_instrumented_off", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| {
                let _k = telemetry::kernel("flux", fun3d_core::counts::flux(nedges));
                flux_serial_aos(&geom, &node, 1.0, res)
            },
            BatchSize::LargeInput,
        )
    });
    telemetry::set_level(Level::Counters);
    g.bench_function("flux_instrumented_counters", |b| {
        b.iter_batched_ref(
            || vec![0.0; n4],
            |res| {
                let _k = telemetry::kernel("flux", fun3d_core::counts::flux(nedges));
                flux_serial_aos(&geom, &node, 1.0, res)
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The always-on claim of the one gate: the same flux call emitting one
/// flight event (group `flight`), or recording one histogram sample
/// (group `metrics`), per invocation — a far higher rate than the real
/// per-step / per-request sources — at `off` versus the default level,
/// plus the raw cost of one `emit`, one shard `record` and one full
/// metrics snapshot (the collector side a `{"cmd":"stats"}` reply pays).
/// Each off/on pair must stay within measurement noise — the acceptance
/// criterion `crates/util/tests/{flight,metrics}_overhead.rs` gate.
fn bench_recorder_overhead(c: &mut Bench) {
    use fun3d_util::telemetry::metrics;
    let (geom, _, node, _) = fixture();
    let n4 = node.n * 4;
    let step = telemetry::EventKind::PtcStep {
        step: 1,
        res: 1.0,
        dt: 2.0,
        gmres_iters: 3,
        eta: 0.1,
    };
    let h = metrics::histogram("bench.flux_ns");
    let flux_off_on = |g: &mut Group, group: &str, site: &dyn Fn()| {
        g.sample_size(20);
        for (id, level) in [("off", Level::Off), ("on", Level::Counters)] {
            telemetry::set_level(level);
            g.bench_function(&format!("flux_{group}_{id}"), |b| {
                b.iter_batched_ref(
                    || vec![0.0; n4],
                    |res| {
                        site();
                        flux_serial_aos(&geom, &node, 1.0, res)
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    };
    let mut g = c.group("flight");
    flux_off_on(&mut g, "flight", &|| telemetry::emit(step));
    g.bench_function("emit", |b| b.iter(|| telemetry::emit(step)));
    g.finish();
    let mut g = c.group("metrics");
    flux_off_on(&mut g, "metrics", &|| h.record(1_234));
    g.bench_function("record", |b| {
        b.iter(|| h.record(std::hint::black_box(1_234)))
    });
    g.bench_function("snapshot", |b| b.iter(metrics::snapshot));
    g.finish();
}

fn bench_partitioner(c: &mut Bench) {
    let mesh = MeshPreset::Small.build();
    let graph = mesh.vertex_graph();
    let mut g = c.group("partitioner");
    g.sample_size(10);
    g.bench_function("multilevel_8way", |b| {
        b.iter(|| {
            std::hint::black_box(partition_graph(&graph, 8, &MultilevelConfig::default()))
        })
    });
    g.finish();
}

/// Set-up, stage by stage, on Small: what every steady operation pays
/// before its solve (generation, RCM, the median dual, the matrix and
/// ILU(1) patterns, the two-way partition the owner-writes plan needs),
/// each stage on the previous stage's output. `rcm` includes building
/// the vertex graph and `dual` its own edge list, so both contain an
/// `edges` pass.
fn bench_setup(c: &mut Bench) {
    let spec = MeshPreset::Small.spec();
    let scrambled = spec.build();
    let mut mesh = scrambled.clone();
    fun3d_core::Fun3dApp::rcm_reorder(&mut mesh);
    let dual = DualMesh::build(&mesh);
    let nv = mesh.nvertices();
    let jac = Bcsr4::from_edges(nv, &dual.edges);
    let graph = mesh.vertex_graph();
    let mut g = c.group("setup");
    g.sample_size(15);
    g.bench_function("build", |b| b.iter(|| spec.build()));
    g.bench_function("edges", |b| b.iter(|| scrambled.edges()));
    g.bench_function("rcm", |b| b.iter(|| rcm(&scrambled.vertex_graph())));
    g.bench_function("dual", |b| b.iter(|| DualMesh::build(&mesh)));
    g.bench_function("symbolic_iluk1", |b| b.iter(|| ilu::symbolic_iluk(&jac, 1)));
    g.bench_function("bcsr_pattern", |b| b.iter(|| Bcsr4::from_edges(nv, &dual.edges)));
    g.bench_function("partition2", |b| {
        b.iter(|| partition_graph(&graph, 2, &MultilevelConfig::default()))
    });
    g.finish();
}

fn main() {
    let mut c = Bench::from_args();
    bench_flux(&mut c);
    bench_prefetch_dist(&mut c);
    bench_tiled(&mut c);
    bench_gradient(&mut c);
    bench_recurrences(&mut c);
    bench_spmv(&mut c);
    bench_vecops(&mut c);
    bench_telemetry_overhead(&mut c);
    bench_recorder_overhead(&mut c);
    bench_partitioner(&mut c);
    bench_setup(&mut c);
    c.finish();
}
