//! **Figure 6a** — flux kernel: cumulative optimization speed-ups.
//!
//! Paper (Mesh-C, 10 cores / 20 threads): threading with METIS
//! partitioning, + AoS data structures (+40%), + SIMD (+40%), + software
//! prefetch (+15%) → 20.6× over the sequential baseline.
//!
//! Two result sets are reported:
//! * **host-measured** — the single-thread layout/SIMD/prefetch variants
//!   run for real on this container, so those ratios are genuine
//!   measurements of this implementation; the SIMD rows name the lane
//!   implementation that ran (`avx2` or `portable`), and the portable
//!   lanes and the lane body on comp-major gradient rows
//!   (`fun3d_bench::flux_reference`, what ran before rows were stored the
//!   way the loop loads them) are timed beside it, as is the locality the
//!   stack starts from: the lane body on the mesh as generated (no RCM)
//!   and on the edge list in shuffled order;
//! * **modeled (paper machine)** — the cumulative stack on the modeled
//!   10-core Xeon E5-2690v2, with threading effects from the *real*
//!   owner-writes plan (20-thread METIS partition of this mesh).
//!
//! `--check` runs the host measurement only and exits non-zero when AVX2
//! is detected and the lane body on the stream is not at least 1.3× both
//! `serial_aos` and its own portable-lane instantiation, or not at least
//! 1.10× the comp-major reference body (the guard `scripts/verify.sh`
//! runs, so the vectorized kernel can neither silently fall back to
//! scalarized code nor get its transposes, spills and index checks back).

use fun3d_bench::flux_reference::{self, CompMajorNode, NodeSoa};
use fun3d_bench::kernels::{self, EdgeLoopCosts};
use fun3d_bench::report::{fmt_g, Table};
use fun3d_bench::{emit, fmt_x, KernelFixture};
use fun3d_core::{counts, flux_run, flux_serial_aos, Exec, Traversal, PREFETCH_DIST};
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;
use fun3d_partition::{
    partition_graph, EdgeTiling, MultilevelConfig, OwnerWritesPlan, TileQuality, TilingConfig,
};
use fun3d_simd::Isa;
use fun3d_util::Rng64;

/// `--check` floor: on AVX2 lanes the SIMD kernel must beat both the
/// scalar AoS kernel and its own portable-lane instantiation by this
/// factor, or it has stopped being packed code. (The second condition is
/// the sharp one: LLVM's partly vectorized portable lanes already reach
/// 1.37x the scalar kernel on this host, so the first alone would pass
/// scalarized code.)
const SIMD_SPEEDUP_FLOOR: f64 = 1.3;

/// `--check` floor: on AVX2 lanes the production lane body must beat the
/// comp-major, bounds-checked reference body by this factor. Measured
/// 1.2–1.3x on Small (EXPERIMENTS, "Residual: instructions per batch");
/// at 1.0x the eight transposes, the spills or the per-access checks are
/// back.
const LAYOUT_SPEEDUP_FLOOR: f64 = 1.10;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let cli = fun3d_bench::Cli::parse_from(
        MeshPreset::Medium,
        std::env::args().filter(|a| a != "--check"),
    );
    let fix = KernelFixture::new(cli.mesh);
    let soa = NodeSoa::from_aos(&fix.node);
    let comp_major = CompMajorNode::from_node(&fix.node);
    let beta = fix.cond.beta;
    let mut res = vec![0.0; fix.node.n * 4];

    // Cache-blocked tiles, sized for this host's L2, running on the
    // tile-ordered geometry (built once, outside the timed region).
    let tiling = EdgeTiling::build(
        fix.mesh.nvertices(),
        fix.geom.edges(),
        &TilingConfig::for_machine(&MachineSpec::host()),
    );
    let tgeom = fun3d_core::TiledGeom::new(tiling, &fix.geom);
    let tiling = tgeom.tiling();
    let isa = Isa::detect();
    let stream = Traversal::stream(&fix.geom);
    let ahead = Traversal::Stream { geom: &fix.geom, prefetch: Some(PREFETCH_DIST) };
    let tiles = Traversal::Tiled { geom: &tgeom };
    let lanes = |isa: Isa, walk, r: &mut [f64]| flux_run(Some(isa), Exec::Caller, walk, &fix.node, beta, r);
    // The locality the stack starts from: the mesh as generated (vertices
    // scrambled, no RCM), and the RCM mesh's edges in shuffled order.
    let scrambled = KernelFixture::on(cli.mesh.build());
    let perm: Vec<u32> =
        Rng64::new(99).permutation(fix.geom.nedges()).into_iter().map(|i| i as u32).collect();
    let shuffled = fix.geom.try_select(&perm).expect("a permutation of the edge ids");

    // ---- host measurements (serial variants) -----------------------
    // One sample of every variant per round and the per-variant minimum
    // over the rounds (as `fun3d_bench::best_of`, with the output zeroed
    // outside the timer): load drift on a shared host only ever adds
    // time, and interleaving gives every variant the same shot at the
    // quiet windows.
    type Variant<'a> = Box<dyn Fn(&mut [f64]) + 'a>;
    let variants: [Variant; 9] = [
        Box::new(|r| flux_reference::serial_soa(&fix.geom, &soa, beta, r)),
        Box::new(|r| flux_serial_aos(&fix.geom, &fix.node, beta, r)),
        Box::new(|r| lanes(Isa::portable(), stream, r)),
        Box::new(|r| lanes(isa, stream, r)),
        Box::new(|r| lanes(isa, ahead, r)),
        Box::new(|r| lanes(isa, tiles, r)),
        Box::new(|r| flux_reference::stream(isa, &fix.geom, &comp_major, beta, r)),
        Box::new(|r| {
            let walk = Traversal::stream(&scrambled.geom);
            flux_run(Some(isa), Exec::Caller, walk, &scrambled.node, beta, r)
        }),
        Box::new(|r| lanes(isa, Traversal::stream(&shuffled), r)),
    ];
    let mut best = [f64::INFINITY; 9];
    for round in 0..=cli.reps {
        for (t_min, run) in best.iter_mut().zip(&variants) {
            res.iter_mut().for_each(|x| *x = 0.0);
            let t0 = std::time::Instant::now();
            run(&mut res);
            // round 0 is the warm-up
            if round > 0 {
                *t_min = t_min.min(t0.elapsed().as_secs_f64());
            }
        }
    }
    let [t_soa, t_aos, t_portable, t_simd, t_pref, t_tiled, t_comp_major, t_scrambled, t_shuffled] = best;

    let mut host = Table::new(
        &format!(
            "Fig. 6a (host-measured, serial, {} lanes): single-thread flux variants",
            isa.name()
        ),
        &["variant", "seconds", "speedup vs SoA", "paper single-thread factor"],
    );
    host.row(&["scalar SoA (baseline)".into(), fmt_g(t_soa), fmt_x(1.0), "1.00x".into()]);
    host.row(&[
        "+ AoS data structures".into(),
        fmt_g(t_aos),
        fmt_x(t_soa / t_aos),
        "1.40x".into(),
    ]);
    host.row(&[
        format!("+ SIMD (4-edge batch, {})", isa.name()),
        fmt_g(t_simd),
        fmt_x(t_soa / t_simd),
        "1.96x".into(),
    ]);
    host.row(&[
        "+ software prefetch".into(),
        fmt_g(t_pref),
        fmt_x(t_soa / t_pref),
        "2.25x".into(),
    ]);
    host.row(&[
        "SIMD batch on portable lanes".into(),
        fmt_g(t_portable),
        fmt_x(t_soa / t_portable),
        "-".into(),
    ]);
    host.row(&[
        "SIMD batch on comp-major rows, checked (reference)".into(),
        fmt_g(t_comp_major),
        fmt_x(t_soa / t_comp_major),
        "-".into(),
    ]);
    host.row(&[
        "tiled".into(),
        fmt_g(t_tiled),
        fmt_x(t_soa / t_tiled),
        "-".into(),
    ]);
    for (name, t) in [("vertices as generated (no RCM)", t_scrambled), ("edges shuffled", t_shuffled)] {
        host.row(&[format!("SIMD batch, {name}"), fmt_g(t), fmt_x(t_soa / t), "-".into()]);
    }
    emit("fig6a_flux_opts_host", &host);
    println!("tile quality: {}", TileQuality::of(tiling).summary());
    println!(
        "locality: RCM order is {:.2}x the generated order (bandwidth {} -> {}), sorted edges {:.2}x shuffled",
        t_scrambled / t_simd,
        scrambled.mesh.vertex_graph().bandwidth(),
        fix.mesh.vertex_graph().bandwidth(),
        t_shuffled / t_simd
    );

    if check {
        // The rot guard run by scripts/verify.sh: packed lanes that do
        // not clearly beat the scalar kernel are not packed any more.
        let (vs_scalar, vs_portable) = (t_aos / t_simd, t_portable / t_simd);
        let vs_comp_major = t_comp_major / t_simd;
        let measured = format!(
            "the streamed lane body on avx2 lanes is {vs_scalar:.2}x serial_aos, {vs_portable:.2}x \
             its portable lanes and {vs_comp_major:.2}x the comp-major reference body"
        );
        if matches!(isa, Isa::Portable(_)) {
            println!("fig6a --check: {} lanes, no speed floor applies", isa.name());
        } else if vs_scalar.min(vs_portable) >= SIMD_SPEEDUP_FLOOR
            && vs_comp_major >= LAYOUT_SPEEDUP_FLOOR
        {
            println!("fig6a --check: {measured}: ok");
        } else {
            eprintln!(
                "fig6a --check: FAIL: {measured} (floors {SIMD_SPEEDUP_FLOOR}x, \
                 {SIMD_SPEEDUP_FLOOR}x, {LAYOUT_SPEEDUP_FLOOR}x): the SIMD kernel is not compiling \
                 to packed code, or has its transposes, spills or index checks back"
            );
            std::process::exit(1);
        }
        return;
    }

    // ---- modeled cumulative stack on the paper machine -------------
    let machine = MachineSpec::xeon_e5_2690v2();
    let costs = EdgeLoopCosts::default();
    let threads = machine.cores * machine.smt; // 20 threads
    let graph = fun3d_mesh::Graph::from_edges(fix.mesh.nvertices(), fix.geom.edges());
    let part = partition_graph(&graph, threads, &MultilevelConfig::default());
    let plan = OwnerWritesPlan::build(fix.geom.edges(), &part, threads);
    let per_thread: Vec<usize> = plan.edges_of().iter().map(Vec::len).collect();
    let serial = vec![fix.geom.nedges()];

    let t0 = kernels::edge_loop_time(&machine, &serial, costs.scalar_soa, costs.dram_bytes_per_edge, 0.0);
    let stack = [
        ("scalar SoA serial (baseline)", &serial, costs.scalar_soa),
        ("+ threading (METIS, 20 thr)", &per_thread, costs.scalar_soa),
        ("+ AoS data structures", &per_thread, costs.scalar_aos),
        ("+ SIMD (4-edge batch)", &per_thread, costs.simd),
        ("+ software prefetch", &per_thread, costs.simd_prefetch),
    ];
    let mut model = Table::new(
        "Fig. 6a (modeled Xeon E5-2690v2): cumulative flux optimizations",
        &["configuration", "modeled seconds", "speedup"],
    );
    for (name, loads, cyc) in stack {
        let t = kernels::edge_loop_time(&machine, loads, cyc, costs.dram_bytes_per_edge, 0.0);
        model.row(&[name.to_string(), fmt_g(t), fmt_x(t0 / t)]);
    }
    // Tiled: same SIMD batch compute, but DRAM traffic shrunk by
    // the tiling's *measured* reuse (ratio of the analytic tiled byte
    // model to the streaming byte model on this mesh).
    let ne = fix.geom.nedges();
    let byte_ratio = counts::flux_tiled(ne, tiling.vertex_slots()).bytes() as f64
        / counts::flux(ne).bytes() as f64;
    let t_tl = kernels::edge_loop_time(
        &machine,
        &per_thread,
        costs.simd,
        costs.dram_bytes_per_edge * byte_ratio,
        0.0,
    );
    model.row(&[
        "+ cache-blocked tiles".to_string(),
        fmt_g(t_tl),
        fmt_x(t0 / t_tl),
    ]);
    emit("fig6a_flux_opts_model", &model);
    println!(
        "\npaper: 20.6x total at 10 cores / 20 threads; replication overhead of this plan: {:.1}%",
        100.0 * plan.replication_overhead()
    );
}
