//! **Figure 6b** — flux kernel scaling with cores for the three
//! partitioning strategies.
//!
//! Paper: "Basic partitioning with atomics" scales linearly but is slow
//! (atomic overhead); "Basic partitioning with replication" (natural
//! vertex split, owner-only writes) is faster but stops scaling (41%
//! redundant compute at 20 threads + imbalance); "METIS based
//! partitioning" is fastest and near-linear (4% replication).
//!
//! Per-thread workloads come from the *real* plans built on the real
//! mesh; the timing model charges the paper machine's costs. The real
//! threaded kernels themselves are validated against the serial kernel
//! in the test suite (bitwise for owner-writes, `tests/tiled_equivalence.rs`
//! for tiles).
//!
//! A second, **host-measured** table runs the lane body at each thread
//! count of the sweep this host has cores for: owner-writes on the METIS
//! plan and host-L2 tiles, each against the one-thread prefetching stream
//! timed in the same interleaved rounds (per-variant minimum,
//! [`fun3d_bench::best_of`]). Effective GB/s divides the streaming-model
//! bytes ([`counts::flux`]) by the wall, the Fig. 6 convention.

use fun3d_bench::kernels::{self, EdgeLoopCosts};
use fun3d_bench::{best_of, emit, fmt_x, KernelFixture, THREAD_SWEEP};
use fun3d_core::{counts, flux, Exec, Isa, TiledGeom, Traversal};
use fun3d_machine::MachineSpec;
use fun3d_mesh::Graph;
use fun3d_mesh::generator::MeshPreset;
use fun3d_partition::{
    natural_partition, partition_graph, EdgeTiling, MultilevelConfig, OwnerWritesPlan, TileQuality,
    TilingConfig,
};
use fun3d_threads::{available_cores, ThreadPool};
use fun3d_util::report::Table;

/// One timed variant: the lane body on `walk` in `exec`, into an output
/// of its own.
fn variant<'a>(fix: &'a KernelFixture, exec: Exec<'a>, walk: Traversal<'a>) -> Box<dyn FnMut() + 'a> {
    let (isa, mut res) = (Isa::detect(), vec![0.0; fix.node.n * 4]);
    Box::new(move || flux::run(Some(isa), exec, walk, &fix.node, fix.cond.beta, &mut res))
}

fn host_table(fix: &KernelFixture, graph: &Graph, reps: usize) -> Table {
    let tiling = EdgeTiling::build(
        fix.mesh.nvertices(),
        fix.geom.edges(),
        &TilingConfig::for_machine(&MachineSpec::host()),
    );
    let tgeom = TiledGeom::new(tiling, &fix.geom);
    let gbps = |t: f64| format!("{:.2}", counts::flux(fix.geom.nedges()).bytes() as f64 / t / 1e9);
    let mut table = Table::new(
        &format!("Fig. 6b (host-measured, {} lanes): flux effective GB/s per strategy", Isa::detect().name()),
        &["threads", "stream, 1 thr", "METIS owner-writes", "tiled", "owner vs stream", "tiled vs stream"],
    );
    let ahead = Traversal::Stream { geom: &fix.geom, prefetch: Some(flux::PREFETCH_DIST) };
    for nt in THREAD_SWEEP.into_iter().filter(|&nt| nt <= available_cores()) {
        let part = partition_graph(graph, nt, &MultilevelConfig::default());
        let plan = OwnerWritesPlan::build(fix.geom.edges(), &part, nt);
        let pool = (nt > 1).then(|| ThreadPool::new(nt));
        let exec = pool.as_ref().map_or(Exec::Caller, Exec::Pool);
        let [t_stream, t_owner, t_tiled] = best_of(reps, [
            variant(fix, Exec::Caller, ahead),
            variant(fix, exec, Traversal::owner(&fix.geom, &plan)),
            variant(fix, exec, Traversal::Tiled { geom: &tgeom }),
        ]);
        table.row(&[
            nt.to_string(),
            gbps(t_stream),
            gbps(t_owner),
            gbps(t_tiled),
            fmt_x(t_stream / t_owner),
            fmt_x(t_stream / t_tiled),
        ]);
    }
    table
}

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let fix = KernelFixture::new(cli.mesh);
    let machine = MachineSpec::xeon_e5_2690v2();
    let costs = EdgeLoopCosts::default();
    let graph = Graph::from_edges(fix.mesh.nvertices(), fix.geom.edges());
    let ne = fix.geom.nedges();

    let serial =
        kernels::edge_loop_time(&machine, &[ne], costs.scalar_aos, costs.dram_bytes_per_edge, 0.0);

    // Tiled: the same tiling serves every core count (tiles are
    // the unit of scheduling); its measured reuse scales the DRAM
    // traffic the model charges per edge.
    let tiling = EdgeTiling::build(
        fix.mesh.nvertices(),
        fix.geom.edges(),
        &TilingConfig::for_machine(&machine),
    );
    let tiled_bytes = costs.dram_bytes_per_edge
        * (counts::flux_tiled(ne, tiling.vertex_slots()).bytes() as f64
            / counts::flux(ne).bytes() as f64);

    let mut table = Table::new(
        "Fig. 6b: flux kernel speedup vs cores, per partitioning strategy (modeled)",
        &[
            "cores",
            "atomics",
            "natural replication",
            "METIS replication",
            "tiled",
            "natural repl. %",
            "METIS repl. %",
        ],
    );
    for &cores in &THREAD_SWEEP {
        let threads = cores * machine.smt;
        // Atomics: natural edge split, 8 atomic RMWs per edge.
        let per_thread_atomic: Vec<usize> = (0..threads)
            .map(|t| fun3d_threads::chunk_range(ne, threads, t).len())
            .collect();
        let t_atomic = kernels::edge_loop_time(
            &machine,
            &per_thread_atomic,
            costs.scalar_aos,
            costs.dram_bytes_per_edge,
            8.0,
        );
        // Natural owner-writes.
        let nat_plan = OwnerWritesPlan::build(
            fix.geom.edges(),
            &natural_partition(fix.mesh.nvertices(), threads),
            threads,
        );
        let nat: Vec<usize> = nat_plan.edges_of().iter().map(Vec::len).collect();
        let t_nat =
            kernels::edge_loop_time(&machine, &nat, costs.scalar_aos, costs.dram_bytes_per_edge, 0.0);
        // METIS owner-writes.
        let ml_plan = OwnerWritesPlan::build(
            fix.geom.edges(),
            &partition_graph(&graph, threads, &MultilevelConfig::default()),
            threads,
        );
        let ml: Vec<usize> = ml_plan.edges_of().iter().map(Vec::len).collect();
        let t_ml =
            kernels::edge_loop_time(&machine, &ml, costs.scalar_aos, costs.dram_bytes_per_edge, 0.0);
        // Tiled: color classes split across threads, reuse-shrunk traffic.
        let tiled: Vec<usize> = (0..threads)
            .map(|t| {
                (0..tiling.ncolors())
                    .map(|c| {
                        let class = &tiling.color_tiles[c];
                        fun3d_threads::chunk_range(class.len(), threads, t)
                            .map(|i| tiling.tiles[class[i] as usize].edges.len())
                            .sum::<usize>()
                    })
                    .sum()
            })
            .collect();
        let t_tiled = kernels::edge_loop_time(&machine, &tiled, costs.scalar_aos, tiled_bytes, 0.0);

        table.row(&[
            cores.to_string(),
            format!("{:.2}x", serial / t_atomic),
            format!("{:.2}x", serial / t_nat),
            format!("{:.2}x", serial / t_ml),
            format!("{:.2}x", serial / t_tiled),
            format!("{:.1}%", 100.0 * nat_plan.replication_overhead()),
            format!("{:.1}%", 100.0 * ml_plan.replication_overhead()),
        ]);
    }
    emit("fig6b_flux_scaling", &table);
    println!("tile quality: {}", TileQuality::of(&tiling).summary());
    println!("\npaper: METIS near-linear and fastest; natural replication 41% redundant at 20 thr; atomics scale but slowly\n");
    emit("fig6b_flux_scaling_host", &host_table(&fix, &graph, cli.reps));
}
