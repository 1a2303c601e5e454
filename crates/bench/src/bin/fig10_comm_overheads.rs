//! **Figure 10** — communication overheads in the Mesh-D scaling study.
//!
//! Paper: communication grows to ~70% of execution time at 256 nodes;
//! 90%+ of it is `MPI_Allreduce` (the Krylov inner products); point-to-
//! point halo traffic is under 5%.

use fun3d_bench::emit;
use fun3d_bench::multinode as fig9;
use fun3d_bench::network::NetworkSpec;
use fun3d_bench::report::Table;
use fun3d_bench::scaling::{simulate_point, ExecStyle, ScalingConfig};
use fun3d_mesh::generator::MeshPreset;

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let machine = fun3d_bench::scaling::xeon_e5_2680();
    let net = NetworkSpec::stampede_fdr();
    let sm = fig9::calibrate(&cli.mesh);
    let cfg = ScalingConfig::mesh_d(ExecStyle::Optimized);

    let mut table = Table::new(
        "Fig. 10: communication overheads vs nodes (modeled, optimized MPI-only)",
        &[
            "nodes",
            "compute (s)",
            "allreduce (s)",
            "p2p halo (s)",
            "comm fraction",
            "allreduce share of comm",
        ],
    );
    for nodes in fig9::NODES {
        let w = fig9::workload(&cli.mesh, &sm, &cfg, nodes);
        let p = simulate_point(&machine, &net, &cfg, nodes, &w);
        table.row(&[
            nodes.to_string(),
            format!("{:.2}", p.compute_s),
            format!("{:.2}", p.allreduce_s),
            format!("{:.3}", p.halo_s),
            format!("{:.0}%", 100.0 * p.comm_fraction()),
            format!("{:.0}%", 100.0 * p.allreduce_share()),
        ]);
    }
    emit("fig10_comm_overheads", &table);
    println!("\npaper: ~70% comm at 256 nodes, 90%+ of it allreduce, <5% point-to-point");
}
