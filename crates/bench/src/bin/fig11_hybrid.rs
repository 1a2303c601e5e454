//! **Figure 11** — Baseline vs Optimized (MPI-only) vs Hybrid
//! (2 ranks/node × 8 threads) scaled to 256 nodes.
//!
//! Paper: Hybrid beats Baseline by 10–23% (fewer subdomains → better
//! convergence, cheaper collectives) but trails the MPI-only Optimized
//! version because PETSc's vector/scatter primitives are not threaded
//! (the Amdahl fraction); MPI-only additionally suffers +30% iterations
//! at 256 nodes.

use fun3d_bench::emit;
use fun3d_bench::multinode as fig9;
use fun3d_bench::network::NetworkSpec;
use fun3d_bench::report::{fmt_g, Table};
use fun3d_bench::scaling::{simulate_point, ExecStyle, ScalingConfig};
use fun3d_mesh::generator::MeshPreset;

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let machine = fun3d_bench::scaling::xeon_e5_2680();
    let net = NetworkSpec::stampede_fdr();
    let sm = fig9::calibrate(&cli.mesh);

    let mut table = Table::new(
        "Fig. 11: Baseline vs Optimized vs Hybrid (modeled, seconds)",
        &[
            "nodes",
            "baseline",
            "optimized",
            "hybrid",
            "hybrid vs baseline",
            "iters (MPI / hybrid)",
        ],
    );
    for nodes in fig9::NODES {
        let cb = ScalingConfig::mesh_d(ExecStyle::Baseline);
        let co = ScalingConfig::mesh_d(ExecStyle::Optimized);
        let ch = ScalingConfig::mesh_d(ExecStyle::Hybrid);
        let pb = simulate_point(&machine, &net, &cb, nodes, &fig9::workload(&cli.mesh, &sm, &cb, nodes));
        let po = simulate_point(&machine, &net, &co, nodes, &fig9::workload(&cli.mesh, &sm, &co, nodes));
        let ph = simulate_point(&machine, &net, &ch, nodes, &fig9::workload(&cli.mesh, &sm, &ch, nodes));
        table.row(&[
            nodes.to_string(),
            fmt_g(pb.total_s),
            fmt_g(po.total_s),
            fmt_g(ph.total_s),
            format!("{:.0}%", 100.0 * (pb.total_s - ph.total_s) / pb.total_s),
            format!("{:.0} / {:.0}", pb.linear_iters, ph.linear_iters),
        ]);
    }
    emit("fig11_hybrid", &table);
    println!("\npaper: hybrid 10–23% better than baseline; MPI-only optimized fastest");
}
