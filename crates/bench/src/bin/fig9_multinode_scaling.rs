//! **Figure 9** — strong scaling of Mesh-D to 256 Stampede nodes,
//! baseline vs cache+SIMD-optimized (both 16 MPI ranks/node).
//!
//! Paper: the optimized version is 16–28% faster at every node count;
//! scaling flattens as communication grows.
//!
//! Per-rank workloads: real multilevel decompositions of the requested
//! mesh up to the rank count where subdomains stay non-degenerate
//! (≥ ~500 vertices each), then the calibrated surface model
//! extrapolates to Mesh-D scale (2.76e6 vertices; see EXPERIMENTS.md).

use fun3d_bench::emit;
use fun3d_bench::multinode::{calibrate, workload, NODES};
use fun3d_bench::network::NetworkSpec;
use fun3d_bench::scaling::{simulate_point, ExecStyle, ScalingConfig};
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;
use fun3d_util::report::{fmt_g, Table};

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let machine = MachineSpec::xeon_e5_2680();
    let net = NetworkSpec::stampede_fdr();
    let sm = calibrate(&cli.mesh);

    let mut table = Table::new(
        "Fig. 9: Mesh-D strong scaling on Stampede (modeled, seconds)",
        &["nodes", "baseline (s)", "optimized (s)", "opt. gain", "baseline iters"],
    );
    for nodes in NODES {
        let cb = ScalingConfig::mesh_d(ExecStyle::Baseline);
        let co = ScalingConfig::mesh_d(ExecStyle::Optimized);
        let pb = simulate_point(&machine, &net, &cb, nodes, &workload(&cli.mesh, &sm, &cb, nodes));
        let po = simulate_point(&machine, &net, &co, nodes, &workload(&cli.mesh, &sm, &co, nodes));
        table.row(&[
            nodes.to_string(),
            fmt_g(pb.total_s),
            fmt_g(po.total_s),
            format!("{:.0}%", 100.0 * (pb.total_s - po.total_s) / pb.total_s),
            format!("{:.0}", pb.linear_iters),
        ]);
    }
    emit("fig9_multinode_scaling", &table);
    println!("\npaper: optimized version 16%–28% faster at all scales");
}
