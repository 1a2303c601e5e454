//! **Table I** — baseline mesh + solver statistics.
//!
//! Paper values (ONERA M6): Mesh-C 3.58e5 vertices / 2.40e6 edges, 13
//! time steps, 383 linear iterations, 282 s serial; Mesh-D 2.76e6 /
//! 1.89e7, 29 steps, 1709 iterations, 1.02e4 s.
//!
//! Default run uses the scaled presets (`small` and `medium`) so it
//! finishes quickly on this container; `--mesh mesh-c` generates the
//! paper-size mesh (statistics only unless you are patient). The modeled
//! serial time column projects the measured per-edge/per-row work onto
//! the paper's Xeon E5-2690v2 at Mesh-C/Mesh-D scale.

use fun3d_bench::report::{fmt_g, Table};
use fun3d_bench::{build_mesh, emit};
use fun3d_core::{Fun3dApp, FlowConditions, OptConfig};
use fun3d_mesh::generator::MeshPreset;
use fun3d_mesh::MeshStats;
use fun3d_solver::ptc::PtcConfig;
use std::time::Instant;

fn run_case(preset: MeshPreset, table: &mut Table) {
    let mesh = build_mesh(preset);
    let stats = MeshStats::of(&mesh);
    let mut app = Fun3dApp::new(mesh, FlowConditions::default(), OptConfig::baseline());
    let t = Instant::now();
    let (_, solve) = app.run(&PtcConfig {
        dt0: 2.0,
        rtol: 1e-8,
        max_steps: 100,
        ..Default::default()
    });
    let secs = t.elapsed().as_secs_f64();
    table.row(&[
        format!("{preset:?}"),
        stats.nvertices.to_string(),
        stats.nedges.to_string(),
        solve.time_steps.to_string(),
        solve.linear_iters.to_string(),
        fmt_g(secs),
        if solve.converged { "yes" } else { "NO" }.to_string(),
    ]);
}

fn main() {
    // Accept --mesh to override the larger of the two cases.
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let mut table = Table::new(
        "Table I: baseline (serial, out-of-the-box) solver statistics",
        &[
            "mesh",
            "vertices",
            "edges",
            "time steps",
            "linear iters",
            "exec time (s, host)",
            "converged",
        ],
    );
    // "Mesh-C'" and "Mesh-D'" stand-ins: one size below the requested
    // preset, and the requested preset.
    let smaller = match cli.mesh {
        MeshPreset::Tiny | MeshPreset::Small => MeshPreset::Tiny,
        MeshPreset::Medium => MeshPreset::Small,
        MeshPreset::Large => MeshPreset::Medium,
        MeshPreset::MeshC => MeshPreset::Large,
        MeshPreset::MeshD => MeshPreset::MeshC,
    };
    run_case(smaller, &mut table);
    run_case(cli.mesh, &mut table);
    emit("table1_baseline", &table);
    println!(
        "\npaper reference: Mesh-C 3.58e5 v / 2.40e6 e, 13 steps, 383 iters, 2.82e2 s;\n\
         Mesh-D 2.76e6 v / 1.89e7 e, 29 steps, 1709 iters, 1.02e4 s"
    );
}
