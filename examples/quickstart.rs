//! Quickstart: generate a mesh, solve the flow, inspect the profile.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fun3d_core::{Fun3dApp, FlowConditions, OptConfig};
use fun3d_mesh::generator::MeshPreset;
use fun3d_mesh::MeshStats;
use fun3d_solver::ptc::PtcConfig;
use fun3d_util::telemetry::{self, Level};
use std::time::Instant;

fn main() {
    // 1. Generate a synthetic wing-bump channel mesh (the stand-in for
    //    the paper's ONERA M6 meshes) and restore locality with RCM.
    let mut mesh = MeshPreset::Small.build();
    println!("generated:  {}", MeshStats::of(&mesh));
    Fun3dApp::rcm_reorder(&mut mesh);
    println!("after RCM:  {}", MeshStats::of(&mesh));

    // 2. Build the application — incompressible Euler with artificial
    //    compressibility, pseudo-transient Newton-Krylov-Schwarz — in its
    //    fully optimized single-node configuration.
    let cfg = OptConfig::optimized(2);
    let mut app = Fun3dApp::new(mesh, FlowConditions::default(), cfg);

    // 3. March to steady state. Each kernel call adds its time and
    //    modelled traffic to the telemetry counters.
    if std::env::var_os("FUN3D_TELEMETRY").is_none() {
        telemetry::set_level(Level::Counters);
    }
    let t = Instant::now();
    let (state, stats) = app.run(&PtcConfig {
        dt0: 2.0,
        rtol: 1e-8,
        max_steps: 100,
        ..Default::default()
    });
    let wall_s = t.elapsed().as_secs_f64();
    println!(
        "\nconverged: {} in {} pseudo-time steps / {} linear iterations",
        stats.converged, stats.time_steps, stats.linear_iters
    );
    println!(
        "residual drop: {:.2e} -> {:.2e}",
        stats.res_history.first().unwrap(),
        stats.res_history.last().unwrap()
    );

    // 4. Physics sanity: peak pressure perturbation over the bump.
    let p_max = (0..state.len() / 4)
        .map(|v| state[v * 4])
        .fold(f64::MIN, f64::max);
    println!("peak pressure coefficient-ish value: {p_max:.4}");

    // 5. The per-kernel profile (the paper's Fig. 5 instrument), merged
    //    over the threads the kernels ran on.
    println!(
        "\n{:<10} {:>10} {:>7} {:>8} {:>8}",
        "kernel", "seconds", "%", "calls", "GB/s"
    );
    for (name, c) in telemetry::snapshot().merged_counters().entries() {
        if c.ns > 0 {
            let pct = 100.0 * c.seconds() / wall_s;
            let gbs = c.achieved_gbs();
            println!(
                "{name:<10} {:>10.4} {pct:>6.1}% {:>8} {gbs:>8.1}",
                c.seconds(),
                c.calls
            );
        }
    }
    println!("{:<10} {wall_s:>10.4} {:>6.1}%", "total", 100.0);
}
