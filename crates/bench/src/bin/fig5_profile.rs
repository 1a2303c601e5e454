//! **Figure 5** — performance profile of the base (serial) application.
//!
//! Paper shares on Mesh-C: flux 42%, TRSV (MatSolve) 17%, ILU 16%,
//! gradient 13%, Jacobian construction 7% — together 95%, rest 5%. Here
//! the Jacobian is never assembled on its own: the factorization computes
//! each row when it reaches it, so the `ilu` row is the paper's ILU and
//! Jacobian rows together (23%).

use fun3d_bench::report::{fmt_g, Table};
use fun3d_bench::{emit, profiled_solve};
use fun3d_core::OptConfig;
use fun3d_mesh::generator::MeshPreset;

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let run = profiled_solve(cli.mesh, OptConfig::baseline());

    // percentage denominator: the solve's wall time
    let total = run.wall_s;
    let tracked: f64 = ["flux", "trsv", "ilu", "gradient"]
        .iter()
        .map(|k| run.kernels.seconds(k))
        .sum();

    let mut table = Table::new(
        "Fig. 5: profile of the base application (serial)",
        &["kernel", "seconds", "% of total", "paper %"],
    );
    let paper = [
        ("flux", 42.0),
        ("trsv", 17.0),
        ("ilu", 16.0 + 7.0),
        ("gradient", 13.0),
    ];
    for (kernel, paper_pct) in paper {
        let secs = run.kernels.seconds(kernel);
        table.row(&[
            kernel.to_string(),
            fmt_g(secs),
            format!("{:.1}%", 100.0 * secs / total),
            format!("{paper_pct:.0}%"),
        ]);
    }
    table.row(&[
        "other".to_string(),
        fmt_g(total - tracked),
        format!("{:.1}%", 100.0 * (total - tracked) / total),
        "5%".to_string(),
    ]);
    table.row(&[
        "total".to_string(),
        fmt_g(total),
        "100.0%".to_string(),
        "100%".to_string(),
    ]);
    emit("fig5_profile", &table);
    println!(
        "\nrun: {} time steps, {} linear iterations",
        run.stats.time_steps, run.stats.linear_iters
    );
}
