//! **Figure 8a** — optimized full-application "time to solution".
//!
//! Paper: 6.9× at 10 cores (20 threads) over the serial baseline; the
//! bandwidth-bound TRSV limits parallel efficiency to 69%.
//!
//! Method: run the *real* baseline application serially on this host to
//! obtain the per-kernel profile and call counts; model each kernel's
//! speedup at every core count from the real plans/schedules on the
//! paper machine; combine per Amdahl. Two profiles are combined: the
//! host-measured one (this implementation) and the paper's published
//! Fig. 5 shares (for direct comparison against the paper's 6.9×).

use fun3d_bench::model::{model_speedups, KernelSpeedups};
use fun3d_bench::report::Table;
use fun3d_bench::{emit, profiled_solve, KernelFixture, THREAD_SWEEP};
use fun3d_core::OptConfig;
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let fix = KernelFixture::new(cli.mesh);
    let machine = MachineSpec::xeon_e5_2690v2();

    // Real baseline run for the host profile.
    let run = profiled_solve(cli.mesh, OptConfig::baseline());
    let (kernels, total) = (&run.kernels, run.wall_s);
    let shares_host: Vec<(&str, f64)> = {
        // The host's `ilu` includes the Jacobian's rows: the
        // factorization computes each one when it reaches it.
        let tracked: f64 = ["flux", "trsv", "ilu", "gradient"]
            .iter()
            .map(|k| kernels.seconds(k))
            .sum();
        vec![
            ("flux", kernels.seconds("flux") / total),
            ("trsv", kernels.seconds("trsv") / total),
            ("ilu", kernels.seconds("ilu") / total),
            ("gradient", kernels.seconds("gradient") / total),
            ("other", (total - tracked) / total),
        ]
    };
    let shares_paper: Vec<(&str, f64)> = vec![
        ("flux", 0.42),
        ("trsv", 0.17),
        ("ilu", 0.16),
        ("gradient", 0.13),
        ("jacobian", 0.07),
        ("other", 0.05),
    ];

    let combine = |shares: &[(&str, f64)], s: &KernelSpeedups| -> f64 {
        let reduced: f64 = shares
            .iter()
            .map(|(k, share)| {
                share
                    / match *k {
                        "flux" => s.flux,
                        "trsv" => s.trsv,
                        "ilu" => s.ilu,
                        "gradient" => s.gradient,
                        "jacobian" => s.jacobian,
                        _ => s.other,
                    }
            })
            .sum();
        1.0 / reduced
    };

    let mut table = Table::new(
        "Fig. 8a: full-application speedup vs cores (modeled on Xeon E5-2690v2)",
        &[
            "cores",
            "speedup (host profile)",
            "speedup (paper Fig.5 profile)",
        ],
    );
    for &cores in &THREAD_SWEEP {
        let s = model_speedups(&fix, &machine, cores);
        table.row(&[
            cores.to_string(),
            format!("{:.2}x", combine(&shares_host, &s)),
            format!("{:.2}x", combine(&shares_paper, &s)),
        ]);
    }
    emit("fig8a_app_speedup", &table);
    println!(
        "\nhost baseline run: {} steps, {} linear iterations, {:.3} s total",
        run.stats.time_steps, run.stats.linear_iters, total
    );
    println!("paper: 6.9x at 10 cores (parallel efficiency limited by bandwidth-bound TRSV)");
}
