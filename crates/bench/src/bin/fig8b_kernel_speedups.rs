//! **Figure 8b** — kernel-wise speedups inside the optimized
//! application at 10 cores / 20 threads.
//!
//! Paper: flux ≈ 20.6×, gradient and Jacobian near-linear, ILU 9.4×,
//! TRSV 3.2× (bandwidth-bound), vector primitives in between.

use fun3d_bench::model::model_speedups;
use fun3d_bench::report::Table;
use fun3d_bench::{emit, KernelFixture};
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    let fix = KernelFixture::new(cli.mesh);
    let machine = MachineSpec::xeon_e5_2690v2();
    let s = model_speedups(&fix, &machine, machine.cores);

    let mut table = Table::new(
        "Fig. 8b: kernel speedups at 10 cores / 20 threads (modeled)",
        &["kernel", "speedup", "paper"],
    );
    table.row(&["flux".into(), format!("{:.1}x", s.flux), "~20.6x".into()]);
    table.row(&["gradient".into(), format!("{:.1}x", s.gradient), "near-linear".into()]);
    table.row(&["jacobian".into(), format!("{:.1}x", s.jacobian), "near-linear".into()]);
    table.row(&["ilu".into(), format!("{:.1}x", s.ilu), "9.4x".into()]);
    table.row(&["trsv".into(), format!("{:.1}x", s.trsv), "3.2x".into()]);
    table.row(&["vector primitives".into(), format!("{:.1}x", s.other), "bandwidth-bound".into()]);
    emit("fig8b_kernel_speedups", &table);
}
