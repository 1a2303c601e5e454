//! **Table II** — ILU(0) vs ILU(1): parallelism, convergence, speed-up.
//!
//! Paper (Mesh-C): available parallelism 248× vs 60×; linear iterations
//! 777 vs 383; single-core 430 s vs 282 s; 10-core 62 s vs 81 s — the
//! *less* convergent ILU-0 wins at 10 cores (≈1.3×) because its shorter
//! dependency chains parallelize better.
//!
//! Here: iterations come from *real* solver runs at both fill levels;
//! parallelism is the paper's flops-over-critical-path metric computed
//! on the real factors; 10-core times combine each run's host-measured
//! serial profile with the modeled per-kernel speedups at that fill.
//! Beside them, each fill is solved again with the factors lagged four
//! pseudo-time steps and at the default age cap of ten
//! (`OptConfig::ilu_lag`, the cap of the solver's one reuse rule; the
//! reuse the paper calls worth pursuing): fewer factorizations for more
//! iterations. Every cell is solved three times: a "serial time" cell is
//! the median wall time with the min–max beside it, since one solve's
//! wall time spreads by more than the lags' differences on this host.

use fun3d_bench::dag::DagStats;
use fun3d_bench::model::model_speedups_fill;
use fun3d_bench::report::{fmt_g, Table};
use fun3d_bench::{emit, profiled_solve, KernelFixture, ProfiledSolve};
use fun3d_core::OptConfig;
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::FACTOR_AGE_CAP;
use fun3d_sparse::{ilu, TempBuffer};
use fun3d_util::median;

/// Solves per cell; a cell's serial time is their median.
const REPEATS: usize = 3;

struct FillCase {
    parallelism: f64,
    linear_iters: usize,
    serial_s: f64,
    serial_cell: String,
    ten_core_s: f64,
}

/// [`REPEATS`] real serial solves at this fill, the factors refreshed
/// every `lag` pseudo-time steps, quickest first: the middle one is the
/// median.
fn solve(preset: MeshPreset, fill: usize, lag: usize) -> Vec<ProfiledSolve> {
    let mut cfg = OptConfig::baseline();
    cfg.ilu_fill = fill;
    cfg.ilu_lag = lag;
    let mut runs: Vec<ProfiledSolve> = (0..REPEATS).map(|_| profiled_solve(preset, cfg)).collect();
    runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    runs
}

/// A "serial time" cell: the median wall time of a cell's solves, with
/// their min–max beside it.
fn serial_time(runs: &[ProfiledSolve]) -> String {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let (lo, hi) = (walls[0], walls[walls.len() - 1]);
    format!("{} ({}–{})", fmt_g(median(&walls)), fmt_g(lo), fmt_g(hi))
}

/// The Table II column of `fill` from its unlagged solves: the median
/// one's profile and wall time.
fn run_case(preset: MeshPreset, fill: usize, runs: &[ProfiledSolve]) -> FillCase {
    let run = &runs[REPEATS / 2];
    let (prof, total) = (&run.kernels, run.wall_s);

    // DAG parallelism on the real factors
    let fix = KernelFixture::new(preset);
    let jac = fun3d_bench::jacobian_fixture(&fix, 1.0);
    let pattern = ilu::symbolic_iluk(&jac, fill);
    let factors = ilu::factor(&jac, &pattern, TempBuffer::Compressed);
    let dag = DagStats::for_trsv(&factors.l, &factors.u);

    // modeled 10-core time: scale each host-measured phase by its
    // modeled speedup (flux/gradient/jacobian identical between fills;
    // trsv/ilu schedules rebuilt per fill inside model_speedups via the
    // fill-1 pattern — adequate for the fill-dependent *ratio* since the
    // dominant fill effect enters through the measured phase times and
    // the DAG parallelism cap below).
    let machine = MachineSpec::xeon_e5_2690v2();
    let s = model_speedups_fill(&fix, &machine, machine.cores, fill);
    // Cap recurrence speedups by this fill's own available parallelism.
    let trsv_speedup = s.trsv.min(dag.parallelism());
    let ilu_speedup = s.ilu.min(dag.parallelism());
    // `ilu` includes the Jacobian's rows, which the factorization
    // computes as it reaches them, so it scales as the factorization does.
    let tracked: f64 = ["flux", "trsv", "ilu", "gradient"]
        .iter()
        .map(|k| prof.seconds(k))
        .sum();
    let ten_core_s = prof.seconds("flux") / s.flux
        + prof.seconds("trsv") / trsv_speedup
        + prof.seconds("ilu") / ilu_speedup
        + prof.seconds("gradient") / s.gradient
        + (total - tracked) / s.other;

    FillCase {
        parallelism: dag.parallelism(),
        linear_iters: run.stats.linear_iters,
        serial_s: total,
        serial_cell: serial_time(runs),
        ten_core_s,
    }
}

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);
    // Per fill, the solve with the factors refreshed every step, the one
    // with them lagged four steps and the one at the default cap.
    let lags = [1, 4, FACTOR_AGE_CAP];
    let solves = [0, 1].map(|fill| lags.map(|lag| solve(cli.mesh, fill, lag)));
    let c0 = run_case(cli.mesh, 0, &solves[0][0]);
    let c1 = run_case(cli.mesh, 1, &solves[1][0]);

    let mut table = Table::new(
        "Table II: ILU-0 vs ILU-1 (host-measured serial runs + modeled 10-core)",
        &["quantity", "ILU-0", "ILU-1", "paper ILU-0", "paper ILU-1"],
    );
    table.row(&[
        "available parallelism".into(),
        format!("{:.0}x", c0.parallelism),
        format!("{:.0}x", c1.parallelism),
        "248x".into(),
        "60x".into(),
    ]);
    table.row(&[
        "linear iterations".into(),
        c0.linear_iters.to_string(),
        c1.linear_iters.to_string(),
        "777".into(),
        "383".into(),
    ]);
    table.row(&[
        "serial time (s, median (min–max) of 3)".into(),
        c0.serial_cell.clone(),
        c1.serial_cell.clone(),
        "430".into(),
        "282".into(),
    ]);
    table.row(&[
        "10-core time (s, modeled)".into(),
        fmt_g(c0.ten_core_s),
        fmt_g(c1.ten_core_s),
        "62".into(),
        "81".into(),
    ]);
    table.row(&[
        "speedup over serial".into(),
        format!("{:.1}x", c0.serial_s / c0.ten_core_s),
        format!("{:.1}x", c1.serial_s / c1.ten_core_s),
        "6.9x".into(),
        "3.5x".into(),
    ]);
    type Quantity = fn(&[ProfiledSolve]) -> String;
    let rows: [(&str, Quantity); 3] = [
        ("linear iterations", |r| r[0].stats.linear_iters.to_string()),
        ("factorizations", |r| {
            r[0].kernels.get("ilu").map_or(0, |c| c.calls).to_string()
        }),
        ("serial time (s, median (min–max) of 3)", serial_time),
    ];
    for (quantity, value) in rows {
        let cell = |[lag1, lag4, cap]: &[Vec<ProfiledSolve>; 3]| {
            format!("{} / {} / {}", value(lag1), value(lag4), value(cap))
        };
        let name = format!("{quantity}, ILU lag 1 / 4 / {FACTOR_AGE_CAP}");
        table.row(&[name, cell(&solves[0]), cell(&solves[1]), "-".into(), "-".into()]);
    }
    emit("table2_ilu_fill", &table);
    println!(
        "\nILU-0 vs ILU-1 at 10 cores: {:.2}x (paper: ~1.3x in ILU-0's favor)",
        c1.ten_core_s / c0.ten_core_s
    );
}
