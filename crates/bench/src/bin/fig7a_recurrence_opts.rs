//! **Figure 7a** — ILU and TRSV optimization speed-ups.
//!
//! Paper (Mesh-C, 10 cores / 20 threads): ILU 9.4×, TRSV 3.2× over the
//! sequential code, via level scheduling → P2P sparsification →
//! compressed ILU temporary buffer → in-block SIMD.
//!
//! Host-measured rows cover the single-thread options on this container:
//! the full-buffer factorization (structure rebuilt and A searched on
//! every call — the reference), the one-shot compressed form, and the
//! numeric core on a structure built once, into fresh storage and in
//! place — so the cost of allocating and first touching the factors
//! reads apart from the arithmetic. Modeled rows charge the paper
//! machine with the *real* schedules built from the real factor patterns
//! (level widths, P2P wait counts, critical path).
//!
//! `--check` runs the host measurement only and exits non-zero when the
//! in-place numeric core is not at least 2× the full-buffer reference
//! (the guard `scripts/verify.sh` runs, so symbolic-once cannot silently
//! turn back into symbolic-every-time).

use fun3d_bench::{emit, fmt_x, jacobian_fixture, KernelFixture};
use fun3d_machine::{kernels, MachineSpec, RecurrenceCosts};
use fun3d_mesh::generator::MeshPreset;
use fun3d_sparse::ilu::{self, IluSymbolic};
use fun3d_sparse::{trsv, DagStats, LevelSchedule, P2pSchedule, TempBuffer};
use fun3d_util::report::{fmt_g, Table};

/// `--check` floor for the in-place numeric core over the full-buffer
/// reference. The parent's compressed factorization sat at ≈ 1× (it
/// rebuilt the structure per call too); the core measures 4× on Small.
const REFACTOR_SPEEDUP_FLOOR: f64 = 2.0;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let cli = fun3d_bench::Cli::parse_from(
        MeshPreset::Medium,
        std::env::args().filter(|a| a != "--check"),
    );
    let fix = KernelFixture::new(cli.mesh);
    let jac = jacobian_fixture(&fix, 1.0);
    let pattern = ilu::symbolic_iluk(&jac, 1); // PETSc-FUN3D default: ILU(1)
    let sym = IluSymbolic::new(&jac, &pattern);
    let factors = sym.factor(&jac);
    let n = jac.dim();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();

    // ---- host-measured single-thread options ------------------------
    // One sample of every variant per round, per-variant minimum over
    // the rounds (as fig6a does): drift on a shared host only adds time.
    let mut reused = factors.clone();
    let mut variants: [Box<dyn FnMut() + '_>; 6] = [
        Box::new(|| {
            drop(std::hint::black_box(ilu::factor(
                &jac,
                &pattern,
                TempBuffer::Full,
            )))
        }),
        Box::new(|| {
            drop(std::hint::black_box(ilu::factor(
                &jac,
                &pattern,
                TempBuffer::Compressed,
            )))
        }),
        Box::new(|| drop(std::hint::black_box(IluSymbolic::new(&jac, &pattern)))),
        Box::new(|| drop(std::hint::black_box(sym.factor(&jac)))),
        Box::new(|| sym.refactor(&jac, std::hint::black_box(&mut reused))),
        Box::new(|| drop(std::hint::black_box(trsv::solve(&factors, &b)))),
    ];
    let mut best = [f64::INFINITY; 6];
    for round in 0..=cli.reps {
        for (t_min, run) in best.iter_mut().zip(variants.iter_mut()) {
            let t0 = std::time::Instant::now();
            run();
            // round 0 is the warm-up
            if round > 0 {
                *t_min = t_min.min(t0.elapsed().as_secs_f64());
            }
        }
    }
    drop(variants);
    let [t_full, t_oneshot, t_structure, t_fresh, t_inplace, t_trsv] = best;
    let mut host = Table::new(
        "Fig. 7a (host-measured, serial): ILU/TRSV single-thread options",
        &["kernel / option", "seconds", "speedup"],
    );
    host.row(&["ILU(1), full temp buffer".into(), fmt_g(t_full), fmt_x(1.0)]);
    host.row(&[
        "ILU(1), compressed buffer, one shot".into(),
        fmt_g(t_oneshot),
        fmt_x(t_full / t_oneshot),
    ]);
    host.row(&[
        "  of which: structure build".into(),
        fmt_g(t_structure),
        "-".into(),
    ]);
    host.row(&[
        "ILU(1), numeric core, fresh factors".into(),
        fmt_g(t_fresh),
        fmt_x(t_full / t_fresh),
    ]);
    host.row(&[
        "ILU(1), numeric core, in place".into(),
        fmt_g(t_inplace),
        fmt_x(t_full / t_inplace),
    ]);
    host.row(&["TRSV (fwd+bwd, stored D^-1)".into(), fmt_g(t_trsv), "-".into()]);
    emit("fig7a_recurrence_host", &host);

    if check {
        let speedup = t_full / t_inplace;
        if speedup >= REFACTOR_SPEEDUP_FLOOR {
            println!("fig7a --check: in-place numeric ILU core is {speedup:.2}x the full-buffer reference: ok");
        } else {
            eprintln!(
                "fig7a --check: FAIL: in-place numeric ILU core is {speedup:.2}x the full-buffer \
                 reference (floor {REFACTOR_SPEEDUP_FLOOR}x): the structure is being rebuilt, \
                 searched or reallocated per factorization again"
            );
            std::process::exit(1);
        }
        return;
    }

    // ---- modeled parallel strategies on the paper machine ----------
    let machine = MachineSpec::xeon_e5_2690v2();
    let costs = RecurrenceCosts::default();
    let threads = machine.cores * machine.smt;

    // Real schedules from the real factor patterns.
    let lvl_f = LevelSchedule::forward(&factors.l);
    let lvl_b = LevelSchedule::backward(&factors.u);
    let p2p_f = P2pSchedule::forward(&factors.l, threads);
    let p2p_b = P2pSchedule::backward(&factors.u, threads);

    let blocks_of_row_fwd: Vec<usize> = (0..factors.nrows())
        .map(|r| factors.l.row_ptr[r + 1] - factors.l.row_ptr[r] + 1)
        .collect();
    let blocks_of_row_bwd: Vec<usize> = (0..factors.nrows())
        .map(|r| factors.u.row_ptr[r + 1] - factors.u.row_ptr[r] + 1)
        .collect();
    let level_weights = |s: &LevelSchedule, blocks: &[usize]| -> Vec<Vec<usize>> {
        s.rows
            .iter()
            .map(|rows| rows.iter().map(|&r| blocks[r as usize]).collect())
            .collect()
    };
    let p2p_loads = |s: &P2pSchedule, blocks: &[usize]| -> (Vec<usize>, Vec<usize>) {
        let loads = s
            .tasks
            .iter()
            .map(|t| t.iter().map(|task| blocks[task.row as usize]).sum())
            .collect();
        let waits = s
            .tasks
            .iter()
            .map(|t| t.iter().map(|task| task.waits.len()).sum())
            .collect();
        (loads, waits)
    };
    let dag = DagStats::for_trsv(&factors.l, &factors.u);
    let critical_blocks = dag.critical_flops / 32.0;

    // TRSV: serial, level-scheduled, p2p
    let total_blocks: usize =
        blocks_of_row_fwd.iter().sum::<usize>() + blocks_of_row_bwd.iter().sum::<usize>();
    let trsv_serial = machine.seconds(total_blocks as f64 * costs.trsv_cycles_per_block);
    let trsv_level = kernels::level_sched_time(
        &machine,
        threads,
        &level_weights(&lvl_f, &blocks_of_row_fwd),
        costs.trsv_cycles_per_block,
        costs.trsv_bytes_per_block,
    ) + kernels::level_sched_time(
        &machine,
        threads,
        &level_weights(&lvl_b, &blocks_of_row_bwd),
        costs.trsv_cycles_per_block,
        costs.trsv_bytes_per_block,
    );
    let (fw_loads, fw_waits) = p2p_loads(&p2p_f, &blocks_of_row_fwd);
    let (bw_loads, bw_waits) = p2p_loads(&p2p_b, &blocks_of_row_bwd);
    let trsv_p2p = kernels::p2p_time(
        &machine,
        &fw_loads,
        &fw_waits,
        critical_blocks / 2.0,
        costs.trsv_cycles_per_block,
        costs.trsv_bytes_per_block,
    ) + kernels::p2p_time(
        &machine,
        &bw_loads,
        &bw_waits,
        critical_blocks / 2.0,
        costs.trsv_cycles_per_block,
        costs.trsv_bytes_per_block,
    );

    // ILU: same DAG as the forward sweep, heavier per-block work.
    let ilu_blocks_of_row: Vec<usize> = (0..factors.nrows())
        .map(|r| {
            let low = factors.l.row_ptr[r + 1] - factors.l.row_ptr[r];
            let updates: usize = factors.l.col_idx
                [factors.l.row_ptr[r]..factors.l.row_ptr[r + 1]]
                .iter()
                .map(|&k| factors.u.row_ptr[k as usize + 1] - factors.u.row_ptr[k as usize])
                .sum();
            low + updates + 1
        })
        .collect();
    let ilu_total: usize = ilu_blocks_of_row.iter().sum();
    let ilu_serial = machine.seconds(ilu_total as f64 * costs.ilu_cycles_per_block);
    let ilu_level = kernels::level_sched_time(
        &machine,
        threads,
        &level_weights(&lvl_f, &ilu_blocks_of_row),
        costs.ilu_cycles_per_block,
        costs.ilu_bytes_per_block,
    );
    let (ilu_loads, ilu_waits) = p2p_loads(&p2p_f, &ilu_blocks_of_row);
    let ilu_dag = DagStats::for_ilu(&pattern);
    let ilu_p2p = kernels::p2p_time(
        &machine,
        &ilu_loads,
        &ilu_waits,
        ilu_dag.critical_flops / 128.0,
        costs.ilu_cycles_per_block,
        costs.ilu_bytes_per_block,
    );

    let mut model = Table::new(
        "Fig. 7a (modeled Xeon E5-2690v2, 10c/20t): parallel strategies",
        &["kernel", "strategy", "modeled seconds", "speedup vs serial"],
    );
    model.row(&["TRSV".into(), "serial".into(), fmt_g(trsv_serial), fmt_x(1.0)]);
    model.row(&[
        "TRSV".into(),
        "level scheduling".into(),
        fmt_g(trsv_level),
        fmt_x(trsv_serial / trsv_level),
    ]);
    model.row(&[
        "TRSV".into(),
        "P2P sparsified".into(),
        fmt_g(trsv_p2p),
        fmt_x(trsv_serial / trsv_p2p),
    ]);
    model.row(&["ILU".into(), "serial".into(), fmt_g(ilu_serial), fmt_x(1.0)]);
    model.row(&[
        "ILU".into(),
        "level scheduling".into(),
        fmt_g(ilu_level),
        fmt_x(ilu_serial / ilu_level),
    ]);
    model.row(&[
        "ILU".into(),
        "P2P sparsified".into(),
        fmt_g(ilu_p2p),
        fmt_x(ilu_serial / ilu_p2p),
    ]);
    emit("fig7a_recurrence_model", &model);

    println!(
        "\nschedule stats: {} fwd levels (avg width {:.1}), P2P waits {} of {} raw cross deps ({:.0}% sparsified)",
        lvl_f.nlevels(),
        lvl_f.avg_width(),
        p2p_f.nwaits,
        p2p_f.raw_cross_deps,
        100.0 * p2p_f.sparsification_ratio()
    );
    println!("paper: ILU 9.4x, TRSV 3.2x at 10 cores / 20 threads");
}
