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
//! reads apart from the arithmetic; and the serial preconditioner
//! application on three storage formats — row-major `f64` blocks (the
//! solver's own until the factors moved to single precision; a reference
//! kept in [`fun3d_bench::trsv_reference`]), the same values column-major,
//! and the production column-major `f32` — so that layout and precision
//! read apart. When the host has at least two cores
//! a second *measured* table sets the P2P sweeps and the team
//! refactorization at T = min(nproc, 4) beside their serial forms. Modeled
//! rows charge the paper machine with the *real* schedules built from the
//! real factor patterns (level widths, P2P loads and wait counts, and the
//! P2P schedule's own makespan as its critical path).
//!
//! `--check` (the guard `scripts/verify.sh` runs) measures and exits
//! non-zero when
//! * the in-place numeric core is not at least 2× the full-buffer
//!   reference (symbolic-once has turned back into symbolic-every-time);
//! * the two-thread P2P schedule allows less than 1.5× on either sweep —
//!   a property of the schedule, whatever the host — or the contiguous row
//!   assignment `fun3d_sparse::p2p` once built is *not* caught by that
//!   same test (the negative canary);
//! * on a host with at least two cores, the P2P application at T = 2 is
//!   slower than the serial one (best of the rounds each, a round being a
//!   burst of back-to-back applications);
//! * the production serial application is not at least 1.25× the
//!   row-major `f64` reference (the factors are no longer stored the way
//!   the sweeps load them, or no longer in single precision).

use fun3d_bench::kernels::{self, RecurrenceCosts};
use fun3d_bench::model::{p2p_sweep_time, RecurrenceBlocks};
use fun3d_bench::report::{fmt_g, Table};
use fun3d_bench::trsv_reference::{F64Factors, Layout};
use fun3d_bench::{best_of, emit, fmt_x, jacobian_fixture, KernelFixture};
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;
use fun3d_sparse::ilu::{self, IluSymbolic};
use fun3d_sparse::{
    solve_p2p_into, trsv_solve, trsv_solve_into, Bcsr4, IluFactors, LevelSchedule, P2pSchedule,
    Pattern, TempBuffer,
};
use fun3d_threads::{available_cores, ThreadPool};

/// `--check` floor for the in-place numeric core over the full-buffer
/// reference. The parent's compressed factorization sat at ≈ 1× (it
/// rebuilt the structure per call too); the core measures 4× on Small.
const REFACTOR_SPEEDUP_FLOOR: f64 = 2.0;

/// `--check` floor for `total work / makespan` of the two-thread
/// schedules. Level-interleaved ownership measures 1.9–2.0 on Small; the
/// contiguous chunks it replaced, 1.00 at every thread count.
const SCHEDULE_BOUND_FLOOR: f64 = 1.5;

/// `--check` floor for the production serial application over the
/// row-major `f64` reference: 1.8–2.0× measured on Small (1.3× of it
/// layout), 2.3–2.4× on Medium.
const STORAGE_SPEEDUP_FLOOR: f64 = 1.25;

/// The `--check` schedule test: both sweeps' bounds against the floor.
fn bounds_clear_floor(sweeps: [(&P2pSchedule, &[usize]); 2]) -> Result<[f64; 2], [f64; 2]> {
    let bounds = sweeps.map(|(sched, blocks)| sched.speedup_bound(blocks));
    if bounds.iter().all(|&b| b >= SCHEDULE_BOUND_FLOOR) {
        Ok(bounds)
    } else {
        Err(bounds)
    }
}

/// The row assignment `fun3d_sparse::p2p` built before levels decided
/// ownership: the sweep order cut into `nthreads` contiguous chunks of
/// near-equal block count. Kept here as the canary of `--check`.
fn contiguous_programs(
    order: impl Iterator<Item = u32>,
    blocks: &[usize],
    nthreads: usize,
) -> Vec<Vec<u32>> {
    let total: usize = blocks.iter().sum();
    let mut programs = vec![Vec::new(); nthreads];
    let mut dealt = 0usize;
    for r in order {
        programs[(dealt * nthreads / total).min(nthreads - 1)].push(r);
        dealt += blocks[r as usize];
    }
    programs
}

/// Applications per timed sample of [`measure_team`]. Inside GMRES the
/// sweeps come back to back; a lone sample after the serial variants'
/// milliseconds would time how deep the idle pool had dozed off instead.
const BURST: usize = 8;

/// One timed sample: [`BURST`] back-to-back calls.
fn burst<'a>(mut call: impl FnMut() + 'a) -> Box<dyn FnMut() + 'a> {
    Box::new(move || (0..BURST).for_each(|_| call()))
}

/// Seconds of (serial TRSV, P2P TRSV, serial refactorization, team
/// refactorization) at `nt` threads: best of `reps` rounds, each sample a
/// burst of [`BURST`] calls.
fn measure_team(
    reps: usize,
    sym: &IluSymbolic,
    jac: &Bcsr4,
    factors: &IluFactors,
    b: &[f64],
    nt: usize,
) -> [f64; 4] {
    let pool = ThreadPool::new(nt);
    let fwd = P2pSchedule::forward(sym.l_pattern(), nt);
    let bwd = P2pSchedule::backward(sym.u_pattern(), nt);
    let (fp, bp, ip) = (fwd.progress(), bwd.progress(), fwd.progress());
    let (mut y, mut x) = (vec![0.0; b.len()], vec![0.0; b.len()]);
    let (mut ys, mut xs) = (y.clone(), x.clone());
    let (mut serial_f, mut team_f) = (factors.clone(), factors.clone());
    let times = best_of(
        reps,
        [
            burst(|| trsv_solve_into(factors, b, &mut ys, &mut xs)),
            burst(|| solve_p2p_into(factors, b, &pool, (&fwd, &fp), (&bwd, &bp), &mut y, &mut x)),
            burst(|| sym.refactor(jac, &mut serial_f)),
            burst(|| sym.refactor_team(jac, &mut team_f, &pool, &fwd, &ip)),
        ],
    )
    .map(|t| t / BURST as f64);
    assert_eq!(x, xs, "P2P application differs from the serial one");
    assert_eq!(
        team_f.dinv, serial_f.dinv,
        "team refactorization differs from the serial one"
    );
    times
}

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
    let mut reused = factors.clone();
    let best = best_of(
        cli.reps,
        [
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
            Box::new(|| drop(std::hint::black_box(trsv_solve(&factors, &b)))),
        ],
    );
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
    host.row(&[
        "TRSV (fwd+bwd, stored D^-1)".into(),
        fmt_g(t_trsv),
        "-".into(),
    ]);
    emit("fig7a_recurrence_host", &host);

    // ---- the serial application on three storage formats --------------
    let row_major = F64Factors::of(&factors, Layout::RowMajor);
    let column_major = F64Factors::of(&factors, Layout::ColumnMajor);
    let (mut y, mut x) = (vec![0.0; n], vec![0.0; n]);
    let (mut y_rm, mut x_rm, mut y_cm, mut x_cm) = (y.clone(), x.clone(), y.clone(), x.clone());
    let formats = best_of(
        cli.reps,
        [
            burst(|| row_major.solve_into(&b, &mut y_rm, &mut x_rm)),
            burst(|| column_major.solve_into(&b, &mut y_cm, &mut x_cm)),
            burst(|| trsv_solve_into(&factors, &b, &mut y, &mut x)),
        ],
    )
    .map(|t| t / BURST as f64);
    assert!(x == x_rm && x == x_cm, "a reference format solves to other bits");
    let nblocks = (factors.l.nblocks() + factors.u.nblocks()) as f64;
    let mut storage = Table::new(
        "Fig. 7a (host-measured, serial): one application, three factor storage formats",
        &["blocks stored as", "B/block", "seconds", "ns/block", "GB/s", "speedup"],
    );
    let rows = [
        ("row-major f64 (reference)", 16 * 8 + 4, row_major.sweep_bytes()),
        ("column-major f64 (reference)", 16 * 8 + 4, column_major.sweep_bytes()),
        ("column-major f32 (production)", IluFactors::SWEEP_BYTES_PER_BLOCK, factors.sweep_bytes()),
    ];
    for ((name, per_block, bytes), t) in rows.into_iter().zip(formats) {
        storage.row(&[
            name.into(),
            per_block.to_string(),
            fmt_g(t),
            format!("{:.2}", t * 1e9 / nblocks),
            format!("{:.1}", bytes as f64 / t / 1e9),
            fmt_x(formats[0] / t),
        ]);
    }
    emit("fig7a_recurrence_storage", &storage);

    // ---- host-measured team recurrences ------------------------------
    let cores = available_cores();
    let team = cores.min(4);
    let team_times = (cores >= 2).then(|| measure_team(cli.reps, &sym, &jac, &factors, &b, team));
    if let Some([t_serial, t_p2p, t_refactor, t_refactor_team]) = team_times {
        let mut measured = Table::new(
            &format!(
                "Fig. 7a (measured on this host, {cores} cores): team recurrences at T = {team}"
            ),
            &["kernel", "strategy", "seconds", "speedup vs serial"],
        );
        let mut row = |kernel: &str, strategy: &str, t: f64, serial: f64| {
            measured.row(&[kernel.into(), strategy.into(), fmt_g(t), fmt_x(serial / t)]);
        };
        row("TRSV", "serial", t_serial, t_serial);
        row("TRSV", "P2P, level-interleaved", t_p2p, t_serial);
        row("ILU refactor", "serial", t_refactor, t_refactor);
        row(
            "ILU refactor",
            "team, forward P2P schedule",
            t_refactor_team,
            t_refactor,
        );
        emit("fig7a_recurrence_measured", &measured);
    } else {
        println!("(one core: the measured team rows are not printed)");
    }

    let blocks = RecurrenceBlocks::of(&factors);
    let (l, u): (Pattern, Pattern) = ((&factors.l).into(), (&factors.u).into());

    if check {
        let mut failures = Vec::new();
        let speedup = t_full / t_inplace;
        if speedup >= REFACTOR_SPEEDUP_FLOOR {
            println!("fig7a --check: in-place numeric ILU core is {speedup:.2}x the full-buffer reference: ok");
        } else {
            failures.push(format!(
                "in-place numeric ILU core is {speedup:.2}x the full-buffer reference (floor \
                 {REFACTOR_SPEEDUP_FLOOR}x): the structure is being rebuilt, searched or \
                 reallocated per factorization again"
            ));
        }

        let (fwd, bwd) = (P2pSchedule::forward(l, 2), P2pSchedule::backward(u, 2));
        match bounds_clear_floor([(&fwd, &blocks.fwd), (&bwd, &blocks.bwd)]) {
            Ok([f, b]) => {
                println!("fig7a --check: two-thread schedule bound {f:.2} fwd / {b:.2} bwd: ok")
            }
            Err([f, b]) => failures.push(format!(
                "two-thread schedule bound {f:.2} fwd / {b:.2} bwd is below \
                 {SCHEDULE_BOUND_FLOOR}: the threads run one after another"
            )),
        }
        let n = factors.nrows() as u32;
        let chunked = [
            P2pSchedule::from_programs(l, &contiguous_programs(0..n, &blocks.fwd, 2)),
            P2pSchedule::from_programs(u, &contiguous_programs((0..n).rev(), &blocks.bwd, 2)),
        ];
        match bounds_clear_floor([(&chunked[0], &blocks.fwd), (&chunked[1], &blocks.bwd)]) {
            Err([f, b]) => println!(
                "fig7a --check: contiguous-chunk canary caught (bound {f:.2} fwd / {b:.2} bwd): ok"
            ),
            Ok(_) => {
                failures.push("the contiguous-chunk canary passed the schedule-bound test".into())
            }
        }

        let storage_speedup = formats[0] / formats[2];
        if storage_speedup >= STORAGE_SPEEDUP_FLOOR {
            println!("fig7a --check: production TRSV is {storage_speedup:.2}x the row-major f64 reference: ok");
        } else {
            failures.push(format!(
                "production TRSV is {storage_speedup:.2}x the row-major f64 reference (floor \
                 {STORAGE_SPEEDUP_FLOOR}x): the factors are not stored the way the sweeps load them"
            ));
        }

        // The table above is the T = 2 measurement unless the host has
        // more cores than that.
        let at_two = team_times.map(|times| match team {
            2 => times,
            _ => measure_team(cli.reps, &sym, &jac, &factors, &b, 2),
        });
        if let Some([t_serial, t_p2p, ..]) = at_two {
            if t_p2p <= t_serial {
                println!(
                    "fig7a --check: P2P TRSV at T=2 is {:.2}x the serial sweep: ok",
                    t_serial / t_p2p
                );
            } else {
                failures.push(format!(
                    "P2P TRSV at T=2 takes {} s, the serial sweep {} s: two threads lose to one",
                    fmt_g(t_p2p),
                    fmt_g(t_serial)
                ));
            }
        } else {
            println!("fig7a --check: one core, measured T=2 gate skipped");
        }

        for failure in &failures {
            eprintln!("fig7a --check: FAIL: {failure}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        return;
    }

    // ---- modeled parallel strategies on the paper machine ----------
    let machine = MachineSpec::xeon_e5_2690v2();
    let costs = RecurrenceCosts::for_block_bytes(fun3d_sparse::FACTOR_BLOCK_BYTES);
    let threads = machine.cores * machine.smt;

    // Real schedules from the real factor patterns.
    let lvl_f = LevelSchedule::forward(l);
    let lvl_b = LevelSchedule::backward(u);
    let p2p_f = P2pSchedule::forward(l, threads);
    let p2p_b = P2pSchedule::backward(u, threads);
    let level_weights = |s: &LevelSchedule, blocks: &[usize]| -> Vec<Vec<usize>> {
        s.rows
            .iter()
            .map(|rows| rows.iter().map(|&r| blocks[r as usize]).collect())
            .collect()
    };

    // TRSV: serial, level-scheduled, p2p
    let total_blocks: usize = blocks.fwd.iter().sum::<usize>() + blocks.bwd.iter().sum::<usize>();
    let trsv_serial = machine.seconds(total_blocks as f64 * costs.trsv_cycles_per_block);
    let trsv_levels = |s: &LevelSchedule, blocks: &[usize]| {
        kernels::level_sched_time(
            &machine,
            threads,
            &level_weights(s, blocks),
            costs.trsv_cycles_per_block,
            costs.trsv_bytes_per_block,
        )
    };
    let trsv_level = trsv_levels(&lvl_f, &blocks.fwd) + trsv_levels(&lvl_b, &blocks.bwd);
    let trsv_sweep = |s: &P2pSchedule, blocks: &[usize]| {
        p2p_sweep_time(
            &machine,
            s,
            blocks,
            costs.trsv_cycles_per_block,
            costs.trsv_bytes_per_block,
        )
    };
    let trsv_p2p = trsv_sweep(&p2p_f, &blocks.fwd) + trsv_sweep(&p2p_b, &blocks.bwd);

    // ILU: same DAG as the forward sweep, heavier per-block work.
    let ilu_total: usize = blocks.ilu.iter().sum();
    let ilu_serial = machine.seconds(ilu_total as f64 * costs.ilu_cycles_per_block);
    let ilu_level = kernels::level_sched_time(
        &machine,
        threads,
        &level_weights(&lvl_f, &blocks.ilu),
        costs.ilu_cycles_per_block,
        costs.ilu_bytes_per_block,
    );
    let ilu_p2p = p2p_sweep_time(
        &machine,
        &p2p_f,
        &blocks.ilu,
        costs.ilu_cycles_per_block,
        costs.ilu_bytes_per_block,
    );

    let mut model = Table::new(
        "Fig. 7a (modeled Xeon E5-2690v2, 10c/20t): parallel strategies",
        &["kernel", "strategy", "modeled seconds", "speedup vs serial"],
    );
    model.row(&[
        "TRSV".into(),
        "serial".into(),
        fmt_g(trsv_serial),
        fmt_x(1.0),
    ]);
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
        "\nschedule stats: {} fwd / {} bwd levels (avg width {:.1} / {:.1})",
        lvl_f.nlevels(),
        lvl_b.nlevels(),
        lvl_f.avg_width(),
        lvl_b.avg_width(),
    );
    for nt in [2usize, 4, 20] {
        let (f, b) = (P2pSchedule::forward(l, nt), P2pSchedule::backward(u, nt));
        println!(
            "  nt={nt:<2} bound {:.2} fwd / {:.2} bwd; waits {} of {} raw cross deps fwd, {} of {} bwd",
            f.speedup_bound(&blocks.fwd),
            b.speedup_bound(&blocks.bwd),
            f.nwaits(),
            f.raw_cross_deps,
            b.nwaits(),
            b.raw_cross_deps,
        );
    }
    println!("paper: ILU 9.4x, TRSV 3.2x at 10 cores / 20 threads");
}
