//! The three shared-memory solve workloads: one mesh, one tolerance, three
//! ways of using the layers.

use crate::check::{best_solve_s, count_failed, Checker, Solved};
use crate::host::{self, team_size};
use crate::stats::median;
use crate::trace::{closure_err, self_by_name, total_by_name, Tracer};
use crate::traced::{self, Traced};
use crate::workload::{mesh_spec, ptc_config, report_rounds, secs, Args, Outcome};
use fun3d_core::{counts, FlowConditions, Fun3dApp, OptConfig};
use fun3d_mesh::Mesh;
use fun3d_solver::ptc::{self, PtcStats};
use fun3d_sparse::ilu;
use fun3d_threads::{SyncCosts, ThreadPool};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Case {
    Ilu1,
    Ilu0Lag,
    Team,
}

impl Case {
    fn threads(self) -> usize {
        match self {
            Case::Team => team_size(),
            _ => 1,
        }
    }

    fn config(self) -> OptConfig {
        let mut cfg = OptConfig::optimized(self.threads());
        if self == Case::Ilu0Lag {
            cfg.ilu_fill = 0;
            cfg.ilu_lag = 4;
        }
        cfg
    }
}

/// Inputs → ready to solve, with the three parts timed apart.
struct SetUp {
    app: Fun3dApp,
    build_s: f64,
    rcm_s: f64,
    app_new_s: f64,
}

impl SetUp {
    fn total_s(&self) -> f64 {
        self.build_s + self.rcm_s + self.app_new_s
    }
}

fn set_up(cfg: OptConfig) -> SetUp {
    let t0 = Instant::now();
    let mut mesh = mesh_spec().build();
    let t1 = Instant::now();
    Fun3dApp::rcm_reorder(&mut mesh);
    let t2 = Instant::now();
    let app = Fun3dApp::new(mesh, FlowConditions::default(), cfg);
    let t3 = Instant::now();
    SetUp {
        app,
        build_s: secs(t1 - t0),
        rcm_s: secs(t2 - t1),
        app_new_s: secs(t3 - t2),
    }
}

fn solved(u: Vec<f64>, stats: &PtcStats, solve_s: f64) -> Solved {
    Solved {
        u,
        converged: stats.converged,
        linear_iters: stats.linear_iters,
        time_steps: stats.time_steps,
        solve_s,
    }
}

fn solve(app: &mut Fun3dApp) -> Solved {
    let mut u = app.initial_state();
    let t = Instant::now();
    let stats = ptc::solve(app, &mut u, &ptc_config());
    let solve_s = secs(t.elapsed());
    solved(u, &stats, solve_s)
}

pub fn run(case: Case, args: &Args) -> Outcome {
    let cfg = case.config();
    let mut out = Outcome::default();

    // One discarded repetition absorbs host detection, sync-cost
    // calibration and first-touch page faults.
    let mut warm = set_up(cfg);
    let mesh = warm.app.mesh.clone();
    let mut u = warm.app.initial_state();
    let stats = ptc::solve(&mut warm.app, &mut u, &ptc_config());
    out.note(format!(
        "T={} nproc={} vertices={} unknowns={} exec={} linear_iters={} time_steps={}",
        case.threads(),
        host::nproc(),
        mesh.nvertices(),
        u.len(),
        stats.exec,
        stats.linear_iters,
        stats.time_steps
    ));
    drop(warm);

    if args.trace {
        traced_run(case, args, cfg, mesh, &mut out);
    } else {
        untraced_run(args, cfg, mesh, &mut out);
    }
    out
}

fn untraced_run(args: &Args, cfg: OptConfig, mesh: Mesh, out: &mut Outcome) {
    let (mut setups, mut reps) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < args.measure || reps.len() < 2 {
        let mut ready = set_up(cfg);
        setups.push(ready.total_s());
        reps.push(solve(&mut ready.app));
    }
    // Read before the checker allocates, so that the figure is the
    // workload's memory and not the reference application's.
    let rss = host::peak_rss_mib();

    let mut checker = Checker::new(mesh, FlowConditions::default());
    out.attempted = reps.len() as u64;
    out.failed = count_failed(&mut checker, &reps, out);

    let rounds: Vec<(f64, f64)> = setups
        .into_iter()
        .zip(reps.iter().map(|r| r.solve_s))
        .collect();
    report_rounds(out, &rounds, rss);
}

/// Per-solve layer totals read off one [`traced::SOLVE`] span.
struct SolveLayers {
    solve_s: f64,
    residual_s: f64,
    residual_calls: u64,
    precond_build_s: f64,
    precond_calls: u64,
    trsv_s: f64,
    trsv_calls: u64,
    self_s: f64,
    closure: f64,
}

fn layers_of(log: &Tracer, root: usize) -> SolveLayers {
    let spans = log.spans();
    let total = |name| {
        let (ns, calls) = total_by_name(spans, root, name);
        (ns as f64 * 1e-9, calls)
    };
    let (residual_s, residual_calls) = total(traced::RESIDUAL);
    let (precond_build_s, precond_calls) = total(traced::PRECOND_BUILD);
    let (trsv_s, trsv_calls) = total(traced::TRSV);
    let self_ns = self_by_name(spans, root)
        .iter()
        .find(|(name, _)| *name == traced::SOLVE)
        .map_or(0, |&(_, ns)| ns);
    SolveLayers {
        solve_s: spans[root].dur_ns() as f64 * 1e-9,
        residual_s,
        residual_calls,
        precond_build_s,
        precond_calls,
        trsv_s,
        trsv_calls,
        self_s: self_ns as f64 * 1e-9,
        closure: closure_err(spans, root),
    }
}

fn traced_run(case: Case, args: &Args, cfg: OptConfig, mesh: Mesh, out: &mut Outcome) {
    let threads = case.threads();
    let mut log = Tracer::with_capacity(1 << 16);
    let (mut builds, mut rcms, mut app_news) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_reps, mut plain_reps, mut serial_reps) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = Vec::new();
    let mut last_app = None;

    // Traced, untraced and (for a team) single-threaded reference solves
    // alternate, so that drift of the host falls on all three alike.
    let start = Instant::now();
    while start.elapsed() < args.measure || traced_reps.is_empty() {
        log.set_solve(traced_reps.len() as u32);
        let ready = set_up(cfg);
        builds.push(ready.build_s);
        rcms.push(ready.rcm_s);
        app_news.push(ready.app_new_s);
        let mut decorated = Traced::new(ready.app, log);
        let t = Instant::now();
        let (u, stats) = decorated.solve(&ptc_config());
        let solve_s = secs(t.elapsed());
        let (app, returned) = decorated.into_parts();
        log = returned;
        let root = log
            .spans()
            .iter()
            .rposition(|s| s.name == traced::SOLVE)
            .expect("solve span");
        layers.push(layers_of(&log, root));
        traced_reps.push(solved(u, &stats, solve_s));
        last_app = Some(app);

        plain_reps.push(solve(&mut set_up(cfg).app));
        if threads > 1 {
            serial_reps.push(solve(&mut set_up(OptConfig::optimized(1)).app));
        }
    }

    let app = last_app.expect("at least one traced repetition");
    let mut checker = Checker::new(mesh, FlowConditions::default());
    out.attempted = (traced_reps.len() + plain_reps.len() + serial_reps.len()) as u64;
    // A traced solve must be the untraced one bit for bit, so the two share
    // one list and with it the equal-iteration-counts check.
    traced_reps.append(&mut plain_reps);
    out.failed = count_failed(&mut checker, &traced_reps, out)
        + count_failed(&mut checker, &serial_reps, out);
    let n_traced = layers.len();
    let med = |f: &dyn Fn(&SolveLayers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let traced_solve_s = best_solve_s(&traced_reps[..n_traced]);
    let plain_solve_s = best_solve_s(&traced_reps[n_traced..]);
    let stats = &traced_reps[0];

    // The factorization inside `build_preconditioner` cannot be timed from
    // outside, so one is replayed on the matrix the last build left behind.
    let (mut replay, mut factors) = (Vec::new(), None);
    for _ in 0..3 {
        let t = Instant::now();
        factors = Some(ilu::factor(
            app.jacobian_matrix(),
            app.ilu_pattern(),
            ilu::TempBuffer::Compressed,
        ));
        replay.push(secs(t.elapsed()));
    }
    let factors = factors.expect("three replays");
    let precond_calls = med(&|l| l.precond_calls as f64);
    // A lagged preconditioner refactors on every `ilu_lag`-th call.
    let rebuilds = (precond_calls / cfg.ilu_lag as f64).ceil();
    let ilu_factor_s = median(&replay) * rebuilds;

    // Bytes are computed from the kernels' traffic models, not measured.
    let nedges = app.mesh.edges().len();
    let residual_bytes = (counts::flux(nedges).bytes()
        + counts::gradient(nedges, app.mesh.nvertices()).bytes()) as f64;
    let residual_gbps =
        residual_bytes * med(&|l| l.residual_calls as f64) / med(&|l| l.residual_s) / 1e9;
    let trsv_gbps =
        factors.sweep_bytes() as f64 * med(&|l| l.trsv_calls as f64) / med(&|l| l.trsv_s) / 1e9;

    out.note(format!(
        "samples: traced={n_traced} untraced={} serial-reference={}",
        traced_reps.len() - n_traced,
        serial_reps.len()
    ));
    out.set("mesh.build_s", median(&builds));
    out.set("mesh.rcm_s", median(&rcms));
    out.set("core.app_new_s", median(&app_news));
    out.set("core.residual_s", med(&|l| l.residual_s));
    out.set("core.residual_calls", med(&|l| l.residual_calls as f64));
    out.set("core.residual_gbps", residual_gbps);
    out.set(
        "core.jacobian_s",
        (med(&|l| l.precond_build_s) - ilu_factor_s).max(0.0),
    );
    out.set("sparse.ilu_factor_s", ilu_factor_s);
    out.set(
        "sparse.factor_mib",
        factors.sweep_bytes() as f64 / 1048576.0,
    );
    out.set("sparse.trsv_s", med(&|l| l.trsv_s));
    out.set("sparse.trsv_calls", med(&|l| l.trsv_calls as f64));
    out.set("sparse.trsv_gbps", trsv_gbps);
    out.set("solver.self_s", med(&|l| l.self_s));
    out.set(
        "solver.self_us_per_iter",
        med(&|l| l.self_s) * 1e6 / stats.linear_iters as f64,
    );
    out.set("solver.linear_iters", stats.linear_iters as f64);
    out.set("solver.time_steps", stats.time_steps as f64);
    if threads > 1 {
        let sync = SyncCosts::measure(&ThreadPool::new(threads));
        let plan = app
            .plan()
            .expect("a threaded application has an owner-writes plan");
        out.set("threads.region_launch_us", sync.region_launch_s * 1e6);
        out.set("threads.barrier_us", sync.barrier_phase_s * 1e6);
        out.set(
            "threads.parallel_eff",
            best_solve_s(&serial_reps) / (threads as f64 * plain_solve_s),
        );
        out.set("partition.edge_replication", plan.replication_overhead());
        out.set("partition.work_imbalance", plan.work_imbalance());
    }
    out.set("bench.traced_solve_s", med(&|l| l.solve_s));
    out.set(
        "bench.trace_overhead_frac",
        traced_solve_s / plain_solve_s - 1.0,
    );
    out.set(
        "bench.span_closure_err",
        layers.iter().map(|l| l.closure).fold(0.0, f64::max),
    );
    out.set("bench.threads", threads as f64);
    crate::write_trace(&log, args, out);
}
