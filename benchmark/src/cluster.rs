//! The rank-parallel workload: ΨNKS over `fun3d-cluster`'s message passing.

use crate::check::{best_solve_s, count_failed, Checker, Solved};
use crate::host::{self, team_size};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{mesh_spec, report_rounds, secs, Args, Outcome, RTOL};
use fun3d_cluster::dapp::{self, GlobalSetup, RankApp};
use fun3d_cluster::Universe;
use fun3d_core::{FlowConditions, Fun3dApp};
use fun3d_mesh::Mesh;
use fun3d_util::telemetry::metrics;
use std::time::Instant;

pub const GLOBAL_SETUP: &str = "cluster.global_setup";
pub const RANK_SETUP: &str = "cluster.rank_setup";
pub const RANK_SOLVE: &str = "cluster.rank_solve";

/// The shared mesh, reordered, with the build and reordering times.
fn reordered() -> (Mesh, f64, f64) {
    let t0 = Instant::now();
    let mut mesh = mesh_spec().build();
    let t1 = Instant::now();
    Fun3dApp::rcm_reorder(&mut mesh);
    (mesh, secs(t1 - t0), secs(t1.elapsed()))
}

/// One set-up and solve over `ranks` ranks.
struct Rep {
    solved: Solved,
    build_s: f64,
    rcm_s: f64,
    global_setup_s: f64,
    /// The slowest rank's `RankApp::new`.
    rank_setup_s: f64,
    p2p_msgs: u64,
    p2p_bytes: u64,
    collectives: u64,
    /// Summed over ranks, counted by the program's own histograms.
    recv_wait_s: f64,
}

impl Rep {
    fn setup_s(&self) -> f64 {
        self.build_s + self.rcm_s + self.global_setup_s + self.rank_setup_s
    }
}

fn recv_wait_ns(ranks: usize) -> u64 {
    let snap = metrics::snapshot();
    (0..ranks)
        .filter_map(|r| {
            snap.hist(&format!("cluster.rank{r}.recv_ns"))
                .map(|h| h.sum_ns)
        })
        .sum()
}

fn rep(ranks: usize, log: Option<&mut Tracer>) -> Rep {
    let (mesh, build_s, rcm_s) = reordered();
    let nunknowns = mesh.nvertices() * 4;
    let t0 = Instant::now();
    let setup = GlobalSetup::new(mesh, FlowConditions::default(), ranks);
    let t1 = Instant::now();
    // Read only by the traced run; the untraced one leaves the registry alone.
    let wait0 = log.is_some().then(|| recv_wait_ns(ranks));
    let fork = log.as_deref().map(|l| l.fork(0));
    let per_rank = Universe::run(ranks, |comm| {
        let mut spans = fork.as_ref().map(|f| f.fork(2));
        let t = Instant::now();
        let mut app = RankApp::new(&setup, comm.rank());
        let ready = Instant::now();
        // All ranks start the solve together, as ranks of one job do.
        comm.barrier();
        let start = Instant::now();
        let (u, stats) = dapp::solve(&comm, &mut app, 2.0, RTOL, 80, 1);
        let end = Instant::now();
        if let Some(spans) = spans.as_mut() {
            spans.record(RANK_SETUP, t, ready);
            spans.record(RANK_SOLVE, start, end);
        }
        comm.barrier();
        let totals = (
            comm.stat_p2p_msgs(),
            comm.stat_p2p_bytes(),
            comm.stat_collectives(),
        );
        (
            app.sub.owned.clone(),
            u,
            stats,
            secs(ready - t),
            secs(end - start),
            totals,
            spans,
        )
    });
    let recv_wait_s = wait0.map_or(0.0, |w| (recv_wait_ns(ranks) - w) as f64 * 1e-9);

    let mut u = vec![0.0; nunknowns];
    let (mut rank_setup_s, mut solve_s) = (0.0f64, 0.0f64);
    let stats = per_rank[0].2.clone();
    let (p2p_msgs, p2p_bytes, collectives) = per_rank[0].5;
    let mut log = log;
    for (owned, u_rank, _, setup_s, rank_solve_s, _, spans) in per_rank {
        for (l, &g) in owned.iter().enumerate() {
            u[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&u_rank[l * 4..l * 4 + 4]);
        }
        rank_setup_s = rank_setup_s.max(setup_s);
        solve_s = solve_s.max(rank_solve_s);
        if let (Some(log), Some(spans)) = (log.as_deref_mut(), spans) {
            log.absorb(spans);
        }
    }
    if let Some(log) = log {
        log.record(GLOBAL_SETUP, t0, t1);
    }
    Rep {
        solved: Solved {
            u,
            converged: stats.converged,
            linear_iters: stats.linear_iters,
            time_steps: stats.time_steps,
            solve_s,
        },
        build_s,
        rcm_s,
        global_setup_s: secs(t1 - t0),
        rank_setup_s,
        p2p_msgs,
        p2p_bytes,
        collectives,
        recv_wait_s,
    }
}

pub fn run(args: &Args) -> Outcome {
    let ranks = team_size();
    let mut out = Outcome::default();

    let warm = rep(ranks, None);
    out.note(format!(
        "P={ranks} nproc={} unknowns={} linear_iters={} time_steps={} p2p_msgs={} p2p_bytes={} collectives={}",
        host::nproc(),
        warm.solved.u.len(),
        warm.solved.linear_iters,
        warm.solved.time_steps,
        warm.p2p_msgs,
        warm.p2p_bytes,
        warm.collectives
    ));
    drop(warm);

    let mut log = args.trace.then(|| Tracer::with_capacity(1 << 10));
    let (mut reps, mut serial) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < args.measure || reps.len() < 2 {
        if let Some(log) = log.as_mut() {
            log.set_solve(reps.len() as u32);
        }
        reps.push(rep(ranks, log.as_mut()));
        // The traced run alternates a one-rank solve of the same program,
        // the reference for parallel efficiency.
        if args.trace && ranks > 1 {
            serial.push(rep(1, None).solved);
        }
    }
    let rss = host::peak_rss_mib();

    let (mesh, _, _) = reordered();
    let mut checker = Checker::new(mesh, FlowConditions::default());
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let rounds: Vec<(f64, f64)> = reps
        .iter()
        .map(|r| (r.setup_s(), r.solved.solve_s))
        .collect();
    let (build_s, rcm_s) = (med(&|r| r.build_s), med(&|r| r.rcm_s));
    let rank_setup_s = med(&|r| r.global_setup_s + r.rank_setup_s);
    let recv_wait_s = med(&|r| r.recv_wait_s);
    let last = reps.last().expect("at least two repetitions");
    let (msgs, bytes, collectives) = (last.p2p_msgs, last.p2p_bytes, last.collectives);
    let solved: Vec<Solved> = reps.into_iter().map(|r| r.solved).collect();
    out.attempted = (solved.len() + serial.len()) as u64;
    out.failed = count_failed(&mut checker, &solved, &mut out)
        + count_failed(&mut checker, &serial, &mut out);
    let Some(log) = log else {
        report_rounds(&mut out, &rounds, rss);
        return out;
    };
    let solve_s = best_solve_s(&solved);
    out.note(format!(
        "samples={} one-rank reference={} quickest solve_s={solve_s:.4}",
        solved.len(),
        serial.len()
    ));
    let (steps, iters) = (solved[0].time_steps as f64, solved[0].linear_iters as f64);
    out.set("mesh.build_s", build_s);
    out.set("mesh.rcm_s", rcm_s);
    out.set("solver.linear_iters", iters);
    out.set("solver.time_steps", steps);
    // Counts made by `Comm`, exact and the same on every repetition.
    out.set("cluster.p2p_msgs_per_step", msgs as f64 / steps);
    out.set("cluster.p2p_bytes_per_step", bytes as f64 / steps);
    // `Comm` counts a collective once per participant.
    out.set(
        "cluster.collectives_per_iter",
        collectives as f64 / ranks as f64 / iters,
    );
    out.set(
        "cluster.recv_wait_frac",
        recv_wait_s / (ranks as f64 * solve_s),
    );
    out.set("cluster.rank_setup_s", rank_setup_s);
    if ranks > 1 {
        out.set(
            "cluster.parallel_eff",
            best_solve_s(&serial) / (ranks as f64 * solve_s),
        );
    }
    out.set("bench.traced_solve_s", solve_s);
    out.set("bench.threads", ranks as f64);
    crate::write_trace(&log, args, &mut out);
    out
}
