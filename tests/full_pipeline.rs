//! End-to-end integration: mesh generation → reordering → solver →
//! profile, across optimization configurations.

use fun3d_core::{Fun3dApp, FlowConditions, OptConfig};
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::ptc::PtcConfig;
use fun3d_util::telemetry;
use std::time::Instant;

fn ptc() -> PtcConfig {
    PtcConfig {
        dt0: 2.0,
        rtol: 1e-7,
        max_steps: 80,
        ..Default::default()
    }
}

fn solve(cfg: OptConfig) -> (Vec<f64>, fun3d_solver::ptc::PtcStats) {
    let mut mesh = MeshPreset::Tiny.build();
    Fun3dApp::rcm_reorder(&mut mesh);
    let mut app = Fun3dApp::new(mesh, FlowConditions::default(), cfg);
    app.run(&ptc())
}

fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
    let den: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

#[test]
fn every_configuration_converges_to_the_same_flow() {
    let (base, sb) = solve(OptConfig::baseline());
    assert!(sb.converged);

    let mut configs: Vec<(&str, OptConfig)> = vec![
        ("optimized-2t", OptConfig::optimized(2)),
        ("optimized-4t", OptConfig::optimized(4)),
    ];
    let mut serial_simd = OptConfig::baseline();
    serial_simd.use_simd = true;
    configs.push(("serial+simd", serial_simd));

    for (name, cfg) in configs {
        let (u, stats) = solve(cfg);
        assert!(stats.converged, "{name} did not converge");
        let d = rel_diff(&base, &u);
        assert!(d < 1e-4, "{name}: solution differs from baseline by {d}");
    }
}

#[test]
fn profile_covers_all_paper_kernels() {
    let mut mesh = MeshPreset::Tiny.build();
    Fun3dApp::rcm_reorder(&mut mesh);
    let mut app = Fun3dApp::new(mesh, FlowConditions::default(), OptConfig::baseline());
    // A serial app records every kernel on this thread, so the delta of
    // this thread's counters is this solve's profile.
    telemetry::set_level(telemetry::Level::Counters);
    let before = telemetry::local_counters();
    let t = Instant::now();
    let (_, stats) = app.run(&ptc());
    let total = t.elapsed().as_secs_f64();
    let kernels = telemetry::local_counters().since(&before);
    assert!(stats.converged);
    // `ilu` is the preconditioner build: the factorization computes each
    // Jacobian row when it reaches it, so there is no separate assembly.
    for kernel in ["flux", "gradient", "ilu", "trsv"] {
        assert!(kernels.seconds(kernel) > 0.0, "kernel {kernel} unrecorded");
    }
    assert!(kernels.get("jacobian").is_none(), "the Jacobian is assembled on its own");
    // the tracked kernels should dominate, as in the paper's Fig. 5
    let tracked: f64 = ["flux", "gradient", "ilu", "trsv"]
        .iter()
        .map(|k| kernels.seconds(k))
        .sum();
    let frac = tracked / total;
    assert!(
        frac > 0.5,
        "kernels should dominate the profile, got {frac:.2}"
    );
}

#[test]
fn a_team_solve_records_its_p2p_waits_on_each_thread() {
    // Every P2P sweep is one call of its wait counter on the sweeping
    // thread's own recorder: a forward and a backward TRSV sweep per
    // preconditioner application, one ILU sweep per factorization. A
    // T = 1 solve runs no sweep and records none.
    use fun3d_threads::ThreadPool;
    use fun3d_util::telemetry::CounterMap;
    use std::sync::{Arc, Mutex};
    const WAITS: [&str; 3] = ["trsv.p2p_wait.fwd", "trsv.p2p_wait.bwd", "ilu.p2p_wait"];
    telemetry::set_level(telemetry::Level::Counters);
    let calls = |k: &CounterMap, name: &str| k.get(name).map_or(0, |c| c.calls);
    let app = |nt: usize, pool: Option<Arc<ThreadPool>>| {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let cfg = OptConfig::optimized(nt);
        Fun3dApp::with_pool(mesh, FlowConditions::default(), cfg, pool)
    };
    let before = telemetry::local_counters();
    let (_, stats) = app(1, None).run(&ptc());
    let serial = telemetry::local_counters().since(&before);
    assert!(stats.converged);
    for name in WAITS {
        assert_eq!(calls(&serial, name), 0, "a T = 1 solve recorded {name}");
    }

    // Each thread's counters, read on that thread: thread 0 is this one,
    // thread 1 the pool's worker.
    let pool = Arc::new(ThreadPool::new(2));
    let per_thread = || {
        let out = [(); 2].map(|_| Mutex::new(CounterMap::new()));
        pool.run(|tid| *out[tid].lock().unwrap() = telemetry::local_counters());
        out.map(|m| m.into_inner().unwrap())
    };
    let mut team = app(2, Some(Arc::clone(&pool)));
    let before = per_thread();
    let (_, stats) = team.run(&ptc());
    let after = per_thread();
    assert!(stats.converged);
    let delta = |tid: usize| after[tid].since(&before[tid]);
    // This thread's `trsv` and `ilu` calls count the preconditioner
    // applications and the factorizations.
    let (applies, builds) = (calls(&delta(0), "trsv"), calls(&delta(0), "ilu"));
    assert!(applies > 0 && builds > 0);
    for tid in 0..2 {
        let sweeps: Vec<u64> = WAITS.iter().map(|name| calls(&delta(tid), name)).collect();
        assert_eq!(sweeps, [applies, applies, builds], "thread {tid}");
    }
}

#[test]
fn solver_is_deterministic_serially() {
    let (a, sa) = solve(OptConfig::baseline());
    let (b, sb) = solve(OptConfig::baseline());
    assert_eq!(a, b, "two serial runs must agree bitwise");
    assert_eq!(sa.linear_iters, sb.linear_iters);
}

#[test]
fn residual_history_is_publishable() {
    let (_, stats) = solve(OptConfig::baseline());
    let h = &stats.res_history;
    assert_eq!(h.len(), stats.time_steps + 1);
    assert!(h.last().unwrap() / h.first().unwrap() < 1e-6);
}

#[test]
fn ilu0_vs_ilu1_tradeoff_runs() {
    let mut c0 = OptConfig::baseline();
    c0.ilu_fill = 0;
    let (_, s0) = solve(c0);
    let mut c1 = OptConfig::baseline();
    c1.ilu_fill = 1;
    let (_, s1) = solve(c1);
    assert!(s0.converged && s1.converged);
}

#[test]
fn single_precision_factor_iteration_counts_are_pinned() {
    // The factors are stored in `f32` (arithmetic stays `f64`), and each
    // step's Krylov tolerance is the Eisenstat–Walker forcing term. The
    // counts on the right are what those solves took when the forcing
    // term came in (Tiny mesh, `rtol = 1e-8`, `dt0 = 2`); a change to the
    // factor storage or the forcing term must keep the time steps exactly
    // and the linear iterations within ±10 %.
    for (fill, want_steps, want_iters) in [(0usize, 5usize, 80usize), (1, 5, 69)] {
        let mut cfg = OptConfig::baseline();
        cfg.ilu_fill = fill;
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let mut app = Fun3dApp::new(mesh, FlowConditions::default(), cfg);
        let (_, stats) = app.run(&PtcConfig {
            rtol: 1e-8,
            ..ptc()
        });
        assert!(stats.converged, "ILU({fill}) did not converge");
        println!("ILU({fill}): {} steps, {} linear iterations", stats.time_steps, stats.linear_iters);
        assert_eq!(stats.time_steps, want_steps, "ILU({fill}) time steps");
        let (lo, hi) = (want_iters * 9 / 10, want_iters * 11 / 10);
        assert!(
            (lo..=hi).contains(&stats.linear_iters),
            "ILU({fill}): {} linear iterations, {want_iters} pinned",
            stats.linear_iters
        );
    }
}

/// FNV-1a over the bit patterns of a state vector.
fn fnv1a(u: &[f64]) -> u64 {
    u.iter().fold(fun3d_util::fnv1a(&[]), |h, x| fun3d_util::fnv1a_word(h, x.to_bits()))
}

#[test]
fn residual_path_bits_are_pinned() {
    // The residual's layout and loop shapes changed (gradient rows stored
    // dim-major, Green-Gauss as a vertex gather, indices validated once)
    // without changing what is computed: the Tiny solve through the
    // streaming kernels (T = 1) and through the owner-writes flux with the
    // pooled gradient (T = 2) reproduced, bit for bit, the residual
    // history and the final state of the commit before that change. The
    // values are retaken under the Eisenstat–Walker forcing term, which
    // moves every history. The Krylov solve is serial in all three, and
    // at T = 2 the ILU refactorization and triangular solves run the P2P
    // schedules, bitwise the serial sweeps the pins were taken with: only
    // the residual path distinguishes the rows. They refactor every step
    // (`ilu_lag = 1`), which is the path the pins were taken on; the last
    // row is the stream solve at the default age cap, where the first
    // factors serve the whole solve.
    use fun3d_solver::{ExecMode, FluxScheme, FACTOR_AGE_CAP};
    let stream_history: [u64; 6] = [
        0x3fa30c90b5b7566e, 0x3f800d8b0a77ee06, 0x3f4cc5c236fcdf5a,
        0x3ef36cb877eaadf2, 0x3e492a35ccb919da, 0x3e169644e7caeac6,
    ];
    let owner_history: [u64; 6] = [
        0x3fa30c90b5b7566e, 0x3f800d8b0a77ee06, 0x3f4cc5c236f0adcd,
        0x3ef36cb88ced584d, 0x3e492a34dfa49122, 0x3e16963c55cd8ecf,
    ];
    let reused_history: [u64; 6] = [
        0x3fa30c90b5b7566e, 0x3f800d8b0a77ee06, 0x3f4b6dc98494c437,
        0x3eecb39551227fbd, 0x3e37e334b02c59ad, 0x3e0515db25b2cc2c,
    ];
    let every_step = (1, 5, 62);
    let rows: [(&str, usize, FluxScheme, (usize, usize, usize), u64, &[u64]); 4] = [
        ("stream, T=1", 1, FluxScheme::Stream, every_step, 0x4b672a2795d5434a, &stream_history),
        ("owner, T=2", 2, FluxScheme::Stream, every_step, 0x02d9a159fc5caecd, &owner_history),
        // Forced tiling is the one place bits may legitimately move: the
        // flux still accumulates in tile order, the gradient now in edge
        // order (it has no tiled form). On Tiny the host's half-L2 budget
        // makes one tile, whose order is the edge order, so the tiled
        // solve was the stream solve before the change and still is; the
        // pin is its value now.
        ("tiled, T=1", 1, FluxScheme::Tiled, every_step, 0x4b672a2795d5434a, &stream_history),
        ("stream, T=1, default cap", 1, FluxScheme::Stream, (FACTOR_AGE_CAP, 5, 69),
            0x0a03526083d83390, &reused_history),
    ];
    let mut states = Vec::new();
    telemetry::set_level(telemetry::Level::Counters);
    for (name, nt, flux, (lag, steps, iters), state, history) in rows {
        let mut cfg = OptConfig::optimized(nt);
        cfg.exec = ExecMode::Serial;
        cfg.flux = flux;
        cfg.ilu_lag = lag;
        let before = telemetry::local_counters();
        let (u, stats) = solve(cfg);
        // The T = 2 solve records its P2P waits as kernel counters on each
        // sweeping thread, this one (thread 0) included: per sweep
        // direction for the applications, and for the refactorization.
        let kernels = telemetry::local_counters().since(&before);
        for wait in ["trsv.p2p_wait.fwd", "trsv.p2p_wait.bwd", "ilu.p2p_wait"] {
            let calls = kernels.get(wait).map_or(0, |c| c.calls);
            assert_eq!(calls > 0, nt == 2, "{name}: {wait} recorded {calls} calls");
        }
        assert!(stats.converged, "{name}");
        assert_eq!((stats.time_steps, stats.linear_iters), (steps, iters), "{name}");
        let got: Vec<u64> = stats.res_history.iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, history, "{name}: residual history moved");
        assert_eq!(fnv1a(&u), state, "{name}: final state moved");
        states.push(u);
    }
    // And the tiled solve agrees with the stream solve to the tolerance
    // `tiled_residual_path_converges_and_matches` uses, whatever the tiles.
    assert!(rel_diff(&states[0], &states[2]) < 1e-3);
}
