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
    for kernel in ["flux", "gradient", "jacobian", "ilu", "trsv"] {
        assert!(kernels.seconds(kernel) > 0.0, "kernel {kernel} unrecorded");
    }
    // the tracked kernels should dominate, as in the paper's Fig. 5
    let tracked: f64 = ["flux", "gradient", "jacobian", "ilu", "trsv"]
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
    // the residual path distinguishes the rows.
    use fun3d_solver::{ExecMode, FluxScheme};
    let stream_history: [u64; 6] = [
        0x3fa30c90b5b7566e, 0x3f800d8b0a77ee06, 0x3f4cc5c236fcdf5a,
        0x3ef36cb877eaadf2, 0x3e492a35ccb919da, 0x3e169644e7caeac6,
    ];
    let owner_history: [u64; 6] = [
        0x3fa30c90b5b7566e, 0x3f800d8b0a77ee06, 0x3f4cc5c236f0adcd,
        0x3ef36cb88ced584d, 0x3e492a34dfa49122, 0x3e16963c55cd8ecf,
    ];
    let rows = [
        ("stream, T=1", 1usize, FluxScheme::Stream, 0x4b672a2795d5434au64, stream_history),
        ("owner, T=2", 2, FluxScheme::Stream, 0x02d9a159fc5caecd, owner_history),
        // Forced tiling is the one place bits may legitimately move: the
        // flux still accumulates in tile order, the gradient now in edge
        // order (it has no tiled form). On Tiny the host's half-L2 budget
        // makes one tile, whose order is the edge order, so the tiled
        // solve was the stream solve before the change and still is; the
        // pin is its value now.
        ("tiled, T=1", 1, FluxScheme::Tiled, 0x4b672a2795d5434a, stream_history),
    ];
    let mut states = Vec::new();
    for (name, nt, flux, state, history) in rows {
        let mut cfg = OptConfig::optimized(nt);
        cfg.exec = ExecMode::Serial;
        cfg.flux = flux;
        let (u, stats) = solve(cfg);
        assert!(stats.converged, "{name}");
        assert_eq!((stats.time_steps, stats.linear_iters), (5, 62), "{name}");
        let got: Vec<u64> = stats.res_history.iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, history, "{name}: residual history moved");
        assert_eq!(fnv1a(&u), state, "{name}: final state moved");
        states.push(u);
    }
    // The T = 2 solve registered where its P2P blocked waits are counted:
    // per sweep direction and thread for the applications, per thread for
    // the refactorization.
    let names: Vec<String> = fun3d_util::telemetry::metrics::snapshot()
        .counters
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for counter in [
        "trsv.p2p.blocked_waits.fwd.t0",
        "trsv.p2p.blocked_ns.bwd.t1",
        "ilu.p2p.blocked_waits.t1",
        "ilu.p2p.blocked_ns.t0",
    ] {
        assert!(names.iter().any(|n| n == counter), "{counter} not registered");
    }
    // And the tiled solve agrees with the stream solve to the tolerance
    // `tiled_residual_path_converges_and_matches` uses, whatever the tiles.
    assert!(rel_diff(&states[0], &states[2]) < 1e-3);
}
