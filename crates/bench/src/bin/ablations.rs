//! Ablation studies beyond the paper's headline figures, backing the
//! design choices DESIGN.md calls out:
//!
//! 1. RCM reordering on/off for the flux kernel (locality);
//! 2. BCSR 4×4 vs scalar CSR SpMV (the 1999 papers' blocking claim);
//! 3. ILU temporary buffer: full vs compressed working set;
//! 4. lagged ILU factors: factorizations vs iterations trade;
//! 5. single-reduction GMRES: collectives per iteration (future work [28]);
//! 6. edge streaming order (sorted vs shuffled locality);
//! 7. software prefetch distance sweep.
//!
//! (ordering of sections in the output follows implementation history;
//! each emits its own table and CSV. The doc list above is the
//!    future-work direction [28]).
//!
//! All rows are host-measured (single-thread) except the working-set
//! sizes, which are exact counts.

use fun3d_bench::{emit, fmt_x, jacobian_fixture, measure, KernelFixture};
use fun3d_core::{
    flux, gradient, EdgeGeom, Exec, FlowConditions, Fun3dApp, Isa, NodeAos, OptConfig, Traversal,
};
use fun3d_mesh::generator::MeshPreset;
use fun3d_mesh::DualMesh;
use fun3d_solver::gmres::{Gmres, GmresConfig};
use fun3d_solver::precond::IdentityPrecond;
use fun3d_solver::ptc::PtcConfig;
use fun3d_sparse::csr::Csr;
use fun3d_sparse::{ilu, TempBuffer};
use fun3d_util::report::{fmt_g, Table};
use fun3d_util::Rng64;

fn flux_time_on(mesh: &fun3d_mesh::Mesh, reps: usize) -> f64 {
    let dual = DualMesh::build(mesh);
    let geom = EdgeGeom::build(mesh, &dual);
    let cond = FlowConditions::default();
    let mut node = NodeAos::zeros(mesh.nvertices());
    node.set_freestream(&cond.qinf);
    let mut rng = Rng64::new(5);
    for x in node.q.iter_mut() {
        *x += rng.range_f64(-0.05, 0.05);
    }
    let bc = fun3d_core::bc::BcData::build(&dual);
    let adj = fun3d_core::HalfEdges::build(&geom, &bc, &dual.vol);
    gradient::green_gauss(Isa::detect(), Exec::Caller, &adj, &mut node);
    let mut res = vec![0.0; node.n * 4];
    measure(reps, || {
        res.iter_mut().for_each(|x| *x = 0.0);
        flux::serial_aos(&geom, &node, cond.beta, &mut res);
    })
}

fn main() {
    let cli = fun3d_bench::Cli::parse(MeshPreset::Medium);

    // --- 1. RCM on/off -------------------------------------------------
    let scrambled = cli.mesh.build(); // generator scrambles by default
    let mut rcm = scrambled.clone();
    Fun3dApp::rcm_reorder(&mut rcm);
    let t_scrambled = flux_time_on(&scrambled, cli.reps);
    let t_rcm = flux_time_on(&rcm, cli.reps);
    let mut t1 = Table::new(
        "Ablation 1: vertex ordering and the flux kernel (host-measured)",
        &["ordering", "bandwidth", "seconds", "speedup"],
    );
    t1.row(&[
        "scrambled (as generated)".into(),
        scrambled.vertex_graph().bandwidth().to_string(),
        fmt_g(t_scrambled),
        fmt_x(1.0),
    ]);
    t1.row(&[
        "RCM".into(),
        rcm.vertex_graph().bandwidth().to_string(),
        fmt_g(t_rcm),
        fmt_x(t_scrambled / t_rcm),
    ]);
    emit("ablation1_rcm", &t1);

    // --- 2. BCSR vs scalar CSR -----------------------------------------
    let fix = KernelFixture::new(cli.mesh);
    let jac = jacobian_fixture(&fix, 1.0);
    let scalar = Csr::from_bcsr(&jac);
    let n = jac.dim();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
    let mut y = vec![0.0; n];
    let t_bcsr = measure(cli.reps, || jac.spmv(&x, &mut y));
    let t_csr = measure(cli.reps, || scalar.spmv(&x, &mut y));
    let mut t2 = Table::new(
        "Ablation 2: SpMV storage (host-measured; paper's [2,3] blocking claim)",
        &["format", "index bytes", "seconds", "speedup"],
    );
    t2.row(&[
        "scalar CSR".into(),
        (scalar.col_idx.len() * 4).to_string(),
        fmt_g(t_csr),
        fmt_x(1.0),
    ]);
    t2.row(&[
        "BCSR 4x4".into(),
        (jac.col_idx.len() * 4).to_string(),
        fmt_g(t_bcsr),
        fmt_x(t_csr / t_bcsr),
    ]);
    emit("ablation2_bcsr", &t2);

    // --- 3. ILU buffer working set --------------------------------------
    let pattern = ilu::symbolic_iluk(&jac, 1);
    let t_full = measure(cli.reps, || {
        std::hint::black_box(ilu::factor(&jac, &pattern, TempBuffer::Full));
    });
    let t_comp = measure(cli.reps, || {
        std::hint::black_box(ilu::factor(&jac, &pattern, TempBuffer::Compressed));
    });
    let max_row = pattern.iter().map(Vec::len).max().unwrap_or(0);
    let full_ws = jac.nrows() * 128 + jac.nrows() * 4;
    let comp_ws = max_row * 128;
    let mut t3 = Table::new(
        "Ablation 3: ILU temporary buffer (paper Section V.B 'algorithmic optimization')",
        &["buffer", "scratch bytes touched", "seconds", "speedup"],
    );
    t3.row(&["full (n rows)".into(), full_ws.to_string(), fmt_g(t_full), fmt_x(1.0)]);
    t3.row(&[
        "compressed (pattern row)".into(),
        comp_ws.to_string(),
        fmt_g(t_comp),
        fmt_x(t_full / t_comp),
    ]);
    emit("ablation3_ilu_buffer", &t3);

    // --- 4. lagged ILU ---------------------------------------------------
    let mut t4 = Table::new(
        "Ablation 4: lagged preconditioner (real solves)",
        &["ilu lag", "time steps", "linear iters", "factorizations", "host seconds"],
    );
    for lag in [1usize, 2, 4] {
        let mut mesh = cli.mesh.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let mut cfg = OptConfig::baseline();
        cfg.ilu_lag = lag;
        let mut app = Fun3dApp::new(mesh, FlowConditions::default(), cfg);
        let (_, stats) = app.run(&PtcConfig {
            dt0: 2.0,
            rtol: 1e-8,
            max_steps: 150,
            ..Default::default()
        });
        let prof = app.profile();
        t4.row(&[
            lag.to_string(),
            stats.time_steps.to_string(),
            stats.linear_iters.to_string(),
            prof.calls("ilu").to_string(),
            fmt_g(prof.seconds("total")),
        ]);
    }
    emit("ablation4_ilu_lag", &t4);

    // --- 6. edge ordering ------------------------------------------------
    // The paper sorts each edge's endpoints and streams edges in
    // lexicographic order; shuffling the edge list destroys the gather
    // locality without changing the math.
    {
        let dual = DualMesh::build(&fix.mesh);
        let sorted = EdgeGeom::build(&fix.mesh, &dual);
        let mut rng = Rng64::new(99);
        let perm = rng.permutation(sorted.nedges());
        let perm: Vec<u32> = perm.into_iter().map(|i| i as u32).collect();
        let shuffled = sorted.try_select(&perm).expect("a permutation of the edge ids");
        let mut res = vec![0.0; fix.node.n * 4];
        let t_sorted = measure(cli.reps, || {
            res.iter_mut().for_each(|x| *x = 0.0);
            flux::serial_aos(&sorted, &fix.node, fix.cond.beta, &mut res);
        });
        let t_shuffled = measure(cli.reps, || {
            res.iter_mut().for_each(|x| *x = 0.0);
            flux::serial_aos(&shuffled, &fix.node, fix.cond.beta, &mut res);
        });
        let mut t6 = Table::new(
            "Ablation 6: edge streaming order (host-measured)",
            &["edge order", "seconds", "speedup"],
        );
        t6.row(&["shuffled".into(), fmt_g(t_shuffled), fmt_x(1.0)]);
        t6.row(&[
            "sorted (paper)".into(),
            fmt_g(t_sorted),
            fmt_x(t_shuffled / t_sorted),
        ]);
        emit("ablation6_edge_order", &t6);
    }

    // --- 7. prefetch distance sweep --------------------------------------
    {
        let dual = DualMesh::build(&fix.mesh);
        let geom = EdgeGeom::build(&fix.mesh, &dual);
        let mut res = vec![0.0; fix.node.n * 4];
        let mut t7 = Table::new(
            "Ablation 7: software prefetch distance (host-measured)",
            &["distance (edges)", "seconds"],
        );
        for dist in [0usize, 4, 8, 16, 32, 64] {
            let t = measure(cli.reps, || {
                res.iter_mut().for_each(|x| *x = 0.0);
                let walk = Traversal::Stream { geom: &geom, prefetch: Some(dist) };
                let lanes = Some(Isa::detect());
                flux::run(lanes, Exec::Caller, walk, &fix.node, fix.cond.beta, &mut res);
            });
            t7.row(&[dist.to_string(), fmt_g(t)]);
        }
        emit("ablation7_prefetch_distance", &t7);
    }

    // --- 5. single-reduction GMRES --------------------------------------
    let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 0.1).collect();
    let cfg = GmresConfig {
        rtol: 1e-6,
        max_iters: 800,
        ..Default::default()
    };
    let r_std = Gmres::new(n, cfg).solve(&jac, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
    let mut cfg1 = cfg;
    cfg1.single_reduction = true;
    let r_one = Gmres::new(n, cfg1).solve(&jac, &IdentityPrecond(n), &b, &mut vec![0.0; n]);
    let mut t5 = Table::new(
        "Ablation 5: single-reduction GMRES (paper future work [28])",
        &["variant", "iterations", "reductions", "reductions/iter"],
    );
    t5.row(&[
        "standard CGS".into(),
        r_std.iterations.to_string(),
        r_std.reductions.to_string(),
        format!("{:.2}", r_std.reductions as f64 / r_std.iterations.max(1) as f64),
    ]);
    t5.row(&[
        "single-reduction".into(),
        r_one.iterations.to_string(),
        r_one.reductions.to_string(),
        format!("{:.2}", r_one.reductions as f64 / r_one.iterations.max(1) as f64),
    ]);
    emit("ablation5_single_reduction", &t5);
}
