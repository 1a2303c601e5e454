//! Cross-crate integration: the distributed (rank-parallel) solve path
//! must agree with the serial solver stack on the same system.

use fun3d_cluster::{dsolve_gmres, Decomposition, DistSystem, Universe};
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::precond::{IdentityPrecond, SerialIlu};
use fun3d_solver::{Gmres, GmresConfig, GmresOutcome};
use fun3d_sparse::Bcsr4;

fn system() -> (usize, Vec<[u32; 2]>, Bcsr4, Vec<f64>) {
    let mesh = MeshPreset::Tiny.build();
    let edges = mesh.edges();
    let nv = mesh.nvertices();
    let mut a = Bcsr4::from_edges(nv, &edges);
    a.fill_diag_dominant(99);
    let n = a.dim();
    let xref: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) * 0.2).collect();
    let mut b = vec![0.0; n];
    a.spmv(&xref, &mut b);
    (nv, edges, a, b)
}

/// The owned part of the global vector `v` on `sys`'s rank.
fn owned_part(sys: &DistSystem, v: &[f64]) -> Vec<f64> {
    let owned = sys.sub.owned.iter();
    owned
        .flat_map(|&g| v[g as usize * 4..g as usize * 4 + 4].to_vec())
        .collect()
}

/// Scatters per-rank owned vectors into the global one.
fn stitch(n: usize, parts: Vec<(Vec<u32>, Vec<f64>)>) -> Vec<f64> {
    let mut global = vec![0.0; n];
    for (owned, x) in parts {
        for (l, &g) in owned.iter().enumerate() {
            global[g as usize * 4..g as usize * 4 + 4].copy_from_slice(&x[l * 4..l * 4 + 4]);
        }
    }
    global
}

#[test]
fn distributed_gmres_agrees_with_serial_gmres() {
    let (nv, edges, a, b) = system();
    let n = a.dim();

    // serial reference (global ILU preconditioner)
    let mut x_serial = vec![0.0; n];
    let ilu = SerialIlu::new(&a, 0);
    let res = Gmres::new(
        n,
        GmresConfig {
            rtol: 1e-10,
            max_iters: 500,
            ..Default::default()
        },
    )
    .solve(&a, &ilu, &b, &mut x_serial);
    assert!(res.residual <= 1e-9 * res.residual0.max(1.0) || res.iterations < 500);

    // One rank is the serial solve itself: same iterate, iteration count
    // and residual, bit for bit. Four ranks (block-Jacobi ILU) agree to
    // the tolerance.
    for nranks in [1usize, 4] {
        let decomp = Decomposition::build(nv, &edges, nranks);
        let (subs, a, b) = (&decomp.subdomains, &a, &b);
        let results = Universe::run(nranks, move |comm| {
            let sys = DistSystem::new(a, subs[comm.rank()].clone(), 0);
            let mut x = vec![0.0; sys.nowned()];
            let r = dsolve_gmres(&comm, &sys, &owned_part(&sys, b), &mut x, 30, 1e-10, 500);
            assert!(r.converged);
            ((sys.sub.owned.clone(), x), r)
        });
        let (parts, stats): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let x_dist = stitch(n, parts);
        if nranks == 1 {
            assert_eq!(
                x_dist, x_serial,
                "one rank must be the serial solve exactly"
            );
            assert_eq!(stats[0].iterations, res.iterations);
            assert_eq!(stats[0].residual.to_bits(), res.residual.to_bits());
        }
        let diff: f64 = x_serial
            .iter()
            .zip(&x_dist)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = x_serial.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            diff < 1e-6 * norm,
            "nranks={nranks}: diff {diff} vs norm {norm}"
        );
    }
}

#[test]
fn distributed_gmres_makes_one_collective_per_reported_reduction() {
    // `Gmres` driven directly on a rank's rows, with the communicator as
    // its reducer: every reduction it reports is one allreduce, two per
    // iteration (the Gram-Schmidt products, then the norm) plus one per
    // cycle start.
    let (nv, edges, a, b) = system();
    let decomp = Decomposition::build(nv, &edges, 2);
    let (subs, a, b) = (&decomp.subdomains, &a, &b);
    let results = Universe::run(2, move |comm| {
        let sys = DistSystem::new(a, subs[comm.rank()].clone(), 0);
        let n = sys.nowned();
        let config = GmresConfig {
            rtol: 1e-8,
            max_iters: 2000,
            ..Default::default()
        };
        let mut x = vec![0.0; n];
        let r = Gmres::new(n, config).solve(
            &sys.on(&comm),
            &IdentityPrecond(n),
            &owned_part(&sys, b),
            &mut x,
        );
        comm.barrier();
        (r, comm.stat_collectives())
    });
    let (r, collectives) = results.into_iter().next().expect("rank 0");
    assert_eq!(r.outcome, GmresOutcome::ConvergedRtol);
    assert!(r.residual <= 1e-8 * r.residual0);
    // `Comm` counts a collective once per participant.
    assert_eq!(collectives, 2 * r.reductions as u64);
    let cycles = r.iterations.div_ceil(GmresConfig::default().restart);
    assert_eq!(r.reductions, 2 * r.iterations + cycles);
}

#[test]
fn distributed_results_independent_of_rank_count() {
    let (nv, edges, a, b) = system();
    let n = a.dim();
    let mut solutions: Vec<Vec<f64>> = Vec::new();
    for nranks in [1usize, 2, 3] {
        let decomp = Decomposition::build(nv, &edges, nranks);
        let (subs, a, b) = (&decomp.subdomains, &a, &b);
        let parts = Universe::run(nranks, move |comm| {
            let sys = DistSystem::new(a, subs[comm.rank()].clone(), 0);
            let mut x = vec![0.0; sys.nowned()];
            dsolve_gmres(&comm, &sys, &owned_part(&sys, b), &mut x, 30, 1e-11, 800);
            (sys.sub.owned.clone(), x)
        });
        solutions.push(stitch(n, parts));
    }
    for k in 1..solutions.len() {
        let diff: f64 = solutions[0]
            .iter()
            .zip(&solutions[k])
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = solutions[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(diff < 1e-6 * norm, "rank-count variant {k}: {diff}");
    }
}
