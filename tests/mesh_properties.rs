//! Property-based cross-crate invariants: random mesh geometries and
//! matrices must satisfy the identities the discretization depends on.
//!
//! Runs on the in-tree `fun3d_util::proptest_mini` harness (seeded cases,
//! shrink-by-halving, deterministic `FUN3D_PROP_SEED` replay).

use fun3d_mesh::generator::ChannelSpec;
use fun3d_mesh::DualMesh;
use fun3d_partition::{partition_graph, MultilevelConfig, OwnerWritesPlan};
use fun3d_sparse::{ilu, trsv_solve, Bcsr4};
use fun3d_util::Gen;
use fun3d_util::{prop_assert, prop_cases};

/// Draws a small random channel mesh with varying geometry (the port of
/// the old proptest `mesh_spec()` strategy).
fn mesh_spec(g: &mut Gen) -> ChannelSpec {
    let ni = g.usize_range(4, 8);
    let nj = g.usize_range(3, 6);
    let nk = g.usize_range(3, 6);
    let thickness = g.f64_range(0.0, 0.25);
    let jitter = g.f64_range(0.0, 0.3);
    let seed = g.u64();
    let mut spec = ChannelSpec::with_resolution(ni, nj, nk);
    spec.thickness = thickness;
    spec.jitter = jitter;
    spec.seed = seed;
    spec
}

prop_cases! {
    fn dual_closure_holds_for_random_geometry(g, cases = 16) {
        let spec = mesh_spec(g);
        let mesh = spec.build();
        let dual = DualMesh::build(&mesh);
        let scale = dual
            .edge_normal
            .iter()
            .map(|n| n.norm())
            .fold(0.0, f64::max)
            .max(1.0);
        prop_assert!(dual.max_closure_defect() < 1e-11 * scale);
        // volumes positive and summing to the mesh volume
        prop_assert!(dual.vol.iter().all(|&v| v > 0.0));
        let dv: f64 = dual.vol.iter().sum();
        let tv = mesh.total_volume();
        prop_assert!((dv - tv).abs() < 1e-9 * tv);
    }

    fn owner_writes_plan_covers_every_edge(g, cases = 16) {
        let spec = mesh_spec(g);
        let nthreads = g.usize_range(1, 6);
        let mesh = spec.build();
        let edges = mesh.edges();
        let graph = mesh.vertex_graph();
        let part = partition_graph(&graph, nthreads, &MultilevelConfig::default());
        let plan = OwnerWritesPlan::build(&edges, &part, nthreads);
        // every endpoint written exactly once
        let mut writes = vec![[0u8; 2]; edges.len()];
        for t in 0..nthreads {
            for (k, &eid) in plan.edges_of()[t].iter().enumerate() {
                let mask = plan.writes_of()[t][k];
                if mask & 1 != 0 { writes[eid as usize][0] += 1; }
                if mask & 2 != 0 { writes[eid as usize][1] += 1; }
            }
        }
        prop_assert!(writes.iter().all(|w| w[0] == 1 && w[1] == 1));
        prop_assert!(plan.replication_overhead() >= 0.0);
    }

    fn ilu_preconditioned_residual_shrinks(g, cases = 16) {
        let seed = g.u64();
        let fill = g.usize_range(0, 3);
        // random diagonally dominant block matrix on a fixed small mesh
        let spec = ChannelSpec::with_resolution(5, 4, 4);
        let mesh = spec.build();
        let mut a = Bcsr4::from_edges(mesh.nvertices(), &mesh.edges());
        a.fill_diag_dominant(seed);
        let f = ilu::iluk(&a, fill);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| ((i * 29 % 17) as f64 - 8.0) * 0.1).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let x = trsv_solve(&f, &b);
        // one application of (LU)^-1 A must contract toward the solution
        let err: f64 = x.iter().zip(&xref).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        let norm: f64 = xref.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(err < 0.6 * norm, "err {err} norm {norm}");
    }

    fn rcm_never_hurts_bandwidth(g, cases = 16) {
        let spec = mesh_spec(g);
        let mut mesh = spec.build();
        let before = mesh.vertex_graph().bandwidth();
        let perm = fun3d_mesh::rcm(&mesh.vertex_graph());
        mesh.renumber(&perm);
        let after = mesh.vertex_graph().bandwidth();
        prop_assert!(after <= before, "RCM worsened bandwidth: {before} -> {after}");
    }
}
