//! Shared helpers for the multi-node figure binaries (Figs. 9-11).

use crate::scaling::{ScalingConfig, SurfaceModel, Workload};
use fun3d_mesh::generator::MeshPreset;

/// Node counts of the paper's sweep.
pub const NODES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Mesh-D vertex count (the dataset of the multi-node study).
pub const MESH_D_VERTS: f64 = 2.76e6;

/// Builds the per-style workload for a node count: real decomposition
/// when subdomains stay ≥ 500 vertices, surface-model synthesis beyond.
pub fn workload(
    base: &MeshPreset,
    sm: &SurfaceModel,
    cfg: &ScalingConfig,
    nodes: usize,
) -> Workload {
    let ranks = nodes * cfg.ranks_per_node();
    let mesh = base.build();
    let nv = mesh.nvertices();
    if nv / ranks >= 500 {
        let decomp = fun3d_cluster::Decomposition::build(nv, &mesh.edges(), ranks);
        Workload::from_decomposition(&decomp, 2.0).rescale(MESH_D_VERTS / nv as f64)
    } else {
        sm.workload(ranks, MESH_D_VERTS, 2.0)
    }
}

/// Shared calibration for the multi-node binaries.
pub fn calibrate(base: &MeshPreset) -> SurfaceModel {
    let mesh = base.build();
    let ranks = (mesh.nvertices() / 800).clamp(2, 64);
    SurfaceModel::calibrate(mesh.nvertices(), &mesh.edges(), ranks)
}

