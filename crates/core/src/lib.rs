//! The FUN3D application core: incompressible Euler flow on unstructured
//! tetrahedral meshes, discretized vertex-centered with artificial
//! compressibility, solved by pseudo-transient Newton–Krylov–Schwarz.
//!
//! This crate is the paper's primary subject. It contains:
//!
//! * `euler` — the physics: state `q = (p, u, v, w)`, the artificial-
//!   compressibility inviscid flux `F·n̂ = (βΘ, uΘ + nₓp, vΘ + n_y p,
//!   wΘ + n_z p)` (paper Eq. 1), its Jacobian, and the Roe-type
//!   flux-difference dissipation built from the face eigensystem
//!   `{Θ, Θ±c}`, `c = √(Θ² + βS²)`;
//! * `geom` — the SoA edge-geometry arrays the kernels stream
//!   (dual-face normals and across-edge deltas), the per-vertex half-edge
//!   CSR the gradients gather over, and the AoS node data the paper's
//!   data-structure study arrives at. Two rules live here: *a
//!   vertex row is stored the way its hot loop loads it* (the gradient
//!   row is dim-major, [`grad_slot`]), and *an index is checked
//!   where it is made* (the index structures validate in their
//!   constructors, are read-only afterwards, and the loops use them
//!   unchecked);
//! * `edge_loop` — how edges are walked: the streaming, owner-writes
//!   and tiled traversals, each written once, on the calling thread or a
//!   pool region;
//! * `flux` — the edge-based flux kernel: the Roe flux as the lane
//!   (4-edge SIMD batch, portable or AVX2) and scalar bodies those
//!   traversals run, plus the plain scalar AoS loop that stands outside
//!   them as their oracle (the SoA and atomics rows of Fig. 6 live in
//!   `crates/bench`);
//! * `gradient` — Green-Gauss nodal gradients (the paper's "Grad"
//!   kernel) as one owner-computes vertex loop, bitwise the edge loop it
//!   replaces at any thread count, and least-squares gradients over the
//!   same adjacency;
//! * `jacobian` — first-order (more diffusive, sparser) flux Jacobian
//!   assembled into 4×4-block BCSR for the Schwarz/ILU preconditioner:
//!   the one assembly loop, which a rank runs over its local edges too;
//! * `bc` — slip-wall, symmetry and far-field boundary fluxes and their
//!   Jacobian contributions;
//! * `app` — [`Fun3dApp`]: the full application wiring mesh +
//!   kernels + ILU + GMRES + pseudo-transient continuation together, with
//!   per-kernel profiling and selectable optimization level (the
//!   "baseline" vs "optimized" configurations of Figs. 5 and 8).

#![deny(unreachable_pub)]

mod app;
mod bc;
pub mod counts;
mod edge_loop;
mod euler;
mod flux;
mod geom;
mod gradient;
mod jacobian;
mod limiter;

pub use app::{Fun3dApp, OptConfig};
pub use bc::{residual as bc_residual, BcData};
pub use edge_loop::{Exec, Traversal, PREFETCH_DIST};
pub use euler::{roe_flux, FlowConditions};
pub use flux::{edge_flux, roe_lanes, run as flux_run, serial_aos as flux_serial_aos};
/// Which lane implementation the edge kernels run on in this process, and
/// the type their entry points take it as.
pub use fun3d_simd::{active_isa, Isa};
pub use geom::{grad_slot, EdgeGeom, GeomError, HalfEdges, NodeAos, TiledGeom, GRAD_ROW};
pub use gradient::green_gauss;
pub use jacobian::{
    add_time_diagonal, assemble as jacobian_assemble, time_diagonal, JacobianSlots,
};
