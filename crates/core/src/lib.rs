//! The FUN3D application core: incompressible Euler flow on unstructured
//! tetrahedral meshes, discretized vertex-centered with artificial
//! compressibility, solved by pseudo-transient Newton–Krylov–Schwarz.
//!
//! This crate is the paper's primary subject. It contains:
//!
//! * [`euler`] — the physics: state `q = (p, u, v, w)`, the artificial-
//!   compressibility inviscid flux `F·n̂ = (βΘ, uΘ + nₓp, vΘ + n_y p,
//!   wΘ + n_z p)` (paper Eq. 1), its Jacobian, and the Roe-type
//!   flux-difference dissipation built from the face eigensystem
//!   `{Θ, Θ±c}`, `c = √(Θ² + βS²)`;
//! * [`geom`] — the SoA edge-geometry arrays the kernels stream
//!   (dual-face normals and across-edge deltas), and both node-data
//!   layouts (SoA and AoS) of the paper's data-structure study;
//! * [`flux`] — the edge-based flux kernel in every optimization variant:
//!   scalar/SoA baseline, atomics, owner-writes replication (natural or
//!   METIS partitions), AoS node data, 4-edge SIMD batching (portable or
//!   AVX2 lanes, detected per call) with in-register write-out, and
//!   software prefetching;
//! * [`gradient`] — Green-Gauss nodal gradients (edge-based, the paper's
//!   "Grad" kernel) serial and threaded, on the same lanes;
//! * [`jacobian`] — first-order (more diffusive, sparser) flux Jacobian
//!   assembled into 4×4-block BCSR for the Schwarz/ILU preconditioner;
//! * [`bc`] — slip-wall, symmetry and far-field boundary fluxes and their
//!   Jacobian contributions;
//! * [`app`] — [`app::Fun3dApp`]: the full application wiring mesh +
//!   kernels + ILU + GMRES + pseudo-transient continuation together, with
//!   per-kernel profiling and selectable optimization level (the
//!   "baseline" vs "optimized" configurations of Figs. 5 and 8).

pub mod app;
pub mod bc;
pub mod counts;
pub mod euler;
pub mod flux;
pub mod geom;
pub mod gradient;
pub mod jacobian;
pub mod limiter;

pub use app::{Fun3dApp, OptConfig};
pub use euler::{FlowConditions, NVARS};
/// Which lane implementation the edge kernels run on in this process.
pub use fun3d_simd::active_isa;
pub use geom::{EdgeGeom, NodeAos, NodeSoa, TiledGeom};
