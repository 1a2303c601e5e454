//! Multi-node substrate: an in-process message-passing runtime, domain
//! decomposition and a genuinely distributed Krylov solve.
//!
//! There is no InfiniBand cluster here (nor even a second core): [`comm`]
//! runs R "ranks" as OS threads with MPI-like semantics (send/recv,
//! allreduce, barrier); [`decompose`] performs the Schwarz domain
//! decomposition (owned + ghost vertices, halo exchange lists); [`dsolve`]
//! and [`dapp`] run a real distributed GMRES/block-Jacobi-ILU solve
//! through those code paths and are tested to agree with the serial
//! solver. The strong-scaling model behind Figs. 9–11, which charges the
//! same decompositions to the paper's Stampede nodes and FDR network,
//! lives in `crates/bench`.

pub mod comm;
pub mod dapp;
pub mod decompose;
pub mod dsolve;

pub use comm::{Comm, Universe};
pub use decompose::{Decomposition, Subdomain};
