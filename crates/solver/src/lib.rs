//! Newton–Krylov–Schwarz solver stack (the PETSc Vec/KSP/SNES/PC substrate).
//!
//! PETSc-FUN3D's solver is ΨNKS: **pseudo-transient continuation** wraps
//! an **inexact Newton** method whose linear systems are solved by
//! **restarted GMRES**, preconditioned with an **additive Schwarz / block-
//! Jacobi ILU** of a lower-order Jacobian, with the true Jacobian action
//! applied **matrix-free** by finite differences [12]. This crate
//! implements each layer:
//!
//! * `vecops` — the PETSc vector primitives by name (`VecWAXPY`,
//!   `VecMAXPY`, `VecMDot`, `VecNorm`); the paper calls out that these
//!   are *not* threaded in stock PETSc and optimizes them (Section VI.A)
//!   — the threaded forms are the `team` module's;
//! * linear operators: an assembled BCSR matrix, or the finite-difference
//!   matrix-free Jacobian with a pseudo-time diagonal shift, and
//!   [`SumReduce`], the hook a rank layer completes inner products
//!   through (the whole of what a distributed caller adds to this crate);
//! * [`precond`] — identity and global ILU preconditioners with serial
//!   and P2P-synchronized application (across ranks, each rank's own ILU
//!   is the block-Jacobi);
//! * [`Gmres`] — left-preconditioned GMRES(m) with classical Gram-Schmidt
//!   (PETSc's default KSP for this code) and Givens least squares: one
//!   control flow over a serial and a persistent-SPMD-region step
//!   backend (region-per-op execution survives as the ablation
//!   reference);
//! * `team` — the in-region vector primitives those persistent regions
//!   are built from (barrier phases + tree reductions, no fork-join);
//! * [`ptc`] — pseudo-transient continuation with switched evolution
//!   relaxation (Mulder & Van Leer [11]): `Δt` grows as the steady
//!   residual falls, driving Newton to the steady state.

#![deny(unreachable_pub)]

mod anomaly;
mod factor_cache;
mod gmres;
mod op;
mod policy;
pub mod precond;
pub mod ptc;
mod team;
mod vecops;

pub use anomaly::{Anomaly, AnomalyConfig};
pub use factor_cache::{CacheStats, KeyedCache};
pub use gmres::{Gmres, GmresConfig, GmresExec, GmresOutcome, GmresResult};
pub use op::{LinearOperator, Reducer, SumReduce};
pub use policy::{AutoPolicy, ExecMode, FluxScheme};
pub use precond::{IdentityPrecond, IluApply, Preconditioner, SerialIlu};
pub use ptc::{PtcConfig, PtcProblem, PtcStats};
pub use vecops::{dot, maxpy, mdot, norm2};
