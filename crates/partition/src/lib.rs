//! Graph partitioning and edge-loop work distribution.
//!
//! The paper distributes the edge-based loops over threads by
//! **domain decomposition inside the node** (Section V.A): vertices are
//! divided among threads, and three strategies are compared —
//!
//! 1. *Basic partitioning with atomics*: edges split in natural order,
//!    conflicting vertex updates resolved with atomic adds;
//! 2. *Basic partitioning with replication*: vertices split in natural
//!    (contiguous) order; every thread processes all edges incident to its
//!    vertices and writes only the endpoints it owns ("owner-only
//!    writes"), so cut edges are computed twice (41% redundant work at 20
//!    threads in the paper);
//! 3. *METIS-based partitioning*: same owner-only writes but with a
//!    quality multilevel partition, which balances the work and shrinks
//!    the replication to ~4%.
//!
//! METIS itself is not available, so [`partition_graph`] implements the same
//! algorithm family from scratch: heavy-edge-matching coarsening, greedy
//! graph growing at the coarsest level, Fiduccia–Mattheyses boundary
//! refinement, recursive bisection to k parts. [`OwnerWritesPlan`] turns
//! a vertex partition into per-thread edge work lists with replication
//! accounting. The paper's global edge coloring is not implemented: as
//! Sulyok et al. put it, it leaves "virtually no data reuse".
//!
//! [`EdgeTiling`] adds the fourth write-conflict strategy beyond the paper:
//! cache-blocked edge tiles. Edges are grouped into tiles whose
//! touched-vertex working set fits in a core's private L2, so a tile's
//! vertex data is loaded once and all its edges reuse it in cache, and
//! conflicts are resolved by coloring *across* tiles (not across edges),
//! preserving the intra-tile locality that per-edge coloring destroys.

#![deny(unreachable_pub)]

mod metrics;
mod multilevel;
mod natural;
mod replication;
mod tiling;

pub use metrics::TileQuality;
pub use multilevel::{partition_graph, MultilevelConfig};
pub use natural::natural_partition;
pub use replication::OwnerWritesPlan;
pub use tiling::{EdgeTiling, Tile, TilingConfig};

/// A vertex partition: `part[v]` is the part (thread) owning vertex `v`.
pub type Partition = Vec<u32>;
