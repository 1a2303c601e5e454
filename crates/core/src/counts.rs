//! Analytic traffic/flop formulas for the application kernels.
//!
//! These are the Table 3-style performance-model numbers: for each kernel
//! the bytes it must move and the floating-point work it must do, derived
//! from mesh and factor sizes rather than measured with hardware
//! counters. Telemetry records one [`KernelCounts`] per kernel
//! invocation using these formulas; a report divides by the measured
//! wall time to get achieved GB/s (Fig. 6's comparison against STREAM)
//! and flop/byte arithmetic intensity.
//!
//! The byte counts model *compulsory* traffic (each operand counted
//! once, read-modify-writes counted as a read plus a write) — actual
//! DRAM traffic can be lower when gathers hit in cache, so an "achieved
//! GB/s" above STREAM indicates cache residency, not a broken model.

use crate::geom::EdgeGeom;
use fun3d_sparse::{IluFactors, IluSymbolic, FACTOR_BLOCK_BYTES};
use fun3d_util::telemetry::KernelCounts;

/// Bytes of a 4-component state block.
const STATE_BYTES: u64 = 4 * 8;
/// Bytes of a 12-entry gradient block.
const GRAD_BYTES: u64 = 12 * 8;
/// Bytes of one 4×4 Jacobian block (`f64`).
const BLOCK_BYTES: u64 = 16 * 8;
/// Bytes of one stored factor block: the format's own constant.
const FACTOR_BYTES: u64 = FACTOR_BLOCK_BYTES as u64;

/// Flux kernel model for one evaluation over `nedges` edges.
///
/// Per edge (see [`EdgeGeom::FLUX_BYTES_PER_EDGE`]): reads 6 geometry
/// doubles, one endpoint pair, two gathered nodes (state + gradient) and
/// the two residual blocks it updates; writes the two residual blocks.
/// Flops follow [`EdgeGeom::FLUX_FLOPS_PER_EDGE`].
pub fn flux(nedges: usize) -> KernelCounts {
    let ne = nedges as u64;
    let reads = ne * (6 * 8 + 8 + 2 * (STATE_BYTES + GRAD_BYTES) + 2 * STATE_BYTES);
    let writes = ne * 2 * STATE_BYTES;
    debug_assert_eq!(
        (reads + writes) as f64,
        EdgeGeom::FLUX_BYTES_PER_EDGE * nedges as f64
    );
    KernelCounts::once(
        ne,
        reads,
        writes,
        (EdgeGeom::FLUX_FLOPS_PER_EDGE * nedges as f64) as u64,
    )
}

/// Green-Gauss gradient model for one evaluation, as an edge loop — the
/// formulation the benchmark's residual byte model is defined by, kept
/// number for number (the kernel itself now gathers per vertex and
/// records [`gradient_gather`]).
///
/// Per edge: read the 3 normal doubles, the endpoint pair and both
/// states, then read-modify-write both 12-entry gradient accumulators
/// (4 vars × 3 dims, one fused multiply-add per entry per endpoint);
/// per vertex: read the dual volume and scale the 12 entries in place.
pub fn gradient(nedges: usize, nvertices: usize) -> KernelCounts {
    let ne = nedges as u64;
    let nv = nvertices as u64;
    let reads = ne * (3 * 8 + 8 + 2 * STATE_BYTES + 2 * GRAD_BYTES) + nv * (8 + GRAD_BYTES);
    let writes = ne * 2 * GRAD_BYTES + nv * GRAD_BYTES;
    let flops = ne * (4 * 3 * 2 * 2) + nv * 12;
    KernelCounts::once(ne, reads, writes, flops)
}

/// Traffic of the Green-Gauss kernel as it runs: an owner-computes gather
/// over `half_edges` half-edges (two per edge, one per boundary entry) of
/// `rows` vertices ([`crate::gradient::green_gauss`]). Per half-edge: the
/// 4 B neighbour id, the 24 B normal and one gathered 32 B state; per
/// vertex: the 8 B inverse volume read and the 96 B gradient row stored
/// once (no zeroing pass, no read-modify-write, no epilogue; a row's own
/// state is some neighbour's gather and is not counted again). The
/// least-squares gradient gathers the same shape (24 B of coefficients
/// where Green-Gauss reads a normal). Per half-edge 2·4 flops for the face
/// value and 3·4·2 for the accumulation; per vertex the 12 scalings.
///
/// This is what telemetry records for `"gradient"`. [`gradient`] stays the
/// edge-loop model the benchmark's `core.residual_gbps` is defined by.
pub(crate) fn gradient_gather(half_edges: usize, rows: usize) -> KernelCounts {
    let (nh, nv) = (half_edges as u64, rows as u64);
    let reads = nh * (4 + 3 * 8 + STATE_BYTES) + nv * 8;
    let writes = nv * GRAD_BYTES;
    let flops = nh * (2 * 4 + 3 * 4 * 2) + nv * 12;
    KernelCounts::once(nh, reads, writes, flops)
}

/// Tiled flux model for one evaluation over `nedges` edges with a
/// tiling of `vertex_slots` vertex slots (the tiling's measured Σ
/// per-tile unique vertices — `vertex_slots = nedges / reuse_factor`, so
/// the measured reuse parameterizes the model).
///
/// The edge stream (geometry + endpoint pair) is unchanged, but the
/// per-edge vertex gathers and residual read-modify-writes of the
/// streaming model collapse to one load (state + gradient read) and one
/// residual read-modify-write per *slot*: intra-tile reuse hits the
/// cache, which the tiler sized the tile's working set for, and never
/// reaches DRAM. The flop count gains 4 adds per slot.
pub fn flux_tiled(nedges: usize, vertex_slots: usize) -> KernelCounts {
    let ne = nedges as u64;
    let slots = vertex_slots as u64;
    let reads = ne * (6 * 8 + 8) + slots * (STATE_BYTES + GRAD_BYTES + STATE_BYTES);
    let writes = slots * STATE_BYTES;
    let flops = (EdgeGeom::FLUX_FLOPS_PER_EDGE * nedges as f64) as u64 + slots * 4;
    KernelCounts::once(ne, reads, writes, flops)
}

/// First-order Jacobian model for one rebuild: the row kernel over
/// `nedges` edges and `nrows` rows ([`crate::jacobian`]).
///
/// Per edge, its two half-edges: each reads its 4 B neighbour id, 24 B
/// normal, 4 B slot and the neighbour's 32 B state, and linearizes the
/// flux at both ends (modelled, as the edge scatter was, at ~2× the flux
/// flops plus the four block updates); per row: the row's own state and
/// its 32 B pseudo-time shift. The blocks go to the factorization's row
/// buffer, not to memory, so nothing is written.
pub(crate) fn jacobian(nedges: usize, nrows: usize) -> KernelCounts {
    let ne = nedges as u64;
    let nr = nrows as u64;
    let reads = ne * 2 * (4 + 3 * 8 + 4 + STATE_BYTES) + nr * (STATE_BYTES + 4 * 8);
    let flops = ne * (2 * EdgeGeom::FLUX_FLOPS_PER_EDGE as u64 + 4 * 16) + nr * 4;
    KernelCounts::once(ne, reads, 0, flops)
}

/// The preconditioner build as it runs, one kernel: the factorization
/// into `sym`'s structure ([`ilu_factor`]) taking every row of the
/// Jacobian from the row kernel over `nedges` edges ([`jacobian`]).
pub fn ilu_build(sym: &IluSymbolic, nedges: usize) -> KernelCounts {
    let (f, j) = (ilu_factor(sym), jacobian(nedges, sym.l_pattern().nrows()));
    KernelCounts {
        bytes_read: f.bytes_read + j.bytes_read,
        bytes_written: f.bytes_written + j.bytes_written,
        flops: f.flops + j.flops,
        ..f
    }
}

/// ILU(k) numeric factorization model for one rebuild into the factor
/// structure `sym` (its block populations).
///
/// Each L block triggers one 4×4 inverse-diagonal multiply (~128 flops)
/// plus a row-combine pass over the matching U row; modeled as touching
/// every stored block a small constant number of times: the matrix block
/// that seeds it (`f64`) and one finished factor block read, then the
/// stored block written.
pub(crate) fn ilu_factor(sym: &IluSymbolic) -> KernelCounts {
    let (l, u) = (sym.l_pattern(), sym.u_pattern());
    let nblocks = (l.col_idx.len() + u.col_idx.len()) as u64;
    let nrows = l.nrows() as u64;
    let reads = nblocks * (BLOCK_BYTES + FACTOR_BYTES) + nrows * BLOCK_BYTES;
    let writes = (nblocks + nrows) * FACTOR_BYTES;
    // block-block multiply-accumulate: 4×4×4 fused multiply-adds
    let flops = nblocks * 128 + nrows * 128;
    KernelCounts::once(nrows, reads, writes, flops)
}

/// Forward+backward triangular sweep model for one preconditioner
/// application: every stored factor byte is streamed once
/// ([`IluFactors::sweep_bytes`]) plus the right-hand side in and the
/// solution out; each off-diagonal block costs one 4×4 block-vector
/// multiply (32 flops), each row one inverse-diagonal multiply.
pub(crate) fn trsv(f: &IluFactors) -> KernelCounts {
    let nrows = f.nrows() as u64;
    let nblocks = (f.l.nblocks() + f.u.nblocks()) as u64;
    let reads = f.sweep_bytes() as u64 + nrows * STATE_BYTES;
    let writes = nrows * STATE_BYTES;
    let flops = nblocks * 32 + nrows * 32;
    KernelCounts::once(nrows, reads, writes, flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_sparse::{ilu, Bcsr4};

    #[test]
    fn flux_matches_published_per_edge_constants() {
        let c = flux(1000);
        assert_eq!(c.items, 1000);
        assert_eq!(
            c.bytes() as f64,
            EdgeGeom::FLUX_BYTES_PER_EDGE * 1000.0
        );
        assert_eq!(c.flops as f64, EdgeGeom::FLUX_FLOPS_PER_EDGE * 1000.0);
        // flux is memory-bound: intensity well under 1 flop/byte
        assert!(c.arithmetic_intensity() < 1.0);
    }

    #[test]
    fn tiled_models_shrink_with_reuse() {
        let ne = 1000;
        // A reuse factor of 4 edges/slot: 250 slots.
        let t = flux_tiled(ne, 250);
        let s = flux(ne);
        assert!(t.bytes() < s.bytes(), "tiling must cut modeled traffic");
        // Degenerate tiling (2 slots/edge — single-edge tiles) moves
        // *at most* the streaming traffic.
        let degen = flux_tiled(ne, 2 * ne);
        assert!(degen.bytes() <= s.bytes());
        // Same flux math plus the scatter adds.
        assert!(t.flops >= s.flops);
    }

    #[test]
    fn gradient_models_are_pinned() {
        // The gather the kernel runs: 60 B per half-edge, 104 B per vertex.
        let one_edge = gradient_gather(2, 0);
        assert_eq!((one_edge.items, one_edge.bytes(), one_edge.flops), (2, 2 * 60, 2 * 32));
        let one_vertex = gradient_gather(0, 1);
        assert_eq!((one_vertex.bytes(), one_vertex.flops), (8 + 96, 12));
        let g = gradient_gather(2 * 1000 + 50, 400);
        assert_eq!(g.bytes(), 2050 * 60 + 400 * 104);
        // The edge-loop model the benchmark divides by: what it was.
        assert_eq!(gradient(1000, 400).bytes(), 1000 * (24 + 8 + 64 + 192 + 192) + 400 * (8 + 96 + 96));
        assert!(g.bytes() < gradient(1000, 400).bytes(), "the gather moves fewer modelled bytes");
    }

    #[test]
    fn gradient_and_jacobian_scale_with_edges() {
        let g1 = gradient(100, 40);
        let g2 = gradient(200, 40);
        assert!(g2.bytes() > g1.bytes());
        let j = jacobian(100, 40);
        assert!(j.flops > flux(100).flops, "jacobian costs more than flux");
    }

    #[test]
    fn factor_models_track_stored_blocks() {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(7);
        let sym = IluSymbolic::new(&a, &ilu::symbolic_iluk(&a, 0));
        let f = sym.factor(&a);
        let fac = ilu_factor(&sym);
        let sweep = trsv(&f);
        assert_eq!(fac.items, f.nrows() as u64);
        assert!(fac.bytes() > sweep.bytes(), "factorization moves more than a sweep");
        assert!(sweep.bytes() as usize > f.sweep_bytes());
        // The sweep model follows the stored format: 64 B of `f32` values
        // and a 4 B column index per block; per row a 64 B inverted
        // diagonal and the two sweeps' four passes over 32 B vector rows.
        let (nblocks, nrows) = (f.l.nblocks() + f.u.nblocks(), f.nrows());
        assert_eq!((IluFactors::SWEEP_BYTES_PER_BLOCK, IluFactors::SWEEP_BYTES_PER_ROW), (68, 192));
        assert_eq!(f.sweep_bytes(), nblocks * 68 + nrows * 192);
        assert_eq!(
            f.sweep_bytes() - nrows * 4 * 32,
            (f.l.blocks.len() + f.u.blocks.len() + f.dinv.len()) * 4 + nblocks * 4,
            "beside the vectors, the model counts exactly the bytes the factors store"
        );
    }
}
