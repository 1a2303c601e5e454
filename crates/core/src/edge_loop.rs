//! How edges are walked: the one implementation of each write-conflict
//! strategy of Section V.A, shared by every edge kernel.
//!
//! Flux and gradient are the same loop — for each edge, gather two
//! vertices, compute, scatter to two vertices — and differ only in the
//! compute. That difference is an [`EdgeBody`]; everything else is here:
//!
//! | [`Traversal`] | edges, order | a vertex row is written by |
//! |---|---|---|
//! | `Stream` | all of an [`EdgeGeom`], in order, optional software prefetch | the one thread |
//! | `Owner` | each share of an [`OwnerWritesPlan`] in the share's order (cut edges on both sides) | the share whose masks select it |
//! | `Tiled` | an [`EdgeTiling`]'s tiles, colour by colour, scratch-staged or direct ([`TileExec`]) | the one tile of the current colour that holds it |
//!
//! each on an [`Exec`]: the calling thread, or one region of a
//! [`ThreadPool`] (shares or a colour's tiles chunked over the workers,
//! with a [`SpinBarrier`] between colours). Every loop is generic over
//! the lanes `S: Simd` and the body, and instantiated per body behind
//! [`with_lanes!`]'s AVX2 entry — so a kernel is one body and a call to
//! [`run`]. Everything between that entry and the arithmetic is
//! `#[inline(always)]`, and the loops spell their small arrays out and
//! use no closures: neither `array::map` nor a closure is reliably
//! inlined, and code left outside the entry is compiled without AVX2.
//!
//! Per-vertex accumulation order depends on the traversal only: `Stream`
//! and `Owner` add a vertex's edges in edge order (bitwise equal to each
//! other at any thread count), `Tiled` in colour-major tile order (bitwise
//! equal across thread counts, contexts and [`TileExec`] modes).

use crate::geom::{EdgeGeom, TiledGeom, VertexRows};
use fun3d_machine::{MachineSpec, RESIDUAL_BYTES_PER_VERTEX};
use fun3d_partition::{EdgeTiling, OwnerWritesPlan, Tile};
use fun3d_simd::{prefetch_l2, with_lanes, Isa, Simd};
use fun3d_threads::{available_cores, chunk_range, SpinBarrier, ThreadPool};

/// Prefetch distance in edges. Tuned: the `prefetch_dist` microbench
/// group sweeps 4/8/16/32 on this host (`target/experiments/microbench.csv`);
/// 8 and 16 tie within noise, 4 and 32 are measurably worse.
pub const PREFETCH_DIST: usize = 16;

/// How a tile's vertex data reaches the compute loop. Both modes run the
/// identical arithmetic over the identical edge order — **bitwise
/// identical** results — so the choice is purely a traffic trade, made
/// once per solve by [`TileExec::auto`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileExec {
    /// Copy the tile's unique vertices into a dense scratch pad and gather
    /// through the tile's remap: a copy per staged vertex turns DRAM
    /// gathers into L1/L2 gathers — the win of tiling where the node
    /// arrays are far larger than the LLC (the paper's machines).
    Staged,
    /// Gather from the global arrays in tile order: a tile's working set
    /// is L2-sized by construction, so the hardware stages it on first
    /// touch. The right mode when the node arrays are LLC-resident and an
    /// explicit copy is pure overhead.
    Direct,
}

impl TileExec {
    /// Staging only pays when the residual path's node working set cannot
    /// live in the last-level cache.
    pub fn auto(machine: &MachineSpec, nvertices: usize) -> TileExec {
        let overflows = nvertices * RESIDUAL_BYTES_PER_VERTEX > machine.llc_bytes;
        if overflows { TileExec::Staged } else { TileExec::Direct }
    }
}

/// Which edges a kernel walks, in what order, and which endpoint rows
/// each may write.
#[derive(Clone, Copy)]
pub enum Traversal<'a> {
    /// Every edge of `geom` in order, both endpoints written; node data
    /// and edge arrays of the edges `prefetch` ahead are requested into
    /// cache (`None`: no software prefetch).
    Stream { geom: &'a EdgeGeom, prefetch: Option<usize> },
    /// Owner-only writes: share `i` walks `edges[i]` (indices into `geom`)
    /// in order and writes the endpoints `masks[i]` selects (bit 0 = `a`,
    /// bit 1 = `b`); what no mask selects is read, never written. The
    /// shares must select disjoint vertices — an [`OwnerWritesPlan`]'s
    /// do, and so does a rank's subdomain, which is one share.
    Owner { geom: &'a EdgeGeom, edges: &'a [Vec<u32>], masks: &'a [Vec<u8>] },
    /// The tiles of `tiling` in colour-major order over `geom`, which
    /// [`TiledGeom::new`] permuted for this tiling.
    Tiled { tiling: &'a EdgeTiling, geom: &'a TiledGeom, mode: TileExec },
}

impl<'a> Traversal<'a> {
    /// `Stream` without software prefetch.
    pub fn stream(geom: &'a EdgeGeom) -> Self {
        Traversal::Stream { geom, prefetch: None }
    }

    /// `Owner` over the shares of `plan`.
    pub fn owner(geom: &'a EdgeGeom, plan: &'a OwnerWritesPlan) -> Self {
        Traversal::Owner { geom, edges: &plan.edges_of, masks: &plan.writes_of }
    }
}

/// Where a traversal runs.
#[derive(Clone, Copy)]
pub enum Exec<'a> {
    /// On the calling thread, which plays every share or tile in turn.
    Caller,
    /// In one region of the pool, barrier phases included.
    Pool(&'a ThreadPool),
}

impl<'a> Exec<'a> {
    /// The context for a traversal with barrier phases (`Tiled`): the
    /// pool, unless it has more workers than there are schedulable cores —
    /// then every barrier would cost scheduler round-trips instead of
    /// spins, and the caller alone computes the same bits faster.
    pub fn unless_oversubscribed(pool: &'a ThreadPool) -> Self {
        if pool.size() > available_cores() { Exec::Caller } else { Exec::Pool(pool) }
    }
}

/// What a body reads: the arrays of the edges being walked and the
/// per-vertex arrays it gathers from (global, or a tile's scratch pad).
/// Slices, not a `&EdgeGeom`: they stay in registers across a loop, where
/// the `Vec` headers behind a reference are reloaded after every store
/// through `out`, which the compiler cannot tell apart from them.
#[derive(Clone, Copy)]
pub(crate) struct Reads<'a> {
    /// Endpoints `[a, b]` per edge.
    pub edges: &'a [[u32; 2]],
    /// Dual-face normal per edge, one slice per component.
    pub n: [&'a [f64]; 3],
    /// Across-edge coordinate delta per edge, one slice per component.
    pub r: [&'a [f64]; 3],
    /// State, 4 per vertex.
    pub q: &'a [f64],
    /// Gradients, 12 per vertex; empty for a body that reads none.
    pub grad: &'a [f64],
}

impl<'a> Reads<'a> {
    fn new(geom: &'a EdgeGeom, q: &'a [f64], grad: &'a [f64]) -> Self {
        let n = [&geom.nx[..], &geom.ny[..], &geom.nz[..]];
        let r = [&geom.rx[..], &geom.ry[..], &geom.rz[..]];
        Reads { edges: &geom.edges, n, r, q, grad }
    }

    /// Endpoints `(a, b)` of edge `k`.
    #[inline(always)]
    pub fn endpoints(&self, k: usize) -> (usize, usize) {
        (self.edges[k][0] as usize, self.edges[k][1] as usize)
    }

    /// Endpoints of four edges: the `a`s and the `b`s.
    #[inline(always)]
    pub fn endpoints4(&self, ks: [usize; 4]) -> ([usize; 4], [usize; 4]) {
        ends4([self.edges[ks[0]], self.edges[ks[1]], self.edges[ks[2]], self.edges[ks[3]]])
    }
}

/// The first and the second entries of four index pairs.
#[inline(always)]
fn ends4(e: [[u32; 2]; 4]) -> ([usize; 4], [usize; 4]) {
    (
        [e[0][0] as usize, e[1][0] as usize, e[2][0] as usize, e[3][0] as usize],
        [e[0][1] as usize, e[1][1] as usize, e[2][1] as usize, e[3][1] as usize],
    )
}

/// What an edge kernel computes at an edge. Edge `k` of `src` has the
/// endpoints `src.endpoints(k)`, whose `out` rows it updates
/// where `mask` says so (bit 0 = `a`, bit 1 = `b`); it gathers its
/// inputs from the rows `at` of `src.q`/`src.grad`, which are the
/// endpoints again unless the traversal staged a tile.
pub(crate) trait EdgeBody: Copy + Send + Sync {
    /// Doubles per vertex of `out`.
    const ROW: usize;

    /// Whether [`EdgeBody::batch`] computes four edges at once. A body
    /// with nothing to gain from that is handed single edges only.
    const BATCHED: bool = false;

    /// One edge: all of them, or with [`EdgeBody::BATCHED`] the remainder
    /// of an edge count modulo 4.
    ///
    /// # Safety
    /// The caller has exclusive access to the `out` rows of the endpoints
    /// `mask` selects (see [`VertexRows::row`]).
    unsafe fn edge<S: Simd>(
        self,
        s: S,
        src: Reads,
        k: usize,
        at: (usize, usize),
        out: VertexRows,
        mask: u8,
    );

    /// Four edges, computed together and committed in order (later ones
    /// may share vertices with earlier ones). Called iff
    /// [`EdgeBody::BATCHED`].
    ///
    /// # Safety
    /// As [`EdgeBody::edge`], for each of the four.
    #[inline(always)]
    unsafe fn batch<S: Simd>(
        self,
        _s: S,
        _src: Reads,
        _ks: [usize; 4],
        _at: ([usize; 4], [usize; 4]),
        _out: VertexRows,
        _masks: [u8; 4],
    ) {
        unreachable!("a BATCHED body implements batch")
    }

    /// Requests what edge `k` will gather from the global arrays into L1
    /// (batches only are prefetched for).
    #[inline(always)]
    fn prefetch(self, _src: Reads, _k: usize) {}
}

/// One worker of a region: its id, the region's size, and the barrier
/// between the phases of a traversal that has them, on a pool.
#[derive(Clone, Copy)]
struct Team<'a> {
    tid: usize,
    nt: usize,
    barrier: Option<&'a SpinBarrier>,
}

/// How many of `ne` edges `B` takes in batches of four.
#[inline(always)]
fn batched<B: EdgeBody>(ne: usize) -> usize {
    if B::BATCHED { ne / 4 * 4 } else { 0 }
}

/// Runs `body` over `walk` on `exec`, on the lanes `isa` names: gathers
/// from `q` (4 per vertex) and `grad` (12 per vertex, or empty),
/// accumulates into `out` ([`EdgeBody::ROW`] per vertex).
pub(crate) fn run<B: EdgeBody>(
    isa: Isa,
    exec: Exec,
    walk: Traversal,
    body: B,
    q: &[f64],
    grad: &[f64],
    out: &mut [f64],
) {
    assert_eq!(out.len(), q.len() / 4 * B::ROW);
    let nt = match exec {
        Exec::Caller => 1,
        Exec::Pool(pool) => pool.size(),
    };
    match walk {
        Traversal::Stream { .. } => assert_eq!(nt, 1, "Stream resolves no write conflict"),
        Traversal::Owner { edges, masks, .. } => assert_eq!(edges.len(), masks.len()),
        Traversal::Tiled { tiling, geom, .. } => assert_eq!(tiling.nedges, geom.geom().nedges()),
    }
    let phased = matches!((walk, exec), (Traversal::Tiled { .. }, Exec::Pool(_)));
    let barrier = phased.then(|| SpinBarrier::new(nt));
    let out = VertexRows::new(out);
    let region = |tid: usize| {
        let team = Team { tid, nt, barrier: barrier.as_ref() };
        // SAFETY: `out` views a slice exclusively borrowed for the region,
        // whose `nt` workers all run this with their own `tid` and the one
        // barrier, sized `nt`.
        with_lanes!(
            isa,
            unsafe worker<B: EdgeBody>(body: B, walk: Traversal, q: &[f64], grad: &[f64], team: Team, out: VertexRows)
        );
    };
    match exec {
        Exec::Caller => region(0),
        Exec::Pool(pool) => pool.run(region),
    }
}

/// What one worker of the region walks. Each traversal's exclusivity
/// argument is made here, once, whatever the body.
///
/// # Safety
/// Nothing outside the region touches `out`, and each of its `team.nt`
/// workers runs this with the same arguments but its own `team.tid`.
#[inline(always)]
unsafe fn worker<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    walk: Traversal,
    q: &[f64],
    grad: &[f64],
    team: Team,
    out: VertexRows,
) {
    match walk {
        Traversal::Stream { geom, prefetch } => {
            // SAFETY: whole slice — the region has one worker (`run` checks).
            unsafe { stream(s, body, Reads::new(geom, q, grad), prefetch, out) };
        }
        Traversal::Owner { geom, edges, masks } => {
            let src = Reads::new(geom, q, grad);
            for i in chunk_range(edges.len(), team.nt, team.tid) {
                // SAFETY: plan masks — a share runs on one worker, and the
                // shares select disjoint vertices (the variant's contract),
                // so every selected row has one writer.
                unsafe { owner(s, body, src, &edges[i], &masks[i], out) };
            }
        }
        Traversal::Tiled { tiling, geom, mode } => {
            let src = Reads::new(geom.geom(), q, grad);
            // SAFETY: colour classes + barrier — every worker is here with
            // the same tiling (the caller's contract).
            unsafe { colour_major(s, body, src, tiling, mode, team, out) };
        }
    }
}

/// `Stream`: all edges of `src` in order, in the body's batches.
///
/// # Safety
/// The caller has exclusive access to all of `out`.
#[inline(always)]
unsafe fn stream<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    src: Reads,
    prefetch: Option<usize>,
    out: VertexRows,
) {
    let ne = src.edges.len();
    let nbatch = batched::<B>(ne);
    for k in (0..nbatch).step_by(4) {
        if let Some(dist) = prefetch {
            let pk = k + dist;
            if pk + 4 <= ne {
                for lane in 0..4 {
                    body.prefetch(src, pk + lane);
                }
                prefetch_l2(src.n[0], pk);
                prefetch_l2(src.edges, pk);
            }
        }
        let ks = [k, k + 1, k + 2, k + 3];
        // SAFETY: all of `out` is ours per the caller's contract.
        unsafe { body.batch(s, src, ks, src.endpoints4(ks), out, [3; 4]) };
    }
    for k in nbatch..ne {
        // SAFETY: as above.
        unsafe { body.edge(s, src, k, src.endpoints(k), out, 3) };
    }
}

/// `Owner`: one share — `edges` with the aligned write `masks` — in
/// 4-edge batches of possibly non-consecutive edges, prefetching
/// [`PREFETCH_DIST`] ahead within the share.
///
/// # Safety
/// The caller has exclusive access to the `out` rows of every endpoint
/// the masks select.
#[inline(always)]
unsafe fn owner<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    src: Reads,
    edges: &[u32],
    masks: &[u8],
    out: VertexRows,
) {
    assert_eq!(edges.len(), masks.len());
    let ne = edges.len();
    let nbatch = batched::<B>(ne);
    for i in (0..nbatch).step_by(4) {
        let pi = i + PREFETCH_DIST;
        if pi + 4 <= ne {
            for lane in 0..4 {
                body.prefetch(src, edges[pi + lane] as usize);
            }
        }
        let e = &edges[i..i + 4];
        let ks = [e[0] as usize, e[1] as usize, e[2] as usize, e[3] as usize];
        let m = [masks[i], masks[i + 1], masks[i + 2], masks[i + 3]];
        // SAFETY: the masked rows are ours per the caller's contract.
        unsafe { body.batch(s, src, ks, src.endpoints4(ks), out, m) };
    }
    for i in nbatch..ne {
        let k = edges[i] as usize;
        // SAFETY: as above.
        unsafe { body.edge(s, src, k, src.endpoints(k), out, masks[i]) };
    }
}

/// A worker's scratch pad for [`TileExec::Staged`], sized to the largest
/// tile and to what the body reads — the reuse-heavy *read* side. The
/// output accumulates in the global array: the colouring makes the tile's
/// rows exclusive, and they stay cache-resident for the tile's lifetime.
struct Pad {
    q: Vec<f64>,
    grad: Vec<f64>,
}

impl Pad {
    fn new(max_verts: usize, src: Reads) -> Pad {
        let grad_width = if src.grad.is_empty() { 0 } else { 12 };
        Pad { q: vec![0.0; max_verts * 4], grad: vec![0.0; max_verts * grad_width] }
    }

    /// Copies the rows of `verts` into slots `0..`, one contiguous copy
    /// per vertex (slots are sorted by global id, so the global side is
    /// quasi-sequential), and returns `src` redirected to the pad.
    #[inline(always)]
    fn stage<'a>(&'a mut self, src: Reads<'a>, verts: &[u32]) -> Reads<'a> {
        for (l, &v) in verts.iter().enumerate() {
            let v = v as usize;
            self.q[l * 4..l * 4 + 4].copy_from_slice(&src.q[v * 4..v * 4 + 4]);
            if !src.grad.is_empty() {
                self.grad[l * 12..l * 12 + 12].copy_from_slice(&src.grad[v * 12..v * 12 + 12]);
            }
        }
        Reads { q: &self.q, grad: &self.grad, ..src }
    }
}

/// One tile: 4-edge batches over the tile's contiguous range of the
/// tile-ordered edges of `src`, from `start`, so every geometry array is a
/// pure stream. With a `pad` the tile's vertices are staged and gathered
/// through its local remap; without one the gathers go to the global
/// arrays, prefetched [`PREFETCH_DIST`] ahead to cover the first touch.
/// Staging copies values exactly: the two are bitwise identical.
///
/// # Safety
/// The caller has exclusive access to the `out` rows of this tile's
/// vertices.
#[inline(always)]
unsafe fn tile<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    src: Reads,
    tile: &Tile,
    start: usize,
    pad: Option<&mut Pad>,
    out: VertexRows,
) {
    let (src, local) = match pad {
        Some(pad) => (pad.stage(src, &tile.verts), Some(&tile.local[..])),
        None => (src, None),
    };
    // An edge gathers from its pad slots or, with no pad, its endpoints.
    let ne = tile.edges.len();
    let nbatch = batched::<B>(ne);
    for i in (0..nbatch).step_by(4) {
        let k = start + i;
        if local.is_none() && i + PREFETCH_DIST + 4 <= ne {
            for lane in 0..4 {
                body.prefetch(src, k + PREFETCH_DIST + lane);
            }
        }
        let ks = [k, k + 1, k + 2, k + 3];
        let at = match local {
            Some(l) => ends4([l[i], l[i + 1], l[i + 2], l[i + 3]]),
            None => src.endpoints4(ks),
        };
        // SAFETY: this tile's rows are ours per the caller's contract, and
        // `TiledGeom::new` put exactly the tile's edges in this range.
        unsafe { body.batch(s, src, ks, at, out, [3; 4]) };
    }
    for i in nbatch..ne {
        let at = match local {
            Some(l) => (l[i][0] as usize, l[i][1] as usize),
            None => src.endpoints(start + i),
        };
        // SAFETY: as above.
        unsafe { body.edge(s, src, start + i, at, out, 3) };
    }
}

/// One worker's share of `Tiled`: for each colour its chunk of the
/// colour's tiles, then the barrier that orders colours. Within a colour
/// every vertex is in at most one tile, so the per-vertex accumulation
/// order is the colour order at any team size.
///
/// # Safety
/// Nothing else touches `out` meanwhile, and every worker of the team
/// runs this with the same arguments: same-colour tiles are
/// vertex-disjoint and the barrier orders colours, so each `out` row has
/// one writer at a time.
#[inline(always)]
unsafe fn colour_major<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    src: Reads,
    tiling: &EdgeTiling,
    mode: TileExec,
    team: Team,
    out: VertexRows,
) {
    let mut pad = (mode == TileExec::Staged).then(|| Pad::new(tiling.max_tile_verts(), src));
    for class in &tiling.color_tiles {
        for &t in &class[chunk_range(class.len(), team.nt, team.tid)] {
            let (t, start) = (&tiling.tiles[t as usize], tiling.tile_start[t as usize]);
            // SAFETY: this tile's vertices are ours until the barrier (see
            // the function's contract).
            unsafe { tile(s, body, src, t, start as usize, pad.as_mut(), out) };
        }
        if let Some(barrier) = team.barrier {
            barrier.wait();
        }
    }
}
