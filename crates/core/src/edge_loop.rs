//! How edges are walked: the one implementation of each write-conflict
//! strategy of Section V.A, shared by every edge kernel.
//!
//! An edge kernel is a loop — for each edge, gather two vertices, compute,
//! scatter to two vertices — and its compute is an [`EdgeBody`] (the Roe
//! flux of [`crate::flux`], lane or scalar); everything else is here:
//!
//! | [`Traversal`] | edges, order | a vertex row is written by |
//! |---|---|---|
//! | `Stream` | all of an [`EdgeGeom`], in order, optional software prefetch | the one thread |
//! | `Owner` | each share of an [`OwnerWritesPlan`] in the share's order (cut edges on both sides) | the share whose masks select it |
//! | `Tiled` | a [`TiledGeom`]'s tiles, colour by colour, scratch-staged or direct ([`TileExec`]) | the one tile of the current colour that holds it |
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
//! (Green-Gauss is not an edge loop any more: [`crate::gradient`] gathers
//! per vertex and only borrows [`row_ranges`], the pool region over vertex
//! ranges, from here.)
//!
//! **An index is checked where it is made.** The loops index with edge
//! endpoints, share edge ids and tile scratch slots, none of which they
//! check: [`EdgeGeom`], [`OwnerWritesPlan`] and [`TiledGeom`] validated
//! them when they were built and cannot be changed afterwards, [`run`]
//! checks once per call that the arrays it was handed have the lengths
//! those structures were validated against, and [`Reads`]' accessors are
//! `unsafe fn`s whose callers name that check (`debug_assert!` per access
//! in debug builds). A check per access cost the 4-edge flux batch 120 of
//! its 240 compare-and-branch instructions (EXPERIMENTS, "Residual:
//! instructions per batch").
//!
//! Per-vertex accumulation order depends on the traversal only: `Stream`
//! and `Owner` add a vertex's edges in edge order (bitwise equal to each
//! other at any thread count), `Tiled` in colour-major tile order (bitwise
//! equal across thread counts, contexts and [`TileExec`] modes).

use crate::geom::{EdgeGeom, NodeAos, TiledGeom, VertexRows, GRAD_ROW};
use fun3d_machine::{MachineSpec, RESIDUAL_BYTES_PER_VERTEX};
use fun3d_partition::{EdgeTiling, OwnerWritesPlan, Tile};
use fun3d_simd::{prefetch_l1, prefetch_l2, with_lanes, Isa, Simd};
use fun3d_threads::{available_cores, chunk_range, SpinBarrier, ThreadPool};
use std::ops::Range;

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
/// each may write. Every variant is made of validated, read-only parts, so
/// building one by hand is as safe as through the constructors.
#[derive(Clone, Copy)]
pub enum Traversal<'a> {
    /// Every edge of `geom` in order, both endpoints written; node data
    /// and edge arrays of the edges `prefetch` ahead are requested into
    /// cache (`None`: no software prefetch).
    Stream { geom: &'a EdgeGeom, prefetch: Option<usize> },
    /// Owner-only writes: share `i` of `plan` walks its edges (indices
    /// into `geom`) in order and writes the endpoints its masks select
    /// (bit 0 = `a`, bit 1 = `b`); what no mask selects is read, never
    /// written. `plan` is one made for `geom`'s edge list (the kernels
    /// check the edge count, the plan's constructors that its shares
    /// select disjoint vertices); a rank's subdomain is a plan of one
    /// share.
    Owner { geom: &'a EdgeGeom, plan: &'a OwnerWritesPlan },
    /// The tiles of `geom`'s tiling in colour-major order over the
    /// geometry [`TiledGeom::new`] permuted for it.
    Tiled { geom: &'a TiledGeom, mode: TileExec },
}

impl<'a> Traversal<'a> {
    /// `Stream` without software prefetch.
    pub fn stream(geom: &'a EdgeGeom) -> Self {
        Traversal::Stream { geom, prefetch: None }
    }

    /// `Owner` over the shares of `plan`.
    pub fn owner(geom: &'a EdgeGeom, plan: &'a OwnerWritesPlan) -> Self {
        Traversal::Owner { geom, plan }
    }

    /// The edge arrays the traversal walks (for `Tiled`, the permuted
    /// ones).
    fn geom(self) -> &'a EdgeGeom {
        match self {
            Traversal::Stream { geom, .. } | Traversal::Owner { geom, .. } => geom,
            Traversal::Tiled { geom, .. } => geom.geom(),
        }
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

    /// Workers of the context.
    fn workers(self) -> usize {
        match self {
            Exec::Caller => 1,
            Exec::Pool(pool) => pool.size(),
        }
    }
}

/// Runs `rows` once per worker of `exec`, in one region, over consecutive
/// ranges of `0..offsets.len() - 1` that together cover it and carry
/// about equal shares of the weight `offsets` prefix-sums (a CSR's row
/// offsets: the rows are balanced by entry count). On the caller that is
/// one call with the whole range.
pub(crate) fn row_ranges(exec: Exec, offsets: &[u32], rows: impl Fn(Range<usize>) + Sync) {
    let nrows = offsets.len() - 1;
    match exec {
        Exec::Caller => rows(0..nrows),
        Exec::Pool(pool) => {
            let (nt, total) = (pool.size() as u64, u64::from(offsets[nrows]));
            // The first row at or past the `t`-th share of the weight; the
            // last bound is the row count whatever the trailing weights.
            let bound = |t: u64| match t {
                t if t == nt => nrows,
                t => offsets[..nrows].partition_point(|&o| u64::from(o) < total * t / nt),
            };
            pool.run(|tid| rows(bound(tid as u64)..bound(tid as u64 + 1)));
        }
    }
}

/// What a body reads: the arrays of the edges being walked and the
/// per-vertex arrays it gathers from (global, or a tile's scratch pad).
/// Slices, not a `&EdgeGeom`: they stay in registers across a loop, where
/// the `Vec` headers behind a reference are reloaded after every store
/// through `out`, which the compiler cannot tell apart from them.
///
/// Built only here, with the invariant the unchecked accessors rest on:
/// the seven edge arrays have one length ([`EdgeGeom`]'s), and `q` and
/// `grad` have [`Reads::rows`] rows of 4 and [`GRAD_ROW`] doubles.
#[derive(Clone, Copy)]
pub(crate) struct Reads<'a> {
    edges: &'a [[u32; 2]],
    n: [&'a [f64]; 3],
    r: [&'a [f64]; 3],
    q: &'a [f64],
    grad: &'a [f64],
}

impl<'a> Reads<'a> {
    /// The edges of `geom` over the state and gradients of `node`, which
    /// must be arrays over `geom`'s vertices: with that checked, every
    /// endpoint of `geom` (`< geom.nvertices()` by [`EdgeGeom::try_new`])
    /// is a row of `q` and `grad`.
    fn new(geom: &'a EdgeGeom, node: &'a NodeAos) -> Self {
        assert_eq!(node.n, geom.nvertices(), "node arrays of another mesh");
        assert_eq!(node.q.len(), node.n * 4);
        assert_eq!(node.grad.len(), node.n * GRAD_ROW);
        Reads {
            edges: geom.edges(),
            n: geom.normals(),
            r: geom.deltas(),
            q: &node.q,
            grad: &node.grad,
        }
    }

    /// Edges walked.
    #[inline(always)]
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Rows of the per-vertex arrays gathered from.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.q.len() / 4
    }

    /// Endpoints `(a, b)` of edge `k`.
    ///
    /// # Safety
    /// `k < self.nedges()`.
    #[inline(always)]
    pub unsafe fn endpoints(&self, k: usize) -> (usize, usize) {
        debug_assert!(k < self.edges.len());
        // SAFETY: in range per the caller's contract.
        let e = unsafe { self.edges.get_unchecked(k) };
        (e[0] as usize, e[1] as usize)
    }

    /// Endpoints of four edges: the `a`s and the `b`s.
    ///
    /// # Safety
    /// Every `ks[lane] < self.nedges()`.
    #[inline(always)]
    pub unsafe fn endpoints4(&self, ks: [usize; 4]) -> ([usize; 4], [usize; 4]) {
        debug_assert!(ks.iter().all(|&k| k < self.edges.len()));
        let e = self.edges;
        // SAFETY: in range per the caller's contract.
        ends4(unsafe {
            [*e.get_unchecked(ks[0]), *e.get_unchecked(ks[1]), *e.get_unchecked(ks[2]), *e.get_unchecked(ks[3])]
        })
    }

    /// The state of row `i`, 4 doubles.
    ///
    /// # Safety
    /// `i < self.rows()`.
    #[inline(always)]
    pub unsafe fn q(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows());
        // SAFETY: `q` holds `rows()` rows of 4.
        unsafe { self.q.get_unchecked(i * 4..i * 4 + 4) }
    }

    /// The gradient row of row `i`, [`GRAD_ROW`] doubles.
    ///
    /// # Safety
    /// `i < self.rows()`.
    #[inline(always)]
    pub unsafe fn grad(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows());
        // SAFETY: `grad` holds `rows()` rows of `GRAD_ROW`.
        unsafe { self.grad.get_unchecked(i * GRAD_ROW..(i + 1) * GRAD_ROW) }
    }

    /// Requests the state and gradient rows of row `i` into L1. Any `i`
    /// will do: a prefetch checks nothing and cannot fault.
    #[inline(always)]
    pub fn prefetch_rows(&self, i: usize) {
        prefetch_l1(self.q, i * 4);
        prefetch_l1(self.grad, i * GRAD_ROW);
    }

    /// Dual-face normal of edge `k`.
    ///
    /// # Safety
    /// `k < self.nedges()`.
    #[inline(always)]
    pub unsafe fn normal(&self, k: usize) -> [f64; 3] {
        debug_assert!(k < self.edges.len());
        // SAFETY: the normal streams are as long as `edges`.
        unsafe { [*self.n[0].get_unchecked(k), *self.n[1].get_unchecked(k), *self.n[2].get_unchecked(k)] }
    }

    /// Across-edge coordinate delta of edge `k`.
    ///
    /// # Safety
    /// `k < self.nedges()`.
    #[inline(always)]
    pub unsafe fn delta(&self, k: usize) -> [f64; 3] {
        debug_assert!(k < self.edges.len());
        // SAFETY: the delta streams are as long as `edges`.
        unsafe { [*self.r[0].get_unchecked(k), *self.r[1].get_unchecked(k), *self.r[2].get_unchecked(k)] }
    }

    /// Component `d` of the normals of the edges `ks`, one edge per lane:
    /// one vector load where the edges are consecutive.
    ///
    /// # Safety
    /// Every `ks[lane] < self.nedges()`.
    #[inline(always)]
    pub unsafe fn normal_lanes<S: Simd>(&self, s: S, d: usize, ks: [usize; 4]) -> S::V {
        debug_assert!(ks.iter().all(|&k| k < self.edges.len()));
        let f = self.n[d];
        if ks[1] == ks[0] + 1 && ks[2] == ks[0] + 2 && ks[3] == ks[0] + 3 {
            // SAFETY: the normal streams are as long as `edges`, and the
            // four consecutive `ks` end at `ks[3]`, in range.
            return s.load(unsafe { f.get_unchecked(ks[0]..ks[0] + 4) });
        }
        // SAFETY: the normal streams are as long as `edges`.
        s.load(&unsafe {
            [*f.get_unchecked(ks[0]), *f.get_unchecked(ks[1]), *f.get_unchecked(ks[2]), *f.get_unchecked(ks[3])]
        })
    }
}

/// The four pairs of a slice of four.
#[inline(always)]
fn quad(l: &[[u32; 2]]) -> [[u32; 2]; 4] {
    [l[0], l[1], l[2], l[3]]
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
/// inputs from the rows `at` of `src`, which are the endpoints again
/// unless the traversal staged a tile.
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
    /// `k < src.nedges()`, both `at < src.rows()`, `out` has a row of
    /// [`EdgeBody::ROW`] for every endpoint of `src`, and the caller has
    /// exclusive access to the `out` rows of the endpoints `mask` selects
    /// (see [`VertexRows::row`]).
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
    ///
    /// # Safety
    /// `k < src.nedges()`.
    #[inline(always)]
    unsafe fn prefetch(self, _src: Reads, _k: usize) {}
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
/// from the state and gradients of `node`, accumulates into `out`
/// ([`EdgeBody::ROW`] per vertex). The once-per-call half of every
/// `SAFETY:` below is here: `node` and `out` are arrays over the vertices
/// the walk's geometry was validated against, and a plan over its edges.
pub(crate) fn run<B: EdgeBody>(
    isa: Isa,
    exec: Exec,
    walk: Traversal,
    body: B,
    node: &NodeAos,
    out: &mut [f64],
) {
    let src = Reads::new(walk.geom(), node);
    assert_eq!(out.len(), node.n * B::ROW);
    let nt = exec.workers();
    match walk {
        Traversal::Stream { .. } => assert_eq!(nt, 1, "Stream resolves no write conflict"),
        Traversal::Owner { geom, plan } => {
            assert_eq!(plan.nedges(), geom.nedges(), "a plan for another edge list")
        }
        Traversal::Tiled { .. } => {}
    }
    let phased = matches!((walk, exec), (Traversal::Tiled { .. }, Exec::Pool(_)));
    let barrier = phased.then(|| SpinBarrier::new(nt));
    let out = VertexRows::new(out);
    let region = |tid: usize| {
        let team = Team { tid, nt, barrier: barrier.as_ref() };
        // SAFETY: `out` views a slice exclusively borrowed for the region
        // with a row per vertex of `src`'s geometry (asserted above), whose
        // `nt` workers all run this with their own `tid` and the one
        // barrier, sized `nt`.
        with_lanes!(
            isa,
            unsafe worker<B: EdgeBody>(body: B, walk: Traversal, src: Reads, team: Team, out: VertexRows)
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
/// `src` reads `walk`'s geometry, `out` has a row per vertex of it, nothing
/// outside the region touches `out`, and each of its `team.nt` workers
/// runs this with the same arguments but its own `team.tid`.
#[inline(always)]
unsafe fn worker<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    walk: Traversal,
    src: Reads,
    team: Team,
    out: VertexRows,
) {
    match walk {
        Traversal::Stream { prefetch, .. } => {
            // SAFETY: whole slice — the region has one worker (`run` checks).
            unsafe { stream(s, body, src, prefetch, out) };
        }
        Traversal::Owner { plan, .. } => {
            let (edges, masks) = (plan.edges_of(), plan.writes_of());
            for i in chunk_range(edges.len(), team.nt, team.tid) {
                // SAFETY: plan — its ids are edges of `src` (`run` checked
                // the edge count it validated them against), its masks
                // align with them, a share runs on one worker, and the
                // shares select disjoint vertices, so every selected row
                // has one writer.
                unsafe { owner(s, body, src, &edges[i], &masks[i], out) };
            }
        }
        Traversal::Tiled { geom, mode } => {
            // SAFETY: colour classes + barrier — every worker is here with
            // the same tiling (the caller's contract), which
            // `TiledGeom::try_new` validated against the edges of `src`.
            unsafe { colour_major(s, body, src, geom.tiling(), mode, team, out) };
        }
    }
}

/// `Stream`: all edges of `src` in order, in the body's batches.
///
/// # Safety
/// `out` has a row per vertex of `src`'s geometry, all of it the caller's.
#[inline(always)]
unsafe fn stream<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    src: Reads,
    prefetch: Option<usize>,
    out: VertexRows,
) {
    let ne = src.nedges();
    let nbatch = batched::<B>(ne);
    for k in (0..nbatch).step_by(4) {
        if let Some(dist) = prefetch {
            let pk = k + dist;
            if pk + 4 <= ne {
                for lane in 0..4 {
                    // SAFETY: `pk + lane < ne`.
                    unsafe { body.prefetch(src, pk + lane) };
                }
                prefetch_l2(src.n[0], pk);
                prefetch_l2(src.edges, pk);
            }
        }
        let ks = [k, k + 1, k + 2, k + 3];
        // SAFETY: `k + 3 < nbatch <= ne`; the edges gather from their own
        // endpoints, rows of `src` by `Reads::new`; all of `out` is ours
        // per the caller's contract.
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
/// `edges` and `masks` are one share of an [`OwnerWritesPlan`] over the
/// edges of `src` (every id `< src.nedges()`, the two of one length),
/// `out` has a row per vertex of `src`'s geometry, and the caller has
/// exclusive access to those of every endpoint the masks select.
#[inline(always)]
unsafe fn owner<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    src: Reads,
    edges: &[u32],
    masks: &[u8],
    out: VertexRows,
) {
    debug_assert_eq!(edges.len(), masks.len());
    let ne = edges.len();
    let nbatch = batched::<B>(ne);
    for i in (0..nbatch).step_by(4) {
        if let Some(ahead) = edges.get(i + PREFETCH_DIST..i + PREFETCH_DIST + 4) {
            for &k in ahead {
                // SAFETY: a share's ids are edges of `src`.
                unsafe { body.prefetch(src, k as usize) };
            }
        }
        // SAFETY: `i + 3 < nbatch <= ne`, the length of both lists.
        let (e, m) = unsafe { (edges.get_unchecked(i..i + 4), masks.get_unchecked(i..i + 4)) };
        let ks = [e[0] as usize, e[1] as usize, e[2] as usize, e[3] as usize];
        // SAFETY: a share's ids are edges of `src`, gathered from at their
        // own endpoints; the masked rows are ours per the caller's contract.
        unsafe { body.batch(s, src, ks, src.endpoints4(ks), out, [m[0], m[1], m[2], m[3]]) };
    }
    for i in nbatch..ne {
        // SAFETY: as above, for `i < ne`.
        unsafe {
            let k = *edges.get_unchecked(i) as usize;
            body.edge(s, src, k, src.endpoints(k), out, *masks.get_unchecked(i));
        }
    }
}

/// A worker's scratch pad for [`TileExec::Staged`], sized to the largest
/// tile — the reuse-heavy *read* side. The output accumulates in the
/// global array: the colouring makes the tile's rows exclusive, and they
/// stay cache-resident for the tile's lifetime.
struct Pad {
    q: Vec<f64>,
    grad: Vec<f64>,
}

impl Pad {
    fn new(max_verts: usize) -> Pad {
        Pad { q: vec![0.0; max_verts * 4], grad: vec![0.0; max_verts * GRAD_ROW] }
    }

    /// Copies the rows of `verts` into slots `0..`, one contiguous copy
    /// per vertex (slots are sorted by global id, so the global side is
    /// quasi-sequential), and returns `src` redirected to the pad.
    ///
    /// # Safety
    /// `verts` are a tile's vertices of the [`TiledGeom`] `src` reads:
    /// rows of `src`, no more of them than the pad was sized for.
    #[inline(always)]
    unsafe fn stage<'a>(&'a mut self, src: Reads<'a>, verts: &[u32]) -> Reads<'a> {
        debug_assert!(verts.len() * 4 <= self.q.len());
        let slots = self.q.chunks_exact_mut(4).zip(self.grad.chunks_exact_mut(GRAD_ROW));
        for ((q, grad), &v) in slots.zip(verts) {
            // SAFETY: a tile's vertices are rows of `src` per the caller's
            // contract (`TiledGeom::try_new`).
            unsafe {
                q.copy_from_slice(src.q(v as usize));
                grad.copy_from_slice(src.grad(v as usize));
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
/// `tile` and `start` are a tile of the [`TiledGeom`] `src` reads and its
/// range start — so, by [`TiledGeom::try_new`], the `tile.edges.len()`
/// edges from `start` lie inside the edges of `src` and are exactly
/// the tile's, and `tile.local` has a pair per edge, each naming
/// slots `< tile.verts.len()`; a `pad` is sized for that tiling's largest
/// tile, `out` has a row per vertex of `src`'s geometry, and the caller
/// has exclusive access to those of this tile's vertices.
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
        // SAFETY: the caller's contract is `stage`'s.
        Some(pad) => (unsafe { pad.stage(src, &tile.verts) }, Some(&tile.local[..])),
        None => (src, None),
    };
    // An edge gathers from its pad slots or, with no pad, its endpoints.
    let ne = tile.edges.len();
    let nbatch = batched::<B>(ne);
    for i in (0..nbatch).step_by(4) {
        let k = start + i;
        if local.is_none() && i + PREFETCH_DIST + 4 <= ne {
            for lane in 0..4 {
                // SAFETY: inside the tile's range, which is inside `src`.
                unsafe { body.prefetch(src, k + PREFETCH_DIST + lane) };
            }
        }
        let ks = [k, k + 1, k + 2, k + 3];
        // SAFETY: a validated tile (the function's contract): its range is
        // inside `src`, `local` has `ne` pairs of slots that are rows of
        // the staged `src`, and its `out` rows are ours.
        unsafe {
            let at = match local {
                Some(l) => ends4(quad(l.get_unchecked(i..i + 4))),
                None => src.endpoints4(ks),
            };
            body.batch(s, src, ks, at, out, [3; 4]);
        }
    }
    for i in nbatch..ne {
        // SAFETY: as above.
        unsafe {
            let at = match local {
                Some(l) => (l.get_unchecked(i)[0] as usize, l.get_unchecked(i)[1] as usize),
                None => src.endpoints(start + i),
            };
            body.edge(s, src, start + i, at, out, 3);
        }
    }
}

/// One worker's share of `Tiled`: for each colour its chunk of the
/// colour's tiles, then the barrier that orders colours. Within a colour
/// every vertex is in at most one tile, so the per-vertex accumulation
/// order is the colour order at any team size.
///
/// # Safety
/// `tiling` is the validated tiling of the [`TiledGeom`] `src` reads,
/// `out` has a row per vertex of it, nothing else touches `out`
/// meanwhile, and every worker of the team runs this with the same
/// arguments: same-colour tiles are vertex-disjoint and the barrier orders
/// colours, so each `out` row has one writer at a time.
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
    let mut pad = (mode == TileExec::Staged).then(|| Pad::new(tiling.max_tile_verts()));
    for class in &tiling.color_tiles {
        for &t in &class[chunk_range(class.len(), team.nt, team.tid)] {
            let (t, start) = (&tiling.tiles[t as usize], tiling.tile_start[t as usize]);
            // SAFETY: a tile of the validated tiling and its start; its
            // vertices are ours until the barrier (see the function's
            // contract).
            unsafe { tile(s, body, src, t, start as usize, pad.as_mut(), out) };
        }
        if let Some(barrier) = team.barrier {
            barrier.wait();
        }
    }
}
