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
//! | `Tiled` | a [`TiledGeom`]'s tiles, colour by colour, each tile's edges a contiguous stream gathering straight from the node arrays | the one tile of the current colour that holds it |
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
//! endpoints, share edge ids and tile edge ranges, none of which they
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
//! equal across thread counts and contexts).

use crate::geom::{EdgeGeom, NodeAos, TiledGeom, VertexRows, GRAD_ROW};
use fun3d_partition::{EdgeTiling, OwnerWritesPlan, Tile};
use fun3d_simd::{prefetch_l1, prefetch_l2, with_lanes, Isa, Simd};
use fun3d_threads::{available_cores, chunk_range, SpinBarrier, ThreadPool};
use std::ops::Range;

/// Prefetch distance in edges. Tuned: the `prefetch_dist` microbench
/// group sweeps 4/8/16/32 on this host (`target/experiments/microbench.csv`);
/// 8 and 16 tie within noise, 4 and 32 are measurably worse.
pub const PREFETCH_DIST: usize = 16;

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
    /// geometry [`TiledGeom::new`] permuted for it, gathering from the
    /// node arrays directly: a tile's working set is L2-sized by
    /// construction, so the hardware stages it on first touch. (Copying
    /// each tile's vertices into a scratch pad first, Sulyok et al.'s GPU
    /// staging, measured slower on every recorded mesh; EXPERIMENTS,
    /// "Tiled edge kernels".)
    Tiled { geom: &'a TiledGeom },
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
            Traversal::Tiled { geom } => geom.geom(),
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
    pub(crate) fn unless_oversubscribed(pool: &'a ThreadPool) -> Self {
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
/// per-vertex arrays it gathers from.
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
    pub(crate) fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Rows of the per-vertex arrays gathered from.
    #[inline(always)]
    pub(crate) fn rows(&self) -> usize {
        self.q.len() / 4
    }

    /// Endpoints `(a, b)` of edge `k`.
    ///
    /// # Safety
    /// `k < self.nedges()`.
    #[inline(always)]
    pub(crate) unsafe fn endpoints(&self, k: usize) -> (usize, usize) {
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
    pub(crate) unsafe fn endpoints4(&self, ks: [usize; 4]) -> ([usize; 4], [usize; 4]) {
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
    pub(crate) unsafe fn q(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows());
        // SAFETY: `q` holds `rows()` rows of 4.
        unsafe { self.q.get_unchecked(i * 4..i * 4 + 4) }
    }

    /// The gradient row of row `i`, [`GRAD_ROW`] doubles.
    ///
    /// # Safety
    /// `i < self.rows()`.
    #[inline(always)]
    pub(crate) unsafe fn grad(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows());
        // SAFETY: `grad` holds `rows()` rows of `GRAD_ROW`.
        unsafe { self.grad.get_unchecked(i * GRAD_ROW..(i + 1) * GRAD_ROW) }
    }

    /// Requests the state and gradient rows of row `i` into L1. Any `i`
    /// will do: a prefetch checks nothing and cannot fault.
    #[inline(always)]
    pub(crate) fn prefetch_rows(&self, i: usize) {
        prefetch_l1(self.q, i * 4);
        prefetch_l1(self.grad, i * GRAD_ROW);
    }

    /// Dual-face normal of edge `k`.
    ///
    /// # Safety
    /// `k < self.nedges()`.
    #[inline(always)]
    pub(crate) unsafe fn normal(&self, k: usize) -> [f64; 3] {
        debug_assert!(k < self.edges.len());
        // SAFETY: the normal streams are as long as `edges`.
        unsafe { [*self.n[0].get_unchecked(k), *self.n[1].get_unchecked(k), *self.n[2].get_unchecked(k)] }
    }

    /// Across-edge coordinate delta of edge `k`.
    ///
    /// # Safety
    /// `k < self.nedges()`.
    #[inline(always)]
    pub(crate) unsafe fn delta(&self, k: usize) -> [f64; 3] {
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
    pub(crate) unsafe fn normal_lanes<S: Simd>(&self, s: S, d: usize, ks: [usize; 4]) -> S::V {
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

/// The first and the second entries of four index pairs.
#[inline(always)]
fn ends4(e: [[u32; 2]; 4]) -> ([usize; 4], [usize; 4]) {
    (
        [e[0][0] as usize, e[1][0] as usize, e[2][0] as usize, e[3][0] as usize],
        [e[0][1] as usize, e[1][1] as usize, e[2][1] as usize, e[3][1] as usize],
    )
}

/// What an edge kernel computes at an edge. Edge `k` of `src` has the
/// endpoints `src.endpoints(k)`: it gathers its inputs from their rows of
/// `src` and updates their `out` rows where `mask` says so (bit 0 = `a`,
/// bit 1 = `b`).
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
    /// `k < src.nedges()`, `out` has a row of [`EdgeBody::ROW`] for every
    /// endpoint of `src`, and the caller has exclusive access to the `out`
    /// rows of the endpoints `mask` selects (see [`VertexRows::row`]).
    unsafe fn edge<S: Simd>(self, s: S, src: Reads, k: usize, out: VertexRows, mask: u8);

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
        Traversal::Tiled { geom } => {
            // SAFETY: colour classes + barrier — every worker is here with
            // the same tiling (the caller's contract), which
            // `TiledGeom::try_new` validated against the edges of `src`.
            unsafe { colour_major(s, body, src, geom.tiling(), team, out) };
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
        // SAFETY: `k + 3 < nbatch <= ne`; all of `out` is ours per the
        // caller's contract.
        unsafe { body.batch(s, src, [k, k + 1, k + 2, k + 3], out, [3; 4]) };
    }
    for k in nbatch..ne {
        // SAFETY: as above.
        unsafe { body.edge(s, src, k, out, 3) };
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
        // SAFETY: a share's ids are edges of `src`; the masked rows are
        // ours per the caller's contract.
        unsafe { body.batch(s, src, ks, out, [m[0], m[1], m[2], m[3]]) };
    }
    for i in nbatch..ne {
        // SAFETY: as above, for `i < ne`.
        unsafe { body.edge(s, src, *edges.get_unchecked(i) as usize, out, *masks.get_unchecked(i)) };
    }
}

/// One tile: 4-edge batches over the tile's contiguous range of the
/// tile-ordered edges of `src`, from `start`, so every geometry array is a
/// pure stream, and the gathers go to the node arrays, prefetched
/// [`PREFETCH_DIST`] ahead within the tile to cover the first touch.
///
/// # Safety
/// `tile` and `start` are a tile of the [`TiledGeom`] `src` reads and its
/// range start — so, by [`TiledGeom::try_new`], the `tile.edges.len()`
/// edges from `start` lie inside the edges of `src` and are exactly the
/// tile's, and their endpoints are the tile's vertices; `out` has a row
/// per vertex of `src`'s geometry, and the caller has exclusive access to
/// those of this tile's vertices.
#[inline(always)]
unsafe fn tile<S: Simd, B: EdgeBody>(
    s: S,
    body: B,
    src: Reads,
    tile: &Tile,
    start: usize,
    out: VertexRows,
) {
    let ne = tile.edges.len();
    let nbatch = batched::<B>(ne);
    for i in (0..nbatch).step_by(4) {
        let k = start + i;
        if i + PREFETCH_DIST + 4 <= ne {
            for lane in 0..4 {
                // SAFETY: inside the tile's range, which is inside `src`.
                unsafe { body.prefetch(src, k + PREFETCH_DIST + lane) };
            }
        }
        // SAFETY: a validated tile (the function's contract): its range is
        // inside `src`, and the `out` rows of its endpoints are ours.
        unsafe { body.batch(s, src, [k, k + 1, k + 2, k + 3], out, [3; 4]) };
    }
    for i in nbatch..ne {
        // SAFETY: as above.
        unsafe { body.edge(s, src, start + i, out, 3) };
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
    team: Team,
    out: VertexRows,
) {
    for class in &tiling.color_tiles {
        for &t in &class[chunk_range(class.len(), team.nt, team.tid)] {
            let (t, start) = (&tiling.tiles[t as usize], tiling.tile_start[t as usize]);
            // SAFETY: a tile of the validated tiling and its start; its
            // vertices are ours until the barrier (see the function's
            // contract).
            unsafe { tile(s, body, src, t, start as usize, out) };
        }
        if let Some(barrier) = team.barrier {
            barrier.wait();
        }
    }
}
