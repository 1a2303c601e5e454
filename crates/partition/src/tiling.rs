//! Cache-blocked edge tiling with inter-tile coloring.
//!
//! The paper's three write-conflict strategies (atomics, owner-writes
//! replication, per-edge coloring) all stream vertex data past the core
//! with near-zero reuse: every edge gathers its two endpoint states and
//! gradients from DRAM-resident arrays. Tiling is the next rung
//! (Sulyok et al., "Locality Optimized Unstructured Mesh Algorithms on
//! GPUs", adapted here to CPU cache blocking): group edges into *tiles*
//! whose unique-vertex working set fits a core's private L2, so that a
//! tile's first touches bring its vertices into cache and every other
//! edge of the tile reuses them there. (The GPU form also copies that
//! working set into a scratch pad first; on a cache-coherent CPU the
//! copy measured slower on every recorded mesh, so the kernels gather
//! from the node arrays directly.) Write conflicts move from the edge
//! level to the tile level:
//! tiles sharing a vertex get different colors, and same-color tiles are
//! vertex-disjoint so a thread pool can run one color's tiles in
//! parallel with no atomics and no replicated work.
//!
//! The tiler is growth-based: starting from a seed edge it absorbs
//! incident edges breadth-first (BFS preserves the RCM locality of the
//! input ordering) until the vertex budget derived from
//! [`MachineSpec::l2_bytes`] is reached, then runs a closure sweep that
//! claims every remaining unassigned edge whose endpoints are *both*
//! already in the tile — those edges are free: they add reuse without
//! adding working set.

// A tile keeps the residual path's whole per-vertex working set live.
use fun3d_machine::{MachineSpec, RESIDUAL_BYTES_PER_VERTEX as TILE_BYTES_PER_VERTEX};

/// Tiler parameters.
#[derive(Clone, Copy, Debug)]
pub struct TilingConfig {
    /// Working-set budget per tile, bytes. The tile's unique-vertex
    /// count is capped at `target_bytes / bytes_per_vertex`.
    pub target_bytes: usize,
    /// Working set per unique vertex, bytes.
    pub bytes_per_vertex: usize,
}

impl TilingConfig {
    /// Budget derived from a machine description: half the private L2,
    /// leaving the other half for the edge stream (geometry, normals,
    /// index pairs) and incidental traffic.
    pub fn for_machine(m: &MachineSpec) -> TilingConfig {
        TilingConfig {
            target_bytes: m.l2_bytes / 2,
            bytes_per_vertex: TILE_BYTES_PER_VERTEX,
        }
    }

    /// Explicit budget (tests, ablations).
    pub fn with_target_bytes(target_bytes: usize) -> TilingConfig {
        TilingConfig {
            target_bytes,
            bytes_per_vertex: TILE_BYTES_PER_VERTEX,
        }
    }

    /// Unique-vertex cap per tile. Clamped to 2 so a single edge always
    /// fits: a budget smaller than one edge's endpoint pair degenerates
    /// to one-edge tiles rather than an unbuildable tiling.
    pub fn max_tile_vertices(&self) -> usize {
        (self.target_bytes / self.bytes_per_vertex.max(1)).max(2)
    }
}

/// One edge tile: a set of edges and the vertices they touch.
#[derive(Clone, Debug)]
pub struct Tile {
    /// Global edge ids, in intra-tile processing order (ascending).
    pub edges: Vec<u32>,
    /// The tile's vertices: every endpoint of its edges, once each.
    pub verts: Vec<u32>,
}

impl Tile {
    /// Edges per unique vertex — the locality win of this tile. A
    /// streaming kernel pays two vertex gathers per edge; a tile misses
    /// cache at most once per unique vertex, so reuse > 1 means its
    /// vertices are loaded once and reused in cache.
    pub fn reuse_factor(&self) -> f64 {
        self.edges.len() as f64 / self.verts.len().max(1) as f64
    }
}

/// A complete tiling of an edge list: tiles covering every edge exactly
/// once, plus a proper inter-tile coloring (same-color tiles share no
/// vertex).
#[derive(Clone, Debug)]
pub struct EdgeTiling {
    /// The tiles, in construction order.
    pub tiles: Vec<Tile>,
    /// `color_tiles[c]` lists the tile indices of color `c`; within a
    /// color, tiles are vertex-disjoint. Every color class is non-empty
    /// by construction.
    pub color_tiles: Vec<Vec<u32>>,
    /// Tile color, indexed by tile.
    pub tile_color: Vec<u32>,
    /// Color-major edge renumbering: `perm[p]` is the original id of
    /// the edge at permuted position `p`. Tiles are laid out color by
    /// color, each tile's edges contiguous and in intra-tile order, so
    /// geometry arrays permuted by this map are walked strictly
    /// sequentially by the tiled kernels (no per-edge id gather).
    pub perm: Vec<u32>,
    /// Per tile, the start of its contiguous edge range in the
    /// permuted numbering (`tile_start[t] .. tile_start[t] +
    /// tiles[t].edges.len()`).
    pub tile_start: Vec<u32>,
    /// Edges covered (== input edge count).
    pub nedges: usize,
    /// Vertices of the tiled graph.
    pub nvertices: usize,
    /// Vertex budget the tiler ran with.
    pub max_tile_vertices: usize,
}

impl EdgeTiling {
    /// Builds a tiling of `edges` over `nvertices` vertices under `cfg`.
    ///
    /// Deterministic: seeds are taken in edge order (so an RCM-ordered
    /// edge list yields spatially coherent tiles), growth is plain BFS,
    /// and the coloring is first-fit over tiles in construction order.
    pub fn build(nvertices: usize, edges: &[[u32; 2]], cfg: &TilingConfig) -> EdgeTiling {
        let max_verts = cfg.max_tile_vertices();
        let nedges = edges.len();

        // Vertex -> incident edges, CSR.
        let mut deg = vec![0u32; nvertices];
        for e in edges {
            deg[e[0] as usize] += 1;
            deg[e[1] as usize] += 1;
        }
        let mut off = vec![0u32; nvertices + 1];
        for v in 0..nvertices {
            off[v + 1] = off[v] + deg[v];
        }
        let mut inc = vec![0u32; off[nvertices] as usize];
        let mut cursor = off.clone();
        for (eid, e) in edges.iter().enumerate() {
            for &v in e {
                inc[cursor[v as usize] as usize] = eid as u32;
                cursor[v as usize] += 1;
            }
        }

        // Generation-stamped membership marks (reset-free between tiles).
        let mut vert_stamp = vec![u32::MAX; nvertices];
        let mut assigned = vec![false; nedges];
        let mut tiles: Vec<Tile> = Vec::new();

        for seed in 0..nedges {
            if assigned[seed] {
                continue;
            }
            let tid = tiles.len() as u32;
            let mut tile = Tile {
                edges: Vec::new(),
                verts: Vec::new(),
            };
            let mut frontier: std::collections::VecDeque<u32> = std::collections::VecDeque::new();

            // Claims an edge: records it, adding any endpoint not yet in
            // the tile and enqueueing the newly reachable incident edges.
            fn take(
                eid: u32,
                tid: u32,
                edges: &[[u32; 2]],
                off: &[u32],
                inc: &[u32],
                assigned: &mut [bool],
                vert_stamp: &mut [u32],
                tile: &mut Tile,
                frontier: &mut std::collections::VecDeque<u32>,
            ) {
                assigned[eid as usize] = true;
                for &v in &edges[eid as usize] {
                    let vu = v as usize;
                    if vert_stamp[vu] != tid {
                        vert_stamp[vu] = tid;
                        tile.verts.push(v);
                        for &ie in &inc[off[vu] as usize..off[vu + 1] as usize] {
                            if !assigned[ie as usize] {
                                frontier.push_back(ie);
                            }
                        }
                    }
                }
                tile.edges.push(eid);
            }

            // Seed always fits (max_verts >= 2); grow BFS while the next
            // edge's new endpoints stay within budget.
            take(
                seed as u32,
                tid,
                edges,
                &off,
                &inc,
                &mut assigned,
                &mut vert_stamp,
                &mut tile,
                &mut frontier,
            );
            while let Some(eid) = frontier.pop_front() {
                if assigned[eid as usize] {
                    continue;
                }
                let e = edges[eid as usize];
                let new = e
                    .iter()
                    .filter(|&&v| vert_stamp[v as usize] != tid)
                    .count();
                if tile.verts.len() + new > max_verts {
                    continue; // over budget: leave for a later tile
                }
                take(
                    eid,
                    tid,
                    edges,
                    &off,
                    &inc,
                    &mut assigned,
                    &mut vert_stamp,
                    &mut tile,
                    &mut frontier,
                );
            }

            // Closure sweep: any unassigned edge with both endpoints
            // already in the tile costs no working set — pure extra reuse.
            // (BFS already absorbs most of these; this catches edges
            // skipped while their second endpoint was still outside.)
            for l in 0..tile.verts.len() {
                let vu = tile.verts[l] as usize;
                for ii in off[vu] as usize..off[vu + 1] as usize {
                    let ie = inc[ii];
                    let e = edges[ie as usize];
                    if !assigned[ie as usize]
                        && vert_stamp[e[0] as usize] == tid
                        && vert_stamp[e[1] as usize] == tid
                    {
                        take(
                            ie,
                            tid,
                            edges,
                            &off,
                            &inc,
                            &mut assigned,
                            &mut vert_stamp,
                            &mut tile,
                            &mut frontier,
                        );
                    }
                }
            }
            // Restore ascending edge order inside the tile (BFS claims
            // edges in frontier order): the compute loop then walks the
            // gathers in quasi-sequential runs the hardware prefetcher can
            // follow, instead of BFS-scattered ones.
            tile.edges.sort_unstable();
            tiles.push(tile);
        }

        // First-fit inter-tile coloring: a tile's free colors are those
        // unused by every vertex it touches (same bitmask idiom as
        // `coloring::color_edges`, but over tiles — tiles per vertex is
        // bounded by vertex degree, so 512 colors is far beyond need).
        const WORDS: usize = 8;
        let mut used = vec![[0u64; WORDS]; nvertices];
        let mut tile_color = vec![0u32; tiles.len()];
        let mut ncolors = 0usize;
        for (t, tile) in tiles.iter().enumerate() {
            let mut mask = [0u64; WORDS];
            for &v in &tile.verts {
                for w in 0..WORDS {
                    mask[w] |= used[v as usize][w];
                }
            }
            let mut c = None;
            for (w, &m) in mask.iter().enumerate() {
                let free = !m;
                if free != 0 {
                    c = Some((w * 64 + free.trailing_zeros() as usize) as u32);
                    break;
                }
            }
            let c = c.expect("more than 512 tile colors: degenerate tiling");
            for &v in &tile.verts {
                used[v as usize][(c / 64) as usize] |= 1 << (c % 64);
            }
            tile_color[t] = c;
            ncolors = ncolors.max(c as usize + 1);
        }
        let mut color_tiles = vec![Vec::new(); ncolors];
        for (t, &c) in tile_color.iter().enumerate() {
            color_tiles[c as usize].push(t as u32);
        }

        // Color-major renumbering: concatenate tile edge lists in the
        // exact order the (serial and pooled) drivers visit them.
        let mut perm = Vec::with_capacity(nedges);
        let mut tile_start = vec![0u32; tiles.len()];
        for class in &color_tiles {
            for &t in class {
                tile_start[t as usize] = perm.len() as u32;
                perm.extend_from_slice(&tiles[t as usize].edges);
            }
        }
        debug_assert_eq!(perm.len(), nedges);

        EdgeTiling {
            tiles,
            color_tiles,
            tile_color,
            perm,
            tile_start,
            nedges,
            nvertices,
            max_tile_vertices: max_verts,
        }
    }

    /// Checks everything a kernel that indexes with this tiling unchecked
    /// and writes colour-parallel relies on, against the edge list it is
    /// about to be used with — [`EdgeTiling::build`] establishes all of
    /// it, but the fields are public. `perm` is a permutation of the edge
    /// ids; tile `t`'s range `tile_start[t] .. + edges.len()` lies inside
    /// it and holds exactly the tile's edges; every tile vertex is `<
    /// nvertices`; every endpoint of a tile's edges is one of that tile's
    /// `verts` (what makes a tile's writes its own); every tile has
    /// exactly one colour and the tiles of one colour share no vertex. The
    /// error names the tile.
    pub fn validate(&self, nvertices: usize, edges: &[[u32; 2]]) -> Result<(), String> {
        let ne = edges.len();
        if self.nedges != ne || self.perm.len() != ne {
            return Err(format!(
                "a tiling of {} edges ({} permuted) for a list of {ne}",
                self.nedges,
                self.perm.len()
            ));
        }
        if self.tile_start.len() != self.tiles.len() {
            return Err(format!(
                "{} tile starts for {} tiles",
                self.tile_start.len(),
                self.tiles.len()
            ));
        }
        let mut seen = vec![false; ne];
        for (at, &k) in self.perm.iter().enumerate() {
            match seen.get_mut(k as usize) {
                None => return Err(format!("position {at} of the permutation: edge id {k} of {ne} edges")),
                Some(seen) if *seen => return Err(format!("edge {k} occurs twice in the permutation")),
                Some(seen) => *seen = true,
            }
        }
        // `member[v] == t` while tile `t` is checked and holds `v`.
        let mut member = vec![usize::MAX; nvertices];
        for (t, (tile, &start)) in self.tiles.iter().zip(&self.tile_start).enumerate() {
            let start = start as usize;
            if start + tile.edges.len() > ne {
                return Err(format!(
                    "tile {t}: {} edges, range from {start} in {ne} edges",
                    tile.edges.len()
                ));
            }
            for &v in &tile.verts {
                match member.get_mut(v as usize) {
                    Some(m) => *m = t,
                    None => return Err(format!("tile {t}: vertex {v} of {nvertices} vertices")),
                }
            }
            for (i, &eid) in tile.edges.iter().enumerate() {
                if self.perm[start + i] != eid {
                    return Err(format!("tile {t}, edge {i}: not edge {eid} of its range"));
                }
                if let Some(&end) = edges[eid as usize].iter().find(|&&v| member[v as usize] != t) {
                    return Err(format!(
                        "tile {t}, edge {i}: endpoint {end} is not one of the tile's vertices"
                    ));
                }
            }
        }
        let mut coloured = vec![false; self.tiles.len()];
        for (colour, class) in self.color_tiles.iter().enumerate() {
            let mut holder = vec![false; nvertices];
            for &t in class {
                let Some(tile) = self.tiles.get(t as usize) else {
                    return Err(format!("colour {colour}: tile {t} of {}", self.tiles.len()));
                };
                if std::mem::replace(&mut coloured[t as usize], true) {
                    return Err(format!("tile {t} has two colours"));
                }
                for &v in &tile.verts {
                    if std::mem::replace(&mut holder[v as usize], true) {
                        return Err(format!("colour {colour}: two tiles hold vertex {v}"));
                    }
                }
            }
        }
        match coloured.iter().position(|&c| !c) {
            Some(t) => Err(format!("tile {t} has no colour")),
            None => Ok(()),
        }
    }

    /// Number of tiles.
    pub fn ntiles(&self) -> usize {
        self.tiles.len()
    }

    /// Number of tile colors.
    pub fn ncolors(&self) -> usize {
        self.color_tiles.len()
    }

    /// Vertex slots across all tiles: the sum of per-tile unique-vertex
    /// counts. Each slot is at most one cache miss for the vertex's reads
    /// and one for its writes — the tiled strategy's entire vertex DRAM
    /// traffic.
    pub fn vertex_slots(&self) -> usize {
        self.tiles.iter().map(|t| t.verts.len()).sum()
    }

    /// Measured aggregate reuse factor: edges per vertex slot.
    /// The streaming kernels gather 2 vertices per edge, so the vertex
    /// traffic shrinks by `2 * reuse_factor()` relative to streaming
    /// (ignoring the cache reuse streaming already gets from RCM).
    pub fn reuse_factor(&self) -> f64 {
        self.nedges as f64 / self.vertex_slots().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;

    fn tiny_edges() -> (usize, Vec<[u32; 2]>) {
        let m = MeshPreset::Tiny.build();
        (m.nvertices(), m.edges())
    }

    fn check_invariants(nv: usize, edges: &[[u32; 2]], tl: &EdgeTiling) {
        tl.validate(nv, edges).expect("a built tiling validates against its own edges");
        // Every edge appears in exactly one tile, whose vertices are its
        // edges' endpoints, each once.
        let mut seen = vec![false; edges.len()];
        for tile in &tl.tiles {
            assert!(!tile.edges.is_empty(), "empty tile");
            let mut ends = std::collections::HashSet::new();
            for &eid in &tile.edges {
                assert!(!seen[eid as usize], "edge {eid} tiled twice");
                seen[eid as usize] = true;
                ends.extend(edges[eid as usize]);
            }
            let verts: std::collections::HashSet<u32> = tile.verts.iter().copied().collect();
            assert_eq!(verts.len(), tile.verts.len(), "a vertex twice in a tile");
            assert_eq!(verts, ends, "a tile's vertices are its edges' endpoints");
        }
        assert!(seen.iter().all(|&s| s), "uncovered edge");
        // Proper coloring: same-color tiles are vertex-disjoint, and no
        // color class is empty.
        for class in &tl.color_tiles {
            assert!(!class.is_empty(), "empty color class");
            let mut verts = std::collections::HashSet::new();
            for &t in class {
                for &v in &tl.tiles[t as usize].verts {
                    assert!(verts.insert(v), "vertex {v} shared within a color");
                }
            }
        }
        assert_eq!(tl.nedges, edges.len());
        assert_eq!(tl.nvertices, nv);
        // The color-major renumbering is a permutation, and each tile's
        // range in it reproduces the tile's own edge list.
        let mut hit = vec![false; edges.len()];
        for &e in &tl.perm {
            assert!(!hit[e as usize], "edge {e} twice in perm");
            hit[e as usize] = true;
        }
        assert_eq!(tl.tile_start.len(), tl.tiles.len());
        for (t, tile) in tl.tiles.iter().enumerate() {
            let s = tl.tile_start[t] as usize;
            assert_eq!(&tl.perm[s..s + tile.edges.len()], &tile.edges[..]);
        }
    }

    #[test]
    fn covers_and_colors_tiny_mesh() {
        let (nv, edges) = tiny_edges();
        let tl = EdgeTiling::build(nv, &edges, &TilingConfig::with_target_bytes(8192));
        check_invariants(nv, &edges, &tl);
        assert!(tl.ntiles() > 1);
        // Budget respected: 8192 / 160 = 51 vertex slots per tile.
        for tile in &tl.tiles {
            assert!(tile.verts.len() <= 51);
        }
        // A mesh tile should reuse each of its vertices more than once.
        assert!(tl.reuse_factor() > 1.0, "reuse {}", tl.reuse_factor());
    }

    #[test]
    fn l2_budget_from_machine() {
        let (nv, edges) = tiny_edges();
        let m = fun3d_machine::MachineSpec::xeon_e5_2690v2();
        let cfg = TilingConfig::for_machine(&m);
        assert_eq!(cfg.max_tile_vertices(), m.l2_bytes / 2 / TILE_BYTES_PER_VERTEX);
        let tl = EdgeTiling::build(nv, &edges, &cfg);
        check_invariants(nv, &edges, &tl);
    }

    #[test]
    fn degenerate_budget_single_edge_tiles() {
        // Budget below one edge's endpoint pair: clamps to 2 vertices,
        // so every tile is a single edge and the coloring degenerates to
        // the classic per-edge coloring.
        let (nv, edges) = tiny_edges();
        let cfg = TilingConfig::with_target_bytes(1);
        assert_eq!(cfg.max_tile_vertices(), 2);
        let tl = EdgeTiling::build(nv, &edges, &cfg);
        check_invariants(nv, &edges, &tl);
        assert_eq!(tl.ntiles(), edges.len());
        assert!((tl.reuse_factor() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn huge_budget_single_tile() {
        let (nv, edges) = tiny_edges();
        let tl = EdgeTiling::build(nv, &edges, &TilingConfig::with_target_bytes(usize::MAX));
        check_invariants(nv, &edges, &tl);
        assert_eq!(tl.ntiles(), 1);
        assert_eq!(tl.ncolors(), 1);
        assert_eq!(tl.vertex_slots(), nv); // connected mesh: every vertex once
    }

    #[test]
    fn empty_edge_list() {
        let tl = EdgeTiling::build(5, &[], &TilingConfig::with_target_bytes(4096));
        assert_eq!(tl.ntiles(), 0);
        assert_eq!(tl.ncolors(), 0);
        assert_eq!(tl.vertex_slots(), 0);
    }

    #[test]
    fn deterministic() {
        let (nv, edges) = tiny_edges();
        let cfg = TilingConfig::with_target_bytes(4096);
        let a = EdgeTiling::build(nv, &edges, &cfg);
        let b = EdgeTiling::build(nv, &edges, &cfg);
        assert_eq!(a.ntiles(), b.ntiles());
        for (ta, tb) in a.tiles.iter().zip(&b.tiles) {
            assert_eq!(ta.edges, tb.edges);
            assert_eq!(ta.verts, tb.verts);
        }
        assert_eq!(a.tile_color, b.tile_color);
    }

    #[test]
    fn reuse_grows_with_budget() {
        let (nv, edges) = tiny_edges();
        let small = EdgeTiling::build(nv, &edges, &TilingConfig::with_target_bytes(2048));
        let large = EdgeTiling::build(nv, &edges, &TilingConfig::with_target_bytes(32768));
        assert!(large.reuse_factor() > small.reuse_factor());
    }

    #[test]
    fn validate_rejects_a_colouring_that_would_race() {
        let (nv, edges) = tiny_edges();
        let build = || EdgeTiling::build(nv, &edges, &TilingConfig::with_target_bytes(4096));
        assert!(build().ncolors() > 1, "premise: several colours");
        let reject = |hostile: EdgeTiling, what: &str| {
            let e = hostile.validate(nv, &edges).expect_err(what);
            assert!(e.contains(what), "{what}: {e}");
        };
        // A tile in two colours, a tile in none, two neighbours in one.
        let mut t = build();
        let first = t.color_tiles[0][0];
        t.color_tiles[1].push(first);
        reject(t, "two colours");
        let mut t = build();
        t.color_tiles[0].pop();
        reject(t, "no colour");
        let mut t = build();
        let moved = t.color_tiles[1].pop().unwrap();
        t.color_tiles[0].push(moved);
        let e = t.validate(nv, &edges).expect_err("merged colours");
        assert!(e.contains("two tiles hold vertex") || e.contains("no colour"), "{e}");
        // And a tiling of some other edge list.
        assert!(build().validate(nv, &edges[1..]).is_err());
    }
}
