//! Multilevel k-way graph partitioning by recursive bisection.
//!
//! The same algorithm family as METIS (Karypis & Kumar [21]):
//!
//! 1. **Coarsening** — heavy-edge matching collapses matched vertex pairs,
//!    accumulating vertex and edge weights, until the graph is small;
//! 2. **Initial bisection** — greedy graph growing (BFS region growing
//!    from several random seeds, keeping the best) splits the coarsest
//!    graph near the target weights;
//! 3. **Refinement** — a Fiduccia–Mattheyses pass with rollback moves
//!    boundary vertices to reduce the cut while respecting a balance
//!    tolerance, applied at every level on the way back up;
//! 4. **Recursion** — each side is extracted as an induced subgraph and
//!    bisected again until `nparts` parts exist (non-powers of two are
//!    handled by splitting proportionally).

use crate::Partition;
use fun3d_mesh::Graph;
use fun3d_util::Rng64;

/// Tuning knobs for the multilevel partitioner.
#[derive(Clone, Copy, Debug)]
pub struct MultilevelConfig {
    /// Stop coarsening below this many vertices.
    pub coarsest: usize,
    /// FM passes per level.
    pub fm_passes: usize,
    /// Allowed imbalance of a bisection: a side may exceed its target
    /// weight by this factor.
    pub balance_tol: f64,
    /// Number of random greedy-growing attempts for the initial bisection.
    pub init_tries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsest: 48,
            fm_passes: 4,
            balance_tol: 1.03,
            init_tries: 4,
            seed: 0x4D45_5449,
        }
    }
}

/// Partitions `graph` into `nparts` parts. Returns `part[v] ∈ 0..nparts`.
pub fn partition_graph(graph: &Graph, nparts: usize, cfg: &MultilevelConfig) -> Partition {
    assert!(nparts >= 1);
    let n = graph.nvertices();
    let mut part = vec![0u32; n];
    if nparts == 1 || n == 0 {
        return part;
    }
    let wg = WGraph {
        xadj: graph.xadj.clone(),
        adj: graph.adj.clone(),
        ewgt: vec![1; graph.adj.len()],
        vwgt: vec![1; n],
    };
    let vertices: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng64::new(cfg.seed);
    recurse(&wg, &vertices, nparts, 0, &mut part, cfg, &mut rng);
    part
}

/// Weighted CSR graph used internally across coarsening levels.
struct WGraph {
    xadj: Vec<usize>,
    adj: Vec<u32>,
    ewgt: Vec<u64>,
    vwgt: Vec<u64>,
}

impl WGraph {
    fn n(&self) -> usize {
        self.vwgt.len()
    }

    fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.adj[self.xadj[v]..self.xadj[v + 1]]
            .iter()
            .copied()
            .zip(self.ewgt[self.xadj[v]..self.xadj[v + 1]].iter().copied())
    }
}

/// Recursive bisection: assigns parts `base..base+nparts` to `vertices`
/// (ids in the *original* graph; `wg` is the induced subgraph with local
/// ids aligned to `vertices`).
fn recurse(
    wg: &WGraph,
    vertices: &[u32],
    nparts: usize,
    base: u32,
    part: &mut Partition,
    cfg: &MultilevelConfig,
    rng: &mut Rng64,
) {
    if nparts == 1 {
        for &v in vertices {
            part[v as usize] = base;
        }
        return;
    }
    let left_parts = nparts / 2;
    let right_parts = nparts - left_parts;
    let frac = left_parts as f64 / nparts as f64;
    let side = bisect(wg, frac, cfg, rng);

    // Extract induced subgraphs for both sides.
    let (lg, lverts) = induced(wg, vertices, &side, false);
    let (rg, rverts) = induced(wg, vertices, &side, true);
    recurse(&lg, &lverts, left_parts, base, part, cfg, rng);
    recurse(&rg, &rverts, right_parts, base + left_parts as u32, part, cfg, rng);
}

/// Extracts the induced subgraph of the vertices with `side[v] == which`.
/// Returns the subgraph and the original ids of its vertices.
fn induced(wg: &WGraph, vertices: &[u32], side: &[bool], which: bool) -> (WGraph, Vec<u32>) {
    let n = wg.n();
    let mut local = vec![u32::MAX; n];
    let mut orig = Vec::new();
    for v in 0..n {
        if side[v] == which {
            local[v] = orig.len() as u32;
            orig.push(vertices[v]);
        }
    }
    let mut xadj = Vec::with_capacity(orig.len() + 1);
    xadj.push(0usize);
    let mut adj = Vec::new();
    let mut ewgt = Vec::new();
    let mut vwgt = Vec::with_capacity(orig.len());
    for v in 0..n {
        if side[v] != which {
            continue;
        }
        for (u, w) in wg.neighbors(v) {
            if side[u as usize] == which {
                adj.push(local[u as usize]);
                ewgt.push(w);
            }
        }
        xadj.push(adj.len());
        vwgt.push(wg.vwgt[v]);
    }
    (WGraph { xadj, adj, ewgt, vwgt }, orig)
}

/// Multilevel bisection of a weighted graph. Returns `side[v]` with
/// `false` = left (target fraction `frac` of total weight).
fn bisect(wg: &WGraph, frac: f64, cfg: &MultilevelConfig, rng: &mut Rng64) -> Vec<bool> {
    if wg.n() <= cfg.coarsest.max(2) {
        let mut side = initial_bisection(wg, frac, cfg, rng);
        fm_refine(wg, &mut side, frac, cfg);
        return side;
    }
    // Coarsen one level.
    let (coarse, map) = coarsen(wg, rng);
    // If matching stalled, bisect directly at this level.
    if coarse.n() as f64 > 0.95 * wg.n() as f64 {
        let mut side = initial_bisection(wg, frac, cfg, rng);
        fm_refine(wg, &mut side, frac, cfg);
        return side;
    }
    let coarse_side = bisect(&coarse, frac, cfg, rng);
    // Project and refine.
    let mut side: Vec<bool> = (0..wg.n()).map(|v| coarse_side[map[v] as usize]).collect();
    fm_refine(wg, &mut side, frac, cfg);
    side
}

/// Heavy-edge matching coarsening. Returns the coarse graph and the
/// fine→coarse vertex map.
fn coarsen(wg: &WGraph, rng: &mut Rng64) -> (WGraph, Vec<u32>) {
    let n = wg.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let mut mate = vec![u32::MAX; n];
    for &v in &order {
        let v = v as usize;
        if mate[v] != u32::MAX {
            continue;
        }
        // heaviest unmatched neighbor
        let mut best: Option<(u32, u64)> = None;
        for (u, w) in wg.neighbors(v) {
            if u as usize != v && mate[u as usize] == u32::MAX {
                if best.map_or(true, |(_, bw)| w > bw) {
                    best = Some((u, w));
                }
            }
        }
        match best {
            Some((u, _)) => {
                mate[v] = u;
                mate[u as usize] = v as u32;
            }
            None => mate[v] = v as u32, // stays single
        }
    }
    // Assign coarse ids (pair gets one id).
    let mut map = vec![u32::MAX; n];
    let mut nc = 0u32;
    for v in 0..n {
        if map[v] != u32::MAX {
            continue;
        }
        let m = mate[v] as usize;
        map[v] = nc;
        map[m] = nc; // m == v for singles
        nc += 1;
    }
    // Build the coarse adjacency one coarse vertex at a time: its one or
    // two fine members' edges are summed through a dense marker row
    // (`slot[cu]` is the position of `cu` in the row being built, valid
    // while `owner[cu]` is this coarse vertex), then the row is sorted.
    // Weights are integers, so the order of the sums does not matter.
    let nc = nc as usize;
    let mut members = vec![[u32::MAX; 2]; nc];
    for v in 0..n {
        let m = &mut members[map[v] as usize];
        m[usize::from(m[0] != u32::MAX)] = v as u32;
    }
    let mut owner = vec![u32::MAX; nc];
    let mut slot = vec![0usize; nc];
    let mut vwgt = vec![0u64; nc];
    let mut xadj = Vec::with_capacity(nc + 1);
    xadj.push(0usize);
    let mut row: Vec<(u32, u64)> = Vec::new();
    let mut adj = Vec::with_capacity(wg.adj.len() / 2);
    let mut ewgt = Vec::with_capacity(wg.adj.len() / 2);
    for (cv, pair) in members.iter().enumerate() {
        row.clear();
        for &v in pair.iter().filter(|&&v| v != u32::MAX) {
            let v = v as usize;
            vwgt[cv] += wg.vwgt[v];
            for (u, w) in wg.neighbors(v) {
                let cu = map[u as usize];
                if cu as usize == cv {
                    continue;
                }
                if owner[cu as usize] == cv as u32 {
                    row[slot[cu as usize]].1 += w;
                } else {
                    owner[cu as usize] = cv as u32;
                    slot[cu as usize] = row.len();
                    row.push((cu, w));
                }
            }
        }
        row.sort_unstable();
        for &(u, w) in &row {
            adj.push(u);
            ewgt.push(w);
        }
        xadj.push(adj.len());
    }
    (WGraph { xadj, adj, ewgt, vwgt }, map)
}

/// Greedy graph growing: BFS from a random seed accumulating weight until
/// the left side reaches its target; repeated `init_tries` times, keeping
/// the smallest cut.
fn initial_bisection(wg: &WGraph, frac: f64, cfg: &MultilevelConfig, rng: &mut Rng64) -> Vec<bool> {
    let n = wg.n();
    let total = wg.total_vwgt();
    let target_left = (total as f64 * frac).round() as u64;
    let mut best: Option<(u64, Vec<bool>)> = None;
    for _ in 0..cfg.init_tries.max(1) {
        let seed = rng.below(n.max(1));
        let mut side = vec![true; n]; // true = right
        let mut weight_left = 0u64;
        let mut queue = std::collections::VecDeque::new();
        let mut seen = vec![false; n];
        queue.push_back(seed as u32);
        seen[seed] = true;
        let mut next_unseen = 0usize;
        while weight_left < target_left {
            let v = match queue.pop_front() {
                Some(v) => v,
                None => {
                    // disconnected: jump to the next unseen vertex
                    while next_unseen < n && seen[next_unseen] {
                        next_unseen += 1;
                    }
                    if next_unseen >= n {
                        break;
                    }
                    seen[next_unseen] = true;
                    next_unseen as u32
                }
            };
            // Stop before overshooting badly.
            if weight_left + wg.vwgt[v as usize] > target_left
                && weight_left >= (target_left as f64 * 0.9) as u64
            {
                break;
            }
            side[v as usize] = false;
            weight_left += wg.vwgt[v as usize];
            for (u, _) in wg.neighbors(v as usize) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
        let cut = cut_weight(wg, &side);
        if best.as_ref().map_or(true, |(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.unwrap().1
}

fn cut_weight(wg: &WGraph, side: &[bool]) -> u64 {
    let mut cut = 0u64;
    for v in 0..wg.n() {
        for (u, w) in wg.neighbors(v) {
            if (u as usize) > v && side[u as usize] != side[v] {
                cut += w;
            }
        }
    }
    cut
}

/// Fiduccia–Mattheyses refinement with rollback: repeatedly move the
/// best-gain movable boundary vertex (balance permitting), lock it, and at
/// the end of the pass keep the best prefix of moves.
///
/// Every vertex's gain is computed once per pass and kept current as its
/// neighbours move. The candidates sit in a [`GainHeap`], one entry per
/// vertex keyed by its current `(gain, vertex)`: a vertex enters it when
/// it starts the pass on the boundary or a neighbour moves, and leaves it
/// when it is taken. Ties go to the higher vertex id.
fn fm_refine(wg: &WGraph, side: &mut [bool], frac: f64, cfg: &MultilevelConfig) {
    let n = wg.n();
    let total = wg.total_vwgt() as f64;
    let target_left = total * frac;
    let max_left = (target_left * cfg.balance_tol) as u64;
    let min_left = (target_left * (2.0 - cfg.balance_tol)) as u64;
    let mut heap = GainHeap::new(n);
    let mut locked = vec![false; n];

    for _pass in 0..cfg.fm_passes {
        let mut weight_left: u64 = (0..n).filter(|&v| !side[v]).map(|v| wg.vwgt[v]).sum();
        // gain[v] = cut reduction if v switches sides; a vertex is on the
        // boundary when some neighbour sits on the other side.
        heap.clear();
        for v in 0..n {
            let (mut g, mut boundary) = (0i64, false);
            for (u, w) in wg.neighbors(v) {
                if side[u as usize] != side[v] {
                    g += w as i64;
                    boundary = true;
                } else {
                    g -= w as i64;
                }
            }
            heap.gain[v] = g;
            if boundary {
                heap.insert(v);
            }
        }
        locked.fill(false);
        let mut moves: Vec<u32> = Vec::new();
        let mut cum: i64 = 0;
        let mut best_cum: i64 = 0;
        let mut best_len: usize = 0;

        while let Some(v) = heap.pop() {
            // balance check for moving v
            let new_left = if side[v] {
                weight_left + wg.vwgt[v]
            } else {
                weight_left.saturating_sub(wg.vwgt[v])
            };
            locked[v] = true; // moved or not, v is done for this pass
            if new_left > max_left || new_left < min_left {
                continue;
            }
            // apply move: a neighbour that shared v's old side gains the
            // edge's weight twice over, one across from it loses it.
            side[v] = !side[v];
            weight_left = new_left;
            moves.push(v as u32);
            cum += heap.gain[v];
            if cum > best_cum {
                best_cum = cum;
                best_len = moves.len();
            }
            for (u, w) in wg.neighbors(v) {
                let u = u as usize;
                if !locked[u] {
                    let delta = if side[u] == side[v] { -2 * w as i64 } else { 2 * w as i64 };
                    heap.add(u, delta);
                }
            }
            // Bound pass length to avoid O(n log n) churn on huge graphs.
            if moves.len() > n.min(4096) {
                break;
            }
        }
        // rollback moves beyond the best prefix
        for &v in &moves[best_len..] {
            side[v as usize] = !side[v as usize];
        }
        if best_cum == 0 {
            break; // no improvement this pass
        }
    }
}

/// A binary max-heap of vertices keyed by `(gain[v], v)` that knows where
/// each vertex sits, so a gain changes in place instead of leaving a
/// stale copy behind.
struct GainHeap {
    /// Every vertex's gain, in the heap or not.
    gain: Vec<i64>,
    heap: Vec<u32>,
    /// `pos[v]`: `v`'s index in `heap`, or [`GainHeap::ABSENT`].
    pos: Vec<u32>,
}

impl GainHeap {
    const ABSENT: u32 = u32::MAX;

    fn new(n: usize) -> GainHeap {
        GainHeap { gain: vec![0; n], heap: Vec::with_capacity(n), pos: vec![Self::ABSENT; n] }
    }

    fn clear(&mut self) {
        for &v in &self.heap {
            self.pos[v as usize] = Self::ABSENT;
        }
        self.heap.clear();
    }

    fn above(&self, a: u32, b: u32) -> bool {
        (self.gain[a as usize], a) > (self.gain[b as usize], b)
    }

    /// Adds `v` at its current gain; it must not be in the heap.
    fn insert(&mut self, v: usize) {
        debug_assert_eq!(self.pos[v], Self::ABSENT);
        self.heap.push(v as u32);
        self.pos[v] = (self.heap.len() - 1) as u32;
        self.sift_up(self.heap.len() - 1);
    }

    /// Changes `v`'s gain by `delta` and makes it a candidate, in the
    /// heap already or not.
    fn add(&mut self, v: usize, delta: i64) {
        self.gain[v] += delta;
        match self.pos[v] {
            Self::ABSENT => self.insert(v),
            i if delta > 0 => self.sift_up(i as usize),
            i => self.sift_down(i as usize),
        }
    }

    /// Takes the vertex of the highest `(gain, vertex)`.
    fn pop(&mut self) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = Self::ABSENT;
        if last != top {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top as usize)
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.above(v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.above(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !self.above(self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PartitionQuality;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_util::Gen;
    use std::collections::HashMap;

    /// Coarsening as it was first written, aggregating the coarse rows
    /// through one hash map per coarse vertex: the oracle for the marker
    /// row.
    fn reference_coarsen(wg: &WGraph, rng: &mut Rng64) -> (WGraph, Vec<u32>) {
        let n = wg.n();
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        let mut mate = vec![u32::MAX; n];
        for &v in &order {
            let v = v as usize;
            if mate[v] != u32::MAX {
                continue;
            }
            let mut best: Option<(u32, u64)> = None;
            for (u, w) in wg.neighbors(v) {
                let free = u as usize != v && mate[u as usize] == u32::MAX;
                if free && best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((u, w));
                }
            }
            match best {
                Some((u, _)) => {
                    mate[v] = u;
                    mate[u as usize] = v as u32;
                }
                None => mate[v] = v as u32,
            }
        }
        let mut map = vec![u32::MAX; n];
        let mut nc = 0u32;
        for v in 0..n {
            if map[v] != u32::MAX {
                continue;
            }
            map[v] = nc;
            map[mate[v] as usize] = nc;
            nc += 1;
        }
        let nc = nc as usize;
        let mut agg: Vec<HashMap<u32, u64>> = vec![HashMap::new(); nc];
        let mut vwgt = vec![0u64; nc];
        for v in 0..n {
            let cv = map[v];
            vwgt[cv as usize] += wg.vwgt[v];
            for (u, w) in wg.neighbors(v) {
                let cu = map[u as usize];
                if cu != cv {
                    *agg[cv as usize].entry(cu).or_insert(0) += w;
                }
            }
        }
        let (mut xadj, mut adj, mut ewgt) = (vec![0usize], Vec::new(), Vec::new());
        for row in &agg {
            let mut items: Vec<(u32, u64)> = row.iter().map(|(&u, &w)| (u, w)).collect();
            items.sort_unstable();
            for (u, w) in items {
                adj.push(u);
                ewgt.push(w);
            }
            xadj.push(adj.len());
        }
        (WGraph { xadj, adj, ewgt, vwgt }, map)
    }

    /// FM as it was first written: a lazily invalidated heap of `(gain,
    /// vertex)` copies, each gain recounted from the neighbours on every
    /// pop. The oracle for the position-tracking heap.
    fn reference_fm_refine(wg: &WGraph, side: &mut [bool], frac: f64, cfg: &MultilevelConfig) {
        let n = wg.n();
        let target_left = wg.total_vwgt() as f64 * frac;
        let max_left = (target_left * cfg.balance_tol) as u64;
        let min_left = (target_left * (2.0 - cfg.balance_tol)) as u64;
        let gain = |v: usize, side: &[bool]| -> i64 {
            wg.neighbors(v)
                .map(|(u, w)| if side[u as usize] != side[v] { w as i64 } else { -(w as i64) })
                .sum()
        };
        let is_boundary = |v: usize, side: &[bool]| wg.neighbors(v).any(|(u, _)| side[u as usize] != side[v]);
        for _pass in 0..cfg.fm_passes {
            let mut weight_left: u64 = (0..n).filter(|&v| !side[v]).map(|v| wg.vwgt[v]).sum();
            let mut locked = vec![false; n];
            let mut heap: std::collections::BinaryHeap<(i64, u32)> = (0..n)
                .filter(|&v| is_boundary(v, side))
                .map(|v| (gain(v, side), v as u32))
                .collect();
            let (mut moves, mut cum, mut best_cum, mut best_len) = (Vec::new(), 0i64, 0i64, 0usize);
            while let Some((g, v)) = heap.pop() {
                let v = v as usize;
                if locked[v] || g != gain(v, side) {
                    if !locked[v] {
                        heap.push((gain(v, side), v as u32));
                    }
                    continue;
                }
                let new_left =
                    if side[v] { weight_left + wg.vwgt[v] } else { weight_left.saturating_sub(wg.vwgt[v]) };
                if new_left > max_left || new_left < min_left {
                    locked[v] = true;
                    continue;
                }
                side[v] = !side[v];
                weight_left = new_left;
                locked[v] = true;
                moves.push(v as u32);
                cum += g;
                if cum > best_cum {
                    best_cum = cum;
                    best_len = moves.len();
                }
                for (u, _) in wg.neighbors(v) {
                    if !locked[u as usize] {
                        heap.push((gain(u as usize, side), u));
                    }
                }
                if moves.len() > n.min(4096) {
                    break;
                }
            }
            for &v in &moves[best_len..] {
                side[v as usize] = !side[v as usize];
            }
            if best_cum == 0 {
                break;
            }
        }
    }

    /// A random weighted graph: up to 60 vertices, distinct undirected
    /// edges of weight 1..=5, vertex weights 1..=3, sorted CSR rows.
    fn random_wgraph(g: &mut Gen) -> WGraph {
        let n = g.usize_range(2, 60);
        let mut edges = std::collections::BTreeMap::new();
        for _ in 0..g.usize_range(0, 4 * n) {
            let (a, b) = (g.usize_range(0, n) as u32, g.usize_range(0, n) as u32);
            if a != b {
                edges.insert((a.min(b), a.max(b)), g.usize_range(1, 6) as u64);
            }
        }
        let mut rows: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (&(a, b), &w) in &edges {
            rows[a as usize].push((b, w));
            rows[b as usize].push((a, w));
        }
        let (mut xadj, mut adj, mut ewgt) = (vec![0usize], Vec::new(), Vec::new());
        for row in &mut rows {
            row.sort_unstable();
            adj.extend(row.iter().map(|&(u, _)| u));
            ewgt.extend(row.iter().map(|&(_, w)| w));
            xadj.push(adj.len());
        }
        let vwgt = (0..n).map(|_| g.usize_range(1, 4) as u64).collect();
        WGraph { xadj, adj, ewgt, vwgt }
    }

    fn parts(wg: &WGraph) -> (&[usize], &[u32], &[u64], &[u64]) {
        (&wg.xadj, &wg.adj, &wg.ewgt, &wg.vwgt)
    }

    fun3d_util::prop_cases! {
        fn marker_row_coarsening_is_the_hash_map_oracle(g, cases = 64) {
            let wg = random_wgraph(g);
            let seed = g.u64();
            let (coarse, map) = coarsen(&wg, &mut Rng64::new(seed));
            let (want, want_map) = reference_coarsen(&wg, &mut Rng64::new(seed));
            fun3d_util::prop_assert_eq!(map, want_map);
            fun3d_util::prop_assert_eq!(parts(&coarse), parts(&want));
        }

        fn tracked_gain_fm_is_the_lazy_heap_oracle(g, cases = 64) {
            let wg = random_wgraph(g);
            let start: Vec<bool> = (0..wg.n()).map(|_| g.bool()).collect();
            let frac = [0.5, 1.0 / 3.0, 0.25][g.usize_range(0, 3)];
            let cfg = MultilevelConfig::default();
            let (mut got, mut want) = (start.clone(), start);
            fm_refine(&wg, &mut got, frac, &cfg);
            reference_fm_refine(&wg, &mut want, frac, &cfg);
            fun3d_util::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn partitions_cover_all_parts() {
        let m = MeshPreset::Tiny.build();
        let g = m.vertex_graph();
        for k in [2usize, 3, 4, 7] {
            let part = partition_graph(&g, k, &MultilevelConfig::default());
            assert_eq!(part.len(), g.nvertices());
            let mut seen = vec![false; k];
            for &p in &part {
                assert!((p as usize) < k);
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "some part empty for k={k}");
        }
    }

    #[test]
    fn balanced_within_tolerance() {
        let m = MeshPreset::Small.build();
        let g = m.vertex_graph();
        for k in [2usize, 4, 8] {
            let part = partition_graph(&g, k, &MultilevelConfig::default());
            let q = PartitionQuality::of(&m.edges(), &part, k);
            assert!(
                q.imbalance < 1.15,
                "k={k} imbalance {}",
                q.imbalance
            );
        }
    }

    #[test]
    fn beats_natural_partition_on_cut() {
        let m = MeshPreset::Small.build(); // scrambled ordering
        let g = m.vertex_graph();
        let edges = m.edges();
        let k = 8;
        let ml = partition_graph(&g, k, &MultilevelConfig::default());
        let nat = crate::natural_partition(g.nvertices(), k);
        let cut_ml = crate::metrics::cut_edges(&edges, &ml);
        let cut_nat = crate::metrics::cut_edges(&edges, &nat);
        assert!(
            (cut_ml as f64) < 0.5 * cut_nat as f64,
            "multilevel cut {cut_ml} vs natural {cut_nat}"
        );
    }

    #[test]
    fn single_part_trivial() {
        let m = MeshPreset::Tiny.build();
        let g = m.vertex_graph();
        let part = partition_graph(&g, 1, &MultilevelConfig::default());
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_with_seed() {
        let m = MeshPreset::Tiny.build();
        let g = m.vertex_graph();
        let cfg = MultilevelConfig::default();
        let a = partition_graph(&g, 4, &cfg);
        let b = partition_graph(&g, 4, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn cut_quality_reasonable_for_3d_mesh() {
        // For a good 2-way split of an N-vertex 3D mesh the cut should be
        // O(N^(2/3)); natural ordering of a scrambled mesh cuts O(E).
        let m = MeshPreset::Small.build();
        let g = m.vertex_graph();
        let edges = m.edges();
        let part = partition_graph(&g, 2, &MultilevelConfig::default());
        let q = PartitionQuality::of(&edges, &part, 2);
        assert!(
            q.cut_fraction < 0.12,
            "2-way cut fraction {} too large",
            q.cut_fraction
        );
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two disjoint triangles.
        let g = fun3d_mesh::Graph::from_edges(
            6,
            &[[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
        );
        let part = partition_graph(&g, 2, &MultilevelConfig::default());
        let q = PartitionQuality::of(
            &[[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
            &part,
            2,
        );
        assert_eq!(q.cut, 0, "disjoint triangles should split cleanly");
        assert!((q.imbalance - 1.0).abs() < 1e-9);
    }
}
