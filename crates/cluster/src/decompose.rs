//! Schwarz domain decomposition over ranks.
//!
//! Vertices are partitioned across ranks (with the multilevel
//! partitioner); each rank stores its **owned** vertices plus a one-deep
//! **ghost** layer (neighbors owned elsewhere). Edges with at least one
//! owned endpoint are processed locally (cut edges on both sides,
//! owner-only writes — the rank-level mirror of the thread strategy), and
//! ghost state is refreshed by a halo exchange before each evaluation.
//! The same structure yields the per-rank workload statistics the
//! scaling simulator charges to the machine model.

use fun3d_mesh::Graph;
use fun3d_partition::{partition_graph, MultilevelConfig, Partition};

/// One rank's piece of the domain.
#[derive(Clone, Debug)]
pub struct Subdomain {
    /// Owning rank.
    pub rank: usize,
    /// Global ids of owned vertices (ascending); local ids `0..nowned`.
    pub owned: Vec<u32>,
    /// Global ids of ghost vertices (ascending); local ids
    /// `nowned..nowned+nghost`.
    pub ghosts: Vec<u32>,
    /// Local edges as local-id pairs; every edge has ≥1 owned endpoint.
    pub edges: Vec<[u32; 2]>,
    /// Global edge id of each local edge (index into the global list).
    pub edge_gids: Vec<u32>,
    /// Write masks per local edge (bit 0: endpoint 0 owned, bit 1:
    /// endpoint 1 owned).
    pub write_masks: Vec<u8>,
    /// For each neighbor rank: `(rank, owned local ids to send)`.
    pub send_lists: Vec<(usize, Vec<u32>)>,
    /// For each neighbor rank: `(rank, ghost local ids to receive
    /// into)`, ordered to match the peer's send list.
    pub recv_lists: Vec<(usize, Vec<u32>)>,
}

impl Subdomain {
    /// Owned vertex count.
    pub fn nowned(&self) -> usize {
        self.owned.len()
    }

    /// Total local vertices (owned + ghost).
    pub(crate) fn nlocal(&self) -> usize {
        self.owned.len() + self.ghosts.len()
    }

    /// Neighbor rank count.
    pub fn nneighbors(&self) -> usize {
        self.send_lists.len()
    }

    /// Doubles sent per halo exchange (4 state vars per vertex).
    pub fn halo_doubles(&self) -> usize {
        self.send_lists.iter().map(|(_, l)| l.len() * 4).sum()
    }
}

/// The full decomposition.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Owning rank per global vertex.
    pub part: Partition,
    /// Per-rank subdomains.
    pub subdomains: Vec<Subdomain>,
}

impl Decomposition {
    /// Decomposes a global edge list over `nranks` ranks.
    pub fn build(nvertices: usize, edges: &[[u32; 2]], nranks: usize) -> Decomposition {
        let part = if nranks == 1 {
            vec![0u32; nvertices]
        } else {
            let graph = Graph::from_edges(nvertices, edges);
            partition_graph(&graph, nranks, &MultilevelConfig::default())
        };
        // One global → local map serves every rank in turn: a rank reads
        // only the entries of its own owned and ghost vertices, which it
        // writes first.
        let mut g2l = vec![0u32; nvertices];
        let subdomains = (0..nranks)
            .map(|r| build_subdomain(r, edges, &part, &mut g2l))
            .collect();
        Decomposition { part, subdomains }
    }
}

/// Builds rank `rank`'s subdomain, with `g2l` (one entry per global
/// vertex) as the scratch space of its global → local map.
fn build_subdomain(
    rank: usize,
    edges: &[[u32; 2]],
    part: &Partition,
    g2l: &mut [u32],
) -> Subdomain {
    let nvertices = part.len();
    let r = rank as u32;
    let owned: Vec<u32> = (0..nvertices as u32).filter(|&v| part[v as usize] == r).collect();

    // Ghosts: non-owned endpoints of edges touching owned vertices.
    let mut ghost_set: Vec<u32> = Vec::new();
    for e in edges {
        let p0 = part[e[0] as usize];
        let p1 = part[e[1] as usize];
        if p0 == r && p1 != r {
            ghost_set.push(e[1]);
        } else if p1 == r && p0 != r {
            ghost_set.push(e[0]);
        }
    }
    ghost_set.sort_unstable();
    ghost_set.dedup();

    for (l, &g) in owned.iter().chain(&ghost_set).enumerate() {
        g2l[g as usize] = l as u32;
    }

    // Local edges: any edge with ≥1 owned endpoint.
    let mut local_edges = Vec::new();
    let mut edge_gids = Vec::new();
    let mut masks = Vec::new();
    for (eid, e) in edges.iter().enumerate() {
        let p0 = part[e[0] as usize];
        let p1 = part[e[1] as usize];
        if p0 != r && p1 != r {
            continue;
        }
        local_edges.push([g2l[e[0] as usize], g2l[e[1] as usize]]);
        edge_gids.push(eid as u32);
        masks.push(u8::from(p0 == r) | (u8::from(p1 == r) << 1));
    }

    // Halo lists: ghosts grouped by owner; the matching send list on the
    // owner side is "my owned vertices that rank X ghosts", which both
    // sides can derive independently because both orderings are by
    // ascending global id.
    let mut recv_by: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
    for (l, &g) in ghost_set.iter().enumerate() {
        recv_by
            .entry(part[g as usize] as usize)
            .or_default()
            .push((owned.len() + l) as u32);
    }
    // send lists: owned vertices adjacent to each neighbor rank
    let mut send_globals: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
    for e in edges {
        let p0 = part[e[0] as usize] as usize;
        let p1 = part[e[1] as usize] as usize;
        if p0 == rank && p1 != rank {
            send_globals.entry(p1).or_default().push(e[0]);
        } else if p1 == rank && p0 != rank {
            send_globals.entry(p0).or_default().push(e[1]);
        }
    }
    let send_lists: Vec<(usize, Vec<u32>)> = send_globals
        .into_iter()
        .map(|(nbr, mut globals)| {
            globals.sort_unstable();
            globals.dedup();
            (nbr, globals.into_iter().map(|g| g2l[g as usize]).collect())
        })
        .collect();
    let recv_lists: Vec<(usize, Vec<u32>)> = recv_by.into_iter().collect();

    Subdomain {
        rank,
        owned,
        ghosts: ghost_set,
        edges: local_edges,
        edge_gids,
        write_masks: masks,
        send_lists,
        recv_lists,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_mesh::generator::MeshPreset;

    fn mesh_edges() -> (usize, Vec<[u32; 2]>) {
        let m = MeshPreset::Tiny.build();
        (m.nvertices(), m.edges())
    }

    #[test]
    fn owned_sets_partition_vertices() {
        let (nv, edges) = mesh_edges();
        let d = Decomposition::build(nv, &edges, 4);
        let mut count = 0;
        for s in &d.subdomains {
            count += s.nowned();
            for &g in &s.owned {
                assert_eq!(d.part[g as usize] as usize, s.rank);
            }
        }
        assert_eq!(count, nv);
    }

    #[test]
    fn ghosts_are_exactly_cut_neighbors() {
        let (nv, edges) = mesh_edges();
        let d = Decomposition::build(nv, &edges, 3);
        for s in &d.subdomains {
            for &g in &s.ghosts {
                assert_ne!(d.part[g as usize] as usize, s.rank);
                // each ghost must be adjacent to an owned vertex
                let adjacent = edges.iter().any(|e| {
                    (e[0] == g && d.part[e[1] as usize] as usize == s.rank)
                        || (e[1] == g && d.part[e[0] as usize] as usize == s.rank)
                });
                assert!(adjacent, "ghost {g} not adjacent to rank {}", s.rank);
            }
        }
    }

    #[test]
    fn every_edge_processed_and_owned_endpoints_written_once() {
        let (nv, edges) = mesh_edges();
        let d = Decomposition::build(nv, &edges, 4);
        // map each global edge to per-endpoint write count
        let mut writes = std::collections::HashMap::<[u32; 2], [u32; 2]>::new();
        for s in &d.subdomains {
            let nlocal_owned = s.nowned();
            let l2g = |l: u32| -> u32 {
                if (l as usize) < nlocal_owned {
                    s.owned[l as usize]
                } else {
                    s.ghosts[l as usize - nlocal_owned]
                }
            };
            for (le, &mask) in s.edges.iter().zip(&s.write_masks) {
                let g0 = l2g(le[0]);
                let g1 = l2g(le[1]);
                let key = if g0 < g1 { [g0, g1] } else { [g1, g0] };
                let flip = g0 > g1;
                let ent = writes.entry(key).or_insert([0, 0]);
                if mask & 1 != 0 {
                    ent[usize::from(flip)] += 1;
                }
                if mask & 2 != 0 {
                    ent[usize::from(!flip)] += 1;
                }
            }
        }
        assert_eq!(writes.len(), edges.len(), "every global edge covered");
        for (e, w) in writes {
            assert_eq!(w, [1, 1], "edge {e:?} endpoints written {w:?} times");
        }
    }

    #[test]
    fn halo_lists_match_pairwise() {
        let (nv, edges) = mesh_edges();
        let d = Decomposition::build(nv, &edges, 4);
        for s in &d.subdomains {
            for (nbr, send) in &s.send_lists {
                let peer = &d.subdomains[*nbr];
                let (_, recv) = peer
                    .recv_lists
                    .iter()
                    .find(|(r, _)| *r == s.rank)
                    .expect("peer has matching recv list");
                assert_eq!(send.len(), recv.len(), "rank {} -> {}", s.rank, nbr);
                // global ids must match elementwise
                for (sl, rl) in send.iter().zip(recv) {
                    let sg = s.owned[*sl as usize];
                    let rg = peer.ghosts[*rl as usize - peer.nowned()];
                    assert_eq!(sg, rg);
                }
            }
        }
    }

    #[test]
    fn single_rank_has_no_ghosts() {
        let (nv, edges) = mesh_edges();
        let d = Decomposition::build(nv, &edges, 1);
        let s = &d.subdomains[0];
        assert_eq!(s.nowned(), nv);
        assert!(s.ghosts.is_empty());
        assert_eq!(s.edges.len(), edges.len());
        assert!(s.write_masks.iter().all(|&m| m == 0b11));
        assert_eq!(s.nneighbors(), 0);
    }

    #[test]
    fn halo_doubles_counts_state_size() {
        let (nv, edges) = mesh_edges();
        let d = Decomposition::build(nv, &edges, 2);
        for s in &d.subdomains {
            let total: usize = s.send_lists.iter().map(|(_, l)| l.len()).sum();
            assert_eq!(s.halo_doubles(), total * 4);
        }
    }
}
