//! Compressed sparse row (CSR) adjacency graphs.
//!
//! Used for vertex adjacency (RCM reordering, partitioning) and as the
//! symbolic pattern backing the block-sparse Jacobian.

/// An undirected graph in CSR form: neighbors of `v` are
/// `adj[xadj[v]..xadj[v+1]]`, stored sorted; every edge appears in both
/// endpoint lists.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    /// Row pointers, length `n + 1`.
    pub xadj: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    pub adj: Vec<u32>,
}

impl Graph {
    /// Builds the CSR adjacency from a deduplicated undirected edge list.
    pub fn from_edges(nvertices: usize, edges: &[[u32; 2]]) -> Self {
        let mut degree = vec![0usize; nvertices];
        for e in edges {
            degree[e[0] as usize] += 1;
            degree[e[1] as usize] += 1;
        }
        let mut xadj = vec![0usize; nvertices + 1];
        for v in 0..nvertices {
            xadj[v + 1] = xadj[v] + degree[v];
        }
        let mut adj = vec![0u32; xadj[nvertices]];
        let mut cursor = xadj.clone();
        for e in edges {
            let (u, v) = (e[0] as usize, e[1] as usize);
            adj[cursor[u]] = e[1];
            cursor[u] += 1;
            adj[cursor[v]] = e[0];
            cursor[v] += 1;
        }
        for v in 0..nvertices {
            adj[xadj[v]..xadj[v + 1]].sort_unstable();
        }
        Graph { xadj, adj }
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub(crate) fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub(crate) fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub(crate) fn max_degree(&self) -> usize {
        (0..self.nvertices()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The graph bandwidth: `max |u - v|` over edges. A proxy for data
    /// locality of edge loops — RCM exists to shrink it.
    pub fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for v in 0..self.nvertices() {
            for &u in self.neighbors(v) {
                bw = bw.max((u as usize).abs_diff(v));
            }
        }
        bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[[0, 1], [1, 2], [2, 3]])
    }

    #[test]
    fn csr_structure() {
        let g = path4();
        assert_eq!(g.nvertices(), 4);
        assert_eq!(g.adj.len(), 2 * 3, "each edge stored at both ends");
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, &[[4, 0], [0, 2], [1, 0], [0, 3]]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn bandwidth_of_path_and_star() {
        assert_eq!(path4().bandwidth(), 1);
        let star = Graph::from_edges(5, &[[0, 4], [1, 4], [2, 4], [3, 4]]);
        assert_eq!(star.bandwidth(), 4);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Graph::from_edges(3, &[]);
        assert!(g.adj.is_empty());
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.bandwidth(), 0);
    }
}
