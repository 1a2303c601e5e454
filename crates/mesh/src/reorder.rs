//! Locality-restoring orderings.
//!
//! The paper reorders vertex numbering with Reverse Cuthill-McKee [22] to
//! improve locality of the edge loops and narrow the Jacobian band; the
//! edge list [`Mesh::edges`](crate::Mesh::edges) returns is already sorted
//! by endpoint, so accesses stream in increasing vertex order.

use crate::Graph;

/// Computes the RCM permutation of a graph: `perm[old] = new`.
///
/// Classic algorithm: repeated BFS from a pseudo-peripheral vertex of each
/// connected component, visiting neighbors in increasing-degree order,
/// then reversing the numbering.
pub fn rcm(graph: &Graph) -> Vec<usize> {
    let n = graph.nvertices();
    let mut order: Vec<u32> = Vec::with_capacity(n); // BFS visit order
    let mut visited = vec![false; n];
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut scratch: Vec<u32> = Vec::new();

    // Process components in order of their minimum vertex id for
    // determinism.
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let root = pseudo_peripheral(graph, start as u32, &visited);
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            scratch.clear();
            scratch.extend(
                graph
                    .neighbors(v as usize)
                    .iter()
                    .copied()
                    .filter(|&u| !visited[u as usize]),
            );
            scratch.sort_unstable_by_key(|&u| graph.degree(u as usize));
            for &u in &scratch {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    debug_assert_eq!(order.len(), n);

    // Reverse and invert: vertex visited t-th from the end gets number t.
    let mut perm = vec![0usize; n];
    for (t, &v) in order.iter().rev().enumerate() {
        perm[v as usize] = t;
    }
    perm
}

/// Finds an approximate pseudo-peripheral vertex: repeat BFS, moving to a
/// minimum-degree vertex of the last (deepest) level until the
/// eccentricity stops growing.
fn pseudo_peripheral(graph: &Graph, start: u32, global_visited: &[bool]) -> u32 {
    let mut root = start;
    let mut depth = 0usize;
    for _ in 0..8 {
        // depth-capped; converges in 2-3 iterations in practice
        let (levels, max_level) = bfs_levels(graph, root, global_visited);
        if max_level <= depth {
            break;
        }
        depth = max_level;
        // minimum-degree vertex in the deepest level
        let mut best: Option<u32> = None;
        for (v, &lvl) in levels.iter().enumerate() {
            if lvl == Some(max_level) {
                let better = match best {
                    None => true,
                    Some(b) => graph.degree(v) < graph.degree(b as usize),
                };
                if better {
                    best = Some(v as u32);
                }
            }
        }
        root = best.unwrap_or(root);
    }
    root
}

fn bfs_levels(
    graph: &Graph,
    root: u32,
    global_visited: &[bool],
) -> (Vec<Option<usize>>, usize) {
    let n = graph.nvertices();
    let mut level: Vec<Option<usize>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    level[root as usize] = Some(0);
    queue.push_back(root);
    let mut max_level = 0;
    while let Some(v) = queue.pop_front() {
        let lv = level[v as usize].unwrap();
        max_level = max_level.max(lv);
        for &u in graph.neighbors(v as usize) {
            if level[u as usize].is_none() && !global_visited[u as usize] {
                level[u as usize] = Some(lv + 1);
                queue.push_back(u);
            }
        }
    }
    (level, max_level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::MeshPreset;

    fn is_permutation(p: &[usize]) -> bool {
        let mut seen = vec![false; p.len()];
        for &x in p {
            if x >= p.len() || seen[x] {
                return false;
            }
            seen[x] = true;
        }
        true
    }

    #[test]
    fn rcm_on_path_graph_is_monotone() {
        // A path graph already has bandwidth 1; RCM must preserve it.
        let g = Graph::from_edges(5, &[[0, 1], [1, 2], [2, 3], [3, 4]]);
        let perm = rcm(&g);
        assert!(is_permutation(&perm));
        let edges: Vec<[u32; 2]> = (0..4)
            .map(|i| {
                let a = perm[i] as u32;
                let b = perm[i + 1] as u32;
                if a < b {
                    [a, b]
                } else {
                    [b, a]
                }
            })
            .collect();
        let g2 = Graph::from_edges(5, &edges);
        assert_eq!(g2.bandwidth(), 1);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_mesh() {
        let m = MeshPreset::Tiny.build(); // scrambled by default
        let g = m.vertex_graph();
        let before = g.bandwidth();
        let perm = rcm(&g);
        assert!(is_permutation(&perm));
        let edges: Vec<[u32; 2]> = m
            .edges()
            .iter()
            .map(|&[a, b]| {
                let (a, b) = (perm[a as usize] as u32, perm[b as usize] as u32);
                if a < b {
                    [a, b]
                } else {
                    [b, a]
                }
            })
            .collect();
        let after = Graph::from_edges(g.nvertices(), &edges).bandwidth();
        assert!(
            after * 3 < before,
            "RCM bandwidth {after} not much better than scrambled {before}"
        );
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let g = Graph::from_edges(6, &[[0, 1], [2, 3]]); // + isolated 4, 5
        let perm = rcm(&g);
        assert!(is_permutation(&perm));
    }

    #[test]
    fn rcm_empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert!(rcm(&g).is_empty());
    }
}
