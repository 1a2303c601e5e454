//! Owner-only-writes edge work plans with replication accounting.
//!
//! Given a vertex→thread assignment, a thread processes every edge that
//! touches at least one vertex it owns, but *writes* only its own
//! endpoints ("owner-only writes"). Edges whose endpoints belong to two
//! different threads are therefore processed twice — the **replication
//! overhead** the paper quantifies: 41% with natural-order splitting at 20
//! threads, 4% with METIS, ~15% at 240 threads on many-core.

use crate::Partition;

/// Per-thread edge work lists for the owner-only-writes strategy.
///
/// The fields are private because the threaded edge loops index with them
/// unchecked and write through them unsynchronized: every constructor
/// establishes that each share's edge ids are `< nedges`, that the masks
/// align with the ids, and that no vertex is written by two shares, and
/// nothing can change a plan afterwards.
#[derive(Clone, Debug)]
pub struct OwnerWritesPlan {
    edges_of: Vec<Vec<u32>>,
    writes_of: Vec<Vec<u8>>,
    processed: usize,
    nedges: usize,
}

impl OwnerWritesPlan {
    /// Builds the plan for an edge list and a vertex partition over
    /// `nthreads` threads.
    pub fn build(edges: &[[u32; 2]], part: &Partition, nthreads: usize) -> Self {
        let mut edges_of: Vec<Vec<u32>> = vec![Vec::new(); nthreads];
        let mut writes_of: Vec<Vec<u8>> = vec![Vec::new(); nthreads];
        let mut processed = 0usize;
        for (eid, e) in edges.iter().enumerate() {
            let p0 = part[e[0] as usize] as usize;
            let p1 = part[e[1] as usize] as usize;
            if p0 == p1 {
                edges_of[p0].push(eid as u32);
                writes_of[p0].push(0b11);
                processed += 1;
            } else {
                edges_of[p0].push(eid as u32);
                writes_of[p0].push(0b01);
                edges_of[p1].push(eid as u32);
                writes_of[p1].push(0b10);
                processed += 2;
            }
        }
        OwnerWritesPlan {
            edges_of,
            writes_of,
            processed,
            nedges: edges.len(),
        }
    }

    /// A plan from shares made elsewhere (a rank's subdomain is one share
    /// over all of its local edges): share `i` walks `edges_of[i]`
    /// (indices into `edges`) and writes the endpoints `writes_of[i]`
    /// selects. Fails, naming the share and the position, when an id is
    /// not an edge, a mask is not aligned or has bits above 1, or two
    /// shares select the same vertex.
    pub fn try_from_shares(
        edges: &[[u32; 2]],
        edges_of: Vec<Vec<u32>>,
        writes_of: Vec<Vec<u8>>,
    ) -> Result<Self, String> {
        if edges_of.len() != writes_of.len() {
            return Err(format!("{} edge lists but {} mask lists", edges_of.len(), writes_of.len()));
        }
        let nv = edges.iter().flatten().map(|&v| v as usize + 1).max().unwrap_or(0);
        let mut writer = vec![u32::MAX; nv];
        for (share, (ids, masks)) in edges_of.iter().zip(&writes_of).enumerate() {
            if ids.len() != masks.len() {
                return Err(format!("share {share}: {} edges but {} masks", ids.len(), masks.len()));
            }
            for (at, (&eid, &mask)) in ids.iter().zip(masks).enumerate() {
                let Some(e) = edges.get(eid as usize) else {
                    return Err(format!(
                        "share {share}, position {at}: edge id {eid} of {} edges",
                        edges.len()
                    ));
                };
                if mask > 0b11 {
                    return Err(format!("share {share}, position {at}: write mask {mask:#b}"));
                }
                for side in 0..2 {
                    if mask & (1 << side) == 0 {
                        continue;
                    }
                    let w = &mut writer[e[side] as usize];
                    if *w != u32::MAX && *w != share as u32 {
                        return Err(format!(
                            "share {share}, position {at}: vertex {} is already written by share {w}",
                            e[side]
                        ));
                    }
                    *w = share as u32;
                }
            }
        }
        Ok(OwnerWritesPlan {
            processed: edges_of.iter().map(Vec::len).sum(),
            edges_of,
            writes_of,
            nedges: edges.len(),
        })
    }

    /// For each thread, the edge ids it processes, all `< nedges()`
    /// (ascending when [`OwnerWritesPlan::build`] made them).
    pub fn edges_of(&self) -> &[Vec<u32>] {
        &self.edges_of
    }

    /// For each thread, aligned with [`OwnerWritesPlan::edges_of`]: bit 0
    /// set = this thread writes endpoint 0 of the edge, bit 1 = endpoint 1.
    pub fn writes_of(&self) -> &[Vec<u8>] {
        &self.writes_of
    }

    /// Number of unique edges of the list the plan was made for.
    pub fn nedges(&self) -> usize {
        self.nedges
    }

    /// Number of threads in the plan.
    pub(crate) fn nthreads(&self) -> usize {
        self.edges_of.len()
    }

    /// Redundant-compute fraction: `processed / nedges - 1`
    /// (0.41 = the paper's "41% increase in compute").
    pub fn replication_overhead(&self) -> f64 {
        if self.nedges == 0 {
            0.0
        } else {
            self.processed as f64 / self.nedges as f64 - 1.0
        }
    }

    /// Edge-work imbalance: `max_thread_edges / ideal` where ideal =
    /// processed / nthreads.
    pub fn work_imbalance(&self) -> f64 {
        if self.processed == 0 {
            return 1.0;
        }
        self.max_thread_edges() as f64 * self.nthreads() as f64 / self.processed as f64
    }

    /// Edge count processed by the busiest thread (the parallel critical
    /// path of the edge loop under this plan).
    pub(crate) fn max_thread_edges(&self) -> usize {
        self.edges_of.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{natural_partition, partition_graph, MultilevelConfig};
    use fun3d_mesh::generator::MeshPreset;

    #[test]
    fn interior_edges_processed_once() {
        // 4 vertices on thread 0 and 1; edge [0,1] interior to t0,
        // [2,3] interior to t1, [1,2] cut.
        let edges = [[0u32, 1], [2, 3], [1, 2]];
        let part = vec![0, 0, 1, 1];
        let plan = OwnerWritesPlan::build(&edges, &part, 2);
        assert_eq!(plan.processed, 4);
        assert_eq!(plan.edges_of()[0], vec![0, 2]);
        assert_eq!(plan.edges_of()[1], vec![1, 2]);
        assert!((plan.replication_overhead() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn write_masks_cover_each_endpoint_exactly_once() {
        let m = MeshPreset::Tiny.build();
        let edges = m.edges();
        let g = m.vertex_graph();
        let part = partition_graph(&g, 4, &MultilevelConfig::default());
        let plan = OwnerWritesPlan::build(&edges, &part, 4);
        // Each endpoint of each edge must be written by exactly one thread.
        let mut writes = vec![[0u8; 2]; edges.len()];
        for t in 0..plan.nthreads() {
            for (k, &eid) in plan.edges_of()[t].iter().enumerate() {
                let mask = plan.writes_of()[t][k];
                if mask & 1 != 0 {
                    writes[eid as usize][0] += 1;
                }
                if mask & 2 != 0 {
                    writes[eid as usize][1] += 1;
                }
            }
        }
        assert!(writes.iter().all(|w| w[0] == 1 && w[1] == 1));
    }

    #[test]
    fn writer_owns_the_vertex() {
        let m = MeshPreset::Tiny.build();
        let edges = m.edges();
        let part = natural_partition(m.nvertices(), 3);
        let plan = OwnerWritesPlan::build(&edges, &part, 3);
        for t in 0..3 {
            for (k, &eid) in plan.edges_of()[t].iter().enumerate() {
                let mask = plan.writes_of()[t][k];
                let e = edges[eid as usize];
                if mask & 1 != 0 {
                    assert_eq!(part[e[0] as usize] as usize, t);
                }
                if mask & 2 != 0 {
                    assert_eq!(part[e[1] as usize] as usize, t);
                }
            }
        }
    }

    #[test]
    fn metis_style_replication_much_lower_than_natural() {
        let m = MeshPreset::Small.build();
        let edges = m.edges();
        let g = m.vertex_graph();
        let nt = 8;
        let nat = OwnerWritesPlan::build(&edges, &natural_partition(m.nvertices(), nt), nt);
        let ml = OwnerWritesPlan::build(
            &edges,
            &partition_graph(&g, nt, &MultilevelConfig::default()),
            nt,
        );
        assert!(
            ml.replication_overhead() < 0.5 * nat.replication_overhead(),
            "multilevel {} vs natural {}",
            ml.replication_overhead(),
            nat.replication_overhead()
        );
    }

    #[test]
    fn single_thread_no_replication() {
        let m = MeshPreset::Tiny.build();
        let edges = m.edges();
        let plan = OwnerWritesPlan::build(&edges, &vec![0; m.nvertices()], 1);
        assert_eq!(plan.replication_overhead(), 0.0);
        assert_eq!(plan.max_thread_edges(), edges.len());
        assert!((plan.work_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shares_from_outside_are_validated() {
        let edges = [[0u32, 1], [2, 3], [1, 2]];
        let good = OwnerWritesPlan::try_from_shares(
            &edges,
            vec![vec![0, 2], vec![1, 2]],
            vec![vec![0b11, 0b01], vec![0b11, 0b10]],
        )
        .expect("the plan `build` makes for this cut");
        assert_eq!((good.processed, good.nedges()), (4, 3));
        let err = |ids: Vec<Vec<u32>>, masks: Vec<Vec<u8>>| {
            OwnerWritesPlan::try_from_shares(&edges, ids, masks).expect_err("hostile shares")
        };
        // An id one past the last edge, named with its share and position.
        let e = err(vec![vec![0, 3]], vec![vec![0b11, 0b11]]);
        assert!(e.contains("share 0, position 1") && e.contains("edge id 3 of 3"), "{e}");
        // Masks shorter than the ids, a mask with a third bit, and a
        // vertex (1) two shares would both write.
        assert!(err(vec![vec![0, 1]], vec![vec![0b11]]).contains("2 edges but 1 masks"));
        assert!(err(vec![vec![0]], vec![vec![0b111]]).contains("write mask"));
        let e = err(vec![vec![0], vec![2]], vec![vec![0b11], vec![0b01]]);
        assert!(e.contains("vertex 1 is already written by share 0"), "{e}");
    }

    #[test]
    fn empty_edges() {
        let plan = OwnerWritesPlan::build(&[], &vec![0, 1], 2);
        assert_eq!(plan.replication_overhead(), 0.0);
        assert_eq!(plan.work_imbalance(), 1.0);
    }
}
