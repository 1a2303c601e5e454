//! Tile quality, plus the edge-cut and balance oracles the partitioner's
//! tests hold it to.

use crate::tiling::EdgeTiling;

/// Quality report for an [`EdgeTiling`]: how much locality the tiles
/// capture and how much parallelism the coloring leaves.
#[derive(Clone, Copy, Debug)]
pub struct TileQuality {
    /// Tiles in the tiling.
    pub ntiles: usize,
    /// Inter-tile colors (pool dispatches per kernel call).
    pub ncolors: usize,
    /// Edges covered.
    pub nedges: usize,
    /// Total vertex slots (sum of per-tile unique-vertex counts).
    pub vertex_slots: usize,
    /// Aggregate reuse: edges per vertex slot.
    pub reuse: f64,
    /// Worst tile's reuse (edges / unique vertices).
    pub min_tile_reuse: f64,
    /// Best tile's reuse.
    pub max_tile_reuse: f64,
    /// Halo fraction: share of vertex slots that are *re*-loads of a
    /// vertex another tile loads too. 0 means each vertex lives
    /// in exactly one tile; the tiled kernels pay `(1 + halo)` of the
    /// minimal vertex traffic.
    pub halo_fraction: f64,
    /// Tiles in the largest color class (peak parallelism).
    pub max_color_tiles: usize,
    /// Tiles in the smallest color class (tail parallelism).
    pub min_color_tiles: usize,
}

impl TileQuality {
    /// Evaluates a tiling.
    pub fn of(tiling: &EdgeTiling) -> TileQuality {
        let slots = tiling.vertex_slots();
        let mut min_r = f64::INFINITY;
        let mut max_r: f64 = 0.0;
        let mut touched = vec![false; tiling.nvertices];
        let mut unique = 0usize;
        for tile in &tiling.tiles {
            let r = tile.reuse_factor();
            min_r = min_r.min(r);
            max_r = max_r.max(r);
            for &v in &tile.verts {
                if !touched[v as usize] {
                    touched[v as usize] = true;
                    unique += 1;
                }
            }
        }
        if tiling.tiles.is_empty() {
            min_r = 0.0;
        }
        TileQuality {
            ntiles: tiling.ntiles(),
            ncolors: tiling.ncolors(),
            nedges: tiling.nedges,
            vertex_slots: slots,
            reuse: tiling.reuse_factor(),
            min_tile_reuse: min_r,
            max_tile_reuse: max_r,
            halo_fraction: (slots - unique) as f64 / slots.max(1) as f64,
            max_color_tiles: tiling.color_tiles.iter().map(Vec::len).max().unwrap_or(0),
            min_color_tiles: tiling.color_tiles.iter().map(Vec::len).min().unwrap_or(0),
        }
    }

    /// One-line human summary for the bench binaries.
    pub fn summary(&self) -> String {
        format!(
            "{} tiles, {} colors ({}..{} tiles/color), reuse {:.2} edges/slot \
             ({:.2}..{:.2} per tile), halo {:.1}%",
            self.ntiles,
            self.ncolors,
            self.min_color_tiles,
            self.max_color_tiles,
            self.reuse,
            self.min_tile_reuse,
            self.max_tile_reuse,
            self.halo_fraction * 100.0
        )
    }
}

/// Number of edges whose endpoints lie in different parts.
#[cfg(test)]
pub(crate) fn cut_edges(edges: &[[u32; 2]], part: &crate::Partition) -> usize {
    edges
        .iter()
        .filter(|e| part[e[0] as usize] != part[e[1] as usize])
        .count()
}

/// Load imbalance of the vertex counts: `max_part_size / ideal` (1.0 is
/// perfect). Empty parts count as size 0.
#[cfg(test)]
pub(crate) fn imbalance(part: &crate::Partition, nparts: usize) -> f64 {
    if part.is_empty() {
        return 1.0;
    }
    let mut sizes = vec![0usize; nparts];
    for &p in part.iter() {
        sizes[p as usize] += 1;
    }
    let ideal = part.len() as f64 / nparts as f64;
    *sizes.iter().max().unwrap() as f64 / ideal
}

/// Combined quality report for a partition.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PartitionQuality {
    /// Edges cut by the partition.
    pub cut: usize,
    /// Fraction of all edges cut.
    pub cut_fraction: f64,
    /// Vertex-count imbalance (1.0 = perfect).
    pub imbalance: f64,
}

#[cfg(test)]
impl PartitionQuality {
    /// Evaluates a partition against its edge list.
    pub(crate) fn of(edges: &[[u32; 2]], part: &crate::Partition, nparts: usize) -> Self {
        let cut = cut_edges(edges, part);
        PartitionQuality {
            cut,
            cut_fraction: cut as f64 / edges.len().max(1) as f64,
            imbalance: imbalance(part, nparts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::TilingConfig;
    use fun3d_mesh::generator::MeshPreset;

    #[test]
    fn tile_quality_sane_on_mesh() {
        let m = MeshPreset::Tiny.build();
        let edges = m.edges();
        let tl = EdgeTiling::build(m.nvertices(), &edges, &TilingConfig::with_target_bytes(8192));
        let q = TileQuality::of(&tl);
        assert_eq!(q.nedges, edges.len());
        assert!(q.ntiles >= 1 && q.ncolors >= 1);
        assert!(q.min_color_tiles >= 1, "empty color class");
        assert!(q.max_color_tiles >= q.min_color_tiles);
        // Reuse: a 3-D mesh tile amortizes each of its vertices over >1
        // edge in aggregate, and no tile can exceed the complete-graph
        // bound v*(v-1)/2 / v.
        assert!(q.reuse > 1.0, "aggregate reuse {}", q.reuse);
        assert!(q.min_tile_reuse > 0.0);
        assert!(q.max_tile_reuse < tl.max_tile_vertices as f64 / 2.0 + 1.0);
        assert!(q.min_tile_reuse <= q.reuse && q.reuse <= q.max_tile_reuse);
        // Halo is a proper fraction and positive (tiles must overlap on
        // a connected mesh with more than one tile).
        assert!(q.halo_fraction >= 0.0 && q.halo_fraction < 1.0);
        if q.ntiles > 1 {
            assert!(q.halo_fraction > 0.0);
        }
        // slots = unique * (1 + halo) by construction.
        let unique = (q.vertex_slots as f64 * (1.0 - q.halo_fraction)).round();
        assert!(unique <= m.nvertices() as f64 + 0.5);
        assert!(!q.summary().is_empty());
    }

    #[test]
    fn tile_quality_empty_tiling() {
        let tl = EdgeTiling::build(3, &[], &TilingConfig::with_target_bytes(4096));
        let q = TileQuality::of(&tl);
        assert_eq!(q.ntiles, 0);
        assert_eq!(q.vertex_slots, 0);
        assert_eq!(q.halo_fraction, 0.0);
    }

    #[test]
    fn cut_counts_cross_edges() {
        let edges = [[0u32, 1], [1, 2], [2, 3]];
        let part = vec![0, 0, 1, 1];
        assert_eq!(cut_edges(&edges, &part), 1);
    }

    #[test]
    fn imbalance_perfect_and_skewed() {
        assert!((imbalance(&vec![0, 0, 1, 1], 2) - 1.0).abs() < 1e-12);
        assert!((imbalance(&vec![0, 0, 0, 1], 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quality_report() {
        let edges = [[0u32, 1], [1, 2], [2, 3], [3, 0]];
        let part = vec![0, 0, 1, 1];
        let q = PartitionQuality::of(&edges, &part, 2);
        assert_eq!(q.cut, 2);
        assert!((q.cut_fraction - 0.5).abs() < 1e-12);
        assert!((q.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_partition() {
        assert_eq!(imbalance(&vec![], 4), 1.0);
        assert_eq!(cut_edges(&[], &vec![]), 0);
    }
}
