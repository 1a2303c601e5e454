//! Level scheduling for sparse triangular operations.
//!
//! Rows are grouped into *levels* (wavefronts) of the dependency DAG: a
//! row's level is one more than the maximum level of the rows it reads
//! (Anderson & Saad [24], Naumov [25]). Rows in a level are independent,
//! so a level-scheduled sweep runs each level in parallel with a barrier
//! between consecutive levels. The paper's observed weaknesses — load
//! imbalance because level widths shrink rapidly, and one barrier per
//! level on the critical path — are exactly what [`crate::p2p`] improves
//! on, and the barrier-per-level sweep itself is not kept: the schedule
//! feeds the P2P row ownership and Fig. 7a's model of the level row.

use crate::Pattern;

/// Rows grouped by DAG level.
#[derive(Clone, Debug)]
pub struct LevelSchedule {
    /// `rows[l]` = rows in level `l`, ascending.
    pub rows: Vec<Vec<u32>>,
}

impl LevelSchedule {
    /// Builds the schedule for the forward solve: row `i` depends on the
    /// columns of `L` row `i`.
    pub fn forward<'a>(l: impl Into<Pattern<'a>>) -> LevelSchedule {
        let l = l.into();
        Self::build(l, 0..l.nrows(), |dep, row| dep < row)
    }

    /// Builds the schedule for the backward solve: row `i` depends on the
    /// columns of `U` row `i` (all greater than `i`; levels count from the
    /// last row).
    pub fn backward<'a>(u: impl Into<Pattern<'a>>) -> LevelSchedule {
        let u = u.into();
        Self::build(u, (0..u.nrows()).rev(), |dep, row| dep > row)
    }

    /// `order` is the serial sweep's row order, in which every row comes
    /// after the rows it reads (`precedes(dep, row)`).
    fn build(
        pattern: Pattern,
        order: impl Iterator<Item = usize>,
        precedes: impl Fn(usize, usize) -> bool,
    ) -> LevelSchedule {
        let n = pattern.nrows();
        let mut level = vec![0u32; n];
        let mut width: Vec<usize> = Vec::new();
        for i in order {
            let mut lv = 0u32;
            for &d in pattern.row(i) {
                debug_assert!(precedes(d as usize, i), "dependency must precede the row");
                lv = lv.max(level[d as usize] + 1);
            }
            level[i] = lv;
            // A row sits at most one level above the deepest so far.
            if lv as usize == width.len() {
                width.push(0);
            }
            width[lv as usize] += 1;
        }
        let mut rows: Vec<Vec<u32>> = width.iter().map(|&w| Vec::with_capacity(w)).collect();
        for (i, &lv) in level.iter().enumerate() {
            rows[lv as usize].push(i as u32);
        }
        LevelSchedule { rows }
    }

    /// Number of levels (barriers = levels − 1 per sweep).
    pub fn nlevels(&self) -> usize {
        self.rows.len()
    }

    /// Total rows scheduled.
    pub fn nrows(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Average rows per level — the parallelism a barrier-per-level
    /// execution can actually use.
    pub fn avg_width(&self) -> f64 {
        self.nrows() as f64 / self.nlevels().max(1) as f64
    }

    /// Maximum level width.
    pub fn max_width(&self) -> usize {
        self.rows.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu::{self, IluFactors};
    use crate::Bcsr4;

    fn mesh_factors(seed: u64) -> (Bcsr4, IluFactors) {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(seed);
        let f = ilu::ilu0(&a);
        (a, f)
    }

    #[test]
    fn forward_schedule_is_topological() {
        let (_, f) = mesh_factors(31);
        let sched = LevelSchedule::forward(&f.l);
        assert_eq!(sched.nrows(), f.nrows());
        // level of each dep must be strictly smaller
        let mut level_of = vec![0usize; f.nrows()];
        for (lv, rows) in sched.rows.iter().enumerate() {
            for &r in rows {
                level_of[r as usize] = lv;
            }
        }
        for i in 0..f.nrows() {
            for k in f.l.row_ptr[i]..f.l.row_ptr[i + 1] {
                let j = f.l.col_idx[k] as usize;
                assert!(level_of[j] < level_of[i]);
            }
        }
    }

    #[test]
    fn backward_schedule_is_topological() {
        let (_, f) = mesh_factors(32);
        let sched = LevelSchedule::backward(&f.u);
        let mut level_of = vec![0usize; f.nrows()];
        for (lv, rows) in sched.rows.iter().enumerate() {
            for &r in rows {
                level_of[r as usize] = lv;
            }
        }
        for i in 0..f.nrows() {
            for k in f.u.row_ptr[i]..f.u.row_ptr[i + 1] {
                let j = f.u.col_idx[k] as usize;
                assert!(level_of[j] < level_of[i], "row {i} dep {j}");
            }
        }
    }

    #[test]
    fn width_statistics() {
        let (_, f) = mesh_factors(34);
        let sched = LevelSchedule::forward(&f.l);
        assert!(sched.nlevels() > 1);
        assert!(sched.max_width() >= sched.avg_width() as usize);
        assert!(sched.avg_width() >= 1.0);
    }

    #[test]
    fn diagonal_matrix_single_level() {
        let mut a = Bcsr4::from_pattern(&[vec![0], vec![1], vec![2]]);
        a.fill_diag_dominant(35);
        let f = ilu::ilu0(&a);
        let sched = LevelSchedule::forward(&f.l);
        assert_eq!(sched.nlevels(), 1);
        assert_eq!(sched.rows[0].len(), 3);
    }
}
