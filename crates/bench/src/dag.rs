//! The paper's *available parallelism* metric.
//!
//! Section III: "we can measure the parallelism available in a sparse
//! triangular matrix as the ratio of the total number of floating point
//! operations with the cumulative number of floating point operations in
//! the longest dependency path." Table II reports 248× for ILU-0 and 60×
//! for ILU-1 on Mesh-C.

use fun3d_sparse::Pattern;

/// Flop counts per 4×4 block operation.
const MATVEC_FLOPS: f64 = 32.0; // 16 mul + 16 add
const MATMUL_FLOPS: f64 = 128.0; // 64 mul + 64 add
const INVERT_FLOPS: f64 = 160.0; // Gauss-Jordan on 4×4, ~2/3·4³·..., rounded

/// DAG statistics for a triangular sweep or a factorization.
#[derive(Clone, Copy, Debug)]
pub struct DagStats {
    /// Total floating-point work.
    pub total_flops: f64,
    /// Work along the longest dependency path.
    pub critical_flops: f64,
    /// Depth of the DAG in rows (= number of levels).
    pub nlevels: usize,
}

impl DagStats {
    /// Available parallelism: `total / critical`.
    pub fn parallelism(&self) -> f64 {
        if self.critical_flops > 0.0 {
            self.total_flops / self.critical_flops
        } else {
            1.0
        }
    }

    /// Computes stats for a generic row DAG where `deps(i)` yields the
    /// rows `i` reads (all `< i`) and `flops(i)` is row `i`'s work.
    pub fn compute<I>(
        n: usize,
        deps: impl Fn(usize) -> I,
        flops: impl Fn(usize) -> f64,
    ) -> DagStats
    where
        I: Iterator<Item = u32>,
    {
        let mut total = 0.0;
        let mut critical = vec![0.0f64; n];
        let mut level = vec![0u32; n];
        let mut max_critical: f64 = 0.0;
        let mut max_level = 0u32;
        for i in 0..n {
            let w = flops(i);
            total += w;
            let mut cp: f64 = 0.0;
            let mut lv = 0u32;
            for d in deps(i) {
                cp = cp.max(critical[d as usize]);
                lv = lv.max(level[d as usize] + 1);
            }
            critical[i] = cp + w;
            level[i] = lv;
            max_critical = max_critical.max(critical[i]);
            max_level = max_level.max(lv);
        }
        DagStats {
            total_flops: total,
            critical_flops: max_critical,
            nlevels: max_level as usize + 1,
        }
    }

    /// Stats for the forward+backward triangular solve of the factors:
    /// row work = one matvec per off-diagonal block + one diagonal apply.
    pub fn for_trsv<'a>(l: impl Into<Pattern<'a>>, u: impl Into<Pattern<'a>>) -> DagStats {
        let (l, u): (Pattern, Pattern) = (l.into(), u.into());
        let fwd = Self::compute(
            l.nrows(),
            |i| l.row(i).iter().copied(),
            |i| MATVEC_FLOPS * l.row(i).len() as f64,
        );
        let n = u.nrows();
        let bwd = Self::compute(
            n,
            |i| u.row(n - 1 - i).iter().map(move |&c| (n - 1 - c as usize) as u32),
            |i| MATVEC_FLOPS * u.row(n - 1 - i).len() as f64 + MATVEC_FLOPS,
        );
        DagStats {
            total_flops: fwd.total_flops + bwd.total_flops,
            critical_flops: fwd.critical_flops + bwd.critical_flops,
            nlevels: fwd.nlevels + bwd.nlevels,
        }
    }

    /// Stats for the numeric factorization on a given pattern: row work =
    /// per pivot one matmul for `L_ik` plus one matmul per updated entry,
    /// plus one diagonal inversion.
    pub fn for_ilu(pattern: &[Vec<u32>]) -> DagStats {
        // Precompute the upper part sizes for the update count estimate.
        let n = pattern.len();
        let upper_len: Vec<usize> = pattern
            .iter()
            .enumerate()
            .map(|(i, row)| row.iter().filter(|&&c| (c as usize) > i).count())
            .collect();
        Self::compute(
            n,
            |i| {
                pattern[i]
                    .iter()
                    .copied()
                    .filter(move |&c| (c as usize) < i)
            },
            |i| {
                let lower: Vec<u32> = pattern[i]
                    .iter()
                    .copied()
                    .filter(|&c| (c as usize) < i)
                    .collect();
                let updates: usize = lower.iter().map(|&k| upper_len[k as usize]).sum();
                MATMUL_FLOPS * (lower.len() + updates) as f64 + INVERT_FLOPS
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_sparse::{ilu, Bcsr4};

    #[test]
    fn diagonal_dag_has_full_parallelism() {
        // No dependencies: parallelism = n.
        let s = DagStats::compute(10, |_| std::iter::empty::<u32>(), |_| 1.0);
        assert_eq!(s.nlevels, 1);
        assert!((s.parallelism() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn chain_dag_has_no_parallelism() {
        let s = DagStats::compute(
            10,
            |i| (i > 0).then(|| i as u32 - 1).into_iter(),
            |_| 1.0,
        );
        assert_eq!(s.nlevels, 10);
        assert!((s.parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_critical_path() {
        // 0 -> 2 and 1 -> 2; flops 5, 1, 1: critical = 5 + 1.
        let deps = |i: usize| -> std::vec::IntoIter<u32> {
            if i == 2 {
                vec![0u32, 1].into_iter()
            } else {
                vec![].into_iter()
            }
        };
        let s = DagStats::compute(3, deps, |i| if i == 0 { 5.0 } else { 1.0 });
        assert!((s.critical_flops - 6.0).abs() < 1e-12);
        assert!((s.total_flops - 7.0).abs() < 1e-12);
    }

    #[test]
    fn ilu1_has_less_parallelism_than_ilu0() {
        // Table II's qualitative claim on a real mesh pattern.
        let m = fun3d_mesh::generator::MeshPreset::Small.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(3);
        let p0 = ilu::symbolic_iluk(&a, 0);
        let p1 = ilu::symbolic_iluk(&a, 1);
        let f0 = ilu::factor(&a, &p0, ilu::TempBuffer::Compressed);
        let f1 = ilu::factor(&a, &p1, ilu::TempBuffer::Compressed);
        let s0 = DagStats::for_trsv(&f0.l, &f0.u);
        let s1 = DagStats::for_trsv(&f1.l, &f1.u);
        assert!(
            s0.parallelism() > 1.5 * s1.parallelism(),
            "ILU0 parallelism {} vs ILU1 {}",
            s0.parallelism(),
            s1.parallelism()
        );
    }

    #[test]
    fn ilu_dag_parallelism_positive() {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        let p = ilu::symbolic_iluk(&a, 0);
        let s = DagStats::for_ilu(&p);
        assert!(s.parallelism() > 1.0);
        assert!(s.total_flops > 0.0);
    }
}
