//! The factor storage format held to its two promises, on random block
//! patterns rather than meshes:
//!
//! * **bitwise** — single precision is storage only and every kernel fixes
//!   its order of operations, so every way of computing or applying the
//!   factors gives the same bits: compressed vs [`TempBuffer::Full`],
//!   fresh vs in place, serial vs team refactorization, serial vs P2P
//!   sweeps at any thread count, portable vs AVX2 lanes;
//! * **accurate** — where ILU is the exact LU, the solve's residual, taken
//!   with the `f64` matrix by [`Bcsr4::spmv`] (not by anything that reads
//!   the factors), is `f32`-storage small.

use crate::ilu::{self, IluFactors, IluSymbolic, TempBuffer};
use crate::trsv::{self, Sweep};
use crate::{p2p, Bcsr4, P2pSchedule};
use fun3d_simd::Isa;
use fun3d_threads::{TeamSlice, ThreadPool};
use fun3d_util::proptest_mini::Gen;

const THREADS: [usize; 5] = [1, 2, 3, 4, 7];

fn lanes() -> impl Iterator<Item = Isa> {
    [Some(Isa::portable()), Isa::avx2()].into_iter().flatten()
}

/// Every stored factor value, bit for bit.
pub(crate) fn factor_bits(f: &IluFactors) -> Vec<u32> {
    let values = [&f.l.blocks, &f.u.blocks, &f.dinv].into_iter().flatten();
    values.map(|x| x.to_bits()).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A diagonally dominant matrix of 1–48 block rows: every row holds its
/// diagonal and each column within `reach` of it with probability
/// `density`/4 — or all of them (`density = 4`), the full band on which
/// ILU(0) is the exact LU.
fn banded(g: &mut Gen, density: usize) -> Bcsr4 {
    let (n, reach) = (g.usize_range(1, 49), g.usize_range(1, 7));
    let rows: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            let band = i.saturating_sub(reach)..(i + reach + 1).min(n);
            let kept = band.filter(|&j| j == i || g.usize_range(0, 4) < density);
            kept.map(|j| j as u32).collect()
        })
        .collect();
    let mut a = Bcsr4::from_pattern(&rows);
    a.fill_diag_dominant(g.u64());
    a
}

/// Both sweeps on the lanes of `isa`, serial row order.
fn serial_solve_on(isa: Isa, f: &IluFactors, b: &[f64]) -> Vec<f64> {
    let (mut y, mut x) = (vec![0.0; b.len()], vec![0.0; b.len()]);
    let n = f.nrows();
    // SAFETY: distinct vectors, one thread, the serial row orders.
    unsafe {
        let (bv, yv, xv) = (
            trsv::read_only(b),
            TeamSlice::new(&mut y),
            TeamSlice::new(&mut x),
        );
        trsv::run_rows(isa, Sweep::Forward, f, bv, yv, &(0..n));
        trsv::run_rows(isa, Sweep::Backward, f, yv, xv, &(0..n).rev());
    }
    x
}

/// `Err` names the first computation whose bits differ.
fn every_path_agrees(a: &Bcsr4, fill: usize) -> Result<(), String> {
    let pattern = ilu::symbolic_iluk(a, fill);
    let sym = IluSymbolic::new(a, &pattern);
    let fresh = sym.factor(a);
    let want = factor_bits(&fresh);
    if factor_bits(&ilu::factor(a, &pattern, TempBuffer::Full)) != want {
        return Err("compressed vs full buffer".into());
    }
    let n = a.dim();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 64.0).collect();
    let x = trsv::solve(&fresh, &b);
    let mut kept = sym.allocate();
    for isa in lanes() {
        kept.l.blocks.fill(f32::NAN);
        kept.u.blocks.fill(1e30);
        kept.dinv.fill(f32::NAN);
        sym.refactor_on(isa, a, &mut kept);
        if factor_bits(&kept) != want {
            return Err(format!("in place vs fresh, {} lanes", isa.name()));
        }
        if bits(&serial_solve_on(isa, &fresh, &b)) != bits(&x) {
            return Err(format!("serial sweeps, {} lanes vs detected", isa.name()));
        }
    }
    for nt in THREADS {
        let pool = ThreadPool::new(nt);
        let fwd = P2pSchedule::forward(sym.l_pattern(), nt);
        let bwd = P2pSchedule::backward(sym.u_pattern(), nt);
        let progress = fwd.progress();
        for isa in lanes() {
            kept.dinv.fill(f32::NAN);
            sym.refactor_team_on(isa, a, &mut kept, &pool, &fwd, &progress);
            if factor_bits(&kept) != want {
                return Err(format!(
                    "team vs serial refactor, nt {nt}, {} lanes",
                    isa.name()
                ));
            }
        }
        if bits(&p2p::solve_p2p(&kept, &b, &pool, &fwd, &bwd)) != bits(&x) {
            return Err(format!("P2P vs serial sweeps, nt {nt}"));
        }
    }
    Ok(())
}

fun3d_util::prop_cases! {
    fn every_way_of_factoring_and_sweeping_gives_the_same_bits(g, cases = 10) {
        let density = g.usize_range(1, 4);
        let a = banded(g, density);
        for fill in [0usize, 1] {
            let outcome = every_path_agrees(&a, fill);
            fun3d_util::prop_assert!(
                outcome.is_ok(),
                "{} rows, density {density}/4, ILU({fill}): {outcome:?}",
                a.nrows()
            );
        }
    }

    fn exact_lu_solves_to_f32_storage_accuracy_by_the_f64_matrix(g, cases = 16) {
        // A full band suffers no fill outside itself: ILU(0) is the LU.
        let a = banded(g, 4);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|_| g.f64_range(-128.0, 128.0)).collect();
        for fill in [0usize, 1] {
            let x = trsv::solve(&ilu::iluk(&a, fill), &b);
            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|r| r * r).sum::<f64>().sqrt();
            let residual = norm(&mut ax.iter().zip(&b).map(|(p, q)| p - q));
            let scale = norm(&mut b.iter().copied());
            fun3d_util::prop_assert!(
                residual <= 1e-5 * scale,
                "{} rows, ILU({fill}): |Ax - b| / |b| = {:e}",
                a.nrows(),
                residual / scale
            );
        }
    }
}
