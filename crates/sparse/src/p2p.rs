//! Sparsified point-to-point synchronization (Park et al. [26]).
//!
//! Level scheduling made cheap: **the levels decide which thread owns a
//! row, point-to-point waits replace the level barriers.**
//!
//! * *Ownership.* The rows of each DAG level ([`LevelSchedule`]) are cut
//!   into `nthreads` contiguous shares of near-equal block count, and a
//!   thread's program is its share of level 0, then of level 1, … — so at
//!   any moment the threads work side by side on the same few levels. (A
//!   contiguous cut of the natural row order, which this module once
//!   used, puts the whole band-limited dependency chain across every cut:
//!   thread *t* cannot start before thread *t − 1* has all but finished,
//!   and the sweep is serial however few waits it needs.)
//! * *Waits.* Every thread publishes how many rows of its program it has
//!   finished ([`P2pProgress`]); a row that reads a row owned by another
//!   thread waits for that thread's count to pass the producer's
//!   position. Two sparsifications shrink the synchronization:
//!   1. **per-thread aggregation** — waiting for position `p` of thread
//!      `t` implies every earlier row of `t` is done, so only the
//!      *maximum* needed position per producer thread is waited on;
//!   2. **transitive reduction over program order** — a thread's rows
//!      execute in order, so a wait already performed by an earlier row
//!      of the same thread never needs repeating.
//!
//! A program is ordered by level and a row only waits on rows of lower
//! levels, so the threads cannot wait on each other in a cycle.
//! [`P2pSchedule::makespan`] replays a schedule without threads: it is the
//! deadlock check, and `total work / makespan`
//! ([`P2pSchedule::speedup_bound`]) is the speed-up the schedule allows — what the tests hold above a floor and the Fig. 7
//! models charge as the critical path.
//!
//! The forward schedule also drives the numeric ILU refactorization
//! ([`crate::IluSymbolic::refactor_team`]): row `i` of the factorization
//! reads exactly the rows its `L` pattern names.

use crate::ilu::IluFactors;
use crate::trsv::{self, RowOrder, Sweep};
use crate::{LevelSchedule, Pattern};
use fun3d_simd::Isa;
use fun3d_threads::{P2pProgress, TeamSlice, ThreadPool};

/// A P2P schedule for one triangular sweep direction, stored flat: the
/// threads' programs back to back, and per program slot the waits that
/// must complete before its row runs.
#[derive(Clone, Debug)]
pub struct P2pSchedule {
    /// Thread `t`'s program is the slots `prog_ptr[t]..prog_ptr[t + 1]`.
    prog_ptr: Vec<usize>,
    /// The row each slot processes.
    rows: Vec<u32>,
    /// Slot `s` performs `waits[wait_ptr[s]..wait_ptr[s + 1]]` first.
    wait_ptr: Vec<u32>,
    /// `(producer thread, position)`: wait until the producer has
    /// published more than `position` rows of its program.
    waits: Vec<(u32, u32)>,
    /// Cross-thread dependency edges before sparsification.
    pub raw_cross_deps: usize,
}

impl P2pSchedule {
    /// Builds the forward-sweep schedule from the `L` pattern: row `i`
    /// depends on the columns of `L` row `i`.
    pub fn forward<'a>(l: impl Into<Pattern<'a>>, nthreads: usize) -> P2pSchedule {
        let l = l.into();
        let levels = LevelSchedule::forward(l);
        let programs = level_interleaved(l, &levels, nthreads, false);
        Self::from_programs(l, &programs)
    }

    /// Builds the backward-sweep schedule from the `U` pattern: row `i`
    /// depends on the columns of `U` row `i` (all `> i`), and the rows of
    /// a level are taken in descending order, as the serial sweep does.
    pub fn backward<'a>(u: impl Into<Pattern<'a>>, nthreads: usize) -> P2pSchedule {
        let u = u.into();
        let levels = LevelSchedule::backward(u);
        let programs = level_interleaved(u, &levels, nthreads, true);
        Self::from_programs(u, &programs)
    }

    /// The sparsified waits of given programs — the second half of
    /// [`P2pSchedule::forward`] / [`P2pSchedule::backward`], public so
    /// that a figure can hold another row assignment against theirs.
    /// `programs[t]` is thread `t`'s rows in execution order; together
    /// they hold every row once, and a row follows the rows it reads that
    /// share its program. Whether programs can deadlock across threads is
    /// for [`P2pSchedule::makespan`] to say.
    pub fn from_programs(deps: Pattern, programs: &[Vec<u32>]) -> P2pSchedule {
        let (n, nthreads) = (deps.nrows(), programs.len());
        assert!(nthreads >= 1);
        assert_eq!(programs.iter().map(Vec::len).sum::<usize>(), n);
        const UNSET: u32 = u32::MAX;
        let mut owner = vec![UNSET; n];
        let mut position = vec![0u32; n];
        let mut prog_ptr = Vec::with_capacity(nthreads + 1);
        let mut rows = Vec::with_capacity(n);
        prog_ptr.push(0);
        for (t, program) in programs.iter().enumerate() {
            for (pos, &row) in program.iter().enumerate() {
                assert_eq!(owner[row as usize], UNSET, "row {row} is scheduled twice");
                owner[row as usize] = t as u32;
                position[row as usize] = pos as u32;
            }
            rows.extend_from_slice(program);
            prog_ptr.push(rows.len());
        }

        let mut wait_ptr = Vec::with_capacity(n + 1);
        let mut waits = Vec::new();
        let mut raw_cross_deps = 0usize;
        wait_ptr.push(0);
        // Per producer thread: the position this row needs, and the last
        // one this program has already waited for.
        let mut needed = vec![-1i64; nthreads];
        for (t, program) in programs.iter().enumerate() {
            let mut last_waited = vec![-1i64; nthreads];
            for &row in program {
                needed.fill(-1);
                for &d in deps.row(row as usize) {
                    let (pt, p) = (owner[d as usize] as usize, position[d as usize]);
                    if pt != t {
                        raw_cross_deps += 1;
                        needed[pt] = needed[pt].max(p as i64);
                    } else {
                        assert!(
                            p < position[row as usize],
                            "row {row} is scheduled before row {d}, which it reads"
                        );
                    }
                }
                for (pt, &p) in needed.iter().enumerate() {
                    if p > last_waited[pt] {
                        waits.push((pt as u32, p as u32));
                        last_waited[pt] = p;
                    }
                }
                wait_ptr.push(u32::try_from(waits.len()).expect("waits fit u32"));
            }
        }
        P2pSchedule {
            prog_ptr,
            rows,
            wait_ptr,
            waits,
            raw_cross_deps,
        }
    }

    /// Number of threads.
    pub fn nthreads(&self) -> usize {
        self.prog_ptr.len() - 1
    }

    /// Thread `t`'s rows in execution order.
    pub fn program(&self, t: usize) -> &[u32] {
        &self.rows[self.prog_ptr[t]..self.prog_ptr[t + 1]]
    }

    /// The waits of program slot `s` (slots number the programs' rows
    /// back to back).
    #[inline]
    fn waits_of_slot(&self, s: usize) -> &[(u32, u32)] {
        &self.waits[self.wait_ptr[s] as usize..self.wait_ptr[s + 1] as usize]
    }

    /// Total waits after sparsification.
    pub fn nwaits(&self) -> usize {
        self.waits.len()
    }

    /// Waits thread `t` performs in one sweep.
    pub fn nwaits_of(&self, t: usize) -> usize {
        (self.wait_ptr[self.prog_ptr[t + 1]] - self.wait_ptr[self.prog_ptr[t]]) as usize
    }

    /// Progress counters sized for this schedule's programs.
    pub fn progress(&self) -> P2pProgress {
        let longest = (0..self.nthreads()).map(|t| self.program(t).len()).max();
        P2pProgress::new(self.nthreads(), longest.unwrap_or(0))
    }

    /// The time the sweep takes when row `r` costs `weights[r]`, a wait
    /// that finds its producer done costs nothing and every thread runs
    /// whenever it is not waiting: a replay of the programs and waits
    /// without threads. `weights.sum() / makespan` bounds the speed-up
    /// the schedule allows, whatever the synchronization costs.
    ///
    /// # Panics
    /// When the replay stalls before every row has run: the programs wait
    /// on each other in a cycle, and the threaded sweep would hang.
    pub fn makespan(&self, weights: &[usize]) -> usize {
        let nt = self.nthreads();
        assert_eq!(weights.len(), self.rows.len());
        let mut next: Vec<usize> = self.prog_ptr[..nt].to_vec();
        let mut clock = vec![0usize; nt];
        let mut finish = vec![0usize; self.rows.len()];
        let mut remaining = self.rows.len();
        while remaining > 0 {
            let before = remaining;
            for t in 0..nt {
                'program: while next[t] < self.prog_ptr[t + 1] {
                    let s = next[t];
                    let mut start = clock[t];
                    for &(pt, pos) in self.waits_of_slot(s) {
                        let producer = self.prog_ptr[pt as usize] + pos as usize;
                        if producer >= next[pt as usize] {
                            break 'program; // not run yet: come back later
                        }
                        start = start.max(finish[producer]);
                    }
                    clock[t] = start + weights[self.rows[s] as usize];
                    finish[s] = clock[t];
                    next[t] += 1;
                    remaining -= 1;
                }
            }
            assert!(
                remaining < before,
                "P2P schedule deadlocks with {remaining} rows left to run"
            );
        }
        clock.into_iter().max().unwrap_or(0)
    }

    /// The speed-up the schedule allows when row `r` costs `weights[r]`:
    /// total work over [`P2pSchedule::makespan`].
    pub fn speedup_bound(&self, weights: &[usize]) -> f64 {
        weights.iter().sum::<usize>() as f64 / self.makespan(weights).max(1) as f64
    }
}

/// Level-interleaved row ownership: each level's rows (descending row
/// order for the backward sweep) are cut into `nthreads` contiguous
/// shares of near-equal block count — a row weighs `1 +` its dependencies
/// and goes to the share its midpoint falls in — and thread `t`'s program
/// is its share of every level in level order. A level narrower than the
/// team leaves some shares empty.
fn level_interleaved(
    deps: Pattern,
    levels: &LevelSchedule,
    nthreads: usize,
    descending: bool,
) -> Vec<Vec<u32>> {
    assert!(nthreads >= 1);
    let weight = |r: u32| 1 + deps.row(r as usize).len();
    let mut programs = vec![Vec::with_capacity(deps.nrows() / nthreads + 1); nthreads];
    for lvl in &levels.rows {
        let total: usize = lvl.iter().map(|&r| weight(r)).sum();
        let mut dealt = 0usize;
        for k in 0..lvl.len() {
            let r = if descending {
                lvl[lvl.len() - 1 - k]
            } else {
                lvl[k]
            };
            let w = weight(r);
            programs[(2 * dealt + w) * nthreads / (2 * total)].push(r);
            dealt += w;
        }
    }
    programs
}

/// Thread `tid`'s program of a schedule as one sweep over `progress`:
/// each row after its waits, published when `row` returns.
pub(crate) struct Program<'a>(pub &'a P2pSchedule, pub usize, pub &'a P2pProgress);

impl Program<'_> {
    /// The sweep with a second step per row: `load(state, i)` runs before
    /// row `i`'s waits, `row(state, i)` after them. What `load` does
    /// overlaps the wait, so it must read nothing another thread's rows
    /// write.
    #[inline(always)]
    pub(crate) fn each_row_loaded<T>(
        &self,
        state: &mut T,
        mut load: impl FnMut(&mut T, usize),
        mut row: impl FnMut(&mut T, usize),
    ) {
        let &Program(sched, tid, progress) = self;
        let mut sweep = progress.begin(tid);
        for s in sched.prog_ptr[tid]..sched.prog_ptr[tid + 1] {
            let i = sched.rows[s] as usize;
            load(state, i);
            for &(pt, pos) in sched.waits_of_slot(s) {
                sweep.wait(pt as usize, pos as usize);
            }
            row(state, i);
            sweep.publish();
        }
    }
}

impl RowOrder for Program<'_> {
    #[inline(always)]
    fn each_row(&self, mut row: impl FnMut(usize)) {
        self.each_row_loaded(&mut (), |_, _| {}, |_, i| row(i));
    }
}

/// One P2P sweep's slice for one member of an already-running SPMD
/// region; `progress` comes from [`P2pSchedule::progress`] and is never
/// reset. `src` and `dst` may alias: row `i`'s input is read before its
/// output is stored.
pub fn sweep_p2p_team(
    sweep: Sweep,
    f: &IluFactors,
    src: TeamSlice,
    dst: TeamSlice,
    tid: usize,
    sched: &P2pSchedule,
    progress: &P2pProgress,
) {
    // SAFETY: each row is run by exactly one thread, after the waits
    // (Acquire) or the program order that finish the rows it reads.
    unsafe { trsv::run_rows(Isa::detect(), sweep, f, src, dst, &Program(sched, tid, progress)) }
}

/// Full P2P preconditioner application `x = (LU)⁻¹ b` into
/// caller-provided buffers, as [`crate::trsv::solve_into`]: `scratch`
/// receives the forward sweep and each sweep reuses its `progress`
/// counters, so nothing is allocated per application.
#[allow(clippy::too_many_arguments)]
pub fn solve_p2p_into(
    f: &IluFactors,
    b: &[f64],
    pool: &ThreadPool,
    (fwd, fwd_progress): (&P2pSchedule, &P2pProgress),
    (bwd, bwd_progress): (&P2pSchedule, &P2pProgress),
    scratch: &mut [f64],
    x: &mut [f64],
) {
    assert_eq!(pool.size(), fwd.nthreads());
    assert_eq!(pool.size(), bwd.nthreads());
    let b = trsv::read_only(b);
    let y = TeamSlice::new(scratch);
    let x = TeamSlice::new(x);
    // Two regions: the sweeps partition the rows differently.
    pool.run(|tid| sweep_p2p_team(Sweep::Forward, f, b, y, tid, fwd, fwd_progress));
    pool.run(|tid| sweep_p2p_team(Sweep::Backward, f, y, x, tid, bwd, bwd_progress));
}

/// [`solve_p2p_into`] with fresh buffers and fresh progress counters.
pub fn solve_p2p(
    f: &IluFactors,
    b: &[f64],
    pool: &ThreadPool,
    fwd: &P2pSchedule,
    bwd: &P2pSchedule,
) -> Vec<f64> {
    let mut y = vec![0.0; b.len()];
    let mut x = vec![0.0; b.len()];
    let (fp, bp) = (fwd.progress(), bwd.progress());
    solve_p2p_into(f, b, pool, (fwd, &fp), (bwd, &bp), &mut y, &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilu::{self, IluSymbolic};
    use crate::storage_tests::factor_bits;
    use crate::{trsv, Bcsr4};
    use fun3d_mesh::generator::{ChannelSpec, MeshPreset};
    use fun3d_mesh::{rcm, Mesh};
    use fun3d_simd::Isa;

    /// A diagonally dominant matrix on the mesh's RCM-ordered pattern.
    fn rcm_matrix(mut mesh: Mesh, seed: u64) -> Bcsr4 {
        let perm = rcm(&mesh.vertex_graph());
        mesh.renumber(&perm);
        let mut a = Bcsr4::from_edges(mesh.nvertices(), &mesh.edges());
        a.fill_diag_dominant(seed);
        a
    }

    /// Blocks row `i` of the sweep touches: its dependencies and itself.
    fn sweep_weights(p: Pattern) -> Vec<usize> {
        (0..p.nrows()).map(|i| 1 + p.row(i).len()).collect()
    }

    /// Owner and program position of every row.
    fn placement(s: &P2pSchedule) -> (Vec<usize>, Vec<usize>) {
        let n = s.rows.len();
        let (mut owner, mut position) = (vec![usize::MAX; n], vec![0; n]);
        for t in 0..s.nthreads() {
            for (pos, &r) in s.program(t).iter().enumerate() {
                assert_eq!(owner[r as usize], usize::MAX, "row {r} scheduled twice");
                owner[r as usize] = t;
                position[r as usize] = pos;
            }
        }
        assert!(
            owner.iter().all(|&t| t != usize::MAX),
            "a row is not scheduled"
        );
        (owner, position)
    }

    /// Every dependency of every row is ordered before it: by program
    /// order within a thread, by a wait already performed across threads.
    fn assert_waits_cover_dependencies(s: &P2pSchedule, deps: Pattern) {
        let (owner, position) = placement(s);
        for t in 0..s.nthreads() {
            let mut waited = vec![-1i64; s.nthreads()];
            for slot in s.prog_ptr[t]..s.prog_ptr[t + 1] {
                for &(pt, pos) in s.waits_of_slot(slot) {
                    waited[pt as usize] = waited[pt as usize].max(pos as i64);
                }
                let i = s.rows[slot] as usize;
                for &j in deps.row(i) {
                    let (pt, j) = (owner[j as usize], j as usize);
                    if pt == t {
                        assert!(position[j] < position[i], "row {i} runs before its dep {j}");
                    } else {
                        assert!(
                            waited[pt] >= position[j] as i64,
                            "row {i} dep {j} not covered"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn schedules_cover_every_row_and_dependency() {
        let a = rcm_matrix(MeshPreset::Tiny.build(), 41);
        let sym = IluSymbolic::new(&a, &ilu::symbolic_iluk(&a, 1));
        for nt in [1usize, 2, 3, 4, 7] {
            let fwd = P2pSchedule::forward(sym.l_pattern(), nt);
            assert_waits_cover_dependencies(&fwd, sym.l_pattern());
            let bwd = P2pSchedule::backward(sym.u_pattern(), nt);
            assert_waits_cover_dependencies(&bwd, sym.u_pattern());
            assert!(fwd.nwaits() <= fwd.raw_cross_deps && bwd.nwaits() <= bwd.raw_cross_deps);
        }
    }

    #[test]
    fn schedule_bound_clears_its_floor() {
        // total work / makespan is what the schedule lets the threads
        // gain before any synchronization cost. The contiguous chunks
        // this module once built sat at 1.00 for every thread count.
        let a = rcm_matrix(MeshPreset::Small.build(), 43);
        let sym = IluSymbolic::new(&a, &ilu::symbolic_iluk(&a, 1));
        for (nt, floor) in [(2usize, 1.5), (4, 2.5)] {
            let sweeps = [
                (
                    "forward",
                    P2pSchedule::forward(sym.l_pattern(), nt),
                    sym.l_pattern(),
                ),
                (
                    "backward",
                    P2pSchedule::backward(sym.u_pattern(), nt),
                    sym.u_pattern(),
                ),
            ];
            for (name, sched, deps) in sweeps {
                let bound = sched.speedup_bound(&sweep_weights(deps));
                println!(
                    "{name} nt={nt}: bound {bound:.2}, {} waits of {} raw",
                    sched.nwaits(),
                    sched.raw_cross_deps
                );
                assert!(
                    bound >= floor,
                    "{name} sweep at nt={nt}: bound {bound:.2} < {floor}"
                );
            }
        }
    }

    #[test]
    fn makespan_of_known_programs() {
        // 0 → 1 → 2 → 3 with unit weights, dealt alternately: a chain
        // runs one row at a time whoever owns the rows…
        let chain = Bcsr4::from_pattern(&[vec![], vec![0], vec![1], vec![2]]);
        let alternate = P2pSchedule::from_programs((&chain).into(), &[vec![0, 2], vec![1, 3]]);
        assert_eq!(alternate.makespan(&[1, 1, 1, 1]), 4);
        assert_eq!(alternate.nwaits(), 3);
        // …and four independent rows on two threads take two steps.
        let free = Bcsr4::from_pattern(&[vec![], vec![], vec![], vec![]]);
        let halves = P2pSchedule::from_programs((&free).into(), &[vec![0, 1], vec![2, 3]]);
        assert_eq!(halves.makespan(&[1, 1, 1, 1]), 2);
        assert_eq!(halves.makespan(&[5, 1, 1, 1]), 6);
        assert_eq!(halves.nwaits(), 0);
    }

    #[test]
    #[should_panic(expected = "P2P schedule deadlocks")]
    fn makespan_names_a_deadlock() {
        // Row 1 reads row 0 and row 3 reads row 2, but each thread runs
        // the reader of the other's row first.
        let m = Bcsr4::from_pattern(&[vec![], vec![0], vec![], vec![2]]);
        let crossed = P2pSchedule::from_programs((&m).into(), &[vec![3, 0], vec![1, 2]]);
        crossed.makespan(&[1, 1, 1, 1]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// P2P TRSV and the team refactorization against the serial ones on
    /// `a` with ILU(`fill`) at `nt` threads, both lane implementations,
    /// twice through the same counters. `Err` names the first difference.
    fn team_equals_serial(a: &Bcsr4, fill: usize, nt: usize) -> Result<(), String> {
        let sym = IluSymbolic::new(a, &ilu::symbolic_iluk(a, fill));
        let serial = sym.factor(a);
        let pool = ThreadPool::new(nt);
        let fwd = P2pSchedule::forward(sym.l_pattern(), nt);
        let bwd = P2pSchedule::backward(sym.u_pattern(), nt);
        assert_waits_cover_dependencies(&fwd, sym.l_pattern());
        assert_waits_cover_dependencies(&bwd, sym.u_pattern());
        let unit = vec![1usize; a.nrows()];
        fwd.makespan(&unit);
        bwd.makespan(&unit);
        let (ilu_progress, fp, bp) = (fwd.progress(), fwd.progress(), bwd.progress());
        let n = a.dim();
        let (mut y, mut x) = (vec![0.0; n], vec![0.0; n]);
        let mut team = sym.allocate();
        for pass in 0..2 {
            for isa in [Some(Isa::portable()), Isa::avx2()].into_iter().flatten() {
                team.l.blocks.fill(f32::NAN);
                team.u.blocks.fill(f32::NAN);
                team.dinv.fill(f32::NAN);
                sym.refactor_team_on(isa, a, &mut team, &pool, &fwd, &ilu_progress);
                if factor_bits(&team) != factor_bits(&serial) {
                    return Err(format!("team refactor, {} lanes, pass {pass}", isa.name()));
                }
            }
            let b: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.23 + pass as f64).sin())
                .collect();
            solve_p2p_into(&team, &b, &pool, (&fwd, &fp), (&bwd, &bp), &mut y, &mut x);
            if bits(&x) != bits(&trsv::solve(&serial, &b)) {
                return Err(format!("p2p solve, pass {pass}"));
            }
        }
        Ok(())
    }

    #[test]
    fn p2p_solve_matches_serial() {
        // The one table: thread count × fill, sweeps and refactorization.
        let a = rcm_matrix(MeshPreset::Tiny.build(), 44);
        for fill in [0usize, 1] {
            for nt in [1usize, 2, 3, 4, 7] {
                if let Err(what) = team_equals_serial(&a, fill, nt) {
                    panic!("ILU({fill}) nt={nt}: {what} differs from serial");
                }
            }
        }
    }

    fun3d_util::prop_cases! {
        fn team_sweeps_and_refactor_are_serial_bitwise_on_random_meshes(g, cases = 10) {
            // Scrambled (not reordered) meshes: wide, irregular levels.
            let dims = [g.usize_range(3, 7), g.usize_range(3, 6), g.usize_range(3, 6)];
            let mut spec = ChannelSpec::with_resolution(dims[0], dims[1], dims[2]);
            spec.seed = g.u64();
            let mesh = spec.build();
            let mut a = Bcsr4::from_edges(mesh.nvertices(), &mesh.edges());
            a.fill_diag_dominant(spec.seed);
            let (fill, nt) = (g.usize_range(0, 2), g.usize_range(1, 8));
            let outcome = team_equals_serial(&a, fill, nt);
            fun3d_util::prop_assert!(outcome.is_ok(), "fill {fill} nt {nt}: {outcome:?}");
        }

        fn random_lower_triangular_dags_schedule_and_solve(g, cases = 24) {
            // Random DAGs, including chains (every level one row wide)
            // and more threads than the widest level holds rows, so some
            // shares — and whole programs — are empty.
            let n = g.usize_range(1, 40);
            let reach = g.usize_range(1, 6);
            let density = g.usize_range(0, 4);
            let rows: Vec<Vec<u32>> = (0..n)
                .map(|i| {
                    let mut cols: Vec<u32> = (i.saturating_sub(reach)..i)
                        .filter(|_| g.usize_range(0, 4) < density)
                        .map(|j| j as u32)
                        .collect();
                    if density == 3 && i > 0 && !cols.contains(&(i as u32 - 1)) {
                        cols.push(i as u32 - 1); // a chain through every row
                    }
                    cols.push(i as u32);
                    cols
                })
                .collect();
            // The matrix is lower triangular, so ILU(0) is exact and U is
            // empty: the forward sweep carries the DAG.
            let mut a = Bcsr4::from_pattern(&rows);
            a.fill_diag_dominant(g.u64());
            let nt = g.usize_range(1, 9);
            let outcome = team_equals_serial(&a, 0, nt);
            fun3d_util::prop_assert!(outcome.is_ok(), "n {n} nt {nt}: {outcome:?}");
        }
    }

    #[test]
    fn team_refactor_reports_a_singular_pivot_instead_of_hanging() {
        let a = rcm_matrix(MeshPreset::Tiny.build(), 45);
        let sym = IluSymbolic::new(&a, &ilu::symbolic_iluk(&a, 0));
        let mut zero = a.clone();
        zero.blocks.fill(0.0);
        let pool = ThreadPool::new(3);
        let fwd = P2pSchedule::forward(sym.l_pattern(), 3);
        let progress = fwd.progress();
        let mut f = sym.allocate();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sym.refactor_team(&zero, &mut f, &pool, &fwd, &progress)
        }));
        let message = *outcome
            .expect_err("must panic")
            .downcast::<String>()
            .expect("a message");
        assert!(
            message.contains("singular pivot block") && message.contains("(row 0)"),
            "{message}"
        );
        // The counters were left where the next sweep starts.
        sym.refactor_team(&a, &mut f, &pool, &fwd, &progress);
        assert_eq!(factor_bits(&f), factor_bits(&sym.factor(&a)));
    }

    #[test]
    fn a_value_that_does_not_fit_f32_is_reported_like_a_singular_pivot_and_never_stored() {
        // Finite in f64, not in f32 (the matrix scaled by 1e40), and a NaN:
        // all three factorizations name the first row they cannot store,
        // and the in-place ones leave the factors they were given finite.
        let a = rcm_matrix(MeshPreset::Tiny.build(), 46);
        let pattern = ilu::symbolic_iluk(&a, 1);
        let sym = IluSymbolic::new(&a, &pattern);
        let clean = sym.factor(&a);
        let mut huge = a.clone();
        huge.blocks.iter_mut().for_each(|v| *v *= 1e40);
        let mut nan = a.clone();
        let in_row_7 = nan.row_ptr[7];
        nan.blocks[in_row_7 * 16 + 5] = f64::NAN;
        let pool = ThreadPool::new(3);
        let fwd = P2pSchedule::forward(sym.l_pattern(), 3);
        let progress = fwd.progress();
        let message_of = |run: &mut dyn FnMut()| -> String {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            *outcome.expect_err("must panic").downcast::<String>().expect("a message")
        };
        for (bad, row) in [(&huge, "(row 0)"), (&nan, "(row 7)")] {
            let (mut serial, mut team) = (clean.clone(), clean.clone());
            let messages = [
                message_of(&mut || sym.refactor(bad, &mut serial)),
                message_of(&mut || sym.refactor_team(bad, &mut team, &pool, &fwd, &progress)),
                message_of(&mut || drop(ilu::factor(bad, &pattern, ilu::TempBuffer::Full))),
            ];
            for message in messages {
                assert!(
                    message.contains("non-finite factor value") && message.contains(row),
                    "{message}"
                );
            }
            for f in [&serial, &team] {
                let values = f.l.blocks.iter().chain(&f.u.blocks).chain(&f.dinv);
                assert!(values.clone().all(|v| v.is_finite()), "a non-finite value was stored");
            }
        }
        // The counters were left where the next sweep starts.
        let mut f = sym.allocate();
        sym.refactor_team(&a, &mut f, &pool, &fwd, &progress);
        assert_eq!(factor_bits(&f), factor_bits(&clean));
    }
}
