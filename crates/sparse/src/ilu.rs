//! Incomplete LU factorization on 4×4 block matrices.
//!
//! ILU(0) keeps the pattern of A; ILU(k) first runs a symbolic level-of-
//! fill pass (Chow & Saad [23]) and factors on the expanded pattern. The
//! original PETSc-FUN3D uses ILU(1) inside the additive Schwarz
//! preconditioner; the paper's Table II shows the ILU-0 vs ILU-1 tradeoff
//! between convergence (fewer iterations with fill) and available
//! parallelism (shorter dependency chains without).
//!
//! Three PETSc layout optimizations from the paper and its lineage are
//! reproduced:
//! * diagonal blocks are **inverted during factorization** and stored, so
//!   the backward solve multiplies instead of solving per row [17];
//! * L and U are stored separately in the order the solves traverse them;
//! * the factors are **stored in single precision, column-major**
//!   ([`crate::block::FactorBlock`]) — a block is stored the way its hot
//!   loop, the triangular sweep, loads it, and single precision is storage
//!   only: the factorization eliminates each row in an `f64` buffer and
//!   rounds once, when the row's `L`, `U` and `D⁻¹` leave it
//!   ([`crate::block::narrow`]); later rows and the sweeps read the stored
//!   (rounded) values back, widened exactly, and compute in `f64`. A value
//!   that does not fit an `f32` (or a NaN) is never stored: the row is
//!   reported exactly as one whose pivot block cannot be inverted.
//!
//! The paper's algorithmic optimization for threading is also here: the
//! per-row working buffer is **compressed** ([`TempBuffer::Compressed`])
//! — one block per pattern entry of the row instead of a full n-wide
//! scratch array of blocks — shrinking the per-thread working set.
//!
//! # Symbolic once, numeric many
//!
//! A pseudo-transient solve refactors the same pattern every time step,
//! so the factorization is split the way PETSc splits
//! `MatILUFactorSymbolic` from `MatLUFactorNumeric`:
//!
//! * [`IluSymbolic`] is everything that depends only on the pair
//!   (pattern of A, ILU pattern): the L and U `row_ptr`/`col_idx`, and for
//!   every pattern slot the position in its row of A of the block that
//!   seeds it (or none, for fill). It is built by merging the two sorted rows — never by
//!   search — and it is where a malformed pattern panics, naming the row
//!   and the fault.
//! * The numeric core streams over that structure: take row `i` of A from
//!   its [`BlockRows`] source, scatter it into the packed row buffer,
//!   eliminate, narrow the L and U slots out. The
//!   4×4 multiply and multiply-subtract run on [`fun3d_simd::Simd`] lanes
//!   picked by [`Isa::detect`], in the per-entry operation order of the
//!   [`TempBuffer::Full`] reference and without fused multiply-add, so
//!   the factors are that reference's **bit for bit** on either lane
//!   implementation.
//!
//! * The core is written per row ([`factor_row`]) and run by two loops:
//!   the serial one, every row in order, and the team one
//!   ([`IluSymbolic::refactor_team`]), in which each thread of a pool
//!   factors the rows of its program in the forward sweep's P2P schedule
//!   ([`crate::p2p`]) — row `i` reads exactly the rows its `L` pattern
//!   names, which is the forward sweep's dependency DAG. A row's
//!   arithmetic does not depend on which loop or thread runs it, so the
//!   team's factors are the serial ones bit for bit at any thread count.
//!   A team thread takes each of its rows of A from the source *before*
//!   it waits on the rows that row depends on, so a source that computes
//!   its rows (the application's Jacobian) runs in parallel off the
//!   critical path.
//!
//! A is read only through [`BlockRows`]: one row at a time, when the
//! factorization reaches it. A stored [`Bcsr4`] is one source; a kernel
//! that computes row `i` into a per-row buffer is another, and then A is
//! never stored at all (PETSc assembles the whole matrix first and factors
//! it second; here the producer feeds the consumer row by row, as OP2's
//! loop fusion keeps an intermediate array out of memory).
//!
//! [`factor`] keeps the one-shot form (structure, then numeric, into fresh
//! storage); [`TempBuffer::Full`] keeps the structure-per-call,
//! search-per-entry code as Fig. 7a's "before" and as the tests' bitwise
//! reference.
//!
//! **Reuse rule.** [`IluSymbolic::refactor`] writes into factors that
//! already exist and overwrites every value, so its result does not
//! depend on what they held. Whoever owns factors *exclusively* may
//! refactor into them — that removes an allocate / first-touch / free
//! cycle the size of the factors per time step. Factors reachable from
//! anywhere else must not be refactored: the application shares its
//! first-build factors with the serve tier's cross-request cache through
//! an `Arc`, and a cached entry that changed under a later time step
//! would seed other requests with the wrong preconditioner. So the
//! application asks `Arc::get_mut`: unique → refactor in place, shared →
//! factor into a fresh allocation (which is unique from then on).

use crate::bcsr::{Bcsr4, Pattern};
use crate::block::{self, Block4, FactorBlock, BLOCK_LEN, FACTOR_BLOCK_BYTES, ZERO_BLOCK};
use crate::p2p::{P2pSchedule, Program};
use fun3d_simd::{with_lanes, Isa, Simd};
use fun3d_threads::{P2pProgress, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which working buffer the numeric factorization uses; both produce
/// identical factors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TempBuffer {
    /// One block slot per matrix row (large stride, big working set); the
    /// structure is rebuilt and A searched on every call. The reference.
    Full,
    /// One block slot per pattern entry of the current row (the paper's
    /// optimization), on an [`IluSymbolic`] structure: the production path.
    Compressed,
}

/// One triangle of the factors: a strictly lower or strictly upper block
/// CSR matrix whose values are stored [`FactorBlock`]s.
#[derive(Clone, Debug)]
pub struct Triangle {
    /// Block-row pointers, length `nrows + 1`.
    pub row_ptr: Vec<usize>,
    /// Block-column indices, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Block values, 16 `f32` per block, column-major.
    pub blocks: Vec<f32>,
}

impl Triangle {
    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Block `k` (position in `col_idx`).
    #[inline]
    pub(crate) fn block(&self, k: usize) -> &FactorBlock {
        factor_block_at(&self.blocks, k)
    }
}

impl<'a> From<&'a Triangle> for Pattern<'a> {
    fn from(t: &'a Triangle) -> Pattern<'a> {
        Pattern {
            row_ptr: &t.row_ptr,
            col_idx: &t.col_idx,
        }
    }
}

/// The result of a block ILU factorization.
#[derive(Clone, Debug)]
pub struct IluFactors {
    /// Strictly-lower blocks of each row (unit diagonal implied), stored
    /// in forward-solve order.
    pub l: Triangle,
    /// Strictly-upper blocks of each row, stored in row order (the
    /// backward solve walks rows in reverse).
    pub u: Triangle,
    /// Inverted diagonal blocks, one [`FactorBlock`] per row.
    pub dinv: Vec<f32>,
}

impl IluFactors {
    /// Bytes one sweep streams per stored `L` or `U` block: its values and
    /// its column index.
    pub const SWEEP_BYTES_PER_BLOCK: usize = FACTOR_BLOCK_BYTES + std::mem::size_of::<u32>();
    /// Bytes one forward + backward application touches per row beside its
    /// blocks: the inverted diagonal, and in each of the two sweeps a
    /// four-`f64` row of the input vector and one of the output.
    pub const SWEEP_BYTES_PER_ROW: usize = FACTOR_BLOCK_BYTES + 4 * 4 * std::mem::size_of::<f64>();

    /// Number of block rows.
    pub fn nrows(&self) -> usize {
        self.dinv.len() / BLOCK_LEN
    }

    /// The inverted diagonal block of row `r`.
    #[inline]
    pub(crate) fn dinv_block(&self, r: usize) -> &FactorBlock {
        factor_block_at(&self.dinv, r)
    }

    /// Bytes one forward + backward application touches (for Fig. 7b):
    /// every stored block with its column index and every inverted
    /// diagonal, once, and the four vector passes of the two sweeps.
    pub fn sweep_bytes(&self) -> usize {
        (self.l.nblocks() + self.u.nblocks()) * Self::SWEEP_BYTES_PER_BLOCK
            + self.nrows() * Self::SWEEP_BYTES_PER_ROW
    }
}

/// Where a factorization takes the blocks of A from: one row at a time,
/// when the factorization reaches it. A stored [`Bcsr4`] lends its own
/// rows; a source that computes its rows writes each into the buffer it
/// is handed, so A never exists as a whole.
///
/// `Sync` because the team factorization asks for rows from every thread
/// of its pool at once.
pub trait BlockRows: Sync {
    /// A's pattern: the block columns of every row, ascending.
    fn pattern(&self) -> Pattern<'_>;

    /// Row `i`'s blocks, 16 row-major `f64` each, in the pattern's column
    /// order: either written into `buf` (which holds the longest row) and
    /// returned, or borrowed from the source's own storage.
    fn row<'s>(&'s self, i: usize, buf: &'s mut [f64]) -> &'s [f64];
}

impl BlockRows for Bcsr4 {
    fn pattern(&self) -> Pattern<'_> {
        self.into()
    }

    #[inline]
    fn row<'s>(&'s self, i: usize, _buf: &'s mut [f64]) -> &'s [f64] {
        &self.blocks[self.row_ptr[i] * BLOCK_LEN..self.row_ptr[i + 1] * BLOCK_LEN]
    }
}

/// Computes the ILU(`fill`) pattern of a matrix pattern: for each row, the
/// sorted block columns retained. `fill = 0` returns A's own pattern.
///
/// Standard level-of-fill recurrence: `lev(i,j) = 0` for original
/// entries, and fill entry levels satisfy
/// `lev(i,j) = min_k lev(i,k) + lev(k,j) + 1`; entries with level ≤ fill
/// are kept.
pub fn symbolic_iluk<'a>(a: impl Into<Pattern<'a>>, fill: usize) -> Vec<Vec<u32>> {
    let a: Pattern<'a> = a.into();
    let n = a.nrows();
    // The upper part (cols > row) of every processed row with its levels,
    // rows back to back: later rows eliminate with it.
    let mut upper_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    upper_ptr.push(0);
    let mut upper: Vec<(u32, u8)> = Vec::with_capacity(a.col_idx.len());
    let mut pattern: Vec<Vec<u32>> = Vec::with_capacity(n);
    let cap = u8::try_from(fill.min(254)).unwrap();

    // Working row: its columns, kept sorted ascending as fill arrives, and
    // a level per column, epoch-tagged; all three reused from row to row.
    let mut cols: Vec<u32> = Vec::new();
    let mut lev = vec![u8::MAX; n];
    let mut stamp = vec![0u32; n];
    let mut epoch = 0u32;

    for i in 0..n {
        epoch += 1;
        cols.clear();
        for &c in a.row(i) {
            cols.push(c);
            lev[c as usize] = 0;
            stamp[c as usize] = epoch;
        }
        // Process pivot columns k < i in ascending order, including fill
        // inserted during this row's elimination.
        let mut pos = 0;
        while pos < cols.len() {
            let k = cols[pos];
            pos += 1;
            if k as usize >= i {
                break;
            }
            let lik = lev[k as usize];
            debug_assert!(lik <= cap, "kept entries never exceed the fill cap");
            if lik >= cap {
                continue; // every update through k would exceed the cap
            }
            for &(j, lkj) in &upper[upper_ptr[k as usize]..upper_ptr[k as usize + 1]] {
                let newlev = lik.saturating_add(lkj).saturating_add(1);
                if newlev > cap {
                    continue;
                }
                let ju = j as usize;
                if stamp[ju] == epoch {
                    if newlev < lev[ju] {
                        lev[ju] = newlev;
                    }
                } else {
                    stamp[ju] = epoch;
                    lev[ju] = newlev;
                    // insert keeping `cols[pos..]` sorted; j > k ≥ all
                    // processed columns, so insertion point is ≥ pos.
                    let ins = match cols[pos..].binary_search(&j) {
                        Ok(_) => unreachable!("duplicate column"),
                        Err(e) => pos + e,
                    };
                    cols.insert(ins, j);
                }
            }
        }
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} left unsorted");
        upper.extend(
            cols.iter()
                .filter(|&&c| (c as usize) > i)
                .map(|&c| (c, lev[c as usize])),
        );
        upper_ptr.push(upper.len());
        pattern.push(cols.clone());
    }
    pattern
}

/// Marks a pattern slot that no block of A seeds (fill: starts at zero).
const NO_SEED: u32 = u32::MAX;

/// The static half of a factorization: everything that depends only on
/// the pair (pattern of A, ILU pattern), built once by merging the two
/// sorted rows — no search — and reused by every numeric factorization
/// of a matrix with that pattern (see the module docs).
#[derive(Clone, Debug)]
pub struct IluSymbolic {
    /// The patterns of L and U. Row `i` of the ILU pattern is its L
    /// columns, `i`, its U columns; its slots are numbered in that order.
    l_row_ptr: Vec<usize>,
    l_col_idx: Vec<u32>,
    u_row_ptr: Vec<usize>,
    u_col_idx: Vec<u32>,
    /// Per pattern slot, rows back to back, the position within its row
    /// of A of the block that seeds it, or [`NO_SEED`].
    seed: Vec<u32>,
    /// Row pointers of the A pattern the seeds index into.
    a_row_ptr: Vec<usize>,
    /// Longest pattern row: the size of the packed row buffer.
    max_row: usize,
    /// Longest row of A: the size of a source's row buffer.
    a_max_row: usize,
}

impl IluSymbolic {
    /// Builds the structure for factoring matrices with A's pattern `a` on
    /// `pattern` (from [`symbolic_iluk`], or A's own rows for ILU(0)).
    ///
    /// # Panics
    /// Naming the row and the fault, when a pattern row is not strictly
    /// ascending, reaches past the matrix, lacks the diagonal, or lacks a
    /// column of A.
    pub fn new<'a>(a: impl Into<Pattern<'a>>, pattern: &[Vec<u32>]) -> IluSymbolic {
        let a: Pattern<'a> = a.into();
        let n = a.nrows();
        assert_eq!(
            pattern.len(),
            n,
            "ILU pattern has {} rows, A has {n}",
            pattern.len()
        );
        let a_max_row = (0..n).map(|i| a.row(i).len()).max().unwrap_or(0);
        assert!(a_max_row < NO_SEED as usize, "A has too many blocks in a row for u32 seeds");
        let slots: usize = pattern.iter().map(Vec::len).sum();
        let mut sym = IluSymbolic {
            l_row_ptr: Vec::with_capacity(n + 1),
            l_col_idx: Vec::with_capacity(slots / 2),
            u_row_ptr: Vec::with_capacity(n + 1),
            u_col_idx: Vec::with_capacity(slots / 2),
            seed: Vec::with_capacity(slots),
            a_row_ptr: a.row_ptr.to_vec(),
            max_row: 0,
            a_max_row,
        };
        sym.l_row_ptr.push(0);
        sym.u_row_ptr.push(0);
        for (i, row) in pattern.iter().enumerate() {
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "ILU pattern row {i} is not strictly ascending"
            );
            assert!(
                row.last().is_none_or(|&c| (c as usize) < n),
                "ILU pattern row {i} reaches past the matrix"
            );
            let a_cols = a.row(i);
            let (mut ak, mut has_diagonal) = (0, false);
            for &c in row {
                if let Some(&missing) = a_cols.get(ak).filter(|&&ac| ac < c) {
                    panic!("ILU pattern row {i} lacks column {missing} of A");
                }
                if a_cols.get(ak) == Some(&c) {
                    sym.seed.push(ak as u32);
                    ak += 1;
                } else {
                    sym.seed.push(NO_SEED);
                }
                match (c as usize).cmp(&i) {
                    std::cmp::Ordering::Less => sym.l_col_idx.push(c),
                    std::cmp::Ordering::Equal => has_diagonal = true,
                    std::cmp::Ordering::Greater => sym.u_col_idx.push(c),
                }
            }
            if let Some(&missing) = a_cols.get(ak) {
                panic!("ILU pattern row {i} lacks column {missing} of A");
            }
            assert!(has_diagonal, "ILU pattern row {i} lacks the diagonal");
            sym.l_row_ptr.push(sym.l_col_idx.len());
            sym.u_row_ptr.push(sym.u_col_idx.len());
            sym.max_row = sym.max_row.max(row.len());
        }
        sym
    }

    /// Number of block rows.
    pub(crate) fn nrows(&self) -> usize {
        self.l_row_ptr.len() - 1
    }

    /// The pattern of `L`: what the forward sweep's and the
    /// factorization's schedules are built from.
    pub fn l_pattern(&self) -> Pattern<'_> {
        Pattern {
            row_ptr: &self.l_row_ptr,
            col_idx: &self.l_col_idx,
        }
    }

    /// The pattern of `U`: what the backward sweep's schedule is built
    /// from.
    pub fn u_pattern(&self) -> Pattern<'_> {
        Pattern {
            row_ptr: &self.u_row_ptr,
            col_idx: &self.u_col_idx,
        }
    }

    /// Zeroed factors with this structure's patterns, for
    /// [`IluSymbolic::refactor`] or [`IluSymbolic::refactor_team`] to
    /// fill.
    pub fn allocate(&self) -> IluFactors {
        let with_pattern = |p: Pattern| Triangle {
            row_ptr: p.row_ptr.to_vec(),
            col_idx: p.col_idx.to_vec(),
            blocks: vec![0.0; p.col_idx.len() * BLOCK_LEN],
        };
        IluFactors {
            l: with_pattern(self.l_pattern()),
            u: with_pattern(self.u_pattern()),
            dinv: vec![0.0; self.nrows() * BLOCK_LEN],
        }
    }

    /// Factors `a` into freshly allocated storage.
    pub fn factor(&self, a: &dyn BlockRows) -> IluFactors {
        let mut f = self.allocate();
        self.refactor(a, &mut f);
        f
    }

    /// Factors `a` into `f`, overwriting every value it holds; `f` must
    /// come from this structure's [`IluSymbolic::factor`]. The result does
    /// not depend on what `f` held before.
    pub fn refactor(&self, a: &dyn BlockRows, f: &mut IluFactors) {
        self.refactor_on(Isa::detect(), a, f);
    }

    /// [`IluSymbolic::refactor`] on a chosen lane implementation (they
    /// agree bit for bit; the tests hold them against each other).
    pub(crate) fn refactor_on(&self, isa: Isa, a: &dyn BlockRows, f: &mut IluFactors) {
        let (sym, out) = (self, self.values_of(a, f));
        // SAFETY: `out` points into `f`, which this call borrows
        // exclusively and `values_of` has checked against the structure;
        // the serial loop finishes every row before the next one reads it.
        with_lanes!(isa, unsafe numeric(sym: &IluSymbolic, a: &dyn BlockRows, out: FactorValues));
    }

    /// [`IluSymbolic::refactor`] by the threads of `pool`: every thread
    /// factors the rows of its program in `forward` — the forward sweep's
    /// schedule, built from [`IluSymbolic::l_pattern`] for `pool.size()`
    /// threads — and waits where that schedule waits, since row `i` of the
    /// factorization reads exactly the rows its `L` pattern names. A
    /// thread takes each of its rows of `a` before that row's waits. Each
    /// row's arithmetic is the serial loop's, so the factors are
    /// [`IluSymbolic::refactor`]'s bit for bit at any thread count.
    /// `progress` comes from `forward.progress()` and is kept between
    /// calls.
    pub fn refactor_team(
        &self,
        a: &dyn BlockRows,
        f: &mut IluFactors,
        pool: &ThreadPool,
        forward: &P2pSchedule,
        progress: &P2pProgress,
    ) {
        self.refactor_team_on(Isa::detect(), a, f, pool, forward, progress);
    }

    /// [`IluSymbolic::refactor_team`] on a chosen lane implementation.
    pub(crate) fn refactor_team_on(
        &self,
        isa: Isa,
        a: &dyn BlockRows,
        f: &mut IluFactors,
        pool: &ThreadPool,
        forward: &P2pSchedule,
        progress: &P2pProgress,
    ) {
        assert_eq!(pool.size(), forward.nthreads());
        let covered: usize = (0..forward.nthreads()).map(|t| forward.program(t).len()).sum();
        assert_eq!(covered, self.nrows(), "schedule is not this pattern's");
        let (sym, out) = (self, self.values_of(a, f));
        // A singular pivot must not stop its thread — the others would
        // wait on its rows for ever — so the first one is kept for after
        // the region.
        let singular = AtomicUsize::new(usize::MAX);
        let singular = &singular;
        pool.run(|tid| {
            // SAFETY: `out` as in `refactor_on`. The programs partition
            // the rows, so each row's values have one writer; a row runs
            // after its waits, which cover every row of another thread
            // its L pattern names (`P2pSchedule::from_programs`), and
            // after the rows of its own program it reads.
            with_lanes!(isa, unsafe numeric_team(
                sym: &IluSymbolic, a: &dyn BlockRows, out: FactorValues, tid: usize,
                forward: &P2pSchedule, progress: &P2pProgress, singular: &AtomicUsize
            ));
        });
        let row = singular.load(Ordering::Relaxed);
        assert!(row == usize::MAX, "{SINGULAR_PIVOT} (row {row})");
    }

    /// Checks `a` and `f` against this structure and returns where `f`'s
    /// values live.
    fn values_of(&self, a: &dyn BlockRows, f: &mut IluFactors) -> FactorValues {
        assert!(
            a.pattern().row_ptr == self.a_row_ptr,
            "matrix does not have the pattern this structure was built for"
        );
        assert!(
            f.l.row_ptr == self.l_row_ptr
                && f.l.col_idx == self.l_col_idx
                && f.u.row_ptr == self.u_row_ptr
                && f.u.col_idx == self.u_col_idx
                && f.l.blocks.len() == self.l_col_idx.len() * BLOCK_LEN
                && f.u.blocks.len() == self.u_col_idx.len() * BLOCK_LEN
                && f.dinv.len() == self.nrows() * BLOCK_LEN,
            "factors were not allocated by this structure"
        );
        FactorValues {
            l: f.l.blocks.as_mut_ptr(),
            u: f.u.blocks.as_mut_ptr(),
            dinv: f.dinv.as_mut_ptr(),
        }
    }
}

/// What a row that cannot be stored is reported as: its pivot block has no
/// inverse, or one of its values is a NaN or beyond the `f32` range.
const SINGULAR_PIVOT: &str =
    "singular pivot block or non-finite factor value in ILU (matrix not diagonally dominant?)";

/// The value arrays of the factors being computed (`L` blocks, `U`
/// blocks, inverted diagonals), as addresses: the team loop's threads
/// write disjoint rows of one allocation and read rows other threads
/// finished.
#[derive(Clone, Copy)]
struct FactorValues {
    l: *mut f32,
    u: *mut f32,
    dinv: *mut f32,
}

// SAFETY: three addresses. Everything done through them happens in
// `factor_row`, whose contract says which rows a thread may touch when.
unsafe impl Send for FactorValues {}
// SAFETY: as for `Send`.
unsafe impl Sync for FactorValues {}

fn factor_block_at(blocks: &[f32], k: usize) -> &FactorBlock {
    blocks[k * BLOCK_LEN..(k + 1) * BLOCK_LEN]
        .try_into()
        .expect("a block is BLOCK_LEN values")
}

fn block_at(blocks: &[f64], k: usize) -> &Block4 {
    blocks[k * BLOCK_LEN..(k + 1) * BLOCK_LEN]
        .try_into()
        .expect("a block is BLOCK_LEN doubles")
}

fn block_at_mut(blocks: &mut [f64], k: usize) -> &mut Block4 {
    (&mut blocks[k * BLOCK_LEN..(k + 1) * BLOCK_LEN])
        .try_into()
        .expect("a block is BLOCK_LEN doubles")
}

/// The per-thread scratch of the numeric core: the packed row buffer, one
/// column-major `f64` block per pattern slot of the row being eliminated;
/// `slot_of`, one `u32` per column (all [`NO_SEED`] between rows) mapping
/// that row's columns to their packed slots; and the buffer a source
/// writes a row of A into.
struct RowScratch {
    packed: Vec<f64>,
    slot_of: Vec<u32>,
    a_row: Vec<f64>,
}

impl RowScratch {
    fn new(sym: &IluSymbolic) -> RowScratch {
        RowScratch {
            packed: vec![0.0; sym.max_row * BLOCK_LEN],
            slot_of: vec![NO_SEED; sym.nrows()],
            a_row: vec![0.0; sym.a_max_row * BLOCK_LEN],
        }
    }
}

/// The numeric core's first half for row `i`: takes the row of A from its
/// source and seeds the packed buffer with it, transposed, zero in the
/// fill slots. Reads nothing another row writes, so the team loop runs it
/// before the row's waits.
#[inline(always)]
fn load_row(sym: &IluSymbolic, a: &dyn BlockRows, i: usize, scratch: &mut RowScratch) {
    let RowScratch { packed, a_row, .. } = scratch;
    let first_slot = sym.l_row_ptr[i] + sym.u_row_ptr[i] + i;
    let slots = sym.l_row_ptr[i + 1] + sym.u_row_ptr[i + 1] + i + 1 - first_slot;
    let row = a.row(i, a_row);
    let w = &mut packed[..slots * BLOCK_LEN];
    for (dst, &seed) in w.chunks_exact_mut(BLOCK_LEN).zip(&sym.seed[first_slot..]) {
        match seed {
            NO_SEED => dst.fill(0.0),
            k => dst.copy_from_slice(&block::transpose(block_at(row, k as usize))),
        }
    }
}

/// The numeric core's second half for row `i`, after [`load_row`]: the
/// row is eliminated in the packed buffer, so the L slots and the U slots
/// leave it as two narrowing copies and the inverted diagonal as a third.
/// Returns whether the row could be stored — its pivot block inverted and
/// every value of its `L`, `U` and `D⁻¹` finite as an `f32`; if not, the
/// row's stored values are left as they were.
///
/// Arithmetic order is that of the [`TempBuffer::Full`] reference, entry
/// by entry: `L_ik = w_k·D_k⁻¹` sums k ascending from zero, every update
/// `w_j −= L_ik·U_kj` subtracts k ascending, pivots ascend, finished rows
/// are read back as stored (rounded), and there is no fused multiply-add
/// — so the factors are the reference's bits on either lane
/// implementation, in whatever order and on whatever thread the rows run.
///
/// # Safety
/// `out` holds the value arrays of factors with `sym`'s patterns. During
/// the call nobody else accesses row `i`'s L blocks, U blocks or inverted
/// diagonal, and the U blocks and inverted diagonal of every row that `L`
/// row `i` names are finished, visible to this thread, and not written.
#[inline(always)]
unsafe fn eliminate_row<S: Simd>(
    s: S,
    sym: &IluSymbolic,
    out: FactorValues,
    i: usize,
    scratch: &mut RowScratch,
) -> bool {
    // SAFETY (all three): in bounds by `values_of`'s checks; the caller
    // vouches for the aliasing.
    let finished_u = |t: usize| unsafe { &*(out.u.add(t * BLOCK_LEN) as *const FactorBlock) };
    let finished_dinv = |k: usize| unsafe { &*(out.dinv.add(k * BLOCK_LEN) as *const FactorBlock) };
    let store = |dst: *mut f32, at: usize, src: &[f64]| unsafe {
        let dst = std::slice::from_raw_parts_mut(dst.add(at * BLOCK_LEN), src.len());
        block::narrow(src, dst)
    };

    let RowScratch { packed, slot_of, .. } = scratch;
    let (l_lo, u_lo) = (sym.l_row_ptr[i], sym.u_row_ptr[i]);
    let pivots = &sym.l_col_idx[l_lo..sym.l_row_ptr[i + 1]];
    let upper = &sym.u_col_idx[u_lo..sym.u_row_ptr[i + 1]];
    let (nlower, diagonal) = (pivots.len(), i as u32);
    let columns = || pivots.iter().chain([&diagonal]).chain(upper);
    let w = &mut packed[..(nlower + 1 + upper.len()) * BLOCK_LEN];
    for (slot, &c) in columns().enumerate() {
        slot_of[c as usize] = slot as u32;
    }
    for (sk, &k) in pivots.iter().enumerate() {
        let k = k as usize;
        let mut lik = ZERO_BLOCK;
        block::factor_matmul(s, block_at(w, sk), finished_dinv(k), &mut lik);
        *block_at_mut(w, sk) = lik;
        for t in sym.u_row_ptr[k]..sym.u_row_ptr[k + 1] {
            let sj = slot_of[sym.u_col_idx[t] as usize];
            if sj != NO_SEED {
                let wj = block_at_mut(w, sj as usize);
                block::factor_matmul_sub(s, &lik, finished_u(t), wj);
            }
        }
    }
    for &c in columns() {
        slot_of[c as usize] = NO_SEED;
    }
    let (lower, rest) = w.split_at(nlower * BLOCK_LEN);
    let (diag, upper) = rest.split_at(BLOCK_LEN);
    let inverse = invert_column_major(block_at(diag, 0));
    let storable = block::narrows(lower) && block::narrows(upper) && inverse.is_some();
    if let Some(inverse) = inverse.filter(|_| storable) {
        store(out.l, l_lo, lower);
        store(out.u, u_lo, upper);
        store(out.dinv, i, &inverse);
    }
    storable
}

/// The inverse of a column-major pivot block, column-major: `None` when
/// the block is numerically singular or its inverse does not fit `f32`.
fn invert_column_major(d: &Block4) -> Option<Block4> {
    let inverse = block::invert(&block::transpose(d))?;
    block::narrows(&inverse).then(|| block::transpose(&inverse))
}

/// The serial numeric core: every row in order.
///
/// # Safety
/// `out` holds the value arrays of factors with `sym`'s patterns, which
/// nobody else accesses during the call.
#[inline(always)]
unsafe fn numeric<S: Simd>(s: S, sym: &IluSymbolic, a: &dyn BlockRows, out: FactorValues) {
    let mut scratch = RowScratch::new(sym);
    for i in 0..sym.nrows() {
        load_row(sym, a, i, &mut scratch);
        // SAFETY: the caller's exclusivity; rows below i are finished.
        let stored = unsafe { eliminate_row(s, sym, out, i, &mut scratch) };
        assert!(stored, "{SINGULAR_PIVOT} (row {i})");
    }
}

/// One thread's share of the team numeric core: the rows of program `tid`
/// of the forward schedule, each loaded before its waits and eliminated
/// after them, on scratch of its own. The smallest row that could not be
/// stored is left in `singular`.
///
/// # Safety
/// `out` as for [`numeric`], shared with the team's other threads only:
/// they run this function concurrently, each under its own `tid`, on the
/// same `forward` (built from `sym`'s `L` pattern) and `progress`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn numeric_team<S: Simd>(
    s: S,
    sym: &IluSymbolic,
    a: &dyn BlockRows,
    out: FactorValues,
    tid: usize,
    forward: &P2pSchedule,
    progress: &P2pProgress,
    singular: &AtomicUsize,
) {
    Program(forward, tid, progress).each_row_loaded(
        &mut RowScratch::new(sym),
        |scratch, i| load_row(sym, a, i, scratch),
        |scratch, i| {
            // SAFETY: row i is this program's alone, and the rows its L
            // pattern names were published before the waits returned (or
            // ran earlier in this program).
            if !unsafe { eliminate_row(s, sym, out, i, scratch) } {
                singular.fetch_min(i, Ordering::Relaxed);
            }
        },
    );
}

/// Numeric block ILU factorization on the given pattern (use
/// [`symbolic_iluk`] or A's own pattern for ILU(0)). Each pattern row must
/// be sorted, contain the diagonal, and include all of A's columns.
///
/// The one-shot form: [`TempBuffer::Compressed`] builds an
/// [`IluSymbolic`] and runs the numeric core once; keep the structure and
/// call [`IluSymbolic::refactor`] to factor the same pattern repeatedly.
pub fn factor(a: &Bcsr4, pattern: &[Vec<u32>], buffer: TempBuffer) -> IluFactors {
    match buffer {
        TempBuffer::Compressed => IluSymbolic::new(a, pattern).factor(a),
        TempBuffer::Full => factor_full(a, pattern),
    }
}

/// The [`TempBuffer::Full`] factorization: structure rebuilt on every
/// call, A found by search, one row-major block slot per matrix column,
/// scalar block arithmetic. Kept as Fig. 7a's "before" and as the
/// reference the numeric core is tested against bit for bit — it rounds
/// a row when the row is stored and reads stored rows back, as the core
/// does.
fn factor_full(a: &Bcsr4, pattern: &[Vec<u32>]) -> IluFactors {
    let n = a.nrows();
    assert_eq!(pattern.len(), n);
    let triangle = |keep: fn(usize, usize) -> bool| {
        let rows = pattern.iter().enumerate();
        let kept = rows.map(|(i, row)| row.iter().copied().filter(|&c| keep(c as usize, i)).collect());
        let m = Bcsr4::from_pattern(&kept.collect::<Vec<Vec<u32>>>());
        Triangle {
            blocks: vec![0.0; m.blocks.len()],
            row_ptr: m.row_ptr,
            col_idx: m.col_idx,
        }
    };
    let (mut l, mut u) = (triangle(|c, i| c < i), triangle(|c, i| c > i));
    let mut dinv = vec![0.0f32; n * BLOCK_LEN];
    // Row-major in, column-major `f32` out.
    let pack = |b: &Block4, dst: &mut [f32], k: usize| {
        block::narrow(&block::transpose(b), &mut dst[k * BLOCK_LEN..(k + 1) * BLOCK_LEN])
    };

    let mut full = vec![0.0f64; n * BLOCK_LEN];
    // Epoch stamps marking the columns valid in the current row.
    let mut stamp = vec![0u32; n];
    for (i, row) in pattern.iter().enumerate() {
        let epoch = i as u32 + 1;
        // load A row i (fill entries start at zero)
        for &c in row {
            let cu = c as usize;
            stamp[cu] = epoch;
            let dst = block_at_mut(&mut full, cu);
            match a.find(i, c) {
                Some(k) => *dst = *a.block(k),
                None => *dst = ZERO_BLOCK,
            }
        }
        // eliminate with pivots k < i (ascending; row is sorted)
        for &k in row.iter().take_while(|&&c| (c as usize) < i) {
            let ku = k as usize;
            // L_ik = w_k * dinv_k
            let lik = block::matmul(block_at(&full, ku), &block::widen(factor_block_at(&dinv, ku)));
            *block_at_mut(&mut full, ku) = lik;
            // w_j -= L_ik * U_kj for j in U(k) ∩ pattern(i)
            for t in u.row_ptr[ku]..u.row_ptr[ku + 1] {
                let j = u.col_idx[t] as usize;
                if stamp[j] == epoch {
                    let (ukj, wj) = (block::widen(u.block(t)), block_at_mut(&mut full, j));
                    for (at, w) in wj.iter_mut().enumerate() {
                        for k in 0..4 {
                            *w -= lik[at / 4 * 4 + k] * ukj[k * 4 + at % 4];
                        }
                    }
                }
            }
        }
        // store L, D^{-1}, U
        let inverse = block::invert(block_at(&full, i)).filter(|inv| block::narrows(inv));
        let storable = row
            .iter()
            .all(|&c| c as usize == i || block::narrows(block_at(&full, c as usize)));
        let inverse = inverse.filter(|_| storable);
        let inverse = inverse.unwrap_or_else(|| panic!("{SINGULAR_PIVOT} (row {i})"));
        pack(&inverse, &mut dinv, i);
        let (mut lk, mut uk) = (l.row_ptr[i], u.row_ptr[i]);
        for &c in row {
            let b = block_at(&full, c as usize);
            match (c as usize).cmp(&i) {
                std::cmp::Ordering::Less => {
                    pack(b, &mut l.blocks, lk);
                    lk += 1;
                }
                std::cmp::Ordering::Equal => {}
                std::cmp::Ordering::Greater => {
                    pack(b, &mut u.blocks, uk);
                    uk += 1;
                }
            }
        }
    }
    IluFactors { l, u, dinv }
}

/// Convenience: ILU(0) with the compressed buffer.
pub fn ilu0(a: &Bcsr4) -> IluFactors {
    let pattern: Vec<Vec<u32>> = (0..a.nrows())
        .map(|r| a.col_idx[a.row_ptr[r]..a.row_ptr[r + 1]].to_vec())
        .collect();
    factor(a, &pattern, TempBuffer::Compressed)
}

/// Convenience: ILU(k) with the compressed buffer.
pub fn iluk(a: &Bcsr4, fill: usize) -> IluFactors {
    let pattern = symbolic_iluk(a, fill);
    factor(a, &pattern, TempBuffer::Compressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::trsv;

    fn tridiag(n: usize, seed: u64) -> Bcsr4 {
        let edges: Vec<[u32; 2]> = (0..n - 1).map(|i| [i as u32, i as u32 + 1]).collect();
        let mut a = Bcsr4::from_edges(n, &edges);
        a.fill_diag_dominant(seed);
        a
    }

    fn mesh_matrix(seed: u64) -> Bcsr4 {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(seed);
        a
    }

    /// How far a solve with factors that are the exact LU may sit from the
    /// `f64` solution `x`: the factors are stored in `f32`, so each entry
    /// of `L`, `U` and `D⁻¹` carries a relative error of up to half an
    /// `f32::EPSILON`. 8 × `f32::EPSILON` × the solution's scale is 16–20
    /// times what these well-conditioned systems measure (0.41–0.49).
    fn stored_exactly(x: &[f64]) -> f64 {
        8.0 * f64::from(f32::EPSILON) * x.iter().fold(0.0, |m: f64, v| m.max(v.abs()))
    }

    #[test]
    fn ilu0_on_tridiagonal_is_exact_lu() {
        // A tridiagonal (block) matrix suffers no fill, so ILU(0) is the
        // exact factorization: solving with it must reproduce x exactly.
        let a = tridiag(6, 11);
        let f = ilu0(&a);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let x = trsv::solve(&f, &b);
        let tol = stored_exactly(&xref);
        for i in 0..n {
            assert!((x[i] - xref[i]).abs() < tol, "i={i}: {} vs {}", x[i], xref[i]);
        }
    }

    #[test]
    fn full_and_compressed_buffers_identical() {
        let a = mesh_matrix(5);
        let pattern: Vec<Vec<u32>> = (0..a.nrows())
            .map(|r| a.col_idx[a.row_ptr[r]..a.row_ptr[r + 1]].to_vec())
            .collect();
        let f1 = factor(&a, &pattern, TempBuffer::Full);
        let f2 = factor(&a, &pattern, TempBuffer::Compressed);
        assert_eq!(f1.l.blocks, f2.l.blocks);
        assert_eq!(f1.u.blocks, f2.u.blocks);
        assert_eq!(f1.dinv, f2.dinv);
    }

    fn same_factors(a: &IluFactors, b: &IluFactors) -> bool {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.l.row_ptr == b.l.row_ptr
            && a.l.col_idx == b.l.col_idx
            && a.u.row_ptr == b.u.row_ptr
            && a.u.col_idx == b.u.col_idx
            && bits(&a.l.blocks) == bits(&b.l.blocks)
            && bits(&a.u.blocks) == bits(&b.u.blocks)
            && bits(&a.dinv) == bits(&b.dinv)
    }

    fun3d_util::prop_cases! {
        fn numeric_core_is_the_full_buffer_reference_bitwise(g, cases = 16) {
            // Random scrambled meshes × fill levels: the one-shot form, a
            // fresh factorization on a kept structure, a refactorization
            // over deliberately dirty storage, a second matrix through the
            // same storage, and both lane implementations — all the bits
            // of `TempBuffer::Full`.
            let seed = g.u64();
            let fill = g.usize_range(0, 3);
            let dims = [g.usize_range(3, 7), g.usize_range(3, 6), g.usize_range(3, 6)];
            let mut spec = fun3d_mesh::generator::ChannelSpec::with_resolution(dims[0], dims[1], dims[2]);
            spec.seed = seed;
            let mesh = spec.build();
            let mut a = Bcsr4::from_edges(mesh.nvertices(), &mesh.edges());
            a.fill_diag_dominant(seed);
            let pattern = symbolic_iluk(&a, fill);
            let reference = factor(&a, &pattern, TempBuffer::Full);
            let one_shot = factor(&a, &pattern, TempBuffer::Compressed);
            fun3d_util::prop_assert!(same_factors(&reference, &one_shot), "one shot, fill {fill}");

            let sym = IluSymbolic::new(&a, &pattern);
            let mut kept = sym.factor(&a);
            fun3d_util::prop_assert!(same_factors(&reference, &kept), "kept structure, fill {fill}");
            let mut b = a.clone();
            b.fill_diag_dominant(seed ^ 0x5EED);
            let reference_b = factor(&b, &pattern, TempBuffer::Full);
            let lanes = [Some(Isa::portable()), Isa::avx2()];
            for isa in lanes.into_iter().flatten() {
                for (matrix, want) in [(&a, &reference), (&b, &reference_b), (&a, &reference)] {
                    for dirt in [f32::NAN, 1e30] {
                        kept.l.blocks.fill(dirt);
                        kept.u.blocks.fill(-dirt);
                        kept.dinv.fill(dirt);
                        sym.refactor_on(isa, matrix, &mut kept);
                        fun3d_util::prop_assert!(
                            same_factors(want, &kept),
                            "refactor over dirty storage, {} lanes, fill {fill}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    fn pattern_of(a: &Bcsr4) -> Vec<Vec<u32>> {
        (0..a.nrows())
            .map(|r| a.col_idx[a.row_ptr[r]..a.row_ptr[r + 1]].to_vec())
            .collect()
    }

    #[test]
    #[should_panic(expected = "ILU pattern row 2 lacks the diagonal")]
    fn structure_build_names_a_missing_diagonal() {
        let a = tridiag(5, 1);
        let mut pattern = pattern_of(&a);
        pattern[2].retain(|&c| c != 2);
        // the diagonal is a column of A too: take it out of A's row as well
        let mut cols = pattern_of(&a);
        cols[2].retain(|&c| c != 2);
        IluSymbolic::new(&Bcsr4::from_pattern(&cols), &pattern);
    }

    #[test]
    #[should_panic(expected = "ILU pattern row 3 lacks column 4 of A")]
    fn structure_build_names_a_missing_column_of_a() {
        let a = tridiag(5, 1);
        let mut pattern = pattern_of(&a);
        pattern[3].retain(|&c| c != 4);
        IluSymbolic::new(&a, &pattern);
    }

    #[test]
    #[should_panic(expected = "factors were not allocated by this structure")]
    fn refactor_rejects_foreign_factors() {
        let a = mesh_matrix(5);
        let sym0 = IluSymbolic::new(&a, &symbolic_iluk(&a, 0));
        let sym1 = IluSymbolic::new(&a, &symbolic_iluk(&a, 1));
        sym0.refactor(&a, &mut sym1.factor(&a));
    }

    #[test]
    fn symbolic_ilu0_is_a_pattern() {
        let a = mesh_matrix(1);
        let p = symbolic_iluk(&a, 0);
        for r in 0..a.nrows() {
            assert_eq!(
                p[r],
                a.col_idx[a.row_ptr[r]..a.row_ptr[r + 1]].to_vec(),
                "row {r}"
            );
        }
    }

    #[test]
    fn symbolic_fill_grows_with_level() {
        let a = mesh_matrix(1);
        let n0: usize = symbolic_iluk(&a, 0).iter().map(Vec::len).sum();
        let n1: usize = symbolic_iluk(&a, 1).iter().map(Vec::len).sum();
        let n2: usize = symbolic_iluk(&a, 2).iter().map(Vec::len).sum();
        assert!(n1 > n0, "ILU(1) must add fill: {n1} vs {n0}");
        assert!(n2 >= n1);
    }

    #[test]
    fn symbolic_level1_matches_bruteforce() {
        // Brute force: fill(i,j) at level 1 exists iff ∃k < min(i,j) with
        // A(i,k) and A(k,j) nonzero (for a symmetric pattern).
        let a = mesh_matrix(2);
        let n = a.nrows();
        let has = |i: usize, j: u32| a.find(i, j).is_some();
        let p1 = symbolic_iluk(&a, 1);
        for i in 0..n {
            for j in 0..n as u32 {
                let expect = has(i, j)
                    || (0..(i.min(j as usize)))
                        .any(|k| has(i, k as u32) && has(k, j));
                let got = p1[i].binary_search(&j).is_ok();
                assert_eq!(got, expect, "fill({i},{j})");
            }
        }
    }

    #[test]
    fn high_fill_converges_to_exact_lu() {
        // With enough fill ILU(k) becomes complete LU: exact solve.
        let a = mesh_matrix(3);
        let f = iluk(&a, 20);
        let n = a.dim();
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xref, &mut b);
        let x = trsv::solve(&f, &b);
        let tol = stored_exactly(&xref);
        for i in 0..n {
            assert!((x[i] - xref[i]).abs() < tol, "i={i}");
        }
    }

    #[test]
    fn ilu_residual_small_for_dominant_matrix() {
        // ILU(0) as a preconditioner: || I - (LU)^{-1} A || should be
        // well below 1 for a diagonally dominant matrix. Check the action
        // on a few vectors.
        let a = mesh_matrix(4);
        let f = ilu0(&a);
        let n = a.dim();
        for s in 0..3 {
            let x: Vec<f64> = (0..n).map(|i| ((i + s) as f64 * 0.17).sin()).collect();
            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            let y = trsv::solve(&f, &ax); // y ≈ x
            let err: f64 = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(err < 0.5 * norm, "preconditioner too weak: {err} vs {norm}");
        }
    }

    #[test]
    fn iluk_on_small_dense_pattern_equals_dense_lu_solve() {
        // 3 fully-coupled block rows: ILU(anything) = LU, so solving with
        // the factors equals the dense solve.
        let mut a = Bcsr4::from_pattern(&[
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2],
        ]);
        a.fill_diag_dominant(9);
        let f = ilu0(&a);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let x1 = trsv::solve(&f, &b);
        let x2 = dense::solve(&a.to_dense(), &b, n);
        let tol = stored_exactly(&x2);
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < tol, "i={i}: {} vs {}", x1[i], x2[i]);
        }
    }
}
