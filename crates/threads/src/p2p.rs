//! Point-to-point progress counters.
//!
//! The sparsified-synchronization recurrences (Park et al. [26], used by
//! the paper for both TRSV and ILU) replace per-level barriers with
//! fine-grained hand-offs: every thread runs an ordered program of rows
//! and publishes how many it has finished; a consumer row waits until its
//! producer thread's count passes the row it reads. [`P2pProgress`] is
//! that mechanism and nothing else — which thread runs which row, and
//! which waits survive sparsification, is the schedule's business
//! (`fun3d_sparse::p2p`).
//!
//! What a hand-off costs:
//!
//! * **one counter per thread, alone on its cache lines.** A counter has
//!   exactly one writer, so publishing is a plain `store(Release)`, not a
//!   locked read-modify-write, and a thread spinning on one producer never
//!   touches the line another producer is publishing through;
//! * **counters are monotone across sweeps.** Every sweep advances every
//!   counter by the same `stride` (an upper bound on the rows one thread
//!   publishes per sweep), so a sweep starts from wherever the last one
//!   ended: no reset, hence no barrier to publish a reset;
//! * **a wait that finds its producer already past is one `Acquire`
//!   load.** One that blocks re-reads for a bounded number of turns (a
//!   hand-off between two running threads lands within that), then pauses
//!   between reads, then yields the core — on an oversubscribed host the
//!   producer may need it. Only blocked waits are counted and timed: an
//!   [attributed](P2pProgress::attributed) progress records each sweep as
//!   one call of a kernel counter on the sweeping thread's own recorder
//!   (`items` = blocked waits, `ns` = their time).

use crate::sync_shim::{spin_hint, yield_now, AtomicUsize, Ordering};
use fun3d_util::telemetry::{self, KernelCounts};

/// Re-reads of a blocked wait before it starts pausing between reads.
/// Model builds skip this tier: there every read is a scheduling point
/// and only the checker's own spin hint lets the producer run.
const PLAIN_SPINS: u32 = if cfg!(fun3d_check) { 0 } else { 64 };
/// Reads (plain ones included) before a blocked wait yields the core
/// between reads: a few tens of microseconds of pausing.
const PAUSE_SPINS: u32 = if cfg!(fun3d_check) { 0 } else { 1024 };

/// One producer's count of published rows. The alignment keeps two
/// producers' counters out of each other's cache line and out of the
/// adjacent line the hardware prefetcher pairs with it.
#[repr(align(128))]
struct Slot {
    done: AtomicUsize,
}

/// Per-thread progress counters for programs of at most `stride` rows per
/// thread and sweep, reusable for any number of sweeps without a reset.
pub struct P2pProgress {
    slots: Box<[Slot]>,
    stride: usize,
    /// The kernel counter each sweep is recorded under, if any.
    attributed: Option<&'static str>,
}

impl P2pProgress {
    /// Counters for `nthreads` producers, none of which publishes more
    /// than `stride` rows in one sweep.
    pub fn new(nthreads: usize, stride: usize) -> P2pProgress {
        let slot = || Slot {
            done: AtomicUsize::new(0),
        };
        P2pProgress {
            slots: (0..nthreads).map(|_| slot()).collect(),
            stride: stride.max(1),
            attributed: None,
        }
    }

    /// Records every sweep, blocked or not, as one call of the kernel
    /// counter `name` on the sweeping thread's recorder: `items` counts
    /// its blocked waits and `ns` their time (e.g. `trsv.p2p_wait.fwd`).
    pub fn attributed(mut self, name: &'static str) -> P2pProgress {
        self.attributed = Some(name);
        self
    }

    /// Starts thread `tid`'s part of a sweep. Every thread of the team
    /// takes part in every sweep, each under its own `tid`; the sweep ends
    /// when the handle is dropped.
    pub fn begin(&self, tid: usize) -> P2pSweep<'_> {
        // Relaxed: the only writer of this counter is this thread.
        let base = self.slots[tid].done.load(Ordering::Relaxed);
        debug_assert_eq!(base % self.stride, 0, "a sweep was left unfinished");
        P2pSweep {
            progress: self,
            tid,
            base,
            published: 0,
            blocked_waits: 0,
            blocked_ns: 0,
        }
    }
}

/// One thread's part of one sweep over a [`P2pProgress`].
pub struct P2pSweep<'a> {
    progress: &'a P2pProgress,
    tid: usize,
    /// Every counter's value when this sweep started (`sweeps × stride`).
    base: usize,
    published: usize,
    blocked_waits: u64,
    blocked_ns: u64,
}

impl P2pSweep<'_> {
    /// Returns once producer `pt` has published more than `pos` rows of
    /// this sweep; everything it wrote before publishing them is visible.
    #[inline]
    pub fn wait(&mut self, pt: usize, pos: usize) {
        let (cell, target) = (&self.progress.slots[pt].done, self.base + pos + 1);
        // Acquire: pairs with the producer's Release store in `publish`
        // (or in the drop that ends its sweep), so the rows it finished
        // before that store are visible after this load.
        if cell.load(Ordering::Acquire) < target {
            self.wait_blocked(cell, target);
        }
    }

    #[cold]
    fn wait_blocked(&mut self, cell: &AtomicUsize, target: usize) {
        let t0 = std::time::Instant::now();
        let mut reads = 0u32;
        // Acquire: as in `wait`.
        while cell.load(Ordering::Acquire) < target {
            if reads >= PAUSE_SPINS {
                yield_now();
            } else if reads >= PLAIN_SPINS {
                spin_hint();
            }
            reads = reads.saturating_add(1);
        }
        self.blocked_waits += 1;
        self.blocked_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Publishes one more finished row of this thread's program.
    #[inline]
    pub fn publish(&mut self) {
        self.published += 1;
        debug_assert!(self.published <= self.progress.stride);
        // Release: makes the row's writes visible to a waiter whose
        // Acquire load sees this count. A store, not an RMW: this thread
        // is the counter's only writer.
        self.progress.slots[self.tid]
            .done
            .store(self.base + self.published, Ordering::Release);
    }
}

impl Drop for P2pSweep<'_> {
    /// Ends the sweep: the counter moves to the next multiple of the
    /// stride, where the next sweep starts. Also reached by a thread
    /// unwinding out of its program, which releases whoever waits on it
    /// instead of leaving them spinning.
    fn drop(&mut self) {
        let p = self.progress;
        // Release: a program shorter than the stride ends here, and a
        // waiter may observe this store instead of the last `publish`.
        p.slots[self.tid]
            .done
            .store(self.base + p.stride, Ordering::Release);
        // A sweep dropped while unwinding records nothing: the record
        // takes the recorder's lock.
        if let (Some(name), false) = (p.attributed, std::thread::panicking()) {
            let counts = KernelCounts {
                calls: 1,
                items: self.blocked_waits,
                ns: self.blocked_ns,
                ..KernelCounts::default()
            };
            telemetry::record_kernel(name, counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_shim::ShimCell;
    use crate::ThreadPool;

    #[test]
    fn counters_sit_on_their_own_cache_lines() {
        let p = P2pProgress::new(3, 4);
        let at = |t: usize| &p.slots[t].done as *const _ as usize;
        assert_eq!(at(0) % 128, 0);
        assert!(at(1) - at(0) >= 128 && at(2) - at(1) >= 128);
    }

    /// A chain through `n` rows dealt round-robin to `nt` threads, run
    /// `sweeps` times over the same counters: row `r` adds one to what
    /// row `r − 1` left in *this* sweep, so the last row of sweep `s` must
    /// read `100 s + n`.
    fn chain(nt: usize, n: usize, sweeps: usize) {
        let pool = ThreadPool::new(nt);
        let progress = P2pProgress::new(nt, n.div_ceil(nt));
        let rows: Vec<ShimCell<usize>> = (0..n).map(|_| ShimCell::new(0)).collect();
        for s in 0..sweeps {
            pool.run(|tid| {
                let mut sweep = progress.begin(tid);
                for r in (tid..n).step_by(nt) {
                    let mut before = 100 * s;
                    if r > 0 {
                        sweep.wait((r - 1) % nt, (r - 1) / nt);
                        // SAFETY: row r − 1 was published; its owner
                        // writes it once per sweep, before publishing.
                        before = rows[r - 1].with(|p| unsafe { *p });
                    }
                    // SAFETY: row r is this thread's alone.
                    rows[r].with_mut(|p| unsafe { *p = before + 1 });
                    sweep.publish();
                }
            });
            // SAFETY: the region has ended.
            assert_eq!(rows[n - 1].with(|p| unsafe { *p }), 100 * s + n);
        }
    }

    #[test]
    fn chained_rows_hand_off_in_order_across_sweeps() {
        chain(2, 9, 3);
        chain(4, 16, 2);
    }

    #[test]
    fn oversubscribed_chain_reaches_the_yield() {
        // More threads than this host has cores, and empty programs
        // (7 threads, 5 rows): a blocked wait must give the core away.
        chain(7, 5, 2);
        chain(7, 40, 2);
    }

    #[test]
    fn blocked_waits_are_attributed_and_free_waits_are_not() {
        use fun3d_util::telemetry::{local_counters, set_level, Level};
        set_level(Level::Counters);
        let progress = P2pProgress::new(2, 1).attributed("test.p2p_wait");
        let pool = ThreadPool::new(2);
        let gate = crate::SpinBarrier::new(2);
        // Each thread's `(calls, items, ns)` of the counter: thread 0 is
        // the caller, thread 1 a pool worker, each with its own recorder.
        let read = || {
            let out = [(); 2].map(|_| std::sync::Mutex::new((0, 0, 0)));
            pool.run(|tid| {
                let c = local_counters()
                    .get("test.p2p_wait")
                    .copied()
                    .unwrap_or_default();
                *out[tid].lock().unwrap() = (c.calls, c.items, c.ns);
            });
            out.map(|m| m.into_inner().unwrap())
        };
        let before = read();
        // The slow path, entered directly so that the test does not hinge
        // on thread 1 losing a race: one blocked wait, however long.
        pool.run(|tid| {
            let mut sweep = progress.begin(tid);
            if tid == 0 {
                sweep.publish();
            } else {
                let target = sweep.base + 1;
                sweep.wait_blocked(&progress.slots[0].done, target);
            }
        });
        // The fast path: published before anyone looks.
        pool.run(|tid| {
            let mut sweep = progress.begin(tid);
            if tid == 0 {
                sweep.publish();
            }
            gate.wait();
            if tid == 1 {
                sweep.wait(0, 0);
            }
        });
        let after = read();
        let delta = |t: usize| {
            let (a, b) = (after[t], before[t]);
            (a.0 - b.0, a.1 - b.1, a.2 - b.2)
        };
        // Every sweep is one call; only thread 1's first sweep blocked.
        let (calls, waits, ns) = delta(1);
        assert_eq!((calls, waits), (2, 1));
        assert!(ns > 0);
        assert_eq!(delta(0), (2, 0, 0));
    }

    #[test]
    fn an_unattributed_progress_records_nothing() {
        use fun3d_util::telemetry::{local_counters, set_level, Level};
        set_level(Level::Counters);
        let progress = P2pProgress::new(1, 1);
        let before = local_counters();
        progress.begin(0).publish();
        assert!(local_counters().since(&before).entries().is_empty());
    }
}
