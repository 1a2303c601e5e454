//! A spinning sense-reversing barrier.
//!
//! Level-scheduled sparse recurrences synchronize after *every* level of
//! the task DAG — hundreds of barriers per triangular solve — so barrier
//! latency is on the critical path (one of the two problems the paper's
//! P2P sparsification attacks). A centralized sense-reversing barrier with
//! busy-waiting keeps the cost to one atomic RMW plus a spin, with no
//! kernel round trips.

use crate::sync_shim::{spin_hint, yield_now, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use fun3d_util::telemetry;

/// Barrier phases completed across *every* [`SpinBarrier`] in the
/// process (always counted, leader-only increment). Delta this around a
/// solve for the flight recorder's barrier-crossing summary.
static TOTAL_CROSSINGS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide barrier crossings so far (see [`TOTAL_CROSSINGS`]).
pub fn total_crossings() -> u64 {
    TOTAL_CROSSINGS.load(std::sync::atomic::Ordering::Relaxed)
}

/// A reusable spinning barrier for a fixed number of participants.
pub struct SpinBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    crossings: AtomicU64,
    parties: usize,
    /// Pace tracking for the adaptive waiter nap (real builds only; the
    /// model checker sees the pure spin protocol). The leader stamps each
    /// crossing with nanoseconds since construction; the EWMA of the
    /// inter-crossing interval sizes the nap a late waiter may take, so a
    /// descheduled party costs at most ~1/8 of a phase in extra latency
    /// instead of a yield storm on an oversubscribed core.
    #[cfg(not(fun3d_check))]
    origin: std::time::Instant,
    #[cfg(not(fun3d_check))]
    last_cross_ns: std::sync::atomic::AtomicU64,
    #[cfg(not(fun3d_check))]
    pace_ns: std::sync::atomic::AtomicU64,
}

impl SpinBarrier {
    /// Creates a barrier for `parties` threads (`parties >= 1`).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1);
        SpinBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            crossings: AtomicU64::new(0),
            parties,
            #[cfg(not(fun3d_check))]
            origin: std::time::Instant::now(),
            #[cfg(not(fun3d_check))]
            last_cross_ns: std::sync::atomic::AtomicU64::new(0),
            #[cfg(not(fun3d_check))]
            pace_ns: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Leader-only: fold the interval since the previous crossing into
    /// the pace estimate. No-op in model builds.
    #[cfg(not(fun3d_check))]
    fn note_crossing(&self) {
        let now = self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // Relaxed swap: only the (unique) leader of a phase writes here.
        let last = self.last_cross_ns.swap(now, Ordering::Relaxed);
        if last == 0 || now <= last {
            return;
        }
        let d = now - last;
        // Discard outliers (an idle gap between solves is not a phase).
        if d > 10_000_000 {
            return;
        }
        // Live inter-crossing distribution (the metrics snapshot), same
        // outlier filter as the pace EWMA.
        telemetry::metrics::record_ns("threads.barrier_wait_ns", d);
        let old = self.pace_ns.load(Ordering::Relaxed);
        let new = if old == 0 { d } else { (3 * old + d) / 4 };
        self.pace_ns.store(new.max(1), Ordering::Relaxed);
    }
    #[cfg(fun3d_check)]
    fn note_crossing(&self) {}

    /// Completed barrier phases over this barrier's lifetime — together
    /// with `ThreadPool::regions_launched` this quantifies the
    /// synchronization a solver iteration actually pays.
    pub fn crossings(&self) -> u64 {
        // Relaxed: monotonic statistic; callers read it quiescently.
        self.crossings.load(Ordering::Relaxed)
    }

    /// Blocks (spinning) until all `parties` threads have called `wait`.
    /// Returns `true` on exactly one thread per phase (the last arriver),
    /// mirroring `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> bool {
        // Relaxed: `sense` only flips between this thread's own phases;
        // the phase boundary itself is ordered by the AcqRel RMW below
        // plus the Release/Acquire sense handshake.
        let my_sense = !self.sense.load(Ordering::Relaxed);
        // AcqRel: the Acquire half orders this thread after every earlier
        // arriver's Release half, so the closing arriver has seen all
        // pre-barrier writes; the Release half publishes this thread's
        // pre-barrier writes into that chain.
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.parties {
            // Relaxed: the reset only needs to be ordered before the NEXT
            // phase's arrivals, which the Release sense store below (and
            // each waiter's Acquire of it) provides.
            self.count.store(0, Ordering::Relaxed);
            // Relaxed: monotonic stat, read casually via `crossings()`.
            self.crossings.fetch_add(1, Ordering::Relaxed);
            TOTAL_CROSSINGS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.note_crossing();
            // Release: publishes the closing arriver's accumulated view
            // (count RMW chain) — and the count reset — to every waiter's
            // Acquire sense load; this is the edge that makes data
            // written before the barrier visible after it.
            self.sense.store(my_sense, Ordering::Release);
            // One record per completed phase (leader only, after the
            // waiters are released), so the telemetry "barrier.phase"
            // counter is the global crossing count, not parties x
            // crossings.
            telemetry::record_kernel(
                "barrier.phase",
                telemetry::KernelCounts::once(self.parties as u64, 0, 0, 0),
            );
            true
        } else {
            let mut spins = 0u32;
            // Acquire: pairs with the leader's Release sense store, so
            // every pre-barrier write of every party (gathered through
            // the AcqRel count chain) is visible once the spin exits.
            while self.sense.load(Ordering::Acquire) != my_sense {
                spins = spins.wrapping_add(1);
                if spins % 64 == 0 {
                    // On an oversubscribed machine (this container has a
                    // single core) pure spinning livelocks; yield lets the
                    // remaining parties run.
                    yield_now();
                    // Past a few hundred waits the phase is clearly
                    // stalled on a descheduled party: nap for ~1/8 of the
                    // observed phase pace instead of a yield storm, so
                    // the party holding the work gets the core. Real
                    // builds only; bounded so a bad pace estimate costs
                    // at most 100 us per wait.
                    #[cfg(not(fun3d_check))]
                    if spins >= 256 {
                        let pace = self.pace_ns.load(Ordering::Relaxed);
                        if pace > 0 {
                            let nap = (pace / 8).clamp(1_000, 100_000);
                            std::thread::sleep(std::time::Duration::from_nanos(nap));
                        }
                    }
                } else {
                    spin_hint();
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_party_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn synchronizes_phases() {
        // Each thread increments a phase counter, waits, and checks that
        // the counter equals parties * phase — i.e. no thread raced ahead.
        let parties = 4;
        let pool = ThreadPool::new(parties);
        let barrier = SpinBarrier::new(parties);
        let counter = AtomicUsize::new(0);
        let failures = AtomicUsize::new(0);
        pool.run(|_tid| {
            for phase in 1..=20usize {
                counter.fetch_add(1, Ordering::SeqCst);
                barrier.wait();
                if counter.load(Ordering::SeqCst) < parties * phase {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
                barrier.wait();
            }
        });
        assert_eq!(failures.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        let parties = 3;
        let pool = ThreadPool::new(parties);
        let barrier = SpinBarrier::new(parties);
        let leaders = AtomicUsize::new(0);
        pool.run(|_tid| {
            for _ in 0..10 {
                if barrier.wait() {
                    leaders.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 10);
    }
}
