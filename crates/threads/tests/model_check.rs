//! Model checks for the threads crate's lock-free protocols, driven by
//! fun3d-check virtual threads. Compiled only under `--cfg fun3d_check`
//! (see `scripts/verify.sh`), where `fun3d_threads::sync_shim` resolves
//! to the checker's tracked atomics — so these tests explore *schedules*,
//! not wall-clock luck.
//!
//! Each protocol gets two tests:
//! - a **positive** model: the real production type, exercised end to end
//!   at 2–3 virtual threads under bounded-exhaustive DFS, must complete
//!   every schedule with no data race, deadlock, or livelock;
//! - a **mutant**: an inline copy of the protocol's synchronization
//!   skeleton with exactly one ordering downgraded (`Release` →
//!   `Relaxed`), which the checker must catch — proving the orderings the
//!   real code uses are load-bearing, not cargo-culted.
#![cfg(fun3d_check)]

use fun3d_check::{explore, thread, Config, FailureKind};
use fun3d_threads::sync_shim::{
    spin_hint, AtomicBool, AtomicU64, AtomicUsize, Ordering, ShimCell,
};
use fun3d_threads::{AtomicF64View, Bell, P2pProgress, SpinBarrier, Team};
use std::sync::Arc;

/// Exhaustive exploration budget shared by every protocol model. The
/// preemption bound keeps the doorbell's full region round-trip tractable
/// while still covering every bug class these protocols can express with
/// two context switches (one to expose a window, one to step into it).
fn cfg() -> Config {
    Config {
        max_threads: 4,
        preemption_bound: Some(2),
        max_schedules: 400_000,
        history: 3,
    }
}

fn assert_clean(report: fun3d_check::Report) {
    // Schedule counts are quoted in EXPERIMENTS.md; visible via
    // `cargo test ... -- --nocapture`.
    eprintln!("explored {} schedules (exhaustive: {})", report.schedules, report.exhaustive);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.exhaustive,
        "budget too small: {} schedules explored without exhausting",
        report.schedules
    );
    assert!(report.schedules >= 2, "model degenerated to one schedule");
}

fn assert_race(report: fun3d_check::Report) -> fun3d_check::Failure {
    let f = report.failure.expect("checker must catch the seeded mutant");
    assert_eq!(f.kind, FailureKind::DataRace, "{}", f.message);
    assert!(!f.schedule.is_empty(), "failure must carry a replayable schedule");
    f
}

// ---- protocol 1: doorbell dispatch (pool.rs Bell) ----

/// One launcher (the root virtual thread) + `nworkers` workers running
/// the exact Bell protocol from `ThreadPool`: post → worker_wait/
/// take_job/worker_done → wait_workers/retire → ring_shutdown. The
/// payload is a non-atomic cell written before `post` and read inside
/// the region — only the Release epoch bump / Acquire epoch load edge
/// makes that safe, which is precisely what the model verifies.
fn doorbell_round_trip(nworkers: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let bell = Arc::new(Bell::new(nworkers));
        let workers: Vec<_> = (0..nworkers)
            .map(|_| {
                let bell = Arc::clone(&bell);
                thread::spawn(move || {
                    let mut my_epoch = 0usize;
                    loop {
                        let e = bell.worker_wait(my_epoch);
                        if bell.shutting_down() {
                            return;
                        }
                        my_epoch = e;
                        let job = bell.take_job();
                        // SAFETY: same argument as worker_loop — the
                        // launcher blocks in wait_workers until every
                        // worker_done, so the pointee is alive.
                        (unsafe { &*job })(0);
                        bell.worker_done();
                    }
                })
            })
            .collect();

        let payload = ShimCell::new(0u64);
        let hits = AtomicUsize::new(0);
        payload.with_mut(|p| unsafe { *p = 42 });
        let region = |_tid: usize| {
            payload.with(|p| assert_eq!(unsafe { *p }, 42, "region saw unpublished payload"));
            hits.fetch_add(1, Ordering::Relaxed);
        };
        let wide: &(dyn Fn(usize) + Sync) = &region;
        // SAFETY: lifetime erasure as in ThreadPool::run; wait_workers
        // below outlives every use.
        let job: fun3d_threads::JobPtr = unsafe { std::mem::transmute(wide) };
        bell.post(job);
        bell.wait_workers();
        assert!(!bell.retire(), "no worker panicked");
        assert_eq!(hits.load(Ordering::Relaxed), nworkers);
        bell.ring_shutdown();
        for w in workers {
            w.join();
        }
    }
}

#[test]
fn doorbell_region_round_trip_is_race_free() {
    // One worker at the full preemption bound: every ≤2-switch schedule
    // of the complete post/region/retire/shutdown cycle.
    assert_clean(explore(&cfg(), doorbell_round_trip(1)));
}

#[test]
fn doorbell_two_workers_round_trip_is_race_free() {
    // Two workers (3 virtual threads) at bound 1: covers the
    // done-count accumulation and both workers' independent wakeups
    // while keeping the exhaustive search tractable (bound 2 at this
    // thread count is ~400k schedules / ~45 s for this one model).
    let c = Config {
        preemption_bound: Some(1),
        ..cfg()
    };
    assert_clean(explore(&c, doorbell_round_trip(2)));
}

#[test]
fn doorbell_relaxed_epoch_bump_is_caught() {
    // Mutant skeleton of `Bell::post`: the job is still written before
    // the epoch bump, but the bump is Relaxed — the doorbell rings
    // without publishing the job, so the worker's read of the job cell
    // races with the launcher's write.
    let report = explore(&cfg(), || {
        let epoch = Arc::new(AtomicUsize::new(0));
        let job = Arc::new(ShimCell::new(0u64));
        let (e2, j2) = (Arc::clone(&epoch), Arc::clone(&job));
        let worker = thread::spawn(move || {
            // Worker side is unchanged (Acquire, as in worker_wait).
            while e2.load(Ordering::Acquire) == 0 {
                spin_hint();
            }
            j2.with(|p| unsafe { *p });
        });
        job.with_mut(|p| unsafe { *p = 7 });
        epoch.fetch_add(1, Ordering::Relaxed); // BUG: Bell::post uses Release
        worker.join();
    });
    assert_race(report);
}

// ---- protocol 2: sense-reversing barrier (barrier.rs) ----

#[test]
fn barrier_publishes_pre_barrier_writes() {
    // Classic barrier contract: each side writes its own cell before the
    // barrier and reads the other side's after. Both directions must be
    // ordered — the late arriver's view travels through the AcqRel count
    // chain, the early arriver's through the Release/Acquire sense edge.
    let report = explore(&cfg(), || {
        let b = Arc::new(SpinBarrier::new(2));
        let mine = Arc::new(ShimCell::new(0u64));
        let theirs = Arc::new(ShimCell::new(0u64));
        let (b2, m2, t2) = (Arc::clone(&b), Arc::clone(&mine), Arc::clone(&theirs));
        let t = thread::spawn(move || {
            t2.with_mut(|p| unsafe { *p = 2 });
            b2.wait();
            m2.with(|p| assert_eq!(unsafe { *p }, 1));
        });
        mine.with_mut(|p| unsafe { *p = 1 });
        b.wait();
        theirs.with(|p| assert_eq!(unsafe { *p }, 2));
        t.join();
    });
    assert_clean(report);
}

#[test]
fn barrier_relaxed_sense_store_is_caught() {
    // Mutant skeleton of `SpinBarrier::wait`: identical except the
    // leader's sense flip is Relaxed. The waiter still sees the flip
    // (coherence) but inherits no view, so its read of the leader's
    // pre-barrier write races.
    struct MutantBarrier {
        count: AtomicUsize,
        sense: AtomicBool,
        parties: usize,
    }
    impl MutantBarrier {
        fn wait(&self) -> bool {
            let my_sense = !self.sense.load(Ordering::Relaxed);
            let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
            if arrived == self.parties {
                self.count.store(0, Ordering::Relaxed);
                self.sense.store(my_sense, Ordering::Relaxed); // BUG: Release
                true
            } else {
                while self.sense.load(Ordering::Acquire) != my_sense {
                    spin_hint();
                }
                false
            }
        }
    }
    let report = explore(&cfg(), || {
        let b = Arc::new(MutantBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            parties: 2,
        });
        let a = Arc::new(ShimCell::new(0u64));
        let c = Arc::new(ShimCell::new(0u64));
        let (b2, a2, c2) = (Arc::clone(&b), Arc::clone(&a), Arc::clone(&c));
        let t = thread::spawn(move || {
            c2.with_mut(|p| unsafe { *p = 2 });
            b2.wait();
            a2.with(|p| unsafe { *p });
        });
        a.with_mut(|p| unsafe { *p = 1 });
        b.wait();
        c.with(|p| unsafe { *p });
        t.join();
    });
    assert_race(report);
}

// ---- protocol 3: P2P progress counters (p2p.rs P2pProgress) ----

/// Two threads, three rows in a chain (row 0 and row 2 on the root
/// thread, row 1 on the spawned one), swept twice over the same counters
/// with neither a reset nor a barrier in between: the second sweep's
/// waits must not be satisfied by the first sweep's counts, and a thread
/// that runs ahead into the second sweep must not disturb the one still
/// in the first. Each sweep writes its own cells, as a forward and a
/// backward sweep write different vectors.
#[test]
fn p2p_progress_hands_rows_off_across_two_sweeps() {
    let report = explore(&cfg(), || {
        let progress = Arc::new(P2pProgress::new(2, 2));
        let rows: Arc<Vec<ShimCell<u64>>> = Arc::new((0..6).map(|_| ShimCell::new(0)).collect());
        let (p2, r2) = (Arc::clone(&progress), Arc::clone(&rows));
        let other = thread::spawn(move || {
            for s in 0..2 {
                let mut sweep = p2.begin(1);
                sweep.wait(0, 0);
                let r0 = r2[3 * s].with(|p| unsafe { *p });
                assert_eq!(r0, 10 * s as u64 + 1, "row 1 ran before row 0 of its sweep");
                r2[3 * s + 1].with_mut(|p| unsafe { *p = r0 + 1 });
                sweep.publish();
            }
        });
        for s in 0..2 {
            let mut sweep = progress.begin(0);
            rows[3 * s].with_mut(|p| unsafe { *p = 10 * s as u64 + 1 });
            sweep.publish();
            sweep.wait(1, 0);
            let r1 = rows[3 * s + 1].with(|p| unsafe { *p });
            assert_eq!(r1, 10 * s as u64 + 2, "row 2 ran before row 1 of its sweep");
            rows[3 * s + 2].with_mut(|p| unsafe { *p = r1 + 1 });
            sweep.publish();
        }
        other.join();
    });
    assert_clean(report);
}

#[test]
fn p2p_progress_relaxed_publish_is_caught() {
    // Mutant skeleton of `P2pSweep::publish`: the count is stored
    // Relaxed, so the consumer's wait exit carries no view of the
    // producer's row write.
    let report = explore(&cfg(), || {
        let done = Arc::new(AtomicUsize::new(0));
        let row = Arc::new(ShimCell::new(0u64));
        let (d2, r2) = (Arc::clone(&done), Arc::clone(&row));
        let producer = thread::spawn(move || {
            r2.with_mut(|p| unsafe { *p = 7 });
            d2.store(1, Ordering::Relaxed); // BUG: publish uses Release
        });
        while done.load(Ordering::Acquire) < 1 {
            spin_hint();
        }
        row.with(|p| unsafe { *p });
        producer.join();
    });
    assert_race(report);
}

// ---- protocol 4: tree-reduction mailboxes (team.rs TreeReduce) ----

#[test]
fn tree_reduce_combine_is_race_free() {
    // Full combine at nt = 2: per-thread slot deposit, fan-in barrier,
    // leader sum in thread order, fan-out barrier. The slot/result tag
    // cells give the checker per-slot visibility, so a missing barrier
    // edge anywhere in the two-phase protocol would surface as a race.
    let report = explore(&cfg(), || {
        let team = Arc::new(Team::new(2, 1));
        let t2 = Arc::clone(&team);
        let t = thread::spawn(move || {
            // SAFETY: unique tid per member (0 below, 1 here).
            let m = unsafe { t2.member(1) };
            assert_eq!(m.sum(2.0), 3.0);
        });
        let m = unsafe { team.member(0) };
        assert_eq!(m.sum(1.0), 3.0);
        t.join();
    });
    assert_clean(report);
}

#[test]
fn tree_reduce_relaxed_fanout_is_caught() {
    // Mutant skeleton of the combine fan-out: slots deposit through an
    // AcqRel arrival count (sound), the leader sums and posts the result,
    // but the fan-out release flag is Relaxed — so the non-leader's read
    // of the result mailbox races with the leader's write.
    let report = explore(&cfg(), || {
        let arrivals = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(AtomicBool::new(false));
        let slot0 = Arc::new(ShimCell::new(0.0f64));
        let slot1 = Arc::new(ShimCell::new(0.0f64));
        let result = Arc::new(ShimCell::new(0.0f64));
        let (ar2, rd2, s1b, res2) = (
            Arc::clone(&arrivals),
            Arc::clone(&ready),
            Arc::clone(&slot1),
            Arc::clone(&result),
        );
        let t = thread::spawn(move || {
            s1b.with_mut(|p| unsafe { *p = 2.0 });
            ar2.fetch_add(1, Ordering::AcqRel);
            while !rd2.load(Ordering::Acquire) {
                spin_hint();
            }
            res2.with(|p| unsafe { *p });
        });
        slot0.with_mut(|p| unsafe { *p = 1.0 });
        arrivals.fetch_add(1, Ordering::AcqRel);
        while arrivals.load(Ordering::Acquire) != 2 {
            spin_hint();
        }
        let sum = slot0.with(|p| unsafe { *p }) + slot1.with(|p| unsafe { *p });
        result.with_mut(|p| unsafe { *p = sum });
        ready.store(true, Ordering::Relaxed); // BUG: fan-out needs Release
        t.join();
    });
    assert_race(report);
}

// ---- satellite: AtomicF64View retry accounting under the model ----

#[test]
fn atomicf64_contended_adds_are_exact_and_retry() {
    // Two virtual threads fetch_add the same element. Exhaustive
    // exploration must (a) never lose an add in any schedule, and
    // (b) include schedules where a CAS loses and retries — the event the
    // `atomicf64.retries` telemetry counter reports.
    let total_retries = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let tr = Arc::clone(&total_retries);
    let report = explore(&cfg(), move || {
        // Leak per execution (8 bytes x a few hundred schedules): the
        // view must be 'static to cross thread::spawn.
        let xs: &'static mut [f64] = Box::leak(vec![0.0f64; 1].into_boxed_slice());
        let view = Arc::new(AtomicF64View::new(xs));
        let v2 = Arc::clone(&view);
        let t = thread::spawn(move || v2.fetch_add(0, 1.0));
        let r0 = view.fetch_add(0, 1.0);
        let r1 = t.join();
        assert_eq!(view.load(0), 2.0, "lost an atomic add");
        tr.fetch_add(
            (r0 + r1) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
    });
    assert_clean(report);
    assert!(
        total_retries.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "exhaustive exploration must include a losing-CAS schedule"
    );
}

// ---- team broadcast rides the same barrier edges ----

#[test]
fn team_broadcast_is_race_free() {
    let report = explore(&cfg(), || {
        let team = Arc::new(Team::new(2, 1));
        let t2 = Arc::clone(&team);
        let t = thread::spawn(move || {
            // SAFETY: unique tid per member.
            let m = unsafe { t2.member(1) };
            assert_eq!(m.broadcast(0, -1.0), 9.0);
        });
        let m = unsafe { team.member(0) };
        assert_eq!(m.broadcast(0, 9.0), 9.0);
        t.join();
    });
    assert_clean(report);
}
