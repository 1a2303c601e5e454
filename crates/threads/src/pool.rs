//! A persistent SPMD thread pool with spin-doorbell dispatch.
//!
//! [`ThreadPool::run`] executes one closure on every worker, passing the
//! worker id, and returns when all workers have finished — the same
//! execution model as an OpenMP `parallel` region, which is what all of
//! the paper's threading strategies are written against.
//!
//! Dispatch is an epoch/generation **doorbell**: the launcher publishes a
//! raw pointer to the region closure and bumps a generation counter;
//! workers spin (then yield, then nap) on the counter. A region launch is
//! therefore a few atomic operations — no channel messages, no mutex, no
//! condvar wake — which matters because the solver hot loop crosses a
//! region boundary for every kernel it runs (the fork-join cost the
//! paper's persistent-region restructuring attacks). Workers are created
//! once; on Linux each is best-effort pinned to a core (the paper's runs
//! use `KMP_AFFINITY=compact`): a pool's workers on consecutive cores, and
//! the pools of one [`crate::PoolSet`] on consecutive ranges, so teams
//! running side by side do not share cores.
//!
//! `FUN3D_PIN=off` disables the pinning, and it is the one environment
//! knob the runtime reads: where the process runs is the deployment's
//! call (a container that shares its cores, or a launcher that pins
//! ranks itself, must be able to say no), not something any run of the
//! code could decide better. The wait ladder has no knob: its adaptive
//! form is the only production one ([`ThreadPool::with_adaptive`] keeps
//! the fixed ladder as the reference its test compares against).

use crate::sync_shim::{spin_hint, yield_now, AtomicBool, AtomicUsize, Ordering, ShimCell};
use fun3d_util::telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Raw fat pointer to the caller's region closure. Valid only between the
/// epoch bump that publishes it and the completion count that retires it;
/// `run` blocks for that whole window, so the pointee outlives every use.
pub type JobPtr = *const (dyn Fn(usize) + Sync);

/// The epoch/generation doorbell: the launcher/worker handshake behind
/// [`ThreadPool::run`], exposed so the `fun3d-check` model tests can
/// drive the exact protocol with virtual threads. One `post` /
/// `wait_workers` / `retire` cycle on the launcher pairs with one
/// `worker_wait` / `take_job` / `worker_done` cycle on each worker.
pub struct Bell {
    /// Generation counter: odd/even is irrelevant, workers just watch for
    /// change. Bumped (Release) after `job` is written.
    epoch: AtomicUsize,
    /// Workers that have finished the current region (Release on
    /// increment; the launcher Acquire-spins to `size`).
    done: AtomicUsize,
    /// Set while a `run` is in flight (reentrancy / cross-thread guard).
    active: AtomicBool,
    /// Any worker panicked inside the current region.
    panicked: AtomicBool,
    /// Tells woken workers to exit instead of looking for a job.
    shutdown: AtomicBool,
    /// The published region. Written by the launcher strictly before the
    /// epoch bump, read by workers strictly after observing it.
    job: ShimCell<Option<JobPtr>>,
    size: usize,
    /// EWMA of recent region wall durations, nanoseconds (0 = no
    /// observation yet). Plain std atomic, not a shim type: it is a
    /// statistic that only tunes backoff, never part of the protocol the
    /// model checker explores.
    pace_ns: AtomicU64,
    /// Yields burned in `worker_wait`, exposed so the adaptive-backoff
    /// regression test can observe the spin budget actually spent.
    idle_yields: AtomicU64,
    /// Scale the wait ladder to `pace_ns` (the production ladder; off, the
    /// pre-adaptive fixed one). Only consulted by the real ladder, hence
    /// unused in model builds.
    #[cfg_attr(fun3d_check, allow(dead_code))]
    adaptive: bool,
}

// SAFETY: `job` is only written by the launcher while no region is in
// flight and only read by workers after the Release/Acquire epoch
// handshake that orders the write before the reads. (Send: the raw
// pointer member is only a handoff cell, never owned state.)
unsafe impl Sync for Bell {}
unsafe impl Send for Bell {}

impl Bell {
    /// A doorbell coordinating one launcher with `size` workers, with
    /// the adaptive backoff.
    pub fn new(size: usize) -> Bell {
        Bell::with_adaptive(size, true)
    }

    /// A doorbell with the adaptive backoff explicitly on or off
    /// (construction-time so tests can compare both in one process).
    pub(crate) fn with_adaptive(size: usize, adaptive: bool) -> Bell {
        assert!(size >= 1);
        Bell {
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            active: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            job: ShimCell::new(None),
            size,
            pace_ns: AtomicU64::new(0),
            idle_yields: AtomicU64::new(0),
            adaptive,
        }
    }

    /// Launcher: folds an observed region wall duration into the pace
    /// estimate that sizes the workers' wait ladder.
    pub(crate) fn note_region_ns(&self, ns: u64) {
        // Relaxed: single-writer statistic (the launcher), racy readers
        // only use it to pick a backoff tier.
        let old = self.pace_ns.load(Ordering::Relaxed);
        let new = if old == 0 { ns } else { (3 * old + ns) / 4 };
        self.pace_ns.store(new.max(1), Ordering::Relaxed);
    }

    /// Current region-pace estimate, nanoseconds (0 = none yet).
    pub(crate) fn pace_ns(&self) -> u64 {
        self.pace_ns.load(Ordering::Relaxed)
    }

    /// Yields burned by workers waiting for a doorbell ring.
    pub(crate) fn idle_yields(&self) -> u64 {
        self.idle_yields.load(Ordering::Relaxed)
    }

    /// Launcher: publishes `job` and rings the doorbell.
    ///
    /// # Panics
    /// Panics if a region is already in flight (nested/concurrent `run`).
    ///
    /// # Safety contract (not enforced by types)
    /// The pointee must stay valid until [`Bell::wait_workers`] returns.
    pub fn post(&self, job: JobPtr) {
        // Acquire on the guard swap: entering the region must be ordered
        // after the previous launcher's `active` Release in `retire`, so
        // back-to-back regions from different launcher threads see each
        // other's teardown (done=0, job=None) completed.
        assert!(
            !self.active.swap(true, Ordering::Acquire),
            "ThreadPool::run is not reentrant"
        );
        // Relaxed: only the launcher reads `panicked` (in `retire`), and
        // worker stores are ordered by the done/Acquire handshake there.
        self.panicked.store(false, Ordering::Relaxed);
        self.job.with_mut(|p| unsafe { *p = Some(job) });
        // Release: publishes the `job` write above to every worker whose
        // Acquire epoch load observes the bump (the doorbell edge).
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Launcher: blocks (spin-then-yield, never napping — this is the
    /// critical path of every region) until all workers finished.
    pub fn wait_workers(&self) {
        let mut waits = 0u32;
        // Acquire: pairs with each worker's Release `done` increment, so
        // the workers' region writes are visible once the count closes.
        while self.done.load(Ordering::Acquire) != self.size {
            waits = waits.wrapping_add(1);
            if waits % 64 == 0 {
                yield_now();
            } else {
                spin_hint();
            }
        }
    }

    /// Launcher: retires the completed region; true if a worker panicked.
    pub fn retire(&self) -> bool {
        // Relaxed: ordered before the next region's reuse by the
        // active-swap Acquire in `post` / Release below.
        self.done.store(0, Ordering::Relaxed);
        self.job.with_mut(|p| unsafe { *p = None });
        // Release: the done/job teardown above must be visible to whoever
        // Acquire-swaps `active` for the next region.
        self.active.store(false, Ordering::Release);
        // Relaxed: worker `panicked` stores happened before their `done`
        // increments (program order) which `wait_workers` Acquire-read.
        self.panicked.swap(false, Ordering::Relaxed)
    }

    /// Worker: waits for an epoch different from `my_epoch` (or
    /// shutdown); returns the observed epoch.
    pub fn worker_wait(&self, my_epoch: usize) -> usize {
        let mut waits = 0u32;
        loop {
            // Acquire: pairs with the launcher's Release bump in `post`,
            // ordering the job publication before `take_job`'s read.
            let e = self.epoch.load(Ordering::Acquire);
            // Acquire: pairs with the Release store in `ring_shutdown`.
            if e != my_epoch || self.shutdown.load(Ordering::Acquire) {
                return e;
            }
            self.idle_backoff(waits);
            waits = waits.wrapping_add(1);
        }
    }

    /// One step of the worker wait ladder: spin, then yield, then nap.
    ///
    /// Model builds route every tier through the checker's spin hint.
    /// Real builds size the yield budget and the nap length to the
    /// observed region pace: when regions are microseconds long, a worker
    /// that burned a *fixed* multi-thousand-yield budget per phase was
    /// the dominant cost of nt>1 on small meshes (each yield is a
    /// scheduler round trip stolen from the thread doing real work), so
    /// the ladder now spends at most ~one region-duration yielding before
    /// it starts napping, and nap lengths grow geometrically so long idle
    /// gaps cost few wakeups.
    #[cfg(fun3d_check)]
    fn idle_backoff(&self, _waits: u32) {
        // Inside a model the hint deschedules the virtual thread; outside
        // one (ordinary tests compiled with the cfg) yielding avoids
        // pure-spin livelock on an oversubscribed box.
        yield_now();
    }

    #[cfg(not(fun3d_check))]
    fn idle_backoff(&self, waits: u32) {
        const SPIN: u32 = 64;
        if waits < SPIN {
            std::hint::spin_loop();
            return;
        }
        let pace = if self.adaptive { self.pace_ns.load(Ordering::Relaxed) } else { 0 };
        if pace == 0 {
            // Adaptivity off, or no region observed yet: the fixed
            // pre-adaptive ladder (spin, 4k yields, 100 us naps).
            if waits < 4096 {
                self.idle_yields.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            return;
        }
        // Yield budget: burn at most ~a quarter of the region's own
        // duration yielding before the first nap (a yield costs on the
        // order of a microsecond once the runqueue has company).
        let budget = SPIN + (pace / 2000).clamp(16, 2048) as u32;
        if waits < budget {
            self.idle_yields.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
            return;
        }
        // Progressive nap: start proportional to the pace (so a sleeping
        // worker costs the region at most ~1/8 of its own duration in
        // latency) and double toward 1 ms for long idle gaps.
        let base = (pace / 8).clamp(2_000, 100_000);
        let nap = (base << (waits - budget).min(8)).min(1_000_000);
        std::thread::sleep(std::time::Duration::from_nanos(nap));
    }

    /// True once shutdown has been rung.
    pub fn shutting_down(&self) -> bool {
        // Acquire: pairs with the Release store in `ring_shutdown`.
        self.shutdown.load(Ordering::Acquire)
    }

    /// Worker: reads the published region. Only valid after
    /// [`Bell::worker_wait`] returned a new epoch.
    pub fn take_job(&self) -> JobPtr {
        self.job
            .with(|p| unsafe { *p }.expect("doorbell rang with no job"))
    }

    /// Worker: records a panic inside the current region.
    pub(crate) fn note_panic(&self) {
        // Relaxed: ordered before the launcher's read by this worker's
        // Release `done` increment + the launcher's Acquire spin.
        self.panicked.store(true, Ordering::Relaxed);
    }

    /// Worker: marks this worker finished with the current region.
    pub fn worker_done(&self) {
        // Release: publishes this worker's region writes (and any
        // `note_panic`) to the launcher's Acquire spin in `wait_workers`.
        self.done.fetch_add(1, Ordering::Release);
    }

    /// Tells all workers to exit and rings the doorbell to wake them.
    pub fn ring_shutdown(&self) {
        // Release: pairs with the workers' Acquire `shutdown` loads.
        self.shutdown.store(true, Ordering::Release);
        // Release: the epoch change is the doorbell that wakes
        // nappers/spinners so they notice the flag.
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// A fixed-size pool of persistent worker threads executing SPMD regions.
pub struct ThreadPool {
    handles: Vec<JoinHandle<()>>,
    bell: Arc<Bell>,
    regions: AtomicU64,
    size: usize,
    /// The core worker 0 is pinned to; worker `t` goes on the `t`-th
    /// core after it.
    first_core: usize,
}

impl ThreadPool {
    /// Spawns a pool with `size` workers (`size >= 1`) pinned from core 0
    /// on, with the adaptive wait ladder.
    pub fn new(size: usize) -> Self {
        Self::spawn(size, true, 0)
    }

    /// Spawns a pool with the adaptive wait ladder explicitly on or off.
    // Public for `tests/adaptive_backoff.rs`, whose reference is the fixed
    // ladder; production pools are always adaptive.
    pub fn with_adaptive(size: usize, adaptive: bool) -> Self {
        Self::spawn(size, adaptive, 0)
    }

    /// Spawns `size` workers pinned to the cores from `first_core` on.
    pub(crate) fn spawn(size: usize, adaptive: bool, first_core: usize) -> Self {
        assert!(size >= 1, "thread pool needs at least one worker");
        let bell = Arc::new(Bell::with_adaptive(size, adaptive));
        let pin = pinning_enabled();
        let ncores = crate::available_cores();
        let mut pool = ThreadPool {
            handles: Vec::with_capacity(size),
            bell,
            regions: AtomicU64::new(0),
            size,
            first_core,
        };
        for tid in 0..size {
            let bell = Arc::clone(&pool.bell);
            let core = pool.core_of(tid, ncores);
            pool.handles.push(
                std::thread::Builder::new()
                    .name(format!("fun3d-worker-{tid}"))
                    .spawn(move || {
                        if pin {
                            let _ = affinity::pin_to_cpu(core);
                        }
                        worker_loop(&bell, tid);
                    })
                    .expect("spawn pool worker"),
            );
        }
        pool
    }

    /// The core worker `tid` is pinned to on a host of `ncores` cores:
    /// compact affinity from the pool's first core, wrapping around.
    pub(crate) fn core_of(&self, tid: usize, ncores: usize) -> usize {
        (self.first_core + tid) % ncores
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Regions launched over the pool's lifetime (always counted, even
    /// with telemetry off) — the denominator for "regions per solver
    /// iteration" in the synchronization-cost ablation.
    pub fn regions_launched(&self) -> u64 {
        // Relaxed: monotonic statistic, read quiescently between regions.
        self.regions.load(Ordering::Relaxed)
    }

    /// Yields workers burned waiting for regions (see [`Bell::idle_yields`]).
    pub fn idle_yields(&self) -> u64 {
        self.bell.idle_yields()
    }

    /// Current region-pace estimate driving the wait ladder, ns.
    pub fn pace_ns(&self) -> u64 {
        self.bell.pace_ns()
    }

    /// Runs `f(tid)` on every worker and blocks until all have returned.
    ///
    /// The closure may borrow stack data: `run` does not return until
    /// every worker has finished executing it, so the borrow cannot
    /// outlive the data (the same argument scoped threads rely on).
    ///
    /// # Panics
    /// Panics (after all workers finished the region) if any worker
    /// panicked inside `f`, and on nested `run` from inside a region.
    pub fn run<'env, F>(&self, f: F)
    where
        F: Fn(usize) + Send + Sync + 'env,
    {
        let bell = &*self.bell;
        // Relaxed: launcher-only statistic counter, no data published.
        self.regions.fetch_add(1, Ordering::Relaxed);
        telemetry::record_kernel("pool.launch", telemetry::KernelCounts::once(1, 0, 0, 0));

        // Publish the region: erase the closure's lifetime into a raw fat
        // pointer and ring the doorbell. SAFETY: wait_workers blocks
        // until every worker has bumped `done`, i.e. until no use of the
        // closure is in flight, so the pointee outlives all calls.
        let wide: &(dyn Fn(usize) + Sync) = &f;
        let job: JobPtr = unsafe { std::mem::transmute(wide) };
        let t0 = std::time::Instant::now();
        bell.post(job);
        bell.wait_workers();
        // Launch-to-retire wall time is the pace that sizes the workers'
        // wait ladder for the *next* region.
        let region_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        bell.note_region_ns(region_ns);
        // Live distribution of region walls (the metrics snapshot).
        telemetry::metrics::record_ns("threads.region_ns", region_ns);
        if bell.retire() {
            // Black-box moment: the launcher still has the solve context
            // (rank/solve tags live on this thread), so record the event
            // and dump the flight log *before* the panic unwinds it away.
            telemetry::note_region_panic(self.size);
            panic!("a pool worker panicked inside ThreadPool::run");
        }
    }

    /// Static-chunked parallel loop: each worker handles
    /// `chunk_range(n, size, tid)` through `body(tid, range)`.
    pub fn parallel_for<'env, F>(&self, n: usize, body: F)
    where
        F: Fn(usize, std::ops::Range<usize>) + Send + Sync + 'env,
    {
        let size = self.size;
        self.run(move |tid| {
            let range = crate::chunk_range(n, size, tid);
            let _chunk = telemetry::fine_span("pool.chunk");
            telemetry::record_kernel(
                "pool.chunk",
                telemetry::KernelCounts::once(range.len() as u64, 0, 0, 0),
            );
            body(tid, range)
        });
    }
}

fn worker_loop(bell: &Bell, tid: usize) {
    let mut my_epoch = 0usize;
    loop {
        let next = bell.worker_wait(my_epoch);
        if bell.shutting_down() {
            return;
        }
        my_epoch = next;
        // SAFETY: worker_wait's Acquire epoch load pairs with the
        // launcher's Release bump, ordering the job publication before
        // this read; the pointee stays alive until we bump `done`.
        let job = bell.take_job();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Busy interval on this worker's timeline; per-thread totals
            // of this span drive the utilization / load-imbalance report.
            let _busy = telemetry::span("pool.region");
            (unsafe { &*job })(tid)
        }));
        if outcome.is_err() {
            bell.note_panic();
        }
        bell.worker_done();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.bell.ring_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// `FUN3D_PIN=off` (or `0`/`no`) disables affinity pinning.
fn pinning_enabled() -> bool {
    match std::env::var("FUN3D_PIN") {
        Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "off" | "0" | "no"),
        Err(_) => true,
    }
}

/// Best-effort thread pinning. The tree is hermetic (no libc crate), so
/// Linux/x86-64 issues the `sched_setaffinity` syscall directly; every
/// other target is a no-op.
mod affinity {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(super) fn pin_to_cpu(cpu: usize) -> bool {
        // cpu_set_t as a flat bitmask; 1024 bits matches glibc's default.
        let mut mask = [0u64; 16];
        let word = (cpu / 64) % mask.len();
        mask[word] = 1u64 << (cpu % 64);
        let ret: i64;
        // SAFETY: sched_setaffinity(0, len, mask) only reads `mask` and
        // affects the calling thread; rcx/r11 are clobbered by `syscall`.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203i64 => ret, // __NR_sched_setaffinity
                in("rdi") 0usize,               // pid 0 = calling thread
                in("rsi") std::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly)
            );
        }
        ret == 0
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub(super) fn pin_to_cpu(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_on_every_worker() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        pool.run(|_tid| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn tids_are_distinct() {
        let pool = ThreadPool::new(8);
        let mask = AtomicUsize::new(0);
        pool.run(|tid| {
            mask.fetch_or(1 << tid, Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0xFF);
    }

    #[test]
    fn borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let data: Vec<usize> = (0..300).collect();
        let sum = AtomicUsize::new(0);
        pool.parallel_for(data.len(), |_tid, range| {
            let local: usize = data[range].iter().sum();
            sum.fetch_add(local, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 300 * 299 / 2);
    }

    #[test]
    fn reusable_across_many_runs() {
        let pool = ThreadPool::new(2);
        let count = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn counts_region_launches() {
        let pool = ThreadPool::new(2);
        let before = pool.regions_launched();
        for _ in 0..7 {
            pool.run(|_| {});
        }
        assert_eq!(pool.regions_launched() - before, 7);
    }

    #[test]
    fn mutates_disjoint_slices() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0.0f64; 1000];
        {
            let cell = std::sync::Mutex::new(&mut data);
            // Simpler pattern used by the kernels: split the buffer first.
            let mut guard = cell.lock().unwrap();
            let chunks: Vec<&mut [f64]> = guard.chunks_mut(250).collect();
            let chunks = std::sync::Mutex::new(chunks);
            pool.run(|tid| {
                let chunk = {
                    let mut c = chunks.lock().unwrap();
                    std::mem::take(&mut c[tid])
                };
                for x in chunk {
                    *x = tid as f64 + 1.0;
                }
            });
        }
        assert!(data[..250].iter().all(|&x| x == 1.0));
        assert!(data[750..].iter().all(|&x| x == 4.0));
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool remains usable after a panic.
        let ok = AtomicUsize::new(0);
        pool.run(|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn single_worker_pool() {
        let pool = ThreadPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.parallel_for(10, |tid, range| {
            assert_eq!(tid, 0);
            assert_eq!(range, 0..10);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
