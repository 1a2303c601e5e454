//! Synchronization-cost calibration probe.
//!
//! The execution-policy chooser (`fun3d-solver`) needs the *measured*
//! cost of the two primitives a parallel GMRES iteration pays for on
//! this machine: launching one SPMD region through the doorbell, and
//! crossing one barrier phase inside a region. The `crates/machine`
//! model predicts both from a spec; this probe measures them on the live
//! pool so the model's sync terms can be replaced by reality (the same
//! measure-then-choose loop FASTEST-3D runs at node level).

use crate::{SpinBarrier, ThreadPool};
use fun3d_util::stats::median;
use fun3d_util::telemetry::{self, metrics};
use std::time::Instant;

/// Measured synchronization costs of a live pool, seconds.
#[derive(Clone, Copy, Debug)]
pub struct SyncCosts {
    /// Wall cost of one empty `ThreadPool::run` (post + wait + retire).
    pub region_launch_s: f64,
    /// Wall cost of one `SpinBarrier::wait` phase with all workers
    /// participating, amortized inside a single region.
    pub barrier_phase_s: f64,
}

impl SyncCosts {
    /// Measures both costs on `pool`. Cheap (~a few hundred microseconds
    /// on an idle machine) but noisy on a loaded one: the median of
    /// `reps` batches is reported, so occasional preemption of one batch
    /// does not poison the estimate.
    pub fn measure(pool: &ThreadPool) -> SyncCosts {
        const REPS: usize = 5;
        const REGIONS: u32 = 32;
        const PHASES: u32 = 128;

        // Warm the pool (first launches fault in stacks, set the pace).
        for _ in 0..4 {
            pool.run(|_| {});
        }
        let mut launch = [0.0f64; REPS];
        for l in launch.iter_mut() {
            let t0 = Instant::now();
            for _ in 0..REGIONS {
                pool.run(|_| {});
            }
            *l = t0.elapsed().as_secs_f64() / REGIONS as f64;
        }

        let barrier = SpinBarrier::new(pool.size());
        let mut phase = [0.0f64; REPS];
        for p in phase.iter_mut() {
            let t0 = Instant::now();
            pool.run(|_tid| {
                for _ in 0..PHASES {
                    barrier.wait();
                }
            });
            // One region launch rides along; subtract the median launch
            // cost so the estimate is the barrier alone.
            *p = (t0.elapsed().as_secs_f64() / PHASES as f64).max(0.0);
        }

        let region_launch_s = median(&launch);
        let gross_phase = median(&phase);
        let barrier_phase_s =
            (gross_phase - region_launch_s / PHASES as f64).max(1e-9);
        let costs = SyncCosts { region_launch_s, barrier_phase_s };
        costs.record_observed(pool.size());
        costs
    }

    /// Feeds this measurement into the per-pool-size live histograms
    /// that [`SyncCosts::observed`] reads back.
    fn record_observed(&self, pool_size: usize) {
        if !telemetry::enabled() {
            return;
        }
        metrics::histogram(&format!("threads.p{pool_size}.region_launch_ns"))
            .record((self.region_launch_s * 1e9) as u64);
        metrics::histogram(&format!("threads.p{pool_size}.barrier_phase_ns"))
            .record((self.barrier_phase_s * 1e9) as u64);
    }

    /// The *observed* sync costs for a pool size, from the live metrics
    /// histograms every probe run feeds — the distribution-backed source
    /// the execution policy consults before paying for a fresh one-shot
    /// probe. `None` until at least one probe of this size has recorded.
    pub fn observed(pool_size: usize) -> Option<SyncCosts> {
        if !telemetry::enabled() {
            return None;
        }
        let snap = metrics::snapshot();
        let launch = snap.hist(&format!("threads.p{pool_size}.region_launch_ns"))?;
        let phase = snap.hist(&format!("threads.p{pool_size}.barrier_phase_ns"))?;
        if launch.count == 0 || phase.count == 0 {
            return None;
        }
        Some(SyncCosts {
            region_launch_s: (launch.quantile(0.5) / 1e9).max(1e-9),
            barrier_phase_s: (phase.quantile(0.5) / 1e9).max(1e-9),
        })
    }
}

/// CPU time consumed by the whole process, nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). The tree is hermetic (no libc crate),
/// so Linux/x86-64 issues `clock_gettime` directly, mirroring the
/// affinity syscall in `pool`; other targets report `None`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn process_cpu_time_ns() -> Option<u64> {
    let mut ts = [0i64; 2]; // timespec { tv_sec, tv_nsec }
    let ret: i64;
    // SAFETY: clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) only writes
    // the two-word timespec; rcx/r11 are clobbered by `syscall`.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 228i64 => ret, // __NR_clock_gettime
            in("rdi") 2i64,                 // CLOCK_PROCESS_CPUTIME_ID
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    if ret == 0 {
        Some((ts[0] as u64).saturating_mul(1_000_000_000).saturating_add(ts[1] as u64))
    } else {
        None
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn process_cpu_time_ns() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_costs_are_positive_and_ordered() {
        let pool = ThreadPool::new(2);
        let c = SyncCosts::measure(&pool);
        assert!(c.region_launch_s > 0.0);
        assert!(c.barrier_phase_s > 0.0);
        // A barrier phase must be cheaper than a full doorbell round
        // trip plus worker wake; allow generous noise either way but
        // both must be microsecond-scale, not millisecond-scale stalls.
        assert!(c.region_launch_s < 0.05, "launch {}", c.region_launch_s);
        assert!(c.barrier_phase_s < 0.05, "phase {}", c.barrier_phase_s);
        // The probe feeds the live histograms, so the observed source now
        // answers for this pool size with a cost of the same decade.
        if telemetry::enabled() {
            let o = SyncCosts::observed(pool.size()).expect("probe recorded");
            assert!(o.region_launch_s > 0.0 && o.region_launch_s < 0.05);
            assert!(o.barrier_phase_s > 0.0 && o.barrier_phase_s < 0.05);
        }
        // A size never probed has no observed costs.
        assert!(SyncCosts::observed(63).is_none());
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn cpu_time_advances() {
        let a = process_cpu_time_ns().expect("clock_gettime");
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(2654435761));
        }
        std::hint::black_box(acc);
        let b = process_cpu_time_ns().expect("clock_gettime");
        assert!(b >= a);
    }
}
