//! Adaptive execution-policy chooser for the linear solver.
//!
//! The thread-scaling inversion this fixes: `optimized(nt)` used to
//! hard-code persistent-region (team) execution whenever `nt > 1`, so on
//! meshes too small to amortize region-launch and barrier cost the
//! "optimized" configuration ran *slower* than serial — the opposite of
//! the paper's thesis, certified by the perf gate. The chooser models a
//! GMRES iteration the same way FASTEST-3D picks its node-level execution
//! scheme: memory-bound work time from the `crates/machine` bandwidth
//! ramp, synchronization time from the *measured* region-launch and
//! barrier-phase costs (`fun3d_threads::SyncCosts`), and picks whichever
//! of Serial / Team minimizes the modeled iteration time. (Region-per-op
//! threading launches ~8 regions per iteration where Team launches ~1.25
//! and never won a recorded run; it survives only as the ablation
//! reference [`GmresExec::PerOp`](crate::gmres::GmresExec).)

use fun3d_machine::{MachineSpec, RESIDUAL_BYTES_PER_VERTEX};
use fun3d_threads::{SyncCosts, ThreadPool};
use fun3d_util::telemetry;
use std::sync::Mutex;

/// Solver execution scheme, as configured (Auto resolves to one of the
/// two concrete schemes per solve).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded vector ops.
    Serial,
    /// Persistent SPMD regions (one region per Arnoldi iteration).
    Team,
    /// Pick Serial / Team per solve from the machine model plus measured
    /// sync costs.
    Auto,
}

/// Residual-path edge-kernel scheme: how the flux/gradient loops resolve
/// their write conflicts and schedule their memory traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FluxScheme {
    /// The paper's streaming kernels: serial SIMD+prefetch at one
    /// thread, owner-writes replication on the pool.
    Stream,
    /// Cache-blocked tiles with inter-tile coloring (`fun3d_core`'s
    /// `Traversal::Tiled`).
    Tiled,
    /// Resolve Stream vs Tiled per mesh from the machine model (see
    /// [`FluxScheme::resolve`]).
    Auto,
}

impl FluxScheme {
    /// Resolves `Auto` for a mesh of `nvertices` vertices run on
    /// `nthreads` threads: tile when the residual-path node working set
    /// overflows the private L2 capacity of the cores in use — the
    /// regime where the streaming kernels' per-edge gathers miss cache
    /// and a tile's reuse pays for itself. Below it the node arrays are
    /// already cache-resident and tiling only reorders the edges.
    /// `Stream` and `Tiled` return themselves (explicit configuration
    /// wins). Never returns `Auto`.
    pub fn resolve(self, machine: &MachineSpec, nvertices: usize, nthreads: usize) -> FluxScheme {
        match self {
            FluxScheme::Auto => {
                let working_set = nvertices * RESIDUAL_BYTES_PER_VERTEX;
                let l2_total = machine.l2_bytes * nthreads.clamp(1, machine.cores);
                if working_set > l2_total {
                    FluxScheme::Tiled
                } else {
                    FluxScheme::Stream
                }
            }
            concrete => concrete,
        }
    }
}

/// Regions a persistent-region iteration launches (one per Arnoldi step
/// plus the amortized cycle-start and solution-update regions).
pub(crate) const TEAM_REGIONS_PER_ITER: f64 = 1.25;
/// Barrier phases inside one persistent-region Arnoldi iteration
/// (operator, preconditioner, reduction, and basis-update phases).
pub(crate) const TEAM_BARRIERS_PER_ITER: f64 = 6.0;
/// Default memory traffic per unknown per GMRES iteration, bytes:
/// basis-vector reads in CGS plus SpMV/preconditioner sweeps. Calibrated
/// against the medium-mesh ablation (37 ms/iter at ~102k unknowns on a
/// ~3.5 GB/s single-core share); override the field for other kernels.
pub(crate) const WORK_BYTES_PER_UNKNOWN: f64 = 1200.0;
/// A parallel scheme must beat serial by this factor to be chosen
/// (hysteresis: near the crossover, prefer the simple scheme).
pub(crate) const PARALLEL_MARGIN: f64 = 1.1;

/// The decision function: machine model + measured sync costs.
#[derive(Clone, Copy, Debug)]
pub struct AutoPolicy {
    /// Bandwidth ramp / core counts.
    pub machine: MachineSpec,
    /// Measured wall cost of one empty pool region (launch + join).
    pub region_launch_s: f64,
    /// Measured wall cost of one barrier phase.
    pub barrier_phase_s: f64,
    /// Cores the process can actually use (affinity/cgroup aware);
    /// threads beyond this share cores and cannot add bandwidth.
    pub effective_cores: usize,
    /// Modeled memory traffic per unknown per iteration, bytes.
    pub work_bytes_per_unknown: f64,
}

impl AutoPolicy {
    /// A policy from explicit parts (tests drive this with synthetic
    /// machines and sync costs).
    pub(crate) fn from_parts(
        machine: MachineSpec,
        region_launch_s: f64,
        barrier_phase_s: f64,
    ) -> AutoPolicy {
        AutoPolicy {
            machine,
            region_launch_s,
            barrier_phase_s,
            effective_cores: machine.cores,
            work_bytes_per_unknown: WORK_BYTES_PER_UNKNOWN,
        }
    }

    /// A policy for the running machine and a live pool: host spec plus
    /// the calibration probe's measured sync costs. The probe result is
    /// cached per pool size, so repeated solves pay it once.
    pub fn for_pool(pool: &ThreadPool) -> AutoPolicy {
        let costs = cached_sync_costs(pool);
        AutoPolicy::from_parts(MachineSpec::host(), costs.region_launch_s, costs.barrier_phase_s)
    }

    /// Modeled seconds of memory-bound work per iteration at `threads`
    /// active cores.
    fn work_s(&self, unknowns: usize, threads: usize) -> f64 {
        self.work_bytes_per_unknown * unknowns as f64
            / (self.machine.bandwidth_at(threads) * 1e9)
    }

    /// Modeled per-iteration synchronization cost of team execution,
    /// seconds.
    fn sync_s(&self) -> f64 {
        TEAM_REGIONS_PER_ITER * self.region_launch_s
            + TEAM_BARRIERS_PER_ITER * self.barrier_phase_s
    }

    /// Picks the execution scheme for a solve of `unknowns` unknowns on
    /// an `nt`-worker pool. Never returns [`ExecMode::Auto`].
    pub fn choose(&self, unknowns: usize, nt: usize) -> ExecMode {
        self.decision(unknowns, nt).mode
    }

    /// [`AutoPolicy::choose`] with the modeled inputs attached — what the
    /// flight recorder logs so a dump explains *why* a scheme ran.
    pub(crate) fn decision(&self, unknowns: usize, nt: usize) -> Decision {
        let serial_s = self.work_s(unknowns, 1);
        let nt_eff = nt.min(self.effective_cores);
        if nt <= 1 || nt_eff <= 1 {
            // Threads beyond the usable cores only add sync cost: with
            // one effective core there is no bandwidth to win, so the
            // inversion case (threads slower than serial) is excluded by
            // construction.
            return Decision {
                mode: ExecMode::Serial,
                serial_s,
                parallel_s: f64::INFINITY,
                crossover: None,
            };
        }
        let team_s = self.work_s(unknowns, nt_eff) + self.sync_s();
        let mode = if team_s * PARALLEL_MARGIN < serial_s {
            ExecMode::Team
        } else {
            ExecMode::Serial
        };
        Decision {
            mode,
            serial_s,
            parallel_s: team_s,
            crossover: self.crossover_unknowns(nt),
        }
    }

    /// The problem size (unknowns) above which team execution beats
    /// serial at `nt` threads, or `None` when it never does (e.g.
    /// one effective core: the bandwidth ramp is flat, so the sync cost
    /// is never amortized). Solves `m·(work(n)/ramp + sync) =
    /// work(n)` for `n` — both sides are linear in `n`.
    pub fn crossover_unknowns(&self, nt: usize) -> Option<usize> {
        let nt_eff = nt.min(self.effective_cores);
        if nt <= 1 || nt_eff <= 1 {
            return None;
        }
        let c = self.work_bytes_per_unknown;
        let bw1 = self.machine.bandwidth_at(1) * 1e9;
        let bwt = self.machine.bandwidth_at(nt_eff) * 1e9;
        let sync = self.sync_s();
        let denom = c * (1.0 / bw1 - PARALLEL_MARGIN / bwt);
        if denom <= 0.0 {
            return None;
        }
        Some((PARALLEL_MARGIN * sync / denom).ceil() as usize)
    }
}

/// A resolved policy choice with the modeled costs that produced it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decision {
    /// The concrete scheme (never [`ExecMode::Auto`]).
    pub mode: ExecMode,
    /// Modeled serial iteration seconds.
    pub serial_s: f64,
    /// Modeled team iteration seconds (work + sync; infinite when
    /// parallelism is excluded by construction).
    pub parallel_s: f64,
    /// Modeled crossover size, when one exists.
    pub crossover: Option<usize>,
}

impl Decision {
    /// Records this decision on the flight log (the dump's
    /// `policy_decision` row).
    pub(crate) fn record(&self, unknowns: usize, nt: usize) {
        let chosen = match self.mode {
            ExecMode::Serial => telemetry::ExecTag::Serial,
            ExecMode::Team | ExecMode::Auto => telemetry::ExecTag::Team,
        };
        telemetry::emit(telemetry::EventKind::PolicyDecision {
            chosen,
            unknowns: unknowns as u64,
            nt: nt as u64,
            serial_s: self.serial_s,
            parallel_s: self.parallel_s,
            crossover: self
                .crossover
                .map(|c| c as u64)
                .unwrap_or(telemetry::NO_CROSSOVER),
        });
    }
}

/// Calibration-probe results, cached per pool size: sync costs depend on
/// the worker count (and the machine), not on the specific pool, so each
/// size is measured once per process whatever the telemetry level.
fn cached_sync_costs(pool: &ThreadPool) -> SyncCosts {
    static CACHE: Mutex<Vec<(usize, SyncCosts)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap();
    if let Some((_, c)) = cache.iter().find(|(sz, _)| *sz == pool.size()) {
        return *c;
    }
    let c = SyncCosts::measure(pool);
    // Calibrations are rare (once per pool size per process) and exactly
    // what a post-hoc dump reader needs to audit policy decisions.
    telemetry::emit(telemetry::EventKind::SyncProbe {
        pool_size: pool.size() as u64,
        region_launch_s: c.region_launch_s,
        barrier_phase_s: c.barrier_phase_s,
    });
    cache.push((pool.size(), c));
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic 10-core machine with sync costs big enough that the
    /// tiny fixture sits below the crossover: the regime the chooser has
    /// to get right.
    fn policy(region_launch_s: f64, barrier_phase_s: f64) -> AutoPolicy {
        AutoPolicy::from_parts(MachineSpec::xeon_e5_2690v2(), region_launch_s, barrier_phase_s)
    }

    #[test]
    fn tiny_problems_run_serial() {
        let p = policy(100e-6, 20e-6);
        assert_eq!(p.choose(700, 4), ExecMode::Serial);
        assert_eq!(p.choose(700, 2), ExecMode::Serial);
        // and trivially at one thread
        assert_eq!(p.choose(700, 1), ExecMode::Serial);
    }

    #[test]
    fn large_problems_run_team() {
        let p = policy(100e-6, 20e-6);
        // sync cost is amortized once the memory-bound work is large.
        assert_eq!(p.choose(361_608, 4), ExecMode::Team);
        assert_eq!(p.choose(1_000_000, 8), ExecMode::Team);
    }

    #[test]
    fn one_effective_core_is_always_serial() {
        let mut p = policy(20e-6, 2e-6);
        p.effective_cores = 1;
        for n in [700usize, 26_000, 361_608, 10_000_000] {
            for nt in [2usize, 4, 8] {
                assert_eq!(p.choose(n, nt), ExecMode::Serial, "n={n} nt={nt}");
            }
            assert_eq!(p.crossover_unknowns(4), None);
        }
    }

    #[test]
    fn crossover_matches_choose_flip() {
        let p = policy(100e-6, 20e-6);
        for nt in [2usize, 4] {
            let n = p.crossover_unknowns(nt).expect("multi-core: crossover exists");
            assert!(n > 0);
            // Just below: serial. At/above: parallel.
            assert_eq!(p.choose(n.saturating_sub(2).max(1), nt), ExecMode::Serial, "nt={nt}");
            assert_ne!(p.choose(n + 1, nt), ExecMode::Serial, "nt={nt}");
        }
    }

    #[test]
    fn tiny_below_crossover_large_above() {
        let p = policy(100e-6, 20e-6);
        let n = p.crossover_unknowns(4).unwrap();
        assert!(n > 700, "tiny (700 unknowns) must sit below the crossover ({n})");
        assert!(n < 361_608, "large (361k unknowns) must sit above the crossover ({n})");
    }

    #[test]
    fn flux_scheme_resolves_by_working_set() {
        let m = MachineSpec::xeon_e5_2690v2(); // 256 KiB L2/core
        // Tiny fixture (~175 vertices, 28 KB): cache-resident, stream.
        assert_eq!(FluxScheme::Auto.resolve(&m, 175, 1), FluxScheme::Stream);
        // Medium mesh (~26k vertices, 4.1 MB): overflows even 10 cores'
        // combined private L2 — tiled.
        assert_eq!(FluxScheme::Auto.resolve(&m, 25_625, 1), FluxScheme::Tiled);
        assert_eq!(FluxScheme::Auto.resolve(&m, 25_625, 10), FluxScheme::Tiled);
        // More threads = more combined L2: the boundary moves up.
        let boundary = m.l2_bytes / RESIDUAL_BYTES_PER_VERTEX;
        assert_eq!(FluxScheme::Auto.resolve(&m, boundary, 1), FluxScheme::Stream);
        assert_eq!(FluxScheme::Auto.resolve(&m, boundary + 1, 1), FluxScheme::Tiled);
        assert_eq!(FluxScheme::Auto.resolve(&m, boundary + 1, 2), FluxScheme::Stream);
        // Explicit schemes win regardless of size.
        assert_eq!(FluxScheme::Stream.resolve(&m, usize::MAX / 1024, 1), FluxScheme::Stream);
        assert_eq!(FluxScheme::Tiled.resolve(&m, 1, 1), FluxScheme::Tiled);
    }

    #[test]
    fn for_pool_measures_and_caches() {
        let pool = ThreadPool::new(2);
        let p1 = AutoPolicy::for_pool(&pool);
        assert!(p1.region_launch_s > 0.0 && p1.barrier_phase_s > 0.0);
        // Second call must hit the cache (identical numbers).
        let p2 = AutoPolicy::for_pool(&pool);
        assert_eq!(p1.region_launch_s.to_bits(), p2.region_launch_s.to_bits());
        assert_eq!(p1.barrier_phase_s.to_bits(), p2.barrier_phase_s.to_bits());
    }
}
