//! Processor descriptions.

/// A socket-level machine description.
#[derive(Clone, Copy, Debug)]
pub struct MachineSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads per core.
    pub smt: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// DP SIMD lanes.
    pub simd_width: usize,
    /// Peak DP flops per cycle per core (mul + add pipes × width).
    pub flops_per_cycle: f64,
    /// Sustainable (STREAM) memory bandwidth, GB/s.
    pub stream_gbs: f64,
    /// Peak memory bandwidth, GB/s.
    pub peak_bw_gbs: f64,
    /// Cores needed to saturate STREAM bandwidth (the paper's Fig. 7b
    /// shows TRSV saturating around 4 cores).
    pub bw_saturation_cores: f64,
    /// Throughput gain of running 2 SMT threads on one core relative to
    /// 1 thread (1.0 = no gain, 2.0 = perfect scaling).
    pub smt_yield: f64,
    /// Cost of one contended atomic read-modify-write, nanoseconds.
    pub atomic_ns: f64,
    /// Base cost of a centralized spinning barrier, nanoseconds, at 2
    /// threads; grows ~logarithmically with thread count.
    pub barrier_base_ns: f64,
    /// Cost of one P2P flag wait that is already satisfied, nanoseconds.
    pub p2p_wait_ns: f64,
    /// Per-core private L2 capacity, bytes. The locality tiler sizes a
    /// tile's working set to stay resident here (L1 is too small for a
    /// useful tile, L3 is shared and already covered by RCM locality).
    pub l2_bytes: usize,
    /// Shared last-level cache capacity, bytes: where a working set
    /// stops being cache-resident (the benchmark's triad is sized past
    /// it).
    pub llc_bytes: usize,
}

impl MachineSpec {
    /// One socket of the paper's single-node workstation:
    /// Intel Xeon E5-2690 v2 ("Ivy Bridge EP"), 10 cores @ 3.0 GHz.
    pub fn xeon_e5_2690v2() -> MachineSpec {
        MachineSpec {
            name: "Xeon E5-2690 v2 (10c @ 3.0 GHz)",
            cores: 10,
            smt: 2,
            freq_ghz: 3.0,
            simd_width: 4,
            flops_per_cycle: 8.0, // 4-wide mul + 4-wide add per cycle
            stream_gbs: 34.8,
            peak_bw_gbs: 42.2,
            bw_saturation_cores: 4.0,
            smt_yield: 1.25,
            atomic_ns: 18.0,
            barrier_base_ns: 250.0,
            p2p_wait_ns: 35.0,
            l2_bytes: 256 * 1024, // Ivy Bridge EP: 256 KiB private L2/core
            llc_bytes: 25 * 1024 * 1024, // 25 MiB shared L3
        }
    }

    /// One socket of a TACC Stampede node: Xeon E5-2680, 8 cores @ 2.7
    /// GHz (the scaling studies run 16 MPI ranks per 2-socket node).
    pub fn xeon_e5_2680() -> MachineSpec {
        MachineSpec {
            name: "Xeon E5-2680 (8c @ 2.7 GHz)",
            cores: 8,
            smt: 1, // hyper-threading disabled on Stampede
            freq_ghz: 2.7,
            simd_width: 4,
            flops_per_cycle: 8.0,
            stream_gbs: 38.0, // per-socket share of node STREAM
            peak_bw_gbs: 51.2,
            bw_saturation_cores: 4.0,
            smt_yield: 1.0, // hyper-threading disabled on Stampede
            atomic_ns: 20.0,
            barrier_base_ns: 280.0,
            p2p_wait_ns: 40.0,
            l2_bytes: 256 * 1024, // Sandy Bridge EP: 256 KiB private L2/core
            llc_bytes: 20 * 1024 * 1024, // 20 MiB shared L3
        }
    }

    /// A best-effort description of the machine the process is running
    /// on: core count from the scheduler (`available_parallelism`, which
    /// respects affinity masks and cgroup quotas), the remaining
    /// microarchitectural numbers borrowed from the Ivy Bridge EP preset
    /// scaled to that core count. Good enough for the execution-policy
    /// chooser, which only needs the *shape* of the bandwidth ramp and
    /// the barrier-cost growth — measured sync costs are layered on top
    /// by the calibration probe.
    ///
    /// Detected once per process (the sysfs cache-topology probe walks
    /// several files): the first call populates a `OnceLock`, every
    /// later call — e.g. per-request policy decisions in `fun3d-serve`
    /// — copies the cached value.
    pub fn host() -> MachineSpec {
        static HOST: std::sync::OnceLock<MachineSpec> = std::sync::OnceLock::new();
        *HOST.get_or_init(Self::detect_host)
    }

    fn detect_host() -> MachineSpec {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let proto = MachineSpec::xeon_e5_2690v2();
        MachineSpec {
            name: "detected host",
            cores,
            smt: 1,
            // Per-core bandwidth share of the prototype, saturating at
            // the same ~4-core point (or earlier on smaller hosts).
            stream_gbs: proto.stream_gbs * (cores as f64 / proto.cores as f64).min(1.0),
            peak_bw_gbs: proto.peak_bw_gbs * (cores as f64 / proto.cores as f64).min(1.0),
            bw_saturation_cores: proto.bw_saturation_cores.min(cores as f64),
            smt_yield: 1.0,
            l2_bytes: detect_cache_bytes(2, 64 * 1024..=4 * 1024 * 1024)
                .unwrap_or(proto.l2_bytes),
            llc_bytes: detect_cache_bytes(3, 1024 * 1024..=1024 * 1024 * 1024)
                .unwrap_or(proto.llc_bytes),
            ..proto
        }
    }

    /// Peak DP Gflop/s of the whole socket.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.freq_ghz * self.flops_per_cycle
    }

    /// Machine balance: the roofline ridge point in flop/byte. Kernels
    /// with lower arithmetic intensity are memory-bound on this socket,
    /// higher are compute-bound.
    pub fn balance_flops_per_byte(&self) -> f64 {
        self.peak_gflops() / self.stream_gbs
    }

    /// Sustainable bandwidth available when `threads` cores are active
    /// (linear ramp until `bw_saturation_cores`, then flat at STREAM).
    pub fn bandwidth_at(&self, threads: usize) -> f64 {
        let t = threads.max(1) as f64;
        self.stream_gbs * (t / self.bw_saturation_cores).min(1.0)
    }

    /// Barrier cost at a given thread count (centralized sense-reversing:
    /// one RMW each plus propagation ~ log t).
    pub fn barrier_ns(&self, threads: usize) -> f64 {
        if threads <= 1 {
            0.0
        } else {
            self.barrier_base_ns * (1.0 + (threads as f64).log2())
        }
    }

    /// Seconds for `cycles` of single-thread work.
    pub fn seconds(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// Wall seconds for per-thread compute workloads, folding SMT: when
    /// more threads run than physical cores exist, consecutive threads
    /// share a core, whose combined throughput is `smt_yield` of one
    /// thread's.
    pub fn thread_compute_seconds(&self, per_thread_cycles: &[f64]) -> f64 {
        let threads = per_thread_cycles.len();
        if threads <= self.cores {
            return self.seconds(per_thread_cycles.iter().copied().fold(0.0, f64::max));
        }
        let per_core = threads.div_ceil(self.cores);
        let mut worst: f64 = 0.0;
        for core in per_thread_cycles.chunks(per_core) {
            let total: f64 = core.iter().sum();
            let yield_factor = if core.len() > 1 { self.smt_yield } else { 1.0 };
            worst = worst.max(total / yield_factor);
        }
        self.seconds(worst)
    }
}

/// Reads cpu0's data/unified cache capacity at `level` from sysfs
/// (Linux), e.g. "2048K" or "260M". Returns `None` off-Linux, in
/// sandboxes that hide sysfs, or for readings outside `plausible` —
/// the caller falls back to the preset value.
fn detect_cache_bytes(
    level: u32,
    plausible: std::ops::RangeInclusive<usize>,
) -> Option<usize> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for idx in 0..6 {
        let lvl = std::fs::read_to_string(format!("{base}/index{idx}/level")).ok()?;
        if lvl.trim() != level.to_string() {
            continue;
        }
        let ty = std::fs::read_to_string(format!("{base}/index{idx}/type")).ok()?;
        if ty.trim() == "Instruction" {
            continue;
        }
        let size = std::fs::read_to_string(format!("{base}/index{idx}/size")).ok()?;
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1024),
            b'M' => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size, 1),
        };
        let bytes = digits.parse::<usize>().ok()? * mult;
        return plausible.contains(&bytes).then_some(bytes);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_peak_gflops() {
        let m = MachineSpec::xeon_e5_2690v2();
        // "the 10 cores can deliver a peak performance of 240 Gflop/s"
        assert!((m.peak_gflops() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn balance_is_ridge_point() {
        let m = MachineSpec::xeon_e5_2690v2();
        // 240 Gflop/s over 34.8 GB/s STREAM: deeply memory-starved, as
        // the paper argues for the unstructured kernels.
        let b = m.balance_flops_per_byte();
        assert!((b - 240.0 / 34.8).abs() < 1e-9);
        assert!(b > 5.0);
    }

    #[test]
    fn bandwidth_saturates() {
        let m = MachineSpec::xeon_e5_2690v2();
        assert!(m.bandwidth_at(1) < m.stream_gbs);
        assert!((m.bandwidth_at(4) - m.stream_gbs).abs() < 1e-9);
        assert_eq!(m.bandwidth_at(10), m.bandwidth_at(20));
    }

    #[test]
    fn barrier_grows_with_threads() {
        let m = MachineSpec::xeon_e5_2690v2();
        assert_eq!(m.barrier_ns(1), 0.0);
        assert!(m.barrier_ns(4) > m.barrier_ns(2));
        assert!(m.barrier_ns(16) > m.barrier_ns(8));
    }

    #[test]
    fn smt_folding_throughput() {
        let m = MachineSpec::xeon_e5_2690v2();
        // 10 threads, one per core: plain max
        let t10 = m.thread_compute_seconds(&vec![3.0e9; 10]);
        assert!((t10 - 1.0).abs() < 1e-12);
        // 20 threads on 10 cores: 2x work per core at 1.25x yield
        let t20 = m.thread_compute_seconds(&vec![3.0e9; 20]);
        assert!((t20 - 2.0 / 1.25).abs() < 1e-9, "t20 = {t20}");
        // SMT never makes things worse than serializing the pair
        assert!(t20 < 2.0 * t10 + 1e-12);
    }

    #[test]
    fn smt_folding_imbalanced() {
        let m = MachineSpec::xeon_e5_2690v2();
        // one hot thread dominates regardless of folding
        let mut loads = vec![1.0e9; 20];
        loads[3] = 30.0e9;
        let t = m.thread_compute_seconds(&loads);
        assert!(t >= m.seconds(30.0e9) / m.smt_yield);
    }

    #[test]
    fn host_spec_is_sane() {
        let h = MachineSpec::host();
        assert!(h.cores >= 1);
        assert!(h.stream_gbs > 0.0);
        assert!(h.bw_saturation_cores >= 1.0);
        assert!(h.bw_saturation_cores <= h.cores as f64 + 1e-9 || h.cores >= 4);
        // Bandwidth at full occupancy reaches the STREAM figure.
        assert!((h.bandwidth_at(h.cores.max(4)) - h.stream_gbs).abs() < 1e-9);
    }

    #[test]
    fn l2_capacity_present() {
        // The tiler divides by this; it must be a plausible per-core L2
        // on every preset (64 KiB..4 MiB covers everything we model).
        for m in [
            MachineSpec::xeon_e5_2690v2(),
            MachineSpec::xeon_e5_2680(),
            MachineSpec::host(),
        ] {
            assert!(m.l2_bytes >= 64 * 1024, "{}: l2 too small", m.name);
            assert!(m.l2_bytes <= 4 * 1024 * 1024, "{}: l2 too big", m.name);
            assert!(m.llc_bytes >= m.l2_bytes, "{}: llc below l2", m.name);
        }
    }

    #[test]
    fn seconds_conversion() {
        let m = MachineSpec::xeon_e5_2690v2();
        assert!((m.seconds(3.0e9) - 1.0).abs() < 1e-12);
    }
}
