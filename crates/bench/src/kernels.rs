//! Kernel time models (a model, not a measurement): roofline-style times
//! for the edge loops (threaded via real per-thread workload counts:
//! replication, imbalance, atomics) and the sparse recurrences
//! (level-scheduled with barrier costs, or P2P with wait costs, both
//! bandwidth-capped).
//!
//! The models take the *real* per-thread workload extracted from this
//! repository's schedulers (owner-writes plans, level schedules, P2P
//! schedules) and charge hardware costs from a [`MachineSpec`].
//!
//! **Calibration policy** (documented in EXPERIMENTS.md): single-thread
//! constants (cycles per edge/row for each code variant) are calibrated
//! against the paper's own single-thread measurements; every *parallel*
//! effect — load imbalance, replication overhead, DAG level widths,
//! synchronization counts, bandwidth saturation, message counts — comes
//! from the real data structures produced by this repository's
//! implementations.

use fun3d_machine::MachineSpec;

/// Single-thread cost constants for the edge-based flux kernel, per code
/// variant, in cycles per edge. Calibrated to the paper's single-thread
/// measurements (Fig. 6a: AoS data structures +40%, SIMD +40%, prefetch
/// +15%); the absolute scalar baseline matches the paper's Table I / Fig.
/// 5 flux share on Mesh-C.
#[derive(Clone, Copy, Debug)]
pub struct EdgeLoopCosts {
    /// Baseline scalar loop with SoA node data.
    pub scalar_soa: f64,
    /// Scalar loop with AoS node data.
    pub scalar_aos: f64,
    /// AoS + 4-edge SIMD batching.
    pub simd: f64,
    /// AoS + SIMD + software prefetch.
    pub simd_prefetch: f64,
    /// Effective DRAM traffic per processed edge after cache reuse,
    /// bytes (the kernel is compute-bound: ~9.4 flop/byte of *accessed*
    /// data, far less DRAM traffic thanks to RCM locality).
    pub dram_bytes_per_edge: f64,
}

impl Default for EdgeLoopCosts {
    fn default() -> Self {
        // scalar_soa: baseline flux on Mesh-C ≈ 42% of 282 s over ~420
        // kernel invocations of 2.4e6 edges at 3 GHz → ≈ 350 cyc/edge.
        let scalar_soa = 350.0;
        let scalar_aos = scalar_soa / 1.40; // paper: 40% benefit
        let simd = scalar_aos / 1.40; // paper: 40% benefit
        let simd_prefetch = simd / 1.15; // paper: 15% benefit
        EdgeLoopCosts {
            scalar_soa,
            scalar_aos,
            simd,
            simd_prefetch,
            dram_bytes_per_edge: 48.0,
        }
    }
}

/// Time for one execution of a threaded edge loop.
///
/// * `per_thread_edges` — edges processed by each thread, *including*
///   replicated (cut) edges: both the imbalance and the replication
///   overhead of the real plan flow in here;
/// * `cycles_per_edge` — the single-thread variant cost;
/// * `atomics_per_edge` — atomic RMWs issued per edge (8 for the
///   atomics strategy: two 4-component updates), 0 otherwise.
///
/// The loop time is the slowest thread's compute time, floored by the
/// shared-bandwidth streaming time of the aggregate DRAM traffic.
pub fn edge_loop_time(
    m: &MachineSpec,
    per_thread_edges: &[usize],
    cycles_per_edge: f64,
    dram_bytes_per_edge: f64,
    atomics_per_edge: f64,
) -> f64 {
    let threads = per_thread_edges.len().max(1);
    let max_edges = per_thread_edges.iter().copied().max().unwrap_or(0) as f64;
    let total_edges: usize = per_thread_edges.iter().sum();
    let cycles: Vec<f64> = per_thread_edges
        .iter()
        .map(|&e| e as f64 * cycles_per_edge)
        .collect();
    let compute =
        m.thread_compute_seconds(&cycles) + max_edges * atomics_per_edge * m.atomic_ns * 1e-9;
    let bw = m.bandwidth_at(threads.min(m.cores));
    let memory = total_edges as f64 * dram_bytes_per_edge / (bw * 1e9);
    compute.max(memory)
}

/// Single-thread cost constants for the sparse recurrences (TRSV and
/// ILU), cycles per processed block and effective DRAM bytes per block.
#[derive(Clone, Copy, Debug)]
pub struct RecurrenceCosts {
    /// Cycles per off-diagonal 4×4 block op in TRSV (matvec, streaming).
    pub trsv_cycles_per_block: f64,
    /// Cycles per block op in the ILU factorization (matmul-heavy).
    pub ilu_cycles_per_block: f64,
    /// DRAM bytes per block touched by TRSV (streaming: the stored block
    /// plus its index and its share of the vector traffic).
    pub trsv_bytes_per_block: f64,
    /// DRAM bytes per block op of ILU (some reuse across a row's
    /// updates).
    pub ilu_bytes_per_block: f64,
}

impl RecurrenceCosts {
    /// The costs for factors whose stored block takes
    /// `factor_block_bytes` (`fun3d_sparse::FACTOR_BLOCK_BYTES`): per
    /// block the TRSV streams the block, its 4-byte column index and about
    /// 18 bytes of vectors; the factorization about 42 bytes of working
    /// row on top of the block.
    pub fn for_block_bytes(factor_block_bytes: usize) -> Self {
        let block = factor_block_bytes as f64;
        RecurrenceCosts {
            trsv_cycles_per_block: 40.0,
            ilu_cycles_per_block: 150.0,
            trsv_bytes_per_block: block + 4.0 + 18.0,
            ilu_bytes_per_block: block + 42.0,
        }
    }
}

/// Time for a level-scheduled sweep: per level, the slowest thread's
/// block work plus one barrier; the whole sweep is floored by the
/// bandwidth time of the aggregate traffic.
///
/// `level_block_weights[l]` holds the per-row block counts of level `l`
/// (rows are distributed over threads in contiguous chunks).
pub fn level_sched_time(
    m: &MachineSpec,
    threads: usize,
    level_block_weights: &[Vec<usize>],
    cycles_per_block: f64,
    bytes_per_block: f64,
) -> f64 {
    let threads = threads.max(1);
    let mut compute = 0.0f64;
    let mut total_blocks = 0usize;
    let mut per_thread = vec![0.0f64; threads];
    for weights in level_block_weights {
        total_blocks += weights.iter().sum::<usize>();
        // contiguous chunking of the level's rows across threads
        let n = weights.len();
        for (t, slot) in per_thread.iter_mut().enumerate() {
            let r = chunk(n, threads, t);
            *slot = weights[r].iter().sum::<usize>() as f64 * cycles_per_block;
        }
        compute += m.thread_compute_seconds(&per_thread);
        compute += m.barrier_ns(threads) * 1e-9;
    }
    let bw = m.bandwidth_at(threads.min(m.cores));
    let memory = total_blocks as f64 * bytes_per_block / (bw * 1e9);
    compute.max(memory)
}

/// Time for a P2P-scheduled sweep: the slowest thread's block work plus
/// its wait costs, floored by aggregate bandwidth time. The paper's gain
/// comes from replacing `nlevels` barriers with `nwaits` cheap counter
/// spins and from block-balanced row ownership; `critical_path_blocks`
/// is the serialization that ownership still imposes — the schedule's own
/// makespan in blocks (`P2pSchedule::makespan`), not the DAG's critical
/// path, which no particular schedule need reach.
pub fn p2p_time(
    m: &MachineSpec,
    per_thread_blocks: &[usize],
    per_thread_waits: &[usize],
    critical_path_blocks: f64,
    cycles_per_block: f64,
    bytes_per_block: f64,
) -> f64 {
    let threads = per_thread_blocks.len().max(1);
    let total_blocks: usize = per_thread_blocks.iter().sum();
    let cycles: Vec<f64> = per_thread_blocks
        .iter()
        .map(|&b| b as f64 * cycles_per_block)
        .collect();
    let max_waits = per_thread_waits.iter().copied().max().unwrap_or(0) as f64;
    let compute = m.thread_compute_seconds(&cycles) + max_waits * m.p2p_wait_ns * 1e-9;
    // The DAG's critical path bounds the sweep regardless of threads.
    let critical = m.seconds(critical_path_blocks * cycles_per_block);
    let bw = m.bandwidth_at(threads.min(m.cores));
    let memory = total_blocks as f64 * bytes_per_block / (bw * 1e9);
    compute.max(critical).max(memory)
}

fn chunk(n: usize, k: usize, t: usize) -> std::ops::Range<usize> {
    let base = n / k;
    let extra = n % k;
    let start = t * base + t.min(extra);
    let len = base + usize::from(t < extra);
    start..(start + len).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineSpec {
        MachineSpec::xeon_e5_2690v2()
    }

    #[test]
    fn edge_loop_scales_with_threads() {
        let costs = EdgeLoopCosts::default();
        let e = 1_000_000usize;
        let t1 = edge_loop_time(&m(), &[e], costs.scalar_aos, costs.dram_bytes_per_edge, 0.0);
        let per4 = vec![e / 4; 4];
        let t4 = edge_loop_time(&m(), &per4, costs.scalar_aos, costs.dram_bytes_per_edge, 0.0);
        assert!(t4 < t1 / 3.0, "t1={t1} t4={t4}");
    }

    #[test]
    fn imbalance_hurts() {
        let costs = EdgeLoopCosts::default();
        let balanced = vec![250_000usize; 4];
        let skewed = vec![400_000usize, 200_000, 200_000, 200_000];
        let tb = edge_loop_time(&m(), &balanced, costs.simd, costs.dram_bytes_per_edge, 0.0);
        let ts = edge_loop_time(&m(), &skewed, costs.simd, costs.dram_bytes_per_edge, 0.0);
        assert!(ts > tb * 1.3);
    }

    #[test]
    fn atomics_add_cost() {
        let costs = EdgeLoopCosts::default();
        let e = vec![100_000usize; 4];
        let plain = edge_loop_time(&m(), &e, costs.scalar_aos, costs.dram_bytes_per_edge, 0.0);
        let atomic = edge_loop_time(&m(), &e, costs.scalar_aos, costs.dram_bytes_per_edge, 8.0);
        assert!(atomic > plain * 1.5, "plain {plain} atomic {atomic}");
    }

    #[test]
    fn variant_ordering_matches_paper() {
        let c = EdgeLoopCosts::default();
        assert!(c.scalar_soa > c.scalar_aos);
        assert!(c.scalar_aos > c.simd);
        assert!(c.simd > c.simd_prefetch);
        // cumulative single-thread gain ≈ 1.4 * 1.4 * 1.15 ≈ 2.25
        let gain = c.scalar_soa / c.simd_prefetch;
        assert!((2.0..2.6).contains(&gain), "gain {gain}");
    }

    #[test]
    fn level_schedule_pays_barriers() {
        // Many thin levels vs few wide levels with identical total work:
        // thin levels must cost more.
        let wide: Vec<Vec<usize>> = vec![vec![7; 1000]; 10];
        let thin: Vec<Vec<usize>> = vec![vec![7; 10]; 1000];
        let tw = level_sched_time(&m(), 10, &wide, 40.0, 150.0);
        let tt = level_sched_time(&m(), 10, &thin, 40.0, 150.0);
        assert!(tt > tw, "thin {tt} wide {tw}");
    }

    #[test]
    fn p2p_beats_levels_on_same_workload() {
        // Equal work; levels pay 500 barriers, p2p pays a few waits.
        let levels: Vec<Vec<usize>> = vec![vec![7; 40]; 500];
        let tl = level_sched_time(&m(), 10, &levels, 40.0, 150.0);
        let blocks = 500 * 40 * 7 / 10;
        let tp = p2p_time(
            &m(),
            &vec![blocks; 10],
            &vec![300; 10],
            7.0 * 500.0, // critical path: one row per level
            40.0,
            150.0,
        );
        assert!(tp < tl, "p2p {tp} levels {tl}");
    }

    #[test]
    fn bandwidth_floor_applies() {
        // Huge traffic with trivial compute: time = bytes / STREAM.
        let t = edge_loop_time(&m(), &[1_000_000; 10], 1.0, 10_000.0, 0.0);
        let expect = 10.0e6 * 10_000.0 / (34.8e9);
        assert!((t - expect).abs() < 0.05 * expect);
    }

    #[test]
    fn critical_path_bounds_p2p() {
        let t = p2p_time(&m(), &[100; 16], &[0; 16], 1.0e9, 40.0, 0.0);
        assert!(t >= m().seconds(1.0e9 * 40.0) * 0.99);
    }
}
