//! Modeled kernel speedups for the full-application figures
//! (Figs. 8a/8b, Table II): each kernel class's speedup at a given core
//! count, from real plans and schedules charged to the paper machine.

use crate::kernels::{self, EdgeLoopCosts, RecurrenceCosts};
use crate::{jacobian_fixture, KernelFixture};
use fun3d_machine::MachineSpec;
use fun3d_partition::{partition_graph, MultilevelConfig, OwnerWritesPlan};
use fun3d_sparse::{ilu, IluFactors, P2pSchedule, Pattern, TempBuffer};

/// Blocks each row of the three recurrences touches on given factors:
/// the work the modelled schedules are charged with, row by row.
pub struct RecurrenceBlocks {
    /// Forward sweep: the row's `L` blocks and its right-hand side.
    pub fwd: Vec<usize>,
    /// Backward sweep: the row's `U` blocks and its inverted diagonal.
    pub bwd: Vec<usize>,
    /// Factorization: one product per `L` block, one per `U` block of
    /// each pivot row, and the diagonal inversion.
    pub ilu: Vec<usize>,
}

impl RecurrenceBlocks {
    pub fn of(f: &IluFactors) -> RecurrenceBlocks {
        let (l, u): (Pattern, Pattern) = ((&f.l).into(), (&f.u).into());
        let rows = 0..f.nrows();
        let ilu_row = |r: usize| {
            let updates: usize = l.row(r).iter().map(|&k| u.row(k as usize).len()).sum();
            l.row(r).len() + updates + 1
        };
        RecurrenceBlocks {
            fwd: rows.clone().map(|r| l.row(r).len() + 1).collect(),
            bwd: rows.clone().map(|r| u.row(r).len() + 1).collect(),
            ilu: rows.map(ilu_row).collect(),
        }
    }
}

/// Modelled time of one P2P sweep of `sched` whose row `r` touches
/// `blocks[r]` blocks: the per-thread loads and waits of the real
/// schedule, and as the critical-path term the schedule's **own
/// makespan** — the DAG's critical path is a bound no row assignment need
/// reach, and charging it let a schedule that ran its threads one after
/// another model a 20-thread speed-up.
pub fn p2p_sweep_time(
    machine: &MachineSpec,
    sched: &P2pSchedule,
    blocks: &[usize],
    cycles_per_block: f64,
    bytes_per_block: f64,
) -> f64 {
    let threads = 0..sched.nthreads();
    let load = |t: usize| sched.program(t).iter().map(|&r| blocks[r as usize]).sum();
    let loads: Vec<usize> = threads.clone().map(load).collect();
    let waits: Vec<usize> = threads.map(|t| sched.nwaits_of(t)).collect();
    kernels::p2p_time(
        machine,
        &loads,
        &waits,
        sched.makespan(blocks) as f64,
        cycles_per_block,
        bytes_per_block,
    )
}

/// Modeled speedups of every kernel class at `cores` (20 SMT threads on
/// 10 cores etc.), from real plans/schedules of the given fixture.
pub struct KernelSpeedups {
    /// flux (owner-writes + AoS + SIMD + prefetch) vs scalar SoA serial.
    pub flux: f64,
    /// gradient (owner-writes threading of the scalar kernel).
    pub gradient: f64,
    /// Jacobian assembly (edge loop, threading only).
    pub jacobian: f64,
    /// ILU factorization (P2P).
    pub ilu: f64,
    /// TRSV (P2P).
    pub trsv: f64,
    /// vector primitives etc. (threaded but bandwidth-bound).
    pub other: f64,
}

pub fn model_speedups(fix: &KernelFixture, machine: &MachineSpec, cores: usize) -> KernelSpeedups {
    model_speedups_fill(fix, machine, cores, 1)
}

/// Like [`model_speedups`] with an explicit ILU fill level (Table II).
pub fn model_speedups_fill(
    fix: &KernelFixture,
    machine: &MachineSpec,
    cores: usize,
    fill: usize,
) -> KernelSpeedups {
    let costs = EdgeLoopCosts::default();
    let rc = RecurrenceCosts::for_block_bytes(fun3d_sparse::FACTOR_BLOCK_BYTES);
    let threads = cores * machine.smt;
    let ne = fix.geom.nedges();
    let graph = fun3d_mesh::Graph::from_edges(fix.mesh.nvertices(), fix.geom.edges());
    let plan = OwnerWritesPlan::build(
        fix.geom.edges(),
        &partition_graph(&graph, threads, &MultilevelConfig::default()),
        threads,
    );
    let per_thread: Vec<usize> = plan.edges_of().iter().map(Vec::len).collect();

    let edge_speedup = |serial_cyc: f64, par_cyc: f64| -> f64 {
        let t0 =
            kernels::edge_loop_time(machine, &[ne], serial_cyc, costs.dram_bytes_per_edge, 0.0);
        let t1 = kernels::edge_loop_time(
            machine,
            &per_thread,
            par_cyc,
            costs.dram_bytes_per_edge,
            0.0,
        );
        t0 / t1
    };
    let flux = edge_speedup(costs.scalar_soa, costs.simd_prefetch);
    let gradient = edge_speedup(costs.scalar_aos, costs.scalar_aos);
    let jacobian = gradient;

    // recurrences on the real ILU(1) factors of the real Jacobian
    let jac = jacobian_fixture(fix, 1.0);
    let pattern = ilu::symbolic_iluk(&jac, fill);
    let factors = ilu::factor(&jac, &pattern, TempBuffer::Compressed);
    let p2p_f = P2pSchedule::forward(&factors.l, threads);
    let p2p_b = P2pSchedule::backward(&factors.u, threads);
    let blocks = RecurrenceBlocks::of(&factors);
    let total_blocks = (blocks.fwd.iter().sum::<usize>() + blocks.bwd.iter().sum::<usize>()) as f64;
    let trsv_serial = machine.seconds(total_blocks * rc.trsv_cycles_per_block);
    let trsv_sweep = |sched: &P2pSchedule, blocks: &[usize]| {
        p2p_sweep_time(machine, sched, blocks, rc.trsv_cycles_per_block, rc.trsv_bytes_per_block)
    };
    let trsv = trsv_serial / (trsv_sweep(&p2p_f, &blocks.fwd) + trsv_sweep(&p2p_b, &blocks.bwd));

    let ilu_serial =
        machine.seconds(blocks.ilu.iter().sum::<usize>() as f64 * rc.ilu_cycles_per_block);
    let ilu_par = p2p_sweep_time(
        machine,
        &p2p_f,
        &blocks.ilu,
        rc.ilu_cycles_per_block,
        rc.ilu_bytes_per_block,
    );
    let ilu_speedup = ilu_serial / ilu_par;

    // Vector primitives: streaming, bandwidth-bound — scale with the
    // bandwidth ramp (saturates ~4 cores), slightly uplifted by SIMD.
    let other = (machine.bandwidth_at(cores) / machine.bandwidth_at(1)).min(cores as f64);

    KernelSpeedups {
        flux,
        gradient,
        jacobian,
        ilu: ilu_speedup,
        trsv,
        other,
    }
}

