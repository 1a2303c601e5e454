//! Shared plumbing for the experiment binaries (one per paper table /
//! figure; see DESIGN.md §4 for the index).
//!
//! Every binary accepts:
//!
//! * `--mesh <tiny|small|medium|large|mesh-c|mesh-d>` — workload size
//!   (defaults differ per experiment; paper-size runs take long on this
//!   single-core container);
//! * `--reps <n>` — measurement repetitions for host timings;
//!
//! prints an aligned table to stdout and mirrors it to
//! `target/experiments/<name>.csv`.
//!
//! Besides that plumbing, the crate holds what only the figures run, apart
//! from the application it measures: the paper's "before" kernels
//! ([`flux_reference`], [`trsv_reference`], the scalar [`csr`]), Table
//! II's available-parallelism metric ([`dag`]), and the cost models of
//! Figs. 6, 7 and 9–11 ([`kernels`], [`network`], [`scaling`], [`model`],
//! [`multinode`]) — labelled models of the paper's machines, not
//! measurements — plus the figures' own tools: the micro-benchmark runner
//! ([`microbench`], behind `cargo bench`) and the table/CSV/JSON writers
//! ([`report`]).

pub mod csr;
pub mod dag;
pub mod flux_reference;
pub mod kernels;
pub mod microbench;
pub mod model;
pub mod multinode;
pub mod network;
pub mod report;
pub mod scaling;
pub mod trsv_reference;

use crate::report::{experiments_dir, Table};
use fun3d_core::{FlowConditions, Fun3dApp, OptConfig};
use fun3d_mesh::generator::MeshPreset;
use fun3d_mesh::{DualMesh, Mesh};
use fun3d_solver::ptc::{PtcConfig, PtcStats};
use fun3d_util::telemetry::{self, CounterMap, Level};
use fun3d_util::Rng64;
use std::time::Instant;

/// Parsed common CLI options.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Mesh preset.
    pub mesh: MeshPreset,
    /// Host-measurement repetitions.
    pub reps: usize,
}

const USAGE: &str = "options: --mesh <tiny|small|medium|large|mesh-c|mesh-d> --reps <n>";

impl Cli {
    /// Parses `std::env::args`, with a per-experiment default preset.
    pub fn parse(default_mesh: MeshPreset) -> Cli {
        Cli::parse_from(default_mesh, std::env::args())
    }

    /// [`Cli::parse`] over an explicit argument list (program name
    /// first), for binaries that strip their own flags beforehand. A
    /// malformed command line prints what is wrong and exits with status 2.
    pub fn parse_from(default_mesh: MeshPreset, args: impl Iterator<Item = String>) -> Cli {
        Cli::try_parse(default_mesh, args).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    fn try_parse(default_mesh: MeshPreset, args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            mesh: default_mesh,
            reps: 3,
        };
        let mut args = args.skip(1);
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--mesh" => {
                    let v = value()?;
                    cli.mesh = MeshPreset::parse(&v).ok_or(format!("--mesh: unknown preset '{v}'"))?;
                }
                "--reps" => {
                    let v = value()?;
                    cli.reps = v.parse().map_err(|_| format!("--reps takes an integer, not '{v}'"))?;
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                _ => return Err(format!("unknown argument '{arg}'")),
            }
        }
        Ok(cli)
    }
}

/// Builds the RCM-reordered mesh for a preset (the ordering the paper's
/// optimized configurations use).
pub fn build_mesh(preset: MeshPreset) -> Mesh {
    let mut mesh = preset.build();
    Fun3dApp::rcm_reorder(&mut mesh);
    mesh
}

/// A serial application solve as the profile figures read it.
pub struct ProfiledSolve {
    /// The solve's statistics.
    pub stats: PtcStats,
    /// Wall seconds of the whole solve.
    pub wall_s: f64,
    /// What each kernel recorded during the solve: calls, traffic and
    /// measured time.
    pub kernels: CounterMap,
}

/// Builds the application for `cfg` (serial) on the preset's mesh and
/// solves it to `rtol = 1e-8` from `Δt0 = 2`, timing the solve and reading
/// each kernel's time off the telemetry counters it added on this thread
/// (a serial application runs every kernel here). The counters record at
/// [`Level::Counters`] unless `FUN3D_TELEMETRY` chose a level.
pub fn profiled_solve(preset: MeshPreset, cfg: OptConfig) -> ProfiledSolve {
    assert_eq!(cfg.nthreads, 1, "a profiled solve reads this thread's counters");
    if std::env::var_os("FUN3D_TELEMETRY").is_none() {
        telemetry::set_level(Level::Counters);
    }
    let mut app = Fun3dApp::new(build_mesh(preset), FlowConditions::default(), cfg);
    let before = telemetry::local_counters();
    let t = Instant::now();
    let (_, stats) = app.run(&PtcConfig {
        dt0: 2.0,
        rtol: 1e-8,
        max_steps: 100,
        ..Default::default()
    });
    let wall_s = t.elapsed().as_secs_f64();
    assert!(stats.converged, "{cfg:?}: the solve did not converge");
    ProfiledSolve {
        stats,
        wall_s,
        kernels: telemetry::local_counters().since(&before),
    }
}

/// A kernel-level fixture: mesh, dual metrics, edge geometry, randomized
/// near-free-stream state (so flux kernels exercise all code paths).
pub struct KernelFixture {
    /// The mesh.
    pub mesh: Mesh,
    /// Dual metrics.
    pub dual: DualMesh,
    /// Edge geometry.
    pub geom: fun3d_core::EdgeGeom,
    /// The mesh's half-edges, boundary closure included: what the
    /// gradient kernel gathers over.
    pub adj: fun3d_core::HalfEdges,
    /// AoS node state with gradients populated.
    pub node: fun3d_core::NodeAos,
    /// Flow conditions.
    pub cond: FlowConditions,
}

impl KernelFixture {
    /// Builds the fixture for a preset, RCM-reordered.
    pub fn new(preset: MeshPreset) -> KernelFixture {
        KernelFixture::on(build_mesh(preset))
    }

    /// Builds the fixture on `mesh` as numbered.
    pub fn on(mesh: Mesh) -> KernelFixture {
        let dual = DualMesh::build(&mesh);
        let geom = fun3d_core::EdgeGeom::build(&mesh, &dual);
        let cond = FlowConditions::default();
        let mut node = fun3d_core::NodeAos::zeros(mesh.nvertices());
        node.set_freestream(&cond.qinf);
        let mut rng = Rng64::new(0xBEEF);
        for x in node.q.iter_mut() {
            *x += rng.range_f64(-0.05, 0.05);
        }
        // realistic gradients via one Green-Gauss pass
        let bc = fun3d_core::BcData::build(&dual);
        let adj = fun3d_core::HalfEdges::build(&geom, &bc, &dual.vol);
        let (isa, exec) = (fun3d_core::Isa::detect(), fun3d_core::Exec::Caller);
        fun3d_core::green_gauss(isa, exec, &adj, &mut node);
        KernelFixture {
            mesh,
            dual,
            geom,
            adj,
            node,
            cond,
        }
    }

    /// The boundary table (rebuilt on demand).
    pub fn bc(&self) -> fun3d_core::BcData {
        fun3d_core::BcData::build(&self.dual)
    }
}

/// Builds the assembled first-order Jacobian with a pseudo-time shift —
/// the matrix the ILU/TRSV experiments factor.
pub fn jacobian_fixture(fix: &KernelFixture, dt: f64) -> fun3d_sparse::Bcsr4 {
    let bc = fix.bc();
    let mut jac = fun3d_sparse::Bcsr4::from_edges(fix.mesh.nvertices(), fix.geom.edges());
    let slots = fun3d_core::JacobianSlots::new(&jac, fix.geom.edges());
    fun3d_core::jacobian_assemble(&fix.geom, &bc, &fix.node, &fix.cond, &slots, &mut jac);
    let n = jac.dim();
    let mut shift = vec![0.0; n];
    for v in 0..fix.mesh.nvertices() {
        let vdt = fix.dual.vol[v] / dt;
        shift[v * 4] = vdt / fix.cond.beta;
        for c in 1..4 {
            shift[v * 4 + c] = vdt;
        }
    }
    fun3d_core::add_time_diagonal(&slots, &mut jac, &shift);
    jac
}

/// Per-variant minimum seconds over `reps` rounds of one sample of each
/// variant, after a warm-up round: load drift on a shared host only ever
/// adds time, and interleaving gives every variant the same shot at the
/// quiet windows.
pub fn best_of<const N: usize>(reps: usize, mut variants: [Box<dyn FnMut() + '_>; N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for round in 0..=reps {
        for (t_min, run) in best.iter_mut().zip(variants.iter_mut()) {
            let t0 = Instant::now();
            run();
            if round > 0 {
                *t_min = t_min.min(t0.elapsed().as_secs_f64());
            }
        }
    }
    best
}

/// Prints the table and writes `<name>.csv` under `target/experiments`.
pub fn emit(name: &str, table: &Table) {
    print!("{}", table.render());
    match table.write_csv(&experiments_dir(), name) {
        Ok(path) => println!("[csv written to {}]", path.display()),
        Err(e) => eprintln!("warning: could not write csv: {e}"),
    }
}

/// Formats a speedup ratio.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

/// Thread counts swept in the single-node figures (paper: 10 cores, 20
/// SMT threads).
pub const THREAD_SWEEP: [usize; 6] = [1, 2, 4, 6, 8, 10];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_command_lines_name_the_flag() {
        let parse = |args: &[&str]| {
            let args = std::iter::once("bin").chain(args.iter().copied()).map(String::from);
            Cli::try_parse(MeshPreset::Medium, args)
        };
        let cli = parse(&["--mesh", "tiny", "--reps", "7"]).unwrap();
        assert_eq!((cli.mesh, cli.reps), (MeshPreset::Tiny, 7));
        for (args, flag) in [
            (&["--mesh"][..], "--mesh"),
            (&["--reps", "2", "--reps"][..], "--reps"),
            (&["--mesh", "huge"][..], "--mesh"),
            (&["--reps", "many"][..], "--reps"),
            (&["--meshes"][..], "--meshes"),
        ] {
            let err = parse(args).expect_err("a malformed command line is an error");
            assert!(err.contains(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn fixture_builds_and_has_gradients() {
        let fix = KernelFixture::new(MeshPreset::Tiny);
        assert!(fix.geom.nedges() > 0);
        let gmax = fix.node.grad.iter().map(|x| x.abs()).fold(0.0, f64::max);
        assert!(gmax > 0.0, "gradients should be nonzero");
    }

    #[test]
    fn jacobian_fixture_is_factorable() {
        let fix = KernelFixture::new(MeshPreset::Tiny);
        let jac = jacobian_fixture(&fix, 1.0);
        let f = fun3d_sparse::ilu::ilu0(&jac);
        assert_eq!(f.nrows(), jac.nrows());
    }
}
