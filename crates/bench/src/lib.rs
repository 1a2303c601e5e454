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

pub mod flux_reference;
pub mod model;
pub mod multinode;
pub mod trsv_reference;

use fun3d_core::{Fun3dApp, FlowConditions};
use fun3d_mesh::generator::MeshPreset;
use fun3d_mesh::{DualMesh, Mesh};
use fun3d_util::report::{experiments_dir, Table};
use fun3d_util::Rng64;

/// Parsed common CLI options.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Mesh preset.
    pub mesh: MeshPreset,
    /// Host-measurement repetitions.
    pub reps: usize,
}

impl Cli {
    /// Parses `std::env::args`, with a per-experiment default preset.
    pub fn parse(default_mesh: MeshPreset) -> Cli {
        Cli::parse_from(default_mesh, std::env::args())
    }

    /// [`Cli::parse`] over an explicit argument list (program name
    /// first), for binaries that strip their own flags beforehand.
    pub fn parse_from(default_mesh: MeshPreset, args: impl Iterator<Item = String>) -> Cli {
        let mut cli = Cli {
            mesh: default_mesh,
            reps: 3,
        };
        let args: Vec<String> = args.collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--mesh" => {
                    i += 1;
                    cli.mesh = MeshPreset::parse(&args[i])
                        .unwrap_or_else(|| panic!("unknown mesh preset '{}'", args[i]));
                }
                "--reps" => {
                    i += 1;
                    cli.reps = args[i].parse().expect("--reps takes an integer");
                }
                "--help" | "-h" => {
                    eprintln!("options: --mesh <tiny|small|medium|large|mesh-c|mesh-d> --reps <n>");
                    std::process::exit(0);
                }
                other => panic!("unknown argument '{other}'"),
            }
            i += 1;
        }
        cli
    }
}

/// Builds the RCM-reordered mesh for a preset (the ordering the paper's
/// optimized configurations use).
pub fn build_mesh(preset: MeshPreset) -> Mesh {
    let mut mesh = preset.build();
    Fun3dApp::rcm_reorder(&mut mesh);
    mesh
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
    /// Builds the fixture for a preset.
    pub fn new(preset: MeshPreset) -> KernelFixture {
        let mesh = build_mesh(preset);
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
        let bc = fun3d_core::bc::BcData::build(&dual);
        let adj = fun3d_core::HalfEdges::build(&geom, &bc, &dual.vol);
        let (isa, exec) = (fun3d_core::Isa::detect(), fun3d_core::Exec::Caller);
        fun3d_core::gradient::green_gauss(isa, exec, &adj, &mut node);
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
    pub fn bc(&self) -> fun3d_core::bc::BcData {
        fun3d_core::bc::BcData::build(&self.dual)
    }
}

/// Builds the assembled first-order Jacobian with a pseudo-time shift —
/// the matrix the ILU/TRSV experiments factor.
pub fn jacobian_fixture(fix: &KernelFixture, dt: f64) -> fun3d_sparse::Bcsr4 {
    let bc = fix.bc();
    let mut jac = fun3d_sparse::Bcsr4::from_edges(fix.mesh.nvertices(), fix.geom.edges());
    let slots = fun3d_core::jacobian::JacobianSlots::new(&jac, fix.geom.edges());
    fun3d_core::jacobian::assemble(&fix.geom, &bc, &fix.node, &fix.cond, &slots, &mut jac);
    let n = jac.dim();
    let mut shift = vec![0.0; n];
    for v in 0..fix.mesh.nvertices() {
        let vdt = fix.dual.vol[v] / dt;
        shift[v * 4] = vdt / fix.cond.beta;
        for c in 1..4 {
            shift[v * 4 + c] = vdt;
        }
    }
    fun3d_core::jacobian::add_time_diagonal(&slots, &mut jac, &shift);
    jac
}

/// Median seconds of `reps` measured runs of `f` (after one warm-up).
pub fn measure(reps: usize, f: impl FnMut()) -> f64 {
    fun3d_util::stats::median(&fun3d_util::stats::measure_secs(reps, f))
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

    #[test]
    fn measure_returns_positive() {
        let t = measure(2, || {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
