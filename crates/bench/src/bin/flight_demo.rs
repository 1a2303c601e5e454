//! **flight_demo** — drives the black-box flight recorder end to end on
//! a tiny solve, with optional fault injection.
//!
//! Three modes (`--inject`):
//!
//! * `none` (default) — a clean convergent solve; asserts that *no*
//!   flight dump is written (the negative canary: always-on recording
//!   must not mean always-dumping);
//! * `divergence` — poisons the residual with NaN a few steps in, so
//!   the ΨTC anomaly detector fires and writes
//!   `<prefix>.divergence.json`;
//! * `panic` — panics one worker inside a pool region, so the launcher
//!   records the panic and writes `<prefix>.region_panic.json` before
//!   propagating it.
//!
//! In the fault modes the binary re-validates the dump it provoked with
//! the same strict checker `flight_view --check` uses, and exits
//! non-zero if the artifact is missing or malformed — this is the gate
//! `scripts/verify.sh` runs.
//!
//! Usage: `flight_demo [--inject none|divergence|panic] [--dir <path>]
//! [--prefix <stem>]` (dumps are named `<prefix>.<trigger>.json`, prefix
//! `flight` by default).

use fun3d_solver::precond::{Preconditioner, SerialIlu};
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem};
use fun3d_solver::Anomaly;
use fun3d_sparse::Bcsr4;
use fun3d_threads::ThreadPool;
use fun3d_util::telemetry::flight;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq)]
enum Inject {
    None,
    Divergence,
    Panic,
}

/// The step at which a fault is injected; the tiny problem below needs
/// at least twice this many SER steps at `dt0 = 0.5`, so the fault
/// always lands mid-flight.
const INJECT_STEP: usize = 2;

fn fail(msg: &str) -> ! {
    eprintln!("flight_demo: FAILED: {msg}");
    std::process::exit(1);
}

/// The ΨTC test problem: `f(u) = A u − b` on the tiny mesh, ILU(0)
/// preconditioned, persistent-region GMRES on a 2-worker pool — small
/// enough to run in milliseconds, real enough to exercise every flight
/// event source (solve, steps, GMRES, regions).
struct DemoProblem {
    a: Bcsr4,
    b: Vec<f64>,
    precond: Option<SerialIlu>,
    pool: Arc<ThreadPool>,
    inject: Inject,
    poisoned: bool,
}

impl DemoProblem {
    fn new(inject: Inject) -> DemoProblem {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(41);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) * 0.1).collect();
        DemoProblem {
            a,
            b,
            precond: None,
            pool: Arc::new(ThreadPool::new(2)),
            inject,
            poisoned: false,
        }
    }
}

impl PtcProblem for DemoProblem {
    fn dim(&self) -> usize {
        self.a.dim()
    }
    fn residual(&mut self, u: &[f64], r: &mut [f64]) {
        self.a.spmv(u, r);
        for i in 0..r.len() {
            r[i] -= self.b[i];
        }
        if self.poisoned {
            r[0] = f64::NAN;
        }
    }
    fn time_diag(&self, dt: f64, out: &mut [f64]) {
        out.iter_mut().for_each(|o| *o = 1.0 / dt);
    }
    fn build_preconditioner(&mut self, _u: &[f64], _time_diag: &[f64]) {
        if self.precond.is_none() {
            self.precond = Some(SerialIlu::new(&self.a, 0));
        }
    }
    fn preconditioner(&self) -> &dyn Preconditioner {
        self.precond.as_ref().unwrap()
    }
    fn on_step(&mut self, step: usize, _res_norm: f64, _dt: f64) {
        if step != INJECT_STEP {
            return;
        }
        match self.inject {
            Inject::None => {}
            // The next residual evaluation goes NaN: the anomaly
            // detector sees it at the following step's norm.
            Inject::Divergence => self.poisoned = true,
            Inject::Panic => {
                self.pool.run(|tid| {
                    if tid == 1 {
                        panic!("injected worker panic (flight_demo)");
                    }
                });
            }
        }
    }
    fn solver_pool(&self) -> Option<Arc<ThreadPool>> {
        Some(Arc::clone(&self.pool))
    }
}

fn config() -> PtcConfig {
    PtcConfig {
        // Small dt0: convergence takes plenty of steps, so step-3 faults
        // always land mid-flight.
        dt0: 0.5,
        rtol: 1e-10,
        max_steps: 200,
        ..Default::default()
    }
}

/// Checks that the dump the fault should have produced exists and
/// passes the strict validator; returns its path.
fn expect_dump(trigger: flight::Trigger) -> PathBuf {
    let path =
        flight::dump_dir().join(format!("{}.{}.json", flight::dump_prefix(), trigger.slug()));
    if !path.exists() {
        fail(&format!("expected dump {} was not written", path.display()));
    }
    match flight::check_dump_file(&path) {
        Ok(n) => println!(
            "flight_demo: {} OK ({n} events, trigger {})",
            path.display(),
            trigger.slug()
        ),
        Err(e) => fail(&format!("dump {} is malformed: {e}", path.display())),
    }
    path
}

fn main() {
    let mut inject = Inject::None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--inject" => {
                i += 1;
                inject = match args[i].as_str() {
                    "none" => Inject::None,
                    "divergence" => Inject::Divergence,
                    "panic" => Inject::Panic,
                    other => fail(&format!("unknown --inject '{other}'")),
                };
            }
            "--dir" => {
                i += 1;
                flight::set_dump_dir(&args[i]);
            }
            "--prefix" => {
                i += 1;
                flight::set_dump_prefix(&args[i]);
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --inject <none|divergence|panic> --dir <path> --prefix <stem>"
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let mut problem = DemoProblem::new(inject);
    let n = problem.dim();
    let mut u = vec![0.0; n];

    match inject {
        Inject::Panic => {
            let result = catch_unwind(AssertUnwindSafe(|| {
                ptc::solve(&mut problem, &mut u, &config())
            }));
            if result.is_ok() {
                fail("injected worker panic did not propagate");
            }
            println!("flight_demo: worker panic propagated as expected");
            expect_dump(flight::Trigger::RegionPanic);
        }
        Inject::Divergence => {
            let stats = ptc::solve(&mut problem, &mut u, &config());
            match stats.anomaly {
                Some(Anomaly::Divergence { step, .. }) => {
                    println!("flight_demo: divergence detected at step {step}");
                }
                other => fail(&format!(
                    "expected a divergence anomaly, got {other:?} (converged: {})",
                    stats.converged
                )),
            }
            expect_dump(flight::Trigger::Divergence);
        }
        Inject::None => {
            let stats = ptc::solve(&mut problem, &mut u, &config());
            if !stats.converged {
                fail(&format!(
                    "clean run failed to converge (history: {:?})",
                    stats.res_history
                ));
            }
            // Negative canary: an anomaly-free run must leave no dump.
            let dir = flight::dump_dir();
            for trigger in [
                flight::Trigger::RegionPanic,
                flight::Trigger::Divergence,
                flight::Trigger::Stagnation,
                flight::Trigger::WallBudget,
                flight::Trigger::Request,
            ] {
                let path = dir.join(format!("{}.{}.json", flight::dump_prefix(), trigger.slug()));
                if path.exists() {
                    fail(&format!(
                        "clean run left a dump behind: {}",
                        path.display()
                    ));
                }
            }
            println!(
                "flight_demo: clean solve converged in {} steps, no dump written",
                stats.time_steps
            );
        }
    }
}
