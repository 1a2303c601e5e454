//! End-to-end flight-recorder coverage of the ΨTC anomaly triggers:
//! each synthetic failure mode must abort the solve, name its trigger
//! in `PtcStats::anomaly`, and leave (exactly) the matching validated
//! dump artifact — while a clean convergent solve leaves none.
//!
//! The dump directory is a process global, so every test takes
//! `DUMP_LOCK` and points the recorder at its own directory before
//! solving.

use fun3d_solver::precond::{IdentityPrecond, Preconditioner, SerialIlu};
use fun3d_solver::ptc::{self, PtcConfig, PtcProblem};
use fun3d_solver::{Anomaly, AnomalyConfig};
use fun3d_sparse::Bcsr4;
use fun3d_util::telemetry::{self, Json};
use std::path::PathBuf;
use std::sync::Mutex;

static DUMP_LOCK: Mutex<()> = Mutex::new(());

/// Points dumps at a fresh per-test directory and returns it.
fn dump_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("flight-anomaly")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    telemetry::set_dump_dir(&dir);
    dir
}

/// Asserts the dump for `trigger` exists, validates strictly, and
/// carries a matching `anomaly` event in its timeline; returns the doc.
fn expect_dump(dir: &PathBuf, trigger: telemetry::Trigger) -> Json {
    let path = dir.join(format!("flight.{}.json", trigger.slug()));
    assert!(path.exists(), "expected dump {} missing", path.display());
    let events = telemetry::check_dump_file(&path).expect("dump must validate strictly");
    assert!(events > 0);
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.get("trigger").and_then(Json::as_str), Some(trigger.slug()));
    let timeline = doc.get("timeline").and_then(Json::as_arr).unwrap();
    assert!(
        timeline.iter().any(|e| {
            e.get("event").and_then(Json::as_str) == Some("anomaly")
                && e.get("trigger").and_then(Json::as_str) == Some(trigger.slug())
        }),
        "timeline lacks the anomaly event naming '{}'",
        trigger.slug()
    );
    doc
}

fn no_dumps(dir: &PathBuf) {
    let left: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "clean solve left artifacts: {left:?}");
}

/// `f(u) = A u − b` on the tiny mesh: converges under SER.
struct LinearProblem {
    a: Bcsr4,
    b: Vec<f64>,
    precond: Option<SerialIlu>,
    /// When set, `residual` writes NaN into component 0 from the Nth
    /// evaluation on (counts every call, including FD perturbations).
    poison_after: Option<usize>,
    calls: usize,
}

impl LinearProblem {
    fn new(seed: u64) -> LinearProblem {
        let m = fun3d_mesh::generator::MeshPreset::Tiny.build();
        let mut a = Bcsr4::from_edges(m.nvertices(), &m.edges());
        a.fill_diag_dominant(seed);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) * 0.1).collect();
        LinearProblem {
            a,
            b,
            precond: None,
            poison_after: None,
            calls: 0,
        }
    }
}

impl PtcProblem for LinearProblem {
    fn dim(&self) -> usize {
        self.a.dim()
    }
    fn residual(&mut self, u: &[f64], r: &mut [f64]) {
        self.calls += 1;
        self.a.spmv(u, r);
        for i in 0..r.len() {
            r[i] -= self.b[i];
        }
        if self.poison_after.is_some_and(|n| self.calls > n) {
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
}

/// `f(u) = c` (constant, nonzero): the residual never moves, the
/// canonical stagnating solve.
struct StuckProblem {
    c: Vec<f64>,
    ident: IdentityPrecond,
}

impl StuckProblem {
    fn new(n: usize) -> StuckProblem {
        StuckProblem {
            c: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
            ident: IdentityPrecond(n),
        }
    }
}

impl PtcProblem for StuckProblem {
    fn dim(&self) -> usize {
        self.c.len()
    }
    fn residual(&mut self, _u: &[f64], r: &mut [f64]) {
        r.copy_from_slice(&self.c);
    }
    fn time_diag(&self, dt: f64, out: &mut [f64]) {
        out.iter_mut().for_each(|o| *o = 1.0 / dt);
    }
    fn build_preconditioner(&mut self, _u: &[f64], _s: &[f64]) {}
    fn preconditioner(&self) -> &dyn Preconditioner {
        &self.ident
    }
}

#[test]
fn clean_convergence_writes_no_dump() {
    let _g = DUMP_LOCK.lock().unwrap();
    let dir = dump_dir("clean");
    let mut p = LinearProblem::new(91);
    let mut u = vec![0.0; p.dim()];
    let stats = ptc::solve(&mut p, &mut u, &PtcConfig::default());
    assert!(stats.converged);
    assert!(stats.anomaly.is_none());
    no_dumps(&dir);
}

#[test]
fn nan_residual_dumps_a_divergence_artifact() {
    let _g = DUMP_LOCK.lock().unwrap();
    let dir = dump_dir("divergence");
    let mut p = LinearProblem::new(92);
    // Let a step or two complete first (each step costs a handful of
    // residual calls through the FD Jacobian), so the dump holds real
    // history before the failure.
    p.poison_after = Some(12);
    let mut u = vec![0.0; p.dim()];
    let stats = ptc::solve(
        &mut p,
        &mut u,
        &PtcConfig {
            dt0: 0.5,
            rtol: 1e-12,
            ..Default::default()
        },
    );
    assert!(!stats.converged);
    let step = match stats.anomaly {
        Some(Anomaly::Divergence { step, .. }) => step,
        ref other => panic!("expected divergence, got {other:?}"),
    };
    assert!(step >= 1);
    let doc = expect_dump(&dir, telemetry::Trigger::Divergence);
    // The poisoned residual must survive the strict artifact verbatim
    // (non-finite floats degrade to strings, never to null).
    let timeline = doc.get("timeline").and_then(Json::as_arr).unwrap();
    assert!(timeline.iter().any(|e| {
        e.get("event").and_then(Json::as_str) == Some("ptc_step")
            && e.get("res").and_then(Json::as_str) == Some("NaN")
    }));
}

#[test]
fn flat_residual_dumps_a_stagnation_artifact() {
    let _g = DUMP_LOCK.lock().unwrap();
    let dir = dump_dir("stagnation");
    let mut p = StuckProblem::new(32);
    let mut u = vec![0.0; 32];
    let stats = ptc::solve(
        &mut p,
        &mut u,
        &PtcConfig {
            max_steps: 50,
            anomaly: AnomalyConfig {
                stall_window: 4,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    assert!(!stats.converged);
    assert!(matches!(stats.anomaly, Some(Anomaly::Stagnation { .. })));
    // Must fire right after the window fills, not at max_steps.
    assert!(stats.time_steps <= 10, "fired too late: {}", stats.time_steps);
    expect_dump(&dir, telemetry::Trigger::Stagnation);
}

#[test]
fn exhausted_wall_budget_dumps_an_artifact() {
    let _g = DUMP_LOCK.lock().unwrap();
    let dir = dump_dir("wall-budget");
    let mut p = LinearProblem::new(93);
    let mut u = vec![0.0; p.dim()];
    let stats = ptc::solve(
        &mut p,
        &mut u,
        &PtcConfig {
            // Slow convergence + a zero budget: the very first step
            // overruns.
            dt0: 1e-3,
            rtol: 1e-14,
            anomaly: AnomalyConfig {
                wall_budget_s: Some(0.0),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    assert!(!stats.converged);
    let elapsed = match stats.anomaly {
        Some(Anomaly::WallBudget { elapsed_s, .. }) => elapsed_s,
        ref other => panic!("expected wall-budget overrun, got {other:?}"),
    };
    assert!(elapsed > 0.0);
    expect_dump(&dir, telemetry::Trigger::WallBudget);
}

#[test]
fn explicit_request_dumps_at_solve_end() {
    let _g = DUMP_LOCK.lock().unwrap();
    let dir = dump_dir("request");
    std::env::set_var("FUN3D_FLIGHT_DUMP", "1");
    let mut p = LinearProblem::new(94);
    let mut u = vec![0.0; p.dim()];
    let stats = ptc::solve(&mut p, &mut u, &PtcConfig::default());
    std::env::remove_var("FUN3D_FLIGHT_DUMP");
    assert!(stats.converged, "request dumps must not disturb the solve");
    assert!(stats.anomaly.is_none());
    let path = dir.join("flight.request.json");
    assert!(path.exists());
    telemetry::check_dump_file(&path).expect("request dump must validate");
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.get("trigger").and_then(Json::as_str), Some("request"));
    // A completed solve's dump carries its bracketing events, tagged
    // with this solve's id.
    let timeline = doc.get("timeline").and_then(Json::as_arr).unwrap();
    for name in ["solve_start", "solve_end"] {
        assert!(
            timeline.iter().any(|e| {
                e.get("event").and_then(Json::as_str) == Some(name)
                    && e.get("solve").and_then(Json::as_f64)
                        == Some(stats.solve_id as f64)
            }),
            "timeline lacks {name} for solve {}",
            stats.solve_id
        );
    }
}
