//! The correctness check every operation's result goes through, outside
//! the timed interval.

use crate::workload::{Outcome, RTOL};
use fun3d_core::{FlowConditions, Fun3dApp, OptConfig};
use fun3d_mesh::Mesh;
use fun3d_solver::ptc::PtcProblem;

fn norm2(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Re-evaluates a returned state's steady residual with an independent
/// `OptConfig::baseline()` application on the same mesh, which runs the
/// reference scalar kernels and none of the optimized ones.
pub struct Checker {
    reference: Fun3dApp,
    res0: f64,
    scratch: Vec<f64>,
}

impl Checker {
    /// `mesh` is the reordered mesh the checked solves ran on.
    pub fn new(mesh: Mesh, cond: FlowConditions) -> Checker {
        let mut reference = Fun3dApp::new(mesh, cond, OptConfig::baseline());
        let u0 = reference.initial_state();
        let mut scratch = vec![0.0; u0.len()];
        reference.residual(&u0, &mut scratch);
        let res0 = norm2(&scratch);
        assert!(
            res0 > 0.0 && res0.is_finite(),
            "free stream is not already a solution"
        );
        Checker {
            reference,
            res0,
            scratch,
        }
    }

    /// `Ok` when ‖f(u)‖ ≤ 10·rtol·‖f(u₀)‖; the factor ten allows for the
    /// reference kernels summing in another order than the optimized ones.
    pub fn check(&mut self, u: &[f64], rtol: f64) -> Result<(), String> {
        if u.len() != self.scratch.len() {
            return Err(format!(
                "state has {} unknowns, mesh has {}",
                u.len(),
                self.scratch.len()
            ));
        }
        self.reference.residual(u, &mut self.scratch);
        let res = norm2(&self.scratch);
        if res <= 10.0 * rtol * self.res0 {
            Ok(())
        } else {
            Err(format!(
                "reference residual {res:e} exceeds 10 x {rtol:e} x {:e}",
                self.res0
            ))
        }
    }
}

/// One finished solve, kept until the timed interval is over.
#[derive(Clone)]
pub struct Solved {
    /// The global state vector (cluster states gathered by owner).
    pub u: Vec<f64>,
    pub converged: bool,
    pub linear_iters: usize,
    pub time_steps: usize,
    pub solve_s: f64,
}

/// Checks repetitions of one configuration and returns how many failed:
/// not converged, rejected by the reference residual, or with other
/// iteration counts than the first repetition.
pub fn count_failed(checker: &mut Checker, reps: &[Solved], out: &mut Outcome) -> u64 {
    let first = reps.first().map(|r| (r.linear_iters, r.time_steps));
    let mut failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        let counts = (rep.linear_iters, rep.time_steps);
        let verdict = if !rep.converged {
            Err("did not converge".to_string())
        } else if Some(counts) != first {
            Err(format!(
                "iteration counts {counts:?} differ from the first repetition's {first:?}"
            ))
        } else {
            checker.check(&rep.u, RTOL)
        };
        if let Err(why) = verdict {
            failed += 1;
            out.note(format!("rep {i} FAILED: {why}"));
        }
    }
    failed
}

/// The quickest of the repetitions; see [`crate::workload::report_rounds`]
/// for why the quickest and not the median.
pub fn best_solve_s(reps: &[Solved]) -> f64 {
    reps.iter().map(|r| r.solve_s).fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ptc_config;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_solver::ptc;

    fn solved_tiny() -> (Checker, Solved) {
        let mut mesh = MeshPreset::Tiny.build();
        Fun3dApp::rcm_reorder(&mut mesh);
        let cond = FlowConditions::default();
        let mut app = Fun3dApp::new(mesh.clone(), cond, OptConfig::optimized(1));
        let mut u = app.initial_state();
        let stats = ptc::solve(&mut app, &mut u, &ptc_config());
        let solved = Solved {
            u,
            converged: stats.converged,
            linear_iters: stats.linear_iters,
            time_steps: stats.time_steps,
            solve_s: 1.0,
        };
        (Checker::new(mesh, cond), solved)
    }

    #[test]
    fn accepts_a_converged_state_and_rejects_a_perturbed_one() {
        let (mut checker, solved) = solved_tiny();
        assert!(solved.converged);
        assert_eq!(checker.check(&solved.u, RTOL), Ok(()));

        let mut perturbed = solved.u.clone();
        perturbed[solved.u.len() / 2] += 1e-4;
        let verdict = checker.check(&perturbed, RTOL);
        assert!(
            verdict.is_err_and(|why| why.contains("exceeds")),
            "a perturbed state passed"
        );
        let free_stream = checker.reference.initial_state();
        assert!(
            checker.check(&free_stream, RTOL).is_err(),
            "free stream passed"
        );
        assert!(
            checker.check(&solved.u[1..], RTOL).is_err(),
            "a state of the wrong length passed"
        );
        // The checker keeps no memory of what it rejected.
        assert_eq!(checker.check(&solved.u, RTOL), Ok(()));
    }

    #[test]
    fn counts_unconverged_deviating_and_perturbed_repetitions() {
        let (mut checker, good) = solved_tiny();
        let copy = |f: &dyn Fn(&mut Solved)| {
            let mut s = Solved {
                u: good.u.clone(),
                ..good
            };
            f(&mut s);
            s
        };
        let reps = [
            copy(&|_| ()),
            copy(&|s| s.converged = false),
            copy(&|s| s.linear_iters += 1),
            copy(&|s| s.u[0] += 1e-4),
            copy(&|_| ()),
        ];
        let mut out = Outcome::default();
        assert_eq!(count_failed(&mut checker, &reps, &mut out), 3);
        assert_eq!(out.notes.len(), 3);
        assert_eq!(count_failed(&mut checker, &reps[..1], &mut out), 0);
    }
}
