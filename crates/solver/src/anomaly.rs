//! Residual anomaly detection for the ΨTC driver.
//!
//! A production solve fails in a handful of recognizable ways, and the
//! flight recorder ([`fun3d_util::telemetry::emit`]) wants to dump the
//! event log *at the moment of failure*, not after the process is gone:
//!
//! * **divergence** — the residual goes NaN/Inf, or blows up by
//!   [`AnomalyConfig::growth`] over the best residual seen so far;
//! * **stagnation** — over the trailing [`AnomalyConfig::stall_window`]
//!   steps the residual improved by less than
//!   `1 − stall_ratio` (the SER time step stops growing and the solve
//!   will burn its step budget without converging);
//! * **wall-budget overrun** — the solve exceeded
//!   [`AnomalyConfig::wall_budget_s`] seconds
//!   (or the `FUN3D_WALL_BUDGET` environment override).
//!
//! The detector is pure state-machine (no IO, no telemetry): `ptc::solve`
//! feeds it one observation per pseudo-time step and maps a firing onto a
//! flight-dump trigger. Convergence is checked *before* the detector, so
//! a solve that meets its tolerance can never be flagged.

use fun3d_util::telemetry::Trigger;

/// Detection thresholds. The defaults are deliberately loose — the
/// detector's job is flagging runs that are *clearly* wrong, not tuning
/// marginal ones.
#[derive(Clone, Copy, Debug)]
pub struct AnomalyConfig {
    /// Divergence: fire when `res > growth · min(res seen so far)`.
    pub growth: f64,
    /// Stagnation window, steps; 0 disables stagnation detection.
    pub stall_window: usize,
    /// Stagnation: fire when `res > stall_ratio · res[window ago]`
    /// (i.e. less than `1 − stall_ratio` total improvement over the
    /// window).
    pub stall_ratio: f64,
    /// Wall-clock budget in seconds, if any. `FUN3D_WALL_BUDGET` (read
    /// by `ptc::solve`) overrides.
    pub wall_budget_s: Option<f64>,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            growth: 1e3,
            stall_window: 25,
            stall_ratio: 0.99,
            wall_budget_s: None,
        }
    }
}

/// What the detector found, with the evidence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Anomaly {
    /// NaN/Inf or `growth`-fold blow-up at `step`.
    Divergence {
        /// Step the residual went bad.
        step: usize,
        /// The offending residual norm.
        res: f64,
    },
    /// Residual stalled: `res` vs `ref_res` from `window` steps ago.
    Stagnation {
        /// Step the stall was established.
        step: usize,
        /// Current residual norm.
        res: f64,
        /// Residual `stall_window` steps earlier.
        ref_res: f64,
    },
    /// Wall budget exceeded at `step`.
    WallBudget {
        /// Step the budget ran out.
        step: usize,
        /// Elapsed seconds at that point.
        elapsed_s: f64,
    },
}

impl Anomaly {
    /// The flight-dump trigger this anomaly maps to.
    pub(crate) fn trigger(&self) -> Trigger {
        match self {
            Anomaly::Divergence { .. } => Trigger::Divergence,
            Anomaly::Stagnation { .. } => Trigger::Stagnation,
            Anomaly::WallBudget { .. } => Trigger::WallBudget,
        }
    }

    /// The step at which the anomaly fired.
    pub(crate) fn step(&self) -> usize {
        match *self {
            Anomaly::Divergence { step, .. }
            | Anomaly::Stagnation { step, .. }
            | Anomaly::WallBudget { step, .. } => step,
        }
    }

    /// The offending value (residual, or elapsed seconds for a budget
    /// overrun) — what the flight event records.
    pub(crate) fn value(&self) -> f64 {
        match *self {
            Anomaly::Divergence { res, .. } => res,
            Anomaly::Stagnation { res, .. } => res,
            Anomaly::WallBudget { elapsed_s, .. } => elapsed_s,
        }
    }
}

/// Streaming detector: feed one `(step, res, elapsed)` observation per
/// pseudo-time step via [`AnomalyDetector::observe`].
#[derive(Clone, Debug)]
pub(crate) struct AnomalyDetector {
    config: AnomalyConfig,
    /// Best (smallest) residual seen, the divergence baseline.
    best: f64,
    /// Trailing residual history, newest last, at most `stall_window + 1`.
    window: Vec<f64>,
}

impl AnomalyDetector {
    /// A fresh detector with the given thresholds.
    pub(crate) fn new(config: AnomalyConfig) -> AnomalyDetector {
        AnomalyDetector {
            config,
            best: f64::INFINITY,
            window: Vec::new(),
        }
    }

    /// Observes the residual after pseudo-time step `step` (1-based) at
    /// `elapsed_s` seconds into the solve. Returns the first anomaly the
    /// history establishes, if any. Call only for non-converged steps.
    pub(crate) fn observe(&mut self, step: usize, res: f64, elapsed_s: f64) -> Option<Anomaly> {
        // Divergence dominates: a NaN residual poisons every later test.
        if !res.is_finite() {
            return Some(Anomaly::Divergence { step, res });
        }
        if res > self.config.growth * self.best {
            return Some(Anomaly::Divergence { step, res });
        }
        self.best = self.best.min(res);

        if let Some(budget) = self.config.wall_budget_s {
            if elapsed_s > budget {
                return Some(Anomaly::WallBudget { step, elapsed_s });
            }
        }

        let w = self.config.stall_window;
        if w > 0 {
            self.window.push(res);
            if self.window.len() > w {
                let ref_res = self.window.remove(0);
                if res > self.config.stall_ratio * ref_res {
                    return Some(Anomaly::Stagnation { step, res, ref_res });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(config: AnomalyConfig) -> AnomalyDetector {
        AnomalyDetector::new(config)
    }

    #[test]
    fn clean_geometric_convergence_is_never_flagged() {
        let mut d = detector(AnomalyConfig::default());
        let mut res = 1.0;
        for step in 1..=200 {
            assert_eq!(d.observe(step, res, step as f64 * 0.01), None, "step {step}");
            res *= 0.7;
        }
    }

    #[test]
    fn nan_and_inf_fire_divergence_immediately() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut d = detector(AnomalyConfig::default());
            assert_eq!(d.observe(1, 1.0, 0.0), None);
            match d.observe(2, bad, 0.0) {
                Some(a @ Anomaly::Divergence { step: 2, .. }) => {
                    assert_eq!(a.trigger(), Trigger::Divergence);
                    assert_eq!(a.trigger().slug(), "divergence");
                }
                other => panic!("want divergence for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn growth_blowup_fires_divergence() {
        let mut d = detector(AnomalyConfig {
            growth: 100.0,
            ..Default::default()
        });
        assert_eq!(d.observe(1, 1.0, 0.0), None);
        assert_eq!(d.observe(2, 0.1, 0.0), None); // best = 0.1
        assert_eq!(d.observe(3, 5.0, 0.0), None); // 50x best: under threshold
        let a = d.observe(4, 20.0, 0.0).expect("200x best must fire");
        assert_eq!(a, Anomaly::Divergence { step: 4, res: 20.0 });
    }

    #[test]
    fn flat_residual_fires_stagnation_after_window() {
        let w = 10;
        let mut d = detector(AnomalyConfig {
            stall_window: w,
            stall_ratio: 0.99,
            ..Default::default()
        });
        for step in 1..=w {
            assert_eq!(d.observe(step, 0.5, 0.0), None, "window still filling");
        }
        match d.observe(w + 1, 0.5, 0.0) {
            Some(Anomaly::Stagnation { step, res, ref_res }) => {
                assert_eq!(step, w + 1);
                assert_eq!(res, 0.5);
                assert_eq!(ref_res, 0.5);
            }
            other => panic!("want stagnation, got {other:?}"),
        }
    }

    #[test]
    fn slow_but_real_progress_is_not_stagnation() {
        // 3% improvement per step is far more than 1% over any window.
        let mut d = detector(AnomalyConfig {
            stall_window: 10,
            stall_ratio: 0.99,
            ..Default::default()
        });
        let mut res = 1.0;
        for step in 1..=100 {
            assert_eq!(d.observe(step, res, 0.0), None, "step {step}");
            res *= 0.97;
        }
    }

    #[test]
    fn zero_window_disables_stagnation() {
        let mut d = detector(AnomalyConfig {
            stall_window: 0,
            ..Default::default()
        });
        for step in 1..=500 {
            assert_eq!(d.observe(step, 1.0, 0.0), None);
        }
    }

    #[test]
    fn budget_overrun_fires_wall_budget() {
        let mut d = detector(AnomalyConfig {
            wall_budget_s: Some(2.0),
            ..Default::default()
        });
        assert_eq!(d.observe(1, 1.0, 1.5), None);
        match d.observe(2, 0.9, 2.5) {
            Some(a @ Anomaly::WallBudget { step: 2, .. }) => {
                assert_eq!(a.trigger(), Trigger::WallBudget);
                assert_eq!(a.value(), 2.5);
            }
            other => panic!("want wall budget, got {other:?}"),
        }
    }

    #[test]
    fn no_budget_never_fires_wall_budget() {
        let mut d = detector(AnomalyConfig::default());
        assert_eq!(d.observe(1, 1.0, 1e9), None);
    }
}
