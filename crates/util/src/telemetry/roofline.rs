//! Measured-vs-model roofline validation.
//!
//! The paper's Table 2 / Fig. 5 argument is a consistency check: each
//! kernel's analytic traffic model (bytes, flops — [`KernelCounts`])
//! divided by its measured wall time must land near the machine
//! envelope (STREAM bandwidth for memory-bound kernels, peak flops for
//! compute-bound ones). A kernel far *below* the roofline is losing to
//! something the model doesn't capture (latency, imbalance, false
//! sharing); a kernel far *above* it means the compulsory-traffic model
//! overcounts (cache residency). This module automates that reading:
//! [`validate_roofline`] reads each kernel's measured time and analytic
//! counts off its one [`KernelCounts`] record and flags deviations beyond
//! a tolerance band.
//!
//! The tolerance is deliberately a band, not a bound — on the tiny
//! verification meshes everything is cache-resident, so `Fast` flags
//! are expected and informational; `Slow` flags are the actionable
//! ones.

use super::counters::KernelCounts;

/// The machine envelope the model is checked against (a flattened view
/// of `fun3d_machine::MachineSpec` — this crate sits below `machine` in
/// the dependency order, so callers pass the two numbers in).
#[derive(Clone, Copy, Debug)]
pub struct Envelope {
    /// Sustainable memory bandwidth, GB/s (STREAM).
    pub stream_gbs: f64,
    /// Peak double-precision Gflop/s.
    pub peak_gflops: f64,
}

impl Envelope {
    /// Ridge point of the roofline: the arithmetic intensity (flop/byte)
    /// above which a kernel is compute-bound on this machine.
    pub fn ridge_flops_per_byte(&self) -> f64 {
        if self.stream_gbs <= 0.0 {
            return f64::INFINITY;
        }
        self.peak_gflops / self.stream_gbs
    }
}

/// Which side of the ridge the kernel's intensity puts it on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// Intensity below the ridge: the bandwidth roof applies.
    Memory,
    /// Intensity at/above the ridge: the flop roof applies.
    Compute,
}

impl Bound {
    /// Short display form (`mem` / `flop`).
    pub fn label(&self) -> &'static str {
        match self {
            Bound::Memory => "mem",
            Bound::Compute => "flop",
        }
    }
}

/// A flagged deviation from the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deviation {
    /// Measured more than `tolerance`× slower than the model floor —
    /// the kernel is losing to something the traffic model doesn't see.
    Slow,
    /// Measured more than `tolerance`× faster than the model floor —
    /// the compulsory-traffic model overcounts (cache residency).
    Fast,
}

/// One kernel's measured-vs-model comparison.
#[derive(Clone, Debug)]
pub struct RooflineRow {
    /// Kernel name.
    pub name: String,
    /// Measured seconds of the kernel.
    pub seconds: f64,
    /// Measured time and analytic counts of the kernel.
    pub counts: KernelCounts,
    /// Which roof applies at this kernel's intensity.
    pub bound: Bound,
    /// Model floor: the fastest the kernel could run if it hit the
    /// applicable roof exactly, `max(bytes/STREAM, flops/peak)`.
    pub model_seconds: f64,
    /// `seconds / model_seconds` (1.0 = exactly on the roofline,
    /// >1 slower than the model, <1 faster).
    pub ratio: f64,
    /// Achieved bandwidth, GB/s.
    pub achieved_gbs: f64,
    /// Achieved flop rate, Gflop/s.
    pub achieved_gflops: f64,
    /// Deviation beyond the tolerance band, if any.
    pub deviation: Option<Deviation>,
}

/// Tolerance factor: a kernel may run up to 4× off its model floor in
/// either direction before it is flagged. Wide on purpose — the meshes
/// the gate runs on fit in cache.
pub const ROOFLINE_TOLERANCE: f64 = 4.0;

/// Compares each kernel's measured time with its analytic model on the
/// machine envelope. Kernels with no modeled traffic/flops (pure
/// bookkeeping counters) or no measured time are skipped — there is
/// nothing to compare.
pub fn validate_roofline(
    kernels: &[(&str, KernelCounts)],
    env: &Envelope,
    tolerance: f64,
) -> Vec<RooflineRow> {
    assert!(tolerance >= 1.0, "tolerance is a factor >= 1");
    let mut rows = Vec::new();
    for &(name, counts) in kernels {
        let seconds = counts.seconds();
        let bytes = counts.bytes() as f64;
        let flops = counts.flops as f64;
        if (bytes <= 0.0 && flops <= 0.0) || seconds <= 0.0 {
            continue;
        }
        let mem_floor = if env.stream_gbs > 0.0 {
            bytes / (env.stream_gbs * 1e9)
        } else {
            0.0
        };
        let flop_floor = if env.peak_gflops > 0.0 {
            flops / (env.peak_gflops * 1e9)
        } else {
            0.0
        };
        let (bound, model_seconds) = if mem_floor >= flop_floor {
            (Bound::Memory, mem_floor)
        } else {
            (Bound::Compute, flop_floor)
        };
        if model_seconds <= 0.0 {
            continue;
        }
        let ratio = seconds / model_seconds;
        let deviation = if ratio > tolerance {
            Some(Deviation::Slow)
        } else if ratio < 1.0 / tolerance {
            Some(Deviation::Fast)
        } else {
            None
        };
        rows.push(RooflineRow {
            name: name.to_string(),
            seconds,
            counts,
            bound,
            model_seconds,
            ratio,
            achieved_gbs: counts.achieved_gbs(),
            achieved_gflops: counts.achieved_gflops(),
            deviation,
        });
    }
    // Most model-relevant (largest modeled time) first.
    rows.sort_by(|a, b| b.model_seconds.total_cmp(&a.model_seconds));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Envelope {
        // Round numbers: 40 GB/s STREAM, 200 Gflop/s peak → ridge at
        // 5 flop/byte.
        Envelope {
            stream_gbs: 40.0,
            peak_gflops: 200.0,
        }
    }

    /// `counts` measured at `seconds`.
    fn timed(seconds: f64, counts: KernelCounts) -> KernelCounts {
        KernelCounts {
            ns: (seconds * 1e9).round() as u64,
            ..counts
        }
    }

    #[test]
    fn ridge_point() {
        assert!((env().ridge_flops_per_byte() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_kernel_on_the_roof_is_unflagged() {
        // 4 GB moved, 1 Gflop → intensity 0.25, memory bound; model
        // floor 0.1 s at 40 GB/s. Measured exactly on the floor.
        let c = KernelCounts::once(1, 3_000_000_000, 1_000_000_000, 1_000_000_000);
        let rows = validate_roofline(&[("flux", timed(0.1, c))], &env(), ROOFLINE_TOLERANCE);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.bound, Bound::Memory);
        assert!((r.model_seconds - 0.1).abs() < 1e-12);
        assert!((r.ratio - 1.0).abs() < 1e-12);
        assert!((r.achieved_gbs - 40.0).abs() < 1e-9);
        assert_eq!(r.deviation, None);
    }

    #[test]
    fn compute_bound_classification() {
        // 1 MB moved, 100 Gflop → intensity ≫ ridge → compute bound,
        // floor 0.5 s at 200 Gflop/s.
        let c = KernelCounts::once(1, 1_000_000, 0, 100_000_000_000);
        let rows = validate_roofline(&[("dense", timed(0.5, c))], &env(), 4.0);
        assert_eq!(rows[0].bound, Bound::Compute);
        assert!((rows[0].model_seconds - 0.5).abs() < 1e-12);
        assert_eq!(rows[0].deviation, None);
    }

    #[test]
    fn slow_and_fast_deviations_flagged() {
        let c = KernelCounts::once(1, 4_000_000_000, 0, 0); // floor 0.1 s
        let rows = validate_roofline(
            &[
                ("slow", timed(0.5, c)),
                ("fast", timed(0.01, c)),
                ("ok", timed(0.2, c)),
            ],
            &env(),
            4.0,
        );
        let find = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(find("slow").deviation, Some(Deviation::Slow));
        assert_eq!(find("fast").deviation, Some(Deviation::Fast));
        assert_eq!(find("ok").deviation, None);
    }

    #[test]
    fn bookkeeping_counters_and_zero_time_are_skipped() {
        let none = KernelCounts::once(5, 0, 0, 0); // e.g. pool.launch
        let real = KernelCounts::once(1, 1_000_000, 0, 1_000);
        let rows = validate_roofline(
            &[("pool.launch", timed(1.0, none)), ("unmeasured", real)],
            &env(),
            4.0,
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn rows_sorted_by_model_weight() {
        let big = KernelCounts::once(1, 8_000_000_000, 0, 0);
        let small = KernelCounts::once(1, 4_000_000, 0, 0);
        let rows = validate_roofline(
            &[("small", timed(0.1, small)), ("big", timed(0.3, big))],
            &env(),
            100.0,
        );
        assert_eq!(rows[0].name, "big");
    }

    #[test]
    fn bound_labels() {
        assert_eq!(Bound::Memory.label(), "mem");
        assert_eq!(Bound::Compute.label(), "flop");
    }
}
