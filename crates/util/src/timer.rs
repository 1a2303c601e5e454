//! Wall-clock timing and named accumulating phase timers.
//!
//! The paper's profiles (Fig. 5, Fig. 8b) break the application into named
//! kernels — flux, gradient, Jacobian assembly, ILU, TRSV, vector
//! primitives, scatter — and report per-kernel times and fractions.
//! [`PhaseTimers`] is the instrument used for that: each kernel start/stop
//! accumulates into a named bucket, and a report lists times, call counts
//! and percentage of the total.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A simple one-shot stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts the timer now.
    pub fn start() -> Self {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed time since [`Timer::start`].
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

impl Default for Timer {
    fn default() -> Self {
        Timer::start()
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    total: Duration,
    calls: u64,
}

/// Named accumulating timers, one bucket per application kernel.
///
/// Buckets are created on first use. The ordering of
/// [`PhaseTimers::entries`] is by descending total time so reports read
/// like a profile.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    buckets: HashMap<&'static str, Bucket>,
}

impl PhaseTimers {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dur` to the named bucket and bumps its call count.
    pub fn add(&mut self, name: &'static str, dur: Duration) {
        let b = self.buckets.entry(name).or_default();
        b.total += dur;
        b.calls += 1;
    }

    /// Total seconds accumulated in `name` (0 if absent).
    pub fn seconds(&self, name: &str) -> f64 {
        self.buckets
            .get(name)
            .map(|b| b.total.as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Call count for `name` (0 if absent).
    pub fn calls(&self, name: &str) -> u64 {
        self.buckets.get(name).map(|b| b.calls).unwrap_or(0)
    }

    /// Sum of the kernel buckets only, excluding envelope buckets that
    /// wrap the whole run (`"total"`).
    pub(crate) fn kernel_seconds(&self) -> f64 {
        self.buckets
            .iter()
            .filter(|(&k, _)| !Self::is_envelope(k))
            .map(|(_, b)| b.total.as_secs_f64())
            .sum()
    }

    /// The wall-clock denominator for percentages: the `"total"` envelope
    /// bucket when one was recorded, otherwise the sum of the kernel
    /// buckets. Using the all-bucket sum would double-count the envelope
    /// and roughly halve every kernel's reported fraction.
    pub fn run_seconds(&self) -> f64 {
        let t = self.seconds("total");
        if t > 0.0 {
            t
        } else {
            self.kernel_seconds()
        }
    }

    /// True for buckets that envelope the whole run rather than time one
    /// kernel.
    pub(crate) fn is_envelope(name: &str) -> bool {
        name == "total"
    }

    /// `(name, seconds, calls)` sorted by descending time.
    pub(crate) fn entries(&self) -> Vec<(&'static str, f64, u64)> {
        let mut v: Vec<_> = self
            .buckets
            .iter()
            .map(|(&k, b)| (k, b.total.as_secs_f64(), b.calls))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Renders a profile table: name, seconds, % of run, calls. The
    /// percentage denominator is [`PhaseTimers::run_seconds`] so an
    /// envelope `"total"` bucket reads 100% instead of halving every
    /// kernel's fraction.
    pub fn report(&self) -> String {
        self.report_against(self.run_seconds())
    }

    /// Renders the profile table with an explicit percentage denominator
    /// (seconds), for callers whose wall clock lives outside the profile.
    pub(crate) fn report_against(&self, denominator_seconds: f64) -> String {
        let total = denominator_seconds.max(1e-300);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>12} {:>7} {:>10}\n",
            "phase", "seconds", "%", "calls"
        ));
        for (name, secs, calls) in self.entries() {
            out.push_str(&format!(
                "{:<24} {:>12.6} {:>6.1}% {:>10}\n",
                name,
                secs,
                100.0 * secs / total,
                calls
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_time_and_calls() {
        let mut p = PhaseTimers::new();
        p.add("flux", Duration::from_millis(30));
        p.add("flux", Duration::from_millis(20));
        p.add("trsv", Duration::from_millis(50));
        assert_eq!(p.calls("flux"), 2);
        assert_eq!(p.calls("trsv"), 1);
        assert!((p.seconds("flux") - 0.05).abs() < 1e-9);
        assert!((p.kernel_seconds() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn entries_sorted_by_time_desc() {
        let mut p = PhaseTimers::new();
        p.add("a", Duration::from_millis(1));
        p.add("b", Duration::from_millis(3));
        p.add("c", Duration::from_millis(2));
        let names: Vec<_> = p.entries().iter().map(|e| e.0).collect();
        assert_eq!(names, vec!["b", "c", "a"]);
    }

    #[test]
    fn report_contains_all_phases() {
        let mut p = PhaseTimers::new();
        p.add("flux", Duration::from_millis(10));
        p.add("ilu", Duration::from_millis(10));
        let r = p.report();
        assert!(r.contains("flux") && r.contains("ilu"));
    }

    #[test]
    fn envelope_total_bucket_does_not_halve_percentages() {
        let mut p = PhaseTimers::new();
        p.add("flux", Duration::from_millis(60));
        p.add("ilu", Duration::from_millis(40));
        p.add("total", Duration::from_millis(100));
        assert!((p.run_seconds() - 0.100).abs() < 1e-9);
        assert!((p.kernel_seconds() - 0.100).abs() < 1e-9);
        let r = p.report();
        // flux is 60% of the run, not 30% of the double-counted sum
        let flux_line = r.lines().find(|l| l.starts_with("flux")).unwrap();
        assert!(flux_line.contains("60.0%"), "bad line: {flux_line}");
        let total_line = r.lines().find(|l| l.starts_with("total")).unwrap();
        assert!(total_line.contains("100.0%"), "bad line: {total_line}");
    }

    #[test]
    fn run_seconds_without_envelope_is_kernel_sum() {
        let mut p = PhaseTimers::new();
        p.add("flux", Duration::from_millis(30));
        p.add("trsv", Duration::from_millis(70));
        assert!((p.run_seconds() - 0.100).abs() < 1e-9);
        let r = p.report_against(0.200);
        let trsv_line = r.lines().find(|l| l.starts_with("trsv")).unwrap();
        assert!(trsv_line.contains("35.0%"), "bad line: {trsv_line}");
    }
}
