//! A minimal, std-only micro-benchmark runner.
//!
//! Replaces the external `criterion` crate for the workspace's
//! `harness = false` bench targets. The measurement model is the standard
//! one: a calibration run sizes the number of iterations per sample so
//! each sample lasts at least a minimum wall time, a warmup phase runs
//! the routine until caches/branch predictors settle, and then a fixed
//! number of samples is timed. Robust statistics — the **median**
//! per-iteration time and the **MAD** (median absolute deviation) — are
//! reported, since micro-benchmarks on a shared host see one-sided noise
//! that poisons means and standard deviations.
//!
//! Results print to stdout as they complete and are mirrored to
//! `target/experiments/microbench.csv` through [`crate::report::Table`]
//! when [`Bench::finish`] runs, so `EXPERIMENTS.md` can cite stable
//! artifacts.
//!
//! The public API intentionally mirrors the small slice of criterion the
//! benches used (`group` / `sample_size` / `bench_function` /
//! `iter` / `iter_batched_ref`), so porting a bench is mechanical.

use crate::report::{experiments_dir, fmt_g, Table};
use fun3d_util::{mad, median};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Hint for how setup cost relates to routine cost in
/// [`Bencher::iter_batched_ref`]. All variants currently measure the
/// routine per-call with setup excluded; the hint is kept for API
/// compatibility with ported benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Sampling parameters. Defaults are sized for a one-core container:
/// quick, but enough samples for a stable median.
#[derive(Clone, Copy, Debug)]
pub struct SampleConfig {
    /// Wall time spent running the routine before sampling starts.
    pub warmup: Duration,
    /// Minimum wall time of one sample; iterations per sample are
    /// calibrated so a sample lasts at least this long.
    pub min_sample_time: Duration,
    /// Number of samples per benchmark.
    pub sample_size: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            warmup: Duration::from_millis(20),
            min_sample_time: Duration::from_millis(5),
            sample_size: 20,
        }
    }
}

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct Record {
    /// `group/function` id.
    pub id: String,
    /// Median per-iteration seconds.
    pub median_s: f64,
    /// Median absolute deviation of the per-iteration sample, seconds.
    pub mad_s: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
}

fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.4} s")
    } else if s >= 1e-3 {
        format!("{:.4} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.4} µs", s * 1e6)
    } else {
        format!("{:.2} ns", s * 1e9)
    }
}

/// The top-level runner: owns the filter, default sampling config and
/// accumulated results.
pub struct Bench {
    filter: Option<String>,
    default_cfg: SampleConfig,
    records: Vec<Record>,
    csv_name: String,
}

impl Bench {
    /// Runner with default config and no filter.
    pub fn new() -> Bench {
        Bench {
            filter: None,
            default_cfg: SampleConfig::default(),
            records: Vec::new(),
            csv_name: "microbench".to_string(),
        }
    }

    /// Runner configured from the process arguments, as cargo invokes a
    /// `harness = false` bench: flags (e.g. the `--bench` cargo appends)
    /// are ignored and the first positional argument is a substring
    /// filter on `group/function` ids — `cargo bench -p fun3d-bench -- flux`.
    pub fn from_args() -> Bench {
        let mut b = Bench::new();
        b.filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && !a.is_empty());
        b
    }

    /// Overrides the default sampling config (tests use tiny budgets).
    pub fn with_config(cfg: SampleConfig) -> Bench {
        let mut b = Bench::new();
        b.default_cfg = cfg;
        b
    }

    /// Starts a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        let cfg = self.default_cfg;
        Group {
            bench: self,
            name: name.to_string(),
            cfg,
        }
    }

    /// Results recorded so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Prints a footer, writes the CSV artifact and returns the records.
    pub fn finish(self) -> Vec<Record> {
        if self.records.is_empty() {
            match &self.filter {
                Some(f) => println!("microbench: no benchmark matched filter {f:?}"),
                None => println!("microbench: nothing ran"),
            }
            return self.records;
        }
        let mut t = Table::new(
            "microbench",
            &["benchmark", "median_s", "mad_s", "samples", "iters_per_sample"],
        );
        for r in &self.records {
            t.row(&[
                r.id.clone(),
                fmt_g(r.median_s),
                fmt_g(r.mad_s),
                r.samples.to_string(),
                r.iters_per_sample.to_string(),
            ]);
        }
        match t.write_csv(&experiments_dir(), &self.csv_name) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\nmicrobench: could not write CSV: {e}"),
        }
        self.records
    }
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

/// A group of related benchmarks sharing a sampling config.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    cfg: SampleConfig,
}

impl Group<'_> {
    /// Sets the number of samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "need at least 2 samples");
        self.cfg.sample_size = n;
        self
    }

    /// Sets the minimum wall time of one sample.
    pub fn min_sample_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.min_sample_time = d;
        self
    }

    /// Sets the warmup time.
    pub fn warmup(&mut self, d: Duration) -> &mut Self {
        self.cfg.warmup = d;
        self
    }

    /// Measures one function. `f` receives a [`Bencher`] and must call
    /// one of its `iter*` methods exactly once.
    pub fn bench_function(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        if let Some(filt) = &self.bench.filter {
            if !full.contains(filt.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            cfg: self.cfg,
            samples: Vec::new(),
            iters_per_sample: 0,
        };
        f(&mut b);
        assert!(
            !b.samples.is_empty(),
            "benchmark '{full}' never called Bencher::iter*"
        );
        let med = median(&b.samples);
        let spread = mad(&b.samples);
        println!(
            "{full:<44} median {:>12}   mad {:>12} ({} samples x {} iters)",
            fmt_time(med),
            fmt_time(spread),
            b.samples.len(),
            b.iters_per_sample
        );
        self.bench.records.push(Record {
            id: full,
            median_s: med,
            mad_s: spread,
            samples: b.samples.len(),
            iters_per_sample: b.iters_per_sample,
        });
        self
    }

    /// Ends the group (API-compatibility no-op; results are recorded as
    /// each function finishes).
    pub fn finish(self) {}
}

/// Handed to the measured closure; collects per-iteration timings.
pub struct Bencher {
    cfg: SampleConfig,
    /// Per-iteration seconds, one entry per sample.
    samples: Vec<f64>,
    iters_per_sample: u64,
}

fn calibrate_iters(once: Duration, min_sample: Duration) -> u64 {
    if once.is_zero() {
        // Faster than the clock resolution: pick a large batch.
        return 1 << 16;
    }
    let n = (min_sample.as_secs_f64() / once.as_secs_f64()).ceil();
    (n as u64).clamp(1, 1 << 24)
}

impl Bencher {
    /// Times `f` back-to-back; each sample is `iters` calls timed as one
    /// block, so per-iteration clock overhead vanishes.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed();
        let iters = calibrate_iters(once, self.cfg.min_sample_time);
        let wu = Instant::now();
        while wu.elapsed() < self.cfg.warmup {
            black_box(f());
        }
        for _ in 0..self.cfg.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        self.iters_per_sample = iters;
    }

    /// Times `routine` with a fresh `setup()` value per call; setup time
    /// is excluded from the measurement. Use when the routine consumes or
    /// mutates its input (e.g. accumulating into a residual buffer).
    pub fn iter_batched_ref<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(&mut S) -> R,
        _size: BatchSize,
    ) {
        let mut s0 = setup();
        let t0 = Instant::now();
        black_box(routine(&mut s0));
        let once = t0.elapsed();
        let iters = calibrate_iters(once, self.cfg.min_sample_time);
        let wu = Instant::now();
        while wu.elapsed() < self.cfg.warmup {
            let mut s = setup();
            black_box(routine(&mut s));
        }
        for _ in 0..self.cfg.sample_size {
            let mut busy = Duration::ZERO;
            for _ in 0..iters {
                let mut s = setup();
                let t = Instant::now();
                black_box(routine(&mut s));
                busy += t.elapsed();
            }
            self.samples.push(busy.as_secs_f64() / iters as f64);
        }
        self.iters_per_sample = iters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SampleConfig {
        SampleConfig {
            warmup: Duration::ZERO,
            min_sample_time: Duration::from_micros(50),
            sample_size: 5,
        }
    }

    #[test]
    fn iter_records_positive_median() {
        let mut bench = Bench::with_config(tiny_cfg());
        let mut g = bench.group("t");
        g.bench_function("sum", |b| {
            b.iter(|| (0..1000u64).sum::<u64>())
        });
        g.finish();
        let recs = bench.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "t/sum");
        assert!(recs[0].median_s > 0.0);
        assert!(recs[0].mad_s >= 0.0);
        assert_eq!(recs[0].samples, 5);
        assert!(recs[0].iters_per_sample >= 1);
    }

    #[test]
    fn iter_batched_ref_excludes_setup() {
        let mut bench = Bench::with_config(tiny_cfg());
        let mut g = bench.group("t");
        g.bench_function("fill", |b| {
            b.iter_batched_ref(
                || vec![0.0f64; 256],
                |v| v.iter_mut().for_each(|x| *x += 1.0),
                BatchSize::LargeInput,
            )
        });
        g.finish();
        assert_eq!(bench.records().len(), 1);
        assert!(bench.records()[0].median_s > 0.0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut bench = Bench::with_config(tiny_cfg());
        bench.filter = Some("flux".to_string());
        let mut g = bench.group("spmv");
        g.bench_function("bcsr", |b| b.iter(|| 1 + 1));
        g.finish();
        assert!(bench.records().is_empty());
    }

    #[test]
    fn calibration_bounds() {
        assert_eq!(calibrate_iters(Duration::ZERO, Duration::from_millis(5)), 1 << 16);
        assert_eq!(
            calibrate_iters(Duration::from_secs(1), Duration::from_millis(5)),
            1
        );
        let n = calibrate_iters(Duration::from_micros(10), Duration::from_millis(5));
        assert_eq!(n, 500);
    }
}
