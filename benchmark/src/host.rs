//! What the benchmark measures about the host itself: cores, peak resident
//! memory of this process, and a STREAM triad for the bandwidth ratios.

use std::time::Instant;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads, ranks or clients a parallel workload uses: never more than the
/// cores, so no timing is an oversubscribed one.
pub fn team_size() -> usize {
    nproc().min(4)
}

fn proc_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn mem_available_bytes() -> Option<u64> {
    proc_kib("/proc/meminfo", "MemAvailable:").map(|kib| kib * 1024)
}

pub struct Triad {
    pub gbps: f64,
    pub array_mib: f64,
}

/// STREAM triad `a = b + s·c` on one thread, best of `PASSES`. Each array is
/// four times the last-level cache, so the figure is memory bandwidth and
/// not cache bandwidth; `None` when three such arrays do not fit in a
/// quarter of the memory available, in which case no ratio is reported
/// rather than a guessed one.
pub fn triad(llc_bytes: usize) -> Option<Triad> {
    const PASSES: usize = 3;
    let n = 4 * llc_bytes / 8;
    if 3 * n as u64 * 8 > mem_available_bytes()? / 4 {
        return None;
    }
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..=PASSES {
        let s = 3.0 + pass as f64;
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        // Pass 0 faults the pages of `a` in and is not timed.
        if pass > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    assert_eq!(a[n / 2], 1.5 + (3.0 + PASSES as f64) * 2.5, "triad result");
    // STREAM counts two reads and one write per element.
    Some(Triad {
        gbps: 3.0 * 8.0 * n as f64 / best / 1e9,
        array_mib: (n * 8) as f64 / 1048576.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_proc_and_runs_a_small_triad() {
        assert!(nproc() >= 1 && team_size() <= 4);
        assert!(peak_rss_mib() > 1.0);
        let t = triad(64 * 1024).expect("a 256 KiB triad fits anywhere");
        assert!(t.gbps > 0.0 && (t.array_mib - 0.25).abs() < 1e-9);
        assert!(
            triad(usize::MAX / 64).is_none(),
            "an absurd cache size is refused, not guessed"
        );
    }
}
