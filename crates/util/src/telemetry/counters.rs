//! The counter vocabulary of the performance model.
//!
//! The paper's analysis (Fig. 5's kernel profile, Fig. 6's
//! achieved-vs-STREAM bandwidth, Table 3's bytes-per-edge model) needs,
//! per kernel: how long it ran, how many items it processed (edges, block
//! rows, messages), how many bytes it moved, and how many floating-point
//! operations it performed. [`KernelCounts`] is that record, one per
//! kernel name: a kernel guard ([`super::kernel`]) adds its counts and its
//! measured wall time in one step, and the report layer derives
//! arithmetic intensity (flop/byte) and achieved bandwidth (GB/s over that
//! time) from the totals, which are then compared against a machine's
//! STREAM number (`fun3d_machine::MachineSpec::stream_gbs`).

/// Monotonic counters for one kernel (or one communication class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Kernel invocations.
    pub calls: u64,
    /// Work items processed: edges for edge loops, block rows for the
    /// recurrences, vector elements for primitives, messages for comm.
    pub items: u64,
    /// Bytes read (model traffic: gathers, streamed operands, received
    /// payloads).
    pub bytes_read: u64,
    /// Bytes written (scatters, streamed results, sent payloads).
    pub bytes_written: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Measured wall time, nanoseconds (0 for count-only records).
    pub ns: u64,
}

impl KernelCounts {
    /// A single-invocation record (the common case at a call site).
    pub fn once(items: u64, bytes_read: u64, bytes_written: u64, flops: u64) -> KernelCounts {
        KernelCounts {
            calls: 1,
            items,
            bytes_read,
            bytes_written,
            flops,
            ns: 0,
        }
    }

    /// Measured wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in flop/byte (0 when no traffic was counted).
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.bytes();
        if b == 0 {
            0.0
        } else {
            self.flops as f64 / b as f64
        }
    }

    /// Achieved bandwidth in GB/s over the measured wall time (0 when
    /// none was measured).
    pub fn achieved_gbs(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.bytes() as f64 / self.ns as f64
        }
    }

    /// Achieved flop rate in Gflop/s over the measured wall time.
    pub(crate) fn achieved_gflops(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.flops as f64 / self.ns as f64
        }
    }

    /// Accumulates another record into this one.
    pub(crate) fn add(&mut self, other: &KernelCounts) {
        self.calls += other.calls;
        self.items += other.items;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.flops += other.flops;
        self.ns += other.ns;
    }
}

/// A small name → [`KernelCounts`] map. Kernels number in the tens, so a
/// sorted vector beats a hash map for determinism (reports iterate in
/// stable name order) and for merge cost.
#[derive(Clone, Debug, Default)]
pub struct CounterMap {
    entries: Vec<(&'static str, KernelCounts)>,
}

impl CounterMap {
    /// An empty map.
    pub fn new() -> CounterMap {
        CounterMap::default()
    }

    /// Accumulates `c` into the named kernel's counters.
    pub fn add(&mut self, name: &'static str, c: KernelCounts) {
        match self.entries.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => self.entries[i].1.add(&c),
            Err(i) => self.entries.insert(i, (name, c)),
        }
    }

    /// The counters for `name`, if any were recorded.
    pub fn get(&self, name: &str) -> Option<&KernelCounts> {
        self.entries
            .binary_search_by(|(k, _)| (*k).cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// All `(name, counters)` entries in name order.
    pub fn entries(&self) -> &[(&'static str, KernelCounts)] {
        &self.entries
    }

    /// Seconds measured for `name` (0 if absent or count-only).
    pub fn seconds(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, KernelCounts::seconds)
    }

    /// Merges another map into this one (used to combine per-thread
    /// recorders into the run total).
    pub(crate) fn merge(&mut self, other: &CounterMap) {
        for (name, c) in &other.entries {
            self.add(name, *c);
        }
    }

    /// What was recorded after `before` was read from the same recorders:
    /// each kernel's counters minus its counters in `before`. Kernels with
    /// no new calls are left out.
    pub fn since(&self, before: &CounterMap) -> CounterMap {
        let mut delta = CounterMap::new();
        for &(name, c) in &self.entries {
            let b = before.get(name).copied().unwrap_or_default();
            if c.calls > b.calls {
                delta.entries.push((
                    name,
                    KernelCounts {
                        calls: c.calls - b.calls,
                        items: c.items - b.items,
                        bytes_read: c.bytes_read - b.bytes_read,
                        bytes_written: c.bytes_written - b.bytes_written,
                        flops: c.flops - b.flops,
                        ns: c.ns - b.ns,
                    },
                ));
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let c = KernelCounts {
            ns: 1_000_000,
            ..KernelCounts::once(1000, 6_000_000, 2_000_000, 4_000_000)
        };
        assert_eq!(c.bytes(), 8_000_000);
        assert!((c.arithmetic_intensity() - 0.5).abs() < 1e-12);
        assert!((c.seconds() - 0.001).abs() < 1e-15);
        assert!((c.achieved_gbs() - 8.0).abs() < 1e-12);
        assert!((c.achieved_gflops() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_and_zero_time_are_safe() {
        let c = KernelCounts::default();
        assert_eq!(c.arithmetic_intensity(), 0.0);
        assert_eq!(c.achieved_gbs(), 0.0);
        let untimed = KernelCounts::once(1, 64, 8, 100);
        assert_eq!(untimed.achieved_gflops(), 0.0);
    }

    #[test]
    fn map_accumulates_and_sorts() {
        let mut m = CounterMap::new();
        m.add("trsv", KernelCounts::once(5, 50, 5, 500));
        m.add("flux", KernelCounts::once(10, 100, 10, 1000));
        m.add("flux", KernelCounts::once(10, 100, 10, 1000));
        let names: Vec<_> = m.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["flux", "trsv"]);
        let flux = m.get("flux").unwrap();
        assert_eq!(flux.calls, 2);
        assert_eq!(flux.items, 20);
        assert_eq!(flux.bytes(), 220);
        assert!(m.get("ilu").is_none());
    }

    #[test]
    fn merge_equals_serial_accumulation() {
        let mut serial = CounterMap::new();
        let mut a = CounterMap::new();
        let mut b = CounterMap::new();
        let recs = [
            ("flux", KernelCounts::once(3, 30, 3, 300)),
            ("ilu", KernelCounts::once(7, 70, 7, 700)),
            ("flux", KernelCounts::once(1, 10, 1, 100)),
        ];
        for (i, (n, c)) in recs.iter().enumerate() {
            serial.add(n, *c);
            if i % 2 == 0 {
                a.add(n, *c);
            } else {
                b.add(n, *c);
            }
        }
        let mut merged = CounterMap::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.entries(), serial.entries());
        // The delta of the merged map over one part is the other part.
        assert_eq!(merged.since(&a).entries(), b.entries());
        assert!(merged.since(&merged).entries().is_empty());
    }
}
