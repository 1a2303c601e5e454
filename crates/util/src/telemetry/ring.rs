//! The single-writer ring every per-thread record goes through: spans at
//! [`SPAN_WORDS`] words per slot, flight events at
//! [`flight::SLOT_WORDS`](super::flight::SLOT_WORDS).
//!
//! Each thread's recorder owns its rings and its thread is their only
//! writer, so a push is `W` relaxed stores plus one Release store of the
//! head — no locks, no CAS loops, no allocation. A collector may read
//! concurrently: it Acquire-loads the head, copies the slots, re-reads the
//! head and discards any slot the writer could have been overwriting in
//! the meantime (the slot of index `i` is reused by index `i + capacity`,
//! so after observing head `h` every index `> h - capacity` is stable).
//! The ring keeps the **newest** slots on wraparound; the number of
//! overwritten (dropped) slots is reported alongside. The protocol is
//! model-checked once, over this type, under `--cfg fun3d_check`
//! (`crates/util/tests/model_ring.rs`), including the Release→Relaxed
//! head mutant the checker must catch.
//!
//! A span slot stores its name as raw `&'static str` parts (pointer and
//! length), reconstructed only from slots the stability filter returned,
//! so a mixed-up pointer/length pair can never escape.

// Shim atomics: std atomics in normal builds; the model checker's
// tracked atomics under `--cfg fun3d_check`.
use fun3d_check::shim::{AtomicU64, Ordering};

/// Fixed-capacity single-writer ring of `W`-word slots.
pub struct Ring<const W: usize> {
    slots: Box<[[AtomicU64; W]]>,
    /// Total slots ever pushed (monotonic; slot index = `head % cap`).
    head: AtomicU64,
}

impl<const W: usize> Ring<W> {
    /// A ring holding up to `capacity` slots (min 2; newest win).
    pub fn new(capacity: usize) -> Ring<W> {
        Ring {
            slots: (0..capacity.max(2))
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Appends one slot. Must only be called from the ring's owning
    /// thread (single-writer invariant; see the module docs).
    pub fn push(&self, words: [u64; W]) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        for (w, v) in slot.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        // Publish: a collector that acquires `h + 1` sees the slot stores.
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copies out the stable slots, oldest first, plus the count of slots
    /// lost to wraparound (or trimmed as potentially in-flight).
    pub fn collect(&self) -> (Vec<[u64; W]>, u64) {
        let cap = self.slots.len() as u64;
        let h1 = self.head.load(Ordering::Acquire);
        let lo = h1.saturating_sub(cap);
        let raw: Vec<(u64, [u64; W])> = (lo..h1)
            .map(|i| {
                let slot = &self.slots[(i % cap) as usize];
                (i, std::array::from_fn(|k| slot[k].load(Ordering::Relaxed)))
            })
            .collect();
        // Index i shares a slot with i + cap, and the writer may already
        // be filling index h2's slot before publishing h2 + 1: discard
        // every index that could have been mid-overwrite during the copy.
        let h2 = self.head.load(Ordering::Acquire);
        let stable_from = (h2 + 1).saturating_sub(cap);
        let slots: Vec<[u64; W]> = raw
            .into_iter()
            .filter(|(i, _)| *i >= stable_from)
            .map(|(_, w)| w)
            .collect();
        let dropped = h2 - slots.len() as u64;
        (slots, dropped)
    }

    /// Forgets every slot (quiescent points only: the writer must not be
    /// pushing concurrently).
    pub(crate) fn clear(&self) {
        self.head.store(0, Ordering::Release);
    }
}

/// Words per span slot: `[name_ptr, name_len, start_ns, dur_ns]`.
pub(crate) const SPAN_WORDS: usize = 4;

/// One completed span: a named interval on one thread's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Interned static name (the instrumentation site's label).
    pub name: &'static str,
    /// Start, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanEvent {
    /// The slot words this span is pushed as.
    pub(crate) fn words(&self) -> [u64; SPAN_WORDS] {
        [
            self.name.as_ptr() as u64,
            self.name.len() as u64,
            self.start_ns,
            self.dur_ns,
        ]
    }

    /// Decodes a span slot.
    ///
    /// # Safety
    ///
    /// `w` must be a slot that [`Ring::collect`] returned from a ring
    /// into which only [`SpanEvent::words`] were pushed: the stability
    /// filter then guarantees the slot was completely written by one
    /// push and not overwritten since, so the first two words are a
    /// matched pointer/length pair of a real `&'static str`.
    pub(crate) unsafe fn from_words(w: [u64; SPAN_WORDS]) -> SpanEvent {
        SpanEvent {
            // SAFETY: a matched (ptr, len) pair of a `&'static str`, by
            // this function's contract.
            name: unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    w[0] as *const u8,
                    w[1] as usize,
                ))
            },
            start_ns: w[2],
            dur_ns: w[3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, i: u64) -> SpanEvent {
        SpanEvent {
            name,
            start_ns: i * 10,
            dur_ns: 5,
        }
    }

    fn spans(r: &Ring<SPAN_WORDS>) -> (Vec<SpanEvent>, u64) {
        let (slots, dropped) = r.collect();
        // SAFETY: these rings only ever receive `SpanEvent::words`.
        let spans = slots
            .into_iter()
            .map(|w| unsafe { SpanEvent::from_words(w) });
        (spans.collect(), dropped)
    }

    #[test]
    fn empty_ring_collects_nothing() {
        let r = Ring::<SPAN_WORDS>::new(8);
        let (events, dropped) = spans(&r);
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn collects_in_push_order_below_capacity() {
        let r = Ring::<SPAN_WORDS>::new(8);
        for i in 0..5 {
            r.push(ev("a", i).words());
        }
        let (events, dropped) = spans(&r);
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.start_ns, i as u64 * 10);
            assert_eq!(e.name, "a");
        }
    }

    #[test]
    fn wraparound_preserves_newest_events() {
        let cap = 16u64;
        let r = Ring::<SPAN_WORDS>::new(cap as usize);
        let total = cap + 7;
        for i in 0..total {
            r.push(ev("k", i).words());
        }
        let (events, dropped) = spans(&r);
        // quiescent collection keeps the cap-1 newest (the very oldest
        // retained slot is conservatively treated as in-flight)
        assert_eq!(events.len() as u64, cap - 1);
        assert_eq!(dropped, total - (cap - 1));
        // newest-first check: the last pushed event must be present …
        assert_eq!(events.last().unwrap().start_ns, (total - 1) * 10);
        // … and the sequence is contiguous and ordered
        for w in events.windows(2) {
            assert_eq!(w[1].start_ns - w[0].start_ns, 10);
        }
    }

    #[test]
    fn clear_resets() {
        let r = Ring::<SPAN_WORDS>::new(4);
        for i in 0..10 {
            r.push(ev("x", i).words());
        }
        r.clear();
        let (events, dropped) = spans(&r);
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn distinct_names_survive() {
        let r = Ring::<SPAN_WORDS>::new(8);
        r.push(ev("flux", 0).words());
        r.push(ev("gradient", 1).words());
        let (events, _) = spans(&r);
        assert_eq!(events[0].name, "flux");
        assert_eq!(events[1].name, "gradient");
    }

    #[test]
    fn concurrent_reader_never_sees_torn_names() {
        // Hammer the ring from one writer while a reader collects: every
        // surfaced name must be one of the legal labels.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(Ring::<SPAN_WORDS>::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        let names: [&'static str; 3] = ["alpha", "beta-long-name", "g"];
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ring.push(ev(names[(i % 3) as usize], i).words());
                    i += 1;
                }
            })
        };
        for _ in 0..200 {
            let (events, _) = spans(&ring);
            for e in events {
                assert!(names.contains(&e.name), "torn name: {:?}", e.name);
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
