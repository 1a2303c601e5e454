//! The one ring every per-thread record goes through, and its slot
//! format: each recorder owns one [`Ring`] of [`SLOT_WORDS`]-word slots
//! `[code, t_ns, rank, solve, payload…]`, holding its spans and its flight
//! events in the order they were pushed.
//!
//! A span is the slot code [`SPAN_CODE`], its start as `t_ns` and
//! `[name_ptr, name_len, dur_ns]` as payload; every other code is a flight
//! event kind, decoded through the `event_kinds!` table of
//! [`flight`](super::flight).
//!
//! The recorder's thread is the ring's only writer, so a push is `W`
//! relaxed stores plus one Release store of the head — no locks, no CAS
//! loops, no allocation. A collector may read concurrently: it
//! Acquire-loads the head, copies the slots, re-reads the head and
//! discards any slot the writer could have been overwriting in the
//! meantime (the slot of index `i` is reused by index `i + capacity`, so
//! after observing head `h` every index `> h - capacity` is stable). The
//! ring keeps the **newest** slots on wraparound; the number of
//! overwritten (dropped) slots is reported alongside. The protocol is
//! model-checked over this type under `--cfg fun3d_check` (the `model`
//! tests below), including the Release→Relaxed head mutant the checker
//! must catch.
//!
//! A span slot stores its name as raw `&'static str` parts (pointer and
//! length), reconstructed only from slots the stability filter returned
//! and only under the span code, so a mixed-up pointer/length pair can
//! never escape.

// Shim atomics: std atomics in normal builds; the model checker's
// tracked atomics under `--cfg fun3d_check`.
use fun3d_check::shim::{AtomicU64, Ordering};

/// Payload words per slot (beyond code / time / rank / solve).
pub(crate) const PAYLOAD_WORDS: usize = 6;
/// Words per ring slot: `[code, t_ns, rank, solve, payload…]`.
pub(crate) const SLOT_WORDS: usize = 4 + PAYLOAD_WORDS;
/// Slots each recorder's ring holds (newest win).
pub(crate) const CAPACITY: usize = 4096;
/// The slot code of a span; no flight event kind uses it.
pub(crate) const SPAN_CODE: u64 = u64::MAX;

/// Fixed-capacity single-writer ring of `W`-word slots.
pub(crate) struct Ring<const W: usize> {
    slots: Box<[[AtomicU64; W]]>,
    /// Total slots ever pushed (monotonic; slot index = `head % cap`).
    head: AtomicU64,
}

impl<const W: usize> Ring<W> {
    /// A ring holding up to `capacity` slots (min 2; newest win).
    pub(crate) fn new(capacity: usize) -> Ring<W> {
        Ring {
            slots: (0..capacity.max(2))
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Appends one slot. Must only be called from the ring's owning
    /// thread (single-writer invariant; see the module docs).
    pub(crate) fn push(&self, words: [u64; W]) {
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
    pub(crate) fn collect(&self) -> (Vec<[u64; W]>, u64) {
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
}

/// One completed span: a named interval on one thread's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Interned static name (the instrumentation site's label).
    pub name: &'static str,
    /// Start, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The recording thread's rank tag, as on its flight events.
    pub rank: u64,
    /// The recording thread's solve tag (0 = outside any solve).
    pub solve: u64,
}

impl SpanEvent {
    /// The slot this span is pushed as.
    pub(crate) fn words(&self) -> [u64; SLOT_WORDS] {
        let mut w = [0; SLOT_WORDS];
        w[..7].copy_from_slice(&[
            SPAN_CODE,
            self.start_ns,
            self.rank,
            self.solve,
            self.name.as_ptr() as u64,
            self.name.len() as u64,
            self.dur_ns,
        ]);
        w
    }

    /// Decodes a span slot.
    ///
    /// # Safety
    ///
    /// `w` must be a slot that [`Ring::collect`] returned, with code
    /// [`SPAN_CODE`]: only [`SpanEvent::words`] writes that code, and the
    /// stability filter guarantees the slot was completely written by one
    /// push and not overwritten since, so words 4 and 5 are a matched
    /// pointer/length pair of a real `&'static str`.
    pub(crate) unsafe fn from_words(w: [u64; SLOT_WORDS]) -> SpanEvent {
        debug_assert_eq!(w[0], SPAN_CODE);
        SpanEvent {
            // SAFETY: a matched (ptr, len) pair of a `&'static str`, by
            // this function's contract.
            name: unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    w[4] as *const u8,
                    w[5] as usize,
                ))
            },
            start_ns: w[1],
            dur_ns: w[6],
            rank: w[2],
            solve: w[3],
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
            rank: 1,
            solve: 7,
        }
    }

    fn spans(r: &Ring<SLOT_WORDS>) -> (Vec<SpanEvent>, u64) {
        let (slots, dropped) = r.collect();
        // SAFETY: these rings only ever receive `SpanEvent::words`.
        let spans = slots
            .into_iter()
            .map(|w| unsafe { SpanEvent::from_words(w) });
        (spans.collect(), dropped)
    }

    #[test]
    fn empty_ring_collects_nothing() {
        let r = Ring::<SLOT_WORDS>::new(8);
        let (events, dropped) = spans(&r);
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn collects_in_push_order_below_capacity() {
        let r = Ring::<SLOT_WORDS>::new(8);
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
        let r = Ring::<SLOT_WORDS>::new(cap as usize);
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
    fn distinct_names_survive() {
        let r = Ring::<SLOT_WORDS>::new(8);
        r.push(ev("flux", 0).words());
        r.push(ev("gradient", 1).words());
        let (events, _) = spans(&r);
        assert_eq!(events[0].name, "flux");
        assert_eq!(events[1].name, "gradient");
        let (slots, _) = r.collect();
        assert_eq!(slots[1][..4], [SPAN_CODE, 10, 1, 7], "code, start and tags");
    }

    #[test]
    fn concurrent_reader_never_sees_torn_names() {
        // Hammer the ring from one writer while a reader collects: every
        // surfaced name must be one of the legal labels.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let ring = Arc::new(Ring::<SLOT_WORDS>::new(32));
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

/// Model check of the ring's publication protocol, compiled only under
/// `--cfg fun3d_check`, where the ring's atomics are fun3d-check's
/// tracked types.
///
/// The protocol's claim is sharp: a collector surfaces a slot only if the
/// second head read proves it cannot have been mid-overwrite. For a span
/// slot two words are a `&'static str`'s pointer and length, so a torn
/// slot would be undefined behaviour; for a flight slot it would be
/// solver history that never happened. The positive models let the
/// checker try every interleaving of a concurrent push/collect pair and
/// check every surfaced slot word for word, and that drops are counted
/// exactly on wraparound; the mutant downgrades the head publication to
/// `Relaxed` and the checker must find the schedule where the collector
/// observes a slot the writer never published.
#[cfg(all(test, fun3d_check))]
mod model {
    use super::Ring;
    use fun3d_check::shim::{spin_hint, AtomicU64, Ordering};
    use fun3d_check::{explore, thread, Config, FailureKind};
    use std::sync::Arc;

    fn cfg() -> Config {
        Config {
            max_threads: 4,
            preemption_bound: Some(2),
            max_schedules: 400_000,
            history: 3,
        }
    }

    /// A slot whose every word is derived from `seed`, so a mixed slot
    /// (words from two different pushes) is detectable by inspection. Four
    /// words keep the tracked atomics few; the protocol does not depend on
    /// the width.
    fn slot(seed: u64) -> [u64; 4] {
        std::array::from_fn(|k| seed * 10 + k as u64)
    }

    #[test]
    fn concurrent_collect_only_surfaces_stable_consistent_slots() {
        // Writer pushes two slots while the collector snapshots
        // concurrently; afterwards a quiescent (join-ordered) collect
        // checks the stable tail.
        let report = explore(&cfg(), || {
            let ring = Arc::new(Ring::<4>::new(2));
            let r2 = Arc::clone(&ring);
            let writer = thread::spawn(move || {
                r2.push(slot(1));
                r2.push(slot(2));
            });
            let (slots, _dropped) = ring.collect();
            for s in &slots {
                assert!(
                    *s == slot(1) || *s == slot(2),
                    "torn or unpublished slot surfaced: {s:?}"
                );
            }
            writer.join();
            // Join-ordered collect: capacity 2 keeps indices {0, 1}, and
            // the stability trim conservatively discards the oldest
            // retained index, so exactly slot 2 survives.
            let (slots, dropped) = ring.collect();
            assert_eq!(slots, [slot(2)]);
            assert_eq!(dropped, 1);
        });
        // Schedule count quoted in EXPERIMENTS.md; visible with --nocapture.
        eprintln!(
            "explored {} schedules (exhaustive: {})",
            report.schedules, report.exhaustive
        );
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhaustive, "budget too small: {}", report.schedules);
        assert!(report.schedules >= 2);
    }

    #[test]
    fn wraparound_drop_accounting_is_exact_under_concurrency() {
        // Three pushes into a capacity-2 ring with a concurrent collector:
        // whatever prefix the collector observes, slots + dropped must
        // account for every push it saw published (a flight dump's
        // `dropped` field and a profile's lost-span check rest on it).
        let report = explore(&cfg(), || {
            let ring = Arc::new(Ring::<4>::new(2));
            let r2 = Arc::clone(&ring);
            let writer = thread::spawn(move || {
                for seed in 1..=3 {
                    r2.push(slot(seed));
                }
            });
            let (slots, dropped) = ring.collect();
            assert!(slots.len() as u64 + dropped <= 3);
            for s in &slots {
                assert!((1..=3).any(|seed| *s == slot(seed)), "torn slot: {s:?}");
            }
            writer.join();
            let (slots, dropped) = ring.collect();
            assert_eq!(slots.len() as u64 + dropped, 3);
            assert_eq!(slots.last(), Some(&slot(3)));
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhaustive, "budget too small: {}", report.schedules);
    }

    #[test]
    fn relaxed_head_publication_is_caught() {
        // Mutant skeleton of `Ring::push` with the head store downgraded
        // to Relaxed: two payload words stand in for the slot. The checker
        // must find the schedule where the collector's Acquire head load
        // is satisfied but the relaxed slot stores are not yet visible.
        let report = explore(&cfg(), || {
            let words = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let head = Arc::new(AtomicU64::new(0));
            let (w2, h2) = (Arc::clone(&words), Arc::clone(&head));
            let writer = thread::spawn(move || {
                w2[0].store(21, Ordering::Relaxed);
                w2[1].store(42, Ordering::Relaxed);
                h2.store(1, Ordering::Relaxed); // BUG: Ring::push uses Release
            });
            while head.load(Ordering::Acquire) != 1 {
                spin_hint();
            }
            let a = words[0].load(Ordering::Relaxed);
            let b = words[1].load(Ordering::Relaxed);
            assert!(
                a == 21 && b == 42,
                "collector saw unpublished slot: ({a}, {b})"
            );
            writer.join();
        });
        let f = report.failure.expect("checker must catch the relaxed head");
        assert_eq!(f.kind, FailureKind::Panic, "{}", f.message);
        assert!(!f.schedule.is_empty());
    }
}
