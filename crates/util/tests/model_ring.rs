//! Model check for the telemetry ring's single-writer seqlock-style
//! publication protocol — the one ring spans and flight events both go
//! through. Compiled only under `--cfg fun3d_check`, where the ring's
//! atomics are fun3d-check's tracked types.
//!
//! The protocol's claim is sharp: a collector surfaces a slot only if the
//! second head read proves it cannot have been mid-overwrite. For a span
//! slot the first two words are a `&'static str`'s pointer and length,
//! so a torn slot would be undefined behaviour; for a flight slot it
//! would be solver history that never happened. The positive models let
//! the checker try every interleaving of a concurrent push/collect pair
//! and check every surfaced slot word for word, and that drops are
//! counted exactly on wraparound; the mutant downgrades the head
//! publication to `Relaxed` and the checker must find the schedule where
//! the collector observes a slot the writer never published.
#![cfg(fun3d_check)]

use fun3d_check::shim::{spin_hint, AtomicU64, Ordering};
use fun3d_check::{explore, thread, Config, FailureKind};
use fun3d_util::telemetry::ring::Ring;
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
/// words: the width of a span slot.
fn slot(seed: u64) -> [u64; 4] {
    std::array::from_fn(|k| seed * 10 + k as u64)
}

#[test]
fn concurrent_collect_only_surfaces_stable_consistent_slots() {
    // Writer pushes two slots while the collector snapshots concurrently;
    // afterwards a quiescent (join-ordered) collect checks the stable
    // tail.
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
        // Join-ordered collect: capacity 2 keeps indices {0, 1}, and the
        // stability trim conservatively discards the oldest retained
        // index, so exactly slot 2 survives.
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
    // account for every push it saw published (a flight dump's `dropped`
    // field and a profile's lost-span check rest on it).
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
    // Mutant skeleton of `Ring::push` with the head store downgraded to
    // Relaxed: two payload words stand in for the slot. The checker must
    // find the schedule where the collector's Acquire head load is
    // satisfied but the relaxed slot stores are not yet visible.
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
