//! fun3d-check: an in-tree deterministic concurrency model checker for
//! the workspace's hand-rolled sync substrate.
//!
//! The solver's hot path depends on custom lock-free protocols (doorbell
//! dispatch, sense-reversing barrier, P2P epoch flags, tree-reduction
//! mailboxes, seqlock telemetry rings). Wall-clock stress tests barely
//! exercise their interleavings on a small container, and the hermetic
//! zero-dependency rule rules out loom and miri — so, as with the
//! bench/proptest substrate of PR 1, the checker is built in-tree.
//!
//! Architecture (one module per concern):
//! - [`clock`] — vector clocks; the happens-before lattice.
//! - [`engine`] — virtual threads on a cooperative handoff scheduler;
//!   every shim operation is a logged choice point, so executions are
//!   pure functions of their choice sequences. Bounded-exhaustive DFS
//!   (with a preemption bound) and seeded random sampling both drive the
//!   same engine.
//! - [`sync`] — shim atomics recording release/acquire clock edges and
//!   modification order (bounded stale-value exploration for `Relaxed`
//!   loads), plus [`sync::ShimCell`] for race-checked non-atomic data.
//! - [`thread`] — `spawn`/`join` for virtual threads.
//! - [`shim`] — the cfg-switched surface protocols import: std types in
//!   normal builds, the tracked types under `--cfg fun3d_check`.
//!
//! Entry points: [`model`] (bounded-exhaustive, panics on failure with a
//! printed schedule), [`model_random`] (seeded sampling; failures print
//! a `FUN3D_CHECK_SEED=0x…` replay line, mirroring
//! `fun3d_util::proptest_mini`'s `FUN3D_PROP_SEED` idiom), and the
//! non-panicking [`explore`]/[`sample`]/[`replay_seed`] for tests that
//! assert the checker *does* catch a seeded bug.

pub mod clock;
pub mod engine;
pub mod shim;
pub mod sync;
pub mod thread;

pub use engine::{explore, replay_seed, sample, Config, Failure, FailureKind, Report, Step};

/// Environment variable that replays one exact seed through the random
/// driver (and, when set, overrides [`model_random`]'s sampling).
pub const SEED_ENV: &str = "FUN3D_CHECK_SEED";

/// FNV-1a, used to derive a stable per-model base seed from the model
/// name — the same idiom `proptest_mini` uses for `FUN3D_PROP_SEED`.
/// The workspace's FNV-1a is `fun3d_util::fnv1a`; this copy stays because
/// the checker sits beneath `fun3d-util` (which it model-checks) and has
/// no dependencies.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Parses a seed in `0x…` hex or decimal (the formats the replay line
/// prints and users paste back).
pub fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u64>().ok()
    }
}

fn env_seed() -> Option<u64> {
    std::env::var(SEED_ENV).ok().and_then(|v| parse_seed(&v))
}

/// Checks `f` under bounded-exhaustive DFS with the default
/// [`Config`]; panics with the rendered failing schedule on any data
/// race, deadlock, livelock, or assertion panic. If `FUN3D_CHECK_SEED`
/// is set, runs that one seeded schedule instead (replay mode).
///
/// Returns the [`Report`] so tests can additionally assert exploration
/// stats (schedule counts, exhaustiveness).
pub fn model<F>(name: &str, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(name, &Config::default(), f)
}

/// [`model`] with an explicit [`Config`].
pub fn model_with<F>(name: &str, cfg: &Config, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = if let Some(seed) = env_seed() {
        replay_seed(cfg, seed, f)
    } else {
        explore(cfg, f)
    };
    if let Some(failure) = &report.failure {
        panic!("{}", failure.render(name));
    }
    report
}

/// Checks `f` under `samples` seeded random schedules (base seed derived
/// from `name` via FNV-1a, so runs are reproducible without any env
/// var). Panics on failure with a rendered schedule that includes a
/// `FUN3D_CHECK_SEED=0x…` replay line; setting that variable reruns
/// exactly the failing schedule.
pub fn model_random<F>(name: &str, samples: usize, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    model_random_with(name, &Config::default(), samples, f)
}

/// [`model_random`] with an explicit [`Config`].
pub fn model_random_with<F>(name: &str, cfg: &Config, samples: usize, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = if let Some(seed) = env_seed() {
        replay_seed(cfg, seed, f)
    } else {
        sample(cfg, samples, fnv1a(name), f)
    };
    if let Some(failure) = &report.failure {
        panic!("{}", failure.render(name));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parse_seed_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed("0X2A"), Some(42));
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 0xdeadbeef "), Some(0xdead_beef));
        assert_eq!(parse_seed("nope"), None);
    }
}
