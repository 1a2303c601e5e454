//! The benchmark's contract in one place: workloads, metrics, bounds.
//!
//! `BENCHMARK.json` at the repository root is this table rendered by
//! `fun3d-benchmark spec`; a self-test compares the two, so that the file
//! the driver reads and the names the code emits cannot drift apart.

use crate::json::Json;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is rejected; `None` for a per-layer metric.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady-ilu1",
        why: "single-threaded baseline, sparse-dominant: ILU(1) refactored every step, so TRSV and ILU gains show here and fun3d-threads does no work",
    },
    Workload {
        name: "steady-ilu0-lag",
        why: "same mesh, ILU(0) lagged 4 steps: edge-dominant, so flux and gradient gains show here and an ILU-factorization gain must not",
    },
    Workload {
        name: "steady-team",
        why: "the paper's shared-memory subject: owner-writes edge loops, P2P TRSV and team GMRES at T=min(nproc,4); threads and partition work only here",
    },
    Workload {
        name: "cluster-ranks",
        why: "rank-parallel NKS with real halo exchanges and allreduces at P=min(nproc,4); the only workload where fun3d-cluster runs",
    },
    Workload {
        name: "serve-mix",
        why: "closed-loop tenants of fun3d-serve: a hot set that fits the per-team app cache beside a cold tail that evicts, probes beside full solves",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system waits for or pays. Every workload reports every
/// one of them; an *operation* is one steady solve (set-up included in
/// `throughput_rps`, excluded from `latency_p50_ms`) or one served request.
pub const END_TO_END: [Metric; 4] = [
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers from the traced run; a layer that a workload does
/// not exercise reports 0 there.
pub const PER_LAYER: [Metric; 52] = [
    layer("mesh.build_s", "s", Lower),
    layer("mesh.rcm_s", "s", Lower),
    layer("core.app_new_s", "s", Lower),
    layer("core.residual_s", "s", Lower),
    layer("core.residual_calls", "count", Lower),
    layer("core.residual_gbps", "GB/s", Higher),
    layer("core.residual_bw_frac", "ratio", Higher),
    layer("core.jacobian_s", "s", Lower),
    layer("sparse.ilu_factor_s", "s", Lower),
    layer("sparse.factor_mib", "MiB", Lower),
    layer("sparse.trsv_s", "s", Lower),
    layer("sparse.trsv_calls", "count", Lower),
    layer("sparse.trsv_gbps", "GB/s", Higher),
    layer("sparse.trsv_bw_frac", "ratio", Higher),
    layer("solver.self_s", "s", Lower),
    layer("solver.self_us_per_iter", "us", Lower),
    layer("solver.linear_iters", "count", Lower),
    layer("solver.time_steps", "count", Lower),
    layer("threads.region_launch_us", "us", Lower),
    layer("threads.barrier_us", "us", Lower),
    layer("threads.parallel_eff", "ratio", Higher),
    layer("partition.edge_replication", "ratio", Lower),
    layer("partition.work_imbalance", "ratio", Lower),
    layer("cluster.p2p_msgs_per_step", "count", Lower),
    layer("cluster.p2p_bytes_per_step", "B", Lower),
    layer("cluster.collectives_per_iter", "count", Lower),
    layer("cluster.recv_wait_frac", "ratio", Lower),
    layer("cluster.rank_setup_s", "s", Lower),
    layer("cluster.parallel_eff", "ratio", Higher),
    layer("serve.tiny_ms_p50", "ms", Lower),
    layer("serve.hot_ms_p50", "ms", Lower),
    layer("serve.cold_ms_p50", "ms", Lower),
    layer("serve.full_ms_p50", "ms", Lower),
    layer("serve.latency_p95_ms", "ms", Lower),
    layer("serve.latency_p99_ms", "ms", Lower),
    layer("serve.exec_ms_p50", "ms", Lower),
    layer("serve.queue_ms_p95", "ms", Lower),
    layer("serve.app_hit_rate", "ratio", Higher),
    layer("serve.factor_hit_rate", "ratio", Higher),
    layer("serve.evictions", "count", Lower),
    layer("serve.open.latency_p50_ms", "ms", Lower),
    layer("serve.open.latency_p95_ms", "ms", Lower),
    layer("serve.open.queue_ms_p95", "ms", Lower),
    layer("serve.open.rejected", "count", Lower),
    layer("serve.open.gen_lag_ms_p95", "ms", Lower),
    layer("machine.cores", "count", Higher),
    layer("machine.llc_mib", "MiB", Higher),
    layer("machine.triad_gbps", "GB/s", Higher),
    layer("bench.traced_solve_s", "s", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("bench.span_closure_err", "ratio", Lower),
    layer("bench.threads", "count", Higher),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(m.name.to_string())),
        ("unit".to_string(), Json::Str(m.unit.to_string())),
        (
            "better".to_string(),
            Json::Str(m.better.as_str().to_string()),
        ),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound".to_string(), Json::Num(bound)));
    }
    Json::Obj(fields)
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::Obj(vec![
        (
            "command".to_string(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".to_string(), strs(&["benchmark"])),
        ("run_seconds".to_string(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".to_string(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::Str(w.name.to_string())),
                            ("why".to_string(), Json::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer".to_string(),
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `fun3d-benchmark spec`"
        );
    }
}
