//! **load_gen** — latency-gated load benchmark for the `fun3d-serve`
//! tier.
//!
//! Three measurement sections, one artifact
//! (`target/experiments/load_gen.json`, `kind: "load_gen"`):
//!
//! 1. **Cache ablation** (closed-loop): the same repeated-mesh job mix
//!    is pushed through two services in the same process — one with the
//!    artifact cache enabled (timed on its *second*, fully-warm pass)
//!    and one with the cache disabled (every request pays mesh build,
//!    reordering, setup, and factorization; exactly what
//!    `FUN3D_SERVE_CACHE=off` does to a running service). The
//!    `speedup` = cold-throughput ÷ warm-throughput ratio is the
//!    headline number `--check` gates at ≥ 2×.
//! 2. **Open-loop phases**: requests arrive on a fixed schedule at
//!    configurable rates (`--rates`, req/s) over a tenant mix, against
//!    a warm service. Latency is measured from the *scheduled* arrival
//!    (so submitter stalls count, the open-loop discipline), and each
//!    phase reports offered/completed/rejected, achieved rps, p50/p99
//!    latency, and the phase's cache hit rate.
//! 3. **Reject probe**: a deliberately starved service (1 team, queue
//!    cap 1) is flooded to force admission control to shed load; the
//!    artifact records the observed structured reject reasons.
//!
//! Usage: `load_gen [--rates 4,8] [--requests N] [--repeats N]
//! [--teams N] [--team-threads N] [--check <file>]`

use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;
use fun3d_serve::wire::SolveRequest;
use fun3d_serve::{ServeConfig, Service};
use fun3d_util::report::{experiments_dir, write_json, Table};
use fun3d_util::telemetry::flight::json_f64;
use fun3d_util::telemetry::json::Json;
use fun3d_util::telemetry::{self, metrics};
use std::time::{Duration, Instant};

struct Args {
    rates: Vec<f64>,
    requests: usize,
    repeats: usize,
    teams: usize,
    team_threads: usize,
    check: Option<String>,
}

fn parse_args() -> Args {
    let host = ServeConfig::host_default();
    let mut out = Args {
        rates: vec![4.0, 8.0],
        requests: 24,
        repeats: 6,
        teams: host.teams,
        team_threads: host.team_threads,
        check: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--rates" => {
                i += 1;
                out.rates = args[i]
                    .split(',')
                    .map(|r| r.trim().parse().expect("--rates takes numbers (req/s)"))
                    .collect();
            }
            "--requests" => {
                i += 1;
                out.requests = args[i].parse().expect("--requests takes an integer");
            }
            "--repeats" => {
                i += 1;
                out.repeats = args[i].parse().expect("--repeats takes an integer");
            }
            "--teams" => {
                i += 1;
                out.teams = args[i].parse().expect("--teams takes an integer");
            }
            "--team-threads" => {
                i += 1;
                out.team_threads = args[i].parse().expect("--team-threads takes an integer");
            }
            "--check" => {
                i += 1;
                out.check = Some(args[i].clone());
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --rates <r1,r2> --requests <n> --repeats <n> \
                     --teams <n> --team-threads <n> --check <json>"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    assert!(!out.rates.is_empty(), "--rates list is empty");
    assert!(out.requests >= 4, "--requests must be at least 4");
    assert!(out.repeats >= 2, "--repeats must be at least 2");
    out
}

fn serve_config(args: &Args, cache: bool) -> ServeConfig {
    let mut cfg = ServeConfig::host_default();
    cfg.teams = args.teams.max(1);
    cfg.team_threads = args.team_threads.max(1);
    cfg.queue_cap = 256;
    cfg.tenant_queue_cap = 128;
    cfg.cache = cache;
    cfg
}

/// The repeated-mesh job mix: few distinct shapes, many repeats — the
/// serving workload the artifact cache exists for. Setup (mesh build,
/// RCM, metrics, partitions, symbolic ILU, first factorization)
/// dominates each request; the solve itself is short.
fn job_mix(tenant_of: impl Fn(usize) -> String, n: usize) -> Vec<SolveRequest> {
    (0..n)
        .map(|i| {
            // The small preset (~14k unknowns) makes preparation the
            // dominant cost per request, which is exactly the serving
            // regime: meshes repeat, solves are short.
            let mut req = SolveRequest::new(tenant_of(i), MeshPreset::Small);
            // Two shapes (distinct ILU fill ⇒ distinct prep + factor
            // keys) so the cache holds more than one artifact; the
            // high fills make factorization — fully cacheable — the
            // bulk of each cold request.
            req.ilu_fill = if i % 3 == 2 { 2 } else { 1 };
            req.max_steps = 1;
            req.rtol = 1e-1;
            // Latency-bounded request: cap the Krylov budget the way a
            // latency-sensitive tenant would.
            req.max_linear_iters = 4;
            req
        })
        .collect()
}

struct PassResult {
    wall_s: f64,
    rps: f64,
    hit_rate: f64,
}

/// Closed-loop: submit the whole mix, drain, measure the wall. Hit rate
/// is the delta over this pass only.
fn closed_loop_pass(svc: &Service, jobs: Vec<SolveRequest>) -> PassResult {
    let before = svc.stats().cache;
    let n = jobs.len();
    let t0 = Instant::now();
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|j| svc.submit(j).expect("ablation queue overflow"))
        .collect();
    for h in handles {
        h.wait();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let after = svc.stats().cache;
    let hits = (after.app.hits - before.app.hits) + (after.factor.hits - before.factor.hits);
    let lookups = hits + (after.app.misses - before.app.misses)
        + (after.factor.misses - before.factor.misses);
    PassResult {
        wall_s,
        rps: n as f64 / wall_s,
        hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
    }
}

struct Ablation {
    jobs: usize,
    cold: PassResult,
    warm: PassResult,
    speedup: f64,
}

fn run_ablation(args: &Args) -> Ablation {
    let n = args.repeats * 4;
    let tenant = |i: usize| format!("t{}", i % 3);

    // Cache-on service: pass 1 populates, pass 2 is the warm number.
    let svc = Service::start(serve_config(args, true));
    closed_loop_pass(&svc, job_mix(tenant, n));
    let warm = closed_loop_pass(&svc, job_mix(tenant, n));
    svc.shutdown();

    // Cache-off service (what FUN3D_SERVE_CACHE=off forces): every
    // request rebuilds everything.
    let svc = Service::start(serve_config(args, false));
    let cold = closed_loop_pass(&svc, job_mix(tenant, n));
    svc.shutdown();

    let speedup = warm.rps / cold.rps;
    Ablation {
        jobs: n,
        cold,
        warm,
        speedup,
    }
}

struct Phase {
    rate_hz: f64,
    offered: usize,
    completed: usize,
    rejected: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    hit_rate: f64,
    /// The service's own view of this phase: the `serve.total_ns`
    /// live-histogram delta (admit→reply), cross-checked against the
    /// client-side sorted-vec percentiles above.
    live_count: u64,
    live_p50_ms: f64,
    live_p99_ms: f64,
}

/// Open-loop arrival at `rate_hz` against a shared warm service.
/// Latencies are measured from each request's *scheduled* arrival time.
fn run_phase(svc: &Service, args: &Args, rate_hz: f64) -> Phase {
    let before = svc.stats().cache;
    let live_before = metrics::snapshot();
    let jobs = job_mix(|i| format!("t{}", i % 3), args.requests);
    let offered = jobs.len();
    let epoch = Instant::now();
    let mut waiters = Vec::new();
    let mut rejected = 0usize;
    for (i, job) in jobs.into_iter().enumerate() {
        let scheduled = Duration::from_secs_f64(i as f64 / rate_hz);
        if let Some(sleep) = scheduled.checked_sub(epoch.elapsed()) {
            std::thread::sleep(sleep);
        }
        match svc.submit(job) {
            Ok(handle) => waiters.push(std::thread::spawn(move || {
                handle.wait();
                (epoch.elapsed() - scheduled).as_secs_f64() * 1e3
            })),
            Err(_) => rejected += 1,
        }
    }
    let mut latencies_ms: Vec<f64> = waiters
        .into_iter()
        .map(|w| w.join().expect("latency waiter panicked"))
        .collect();
    let span_s = epoch.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let completed = latencies_ms.len();
    let after = svc.stats().cache;
    let hits = (after.app.hits - before.app.hits) + (after.factor.hits - before.factor.hits);
    let lookups = hits + (after.app.misses - before.app.misses)
        + (after.factor.misses - before.factor.misses);

    // The service's own admit→reply histogram over exactly this phase
    // (the delta discards the priming pass and earlier phases). Every
    // admitted request lands in it once, so the counts must agree,
    // and the service-side window is contained in the client-side one
    // (scheduled arrival ≤ admit, reply ≤ wait() return) — so the
    // live percentiles can only sit below the client's, up to the
    // histogram's one-log-bucket resolution (1/64 relative).
    let live = {
        let now = metrics::snapshot();
        let empty = metrics::HistSnapshot::empty("serve.total_ns");
        let cur = now.hist("serve.total_ns").unwrap_or(&empty).clone();
        match live_before.hist("serve.total_ns") {
            Some(b) => cur.delta_from(b),
            None => cur,
        }
    };
    let live_p50_ms = live.quantile(0.50) * 1e-6;
    let live_p99_ms = live.quantile(0.99) * 1e-6;
    let p50_ms = metrics::quantile_sorted(&latencies_ms, 0.50);
    let p99_ms = metrics::quantile_sorted(&latencies_ms, 0.99);
    if completed > 0 && telemetry::enabled() {
        assert_eq!(
            live.count, completed as u64,
            "live serve.total_ns delta disagrees with completed count"
        );
        for (client, service, which) in
            [(p50_ms, live_p50_ms, "p50"), (p99_ms, live_p99_ms, "p99")]
        {
            // One bucket of relative slack plus a small absolute floor
            // for sub-bucket jitter.
            assert!(
                service <= client * (1.0 + 1.0 / 64.0) + 0.5,
                "service-side {which} {service:.3} ms exceeds client-side \
                 {client:.3} ms beyond bucket error"
            );
        }
    }

    Phase {
        rate_hz,
        offered,
        completed,
        rejected,
        rps: completed as f64 / span_s,
        p50_ms,
        p99_ms,
        mean_ms: latencies_ms.iter().sum::<f64>() / completed.max(1) as f64,
        hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        live_count: live.count,
        live_p50_ms,
        live_p99_ms,
    }
}

struct RejectProbe {
    offered: usize,
    rejected: usize,
    reasons: Vec<&'static str>,
}

/// Floods a deliberately starved service (1 serial team, queue cap 1)
/// so admission control must shed load.
fn run_reject_probe() -> RejectProbe {
    let cfg = ServeConfig {
        teams: 1,
        team_threads: 1,
        queue_cap: 1,
        tenant_queue_cap: 1,
        app_cache_per_team: 1,
        factor_cache_cap: 1,
        cache: true,
        tenant_weights: Vec::new(),
    };
    let svc = Service::start(cfg);
    let offered = 8;
    let mut rejected = 0;
    let mut reasons = Vec::new();
    let mut handles = Vec::new();
    for i in 0..offered {
        let mut req = SolveRequest::new(format!("flood{i}"), MeshPreset::Tiny);
        req.max_steps = 2;
        req.rtol = 1e-1;
        match svc.submit(req) {
            Ok(h) => handles.push(h),
            Err(r) => {
                rejected += 1;
                if !reasons.contains(&r.reason.slug()) {
                    reasons.push(r.reason.slug());
                }
            }
        }
    }
    for h in handles {
        h.wait();
    }
    svc.shutdown();
    RejectProbe {
        offered,
        rejected,
        reasons,
    }
}

/// `--check` mode: the artifact rot guard run by scripts/verify.sh.
/// Structural validity plus the two acceptance claims: artifact caching
/// is worth ≥ 2× throughput on the repeated-mesh mix, and admission
/// control demonstrably shed at least one request in the probe.
fn check_artifact(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check failed: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("check failed: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let mut problems = Vec::new();
    if doc.get("kind").and_then(Json::as_str) != Some("load_gen") {
        problems.push("missing kind:\"load_gen\" marker".to_string());
    }
    for key in ["machine", "service", "ablation", "phases", "reject_probe"] {
        if doc.get(key).is_none() {
            problems.push(format!("missing key '{key}'"));
        }
    }
    if let Some(ab) = doc.get("ablation") {
        let speedup = ab.get("speedup").and_then(Json::as_f64);
        match speedup {
            Some(s) if s >= 2.0 => {}
            Some(s) => problems.push(format!(
                "ablation speedup {s:.2}x below the 2x acceptance floor \
                 (artifact caching is not paying for itself)"
            )),
            None => problems.push("ablation missing 'speedup'".to_string()),
        }
        for pass in ["cold", "warm"] {
            match ab.get(pass).and_then(|p| p.get("rps")).and_then(Json::as_f64) {
                Some(r) if r > 0.0 => {}
                _ => problems.push(format!("ablation '{pass}' missing positive rps")),
            }
        }
        match ab
            .get("warm")
            .and_then(|p| p.get("hit_rate"))
            .and_then(Json::as_f64)
        {
            Some(h) if h > 0.0 => {}
            _ => problems.push("warm pass shows no cache hits".to_string()),
        }
    }
    match doc.get("phases").and_then(Json::as_arr) {
        None => problems.push("'phases' is not an array".to_string()),
        Some(ps) if ps.is_empty() => problems.push("'phases' array is empty".to_string()),
        Some(ps) => {
            for (i, p) in ps.iter().enumerate() {
                let rate = p.get("rate_hz").and_then(Json::as_f64);
                let rps = p.get("rps").and_then(Json::as_f64);
                let p50 = p.get("p50_ms").and_then(Json::as_f64);
                let p99 = p.get("p99_ms").and_then(Json::as_f64);
                let completed = p.get("completed").and_then(Json::as_f64);
                let rejected = p.get("rejected").and_then(Json::as_f64);
                match (rate, rps, p50, p99, completed, rejected) {
                    (Some(rate), Some(rps), Some(p50), Some(p99), Some(c), Some(rej)) => {
                        if !(rate > 0.0 && rps > 0.0 && c > 0.0) {
                            problems.push(format!("phase {i}: non-positive rate/rps/completed"));
                        }
                        if !(p50 > 0.0 && p99 >= p50) {
                            problems.push(format!(
                                "phase {i}: latency order violated (p50 {p50}, p99 {p99})"
                            ));
                        }
                        // The smoke claim: at the lowest offered rate,
                        // nothing is shed.
                        if i == 0 && rej != 0.0 {
                            problems
                                .push(format!("phase 0 shed {rej} requests at the lowest rate"));
                        }
                        // The live cross-check: the service's own
                        // histogram saw every completed request, and
                        // its percentiles sit at or below the
                        // client-side ones within one log bucket
                        // (1/64 relative, 0.5 ms absolute slack).
                        let live = p.get("live");
                        let lcount =
                            live.and_then(|l| l.get("count")).and_then(Json::as_f64);
                        let lp50 =
                            live.and_then(|l| l.get("p50_ms")).and_then(Json::as_f64);
                        let lp99 =
                            live.and_then(|l| l.get("p99_ms")).and_then(Json::as_f64);
                        match (lcount, lp50, lp99) {
                            (Some(lc), Some(lp50), Some(lp99)) => {
                                if lc != c {
                                    problems.push(format!(
                                        "phase {i}: live count {lc} != completed {c}"
                                    ));
                                }
                                let tol = 1.0 + 1.0 / 64.0;
                                if !(lp50 > 0.0 && lp50 <= p50 * tol + 0.5) {
                                    problems.push(format!(
                                        "phase {i}: live p50 {lp50:.3} vs client {p50:.3} \
                                         outside bucket error"
                                    ));
                                }
                                if !(lp99 > 0.0 && lp99 <= p99 * tol + 0.5) {
                                    problems.push(format!(
                                        "phase {i}: live p99 {lp99:.3} vs client {p99:.3} \
                                         outside bucket error"
                                    ));
                                }
                            }
                            _ => problems.push(format!(
                                "phase {i}: missing live service-side section"
                            )),
                        }
                    }
                    _ => problems.push(format!("phase {i}: malformed entry")),
                }
            }
        }
    }
    match doc
        .get("reject_probe")
        .and_then(|r| r.get("rejected"))
        .and_then(Json::as_f64)
    {
        Some(r) if r >= 1.0 => {}
        _ => problems.push("reject probe observed no admission rejects".to_string()),
    }
    if problems.is_empty() {
        println!("{path}: OK");
        std::process::exit(0);
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check {
        check_artifact(path);
    }

    println!(
        "load_gen: {} team(s) x {} thread(s), {} requests/phase, rates {:?} req/s",
        args.teams, args.team_threads, args.requests, args.rates
    );

    // 1. Cache ablation (closed-loop, same mix, warm vs cache-off).
    let ablation = run_ablation(&args);
    let mut table = Table::new(
        &format!(
            "load_gen: artifact-cache ablation ({} repeated-mesh jobs)",
            ablation.jobs
        ),
        &["pass", "wall s", "rps", "hit rate"],
    );
    for (name, pass) in [("cache off", &ablation.cold), ("warm", &ablation.warm)] {
        table.row(&[
            name.to_string(),
            format!("{:.3}", pass.wall_s),
            format!("{:.2}", pass.rps),
            format!("{:.3}", pass.hit_rate),
        ]);
    }
    table.row(&[
        "speedup".to_string(),
        String::new(),
        format!("{:.2}x", ablation.speedup),
        String::new(),
    ]);
    fun3d_bench::emit("load_gen[ablation]", &table);

    // 2. Open-loop phases against one warm shared service.
    let svc = Service::start(serve_config(&args, true));
    // Prime the caches so the phases measure steady-state serving.
    closed_loop_pass(&svc, job_mix(|i| format!("t{}", i % 3), 4));
    let phases: Vec<Phase> = args.rates.iter().map(|&r| run_phase(&svc, &args, r)).collect();
    let stats = svc.shutdown();
    assert!(
        stats.pool_high_water <= stats.worker_budget,
        "pool budget exceeded: {} > {}",
        stats.pool_high_water,
        stats.worker_budget
    );
    let mut table = Table::new(
        &format!("load_gen: open-loop phases ({} requests each)", args.requests),
        &[
            "rate req/s",
            "rps",
            "p50 ms",
            "p99 ms",
            "live p50",
            "live p99",
            "mean ms",
            "rejected",
            "hit rate",
        ],
    );
    for p in &phases {
        table.row(&[
            format!("{:.1}", p.rate_hz),
            format!("{:.2}", p.rps),
            format!("{:.2}", p.p50_ms),
            format!("{:.2}", p.p99_ms),
            format!("{:.2}", p.live_p50_ms),
            format!("{:.2}", p.live_p99_ms),
            format!("{:.2}", p.mean_ms),
            p.rejected.to_string(),
            format!("{:.3}", p.hit_rate),
        ]);
    }
    fun3d_bench::emit("load_gen[phases]", &table);

    // 3. Reject probe.
    let probe = run_reject_probe();
    println!(
        "reject probe: {}/{} shed ({})",
        probe.rejected,
        probe.offered,
        probe.reasons.join(",")
    );
    assert!(
        probe.rejected >= 1,
        "starved service must shed at least one request"
    );

    let pass_json = |p: &PassResult| {
        Json::obj(vec![
            ("wall_seconds", Json::num(p.wall_s)),
            ("rps", Json::num(p.rps)),
            ("hit_rate", Json::num(p.hit_rate)),
        ])
    };
    let summary = Json::obj(vec![
        ("kind", Json::str("load_gen")),
        (
            "machine",
            Json::obj(vec![(
                "cores",
                Json::num(MachineSpec::host().cores as f64),
            )]),
        ),
        (
            "service",
            Json::obj(vec![
                ("teams", Json::num(args.teams as f64)),
                ("team_threads", Json::num(args.team_threads as f64)),
                ("pool_high_water", Json::num(stats.pool_high_water as f64)),
                ("worker_budget", Json::num(stats.worker_budget as f64)),
            ]),
        ),
        (
            "ablation",
            Json::obj(vec![
                ("jobs", Json::num(ablation.jobs as f64)),
                ("cold", pass_json(&ablation.cold)),
                ("warm", pass_json(&ablation.warm)),
                ("speedup", Json::num(ablation.speedup)),
            ]),
        ),
        (
            "phases",
            Json::Arr(
                phases
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("rate_hz", Json::num(p.rate_hz)),
                            ("offered", Json::num(p.offered as f64)),
                            ("completed", Json::num(p.completed as f64)),
                            ("rejected", Json::num(p.rejected as f64)),
                            ("rps", Json::num(p.rps)),
                            ("p50_ms", json_f64(p.p50_ms)),
                            ("p99_ms", json_f64(p.p99_ms)),
                            ("mean_ms", Json::num(p.mean_ms)),
                            ("hit_rate", Json::num(p.hit_rate)),
                            (
                                "live",
                                Json::obj(vec![
                                    ("count", Json::num(p.live_count as f64)),
                                    ("p50_ms", json_f64(p.live_p50_ms)),
                                    ("p99_ms", json_f64(p.live_p99_ms)),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "reject_probe",
            Json::obj(vec![
                ("offered", Json::num(probe.offered as f64)),
                ("rejected", Json::num(probe.rejected as f64)),
                (
                    "reasons",
                    Json::Arr(probe.reasons.iter().map(|r| Json::str(*r)).collect()),
                ),
            ]),
        ),
    ]);
    let dir = experiments_dir();
    match write_json(&dir, "load_gen", &summary) {
        Ok(p) => println!("[json summary written to {}]", p.display()),
        Err(e) => eprintln!("warning: could not write json summary: {e}"),
    }
}
