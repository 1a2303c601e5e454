//! **perf_report** — one-shot telemetry report of a full application run.
//!
//! Runs the ΨNKS solve with telemetry at full detail and emits, in one
//! invocation, the evidence the paper's figures are built from:
//!
//! * a per-kernel profile — measured time, analytic bytes/flops, achieved
//!   GB/s and arithmetic intensity against the machine's STREAM number
//!   (the Fig. 6 / Table 3 comparison), all from each kernel's one
//!   counter record — and the roofline check of each kernel's time
//!   against its traffic model;
//! * exact self/total time per span, derived from span nesting;
//! * a per-thread utilization / load-imbalance table from worker busy
//!   spans (the shared-memory scaling story);
//! * the ΨTC convergence history (residual, Δt, forcing term η, GMRES
//!   iterations per step) from the solve's `ptc_step` flight events;
//! * machine-readable artifacts under `target/experiments/`: a JSON run
//!   summary (`perf_report.json`), a Chrome trace-event timeline
//!   (`perf_report.trace.json`) loadable in Perfetto / `chrome://tracing`,
//!   and the span profile as folded stacks (`perf_report.folded`) and
//!   speedscope JSON (`perf_report.speedscope.json`).
//!
//! Usage: `perf_report [--mesh <preset>] [--threads <n>] [--check <file>]`
//! (`--check` parses an existing artifact and exits — used by
//! `scripts/verify.sh` to keep the artifacts machine-readable; a summary
//! of a tiny-mesh run also fails it if any span was lost to ring
//! wraparound, since the span profile is exact only without losses).

use fun3d_bench::build_mesh;
use fun3d_bench::report::{experiments_dir, fmt_g, write_json, Table};
use fun3d_core::{Fun3dApp, FlowConditions, OptConfig};
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::ptc::PtcConfig;
use fun3d_util::telemetry::{self, Deviation, Envelope, Json, Level, Profile, Snapshot};

struct Args {
    mesh: MeshPreset,
    threads: usize,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        mesh: MeshPreset::Small,
        threads: 2,
        check: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--mesh" => {
                i += 1;
                out.mesh = MeshPreset::parse(&args[i])
                    .unwrap_or_else(|| panic!("unknown mesh preset '{}'", args[i]));
            }
            "--threads" => {
                i += 1;
                out.threads = args[i].parse().expect("--threads takes an integer");
            }
            "--check" => {
                i += 1;
                out.check = Some(args[i].clone());
            }
            "--help" | "-h" => {
                eprintln!("options: --mesh <tiny|small|medium|large> --threads <n> --check <json>");
                std::process::exit(0);
            }
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    out
}

/// `--check` mode: parse the artifact, verify the summary invariants,
/// exit 0/1. This is the rot guard verify.sh runs.
fn check_artifact(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check failed: cannot read {path}: {e}");
        std::process::exit(1);
    });
    if path.ends_with(".folded") {
        // Folded flamegraph text of the span profile.
        match telemetry::check_folded(&text) {
            Ok(n) => {
                println!("{path}: OK ({n} folded stacks)");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("check failed: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    if doc.get("$schema").is_some() {
        // Speedscope document of the span profile.
        match telemetry::check_speedscope(&doc) {
            Ok(n) => {
                println!("{path}: OK ({n} speedscope profiles)");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut problems = Vec::new();
    if let Some(events) = doc.get("traceEvents") {
        // Chrome trace form: every event needs a name, phase, pid, tid.
        match events.as_arr() {
            None => problems.push("'traceEvents' is not an array".to_string()),
            Some(evs) => {
                for e in evs {
                    if e.get("name").and_then(Json::as_str).is_none()
                        || e.get("ph").and_then(Json::as_str).is_none()
                        || e.get("pid").and_then(Json::as_f64).is_none()
                        || e.get("tid").and_then(Json::as_f64).is_none()
                    {
                        problems.push("malformed trace event".to_string());
                        break;
                    }
                }
            }
        }
        if problems.is_empty() {
            println!("{path}: OK ({} trace events)", doc.get("traceEvents").and_then(Json::as_arr).map_or(0, <[Json]>::len));
            std::process::exit(0);
        }
        for p in &problems {
            eprintln!("check failed: {p}");
        }
        std::process::exit(1);
    }
    for key in ["machine", "run", "kernels", "roofline", "threads", "convergence", "exec"] {
        if doc.get(key).is_none() {
            problems.push(format!("missing key '{key}'"));
        }
    }
    if let Some(machine) = doc.get("machine") {
        // Which lane implementation the edge kernels ran on.
        match machine.get("isa").and_then(Json::as_str) {
            Some("avx2" | "portable") => {}
            _ => problems.push("'machine.isa' missing or not avx2/portable".to_string()),
        }
    }
    if let Some(exec) = doc.get("exec") {
        // The scheme that actually ran must be concrete (Auto resolved).
        match exec.get("mode").and_then(Json::as_str) {
            Some("serial" | "team") => {}
            _ => problems.push("'exec.mode' missing or not a concrete scheme".to_string()),
        }
        if exec.get("solve_id").and_then(Json::as_f64).is_none() {
            problems.push("'exec.solve_id' missing".to_string());
        }
    }
    if let Some(kernels) = doc.get("kernels").and_then(Json::as_arr) {
        if kernels.is_empty() {
            problems.push("'kernels' array is empty".to_string());
        }
        for k in kernels {
            if k.get("name").and_then(Json::as_str).is_none() {
                problems.push("kernel entry without 'name'".to_string());
            }
        }
    }
    if let Some(roof) = doc.get("roofline") {
        match roof.get("rows").and_then(Json::as_arr) {
            None => problems.push("'roofline.rows' is not an array".to_string()),
            Some(rows) => {
                if rows.is_empty() {
                    problems.push("'roofline.rows' is empty".to_string());
                }
                for r in rows {
                    if r.get("name").and_then(Json::as_str).is_none()
                        || r.get("ratio").and_then(Json::as_f64).is_none()
                    {
                        problems.push("roofline row without name/ratio".to_string());
                        break;
                    }
                }
            }
        }
    }
    if let Some(run) = doc.get("run") {
        // The span profile is exact only when no span was dropped, and
        // the tiny mesh fits every thread's ring.
        let dropped = run.get("dropped_spans").and_then(Json::as_f64);
        if run.get("mesh").and_then(Json::as_str) == Some("tiny") && dropped != Some(0.0) {
            problems.push(format!(
                "spans lost to ring wraparound on the tiny mesh ({dropped:?}): the span profile is not exact"
            ));
        }
    }
    if let Some(conv) = doc.get("convergence").and_then(|c| c.get("residual")) {
        if conv.as_arr().map_or(true, |a| a.is_empty()) {
            problems.push("'convergence.residual' is empty".to_string());
        }
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

    // Full span detail unless the user explicitly chose a level.
    if std::env::var("FUN3D_TELEMETRY").is_err() {
        telemetry::set_level(Level::Full);
    }

    let machine = MachineSpec::xeon_e5_2690v2();
    let mesh = build_mesh(args.mesh);
    let mut app = Fun3dApp::new(
        mesh,
        FlowConditions::default(),
        OptConfig::optimized(args.threads),
    );
    let nedges = app.geom.nedges();
    let nvertices = app.mesh.nvertices();
    let t = std::time::Instant::now();
    let (_, stats) = app.run(&PtcConfig {
        dt0: 2.0,
        rtol: 1e-8,
        max_steps: 100,
        ..Default::default()
    });
    let run_secs = t.elapsed().as_secs_f64();
    assert!(stats.converged, "run failed to converge");

    let snap = telemetry::snapshot();
    let counters = snap.merged_counters();
    let span_profile = Profile::from_snapshot(&snap);
    let times = span_profile.kernel_times();
    let flog = telemetry::flight_log();

    println!(
        "machine: edge kernels ran on {} lanes; roofline envelope is the modeled {}\n",
        fun3d_simd::active_isa(),
        machine.name
    );

    // ---- (a) per-kernel profile with achieved GB/s and intensity ----
    let mut kernel_table = Table::new(
        &format!(
            "perf_report: kernel profile ({}, {} threads, {} edges)",
            args.mesh.name(),
            args.threads,
            nedges
        ),
        &[
            "kernel", "seconds", "% of run", "calls", "GB moved", "achieved GB/s",
            "% of STREAM", "flop/byte",
        ],
    );
    let mut kernels_json = Vec::new();
    for (name, c) in counters.entries() {
        let secs = c.seconds();
        let gbs = c.achieved_gbs();
        kernel_table.row(&[
            name.to_string(),
            fmt_g(secs),
            format!("{:.1}%", 100.0 * secs / run_secs.max(1e-300)),
            c.calls.to_string(),
            fmt_g(c.bytes() as f64 / 1e9),
            if secs > 0.0 { fmt_g(gbs) } else { "-".to_string() },
            if secs > 0.0 {
                format!("{:.0}%", 100.0 * gbs / machine.stream_gbs)
            } else {
                "-".to_string()
            },
            fmt_g(c.arithmetic_intensity()),
        ]);
        kernels_json.push(Json::obj(vec![
            ("name", Json::str(*name)),
            ("seconds", Json::num(secs)),
            ("calls", Json::num(c.calls as f64)),
            ("items", Json::num(c.items as f64)),
            ("bytes_read", Json::num(c.bytes_read as f64)),
            ("bytes_written", Json::num(c.bytes_written as f64)),
            ("flops", Json::num(c.flops as f64)),
            ("achieved_gbs", Json::num(gbs)),
            ("stream_fraction", Json::num(gbs / machine.stream_gbs)),
            ("arithmetic_intensity", Json::num(c.arithmetic_intensity())),
        ]));
    }
    print!("{}", kernel_table.render());
    println!();

    // ---- (a') span profile: exact self/total time per span ----
    let span_ns: u64 = times.iter().map(|k| k.self_ns).sum();
    let mut profile_table = Table::new(
        &format!(
            "perf_report: span profile (self/total from span nesting, {} spans, {} dropped)",
            times.iter().map(|k| k.spans).sum::<u64>(),
            snap.dropped_spans()
        ),
        &["span", "self s", "total s", "spans", "% of span time"],
    );
    let mut profile_kernels = Vec::new();
    for k in &times {
        profile_table.row(&[
            k.name.to_string(),
            fmt_g(k.self_ns as f64 * 1e-9),
            fmt_g(k.total_ns as f64 * 1e-9),
            k.spans.to_string(),
            format!("{:.1}%", 100.0 * k.self_ns as f64 / span_ns.max(1) as f64),
        ]);
        profile_kernels.push(Json::obj(vec![
            ("name", Json::str(k.name)),
            ("self_seconds", Json::num(k.self_ns as f64 * 1e-9)),
            ("total_seconds", Json::num(k.total_ns as f64 * 1e-9)),
            ("spans", Json::num(k.spans as f64)),
        ]));
    }
    if times.is_empty() {
        println!("(no spans recorded — run with FUN3D_TELEMETRY=spans or full)\n");
    } else {
        print!("{}", profile_table.render());
        println!();
    }

    // ---- (a'') measured-vs-model roofline validation ----
    let envelope = Envelope {
        stream_gbs: machine.stream_gbs,
        peak_gflops: machine.peak_gflops(),
    };
    let tolerance = telemetry::ROOFLINE_TOLERANCE;
    let rows = telemetry::validate_roofline(counters.entries(), &envelope, tolerance);
    let mut roofline_table = Table::new(
        &format!(
            "perf_report: measured vs model (ridge {:.1} flop/B, tolerance {tolerance}x)",
            envelope.ridge_flops_per_byte()
        ),
        &["kernel", "bound", "measured s", "model s", "ratio", "GB/s", "flag"],
    );
    let mut roofline_json = Vec::new();
    for r in &rows {
        let flag = match r.deviation {
            Some(Deviation::Slow) => "SLOW",
            // Expected on cache-resident verification meshes: the
            // compulsory-traffic model overcounts DRAM bytes.
            Some(Deviation::Fast) => "fast (cache-resident?)",
            None => "",
        };
        roofline_table.row(&[
            r.name.clone(),
            r.bound.label().to_string(),
            fmt_g(r.seconds),
            fmt_g(r.model_seconds),
            format!("{:.2}", r.ratio),
            fmt_g(r.achieved_gbs),
            flag.to_string(),
        ]);
        roofline_json.push(Json::obj(vec![
            ("name", Json::str(r.name.as_str())),
            ("bound", Json::str(r.bound.label())),
            ("seconds", Json::num(r.seconds)),
            ("model_seconds", Json::num(r.model_seconds)),
            ("ratio", Json::num(r.ratio)),
            ("achieved_gbs", Json::num(r.achieved_gbs)),
            ("achieved_gflops", Json::num(r.achieved_gflops)),
            (
                "deviation",
                match r.deviation {
                    Some(Deviation::Slow) => Json::str("slow"),
                    Some(Deviation::Fast) => Json::str("fast"),
                    None => Json::Null,
                },
            ),
        ]));
    }
    let slow_flags = rows
        .iter()
        .filter(|r| r.deviation == Some(Deviation::Slow))
        .count();
    print!("{}", roofline_table.render());
    if slow_flags > 0 {
        println!(
            "WARNING: {slow_flags} kernel(s) more than {tolerance}x off the model floor — \
             the traffic model is missing something (latency, imbalance, false sharing)"
        );
    }
    println!();

    // ---- (b) per-thread utilization / load imbalance ----
    let busy = snap.per_thread_span_seconds("pool.region");
    let mut thread_table = Table::new(
        "perf_report: worker utilization (pool.region busy spans)",
        &["thread", "busy s", "utilization", "regions"],
    );
    let mut threads_json = Vec::new();
    let max_busy = busy.iter().map(|(_, s, _)| *s).fold(0.0f64, f64::max);
    let mean_busy = if busy.is_empty() {
        0.0
    } else {
        busy.iter().map(|(_, s, _)| *s).sum::<f64>() / busy.len() as f64
    };
    for (label, secs, n) in &busy {
        thread_table.row(&[
            label.clone(),
            fmt_g(*secs),
            format!("{:.1}%", 100.0 * secs / run_secs.max(1e-300)),
            n.to_string(),
        ]);
        threads_json.push(Json::obj(vec![
            ("label", Json::str(label.as_str())),
            ("busy_seconds", Json::num(*secs)),
            ("regions", Json::num(*n as f64)),
        ]));
    }
    // load imbalance: max/mean busy time across workers (1.0 = perfect)
    let imbalance = if mean_busy > 0.0 { max_busy / mean_busy } else { 1.0 };
    if busy.is_empty() {
        println!("(no worker spans recorded — run with FUN3D_TELEMETRY=spans or full)\n");
    } else {
        print!("{}", thread_table.render());
        println!("load imbalance (max/mean busy): {imbalance:.3}\n");
    }

    // ---- (b') synchronization cost: region launches + barriers ----
    // The persistent-region work is judged by exactly these two numbers:
    // how many fork-join region launches the run needed, and how many
    // barrier phases replaced them inside persistent regions.
    let region_launches = counters.get("pool.launch").map_or(0, |c| c.calls);
    let barrier_crossings = counters.get("barrier.phase").map_or(0, |c| c.calls);
    let regions_per_linear = region_launches as f64 / stats.linear_iters.max(1) as f64;
    println!(
        "synchronization: {region_launches} region launches, {barrier_crossings} barrier \
         crossings, {regions_per_linear:.2} regions per linear iteration\n"
    );

    // ---- (c) convergence history (the solve's ptc_step events) ----
    let history = flog.convergence(stats.solve_id);
    let mut conv_table = Table::new(
        "perf_report: PTC convergence history",
        &["step", "residual", "dt", "eta", "gmres iters"],
    );
    for &(step, res, dt, iters, eta) in &history {
        conv_table.row(&[
            step.to_string(),
            fmt_g(res),
            fmt_g(dt),
            fmt_g(eta),
            iters.to_string(),
        ]);
    }
    print!("{}", conv_table.render());
    println!(
        "\nrun: {} time steps, {} linear iterations, {:.3} s wall",
        stats.time_steps, stats.linear_iters, run_secs
    );

    // ---- (c') executed scheme + policy evidence (flight recorder) ----
    // `stats.exec` is the scheme the last linear solve actually ran;
    // under `ExecMode::Auto` the flight log holds the policy decision
    // (modeled serial/parallel seconds, crossover) and the sync-cost
    // calibration that produced it — the audit trail for WHY that
    // scheme ran, not just which.
    let mut policy_json = Json::Null;
    let mut probe_json = Json::Null;
    for e in &flog.events {
        match e.kind {
            telemetry::EventKind::PolicyDecision {
                chosen,
                unknowns,
                nt,
                serial_s,
                parallel_s,
                crossover,
            } if e.solve == stats.solve_id => {
                policy_json = Json::obj(vec![
                    ("chosen", Json::str(chosen.name())),
                    ("unknowns", Json::num(unknowns as f64)),
                    ("nt", Json::num(nt as f64)),
                    ("serial_s", telemetry::json_f64(serial_s)),
                    ("parallel_s", telemetry::json_f64(parallel_s)),
                    (
                        "crossover_unknowns",
                        if crossover == telemetry::NO_CROSSOVER {
                            Json::Null
                        } else {
                            Json::num(crossover as f64)
                        },
                    ),
                ]);
            }
            telemetry::EventKind::SyncProbe {
                pool_size,
                region_launch_s,
                barrier_phase_s,
            } => {
                probe_json = Json::obj(vec![
                    ("pool_size", Json::num(pool_size as f64)),
                    ("region_launch_s", telemetry::json_f64(region_launch_s)),
                    ("barrier_phase_s", telemetry::json_f64(barrier_phase_s)),
                ]);
            }
            _ => {}
        }
    }
    println!(
        "execution: scheme '{}' ran (solve {}, policy decision {}, sync probe {})",
        stats.exec,
        stats.solve_id,
        if matches!(policy_json, Json::Null) { "absent" } else { "recorded" },
        if matches!(probe_json, Json::Null) { "absent" } else { "recorded" },
    );
    let exec_json = Json::obj(vec![
        ("mode", Json::str(stats.exec)),
        ("solve_id", Json::num(stats.solve_id as f64)),
        ("policy", policy_json),
        ("sync_probe", probe_json),
    ]);

    // ---- (d) machine-readable artifacts ----
    let dropped = snap.dropped_spans();
    if dropped > 0 {
        println!("note: {dropped} spans lost to ring wraparound: the span profile is incomplete");
    }
    let summary = Json::obj(vec![
        (
            "machine",
            Json::obj(vec![
                ("name", Json::str(machine.name)),
                ("isa", Json::str(fun3d_simd::active_isa())),
                ("stream_gbs", Json::num(machine.stream_gbs)),
                ("peak_gflops", Json::num(machine.peak_gflops())),
            ]),
        ),
        (
            "run",
            Json::obj(vec![
                ("mesh", Json::str(args.mesh.name())),
                ("threads", Json::num(args.threads as f64)),
                ("edges", Json::num(nedges as f64)),
                ("vertices", Json::num(nvertices as f64)),
                ("wall_seconds", Json::num(run_secs)),
                ("time_steps", Json::num(stats.time_steps as f64)),
                ("linear_iters", Json::num(stats.linear_iters as f64)),
                ("converged", Json::Bool(stats.converged)),
                ("load_imbalance", Json::num(imbalance)),
                ("region_launches", Json::num(region_launches as f64)),
                ("barrier_crossings", Json::num(barrier_crossings as f64)),
                ("regions_per_linear_iter", Json::num(regions_per_linear)),
                ("dropped_spans", Json::num(dropped as f64)),
                (
                    "telemetry_level",
                    Json::str(format!("{:?}", telemetry::level())),
                ),
            ]),
        ),
        ("exec", exec_json),
        ("kernels", Json::Arr(kernels_json)),
        (
            "roofline",
            Json::obj(vec![
                ("stream_gbs", Json::num(envelope.stream_gbs)),
                ("peak_gflops", Json::num(envelope.peak_gflops)),
                (
                    "ridge_flops_per_byte",
                    Json::num(envelope.ridge_flops_per_byte()),
                ),
                ("tolerance", Json::num(tolerance)),
                ("rows", Json::Arr(roofline_json)),
            ]),
        ),
        (
            "profile",
            Json::obj(vec![
                ("dropped_spans", Json::num(dropped as f64)),
                ("kernels", Json::Arr(profile_kernels)),
            ]),
        ),
        ("threads", Json::Arr(threads_json)),
        (
            "convergence",
            Json::obj(vec![
                (
                    "residual",
                    Json::Arr(history.iter().map(|h| telemetry::json_f64(h.1)).collect()),
                ),
                (
                    "dt",
                    Json::Arr(history.iter().map(|h| telemetry::json_f64(h.2)).collect()),
                ),
                (
                    "eta",
                    Json::Arr(history.iter().map(|h| telemetry::json_f64(h.4)).collect()),
                ),
                (
                    "gmres_iters",
                    Json::Arr(history.iter().map(|h| Json::num(h.3 as f64)).collect()),
                ),
            ]),
        ),
    ]);
    let dir = experiments_dir();
    match write_json(&dir, "perf_report", &summary) {
        Ok(p) => println!("[json summary written to {}]", p.display()),
        Err(e) => eprintln!("warning: could not write json summary: {e}"),
    }
    match write_trace(&dir, &snap) {
        Ok(p) => println!("[chrome trace written to {} — open in Perfetto]", p.display()),
        Err(e) => eprintln!("warning: could not write trace: {e}"),
    }
    if !span_profile.stacks.is_empty() {
        let folded_path = dir.join("perf_report.folded");
        match std::fs::write(&folded_path, telemetry::folded(&span_profile)) {
            Ok(()) => println!(
                "[folded stacks written to {} — flamegraph.pl/inferno input]",
                folded_path.display()
            ),
            Err(e) => eprintln!("warning: could not write folded stacks: {e}"),
        }
        let scope = telemetry::speedscope(
            &span_profile,
            &format!("perf_report {} {}t", args.mesh.name(), args.threads),
        );
        match write_json(&dir, "perf_report.speedscope", &scope) {
            Ok(p) => println!("[speedscope profile written to {} — open at speedscope.app]", p.display()),
            Err(e) => eprintln!("warning: could not write speedscope profile: {e}"),
        }
    }
}

fn write_trace(dir: &std::path::Path, snap: &Snapshot) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("perf_report.trace.json");
    std::fs::write(&path, telemetry::render_chrome_trace(snap))?;
    Ok(path)
}
