//! **sync_ablation** — synchronization-cost ablation for the solver,
//! across the mesh-size trajectory.
//!
//! Region-per-op GMRES launches a pool region (a full fork-join
//! rendezvous) for *every* vector op, SpMV, and triangular sweep;
//! persistent-SPMD-region GMRES runs each Arnoldi iteration inside ONE
//! region with spin-barrier phases and tree reductions inside. The two
//! run the same operations — `GmresExec::PerOp` is the team backend with
//! one region per operation, kept in the solver for this bench and the
//! bitwise tests only, no longer a mode an application can select — so
//! they are bitwise identical at a fixed thread count and any timing
//! difference is pure synchronization cost: the shared-memory analogue
//! of the paper's collectives discussion (the `MPI_Allreduce`-bound
//! vector ops of Table 3).
//!
//! This bench is size-aware: it sweeps a *list* of mesh presets
//! (tiny → medium → large covers ~10³–10⁵·4 unknowns), because the
//! thread-scaling story inverts with problem size — below the
//! sync-cost crossover, every parallel scheme loses to plain serial
//! execution. For each mesh it runs the production modes (`serial`,
//! `team`, and the adaptive `auto` policy) and the `per-op` reference at
//! each thread count and
//! reports every row's speedup against the nt=1 **serial** baseline, so
//! absolute slowdowns are visible (a per-op-relative speedup would mask
//! them).
//!
//! Emits, per mesh / thread count / mode:
//!
//! * median and MAD of the per-GMRES-iteration wall time, total wall
//!   seconds, and the per-config wall budget;
//! * pool regions launched per GMRES iteration;
//! * `speedup_vs_nt1_serial` (absolute, serial-anchored);
//!
//! plus a per-mesh `scaling` section (best-mode speedup vs nt=1 and the
//! modeled crossover size) and writes
//! `target/experiments/sync_ablation.json`.
//!
//! Usage: `sync_ablation [--meshes a,b,c] [--threads 1,2,4] [--reps n]
//! [--check <file>]`

use fun3d_bench::{jacobian_fixture, KernelFixture};
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::{AutoPolicy, Gmres, GmresConfig, GmresExec, SerialIlu};
use fun3d_threads::ThreadPool;
use fun3d_util::report::{experiments_dir, fmt_g, write_json, Table};
use fun3d_util::telemetry::json::Json;
use std::sync::Arc;

struct Args {
    meshes: Vec<MeshPreset>,
    threads: Vec<usize>,
    reps: usize,
    check: Option<String>,
}

fn parse_mesh_list(s: &str) -> Vec<MeshPreset> {
    s.split(',')
        .map(|m| {
            MeshPreset::parse(m.trim())
                .unwrap_or_else(|| panic!("unknown mesh preset '{m}'"))
        })
        .collect()
}

fn parse_args() -> Args {
    let mut out = Args {
        meshes: vec![MeshPreset::Tiny],
        threads: vec![1, 2, 4],
        reps: 5,
        check: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            // --mesh kept as a single-mesh alias of --meshes
            "--meshes" | "--mesh" => {
                i += 1;
                out.meshes = parse_mesh_list(&args[i]);
            }
            "--threads" => {
                i += 1;
                out.threads = args[i]
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes integers"))
                    .collect();
            }
            "--reps" => {
                i += 1;
                out.reps = args[i].parse().expect("--reps takes an integer");
            }
            "--check" => {
                i += 1;
                out.check = Some(args[i].clone());
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --meshes <tiny,small,medium,large> --threads <1,2,4> \
                     --reps <n> --check <json>"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    assert!(!out.meshes.is_empty(), "--meshes list is empty");
    assert!(
        out.threads.contains(&1),
        "--threads must include 1 (the scaling baseline)"
    );
    out
}

/// (median, MAD) of a sample set; MAD is reported in the same units.
fn median_mad(samples: &mut [f64]) -> (f64, f64) {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let med = samples[samples.len() / 2];
    let mut dev: Vec<f64> = samples.iter().map(|s| (s - med).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (med, dev[dev.len() / 2])
}

/// Per-config wall budget, seconds: room for `reps` solves of a
/// memory-bound system this size on a ~few-GB/s core, with a floor for
/// tiny fixtures. Overruns are reported (and recorded), not fatal —
/// the budget is the signal that a mesh is too big for its tier.
fn wall_budget_s(unknowns: usize, reps: usize) -> f64 {
    reps as f64 * (2e-4 * unknowns as f64).max(2.0)
}

struct ModeResult {
    /// Configured mode ("serial" | "per-op" | "team" | "auto").
    mode: &'static str,
    /// Concrete scheme that actually ran (differs from `mode` only for
    /// auto, which resolves per solve).
    exec: &'static str,
    threads: usize,
    iterations: usize,
    median_iter_s: f64,
    mad_iter_s: f64,
    regions_per_iter: f64,
    wall_s: f64,
    budget_s: f64,
    history: Vec<f64>,
}

struct ScalingRow {
    threads: usize,
    speedup_vs_nt1: f64,
    best_mode: &'static str,
    crossover_unknowns: Option<usize>,
    above_crossover: bool,
}

struct MeshReport {
    mesh: MeshPreset,
    unknowns: usize,
    rows: Vec<ModeResult>,
    scaling: Vec<ScalingRow>,
}

fn run_mesh(mesh: MeshPreset, threads: &[usize], reps: usize) -> MeshReport {
    // Fixture: the assembled first-step Jacobian and its ILU(1) factors —
    // the actual linear system the ΨNKS solve spends its time in.
    let fix = KernelFixture::new(mesh);
    let jac = jacobian_fixture(&fix, 2.0);
    let n = jac.dim();
    let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) * 0.1).collect();
    let cfg = GmresConfig {
        rtol: 1e-10,
        max_iters: 400,
        ..Default::default()
    };
    let budget_s = wall_budget_s(n, reps);

    let mut rows: Vec<ModeResult> = Vec::new();
    let mut run = |mode: &'static str, nt: usize, pool: Option<&Arc<ThreadPool>>, ilu: &SerialIlu| {
        let mut samples = Vec::with_capacity(reps);
        let mut iterations = 0usize;
        let mut regions_per_iter = 0.0f64;
        let mut history = Vec::new();
        let mut exec_name = "serial";
        let wall = std::time::Instant::now();
        for _ in 0..reps {
            let mut x = vec![0.0; n];
            let mut gmres = Gmres::new(n, cfg);
            let exec = match (mode, pool) {
                ("serial", _) | (_, None) => GmresExec::Serial,
                ("per-op", Some(p)) => GmresExec::PerOp(p),
                ("team", Some(p)) => GmresExec::Team(p),
                (_, Some(p)) => GmresExec::Auto(p),
            };
            let regions_before = pool.map_or(0, |p| p.regions_launched());
            let t = std::time::Instant::now();
            let res = gmres.solve_with(&jac, ilu, &b, &mut x, exec);
            let secs = t.elapsed().as_secs_f64();
            let regions = pool.map_or(0, |p| p.regions_launched()) - regions_before;
            iterations = res.iterations;
            samples.push(secs / res.iterations.max(1) as f64);
            regions_per_iter = regions as f64 / res.iterations.max(1) as f64;
            exec_name = res.exec;
            history = res.history;
        }
        let wall_s = wall.elapsed().as_secs_f64();
        if wall_s > budget_s {
            eprintln!(
                "warning: {} {mode}@{nt}t took {wall_s:.1}s, over its {budget_s:.1}s budget",
                mesh.name()
            );
        }
        let (median_iter_s, mad_iter_s) = median_mad(&mut samples);
        rows.push(ModeResult {
            mode,
            exec: exec_name,
            threads: nt,
            iterations,
            median_iter_s,
            mad_iter_s,
            regions_per_iter,
            wall_s,
            budget_s,
            history,
        });
    };

    // The absolute baseline: plain serial execution, no pool at all.
    let serial_ilu = SerialIlu::new(&jac, 1);
    run("serial", 1, None, &serial_ilu);
    let mut scaling: Vec<ScalingRow> = Vec::new();
    let mut crossovers: Vec<(usize, Option<usize>)> = Vec::new();
    for &nt in threads {
        let pool = Arc::new(ThreadPool::new(nt));
        // Warm the policy's calibration cache before the timed reps:
        // the probe is a one-time per-process cost, not a per-solve
        // cost, and must not pollute the auto row's median.
        let policy = AutoPolicy::for_pool(&pool);
        let ilu = SerialIlu::new(&jac, 1).with_levels(pool.clone());
        for mode in ["per-op", "team"] {
            run(mode, nt, Some(&pool), &ilu);
        }
        // The auto row models a size-aware application: when the policy
        // resolves to serial, the pooled preconditioner is dropped too
        // (level-scheduled and serial sweeps are bitwise identical, so
        // the cross-mode history checks still hold).
        let auto_ilu = if policy.choose(n, nt) == fun3d_solver::ExecMode::Serial {
            &serial_ilu
        } else {
            &ilu
        };
        run("auto", nt, Some(&pool), auto_ilu);
        crossovers.push((nt, policy.crossover_unknowns(nt)));
    }

    // Sanity 1: per-op and team must agree bitwise at each thread count
    // (the "pure synchronization cost" claim — fail loudly if the
    // numerics ever drift).
    for &nt in threads {
        let find = |mode: &str| {
            rows.iter()
                .find(|r| r.mode == mode && r.threads == nt)
                .unwrap()
        };
        assert_eq!(
            find("per-op").history,
            find("team").history,
            "per-op and team histories diverged at {nt} threads ({})",
            mesh.name()
        );
        // Sanity 2: auto must be bitwise identical to the concrete mode
        // it reports having selected.
        let auto = find("auto");
        let reference = rows
            .iter()
            .find(|r| r.mode == auto.exec && (r.threads == nt || auto.exec == "serial"))
            .unwrap_or_else(|| panic!("auto selected unknown mode '{}'", auto.exec));
        assert_eq!(
            auto.history,
            reference.history,
            "auto diverged from its selected mode '{}' at {nt} threads ({})",
            auto.exec,
            mesh.name()
        );
    }

    // The scaling rows: best mode at nt vs best mode at the nt=1
    // baseline (serial included), per thread count.
    let best_at = |nt: usize| {
        rows.iter()
            .filter(|r| r.threads == nt)
            .min_by(|a, b| a.median_iter_s.partial_cmp(&b.median_iter_s).unwrap())
            .unwrap()
    };
    let best1 = best_at(1).median_iter_s;
    for &(nt, crossover) in &crossovers {
        if nt == 1 {
            continue;
        }
        let best = best_at(nt);
        scaling.push(ScalingRow {
            threads: nt,
            speedup_vs_nt1: best1 / best.median_iter_s,
            best_mode: best.mode,
            crossover_unknowns: crossover,
            above_crossover: crossover.is_some_and(|c| n >= c),
        });
    }

    MeshReport {
        mesh,
        unknowns: n,
        rows,
        scaling,
    }
}

/// `--check` mode: the artifact rot guard run by scripts/verify.sh.
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
    for key in ["reps", "thread_counts", "machine", "meshes"] {
        if doc.get(key).is_none() {
            problems.push(format!("missing key '{key}'"));
        }
    }
    let meshes = doc.get("meshes").and_then(Json::as_arr);
    match meshes {
        None => problems.push("'meshes' is not an array".to_string()),
        Some(ms) if ms.is_empty() => problems.push("'meshes' array is empty".to_string()),
        Some(ms) => {
            for m in ms {
                check_mesh(m, &mut problems);
            }
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

fn check_mesh(m: &Json, problems: &mut Vec<String>) {
    let name = m
        .get("mesh")
        .and_then(Json::as_str)
        .unwrap_or("<unnamed>")
        .to_string();
    match m.get("unknowns").and_then(Json::as_f64) {
        Some(u) if u > 0.0 => {}
        _ => problems.push(format!("{name}: missing/non-positive 'unknowns'")),
    }
    let Some(cfgs) = m.get("configs").and_then(Json::as_arr) else {
        problems.push(format!("{name}: 'configs' is not an array"));
        return;
    };
    if cfgs.is_empty() {
        problems.push(format!("{name}: 'configs' array is empty"));
    }
    let mut per_op = std::collections::BTreeMap::new();
    let mut team = std::collections::BTreeMap::new();
    let mut has_serial = false;
    for c in cfgs {
        let threads = c.get("threads").and_then(Json::as_f64);
        let mode = c.get("mode").and_then(Json::as_str);
        let rpi = c.get("regions_per_iter").and_then(Json::as_f64);
        let med = c.get("median_iter_seconds").and_then(Json::as_f64);
        let speedup = c.get("speedup_vs_nt1_serial").and_then(Json::as_f64);
        let budget = c.get("wall_budget_seconds").and_then(Json::as_f64);
        match (threads, mode, rpi, med) {
            (Some(t), Some(mode), Some(rpi), Some(med)) => {
                if med <= 0.0 {
                    problems.push(format!("{name}: non-positive median at {t} threads"));
                }
                match speedup {
                    Some(s) if s > 0.0 => {}
                    _ => problems.push(format!(
                        "{name}: {mode}@{t}t missing/non-positive 'speedup_vs_nt1_serial'"
                    )),
                }
                if !matches!(budget, Some(b) if b > 0.0) {
                    problems.push(format!(
                        "{name}: {mode}@{t}t missing/non-positive 'wall_budget_seconds'"
                    ));
                }
                match mode {
                    "serial" => has_serial = true,
                    "per-op" => {
                        per_op.insert(t as usize, rpi);
                    }
                    "team" => {
                        team.insert(t as usize, rpi);
                    }
                    // auto's regions/iter track whatever mode it picked
                    "auto" => {}
                    other => problems.push(format!("{name}: unknown mode '{other}'")),
                }
            }
            _ => problems.push(format!("{name}: malformed config entry")),
        }
    }
    if !has_serial {
        problems.push(format!("{name}: no serial baseline row"));
    }
    // The structural claim of the experiment: persistent regions
    // collapse the fork-join count to ~1 per iteration, strictly
    // below the per-op count at every thread count.
    for (t, team_rpi) in &team {
        match per_op.get(t) {
            None => problems.push(format!("{name}: no per-op row for {t} threads")),
            Some(po_rpi) => {
                if team_rpi >= po_rpi {
                    problems.push(format!(
                        "{name}: team regions/iter {team_rpi} not below per-op {po_rpi} at {t} threads"
                    ));
                }
                if *team_rpi > 1.5 {
                    problems.push(format!(
                        "{name}: team regions/iter {team_rpi} at {t} threads (expected ~1)"
                    ));
                }
            }
        }
    }
    if team.is_empty() {
        problems.push(format!("{name}: no team rows"));
    }
    // The scaling section: one row per parallel thread count with a
    // positive best-mode speedup and the crossover verdict.
    match m.get("scaling").and_then(Json::as_arr) {
        None => problems.push(format!("{name}: 'scaling' is not an array")),
        Some(rows) => {
            if rows.is_empty() {
                problems.push(format!("{name}: 'scaling' array is empty"));
            }
            for r in rows {
                let t = r.get("threads").and_then(Json::as_f64);
                let s = r.get("speedup_vs_nt1").and_then(Json::as_f64);
                let above = matches!(r.get("above_crossover"), Some(Json::Bool(_)));
                match (t, s) {
                    (Some(_), Some(s)) if s > 0.0 && above => {}
                    _ => problems.push(format!("{name}: malformed scaling row")),
                }
            }
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check {
        check_artifact(path);
    }

    let reports: Vec<MeshReport> = args
        .meshes
        .iter()
        .map(|&mesh| run_mesh(mesh, &args.threads, args.reps))
        .collect();

    let mut meshes_json = Vec::new();
    for rep in &reports {
        let mut table = Table::new(
            &format!(
                "sync_ablation: GMRES iteration cost by execution scheme \
                 ({}, {} unknowns, {} reps)",
                rep.mesh.name(),
                rep.unknowns,
                args.reps
            ),
            &[
                "threads",
                "mode",
                "exec",
                "iters",
                "s/iter (median)",
                "MAD",
                "regions/iter",
                "vs nt1 serial",
            ],
        );
        let serial_med = rep
            .rows
            .iter()
            .find(|r| r.mode == "serial")
            .expect("serial baseline row")
            .median_iter_s;
        let mut configs_json = Vec::new();
        for r in &rep.rows {
            let speedup_vs_serial = serial_med / r.median_iter_s;
            table.row(&[
                r.threads.to_string(),
                r.mode.to_string(),
                r.exec.to_string(),
                r.iterations.to_string(),
                fmt_g(r.median_iter_s),
                fmt_g(r.mad_iter_s),
                format!("{:.2}", r.regions_per_iter),
                format!("{speedup_vs_serial:.2}x"),
            ]);
            configs_json.push(Json::obj(vec![
                ("threads", Json::num(r.threads as f64)),
                ("mode", Json::str(r.mode)),
                ("exec", Json::str(r.exec)),
                ("iterations", Json::num(r.iterations as f64)),
                ("median_iter_seconds", Json::num(r.median_iter_s)),
                ("mad_iter_seconds", Json::num(r.mad_iter_s)),
                ("regions_per_iter", Json::num(r.regions_per_iter)),
                ("speedup_vs_nt1_serial", Json::num(speedup_vs_serial)),
                ("wall_seconds", Json::num(r.wall_s)),
                ("wall_budget_seconds", Json::num(r.budget_s)),
            ]));
        }
        fun3d_bench::emit(&format!("sync_ablation[{}]", rep.mesh.name()), &table);
        let scaling_json: Vec<Json> = rep
            .scaling
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("threads", Json::num(s.threads as f64)),
                    ("speedup_vs_nt1", Json::num(s.speedup_vs_nt1)),
                    ("best_mode", Json::str(s.best_mode)),
                    (
                        "crossover_unknowns",
                        s.crossover_unknowns
                            .map_or(Json::Null, |c| Json::num(c as f64)),
                    ),
                    ("above_crossover", Json::Bool(s.above_crossover)),
                ])
            })
            .collect();
        meshes_json.push(Json::obj(vec![
            ("mesh", Json::str(rep.mesh.name())),
            ("unknowns", Json::num(rep.unknowns as f64)),
            ("configs", Json::Arr(configs_json)),
            ("scaling", Json::Arr(scaling_json)),
        ]));
    }

    // Machine section: what the Auto policy saw (cores + the measured
    // sync costs + modeled crossover per thread count).
    let machine_scaling: Vec<Json> = args
        .threads
        .iter()
        .filter(|&&nt| nt > 1)
        .map(|&nt| {
            let pool = ThreadPool::new(nt);
            let p = AutoPolicy::for_pool(&pool);
            Json::obj(vec![
                ("threads", Json::num(nt as f64)),
                ("region_launch_seconds", Json::num(p.region_launch_s)),
                ("barrier_phase_seconds", Json::num(p.barrier_phase_s)),
                (
                    "crossover_unknowns",
                    p.crossover_unknowns(nt)
                        .map_or(Json::Null, |c| Json::num(c as f64)),
                ),
            ])
        })
        .collect();
    let machine = Json::obj(vec![
        (
            "effective_cores",
            Json::num(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as f64,
            ),
        ),
        ("scaling", Json::Arr(machine_scaling)),
    ]);

    let summary = Json::obj(vec![
        ("reps", Json::num(args.reps as f64)),
        (
            "thread_counts",
            Json::Arr(args.threads.iter().map(|&t| Json::num(t as f64)).collect()),
        ),
        ("machine", machine),
        ("meshes", Json::Arr(meshes_json)),
    ]);
    let dir = experiments_dir();
    match write_json(&dir, "sync_ablation", &summary) {
        Ok(p) => println!("[json summary written to {}]", p.display()),
        Err(e) => eprintln!("warning: could not write json summary: {e}"),
    }
}
