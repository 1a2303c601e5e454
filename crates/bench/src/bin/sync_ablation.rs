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
//! each thread count and reports every row's speedup against the
//! **serial** solve, so absolute slowdowns are visible (a per-op-relative
//! speedup would mask them). The threaded rows apply the ILU factors through the P2P
//! schedule, the recurrence the application runs.
//!
//! Each thread count is measured in interleaved rounds (as `fig6a` and
//! `fig7a` are): one solve of serial, per-op, team and auto per round
//! after a warm-up round, so host drift lands on every mode alike, and a
//! row's speedup is its best round against the serial solve's best round
//! *of the same rounds*.
//!
//! Emits, per mesh / thread count / mode:
//!
//! * best, median and MAD of the per-GMRES-iteration wall time, total
//!   wall seconds, and the per-config wall budget;
//! * pool regions launched per GMRES iteration;
//! * `speedup_vs_nt1_serial` (absolute, serial-anchored);
//!
//! plus a per-mesh `scaling` section (best-mode speedup vs serial and the
//! modeled crossover size) and writes
//! `target/experiments/sync_ablation.json`.
//!
//! `--check <file>` validates an artifact and holds it to the
//! speedup-vs-threads rule: above the modeled crossover, threads > 1 must
//! beat serial. The rule judges only rows whose thread count fits the
//! recorded `machine.effective_cores`; an oversubscribed row says nothing
//! about the solver.
//!
//! Usage: `sync_ablation [--meshes a,b,c] [--threads 1,2,4] [--reps n]
//! [--check <file>]`

use fun3d_bench::report::{experiments_dir, fmt_g, write_json, Table};
use fun3d_bench::{jacobian_fixture, KernelFixture};
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::{AutoPolicy, Gmres, GmresConfig, GmresExec, SerialIlu};
use fun3d_threads::ThreadPool;
use fun3d_util::{mad, median, telemetry::Json};
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
    /// Fastest round, the statistic every speedup is taken from.
    best_iter_s: f64,
    median_iter_s: f64,
    mad_iter_s: f64,
    /// Serial solve's best round of the same rounds over `best_iter_s`.
    speedup_vs_serial: f64,
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

    // One timed solve of `mode`; returns (seconds per iteration, regions
    // per iteration, result).
    let solve = |mode: &str, pool: Option<&Arc<ThreadPool>>, ilu: &SerialIlu| {
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
        let iters = res.iterations.max(1) as f64;
        (secs / iters, regions as f64 / iters, res)
    };

    let serial_ilu = SerialIlu::new(&jac, 1);
    let mut rows: Vec<ModeResult> = Vec::new();
    let mut scaling: Vec<ScalingRow> = Vec::new();
    for &nt in threads {
        let pool = Arc::new(ThreadPool::new(nt));
        // Warm the policy's calibration cache before the timed rounds:
        // the probe is a one-time per-process cost, not a per-solve cost.
        let policy = AutoPolicy::for_pool(&pool);
        let ilu = SerialIlu::new(&jac, 1).with_p2p(pool.clone());
        // The auto row models a size-aware application: when the policy
        // resolves to serial, the pooled preconditioner is dropped too
        // (P2P and serial sweeps are bitwise identical, so the cross-mode
        // history checks still hold).
        let auto_ilu = if policy.choose(n, nt) == fun3d_solver::ExecMode::Serial {
            &serial_ilu
        } else {
            &ilu
        };
        // The serial solve rides every thread count's rounds as the
        // baseline of that count's speedups; its own row comes from nt=1.
        let variants = [
            ("serial", None, &serial_ilu),
            ("per-op", Some(&pool), &ilu),
            ("team", Some(&pool), &ilu),
            ("auto", Some(&pool), auto_ilu),
        ];
        let mut samples: [Vec<f64>; 4] = Default::default();
        let mut walls = [0.0f64; 4];
        let mut last = Vec::new();
        for round in 0..=reps {
            last.clear();
            for (v, &(mode, pool, ilu)) in variants.iter().enumerate() {
                let wall = std::time::Instant::now();
                let (per_iter, regions_per_iter, res) = solve(mode, pool, ilu);
                // round 0 is the warm-up
                if round > 0 {
                    samples[v].push(per_iter);
                    walls[v] += wall.elapsed().as_secs_f64();
                }
                last.push((regions_per_iter, res));
            }
        }
        let best = |v: usize| samples[v].iter().copied().fold(f64::INFINITY, f64::min);
        for (v, (&(mode, _, _), (regions_per_iter, res))) in variants.iter().zip(last).enumerate() {
            if mode == "serial" && nt != 1 {
                continue;
            }
            if walls[v] > budget_s {
                eprintln!(
                    "warning: {} {mode}@{nt}t took {:.1}s, over its {budget_s:.1}s budget",
                    mesh.name(),
                    walls[v]
                );
            }
            rows.push(ModeResult {
                mode,
                exec: res.exec,
                threads: nt,
                iterations: res.iterations,
                best_iter_s: best(v),
                median_iter_s: median(&samples[v]),
                mad_iter_s: mad(&samples[v]),
                speedup_vs_serial: best(0) / best(v),
                regions_per_iter,
                wall_s: walls[v],
                budget_s,
                history: res.history,
            });
        }
        if nt > 1 {
            let fastest = rows
                .iter()
                .filter(|r| r.threads == nt)
                .max_by(|a, b| a.speedup_vs_serial.total_cmp(&b.speedup_vs_serial))
                .unwrap();
            let crossover = policy.crossover_unknowns(nt);
            scaling.push(ScalingRow {
                threads: nt,
                speedup_vs_nt1: fastest.speedup_vs_serial,
                best_mode: fastest.mode,
                crossover_unknowns: crossover,
                above_crossover: crossover.is_some_and(|c| n >= c),
            });
        }
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

    MeshReport {
        mesh,
        unknowns: n,
        rows,
        scaling,
    }
}

/// `--check` mode: the artifact rot guard and the speedup-vs-threads
/// rule, run by scripts/verify.sh.
fn check_artifact(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check failed: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("check failed: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let problems = check_doc(&doc);
    if problems.is_empty() {
        println!("{path}: OK");
        std::process::exit(0);
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    std::process::exit(1);
}

/// Everything wrong with an artifact; empty when it passes.
fn check_doc(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    for key in ["reps", "thread_counts", "machine", "meshes"] {
        if doc.get(key).is_none() {
            problems.push(format!("missing key '{key}'"));
        }
    }
    let cores = doc
        .get("machine")
        .and_then(|m| m.get("effective_cores"))
        .and_then(Json::as_f64);
    if !matches!(cores, Some(c) if c >= 1.0) {
        problems.push("missing/non-positive 'machine.effective_cores'".to_string());
    }
    let meshes = doc.get("meshes").and_then(Json::as_arr);
    match meshes {
        None => problems.push("'meshes' is not an array".to_string()),
        Some(ms) if ms.is_empty() => problems.push("'meshes' array is empty".to_string()),
        Some(ms) => {
            for m in ms {
                check_mesh(m, cores.unwrap_or(0.0), &mut problems);
            }
        }
    }
    problems
}

fn check_mesh(m: &Json, cores: f64, problems: &mut Vec<String>) {
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
    // positive best-mode speedup and the crossover verdict, held to the
    // speedup-vs-threads rule: above the modeled crossover, threads > 1
    // must beat serial. Only rows that fit the recorded cores are
    // judged; an oversubscribed pool measures the scheduler.
    match m.get("scaling").and_then(Json::as_arr) {
        None => problems.push(format!("{name}: 'scaling' is not an array")),
        Some(rows) => {
            if rows.is_empty() {
                problems.push(format!("{name}: 'scaling' array is empty"));
            }
            for r in rows {
                let t = r.get("threads").and_then(Json::as_f64);
                let s = r.get("speedup_vs_nt1").and_then(Json::as_f64);
                let above = match r.get("above_crossover") {
                    Some(Json::Bool(above)) => Some(*above),
                    _ => None,
                };
                match (t, s, above) {
                    (Some(t), Some(s), Some(above)) if s > 0.0 => {
                        if t > cores {
                            println!(
                                "{name}: {t} threads on {cores} cores ({s:.2}x): not judged"
                            );
                        } else if above && s <= 1.0 {
                            problems.push(format!(
                                "{name}: {t} threads not faster than serial above the \
                                 crossover (speedup {s:.2}x, the thread-scaling inversion)"
                            ));
                        }
                    }
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
                "s/iter (best)",
                "median",
                "MAD",
                "regions/iter",
                "vs serial",
            ],
        );
        let mut configs_json = Vec::new();
        for r in &rep.rows {
            table.row(&[
                r.threads.to_string(),
                r.mode.to_string(),
                r.exec.to_string(),
                r.iterations.to_string(),
                fmt_g(r.best_iter_s),
                fmt_g(r.median_iter_s),
                fmt_g(r.mad_iter_s),
                format!("{:.2}", r.regions_per_iter),
                format!("{:.2}x", r.speedup_vs_serial),
            ]);
            configs_json.push(Json::obj(vec![
                ("threads", Json::num(r.threads as f64)),
                ("mode", Json::str(r.mode)),
                ("exec", Json::str(r.exec)),
                ("iterations", Json::num(r.iterations as f64)),
                ("best_iter_seconds", Json::num(r.best_iter_s)),
                ("median_iter_seconds", Json::num(r.median_iter_s)),
                ("mad_iter_seconds", Json::num(r.mad_iter_s)),
                ("regions_per_iter", Json::num(r.regions_per_iter)),
                ("speedup_vs_nt1_serial", Json::num(r.speedup_vs_serial)),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid artifact: one mesh, serial + per-op/team rows at
    /// `threads`, and one scaling row with the given verdict.
    fn artifact(cores: usize, threads: usize, speedup: f64, above: bool) -> Json {
        let config = |mode: &str, t: usize, rpi: f64| {
            Json::obj(vec![
                ("threads", Json::num(t as f64)),
                ("mode", Json::str(mode)),
                ("regions_per_iter", Json::num(rpi)),
                ("median_iter_seconds", Json::num(1e-3)),
                ("speedup_vs_nt1_serial", Json::num(speedup)),
                ("wall_budget_seconds", Json::num(10.0)),
            ])
        };
        Json::obj(vec![
            ("reps", Json::num(3.0)),
            ("thread_counts", Json::Arr(vec![Json::num(1.0), Json::num(threads as f64)])),
            ("machine", Json::obj(vec![("effective_cores", Json::num(cores as f64))])),
            (
                "meshes",
                Json::Arr(vec![Json::obj(vec![
                    ("mesh", Json::str("canary")),
                    ("unknowns", Json::num(500_000.0)),
                    (
                        "configs",
                        Json::Arr(vec![
                            config("serial", 1, 0.0),
                            config("per-op", threads, 5.3),
                            config("team", threads, 1.1),
                        ]),
                    ),
                    (
                        "scaling",
                        Json::Arr(vec![Json::obj(vec![
                            ("threads", Json::num(threads as f64)),
                            ("speedup_vs_nt1", Json::num(speedup)),
                            ("best_mode", Json::str("team")),
                            ("crossover_unknowns", Json::num(50_000.0)),
                            ("above_crossover", Json::Bool(above)),
                        ])]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn scaling_rule_judges_only_rows_that_fit_the_cores() {
        // The inversion canary: slower than serial above the crossover, on
        // a host with the cores to run it.
        let problems = check_doc(&artifact(4, 4, 0.7, true));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("thread-scaling inversion"), "{problems:?}");
        // The same row from an oversubscribed host is not evidence.
        assert!(check_doc(&artifact(2, 4, 0.7, true)).is_empty());
        // Healthy above the crossover; slow below it, where parallel
        // execution is not modeled to win.
        assert!(check_doc(&artifact(4, 4, 1.8, true)).is_empty());
        assert!(check_doc(&artifact(4, 4, 0.7, false)).is_empty());
    }
}
