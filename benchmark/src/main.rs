//! The repository's benchmark: five workloads, one command.
//!
//! ```text
//! fun3d-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! fun3d-benchmark all --out <set.json> [--runs N] [--seed N] [--seconds S] [--trace 0|1]
//! fun3d-benchmark compare <A.json> <B.json>
//! fun3d-benchmark spec
//! ```
//!
//! A run prints every metric by name and unit, checks every operation's
//! result, and ends with the one-line JSON result the driver reads. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no span
//! recorded; with `--trace 1` they are the per-layer ones, from spans the
//! benchmark records around its calls into each layer. See `README.md`.

mod check;
mod cluster;
mod compare;
mod host;
mod json;
mod serve;
mod solve;
mod spec;
mod stats;
mod trace;
mod traced;
mod workload;

use json::Json;
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Args, Outcome};

/// Where the traced run leaves its spans: `benchmark/out/`, ignored by git.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Writes the spans of a traced run to `out/<workload>.trace.json`. The
/// file is a by-product for people, so failing to write it is a note and
/// not a failed run.
fn write_trace(log: &trace::Tracer, args: &Args, out: &mut Outcome) {
    let path = format!("{OUT_DIR}/{}.trace.json", args.workload);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, log.to_json(args.workload, args.seed).render()));
    match written {
        Ok(()) => out.note(format!("{} spans written to {path}", log.spans().len())),
        Err(e) => out.note(format!("spans not written to {path}: {e}")),
    }
}

/// The host fingerprint of a traced run, and the two bandwidth ratios it is
/// the denominator of.
fn add_machine_metrics(out: &mut Outcome) {
    let machine = fun3d_machine::MachineSpec::host();
    let llc_mib = machine.llc_bytes as f64 / 1048576.0;
    out.set("machine.cores", machine.cores as f64);
    out.set("machine.llc_mib", llc_mib);
    let Some(triad) = host::triad(machine.llc_bytes) else {
        out.note(format!(
            "triad: three arrays of 4 x LLC ({llc_mib:.0} MiB) do not fit in a quarter of MemAvailable; \
             machine.triad_gbps and the bw_frac metrics are reported as 0, not guessed"
        ));
        return;
    };
    out.note(format!(
        "triad: {:.2} GB/s on one thread, arrays of {:.0} MiB each, LLC {llc_mib:.0} MiB",
        triad.gbps, triad.array_mib
    ));
    out.set("machine.triad_gbps", triad.gbps);
    for (gbps, frac) in [
        ("core.residual_gbps", "core.residual_bw_frac"),
        ("sparse.trsv_gbps", "sparse.trsv_bw_frac"),
    ] {
        if let Some(value) = out.get(gbps) {
            out.set(frac, value / triad.gbps);
        }
    }
}

fn run_workload(args: &Args) -> Outcome {
    let mut out = match args.workload {
        "steady-ilu1" => solve::run(solve::Case::Ilu1, args),
        "steady-ilu0-lag" => solve::run(solve::Case::Ilu0Lag, args),
        "steady-team" => solve::run(solve::Case::Team, args),
        "cluster-ranks" => cluster::run(args),
        "serve-mix" => serve::run(args),
        other => unreachable!("workload {other} passed validation"),
    };
    if args.trace {
        add_machine_metrics(&mut out);
    }
    out
}

/// The driver's result object. A traced run reports 0 for the metrics of a
/// layer its workload does not exercise; an untraced run must have measured
/// every end-to-end metric.
fn result_json(out: &Outcome, table: &[Metric], traced: bool) -> Json {
    let metrics = table
        .iter()
        .map(|m| {
            let value = out.get(m.name);
            assert!(
                traced || value.is_some(),
                "end-to-end metric {} was not measured",
                m.name
            );
            let fields = vec![
                ("value".to_string(), Json::Num(value.unwrap_or(0.0))),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ];
            (m.name.to_string(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(out.failed == 0)),
        ("attempted".to_string(), Json::Num(out.attempted as f64)),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

fn run_one(args: &Args) -> ExitCode {
    let started = Instant::now();
    let out = run_workload(args);
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.measure.as_secs(),
        args.trace as u8
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in table {
        match out.get(m.name) {
            Some(value) => println!("{:<28} {:>16.6} {}", m.name, value, m.unit),
            None => println!("{:<28} {:>16} {}  (layer not exercised)", m.name, 0, m.unit),
        }
    }
    let unknown: Vec<_> = out
        .metrics
        .iter()
        .filter(|(name, _)| !table.iter().any(|m| m.name == *name))
        .collect();
    assert!(
        unknown.is_empty(),
        "metrics missing from spec.rs: {unknown:?}"
    );
    println!(
        "# attempted={} failed={} failed_frac={} run_wall_s={:.2}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_json(&out, table, args.trace).render());
    ExitCode::SUCCESS
}

/// Runs every workload `runs` times, each in a process of its own so that
/// peak memory is per workload, on seeds `seed, seed+1, …`, and writes the
/// results as one set file for `compare`.
fn run_all(flags: &Flags) -> Result<(), String> {
    let out_path = flags.out.as_deref().ok_or("all needs --out <set.json>")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut runs = Vec::new();
    for i in 0..flags.runs {
        for w in WORKLOADS
            .iter()
            .filter(|w| flags.workload.as_deref().is_none_or(|only| only == w.name))
        {
            let seed = flags.seed + i;
            let t = Instant::now();
            let child = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &flags.seconds.to_string(),
                    "--trace",
                    &(flags.trace as u8).to_string(),
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result = Json::parse(last).map_err(|e| {
                format!(
                    "{} seed {seed}: no result line ({e}); status {}",
                    w.name, child.status
                )
            })?;
            println!(
                "{:<16} seed={seed:<4} wall={:>6.2}s  {last}",
                w.name,
                t.elapsed().as_secs_f64()
            );
            runs.push(Json::Obj(vec![
                ("workload".to_string(), Json::Str(w.name.to_string())),
                ("seed".to_string(), Json::Num(seed as f64)),
                ("trace".to_string(), Json::Num(flags.trace as u8 as f64)),
                ("wall_s".to_string(), Json::Num(t.elapsed().as_secs_f64())),
                ("result".to_string(), result),
            ]));
        }
    }
    let set = Json::Obj(vec![
        ("nproc".to_string(), Json::Num(host::nproc() as f64)),
        ("seconds".to_string(), Json::Num(flags.seconds as f64)),
        ("runs".to_string(), Json::Arr(runs)),
    ]);
    std::fs::write(out_path, set.render_pretty()).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "# {} runs in {:.1} s, written to {out_path}",
        flags.runs,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn load_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: u64,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(argv: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |s: &String| {
            s.parse::<u64>()
                .map_err(|_| format!("{arg} takes a whole number, not {s}"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = number(value()?)?,
            "--seconds" => flags.seconds = number(value()?)?,
            "--runs" => flags.runs = number(value()?)?,
            "--out" => flags.out = Some(value()?.clone()),
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => flags.positional.push(arg.clone()),
        }
    }
    if let Some(name) = &flags.workload {
        if spec::workload(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    if !(1..=60).contains(&flags.seconds) {
        return Err("--seconds takes 1 to 60".into());
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = |r: Result<(), String>| match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fun3d-benchmark: {e}");
            ExitCode::from(2)
        }
    };
    let flags = match parse_flags(&argv) {
        Ok(flags) => flags,
        Err(e) => return done(Err(e)),
    };
    let positional: Vec<&str> = flags.positional.iter().map(String::as_str).collect();
    match positional[..] {
        [] => match &flags.workload {
            Some(name) => run_one(&Args {
                workload: spec::workload(name).expect("validated").name,
                seed: flags.seed,
                measure: Duration::from_secs(flags.seconds),
                trace: flags.trace,
            }),
            None => done(Err(
                "give --workload <name>, or one of: all, compare, spec".into()
            )),
        },
        ["all"] => done(run_all(&flags)),
        ["spec"] => {
            print!("{}", spec::benchmark_json().render_pretty());
            ExitCode::SUCCESS
        }
        ["compare", a, b] => match load_set(a).and_then(|a| compare::compare(&a, &load_set(b)?)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => done(Err(e)),
        },
        _ => done(Err(format!("cannot make sense of {positional:?}"))),
    }
}
