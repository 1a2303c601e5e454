//! **tiled_flux** — measured ablation for the tiled (cache-blocked)
//! edge-kernel strategy against the streaming strategies.
//!
//! For each mesh the binary builds the host-L2-sized [`EdgeTiling`],
//! verifies every timed variant against the serial SoA reference
//! *before* timing it (a wrong-answer kernel must never produce a bench
//! number), then times:
//!
//! * `flux_serial_best` — the best streaming serial variant
//!   (AoS + SIMD + prefetch), the single-thread baseline;
//! * `flux_owner` — the lane body on a METIS owner-writes plan, the strongest
//!   pre-existing threaded strategy, at each thread count;
//! * `flux_tiled` — the tiled kernel (serial at nt=1, pooled with
//!   inter-tile coloring at nt>1) at each thread count.
//!
//! Every variant's **effective GB/s** divides the *same* numerator —
//! the analytic streaming-model bytes ([`counts::flux`]) — by its wall
//! time, the paper's Fig. 6 convention: the kernel is credited with the
//! traffic a cache-less machine would move, so a number *above* the
//! STREAM roof is direct evidence of cache residency (the point of
//! tiling), and the `xSTREAM` column is the floor ratio the roofline
//! validator reads.
//!
//! Writes `target/experiments/tiled_flux.json`; `--check <file>`
//! validates a previously written artifact (the rot guard run by
//! `scripts/verify.sh`).
//!
//! Usage: `tiled_flux [--meshes a,b] [--threads 1,2,4] [--reps n]
//! [--check <json>]`

use fun3d_bench::{emit, KernelFixture};
use fun3d_core::{counts, flux, Exec, Isa, Traversal};
use fun3d_core::geom::NodeSoa;
use fun3d_machine::MachineSpec;
use fun3d_mesh::generator::MeshPreset;
use fun3d_partition::{
    partition_graph, EdgeTiling, MultilevelConfig, OwnerWritesPlan, TileQuality, TilingConfig,
};
use fun3d_threads::ThreadPool;
use fun3d_util::report::{experiments_dir, fmt_g, write_json, Table};
use fun3d_util::telemetry::json::Json;

struct Args {
    meshes: Vec<MeshPreset>,
    threads: Vec<usize>,
    reps: usize,
    /// Tile working-set budget override in KiB (default: half the host L2,
    /// via [`TilingConfig::for_machine`]). Ablation knob.
    budget_kib: Option<usize>,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        meshes: vec![MeshPreset::Medium],
        threads: vec![1, 2, 4],
        reps: 3,
        budget_kib: None,
        check: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--meshes" | "--mesh" => {
                i += 1;
                out.meshes = args[i]
                    .split(',')
                    .map(|m| {
                        MeshPreset::parse(m.trim())
                            .unwrap_or_else(|| panic!("unknown mesh preset '{m}'"))
                    })
                    .collect();
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
            "--budget-kib" => {
                i += 1;
                out.budget_kib =
                    Some(args[i].parse().expect("--budget-kib takes an integer"));
            }
            "--check" => {
                i += 1;
                out.check = Some(args[i].clone());
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --meshes <small,medium,large> --threads <1,2,4> \
                     --reps <n> --budget-kib <n> --check <json>"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument '{other}'"),
        }
        i += 1;
    }
    assert!(!out.meshes.is_empty(), "--meshes list is empty");
    assert!(!out.threads.is_empty(), "--threads list is empty");
    out
}

/// Relative-tolerance equivalence against the serial SoA reference.
/// Accumulation orders differ between variants, so the bound is ULP-ish
/// (1e-11 relative), not bitwise; a miss aborts the run before any
/// timing happens.
fn check_equivalent(name: &str, got: &[f64], reference: &[f64]) {
    assert_eq!(got.len(), reference.len());
    for (i, (&g, &r)) in got.iter().zip(reference).enumerate() {
        let tol = 1e-11 * r.abs().max(1.0);
        if (g - r).abs() > tol {
            eprintln!(
                "tiled_flux: EQUIVALENCE FAILED — {name}[{i}] = {g:e}, reference {r:e}"
            );
            std::process::exit(1);
        }
    }
}

struct VariantRow {
    variant: &'static str,
    threads: usize,
    seconds: f64,
    gbps: f64,
    stream_ratio: f64,
}

struct MeshReport {
    mesh: MeshPreset,
    nedges: usize,
    nvertices: usize,
    quality: TileQuality,
    rows: Vec<VariantRow>,
}

/// Which kernel a timed configuration runs.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    SerialBest,
    Owner(usize),
    Tiled(usize),
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::SerialBest => "flux_serial_best",
            Variant::Owner(_) => "flux_owner",
            Variant::Tiled(_) => "flux_tiled",
        }
    }
    fn threads(self) -> usize {
        match self {
            Variant::SerialBest => 1,
            Variant::Owner(nt) | Variant::Tiled(nt) => nt,
        }
    }
}

fn run_mesh(args: &Args, preset: MeshPreset, machine: &MachineSpec) -> MeshReport {
    let fix = KernelFixture::new(preset);
    let soa = NodeSoa::from_aos(&fix.node);
    let beta = fix.cond.beta;
    let ne = fix.geom.nedges();
    let nv = fix.mesh.nvertices();
    let n4 = fix.node.n * 4;
    let tcfg = match args.budget_kib {
        Some(kib) => TilingConfig::with_target_bytes(kib * 1024),
        None => TilingConfig::for_machine(machine),
    };
    let tiling = EdgeTiling::build(nv, fix.geom.edges(), &tcfg);
    let tgeom = fun3d_core::TiledGeom::new(tiling, &fix.geom);
    let quality = TileQuality::of(tgeom.tiling());
    let graph = fun3d_mesh::Graph::from_edges(nv, fix.geom.edges());

    // The Fig. 6 convention: one numerator (streaming-model bytes) for
    // every variant, so GB/s ranks variants by wall time alone and
    // above-STREAM readings expose cache residency.
    let stream_bytes = counts::flux(ne).bytes() as f64;
    let gbps_of = |secs: f64| stream_bytes / secs / 1e9;

    // One pool + owner-writes plan per threaded configuration.
    let pools: Vec<(usize, ThreadPool, OwnerWritesPlan)> = args
        .threads
        .iter()
        .filter(|&&nt| nt >= 2)
        .map(|&nt| {
            let plan = OwnerWritesPlan::build(
                fix.geom.edges(),
                &partition_graph(&graph, nt, &MultilevelConfig::default()),
                nt,
            );
            (nt, ThreadPool::new(nt), plan)
        })
        .collect();
    let mut variants = vec![Variant::SerialBest, Variant::Tiled(1)];
    for &(nt, _, _) in &pools {
        variants.push(Variant::Owner(nt));
        variants.push(Variant::Tiled(nt));
    }

    let mut res = vec![0.0; n4];
    let tiles = Traversal::Tiled { geom: &tgeom };
    let pool_of = |nt: usize| pools.iter().find(|p| p.0 == nt).unwrap();
    let exec = |v: Variant, res: &mut [f64]| {
        res.iter_mut().for_each(|x| *x = 0.0);
        let (exec, walk) = match v {
            Variant::SerialBest => (
                Exec::Caller,
                Traversal::Stream { geom: &fix.geom, prefetch: Some(flux::PREFETCH_DIST) },
            ),
            Variant::Owner(nt) => {
                let (_, pool, plan) = pool_of(nt);
                (Exec::Pool(pool), Traversal::owner(&fix.geom, plan))
            }
            Variant::Tiled(1) => (Exec::Caller, tiles),
            // As the application: the pool only while its barriers can spin.
            Variant::Tiled(nt) => (Exec::unless_oversubscribed(&pool_of(nt).1), tiles),
        };
        flux::run(Some(Isa::detect()), exec, walk, &fix.node, beta, res);
    };

    // ---- equivalence before timing (doubles as warm-up) ------------
    let mut reference = vec![0.0; n4];
    flux::serial_soa(&fix.geom, &soa, beta, &mut reference);
    for &v in &variants {
        exec(v, &mut res);
        check_equivalent(v.name(), &res, &reference);
    }

    // ---- interleaved timing ----------------------------------------
    // One sample of every configuration per round, and the per-variant
    // *minimum* across rounds: machine-load drift (this is a shared
    // container) only ever adds time, so the best-case sample is the
    // least-contaminated estimate of each variant's true cost, and
    // interleaving gives every variant the same shot at the quiet
    // windows.
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(args.reps); variants.len()];
    for _ in 0..args.reps {
        for (i, &v) in variants.iter().enumerate() {
            let t0 = std::time::Instant::now();
            exec(v, &mut res);
            samples[i].push(t0.elapsed().as_secs_f64());
        }
    }

    let rows = variants
        .iter()
        .zip(&mut samples)
        .map(|(&v, s)| {
            let t = s.iter().copied().fold(f64::INFINITY, f64::min);
            VariantRow {
                variant: v.name(),
                threads: v.threads(),
                seconds: t,
                gbps: gbps_of(t),
                stream_ratio: gbps_of(t) / machine.stream_gbs,
            }
        })
        .collect();

    MeshReport {
        mesh: preset,
        nedges: ne,
        nvertices: nv,
        quality,
        rows,
    }
}

/// `--check` mode: the artifact rot guard run by scripts/verify.sh.
fn do_check(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tiled_flux --check: cannot read {path}: {e}");
            return 1;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("tiled_flux --check: {path} is not valid JSON: {e}");
            return 1;
        }
    };
    let mut problems = Vec::new();
    if doc.get("kind").and_then(Json::as_str) != Some("tiled_flux") {
        problems.push("missing 'kind': 'tiled_flux' shape marker".to_string());
    }
    if !doc
        .get("stream_gbs")
        .and_then(Json::as_f64)
        .is_some_and(|s| s > 0.0)
    {
        problems.push("missing/nonpositive 'stream_gbs'".to_string());
    }
    match doc.get("meshes").and_then(Json::as_arr) {
        None => problems.push("missing 'meshes' array".to_string()),
        Some([]) => problems.push("'meshes' array is empty".to_string()),
        Some(meshes) => {
            for m in meshes {
                let name = m.get("mesh").and_then(Json::as_str).unwrap_or("<unnamed>");
                let Some(q) = m.get("tile_quality") else {
                    problems.push(format!("{name}: missing 'tile_quality'"));
                    continue;
                };
                // A tiling can do no worse than single-edge tiles
                // (reuse 0.5); colors and tiles are at least 1.
                match q.get("reuse").and_then(Json::as_f64) {
                    Some(r) if r >= 0.5 => {}
                    other => problems.push(format!("{name}: tile reuse {other:?} < 0.5")),
                }
                for key in ["ntiles", "ncolors"] {
                    match q.get(key).and_then(Json::as_f64) {
                        Some(v) if v >= 1.0 => {}
                        other => problems.push(format!("{name}: tile {key} {other:?} < 1")),
                    }
                }
                let Some(rows) = m.get("variants").and_then(Json::as_arr) else {
                    problems.push(format!("{name}: missing 'variants'"));
                    continue;
                };
                let mut saw_tiled = false;
                for r in rows {
                    let v = r.get("variant").and_then(Json::as_str).unwrap_or("?");
                    saw_tiled |= v == "flux_tiled";
                    for key in ["seconds", "gbps"] {
                        match r.get(key).and_then(Json::as_f64) {
                            Some(x) if x.is_finite() && x > 0.0 => {}
                            other => {
                                problems.push(format!("{name}/{v}: bad {key} {other:?}"))
                            }
                        }
                    }
                }
                if !saw_tiled {
                    problems.push(format!("{name}: no 'flux_tiled' variant row"));
                }
            }
        }
    }
    if problems.is_empty() {
        println!("tiled_flux --check: {path} ok");
        0
    } else {
        for p in &problems {
            eprintln!("tiled_flux --check: {p}");
        }
        1
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check {
        std::process::exit(do_check(path));
    }
    let machine = MachineSpec::host();

    let mut table = Table::new(
        "Tiled edge kernels: measured flux ablation (effective GB/s = streaming-model bytes / wall)",
        &["mesh", "variant", "threads", "seconds", "eff GB/s", "xSTREAM"],
    );
    let mut meshes_json = Vec::new();
    for &preset in &args.meshes {
        let rep = run_mesh(&args, preset, &machine);
        for r in &rep.rows {
            table.row(&[
                rep.mesh.name().to_string(),
                r.variant.to_string(),
                r.threads.to_string(),
                fmt_g(r.seconds),
                format!("{:.2}", r.gbps),
                format!("{:.2}", r.stream_ratio),
            ]);
        }
        println!("{}: {}", rep.mesh.name(), rep.quality.summary());
        let q = &rep.quality;
        meshes_json.push(Json::obj(vec![
            ("mesh", Json::str(rep.mesh.name())),
            ("nedges", Json::num(rep.nedges as f64)),
            ("nvertices", Json::num(rep.nvertices as f64)),
            (
                "tile_quality",
                Json::obj(vec![
                    ("ntiles", Json::num(q.ntiles as f64)),
                    ("ncolors", Json::num(q.ncolors as f64)),
                    ("vertex_slots", Json::num(q.vertex_slots as f64)),
                    ("reuse", Json::num(q.reuse)),
                    ("halo_fraction", Json::num(q.halo_fraction)),
                ]),
            ),
            (
                "variants",
                Json::Arr(
                    rep.rows
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("variant", Json::str(r.variant)),
                                ("threads", Json::num(r.threads as f64)),
                                ("seconds", Json::num(r.seconds)),
                                ("gbps", Json::num(r.gbps)),
                                ("stream_ratio", Json::num(r.stream_ratio)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    emit("tiled_flux_table", &table);

    let summary = Json::obj(vec![
        ("kind", Json::str("tiled_flux")),
        ("reps", Json::num(args.reps as f64)),
        ("stream_gbs", Json::num(machine.stream_gbs)),
        ("meshes", Json::Arr(meshes_json)),
    ]);
    match write_json(&experiments_dir(), "tiled_flux", &summary) {
        Ok(path) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("warning: could not write json: {e}"),
    }
    println!(
        "\nxSTREAM > 1 means effective bandwidth above the STREAM roof — \
         the gathers are resolving in cache, which is what tiling buys"
    );
}
