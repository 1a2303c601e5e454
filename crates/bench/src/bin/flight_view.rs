//! **flight_view** — renders a flight-recorder dump as per-solve
//! timeline tables, and can watch one live.
//!
//! * default: pretty-print the dump — header (trigger, event counts,
//!   drops) followed by one table per solve id (and one for unscoped
//!   events), each row `t, rank, event, fields`;
//! * `--check`: strictly validate the artifact (schema tag, known
//!   trigger/event names, `(t_ns, rank, solve)` on every entry, global
//!   time ordering) and exit 0/1 — the machine-readable rot guard
//!   `scripts/verify.sh` runs on every dump it provokes;
//! * `--follow`: poll the file (`--poll-ms`, default 500) and reprint a
//!   compact live summary whenever it changes; `--max-polls` bounds the
//!   watch for scripted use (0 = forever).
//!
//! Usage: `flight_view <dump.json> [--check] [--follow]
//! [--poll-ms <n>] [--max-polls <n>]`

use fun3d_util::report::Table;
use fun3d_util::telemetry::flight;
use fun3d_util::telemetry::json::Json;
use std::path::Path;

struct Args {
    path: String,
    check: bool,
    follow: bool,
    poll_ms: u64,
    max_polls: u64,
}

fn parse_args() -> Args {
    let mut out = Args {
        path: String::new(),
        check: false,
        follow: false,
        poll_ms: 500,
        max_polls: 0,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => out.check = true,
            "--follow" => out.follow = true,
            "--poll-ms" => {
                i += 1;
                out.poll_ms = args[i].parse().expect("--poll-ms takes an integer");
            }
            "--max-polls" => {
                i += 1;
                out.max_polls = args[i].parse().expect("--max-polls takes an integer");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: flight_view <dump.json> [--check] [--follow] \
                     [--poll-ms <n>] [--max-polls <n>]"
                );
                std::process::exit(0);
            }
            other if out.path.is_empty() && !other.starts_with("--") => {
                out.path = other.to_string();
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(1);
            }
        }
        i += 1;
    }
    if out.path.is_empty() {
        eprintln!("usage: flight_view <dump.json> [--check] [--follow]");
        std::process::exit(1);
    }
    out
}

/// One timeline entry's extra fields (everything beyond the four tags),
/// rendered `k=v` — the dump writer flattens each event's payload into
/// the entry, so this is the whole payload.
fn detail_of(entry: &Json) -> String {
    let Json::Obj(fields) = entry else {
        return String::new();
    };
    let payload = fields
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "t_ns" | "rank" | "solve" | "event"));
    flight::detail_line(payload.map(|(k, v)| (k.as_str(), v)))
}

fn load(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn timeline(doc: &Json) -> &[Json] {
    doc.get("timeline").and_then(Json::as_arr).unwrap_or(&[])
}

fn header_line(doc: &Json, path: &str) -> String {
    format!(
        "{path}: trigger '{}', {} events, {} dropped",
        doc.get("trigger").and_then(Json::as_str).unwrap_or("?"),
        doc.get("events").and_then(Json::as_f64).unwrap_or(0.0),
        doc.get("dropped").and_then(Json::as_f64).unwrap_or(0.0),
    )
}

/// Full render: header plus one timeline table per solve.
fn render(doc: &Json, path: &str) {
    println!("{}\n", header_line(doc, path));
    let entries = timeline(doc);
    // Distinct solve ids in first-appearance order; 0 = unscoped.
    let mut solves: Vec<u64> = Vec::new();
    for e in entries {
        let s = e.get("solve").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if !solves.contains(&s) {
            solves.push(s);
        }
    }
    for solve in solves {
        let title = if solve == 0 {
            "flight_view: events outside any solve".to_string()
        } else {
            format!("flight_view: solve {solve} timeline")
        };
        let mut table = Table::new(&title, &["t ms", "rank", "event", "fields"]);
        for e in entries {
            if e.get("solve").and_then(Json::as_f64).unwrap_or(0.0) as u64 != solve {
                continue;
            }
            table.row(&[
                format!(
                    "{:.3}",
                    e.get("t_ns").and_then(Json::as_f64).unwrap_or(0.0) * 1e-6
                ),
                format!("{}", e.get("rank").and_then(Json::as_f64).unwrap_or(0.0) as u64),
                e.get("event").and_then(Json::as_str).unwrap_or("?").to_string(),
                detail_of(e),
            ]);
        }
        print!("{}", table.render());
        println!();
    }
}

/// `--follow` summary: one screenful — the header plus the newest few
/// events — reprinted whenever the file changes.
fn render_summary(doc: &Json, path: &str) {
    println!("{}", header_line(doc, path));
    let entries = timeline(doc);
    let tail = entries.len().saturating_sub(8);
    for e in &entries[tail..] {
        println!(
            "  {:>12.3} ms  rank {}  solve {:>3}  {:<15} {}",
            e.get("t_ns").and_then(Json::as_f64).unwrap_or(0.0) * 1e-6,
            e.get("rank").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            e.get("solve").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            e.get("event").and_then(Json::as_str).unwrap_or("?"),
            detail_of(e),
        );
    }
}

fn follow(args: &Args) {
    let mut last_seen: Option<(std::time::SystemTime, u64)> = None;
    let mut polls = 0u64;
    loop {
        let stamp = std::fs::metadata(&args.path)
            .ok()
            .map(|m| (m.modified().unwrap_or(std::time::UNIX_EPOCH), m.len()));
        match stamp {
            None => {
                if last_seen.is_some() {
                    println!("flight_view: {} disappeared, waiting...", args.path);
                    last_seen = None;
                }
            }
            Some(s) if Some(s) != last_seen => {
                match load(&args.path) {
                    Ok(doc) => render_summary(&doc, &args.path),
                    // A writer may be mid-dump; pick it up next poll.
                    Err(e) => println!("flight_view: {e} (retrying)"),
                }
                last_seen = stamp;
            }
            Some(_) => {}
        }
        polls += 1;
        if args.max_polls > 0 && polls >= args.max_polls {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(args.poll_ms));
    }
}

fn main() {
    let args = parse_args();
    if args.check {
        match flight::check_dump_file(Path::new(&args.path)) {
            Ok(n) => {
                println!("{}: OK ({n} flight events)", args.path);
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.follow {
        follow(&args);
        return;
    }
    match load(&args.path) {
        Ok(doc) => render(&doc, &args.path),
        Err(e) => {
            eprintln!("flight_view: {e}");
            std::process::exit(1);
        }
    }
}
