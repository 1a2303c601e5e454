//! `fun3d-serve` — the solver service over NDJSON.
//!
//! Two transports share one [`Service`]:
//!
//! * **stdin/stdout** (default): one JSON request per line in, one JSON
//!   reply per line out, in completion order. EOF drains and exits.
//! * **Unix socket** (`--socket PATH`): accepts concurrent connections,
//!   one thread per connection, same line protocol per connection.
//!   `SIGINT`-free shutdown: send the literal line `shutdown` on any
//!   connection.
//!
//! ```text
//! usage: fun3d-serve [--socket PATH] [--metrics-socket PATH] [--teams N]
//!                    [--team-threads N] [--queue-cap N] [--tenant-cap N]
//!                    [--stats]
//! ```
//!
//! Replies are [`fun3d_serve::render_reply`] lines (`"ok":true`)
//! or [`fun3d_serve::render_reject`] lines (`"ok":false` with a
//! structured reason) — admission rejects answer on the wire instead of
//! closing the connection, so load generators can count shed requests.
//!
//! Live observability (either transport):
//!
//! * the in-band request `{"cmd":"stats"}` answers one JSON line with
//!   the lane implementation the edge kernels run on (`"isa"`: `avx2` or
//!   `portable`), live per-tenant latency percentiles, queue/inflight
//!   gauges, cache hit rate, and the full metrics snapshot;
//! * `--metrics-socket PATH` serves the metrics plane out-of-band: a
//!   client connects, sends one line (`prom` for Prometheus text
//!   exposition, anything else for the JSON snapshot), and reads the
//!   payload until EOF (`tests/metrics_socket.rs` drives both).

use fun3d_serve::{bad_request_line, render_reject, render_reply, SolveRequest};
use fun3d_serve::{ServeConfig, Service};
use fun3d_util::telemetry::metrics;
use fun3d_util::telemetry::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeConfig::host_default();
    let mut socket: Option<String> = None;
    let mut metrics_socket: Option<String> = None;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail(&format!("{name} needs a positive integer")))
        };
        match arg.as_str() {
            "--socket" => {
                socket = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--socket needs a path"))
                        .clone(),
                )
            }
            "--metrics-socket" => {
                metrics_socket = Some(
                    it.next()
                        .unwrap_or_else(|| fail("--metrics-socket needs a path"))
                        .clone(),
                )
            }
            "--teams" => cfg.teams = num("--teams").max(1),
            "--team-threads" => cfg.team_threads = num("--team-threads").max(1),
            "--queue-cap" => cfg.queue_cap = num("--queue-cap").max(1),
            "--tenant-cap" => cfg.tenant_queue_cap = num("--tenant-cap").max(1),
            "--stats" => stats = true,
            "--help" | "-h" => {
                println!(
                    "usage: fun3d-serve [--socket PATH] [--metrics-socket PATH] [--teams N] \
                     [--team-threads N] [--queue-cap N] [--tenant-cap N] [--stats]"
                );
                return;
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }

    eprintln!(
        "fun3d-serve: {} team(s) x {} thread(s), queue cap {} (per tenant {}), cache {} app(s) per team + {} factor(s)",
        cfg.teams,
        cfg.team_threads,
        cfg.queue_cap,
        cfg.tenant_queue_cap,
        cfg.app_cache_per_team,
        cfg.factor_cache_cap
    );
    let svc = Service::start(cfg);
    if let Some(path) = metrics_socket {
        serve_metrics_socket(path);
    }
    match socket {
        Some(path) => serve_socket(svc, &path, stats),
        None => serve_stdio(svc, stats),
    }
}

/// Out-of-band metrics plane: a daemon listener that answers each
/// connection with one snapshot and closes. The client speaks first —
/// one line, `prom` for Prometheus text exposition, anything else
/// (conventionally `json`) for the strict-JSON snapshot.
fn serve_metrics_socket(path: String) {
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)
        .unwrap_or_else(|e| fail(&format!("cannot bind metrics socket {path}: {e}")));
    eprintln!("fun3d-serve: metrics on {path}");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let mut stream = match stream {
                Ok(s) => s,
                Err(_) => break,
            };
            let mut first = String::new();
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            });
            if reader.read_line(&mut first).is_err() {
                continue;
            }
            let snap = metrics::snapshot();
            let payload = if first.trim() == "prom" {
                metrics::render_prometheus(&snap)
            } else {
                let mut s = metrics::snapshot_json(&snap).render();
                s.push('\n');
                s
            };
            let _ = stream.write_all(payload.as_bytes());
        }
    });
}

fn fail(msg: &str) -> ! {
    eprintln!("fun3d-serve: {msg}");
    std::process::exit(2)
}

/// Line-at-a-time over stdin/stdout. Replies stream in completion
/// order from a collector thread so a slow solve never blocks reading
/// the next request.
fn serve_stdio(svc: Service, stats: bool) {
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let writer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        for line in rx {
            let mut out = stdout.lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    });
    let stdin = std::io::stdin();
    let mut joiners = Vec::new();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        joiners.push(dispatch_line(&svc, &line, tx.clone()));
    }
    for j in joiners.into_iter().flatten() {
        let _ = j.join();
    }
    drop(tx);
    let _ = writer.join();
    finish(svc, stats);
}

/// One thread per connection; each connection gets its replies back on
/// its own stream, in completion order for that connection.
fn serve_socket(svc: Service, path: &str, stats: bool) {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .unwrap_or_else(|e| fail(&format!("cannot bind {path}: {e}")));
    eprintln!("fun3d-serve: listening on {path}");
    let svc = Arc::new(svc);
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => break,
        };
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        let path = path.to_string();
        conns.push(std::thread::spawn(move || {
            serve_conn(&svc, stream, &stop);
            if stop.load(Ordering::SeqCst) {
                // Self-connect to unblock the accept loop.
                let _ = UnixStream::connect(&path);
            }
        }));
    }
    for c in conns {
        let _ = c.join();
    }
    let _ = std::fs::remove_file(path);
    let svc = Arc::into_inner(svc).expect("all connections joined");
    finish(svc, stats);
}

fn serve_conn(svc: &Service, stream: UnixStream, stop: &AtomicBool) {
    let reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let mut write_half = stream;
    let writer = std::thread::spawn(move || {
        for line in rx {
            if writeln!(write_half, "{line}").is_err() {
                break;
            }
        }
    });
    let mut joiners = Vec::new();
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "shutdown" {
            stop.store(true, Ordering::SeqCst);
            break;
        }
        joiners.push(dispatch_line(svc, trimmed, tx.clone()));
    }
    for j in joiners.into_iter().flatten() {
        let _ = j.join();
    }
    drop(tx);
    let _ = writer.join();
}

/// Parses one request line and routes the outcome to `tx`: control
/// commands (`{"cmd":"stats"}`) answer synchronously from live
/// metrics; parse errors and admission rejects answer immediately;
/// admitted jobs get a waiter thread that forwards the reply when the
/// solve lands.
fn dispatch_line(
    svc: &Service,
    line: &str,
    tx: std::sync::mpsc::Sender<String>,
) -> Option<std::thread::JoinHandle<()>> {
    if let Ok(doc) = Json::parse(line) {
        if let Some(cmd) = doc.get("cmd").and_then(|c| c.as_str()) {
            match cmd {
                "stats" => {
                    let _ = tx.send(svc.stats_json().render());
                }
                other => {
                    let _ = tx.send(bad_request_line(&format!("unknown cmd {other:?}")));
                }
            }
            return None;
        }
    }
    let req = match SolveRequest::parse(line) {
        Ok(r) => r,
        Err(e) => {
            let _ = tx.send(bad_request_line(&e));
            return None;
        }
    };
    match svc.submit(req) {
        Ok(handle) => Some(std::thread::spawn(move || {
            let reply = handle.wait();
            let _ = tx.send(render_reply(&reply));
        })),
        Err(reject) => {
            let _ = tx.send(render_reject(&reject));
            None
        }
    }
}

fn finish(svc: Service, stats: bool) {
    let s = svc.shutdown();
    if stats {
        eprintln!(
            "fun3d-serve: completed {} rejected {} | pool high-water {}/{} | \
             cache hit rate {:.3} (app {}/{}, factor {}/{})",
            s.completed,
            s.rejected,
            s.pool_high_water,
            s.worker_budget,
            s.cache.combined_hit_rate(),
            s.cache.app.hits,
            s.cache.app.hits + s.cache.app.misses,
            s.cache.factor.hits,
            s.cache.factor.hits + s.cache.factor.misses,
        );
    }
}
