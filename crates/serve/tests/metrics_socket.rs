//! The `--metrics-socket` endpoint of the `serve` binary, driven as a
//! child process: after one solve both expositions validate strictly,
//! carry the tenant's stage histogram, and a corrupted snapshot is
//! rejected.

use fun3d_util::telemetry::metrics;
use fun3d_util::telemetry::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

/// One request/response round trip on the metrics socket.
fn fetch(socket: &std::path::Path, format: &str) -> String {
    let mut stream = UnixStream::connect(socket).expect("connect to the metrics socket");
    stream.write_all(format!("{format}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn metrics_socket_serves_validating_json_and_prometheus() {
    let socket = std::env::temp_dir().join(format!("fun3d-metrics-{}.sock", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--metrics-socket")
        .arg(&socket)
        .args(["--teams", "1", "--team-threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    // Stdin stays open until the socket has been read: the service lives
    // as long as its request stream.
    let mut stdin = child.stdin.take().unwrap();
    stdin
        .write_all(b"{\"tenant\":\"verify\",\"mesh\":\"tiny\",\"max_steps\":2,\"rtol\":1e-2}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");

    let json = fetch(&socket, "json");
    let prom = fetch(&socket, "prom");
    drop(stdin);
    assert!(child.wait().expect("serve exits at EOF").success());
    let _ = std::fs::remove_file(&socket);

    let doc = Json::parse(&json).expect("the json reply parses");
    metrics::check_snapshot(&doc).expect("the json snapshot validates");
    metrics::check_prometheus(&prom).expect("the exposition validates");
    let hists = doc.get("histograms").expect("a histograms section");
    assert!(
        hists.get("serve.tenant.verify.total_ns").is_some(),
        "{json}"
    );

    // The first bucket's count ([lo, hi, count]) made negative.
    let at = json.find("\"buckets\":[[").expect("a bucket") + "\"buckets\":[[".len();
    let close = at + json[at..].find(']').unwrap();
    let count = at + json[at..close].rfind(',').unwrap() + 1;
    let bad = format!("{}-3{}", &json[..count], &json[close..]);
    let err = metrics::check_snapshot(&Json::parse(&bad).unwrap()).expect_err("a negative count");
    assert!(err.contains("not positive"), "{err}");
}
