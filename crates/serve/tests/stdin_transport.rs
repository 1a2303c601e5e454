//! The NDJSON stdin transport of the `serve` binary, driven as a child
//! process: a request the parser refuses must come back as a structured
//! rejection and leave the dispatcher serving.

use fun3d_serve::wire::parse_reply;
use fun3d_util::telemetry::json::Json;
use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn duplicate_key_is_a_bad_request_and_the_dispatcher_survives() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--teams", "1", "--team-threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    // Without the duplicate check the first line is silently served as
    // tenant "a"; the second proves the service still answers afterwards.
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            concat!(
                r#"{"tenant":"a","mesh":"tiny","max_steps":2,"rtol":1e-2,"tenant":"b"}"#,
                "\n",
                r#"{"tenant":"after","mesh":"tiny","max_steps":2,"rtol":1e-2}"#,
                "\n",
            )
            .as_bytes(),
        )
        .unwrap();
    let out = child.wait_with_output().expect("serve exits at EOF");
    assert!(out.status.success(), "serve exited with {}", out.status);
    let replies: Vec<(bool, Json)> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| parse_reply(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(replies.len(), 2, "one reply per line");
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let (_, rejected) = replies.iter().find(|(ok, _)| !ok).expect("a rejection");
    assert_eq!(field(rejected, "reason"), "bad_request");
    assert!(
        field(rejected, "detail").contains("duplicate key \"tenant\""),
        "{}",
        rejected.render()
    );
    let (_, served) = replies.iter().find(|(ok, _)| *ok).expect("a served reply");
    assert_eq!(field(served, "tenant"), "after");
}
