//! A worker panic inside a pool region leaves a flight dump: the launcher
//! records the panic and dumps the flight log before it propagates it.
//! Its own test binary, because a process dumps for a region panic once.

use fun3d_threads::ThreadPool;
use fun3d_util::telemetry::{self, Json, Level};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

#[test]
fn worker_panic_in_a_region_dumps_a_validating_artifact() {
    telemetry::set_level(Level::Counters);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("region-panic-dump");
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::set_dump_dir(&dir);

    let pool = ThreadPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.run(|tid| {
            if tid == 1 {
                panic!("injected worker panic");
            }
        })
    }));
    assert!(
        result.is_err(),
        "the worker panic must propagate out of run"
    );

    let json = dir.join("flight.region_panic.json");
    telemetry::check_dump_file(&json).expect("the dump validates strictly");
    assert!(dir.join("flight.region_panic.txt").exists());
    let doc = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let timeline = doc.get("timeline").and_then(Json::as_arr).unwrap();
    assert!(
        timeline
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("region_panic")),
        "the timeline lacks the region_panic event"
    );
}
