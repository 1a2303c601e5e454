//! One request's story under load: a 2-team service under concurrent
//! multi-tenant load, then `flight_log().solve(id)` for every reply. Each
//! timeline must carry the five-stage admit→dispatch→solve→reply ladder
//! of its `serve_stages` event in monotone order, the right tenant hash,
//! and no flight event borrowed from any other request — the isolation
//! that makes a request's events trustworthy evidence for one tenant's
//! latency complaint while the service keeps running others.

use fun3d_mesh::generator::MeshPreset;
use fun3d_serve::SolveRequest;
use fun3d_serve::{tenant_hash, ServeConfig, Service, SolveReply};
use fun3d_util::telemetry::{self, EventKind, Level};
use std::collections::HashSet;

fn req(tenant: &str) -> SolveRequest {
    let mut req = SolveRequest::new(tenant, MeshPreset::Tiny);
    req.max_steps = 3;
    req.rtol = 1e-3;
    req
}

#[test]
fn every_reply_assembles_an_isolated_monotone_timeline() {
    telemetry::set_level(Level::Counters);

    let svc = Service::start(ServeConfig {
        teams: 2,
        team_threads: 2,
        queue_cap: 64,
        tenant_queue_cap: 32,
        app_cache_per_team: 2,
        factor_cache_cap: 8,
    });

    // Two tenants, three jobs each, submitted from concurrent threads
    // so solves overlap across the two teams.
    let tenants = ["trace-a", "trace-b"];
    let replies: Vec<(String, SolveReply)> = std::thread::scope(|scope| {
        let svc = &svc;
        let handles: Vec<_> = tenants
            .iter()
            .map(|tenant| {
                scope.spawn(move || {
                    (0..3)
                        .map(|_| {
                            let h = svc.submit(req(tenant)).expect("queue has headroom");
                            (tenant.to_string(), h.wait())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(replies.len(), 6);
    let all_ids: HashSet<u64> = replies.iter().map(|(_, r)| r.solve_id).collect();
    assert_eq!(all_ids.len(), 6, "solve ids must be distinct");

    let log = telemetry::flight_log();
    for (tenant, reply) in &replies {
        let events = log.solve(reply.solve_id);
        let ladders: Vec<(u64, [u64; 5])> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ServeStages {
                    tenant,
                    admit_ns,
                    dispatch_ns,
                    solve_start_ns,
                    solve_end_ns,
                    reply_ns,
                } => Some((tenant, [admit_ns, dispatch_ns, solve_start_ns, solve_end_ns, reply_ns])),
                _ => None,
            })
            .collect();
        assert_eq!(ladders.len(), 1, "solve {}: one serve_stages event", reply.solve_id);
        let (hash, stages) = ladders[0];

        // The full stage ladder, admit → dispatch → solve start → solve
        // end → reply, with monotone timestamps.
        assert!(
            stages.windows(2).all(|w| w[0] <= w[1]),
            "solve {}: stage ladder {stages:?} is not monotone",
            reply.solve_id
        );
        assert!(stages[0] > 0, "solve {}: no admission time", reply.solve_id);

        // The flight-carried tenant hash.
        assert_eq!(hash, tenant_hash(tenant));

        // Isolation: exactly one solve's events carry this id — one
        // start, one end, one job, of this tenant — so no event of
        // another request (another team's solve, the other tenant's job)
        // shares it.
        let count = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
        let at = format!("solve {}", reply.solve_id);
        assert_eq!(count(|k| matches!(k, EventKind::SolveStart { .. })), 1, "{at}");
        assert_eq!(count(|k| matches!(k, EventKind::SolveEnd { .. })), 1, "{at}");
        assert_eq!(count(|k| matches!(k, EventKind::ServeJob { .. })), 1, "{at}");
        assert!(
            events.iter().all(|e| !matches!(e.kind, EventKind::ServeJob { tenant: t, .. } if t != hash)),
            "{at}: another tenant's job"
        );
    }

    svc.shutdown();
}
