//! Per-request trace assembly acceptance test: a 2-team service under
//! concurrent multi-tenant load, then [`telemetry::assemble_trace`] for every
//! reply. Each assembled timeline must carry the full five-stage
//! admit→dispatch→solve→reply ladder in monotone order, resolve the
//! right tenant (hash *and* name, via the per-tenant live histograms),
//! and contain no flight events borrowed from any other request — the
//! isolation that makes a trace trustworthy evidence for one tenant's
//! latency complaint while the service keeps running others.

use fun3d_mesh::generator::MeshPreset;
use fun3d_serve::SolveRequest;
use fun3d_serve::{tenant_hash, ServeConfig, Service, SolveReply};
use fun3d_util::telemetry::{self, Json, Level};
use std::collections::HashSet;

fn req(tenant: &str) -> SolveRequest {
    let mut req = SolveRequest::new(tenant, MeshPreset::Tiny);
    req.max_steps = 3;
    req.rtol = 1e-3;
    req
}

const STAGE_ORDER: [&str; 5] = ["admit", "dispatch", "solve_start", "solve_end", "reply"];

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
        tenant_weights: Vec::new(),
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

    for (tenant, reply) in &replies {
        let t = telemetry::assemble_trace(telemetry::SolveId(reply.solve_id))
            .unwrap_or_else(|| panic!("no trace for solve {}", reply.solve_id));
        assert_eq!(t.solve, reply.solve_id);

        // The full stage ladder, in order, with monotone timestamps.
        let names: Vec<&str> = t.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, STAGE_ORDER, "solve {} stage ladder", reply.solve_id);
        for w in t.stages.windows(2) {
            assert!(
                w[0].t_ns <= w[1].t_ns,
                "solve {}: stage {} at {} after {} at {}",
                reply.solve_id,
                w[0].name,
                w[0].t_ns,
                w[1].name,
                w[1].t_ns
            );
        }

        // Tenant resolution: the flight-carried hash and the name
        // recovered from the per-tenant live histograms.
        assert_eq!(t.tenant, Some(tenant_hash(tenant)));
        assert_eq!(t.tenant_name.as_deref(), Some(tenant.as_str()));

        // Isolation: not one event borrowed from another request.
        assert!(!t.events.is_empty(), "trace should carry flight events");
        for e in &t.events {
            assert_eq!(
                e.solve, reply.solve_id,
                "event {:?} from solve {} leaked into solve {}",
                e.kind, e.solve, reply.solve_id
            );
        }

        // This tenant's stage histograms rode along; the other
        // tenant's did not.
        let other = tenants.iter().find(|t2| *t2 != tenant).unwrap();
        assert!(
            t.hists.iter().any(|h| h.name.contains(tenant.as_str())),
            "trace missing {tenant}'s stage histograms"
        );
        assert!(
            !t.hists.iter().any(|h| h.name.contains(other)),
            "trace for {tenant} carries {other}'s histograms"
        );

        // Both renderings hold together: the JSON round-trips with the
        // schema tag, the text timeline names every stage.
        let doc = Json::parse(&t.to_json().render()).expect("trace JSON parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(telemetry::TRACE_SCHEMA)
        );
        let text = t.render_text();
        for s in STAGE_ORDER {
            assert!(text.contains(s), "text timeline missing stage {s}");
        }
    }

    svc.shutdown();
}
