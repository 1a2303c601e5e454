//! Concurrency acceptance test for the serve tier: many submitter
//! threads pushing a mixed tiny/small workload through a multi-team
//! service must (a) produce bitwise-identical solutions to standalone
//! runs of the same requests — serial teams against serial runs,
//! parallel teams against same-width runs (reductions combine
//! per-thread partials in thread order, so results are deterministic
//! per width, not across widths) — (b) tag every job into the flight
//! recorder under a distinct `SolveId` with the right tenant hash, and
//! (c) never lease more pool workers than the configured budget.

use fun3d_core::{FlowConditions, Fun3dApp};
use fun3d_mesh::generator::MeshPreset;
use fun3d_serve::{hash_state, SolveRequest};
use fun3d_serve::{tenant_hash, ServeConfig, Service, SolveReply};
use fun3d_util::telemetry::{self, Level};
use std::collections::HashMap;

fn tiny_req(tenant: &str) -> SolveRequest {
    let mut req = SolveRequest::new(tenant, MeshPreset::Tiny);
    req.max_steps = 4;
    req.rtol = 1e-3;
    req
}

fn small_req(tenant: &str) -> SolveRequest {
    let mut req = SolveRequest::new(tenant, MeshPreset::Small);
    req.max_steps = 2;
    req.rtol = 1e-3;
    req
}

/// A standalone, service-free solve of `req` at width `nt` — the
/// ground truth the service must reproduce bitwise.
fn reference(req: &SolveRequest, nt: usize) -> (u64, Vec<f64>) {
    let mut mesh = req.mesh.build();
    Fun3dApp::rcm_reorder(&mut mesh);
    let mut app = Fun3dApp::new(mesh, FlowConditions::default(), req.opt_config(nt));
    let (u, stats) = app.run(&req.ptc_config());
    (hash_state(&u), stats.res_history)
}

fn cfg(team_threads: usize) -> ServeConfig {
    ServeConfig {
        teams: 2,
        team_threads,
        queue_cap: 64,
        tenant_queue_cap: 32,
        app_cache_per_team: 2,
        factor_cache_cap: 8,
        tenant_weights: vec![("alpha".into(), 2)],
    }
}

/// 4 submitter threads × 3 jobs: ten tiny solves and two small ones,
/// spread over three tenants. Returns `(tenant, is_small, reply)`.
fn submit_mixed_load(svc: &Service) -> Vec<(String, bool, SolveReply)> {
    let tenants = ["alpha", "beta", "gamma", "alpha"];
    std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    for j in 0..3 {
                        let req = if (i, j) == (0, 0) || (i, j) == (1, 2) {
                            small_req(tenant)
                        } else {
                            tiny_req(tenant)
                        };
                        let is_small = req.mesh == MeshPreset::Small;
                        let handle = svc.submit(req).expect("queue is far from its caps");
                        replies.push((tenant.to_string(), is_small, handle.wait()));
                    }
                    replies
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    })
}

fn check_bitwise(
    replies: &[(String, bool, SolveReply)],
    tiny_ref: &(u64, Vec<f64>),
    small_ref: &(u64, Vec<f64>),
    label: &str,
) {
    assert_eq!(replies.len(), 12);
    for (tenant, is_small, reply) in replies {
        let (want_fnv, want_hist) = if *is_small { small_ref } else { tiny_ref };
        assert_eq!(
            reply.state_fnv, *want_fnv,
            "[{label}] tenant {tenant} (small={is_small}) diverged from the reference"
        );
        assert_eq!(&reply.res_history, want_hist, "[{label}] history diverged");
        assert_eq!(&reply.tenant, tenant);
        assert!(reply.team < 2);
    }
}

#[test]
fn concurrent_mixed_load_is_bitwise_identical_and_budgeted() {
    telemetry::set_level(Level::Counters);

    // Ground truth per request shape and width (tenant does not affect
    // the solution).
    let tiny_serial = reference(&tiny_req("ref"), 1);
    let small_serial = reference(&small_req("ref"), 1);
    let tiny_team = reference(&tiny_req("ref"), 2);
    let small_team = reference(&small_req("ref"), 2);

    // Phase 1 — serial teams: concurrent submission + scheduling must
    // reproduce plain serial runs bitwise.
    let svc = Service::start(cfg(1));
    let serial_replies = submit_mixed_load(&svc);
    check_bitwise(&serial_replies, &tiny_serial, &small_serial, "serial teams");
    let serial_stats = svc.shutdown();
    assert_eq!(serial_stats.completed, 12);

    // Phase 2 — 2-wide teams: same workload, checked against
    // standalone runs at the teams' width.
    let team_cfg = cfg(2);
    let budget = team_cfg.worker_budget();
    let svc = Service::start(team_cfg);
    let team_replies = submit_mixed_load(&svc);
    check_bitwise(&team_replies, &tiny_team, &small_team, "2-wide teams");

    // (b) Distinct SolveIds across *both* phases, each carrying a
    // serve_job flight event tagged with the right tenant hash.
    let all: Vec<_> = serial_replies.iter().chain(team_replies.iter()).collect();
    let mut ids: Vec<u64> = all.iter().map(|(_, _, r)| r.solve_id).collect();
    ids.sort_unstable();
    let total = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), total, "solve ids must be distinct per job");

    let log = telemetry::flight_log();
    let mut tagged: HashMap<u64, u64> = HashMap::new();
    for ev in &log.events {
        if let telemetry::EventKind::ServeJob { tenant, .. } = ev.kind {
            tagged.insert(ev.solve, tenant);
        }
    }
    for (tenant, _, reply) in &all {
        assert_eq!(
            tagged.get(&reply.solve_id),
            Some(&tenant_hash(tenant)),
            "solve {} should carry tenant tag for {tenant}",
            reply.solve_id
        );
    }
    assert!(log
        .events
        .iter()
        .any(|e| matches!(e.kind, telemetry::EventKind::ServeAdmit { .. })));

    // (c) The scheduler never leased more workers than configured.
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.worker_budget, budget);
    assert!(
        stats.pool_high_water <= budget,
        "pool high-water {} exceeded budget {budget}",
        stats.pool_high_water
    );
    // Repeated shapes must have actually exercised the artifact cache.
    let cache = stats.cache;
    assert!(
        cache.app.hits + cache.factor.hits > 0,
        "repeated shapes should hit the artifact cache"
    );
}
