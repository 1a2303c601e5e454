//! A process that runs one rank universe after another keeps its
//! telemetry bounded: each universe's rank threads adopt the recorders
//! the previous universe's ranks left behind, so the registry holds one
//! recorder per rank plus the launching thread's, however many universes
//! run — and the per-rank receive-wait histograms a caller differences
//! between two reads never go backwards.
//!
//! One test in its own binary, so no other test's threads are alive to
//! blur the bound.

use fun3d_cluster::dapp::{self, GlobalSetup, RankApp};
use fun3d_cluster::Universe;
use fun3d_core::{FlowConditions, Fun3dApp};
use fun3d_mesh::generator::MeshPreset;
use fun3d_util::telemetry::{self, metrics, Level};

/// `(count, sum_ns)` of both ranks' `recv_ns` histograms.
fn recv_totals() -> (u64, u64) {
    let snap = metrics::snapshot();
    (0..2)
        .filter_map(|r| snap.hist(&format!("cluster.rank{r}.recv_ns")))
        .fold((0, 0), |(n, s), h| (n + h.count, s + h.sum_ns))
}

#[test]
fn twenty_rank_universes_register_at_most_three_recorders() {
    telemetry::set_level(Level::Counters);
    let mut mesh = MeshPreset::Tiny.build();
    Fun3dApp::rcm_reorder(&mut mesh);
    let setup = GlobalSetup::new(mesh, FlowConditions::default(), 2);
    let mut last = recv_totals();
    for run in 0..20 {
        Universe::run(2, |comm| {
            let mut app = RankApp::new(&setup, comm.rank());
            let (_, stats) = dapp::solve(&comm, &mut app, 2.0, 1e-6, 40, 1);
            assert!(stats.converged, "rank {} diverged", comm.rank());
        });
        let recorders = telemetry::registered_recorders();
        assert!(
            recorders <= 3,
            "run {run}: {recorders} recorders for 2 ranks and the launcher"
        );
        let now = recv_totals();
        assert!(
            now.0 > last.0 && now.1 >= last.1,
            "run {run}: receive totals went from {last:?} to {now:?}"
        );
        last = now;
    }
}
