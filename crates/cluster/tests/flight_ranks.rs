//! Cross-rank flight-recorder correlation: every rank thread of an
//! in-process `Universe` records into its own ring tagged with its
//! rank, and one `snapshot()` merges them into a single causally
//!-ordered timeline — the multi-rank half of the black-box story.

use fun3d_cluster::Universe;
use fun3d_util::telemetry::flight::{self, EventKind};
use fun3d_util::telemetry::{self, Level};

#[test]
fn rank_comm_events_merge_into_one_ordered_timeline() {
    telemetry::set_level(Level::Counters);
    // Distinctive payload sizes so this test's events are identifiable
    // even though the process-wide log may hold events from elsewhere.
    const A: usize = 11; // rank 0 -> 1: 88 bytes
    const B: usize = 23; // rank 1 -> 0: 184 bytes
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 5, vec![1.0; A]);
            let got = comm.recv(1, 6);
            assert_eq!(got.len(), B);
        } else {
            let got = comm.recv(0, 5);
            assert_eq!(got.len(), A);
            comm.send(0, 6, vec![2.0; B]);
        }
    });

    let log = flight::snapshot();
    // The merge is globally time-ordered (ties broken by rank).
    for w in log.events.windows(2) {
        assert!(
            (w[0].t_ns, w[0].rank) <= (w[1].t_ns, w[1].rank),
            "snapshot not time-ordered: {:?} then {:?}",
            w[0],
            w[1]
        );
    }

    let find = |want: EventKind| {
        log.events
            .iter()
            .find(|e| e.kind == want)
            .unwrap_or_else(|| panic!("missing event {want:?}"))
    };
    // Each rank's traffic, tagged with the emitting rank.
    let send_a = find(EventKind::CommSend { peer: 1, bytes: (A * 8) as u64 });
    let recv_a = find(EventKind::CommRecv { peer: 0, bytes: (A * 8) as u64 });
    let send_b = find(EventKind::CommSend { peer: 0, bytes: (B * 8) as u64 });
    let recv_b = find(EventKind::CommRecv { peer: 1, bytes: (B * 8) as u64 });
    assert_eq!(send_a.rank, 0);
    assert_eq!(recv_a.rank, 1);
    assert_eq!(send_b.rank, 1);
    assert_eq!(recv_b.rank, 0);

    // Causal order across ranks: the ranks share the process telemetry
    // epoch, and a send is recorded before the message is enqueued while
    // the matching recv is recorded after it arrives — so each matched
    // pair must appear send-before-recv in the merged record.
    assert!(send_a.t_ns <= recv_a.t_ns, "send(0->1) after its recv");
    assert!(send_b.t_ns <= recv_b.t_ns, "send(1->0) after its recv");
    // And the protocol itself is serialized: rank 1 cannot have sent B
    // before it received A.
    assert!(recv_a.t_ns <= send_b.t_ns, "rank 1 sent before it received");
}
