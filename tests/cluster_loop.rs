//! Closing the paper's loop end-to-end: monitoring daemons stream
//! telemetry to the classification server over real TCP, the server
//! publishes believed compositions on its `CompositionFeed`, and the
//! cluster controller ingests that feed to drive class-aware placement —
//! the compositions come from the trained pipeline, never from ground
//! truth.

mod common;

use appclass::cluster::{
    placement_order, ClassAwarePolicy, ClusterController, ControllerConfig, HostSpec,
    PlacementEngine,
};
use appclass::expected_class;
use appclass::metrics::{ByeReason, NodeId, Snapshot};
use appclass::serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
use appclass::sim::runner::run_spec;
use appclass::sim::vm::VirtualMachine;
use appclass::sim::workload::registry::{training_specs, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

fn snapshots_of(spec: &WorkloadSpec, node: u32, seed: u64) -> Vec<Snapshot> {
    let rec = run_spec(spec, NodeId(node), seed);
    rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect()
}

/// Eight concurrent serve sessions (the five training workloads cycled)
/// publish onto the composition feed; the controller maps sessions to VM
/// node ids, ingests the feed, and every belief's majority class matches
/// the workload's ground truth — which the controller never saw. A ninth
/// session outside the mapping must be ignored. The ingested beliefs
/// then drive a real class-aware placement of the corresponding VMs.
#[test]
fn serve_feed_drives_cluster_beliefs_and_placement() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { max_sessions: 9, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();
    let feed = server.composition_feed();

    let specs = training_specs();
    let mut handles = Vec::new();
    for slot in 0..9usize {
        let spec = &specs[slot % specs.len()];
        let expected = expected_class(spec.expected);
        let snaps = snapshots_of(spec, 200 + slot as u32, 3_000 + slot as u64);
        handles.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
            let session = client.session();
            client.stream_snapshots(&snaps).unwrap();
            let verdict = client.classify().unwrap();
            assert_eq!(client.bye().unwrap(), ByeReason::Normal);
            (slot, session, expected, verdict)
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Sessions 0..8 belong to our fleet (node = 200 + slot); session 8 is
    // somebody else's VM and must not leak into our belief table.
    let map: BTreeMap<u32, u32> = results
        .iter()
        .filter(|(slot, ..)| *slot < 8)
        .map(|(slot, session, ..)| (*session, 200 + *slot as u32))
        .collect();

    let mut ctl = ClusterController::new(
        4,
        HostSpec::paper(),
        PlacementEngine::new(),
        ControllerConfig::default(),
    );
    assert_eq!(ctl.ingest_feed(&feed, &map), 8, "all eight mapped sessions must land");

    let stranger = results.iter().find(|(slot, ..)| *slot == 8).unwrap();
    assert!(
        feed.get(stranger.1).is_some(),
        "the ninth session did publish — it was filtered by the mapping, not lost"
    );

    // Every ingested belief converges to the workload's ground-truth
    // class, and the belief is the pipeline's composition verbatim.
    for (slot, _, expected, verdict) in results.iter().filter(|(slot, ..)| *slot < 8) {
        let node = 200 + *slot as u32;
        let belief = ctl
            .belief(node)
            .unwrap_or_else(|| panic!("node {node} must have a belief after ingest"));
        assert_eq!(
            belief.majority(),
            *expected,
            "slot {slot}: believed majority must match ground truth"
        );
        for class in appclass::prelude::AppClass::ALL {
            assert_eq!(
                belief.fraction(class).to_bits(),
                verdict.composition.fraction(class).to_bits(),
                "slot {slot}: the belief is the served composition, bit-for-bit"
            );
        }
    }
    assert!(ctl.belief(208).is_none(), "the unmapped session must not create a belief");

    // Close the loop: the believed compositions drive an actual
    // class-aware placement of the eight VMs, hardest-first.
    let fleet: Vec<(u32, VirtualMachine)> = results
        .iter()
        .filter(|(slot, ..)| *slot < 8)
        .map(|(slot, ..)| {
            let spec = &specs[slot % specs.len()];
            let node = 200 + *slot as u32;
            let vm = VirtualMachine::new(
                (spec.vm_config)(NodeId(node)),
                (spec.build)(),
                3_000 + *slot as u64,
            );
            (node, vm)
        })
        .collect();
    let beliefs: Vec<_> = fleet.iter().map(|(node, _)| ctl.belief(*node).unwrap()).collect();
    let order = placement_order(&beliefs, &HostSpec::paper().capacity);
    let mut fleet: Vec<_> = fleet.into_iter().map(|(_, vm)| Some(vm)).collect();
    let mut policy = ClassAwarePolicy::default();
    for idx in order {
        let vm = fleet[idx].take().unwrap();
        let comp = beliefs[idx];
        let host = ctl.place(vm, comp, &mut policy);
        assert!(host.is_some(), "an 8-VM fleet fits a 4-host cluster");
    }
    let spec = HostSpec::paper();
    for host in ctl.hosts() {
        assert!(host.vm_count() <= spec.slots, "placement must respect slot limits");
    }
    let occupied = ctl.hosts().iter().filter(|h| h.vm_count() > 0).count();
    assert!(occupied >= 2, "eight VMs cannot legally fit on one paper host");

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_finished, 9);
    assert_eq!(stats.session_errors, 0);
    assert_eq!(feed.len(), 9, "every session left its last verdict on the feed");
}
