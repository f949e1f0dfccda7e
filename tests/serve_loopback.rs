//! Loopback integration tests of the classification server.
//!
//! One trained pipeline, one server on an ephemeral port, many real TCP
//! clients on threads: every concurrent session must classify its own
//! workload correctly and independently, identical replays must produce
//! bit-identical verdicts, a lossy client must still converge, admission
//! control must refuse the overflow connection with a typed reason, and
//! shutdown must drain every thread without panics.

mod common;

use appclass::core::modelstore::ModelStore;
use appclass::expected_class;
use appclass::metrics::{ByeReason, FaultPlan, NodeId, Snapshot};
use appclass::serve::{ClientConfig, ServeClient, ServeError, ServerConfig, ShardServer};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::{training_specs, WorkloadSpec};
use std::sync::Arc;

fn snapshots_of(spec: &WorkloadSpec, node: u32, seed: u64) -> Vec<Snapshot> {
    let rec = run_spec(spec, NodeId(node), seed);
    rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect()
}

/// The tentpole acceptance test: ≥8 concurrent sessions over one shared
/// pipeline, each replaying its own workload and getting the right
/// majority class back; two sessions replay the *same* stream and must
/// read back bit-identical verdicts; one session rides a 10%-drop fault
/// channel and must still converge. Shutdown then drains every thread
/// and the aggregate stats must account for all of it.
#[test]
fn concurrent_sessions_classify_independently() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { max_sessions: 10, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    // 8 clean clients cycling the training workloads on distinct
    // node/seed pairs, plus a twin of client 0 (same workload, node and
    // seed) for the bit-reproducibility check, plus one lossy client.
    let specs = training_specs();
    let clients: Vec<(usize, bool)> =
        (0..8).map(|i| (i, false)).chain([(0, false), (2, true)]).collect();

    let mut handles = Vec::new();
    for (slot, (which, lossy)) in clients.into_iter().enumerate() {
        let spec = &specs[which % specs.len()];
        let name = spec.name;
        let expected = expected_class(spec.expected);
        // The twin (slot 8) reuses slot 0's node and seed on purpose.
        let replay_of = if slot == 8 { 0 } else { slot };
        let snaps = snapshots_of(spec, 60 + replay_of as u32, 1000 + replay_of as u64);
        let chaos = lossy.then(|| FaultPlan::lossless(7 + slot as u64).with_drop_rate(0.10));
        handles.push(std::thread::spawn(move || {
            let mut client =
                ServeClient::connect(addr, ClientConfig { model_id: 0, chaos, tracer: None })
                    .unwrap();
            client.stream_snapshots(&snaps).unwrap();
            let verdict = client.classify().unwrap();
            let health = client.health().unwrap();
            assert_eq!(client.bye().unwrap(), ByeReason::Normal);
            assert_eq!(
                verdict.class, expected,
                "session {slot} ({name}, lossy={lossy}) got the wrong majority"
            );
            if lossy {
                assert!(health.seen < snaps.len() as u64, "the fault channel must drop frames");
                assert!(health.seen > 0, "10% drop must not silence the stream");
            } else {
                assert_eq!(health.accepted, snaps.len() as u64);
            }
            (slot, verdict, health)
        }));
    }

    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|(slot, ..)| *slot);

    // Same workload + node + seed ⇒ bit-identical verdict stream.
    let (_, v0, h0) = &results[0];
    let (_, v8, h8) = &results[8];
    assert_eq!(v0.class, v8.class);
    assert_eq!(v0.confidence.to_bits(), v8.confidence.to_bits(), "confidence must be bit-equal");
    for class in appclass::prelude::AppClass::ALL {
        assert_eq!(
            v0.composition.fraction(class).to_bits(),
            v8.composition.fraction(class).to_bits(),
            "composition must be bit-equal in every class"
        );
    }
    assert_eq!(h0.accepted, h8.accepted);

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_started, 10);
    assert_eq!(stats.sessions_finished, 10);
    assert_eq!(stats.session_errors, 0);
    assert_eq!(stats.verdicts, 10);
    assert!(stats.frames_in > 0);
    assert_eq!(stats.classify_latency.count(), 10);
    assert_eq!(
        stats.health.seen,
        results.iter().map(|(_, _, h)| h.seen).sum::<u64>(),
        "aggregate health must be the sum of the per-session reports"
    );
}

/// The `Stats` control frame: a session can ask the server for its
/// metric exposition mid-stream and gets back parseable Prometheus-style
/// text reflecting the work done so far, the same text the server-side
/// observability handle renders.
#[test]
fn stats_frame_returns_a_live_parseable_exposition() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 90, 555);
    let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    client.stream_snapshots(&snaps).unwrap();
    client.classify().unwrap();
    let text = client.stats().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);

    // Every line is `name value` (value possibly labelled); no line is
    // empty, and the values parse as f64.
    assert!(!text.is_empty(), "an instrumented server must expose metrics");
    for line in text.lines() {
        let (name, value) = line.rsplit_once(' ').expect("line must be `name value`");
        assert!(!name.is_empty(), "{line:?}");
        value.parse::<f64>().unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
    }
    let field = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
    };
    assert_eq!(field("serve_classify_total"), 1.0);
    assert_eq!(field("serve_frames_in_total"), snaps.len() as f64);
    assert_eq!(field("serve_sessions_started_total"), 1.0);
    assert!(field("serve_classify_latency_count") >= 1.0);

    // The server-side handle sees the same registry the wire dump came
    // from, and the session's traced classify calls landed in the ring.
    let obs = server.observability().clone();
    assert_eq!(obs.registry.counter("serve_classify_total").get(), 1);
    assert!(obs.tracer.recorded() > 0, "traced sessions must record spans");

    server.shutdown();
    server.join().unwrap();
}

/// `join` reads every counter of its report from the registry the
/// `Stats` exposition renders: a distinct value put on each exposition
/// name comes back in its own field.
#[test]
fn join_reports_what_the_exposition_counts() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let registry = server.observability().registry.clone();
    let names = [
        "serve_sessions_started_total",
        "serve_sessions_finished_total",
        "serve_sessions_rejected_total",
        "serve_shed_total",
        "serve_session_errors_total",
        "serve_frames_in_total",
        "serve_frames_repaired_total",
        "serve_frames_dropped_total",
        "serve_frames_malformed_total",
        "serve_deadline_shed_total",
        "serve_classify_total",
    ];
    for (value, name) in (1u64..).zip(names) {
        registry.counter(name).add(value);
    }
    registry.histogram("serve_classify_latency").record(std::time::Duration::from_micros(3));
    let text = registry.render();

    server.shutdown();
    let stats = server.join().unwrap();
    let fields = [
        stats.sessions_started,
        stats.sessions_finished,
        stats.sessions_rejected,
        stats.sessions_busy,
        stats.session_errors,
        stats.frames_in,
        stats.frames_repaired,
        stats.frames_dropped,
        stats.frames_malformed,
        stats.frames_deadline_shed,
        stats.verdicts,
    ];
    for ((value, name), field) in (1u64..).zip(names).zip(fields) {
        assert_eq!(field, value, "{name}");
        assert!(text.lines().any(|l| l == format!("{name} {value}")), "{name} in:\n{text}");
    }
    assert_eq!(stats.classify_latency.count(), 1);
}

/// A session on a corrupting telemetry link must leave a trace in the
/// flight recorder: the first degraded frame snapshots the recent spans
/// and registry state into an incident, exportable as JSONL.
#[test]
fn degraded_session_leaves_a_flight_incident() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 92, 888);
    let mut plan = FaultPlan::lossless(99);
    plan.truncate_rate = 0.5; // wire-level: truncated datagrams fail to decode
    let chaos = Some(plan);
    let mut client =
        ServeClient::connect(addr, ClientConfig { model_id: 0, chaos, tracer: None }).unwrap();
    client.stream_snapshots(&snaps).unwrap();
    client.classify().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);

    let obs = server.observability().clone();
    server.shutdown();
    let stats = server.join().unwrap();
    assert!(
        stats.frames_malformed + stats.frames_dropped + stats.frames_repaired > 0,
        "the corrupting channel must degrade some frames"
    );
    assert_eq!(obs.flight.len(), 1, "exactly one incident for the first degraded frame");
    let incident = &obs.flight.incidents()[0];
    assert!(incident.reason.contains("degraded"), "{}", incident.reason);
    let jsonl = obs.flight.to_jsonl();
    assert_eq!(jsonl.lines().count(), 1);
}

/// Multi-session aggregation regression: the server folds every
/// session's per-stage cost counters together via `StageMetrics::merge`,
/// so after two identical sessions the aggregate must carry exactly
/// twice one session's samples and calls for every stage.
#[test]
fn aggregate_stage_metrics_are_the_merge_of_all_sessions() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[1], 91, 777);

    // A local replica of exactly what one session does to its
    // classifier, for the expected per-session stage counters.
    let mut lone = appclass::prelude::OnlineClassifier::new(&pipeline);
    for snap in &snaps {
        lone.push_guarded(snap).unwrap();
    }
    let per_session = lone.stage_metrics().clone();
    assert!(!per_session.is_empty(), "fixture must exercise the stages");

    for _ in 0..2 {
        let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
        client.stream_snapshots(&snaps).unwrap();
        client.classify().unwrap();
        assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    }

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_finished, 2);
    for stat in per_session.stages() {
        let merged = stats
            .stage_metrics
            .get(&stat.name)
            .unwrap_or_else(|| panic!("stage {} missing from the aggregate", stat.name));
        assert_eq!(merged.samples, 2 * stat.samples, "stage {}", stat.name);
        assert_eq!(merged.calls, 2 * stat.calls, "stage {}", stat.name);
    }
}

/// The batched hot path must be invisible in the answers: the same
/// snapshot stream sent as coalesced `SnapshotBatch` frames and as
/// individual `Snapshot` frames must produce bit-identical verdicts and
/// identical health reports, while every item's disposition comes back
/// in the batch acknowledgements.
#[test]
fn batched_stream_matches_single_frame_verdicts_bitwise() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { max_sessions: 4, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    for (which, batch) in [(0usize, 32usize), (1, 7), (2, 1)] {
        let snaps = snapshots_of(&specs[which], 80, 2024 + which as u64);

        let mut single = ServeClient::connect(addr, ClientConfig::default()).unwrap();
        single.stream_snapshots(&snaps).unwrap();
        let v_single = single.classify().unwrap();
        let h_single = single.health().unwrap();
        assert_eq!(single.bye().unwrap(), ByeReason::Normal);

        let mut batched = ServeClient::connect(addr, ClientConfig::default()).unwrap();
        let report = batched.stream_batch(&snaps, batch).unwrap();
        let v_batch = batched.classify().unwrap();
        let h_batch = batched.health().unwrap();
        assert_eq!(batched.bye().unwrap(), ByeReason::Normal);

        assert_eq!(report.sent, snaps.len() as u64);
        assert_eq!(report.accepted, snaps.len() as u64, "clean link: all accepted");
        assert_eq!(report.batches, snaps.len().div_ceil(batch) as u64);

        assert_eq!(v_single.class, v_batch.class, "spec {which} batch {batch}");
        assert_eq!(
            v_single.confidence.to_bits(),
            v_batch.confidence.to_bits(),
            "spec {which} batch {batch}: confidence must be bit-equal"
        );
        for class in appclass::prelude::AppClass::ALL {
            assert_eq!(
                v_single.composition.fraction(class).to_bits(),
                v_batch.composition.fraction(class).to_bits(),
                "spec {which} batch {batch}: composition must be bit-equal"
            );
        }
        assert_eq!(h_single, h_batch, "spec {which} batch {batch}: same health");
    }

    server.shutdown();
    server.join().unwrap();
}

/// A batched stream over a corrupting channel: the per-item dispositions
/// in the acknowledgements must account for every datagram put on the
/// wire, and degradation must be visible in them.
#[test]
fn lossy_batched_stream_reports_dispositions() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 81, 31337);
    let mut plan = FaultPlan::lossless(5);
    plan.truncate_rate = 0.2;
    plan.corrupt_rate = 0.1;
    let chaos = Some(plan);
    let mut client =
        ServeClient::connect(addr, ClientConfig { model_id: 0, chaos, tracer: None }).unwrap();
    let report = client.stream_batch(&snaps, 16).unwrap();
    let verdict = client.classify().unwrap();
    let health = client.health().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);

    assert_eq!(
        report.accepted + report.repaired + report.dropped + report.malformed,
        report.sent,
        "every item must come back with exactly one disposition"
    );
    assert!(
        report.repaired + report.dropped + report.malformed > 0,
        "the corrupting channel must degrade some items: {report:?}"
    );
    assert_eq!(health.seen + report.malformed, report.sent, "guard sees all decodable items");
    assert_eq!(
        verdict.class,
        expected_class(specs[0].expected),
        "classification must survive the degradation"
    );

    // The drain report agrees with the client's own tally, field by
    // field: each count is read from its own registry counter.
    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(
        (stats.frames_in, stats.frames_repaired, stats.frames_dropped, stats.frames_malformed),
        (report.sent, report.repaired, report.dropped, report.malformed),
        "server frame counts vs the client's batch report"
    );
    assert_eq!(stats.health, health, "the drain report's health is the session's Health reply");
}

/// The frame budget counts batched items exactly like single frames: a
/// batch that would cross the budget ends the session with
/// `Bye(FrameBudget)` before any of it is classified.
#[test]
fn frame_budget_applies_to_batched_items() {
    let pipeline = Arc::new(common::trained_pipeline());
    let mut config = ServerConfig { max_sessions: 2, ..ServerConfig::default() };
    config.session.frame_budget = 10;
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 82, 9090);
    assert!(snaps.len() > 10, "fixture must overrun the 10-frame budget");

    let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    match client.stream_batch(&snaps, 8) {
        Err(ServeError::Rejected { reason }) => assert_eq!(reason, ByeReason::FrameBudget),
        Err(ServeError::ConnectionClosed) | Err(ServeError::Io(_)) => {}
        Ok(report) => panic!("an over-budget batched stream must be cut, got {report:?}"),
        Err(other) => panic!("unexpected error class: {other}"),
    }

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_finished, 1, "a budget cut is a clean end, not an error");
}

/// Admission control: with one session slot and no backlog, a second
/// connection arriving while the first session is parked must be
/// refused with `Bye(SessionLimit)` — and the refusal must be typed on
/// the client side.
#[test]
fn overflow_connection_is_refused_with_session_limit() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { max_sessions: 1, backlog: 0, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    let occupant = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    // The occupant's handshake round-trip proves its session is being
    // served, so the one slot is now taken.
    let refused = match ServeClient::connect(addr, ClientConfig::default()) {
        Err(ServeError::Rejected { reason }) => reason,
        Err(other) => panic!("second connection must be refused cleanly, got error {other}"),
        Ok(_) => panic!("second connection must be refused, but was admitted"),
    };
    assert_eq!(refused, ByeReason::SessionLimit);

    assert_eq!(occupant.bye().unwrap(), ByeReason::Normal);
    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_rejected, 1);
    assert_eq!(stats.sessions_finished, 1);
}

/// A client demanding a model the server does not serve must be turned
/// away during the handshake with `Bye(ModelMismatch)`; the wildcard
/// fingerprint 0 must always be accepted.
#[test]
fn model_fingerprint_gates_the_handshake() {
    let pipeline = Arc::new(common::trained_pipeline());
    let served = pipeline.model_id();
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mismatched = ClientConfig { model_id: served ^ 1, ..ClientConfig::default() };
    match ServeClient::connect(addr, mismatched) {
        Err(ServeError::Rejected { reason }) => assert_eq!(reason, ByeReason::ModelMismatch),
        Err(other) => panic!("mismatched model must be refused cleanly, got error {other}"),
        Ok(_) => panic!("mismatched model must be refused, but was admitted"),
    }

    let exact = ClientConfig { model_id: served, ..ClientConfig::default() };
    let client = ServeClient::connect(addr, exact).unwrap();
    assert_eq!(client.model_id(), served);
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.session_errors, 1, "the mismatch is accounted as a session error");
    assert_eq!(stats.sessions_finished, 1);
}

/// The hot-swap acceptance test: an established session must survive a
/// model swap performed by *another* session — its verdict model tags
/// flip old → new, it keeps classifying correctly on the same TCP
/// connection, a client pinned to the retired fingerprint is still
/// admitted through the drain window, the swap shows up in the metric
/// exposition, and the server accounts zero session errors.
#[test]
fn hot_swap_drains_sessions_without_dropping_connections() {
    let old_pipeline = Arc::new(common::trained_pipeline());
    let new_pipeline = common::trained_pipeline_seeded(1042);
    let (old_id, new_id) = (old_pipeline.model_id(), new_pipeline.model_id());
    assert_ne!(old_id, new_id, "distinct seeds must fingerprint differently");

    let config = ServerConfig { max_sessions: 4, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&old_pipeline), config).unwrap();
    let addr = server.local_addr();
    assert_eq!(server.model_id(), old_id);

    let specs = training_specs();
    let spec = &specs[1];
    let snaps = snapshots_of(spec, 64, 6464);

    // The long-lived session: established before the swap, streaming on
    // the old model.
    let mut streaming = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    assert_eq!(streaming.model_id(), old_id);
    streaming.stream_snapshots(&snaps).unwrap();
    let before = streaming.classify().unwrap();
    assert_eq!(before.model, old_id, "pre-swap verdicts carry the old fingerprint");
    assert_eq!(before.class, expected_class(spec.expected));

    // A second session performs the swap; its ack names both versions.
    let mut swapper = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    let json = new_pipeline.to_json().unwrap();
    assert_eq!(swapper.swap_model(&json).unwrap(), (old_id, new_id));
    assert_eq!(swapper.model_id(), new_id);
    assert_eq!(server.model_id(), new_id);

    // The streaming session drains onto the new model at its next frame:
    // the first classify may still land in the old generation (the epoch
    // is polled between frames), but the tag must flip within a couple.
    let mut flipped = streaming.classify().unwrap();
    for _ in 0..10 {
        if flipped.model == new_id {
            break;
        }
        assert_eq!(flipped.model, old_id, "tags are only ever old or new");
        std::thread::sleep(std::time::Duration::from_millis(20));
        flipped = streaming.classify().unwrap();
    }
    assert_eq!(flipped.model, new_id, "the session must rebuild onto the swapped model");

    // Same connection, new generation: streaming continues and the
    // verdict is produced by (and tagged with) the new model.
    streaming.stream_snapshots(&snaps).unwrap();
    let after = streaming.classify().unwrap();
    assert_eq!(after.model, new_id);
    assert_eq!(after.class, expected_class(spec.expected));

    // The drain window: a client still pinned to the retired fingerprint
    // is admitted and told the current one; an unknown fingerprint is not.
    let pinned = ClientConfig { model_id: old_id, ..ClientConfig::default() };
    let drained = ServeClient::connect(addr, pinned).unwrap();
    assert_eq!(drained.model_id(), new_id);
    assert_eq!(drained.bye().unwrap(), ByeReason::Normal);
    match ServeClient::connect(addr, ClientConfig { model_id: 0x1234, ..ClientConfig::default() }) {
        Err(ServeError::Rejected { reason }) => assert_eq!(reason, ByeReason::ModelMismatch),
        Err(other) => panic!("unknown fingerprint must be refused cleanly, got error {other}"),
        Ok(_) => panic!("unknown fingerprint must still be refused, but was admitted"),
    }

    // The swap is visible in the exposition: the counter and its latency
    // histogram both recorded exactly one swap.
    let text = swapper.stats().unwrap();
    let field = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
            .unwrap_or_else(|| panic!("metric {name} missing from exposition:\n{text}"))
    };
    assert_eq!(field("serve_model_swap_total"), 1.0);
    assert!(field("serve_model_swap_latency_count") >= 1.0);

    // And in the flight recorder: the swap opened a (recorded)
    // degradation window.
    let obs = server.observability().clone();
    assert!(
        obs.flight.incidents().iter().any(|i| i.reason.contains("model swap")),
        "the swap must be flight-recorded"
    );

    assert_eq!(streaming.bye().unwrap(), ByeReason::Normal);
    assert_eq!(swapper.bye().unwrap(), ByeReason::Normal);
    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(
        stats.session_errors, 1,
        "only the deliberate unknown-fingerprint probe errs; the swap itself costs nothing"
    );
    assert_eq!(stats.sessions_finished, 3, "all established sessions drain cleanly");
}

/// Restart contract: a server rebuilt from the model store's durable
/// HEAD serves the identical fingerprint, admits a client pinned to it,
/// and returns bit-equal verdicts for the same snapshot stream.
#[test]
fn restarted_server_serves_identical_fingerprint_and_verdicts() {
    let dir = std::env::temp_dir().join(format!("appclass_it_swap_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let pipeline = common::trained_pipeline();
    let served = pipeline.model_id();
    ModelStore::open(&dir).unwrap().commit(&pipeline).unwrap();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 65, 6565);

    let run_once = |pipeline: Arc<appclass::prelude::ClassifierPipeline>| {
        let server = ShardServer::bind("127.0.0.1:0", pipeline, ServerConfig::default()).unwrap();
        let pinned = ClientConfig { model_id: served, ..ClientConfig::default() };
        let mut client = ServeClient::connect(server.local_addr(), pinned).unwrap();
        client.stream_snapshots(&snaps).unwrap();
        let verdict = client.classify().unwrap();
        assert_eq!(client.bye().unwrap(), ByeReason::Normal);
        server.shutdown();
        server.join().unwrap();
        verdict
    };

    let first = run_once(Arc::new(pipeline));
    // "Restart": everything rebuilt from disk.
    let (restored, meta) = ModelStore::open(&dir).unwrap().load_head().unwrap().unwrap();
    assert_eq!(meta.id, served);
    let second = run_once(Arc::new(restored));

    assert_eq!(first.model, served);
    assert_eq!(second.model, served, "the restarted server serves the same fingerprint");
    assert_eq!(first.class, second.class);
    assert_eq!(first.confidence.to_bits(), second.confidence.to_bits());
    for class in appclass::prelude::AppClass::ALL {
        assert_eq!(
            first.composition.fraction(class).to_bits(),
            second.composition.fraction(class).to_bits(),
            "restart must reproduce verdicts bit-for-bit"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A session that exceeds its frame budget is ended gracefully with
/// `Bye(FrameBudget)` on the next announcement, not killed mid-stream.
#[test]
fn frame_budget_ends_the_session_gracefully() {
    let pipeline = Arc::new(common::trained_pipeline());
    let mut config = ServerConfig { max_sessions: 2, ..ServerConfig::default() };
    config.session.window = Some(16);
    config.session.frame_budget = 10;
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 70, 4242);
    assert!(snaps.len() > 10, "fixture must overrun the 10-frame budget");

    let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    let outcome = (|| -> Result<(), ServeError> {
        client.stream_snapshots(&snaps)?;
        client.classify()?;
        Ok(())
    })();
    match outcome {
        Err(ServeError::Rejected { reason }) => assert_eq!(reason, ByeReason::FrameBudget),
        Err(ServeError::ConnectionClosed) | Err(ServeError::Io(_)) => {
            // The server hung up after its Bye; racing past it into a
            // dead socket is an equally valid way to observe the cut.
        }
        Ok(()) => panic!("an over-budget stream must not classify normally"),
        Err(other) => panic!("unexpected error class: {other}"),
    }

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_finished, 1, "a budget cut is a clean end, not an error");
    assert!(stats.frames_in <= 11, "the server must stop counting at the budget cut");
}

/// The ISSUE 9 tentpole acceptance test: a traced client's spans and the
/// server's spans share ONE trace id end to end — the client stamps a
/// `TraceContext` on its frames, the server adopts it for classify and
/// stage spans, the `Verdict` echoes it, and the `TraceAssembler` merges
/// both processes' span dumps into a single tree. An untraced (old)
/// client on the same stream classifies bit-identically, proving the
/// extension changes nothing but observability.
#[test]
fn trace_propagates_end_to_end_and_old_clients_classify_identically() {
    use appclass::obs::{SpanDump, TraceAssembler, Tracer};

    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { max_sessions: 2, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 95, 4242);

    // Old client: no tracer, frames carry no extension.
    let mut old = ServeClient::connect(addr, ClientConfig::default()).unwrap();
    assert_eq!(old.trace_id(), None);
    old.stream_snapshots(&snaps).unwrap();
    let v_old = old.classify().unwrap();
    assert_eq!(v_old.trace, None, "an untraced request gets an untraced verdict");
    assert_eq!(old.bye().unwrap(), ByeReason::Normal);

    // Traced client replaying the exact same stream.
    let tracer = Tracer::new(8192);
    let traced_config = ClientConfig { model_id: 0, chaos: None, tracer: Some(tracer.clone()) };
    let mut traced = ServeClient::connect(addr, traced_config).unwrap();
    let trace_id = traced.trace_id().expect("a traced client mints a trace id");
    traced.stream_snapshots(&snaps).unwrap();
    let v_new = traced.classify().unwrap();
    assert_eq!(v_new.trace, Some(trace_id), "the Verdict must echo the request's trace id");
    assert_eq!(traced.bye().unwrap(), ByeReason::Normal);

    // Old peer and traced peer classify bit-identically.
    assert_eq!(v_old.class, v_new.class);
    assert_eq!(v_old.confidence.to_bits(), v_new.confidence.to_bits());
    for class in appclass::prelude::AppClass::ALL {
        assert_eq!(
            v_old.composition.fraction(class).to_bits(),
            v_new.composition.fraction(class).to_bits(),
            "tracing must not change classification"
        );
    }

    let obs = server.observability().clone();
    server.shutdown();
    server.join().unwrap();

    // Client-side spans carry the trace id.
    let client_spans: Vec<_> =
        tracer.recent(8192).into_iter().filter(|s| s.trace == Some(trace_id)).collect();
    let has = |name: &str| client_spans.iter().any(|s| s.name == name);
    assert!(has("client_send"), "client_send spans must join the trace");
    assert!(has("client_classify"), "client_classify spans must join the trace");

    // Server-side spans adopted the SAME trace id: the classify span and
    // at least one classifier stage span.
    let server_spans: Vec<_> =
        obs.tracer.recent(8192).into_iter().filter(|s| s.trace == Some(trace_id)).collect();
    assert!(
        server_spans.iter().any(|s| s.name == "classify"),
        "the server's classify span must adopt the propagated trace"
    );
    assert!(
        server_spans.len() > 1,
        "classifier stage spans must also ride the adopted trace, got {server_spans:?}"
    );

    // Assemble both processes into one tree: the server's classify span
    // grafts under the client's classify span.
    let client_classify = client_spans
        .iter()
        .find(|s| s.name == "client_classify")
        .expect("client_classify span recorded");
    let mut asm = TraceAssembler::new();
    asm.add_dump(SpanDump::from_tracer("client", &tracer, trace_id, None, 8192));
    asm.add_dump(SpanDump::from_tracer(
        "server",
        &obs.tracer,
        trace_id,
        Some(client_classify.id),
        8192,
    ));
    let tree = asm.assemble();
    assert!(tree.iter().any(|s| s.process == "client"), "assembled trace spans both processes");
    let server_classify = tree
        .iter()
        .find(|s| s.process == "server" && s.name == "classify")
        .expect("server classify span in the assembled tree");
    assert!(server_classify.depth > 0, "the server span grafts under the client span");
    let jsonl = asm.to_jsonl();
    assert_eq!(jsonl.lines().count(), tree.len(), "one JSONL line per assembled span");
}

/// The shed-ratio SLO test: flooding a one-slot server past
/// its per-frame deadline budget drives the shed-ratio SLO's burn rate
/// over 1.0 in both windows within one evaluation, latches exactly one
/// flight-recorder incident for the episode (no alert spam on repeated
/// evaluations), and exports `slo_breach_total` through the live `Stats`
/// exposition a client reads.
#[test]
fn deadline_flood_breaches_the_shed_slo_exactly_once() {
    use appclass::obs::{Slo, SloConfig, SloMonitor, TsStore};
    use std::time::Duration;

    let pipeline = Arc::new(common::trained_pipeline());
    let mut config = ServerConfig { max_sessions: 1, ..ServerConfig::default() };
    // A 1 ns deadline budget: every snapshot is stale by the time its
    // envelope is read, so the whole flood is shed.
    config.session.deadline = Some(Duration::from_nanos(1));
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();
    let obs = server.observability().clone();

    let mut monitor = SloMonitor::new(&obs, SloConfig::default()).with(Slo::shed_ratio(0.05));
    let mut store = TsStore::new(64);

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 96, 1234);
    let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();

    // Baseline scrape before the flood (the session is admitted, so the
    // serve counters exist), then flood, then scrape 30 s later in
    // store time — inside both burn windows.
    store.scrape_at(&obs.registry, 0);
    client.stream_snapshots(&snaps).unwrap();
    let _ = client.classify().unwrap();
    assert!(client.busy_notices() > 0, "the deadline flood must shed (Busy notices)");
    store.scrape_at(&obs.registry, 30_000_000_000);

    let statuses = monitor.evaluate(&store, &obs);
    let shed =
        statuses.iter().find(|s| s.name.starts_with("shed_ratio")).expect("shed SLO evaluated");
    assert!(shed.breached, "a fully shed flood must breach the 5% shed SLO: {shed:?}");
    assert!(shed.newly_breached, "first evaluation opens the breach episode");
    assert!(
        shed.short_burn.unwrap_or(0.0) > 1.0 && shed.long_burn.unwrap_or(0.0) > 1.0,
        "both windows must burn: {shed:?}"
    );

    // Re-evaluating the same episode must NOT file another incident.
    store.scrape_at(&obs.registry, 60_000_000_000);
    let again = monitor.evaluate(&store, &obs);
    let shed_again = again.iter().find(|s| s.name.starts_with("shed_ratio")).unwrap();
    assert!(shed_again.breached && !shed_again.newly_breached, "{shed_again:?}");

    let slo_incidents =
        obs.flight.incidents().iter().filter(|i| i.reason.contains("slo breach")).count();
    assert_eq!(slo_incidents, 1, "one breach episode = exactly one flight incident");
    assert_eq!(obs.registry.counter("slo_breach_total").get(), 1);

    // The breach is visible to any client through the Stats frame.
    let text = client.stats().unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("slo_breach_total"))
        .expect("slo_breach_total must appear in the exposition");
    assert_eq!(line, "slo_breach_total 1");

    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    server.shutdown();
    server.join().unwrap();
}
