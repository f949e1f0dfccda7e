//! Integration tests of the sharded session fabric
//! (`appclass::serve::ShardServer`): protocol parity with the threaded
//! server, exact accounting under heavy concurrency, and the
//! shedding-shutdown refusal regression.

mod common;

use appclass::metrics::{NodeId, Snapshot};
use appclass::prelude::AppClass;
use appclass::serve::feed::RETIRED_KEPT;
use appclass::serve::{
    ClientConfig, CompositionFeed, ServeClient, ServeError, Server, ServerConfig, ShardServer,
};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::{training_specs, WorkloadSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn snapshots_of(spec: &WorkloadSpec, node: u32, seed: u64) -> Vec<Snapshot> {
    let rec = run_spec(spec, NodeId(node), seed);
    rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect()
}

/// The tentpole scale test: ≥200 concurrent sessions spread across the
/// shards, every session a real TCP client on its own thread. Sessions
/// come in twin groups replaying the *same* snapshot stream — any
/// cross-session state leak inside a shard (shared classifier, mixed-up
/// read buffers) would break the bit-identical-verdict and exact-health
/// invariants. The final merged stats must account for every session
/// and every frame exactly.
#[test]
fn two_hundred_concurrent_sessions_across_shards_stay_isolated() {
    const GROUPS: usize = 10;
    const TWINS: usize = 20; // sessions per group
    const SESSIONS: usize = GROUPS * TWINS; // 200
    const FRAMES: usize = 40; // per session

    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig {
        max_sessions: SESSIONS + 8, // depth stays 0: no shedding here
        backlog: 16,
        shards: 4,
        ..ServerConfig::default()
    };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();
    let model = server.model_id();

    // Ten distinct streams (5 workloads × 2 node/seed variants), each
    // replayed by 20 twin sessions.
    let specs = training_specs();
    let streams: Vec<Arc<Vec<Snapshot>>> = (0..GROUPS)
        .map(|g| {
            let spec = &specs[g % specs.len()];
            let mut snaps = snapshots_of(spec, 70 + g as u32, 4000 + g as u64);
            snaps.truncate(FRAMES);
            assert!(snaps.len() >= 10, "stream {g} too short to exercise the classifier");
            Arc::new(snaps)
        })
        .collect();

    let mut handles = Vec::with_capacity(SESSIONS);
    for slot in 0..SESSIONS {
        let snaps = Arc::clone(&streams[slot % GROUPS]);
        handles.push(std::thread::spawn(move || {
            let mut client =
                ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
                    .unwrap();
            client.stream_snapshots(&snaps).unwrap();
            let verdict = client.classify().unwrap();
            let health = client.health().unwrap();
            assert_eq!(client.bye().unwrap(), appclass::metrics::ByeReason::Normal);
            // Exact per-session accounting: every frame this session
            // sent — and only those — passed its guard.
            assert_eq!(
                health.accepted,
                snaps.len() as u64,
                "session {slot}: cross-session frame leakage or loss"
            );
            assert_eq!(verdict.model, model, "session {slot} got a foreign model tag");
            (slot, verdict, health)
        }));
    }
    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_by_key(|(slot, ..)| *slot);

    // Twins (same stream) must read back bit-identical verdicts no
    // matter which shard served them.
    for g in 0..GROUPS {
        let (_, first, _) = &results[g];
        for t in 1..TWINS {
            let (slot, v, _) = &results[t * GROUPS + g];
            assert_eq!(v.class, first.class, "twin {slot} diverged in class");
            assert_eq!(
                v.confidence.to_bits(),
                first.confidence.to_bits(),
                "twin {slot} diverged in confidence bits"
            );
            for class in AppClass::ALL {
                assert_eq!(
                    v.composition.fraction(class).to_bits(),
                    first.composition.fraction(class).to_bits(),
                    "twin {slot} diverged in composition"
                );
            }
        }
    }

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_started, SESSIONS as u64);
    assert_eq!(stats.sessions_finished, SESSIONS as u64);
    assert_eq!(stats.session_errors, 0);
    assert_eq!(stats.sessions_rejected, 0);
    assert_eq!(stats.sessions_busy, 0);
    assert_eq!(stats.verdicts, SESSIONS as u64);
    let total_frames: u64 = streams.iter().map(|s| s.len() as u64 * TWINS as u64).sum();
    assert_eq!(stats.frames_in, total_frames, "merged frame count must be exact");
    assert_eq!(
        stats.health.seen,
        results.iter().map(|(_, _, h)| h.seen).sum::<u64>(),
        "merged health must be the sum of per-session reports"
    );
}

/// Regression for the shutdown-poke accounting bug: shutting down a
/// server that is actively *shedding* must not perturb the busy/refusal
/// counters. The old implementation woke its blocking acceptor with a
/// self-connect, which during a shedding episode was soft-refused like
/// any client and inflated `sessions_busy` by one. With readiness-driven
/// accept there is no poke, so the counts below are exact.
#[test]
fn shutdown_of_a_shedding_server_keeps_refusal_counts_exact() {
    let pipeline = Arc::new(common::trained_pipeline());
    // One worker, deep backlog, shedding from queue depth 2: the math
    // below is deterministic because nothing ever drains mid-test.
    let config = ServerConfig {
        max_sessions: 1,
        backlog: 32,
        shed_low_watermark: 1,
        shed_high_watermark: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    // Session 0 completes its handshake on the only worker and idles,
    // pinning `in_flight` at 1 before any probe connects.
    let held = ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
        .unwrap();

    // Eight probes. The acceptor serializes admissions and nothing
    // drains (the worker is held), so the outcome is fully determined:
    // probes are admitted while depth < 2 (two of them: depth 0, then
    // 1), and every later probe is soft-refused Busy (six of them).
    let busy_seen = Arc::new(AtomicU64::new(0));
    let mut probes = Vec::new();
    for _ in 0..8 {
        let busy_seen = Arc::clone(&busy_seen);
        probes.push(std::thread::spawn(move || {
            match ServeClient::connect(
                addr,
                ClientConfig { model_id: 0, chaos: None, tracer: None },
            ) {
                // Queued probes block in the handshake until shutdown
                // refuses them at worker pickup.
                Err(ServeError::Busy { retry_after_ms }) => {
                    assert!(retry_after_ms > 0, "busy refusal must carry a retry hint");
                    busy_seen.fetch_add(1, Ordering::SeqCst);
                    "busy"
                }
                Err(ServeError::Rejected { reason }) => {
                    assert_eq!(reason, appclass::metrics::ByeReason::Shutdown);
                    "rejected"
                }
                Ok(_) => "admitted",
                Err(e) => panic!("unexpected probe outcome: {e}"),
            }
        }));
    }

    // Wait until all six Busy refusals have landed, proving the server
    // is mid-shedding-episode, then shut it down in that state.
    for _ in 0..2000 {
        if busy_seen.load(Ordering::SeqCst) >= 6 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(busy_seen.load(Ordering::SeqCst), 6, "expected exactly six busy refusals");
    server.shutdown();

    let outcomes: Vec<_> = probes.into_iter().map(|h| h.join().unwrap()).collect();
    drop(held);
    let stats = server.join().unwrap();

    // Exact accounting: six Busy, two queued probes refused at pickup,
    // one held session drained. A shutdown poke would show up as an
    // extra busy or rejected count here.
    assert_eq!(stats.sessions_busy, 6, "shutdown must not add to the busy count");
    assert_eq!(outcomes.iter().filter(|o| **o == "busy").count(), 6);
    assert_eq!(stats.sessions_rejected, 2, "both queued probes are refused at pickup");
    assert_eq!(outcomes.iter().filter(|o| **o == "rejected").count(), 2);
    assert_eq!(stats.sessions_started, 1, "only the held session ever started");
    assert_eq!(stats.sessions_finished, 1);
    assert_eq!(stats.session_errors, 0);
}

/// The same exactness on the sharded server: admissions, shedding and
/// shutdown drain all resolve to exact counts with no wake-up artifacts.
#[test]
fn shard_server_sheds_and_drains_with_exact_counts() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig {
        max_sessions: 1,
        backlog: 32,
        shed_low_watermark: 1,
        shed_high_watermark: 2,
        shards: 2,
        ..ServerConfig::default()
    };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    // Unlike the thread-pool server, shards serve every admitted
    // connection concurrently, so held sessions complete their
    // handshakes while still holding admission slots. Admissions are
    // serialized by the acceptor: held0 (depth 0), held1 (depth 0),
    // held2 (depth 1), then shedding at depth 2.
    let held: Vec<ServeClient> = (0..3)
        .map(|i| {
            ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
                .unwrap_or_else(|e| panic!("held session {i} must be admitted: {e}"))
        })
        .collect();

    // Every further attempt is soft-refused: nothing drains while the
    // held sessions stay open.
    for probe in 0..5 {
        match ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None }) {
            Err(ServeError::Busy { .. }) => {}
            other => panic!("probe {probe} expected Busy, got {other:?}"),
        }
    }

    server.shutdown();
    drop(held);
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_busy, 5, "exactly the five probes were soft-refused");
    assert_eq!(stats.sessions_started, 3);
    assert_eq!(stats.sessions_finished, 3, "held sessions drain as clean shutdowns");
    assert_eq!(stats.sessions_rejected, 0);
    assert_eq!(stats.session_errors, 0);
}

/// Hot model swap through a sharded session: the SwapAck carries both
/// fingerprints, later verdicts wear the new tag, and a concurrent
/// session on another connection drains onto the new model too.
#[test]
fn shard_sessions_survive_a_hot_swap() {
    let pipeline = Arc::new(common::trained_pipeline());
    let retrained = common::trained_pipeline_seeded(1077);
    let config = ServerConfig { max_sessions: 8, shards: 2, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();
    let old_id = server.model_id();

    let specs = training_specs();
    let snaps = snapshots_of(&specs[0], 81, 9100);

    let mut a = ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
        .unwrap();
    let mut b = ServeClient::connect(addr, ClientConfig { model_id: 0, chaos: None, tracer: None })
        .unwrap();
    a.stream_snapshots(&snaps[..10]).unwrap();
    b.stream_snapshots(&snaps[..10]).unwrap();
    assert_eq!(a.classify().unwrap().model, old_id);

    let (from, to) = a.swap_model(&retrained.to_json().unwrap()).unwrap();
    assert_eq!(from, old_id);
    assert_ne!(to, old_id, "retrained pipeline must have a new fingerprint");
    assert_eq!(server.model_id(), to);

    // Both sessions now verdict under the new fingerprint — b's shard
    // observes the epoch bump on its next frame.
    a.stream_snapshots(&snaps[10..20]).unwrap();
    b.stream_snapshots(&snaps[10..20]).unwrap();
    assert_eq!(a.classify().unwrap().model, to);
    assert_eq!(b.classify().unwrap().model, to);

    a.bye().unwrap();
    b.bye().unwrap();
    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_finished, 2);
    assert_eq!(stats.session_errors, 0);
}

/// Runs `n` sessions one after another, each publishing one snapshot's
/// verdict, and returns their session ids.
fn short_sessions(addr: std::net::SocketAddr, n: usize, snap: &Snapshot) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
            let session = client.session();
            client.stream_snapshots(std::slice::from_ref(snap)).unwrap();
            assert_eq!(client.bye().unwrap(), appclass::metrics::ByeReason::Normal);
            session
        })
        .collect()
}

/// What the feed holds after `ids` all ended: exactly the latest
/// `RETIRED_KEPT` of them.
fn assert_feed_keeps_latest(feed: &CompositionFeed, ids: &[u32], server: &str) {
    let kept = &ids[ids.len() - RETIRED_KEPT..];
    assert_eq!(feed.len(), RETIRED_KEPT, "{server}: the feed must stop growing");
    assert!(kept.iter().all(|&s| feed.get(s).is_some()), "{server}: latest verdicts lost");
    assert!(ids[..ids.len() - RETIRED_KEPT].iter().all(|&s| feed.get(s).is_none()));
}

/// Both servers retire every session they end, so a server that has
/// served many sessions keeps only the latest `RETIRED_KEPT` ended
/// sessions' verdicts on its feed instead of one per session ever
/// served.
#[test]
fn both_servers_keep_only_the_latest_ended_sessions_on_the_feed() {
    let pipeline = Arc::new(common::trained_pipeline());
    let snap = snapshots_of(&training_specs()[0], 82, 9200)[0].clone();
    let sessions = RETIRED_KEPT + 8;

    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let feed = server.composition_feed();
    let ids = short_sessions(server.local_addr(), sessions, &snap);
    server.shutdown();
    assert_eq!(server.join().unwrap().sessions_finished, sessions as u64);
    assert_feed_keeps_latest(&feed, &ids, "sharded");

    let server = Server::bind("127.0.0.1:0", pipeline, ServerConfig::default()).unwrap();
    let feed = server.composition_feed();
    let ids = short_sessions(server.local_addr(), sessions, &snap);
    server.shutdown();
    assert_eq!(server.join().unwrap().sessions_finished, sessions as u64);
    assert_feed_keeps_latest(&feed, &ids, "threaded");
}
