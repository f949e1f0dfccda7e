//! Integration tests of the session fabric
//! (`appclass::serve::ShardServer`): exact accounting under heavy
//! concurrency, under shedding and while shards race for the listener,
//! the accept limit, hot swaps across shards, the bounded composition
//! feed, and idle threads that never wake.

mod common;

use appclass::metrics::{ByeReason, NodeId, Snapshot};
use appclass::prelude::AppClass;
use appclass::serve::feed::RETIRED_KEPT;
use appclass::serve::{
    ClientConfig, CompositionFeed, ServeClient, ServeError, ServerConfig, ShardServer,
};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::{training_specs, WorkloadSpec};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

/// Admissions, shedding and shutdown drain all resolve to exact counts
/// with no wake-up artifacts: shutting down a server in the middle of a
/// shedding episode adds no refusal.
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

    // Shards serve every admitted connection at once, so held sessions
    // complete their handshakes while still holding admission slots.
    // Admissions are serialized by the admission lock: held0 (depth 0),
    // held1 (depth 0), held2 (depth 1), then shedding at depth 2.
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
fn assert_feed_keeps_latest(feed: &CompositionFeed, ids: &[u32]) {
    let kept = &ids[ids.len() - RETIRED_KEPT..];
    assert_eq!(feed.len(), RETIRED_KEPT, "the feed must stop growing");
    assert!(kept.iter().all(|&s| feed.get(s).is_some()), "latest verdicts lost");
    assert!(ids[..ids.len() - RETIRED_KEPT].iter().all(|&s| feed.get(s).is_none()));
}

/// The server retires every session it ends, so a server that has
/// served many sessions keeps only the latest `RETIRED_KEPT` ended
/// sessions' verdicts on its feed instead of one per session ever
/// served.
#[test]
fn the_feed_keeps_only_the_latest_ended_sessions() {
    let pipeline = Arc::new(common::trained_pipeline());
    let snap = snapshots_of(&training_specs()[0], 82, 9200)[0].clone();
    let sessions = RETIRED_KEPT + 8;

    let server = ShardServer::bind("127.0.0.1:0", pipeline, ServerConfig::default()).unwrap();
    let feed = server.composition_feed();
    let ids = short_sessions(server.local_addr(), sessions, &snap);
    server.shutdown();
    assert_eq!(server.join().unwrap().sessions_finished, sessions as u64);
    assert_feed_keeps_latest(&feed, &ids);
}

/// `serve_loop_wakeups_total`: returns from `poll(2)` in every shard of
/// `server`.
fn wakeups(server: &ShardServer) -> u64 {
    server.observability().registry.counter("serve_loop_wakeups_total").get()
}

/// An idle sharded server parks every thread until work arrives: no
/// timer wakes either shard.
#[test]
fn idle_shard_server_never_wakes() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { shards: 2, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", pipeline, config).unwrap();
    let before = wakeups(&server);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(wakeups(&server), before, "an idle server woke up");
    server.shutdown();
    server.join().unwrap();
}

/// Runs `f` on a thread of its own and waits at most 5 s for it, so a
/// lost wake-up fails the test instead of hanging it.
fn within_5s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(value) => {
            let _ = worker.join(); // it has sent `value` and only returns now
            value
        }
        // The sender is gone only if `f` panicked: rethrow that panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("`f` dropped its sender"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} took over 5 s"),
    }
}

/// A session that has had its request answered and then goes quiet costs
/// its shard nothing: no timer wakes the shard to look at it. A second
/// session is still served while the first stays quiet, because the
/// parked shard polls the listener, and the second connect wakes it.
#[test]
fn a_quiet_session_never_wakes_its_shard_but_a_connect_does() {
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig { shards: 1, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", pipeline, config).unwrap();
    let addr = server.local_addr();

    // The one answered request: the exposition, which names the counter.
    let (quiet, exposition) = within_5s("the first session", move || {
        let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
        let exposition = client.stats().unwrap();
        (client, exposition)
    });
    assert!(
        exposition.lines().any(|line| line.starts_with("serve_loop_wakeups_total ")),
        "the Stats exposition must carry the wake-up counter:\n{exposition}"
    );
    let before = wakeups(&server);
    assert!(before > 0, "accepting and serving the session must have counted wake-ups");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(wakeups(&server), before, "a quiet session woke its shard");

    let snaps = snapshots_of(&training_specs()[0], 83, 9300);
    let farewell = within_5s("the second session", move || {
        let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
        client.stream_snapshots(&snaps[..10]).unwrap();
        client.classify().unwrap();
        client.bye().unwrap()
    });
    assert_eq!(farewell, appclass::metrics::ByeReason::Normal);

    assert_eq!(quiet.bye().unwrap(), appclass::metrics::ByeReason::Normal);
    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_finished, 2);
    assert_eq!(stats.session_errors, 0);
}

/// Four shards racing for the listener still admit one connection at a
/// time: of more clients than `max_sessions + backlog` released together,
/// each holding its session open, exactly that capacity is admitted and
/// every other client gets `Bye(SessionLimit)`, as the drain report
/// counts.
#[test]
fn racing_shards_admit_exactly_the_capacity() {
    const MAX_SESSIONS: usize = 2;
    const CAPACITY: usize = 6; // max_sessions + backlog
    const CLIENTS: usize = 14;
    let pipeline = Arc::new(common::trained_pipeline());
    let config = ServerConfig {
        max_sessions: MAX_SESSIONS,
        backlog: CAPACITY - MAX_SESSIONS,
        // Above any depth the capacity allows: nothing is shed.
        shed_low_watermark: CAPACITY + 1,
        shed_high_watermark: CAPACITY + 2,
        shards: 4,
        ..ServerConfig::default()
    };
    let server = ShardServer::bind("127.0.0.1:0", pipeline, config).unwrap();
    let addr = server.local_addr();

    let start = Arc::new(Barrier::new(CLIENTS));
    let answered = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (start, answered) = (Arc::clone(&start), Arc::clone(&answered));
            std::thread::spawn(move || {
                start.wait();
                let outcome = ServeClient::connect(addr, ClientConfig::default());
                // Admitted sessions stay open until every client has its
                // answer, so no admission slot frees up in between.
                answered.wait();
                match outcome {
                    Ok(client) => {
                        assert_eq!(client.bye().unwrap(), ByeReason::Normal);
                        None
                    }
                    Err(ServeError::Rejected { reason }) => Some(reason),
                    Err(other) => panic!("a client failed instead of being refused: {other}"),
                }
            })
        })
        .collect();
    let refusals: Vec<ByeReason> = clients.into_iter().filter_map(|h| h.join().unwrap()).collect();
    assert_eq!(refusals.len(), CLIENTS - CAPACITY, "exactly the capacity is admitted");
    assert!(refusals.iter().all(|r| *r == ByeReason::SessionLimit), "{refusals:?}");

    server.shutdown();
    let stats = server.join().unwrap();
    assert_eq!(stats.sessions_started, CAPACITY as u64);
    assert_eq!(stats.sessions_finished, CAPACITY as u64);
    assert_eq!(stats.sessions_rejected, (CLIENTS - CAPACITY) as u64);
    assert_eq!(stats.sessions_busy, 0);
    assert_eq!(stats.session_errors, 0);
}

/// The accept limit holds across shards: the shard that admits the last
/// session closes admission for all of them, and each exits once its own
/// sessions end, so `join` returns with no `shutdown`.
#[test]
fn accept_limit_drains_every_shard_without_shutdown() {
    const SESSIONS: usize = 5;
    let pipeline = Arc::new(common::trained_pipeline());
    let config =
        ServerConfig { accept_limit: Some(SESSIONS as u64), shards: 2, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", pipeline, config).unwrap();
    let addr = server.local_addr();
    let snaps = Arc::new(snapshots_of(&training_specs()[0], 84, 9400));

    let start = Arc::new(Barrier::new(SESSIONS));
    let clients: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let (start, snaps) = (Arc::clone(&start), Arc::clone(&snaps));
            std::thread::spawn(move || {
                start.wait();
                let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
                client.stream_snapshots(&snaps[..10]).unwrap();
                client.classify().unwrap();
                client.bye().unwrap()
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().unwrap(), ByeReason::Normal);
    }

    let stats = within_5s("join after the accept limit", move || server.join().unwrap());
    assert_eq!(stats.sessions_started, SESSIONS as u64);
    assert_eq!(stats.sessions_finished, SESSIONS as u64);
    assert_eq!(stats.verdicts, SESSIONS as u64);
    assert_eq!(stats.sessions_rejected + stats.sessions_busy + stats.session_errors, 0);
}
