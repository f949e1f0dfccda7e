//! Socket-level chaos: every transport fault the [`ChaosProxy`] can
//! inject — torn writes, mid-frame stalls, abrupt aborts, byte flips —
//! must surface as a typed error or a clean success, never a panic or a
//! wedged server, and the same seed must inject bitwise-identical
//! faults.
//!
//! This is the transport-layer counterpart of the frame-layer chaos in
//! `chaos_classification.rs`: there the session envelope stays intact
//! and the `FrameGuard` absorbs datagram damage; here the envelope
//! itself is attacked and the *protocol* must fail typed.

mod common;

use appclass::metrics::wire::MAX_SNAPSHOT_BATCH;
use appclass::metrics::{ByeReason, NodeId, Snapshot};
use appclass::serve::chaos::{ChaosPlan, ChaosProxy, FaultEvent};
use appclass::serve::{ClientConfig, ServeClient, ServeError, ServerConfig, ShardServer};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::training_specs;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn snapshots(node: u32, seed: u64) -> Vec<Snapshot> {
    let spec = &training_specs()[0];
    let rec = run_spec(spec, NodeId(node), seed);
    rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect()
}

fn chaos_server(pipeline: &Arc<appclass::prelude::ClassifierPipeline>) -> ShardServer {
    // A short stall budget keeps the worst-case mid-frame wait around a
    // second instead of five.
    let config = ServerConfig {
        max_sessions: 2,
        stall_budget: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    ShardServer::bind("127.0.0.1:0", Arc::clone(pipeline), config).unwrap()
}

/// One shard under the same short stall budget: a mid-frame stall,
/// enforced from the shard's clock, is given up after one second.
fn chaos_shard_server(pipeline: &Arc<appclass::prelude::ClassifierPipeline>) -> ShardServer {
    let config = ServerConfig {
        max_sessions: 2,
        stall_budget: Duration::from_secs(1),
        shards: 1,
        ..ServerConfig::default()
    };
    ShardServer::bind("127.0.0.1:0", Arc::clone(pipeline), config).unwrap()
}

/// After any fault scenario the server must still serve: a fresh direct
/// client (no proxy) handshakes, classifies, and leaves cleanly.
fn assert_server_alive(addr: std::net::SocketAddr) {
    let mut client = ServeClient::connect(addr, ClientConfig::default())
        .expect("server must survive the chaos scenario");
    let snaps = snapshots(99, 9001);
    client.stream_snapshots(&snaps[..snaps.len().min(20)]).unwrap();
    client.classify().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
}

/// Partial writes: frames torn into 3-byte TCP segments are a slow day,
/// not a fault — the session must run to a clean end with full verdicts.
#[test]
fn torn_writes_are_reassembled_into_a_clean_session() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_server(&pipeline);
    let proxy =
        ChaosProxy::spawn(server.local_addr(), ChaosPlan::lossless(21).with_chunk(3)).unwrap();

    let snaps = snapshots(80, 5001);
    let short = &snaps[..snaps.len().min(12)];
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    client.stream_snapshots(short).unwrap();
    let verdict = client.classify().unwrap();
    let health = client.health().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    assert_eq!(health.accepted, short.len() as u64, "every torn frame must reassemble");
    assert!(verdict.confidence >= 0.0);

    assert_server_alive(server.local_addr());
    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert_eq!(stats.session_errors, 0, "{stats}");
}

/// A mid-frame stall inside the timeout budget is absorbed; the session
/// finishes cleanly on both sides.
#[test]
fn mid_frame_stall_under_the_budget_is_absorbed() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_server(&pipeline);
    // Stall 200 ms inside the first snapshot frame — well under the
    // 10 ms × 100-timeout fill budget.
    let plan = ChaosPlan::lossless(22).with_stall(40, Duration::from_millis(200));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();

    let snaps = snapshots(81, 5002);
    let short = &snaps[..snaps.len().min(12)];
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    client.stream_snapshots(short).unwrap();
    client.classify().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    assert_eq!(
        proxy.events(),
        vec![FaultEvent::Stall { offset: 40 }],
        "exactly the planned stall, nowhere else"
    );

    assert_server_alive(server.local_addr());
    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert_eq!(stats.session_errors, 0, "{stats}");
}

/// One shard absorbs a mid-frame stall inside its budget: the session
/// finishes cleanly.
#[test]
fn mid_frame_stall_under_the_budget_is_absorbed_by_the_shard_server() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_shard_server(&pipeline);
    // Stall 200 ms inside the first snapshot frame, against a 1 s budget.
    let plan = ChaosPlan::lossless(22).with_stall(40, Duration::from_millis(200));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();

    let snaps = snapshots(81, 5002);
    let short = &snaps[..snaps.len().min(12)];
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    client.stream_snapshots(short).unwrap();
    client.classify().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    assert_eq!(proxy.events(), vec![FaultEvent::Stall { offset: 40 }]);

    assert_server_alive(server.local_addr());
    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert_eq!(stats.session_errors, 0, "{stats}");
}

/// A stall past the budget: the shard's only timeout, the stalled
/// frame's deadline, wakes it with no traffic to do so, and it gives the
/// session up. The client sees a typed transport error, the server
/// counts exactly one failed session, and a fresh client is served.
#[test]
fn mid_frame_stall_over_the_budget_fails_typed_on_the_shard_server() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_shard_server(&pipeline);
    // Stall 3 s inside the first snapshot frame, against a 1 s budget.
    let plan = ChaosPlan::lossless(24).with_stall(40, Duration::from_secs(3));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();

    let snaps = snapshots(84, 5005);
    let short = &snaps[..snaps.len().min(12)];
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    let outcome = client.stream_snapshots(short).and_then(|_| client.classify().map(|_| ()));
    match outcome {
        Err(ServeError::Io(_) | ServeError::ConnectionClosed | ServeError::Wire(_)) => {}
        Err(other) => panic!("a stalled-out session must fail as transport, got {other}"),
        Ok(()) => panic!("the server must give up a session stalled past its budget"),
    }
    assert_eq!(proxy.events(), vec![FaultEvent::Stall { offset: 40 }]);

    assert_server_alive(server.local_addr());
    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert_eq!(stats.session_errors, 1, "{stats}");
    assert_eq!(stats.sessions_finished, 1, "{stats}");
}

/// A stall inside the `Hello`'s length prefix draws on the same budget
/// as one inside a frame's body: past it, the server gives the session
/// up, the client's handshake fails typed, and a fresh client is served.
#[test]
fn mid_prefix_stall_over_the_budget_fails_typed_on_the_shard_server() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_shard_server(&pipeline);
    // Stall 3 s two bytes into the 4-byte length prefix, against a 1 s
    // budget.
    let plan = ChaosPlan::lossless(25).with_stall(2, Duration::from_secs(3));
    let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();

    match ServeClient::connect(proxy.local_addr(), ClientConfig::default()) {
        Err(ServeError::Io(_) | ServeError::ConnectionClosed) => {}
        Err(other) => panic!("a stalled-out handshake must fail as transport, got {other}"),
        Ok(_) => panic!("the server must give up a handshake stalled past its budget"),
    }
    assert_eq!(proxy.events(), vec![FaultEvent::Stall { offset: 2 }]);

    assert_server_alive(server.local_addr());
    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert_eq!(stats.session_errors, 1, "{stats}");
    assert_eq!(stats.sessions_finished, 1, "{stats}");
}

/// A peer that trickles a large frame steadily is slow, not stalled: a
/// full batch torn into 3-byte segments takes longer than the 1 s budget
/// to arrive but never falls silent for long, so the session runs to a
/// clean end with every item acknowledged.
#[test]
fn steady_trickle_slower_than_the_budget_is_not_a_stall() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_server(&pipeline);
    let proxy =
        ChaosProxy::spawn(server.local_addr(), ChaosPlan::lossless(26).with_chunk(3)).unwrap();

    // One run is shorter than a full batch: cycle it on a clean cadence.
    let run = snapshots(86, 5007);
    let batch: Vec<Snapshot> = (0..MAX_SNAPSHOT_BATCH)
        .map(|i| Snapshot { time: 5 * (i as u64 + 1), ..run[i % run.len()].clone() })
        .collect();
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    let started = Instant::now();
    let report = client.stream_batch(&batch, MAX_SNAPSHOT_BATCH).unwrap();
    let elapsed = started.elapsed();
    client.classify().unwrap();
    assert_eq!(client.bye().unwrap(), ByeReason::Normal);
    assert_eq!((report.batches, report.accepted), (1, MAX_SNAPSHOT_BATCH as u64), "{report:?}");
    assert!(elapsed > Duration::from_secs(1), "the batch arrived within the budget: {elapsed:?}");

    server.shutdown();
    let stats = server.join().unwrap();
    proxy.shutdown();
    assert_eq!(stats.session_errors, 0, "{stats}");
}

/// An abrupt connection abort mid-stream: the client gets a typed
/// transport error on its next round trip, the server absorbs the dead
/// session, and the next client is served normally.
#[test]
fn abrupt_abort_is_a_typed_error_not_a_wedge() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_server(&pipeline);
    // Cut the uplink shortly after the handshake's 31 bytes.
    let proxy =
        ChaosProxy::spawn(server.local_addr(), ChaosPlan::lossless(23).with_rst(64)).unwrap();

    let snaps = snapshots(82, 5003);
    let mut client = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).unwrap();
    // Streaming is fire-and-forget; the abort may surface here (write
    // side) or at classify (read side) — either way it must be typed.
    let outcome = client.stream_snapshots(&snaps).and_then(|_| client.classify().map(|_| ()));
    match outcome {
        Err(
            ServeError::Io(_)
            | ServeError::ConnectionClosed
            | ServeError::Wire(_)
            | ServeError::Rejected { .. },
        ) => {}
        Err(other) => panic!("abort must map to a transport-class error, got {other}"),
        Ok(()) => panic!("a cut connection cannot complete a classify round trip"),
    }
    assert!(
        proxy.events().iter().any(|e| matches!(e, FaultEvent::Rst { .. })),
        "the abort must have fired: {:?}",
        proxy.events()
    );

    assert_server_alive(server.local_addr());
    server.shutdown();
    server.join().unwrap();
    proxy.shutdown();
}

/// Byte flips on the session envelope: the checksummed framing must
/// turn silent corruption into a typed failure on the client while the
/// server stays serving. Several seeds, so the flips land in different
/// protocol positions (length prefix, header, payload, trailer).
#[test]
fn envelope_corruption_fails_typed_across_seeds() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = chaos_server(&pipeline);
    let snaps = snapshots(83, 5004);
    let short = &snaps[..snaps.len().min(15)];

    for seed in [31u64, 32, 33] {
        let plan = ChaosPlan::lossless(seed).with_flip_rate(0.005);
        let proxy = ChaosProxy::spawn(server.local_addr(), plan).unwrap();
        // Every step can fail typed — including the handshake when the
        // flip lands in the Hello — and none may panic.
        let outcome = ServeClient::connect(proxy.local_addr(), ClientConfig::default()).and_then(
            |mut client| {
                client.stream_snapshots(short)?;
                client.classify()?;
                client.bye()
            },
        );
        match outcome {
            Ok(_) => {} // every flip happened to land between sessions' frames
            Err(
                ServeError::Io(_)
                | ServeError::ConnectionClosed
                | ServeError::Wire(_)
                | ServeError::Rejected { .. }
                | ServeError::UnexpectedFrame { .. }
                | ServeError::Handshake { .. }
                | ServeError::FrameTooLarge { .. },
            ) => {}
            Err(other) => panic!("seed {seed}: corruption must fail typed, got {other}"),
        }
        proxy.shutdown();
        assert_server_alive(server.local_addr());
    }

    server.shutdown();
    server.join().unwrap();
}

/// The reproducibility contract: two runs of the same plan over the
/// same byte stream must inject bitwise-identical fault logs. The
/// upstream here is a pure sink (it never reacts, so the uplink stream
/// is exactly the bytes written, independent of protocol timing).
#[test]
fn same_seed_injects_identical_faults() {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    let sink = TcpListener::bind("127.0.0.1:0").unwrap();
    let sink_addr = sink.local_addr().unwrap();
    let drain = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        // One connection per proxy run, drained to EOF.
        for _ in 0..3 {
            let (mut s, _) = sink.accept().unwrap();
            while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
        }
    });

    // A fixed, patterned payload — same bytes every run.
    let payload: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
    let run = |seed: u64| -> Vec<FaultEvent> {
        let plan = ChaosPlan::lossless(seed).with_flip_rate(0.01);
        let proxy = ChaosProxy::spawn(sink_addr, plan).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(&payload).unwrap();
        drop(c); // EOF lets the pump finish forwarding everything
                 // Poll until the fault log settles.
        let mut events = proxy.events();
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(10));
            let next = proxy.events();
            if !next.is_empty() && next == events {
                break;
            }
            events = next;
        }
        proxy.shutdown();
        events
    };

    let a = run(77);
    let b = run(77);
    let c = run(78);
    assert!(!a.is_empty(), "a 1% flip rate over 4 KiB must inject something");
    assert_eq!(a, b, "same seed, same stream: identical fault logs");
    assert_ne!(a, c, "a different seed must mangle differently");
    drain.join().unwrap();
}
