//! Serving-path benchmarks: what one classification session costs over
//! a real loopback socket, and how the server holds up when several
//! clients stream at once.
//!
//! §5.3's argument is that per-sample cost (~15 ms on 2001 hardware)
//! sits far below the 5-second sampling period. The serving layer adds
//! framing, checksumming and a socket round-trip on top — these groups
//! measure that the *whole* wire path stays orders of magnitude below
//! the sampling period too.

use appclass::cluster::train_cluster_pipeline;
use appclass_metrics::{NodeId, Snapshot};
use appclass_serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
use appclass_sim::runner::run_spec;
use appclass_sim::workload::registry::training_specs;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

fn fixture_snapshots(node: u32, seed: u64) -> Vec<Snapshot> {
    let specs = training_specs();
    let rec = run_spec(&specs[0], NodeId(node), seed);
    rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect()
}

/// One full session — connect, stream a training run, classify, part —
/// measured end to end over loopback TCP.
fn bench_single_session(c: &mut Criterion) {
    let pipeline = Arc::new(train_cluster_pipeline(42).expect("training"));
    let snaps = fixture_snapshots(60, 1000);
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let mut group = c.benchmark_group("serve_session");
    group.sample_size(20);
    group.bench_function(format!("stream{}_classify", snaps.len()), |b| {
        b.iter(|| {
            let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
            client.stream_snapshots(&snaps).unwrap();
            let verdict = client.classify().unwrap();
            client.bye().unwrap();
            verdict
        })
    });
    group.finish();

    server.shutdown();
    server.join().expect("clean drain");
}

/// Batched vs single-frame streaming on one session: the same snapshot
/// run coalesced into `SnapshotBatch` frames of increasing size. With
/// verdicts bitwise-identical by construction, the only thing the batch
/// size changes is throughput — `batch1` is the framing-overhead
/// baseline the larger sizes are compared against.
fn bench_batched_session(c: &mut Criterion) {
    let pipeline = Arc::new(train_cluster_pipeline(42).expect("training"));
    let snaps = fixture_snapshots(62, 3000);
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let mut group = c.benchmark_group("serve_batch");
    group.sample_size(20);
    for batch in [1usize, 8, 32, 128] {
        group.bench_function(format!("batch{batch}"), |b| {
            b.iter(|| {
                let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
                client.stream_batch(&snaps, batch).unwrap();
                let verdict = client.classify().unwrap();
                client.bye().unwrap();
                verdict
            })
        });
    }
    group.finish();

    server.shutdown();
    server.join().expect("clean drain");
}

/// N clients streaming concurrently against one server: wall-clock per
/// batch of N sessions, i.e. the aggregate serving throughput.
fn bench_concurrent_sessions(c: &mut Criterion) {
    let pipeline = Arc::new(train_cluster_pipeline(42).expect("training"));
    let snaps = Arc::new(fixture_snapshots(61, 2000));
    let config = ServerConfig { max_sessions: 8, ..ServerConfig::default() };
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).expect("bind loopback");
    let addr = server.local_addr();

    let mut group = c.benchmark_group("serve_concurrent");
    group.sample_size(10);
    for clients in [2usize, 8] {
        group.bench_function(format!("clients{clients}"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        let snaps = Arc::clone(&snaps);
                        std::thread::spawn(move || {
                            let mut client =
                                ServeClient::connect(addr, ClientConfig::default()).unwrap();
                            client.stream_snapshots(&snaps).unwrap();
                            let verdict = client.classify().unwrap();
                            client.bye().unwrap();
                            verdict.class
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
            })
        });
    }
    group.finish();

    server.shutdown();
    server.join().expect("clean drain");
}

criterion_group!(benches, bench_single_session, bench_batched_session, bench_concurrent_sessions);
criterion_main!(benches);
