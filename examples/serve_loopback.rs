//! The serving layer end to end in one process: a concurrent TCP
//! classification server on a loopback ephemeral port, five clients on
//! threads each replaying a different training workload — one of them
//! through a 10%-drop fault channel — and the aggregate statistics the
//! server reports after a clean drain.
//!
//! ```text
//! cargo run --release --example serve_loopback
//! ```

use appclass::cluster::train_cluster_pipeline;
use appclass::expected_class;
use appclass::metrics::Snapshot;
use appclass::prelude::*;
use appclass::serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
use appclass::sim::runner::run_batch;
use appclass::sim::workload::registry::training_specs;
use std::sync::Arc;

fn main() {
    // Train the paper pipeline on the five training applications.
    let pipeline = Arc::new(train_cluster_pipeline(42).unwrap());
    println!("serving model {:#018x}\n", pipeline.model_id());

    // Serve it to concurrent clients on an ephemeral loopback port.
    let config = ServerConfig { max_sessions: 5, ..ServerConfig::default() };
    let server = ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), config).unwrap();
    let addr = server.local_addr();

    // Each client replays a fresh run of its training application.
    let training = training_specs();
    let handles: Vec<_> = training
        .iter()
        .zip(run_batch(&training, 43))
        .enumerate()
        .map(|(i, (spec, rec))| {
            let name = spec.name;
            let expected = expected_class(spec.expected);
            let snaps: Vec<Snapshot> =
                rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect();
            // Client 1 replays its run over a lossy telemetry link.
            let chaos = (i == 1).then(|| FaultPlan::lossless(7).with_drop_rate(0.10));
            std::thread::spawn(move || {
                let lossy = chaos.is_some();
                let mut client =
                    ServeClient::connect(addr, ClientConfig { model_id: 0, chaos, tracer: None })
                        .expect("connect");
                client.stream_snapshots(&snaps).expect("stream");
                let verdict = client.classify().expect("classify");
                let health = client.health().expect("health");
                client.bye().expect("bye");
                println!(
                    "{name:<18} {}-> {:<5} (confidence {:.3}, {}/{} frames, expected {expected})",
                    if lossy { "over a 10%-drop link " } else { "" },
                    verdict.class,
                    verdict.confidence,
                    health.accepted,
                    snaps.len(),
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Drain and report.
    server.shutdown();
    let stats = server.join().unwrap();
    println!("\naggregate server statistics:\n{stats}");
}
