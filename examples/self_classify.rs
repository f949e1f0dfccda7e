//! Watching appclass watch itself: the classifier classifies its own
//! resource-consumption signature.
//!
//! The paper's premise is that an application's resource telemetry
//! reveals what kind of application it is. `appclass`'s serving stack is
//! itself an application, and its observability registry is its
//! telemetry. This example closes that loop:
//!
//! 1. train the paper pipeline and serve it over TCP,
//! 2. drive the server with a real client streaming a monitored CH3D run,
//! 3. scrape the server's *own* metric registry through a [`SelfScraper`]
//!    gmond on the Ganglia-like bus — exactly the Figure 1 monitoring
//!    path, with the exposition feed as the monitored node,
//! 4. assemble the scraped frames into a data pool and classify them with
//!    the same trained pipeline.
//!
//! ```text
//! cargo run --release --example self_classify
//! ```
//!
//! [`SelfScraper`]: appclass::metrics::SelfScraper

use appclass::cluster::train_cluster_pipeline;
use appclass::metrics::aggregator::Aggregator;
use appclass::metrics::gmond::{Gmond, MetricBus};
use appclass::metrics::{MetricId, NodeId, SelfScraper};
use appclass::prelude::*;
use appclass::serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::test_specs;
use std::sync::Arc;
use std::time::Duration;

/// The node id the exposition feed announces as on the monitoring bus.
const SELF_NODE: NodeId = NodeId(1001);

fn main() {
    // 1. Train the paper pipeline.
    println!("== training ==");
    let pipeline = Arc::new(train_cluster_pipeline(42).expect("training"));
    println!("  trained on {} snapshots", pipeline.knn().n_training());

    // 2. Serve it, and keep a handle on the server's observability.
    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let obs = server.observability().clone();
    println!("\n== serving on {addr} ==");

    // 3. The self-monitoring gmond: the server's registry counters mapped
    //    onto the expert-eight metric slots the pipeline was trained on.
    //    Frame and verdict traffic is the server's I/O and CPU story.
    //    The scales lift the server's modest event rates into the
    //    magnitude ranges of the training signatures (CPU %, blocks/s,
    //    bytes/s), the same normalization any real exporter performs.
    let mut scraper = SelfScraper::new(SELF_NODE, obs.registry.clone());
    scraper
        .map_rate("serve_frames_in_total", MetricId::BytesIn, 2.0e5)
        .map_rate("serve_frames_in_total", MetricId::IoBi, 1500.0)
        .map_rate("serve_classify_total", MetricId::CpuUser, 400.0)
        .map_rate("serve_classify_total", MetricId::BytesOut, 2.0e5);
    let bus = MetricBus::new();
    let mut agg = Aggregator::subscribe(&bus);
    let mut gmond = Gmond::new(scraper);

    // Drive load from a thread: one client replays a CH3D monitoring
    // stream in bursts, asking for a verdict after each burst.
    let load = std::thread::spawn(move || {
        let specs = test_specs();
        let ch3d = specs.iter().find(|s| s.name == "CH3D").expect("registry");
        let rec = run_spec(ch3d, NodeId(9), 7);
        let snaps: Vec<_> =
            rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect();
        let mut client = ServeClient::connect(addr, ClientConfig::default()).unwrap();
        for burst in snaps.chunks(4) {
            client.stream_snapshots(burst).unwrap();
            client.classify().unwrap();
            std::thread::sleep(Duration::from_millis(60));
        }
        let exposition = client.stats().unwrap();
        client.bye().unwrap();
        exposition
    });

    // 4. Sample the exposition feed while the load runs: one announce
    //    every 50 ms of wall time, each standing in for one 5-second
    //    sampling period of the paper's d = 5 cadence.
    println!("\n== scraping the exposition feed ==");
    const TICKS: u64 = 40;
    const INTERVAL: u64 = 5;
    for i in 0..TICKS {
        gmond.announce_tick(i * INTERVAL, &bus).unwrap();
        agg.drain();
        std::thread::sleep(Duration::from_millis(50));
    }
    let exposition = load.join().expect("load client");
    let pool = agg.into_pool();
    println!("  {} self-snapshots pooled from node {}", pool.len(), SELF_NODE.0);

    // 5. Classify appclass itself.
    let raw = pool.sample_matrix(SELF_NODE).expect("self samples");
    let result = pipeline.classify(&raw).expect("self classification");
    println!("\n== verdict on appclass itself ==");
    println!("  class:       {}", result.class);
    println!("  composition: {}", result.composition);

    let live_fraction: f64 = AppClass::ALL.iter().map(|&c| result.composition.fraction(c)).sum();
    assert!(live_fraction > 0.0, "self-classification must yield a nonzero composition");

    // A taste of what the scraper consumed, straight off the wire.
    println!("\n== exposition excerpt (via the Stats frame) ==");
    for line in exposition.lines().filter(|l| l.starts_with("serve_")).take(8) {
        println!("  {line}");
    }
}
