//! The §4.4 cost-based scheduling model over the full Table 3 workload
//! suite.
//!
//! Classifies every test application, stores the runs in the application
//! database, and prices them under two different providers' rate cards —
//! demonstrating "the flexibility to define their individualized pricing
//! schemes" the paper motivates.
//!
//! ```text
//! cargo run --release --example cost_model
//! ```

use appclass::cluster::train_cluster_pipeline;
use appclass::core::appdb::{AppDbWriter, ApplicationDb, RunRecord};
use appclass::metrics::NodeId;
use appclass::prelude::*;
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::test_specs;

fn main() {
    // Train once.
    let pipeline = train_cluster_pipeline(42).expect("train");

    // Classify the whole suite into the DB.
    let mut db = ApplicationDb::new();
    for (i, spec) in test_specs().iter().enumerate() {
        let rec = run_spec(spec, NodeId(200 + i as u32), 5000 + i as u64);
        let raw = rec.pool.sample_matrix(rec.node).expect("samples");
        let result = pipeline.classify(&raw).expect("classify");
        db.record(RunRecord {
            app: spec.name.to_string(),
            class: result.class,
            composition: result.composition,
            exec_secs: rec.wall_secs,
            samples: rec.samples,
        });
    }

    // Two providers with different pricing philosophies.
    let cpu_shop =
        CostModel::new(ResourceRates { cpu: 12.0, mem: 5.0, io: 5.0, net: 3.0, idle: 0.5 });
    let io_shop =
        CostModel::new(ResourceRates { cpu: 4.0, mem: 6.0, io: 12.0, net: 10.0, idle: 0.5 });

    println!(
        "{:<15} {:>6} {:>9} {:>14} {:>14}",
        "Application", "class", "exec (s)", "cost @CPU-shop", "cost @IO-shop"
    );
    for app in db.applications() {
        let stats = db.stats(&app).expect("recorded");
        println!(
            "{:<15} {:>6} {:>9.0} {:>14.0} {:>14.0}",
            app,
            stats.class.label(),
            stats.mean_exec_secs,
            db.expected_cost(&app, &cpu_shop).expect("priced"),
            db.expected_cost(&app, &io_shop).expect("priced"),
        );
    }

    // Persist the DB like the paper's Figure 1 post-processing stage —
    // through the durable append-only log, so a crash mid-run loses at
    // most the torn tail record.
    let path = std::env::temp_dir().join("appclass_demo_db.log");
    std::fs::remove_file(&path).ok();
    let mut writer = AppDbWriter::open(&path).expect("open DB log");
    for rec in db.records() {
        writer.append(rec.clone()).expect("append run");
    }
    drop(writer);
    let reloaded = ApplicationDb::open(&path).expect("reopen DB log");
    println!(
        "\napplication DB with {} runs persisted to {} and reloaded intact: {}",
        reloaded.records().len(),
        path.display(),
        reloaded == db
    );
}
