//! Quickstart: train the classifier and classify one application run.
//!
//! This walks the paper's whole Figure 1 loop once:
//!
//! 1. run the five training applications in simulated VMs under the
//!    Ganglia-like monitor and train the Figure 2 pipeline on them
//!    (expert 8 metrics → 2 PCs → 3-NN),
//! 2. run a fresh application (CH3D) and classify it,
//! 3. store the result in the application database and price the run with
//!    the §4.4 cost model,
//! 4. re-classify the same application over a *lossy* monitoring wire
//!    (drops + corruption) behind the frame guard, and print the
//!    telemetry-health report alongside the degraded verdict.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use appclass::cluster::train_cluster_pipeline;
use appclass::core::appdb::{ApplicationDb, RunRecord};
use appclass::metrics::NodeId;
use appclass::prelude::*;
use appclass::sim::runner::{run_spec, run_spec_degraded};
use appclass::sim::workload::registry::test_specs;

fn main() {
    // 1. Monitored training runs and the paper's pipeline. Each training
    //    spec boots a VM, attaches a gmond daemon, and samples the 33
    //    Ganglia metrics every 5 seconds.
    println!("== training ==");
    let pipeline = train_cluster_pipeline(42).expect("training");
    println!("  expert metrics (Table 1):");
    for id in pipeline.preprocessor().metrics() {
        println!("    {:<12} {:<10} {}", id.name(), id.unit(), id.description());
    }
    println!(
        "\n  trained: {} -> 8 -> {} dims, {} training snapshots",
        appclass::metrics::METRIC_COUNT,
        pipeline.n_components(),
        pipeline.knn().n_training(),
    );

    // 2. Classify a fresh run.
    println!("\n== classification ==");
    let specs = test_specs();
    let ch3d = specs.iter().find(|s| s.name == "CH3D").expect("registry");
    let rec = run_spec(ch3d, NodeId(9), 7);
    let raw = rec.pool.sample_matrix(rec.node).expect("samples");
    let result = pipeline.classify(&raw).expect("classification");
    println!("  application: {}   ({} snapshots over {} s)", rec.name, rec.samples, rec.wall_secs);
    println!("  class:       {}", result.class);
    println!("  composition: {}", result.composition);
    println!("\n  per-stage cost (§5.3 breakdown):");
    for stat in result.stage_metrics.stages() {
        println!(
            "    {:<10} {:>4} samples  {:>12.3?}  ({:.6} ms/sample)",
            stat.name,
            stat.samples,
            stat.elapsed(),
            stat.ms_per_sample()
        );
    }

    // 3. Record in the application DB and price the run.
    println!("\n== application database & cost model ==");
    let mut db = ApplicationDb::new();
    db.record(RunRecord {
        app: rec.name.clone(),
        class: result.class,
        composition: result.composition,
        exec_secs: rec.wall_secs,
        samples: rec.samples,
    });
    let model = CostModel::new(ResourceRates { cpu: 10.0, mem: 8.0, io: 6.0, net: 4.0, idle: 1.0 });
    let stats = db.stats(&rec.name).expect("recorded");
    println!("  historical runs: {}", stats.runs);
    println!("  mean execution:  {} s", stats.mean_exec_secs);
    println!(
        "  unit cost:       {:.2}  (rates: cpu 10, mem 8, io 6, net 4, idle 1)",
        model.unit_cost(&stats.mean_composition)
    );
    println!(
        "  run cost:        {:.0}",
        model.run_cost(&stats.mean_composition, stats.mean_exec_secs)
    );

    // 4. The same application over a lossy wire: 8% of frames dropped,
    //    4% carrying corrupted (non-finite) values. The frame guard
    //    imputes what it can, rejects what it must, and the result owns
    //    up to the damage instead of silently pretending it saw a clean
    //    stream.
    println!("\n== degraded telemetry (chaos run) ==");
    let plan = FaultPlan::lossless(77).with_drop_rate(0.08).with_corrupt_rate(0.04);
    let lossy = run_spec_degraded(ch3d, NodeId(9), 7, plan);
    let degraded = pipeline
        .classify_guarded(lossy.pool.snapshots(), GuardConfig::default())
        .expect("majority survives moderate loss");
    println!("  delivered:   {} of {} snapshots", lossy.samples, rec.samples);
    println!("  class:       {}  (clean run said {})", degraded.class, result.class);
    println!("  confidence:  {:.3}", degraded.confidence);
    println!("  {}", degraded.telemetry);
}
