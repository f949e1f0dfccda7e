//! Multi-stage application segmentation over classified runs.
//!
//! The paper's introduction motivates identifying execution stages so a
//! scheduler can re-match resources mid-run (e.g. migrate a job when it
//! leaves its CPU stage). This example classifies two multi-stage runs —
//! Bonnie (six I/O stages of different character) and VMD (an interactive
//! idle/upload/GUI session) — and segments their class vectors.
//!
//! ```text
//! cargo run --release --example stage_detection
//! ```

use appclass::cluster::train_cluster_pipeline;
use appclass::core::stages::{segment, SegmentationConfig};
use appclass::metrics::NodeId;
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::test_specs;

fn main() {
    let pipeline = train_cluster_pipeline(42).expect("train");

    let config = SegmentationConfig::default();
    for name in ["VMD", "Bonnie", "SPECseis96_B", "CH3D"] {
        let specs = test_specs();
        let spec = specs.iter().find(|s| s.name == name).expect("registry");
        let rec = run_spec(spec, NodeId(30), 77);
        let raw = rec.pool.sample_matrix(rec.node).expect("samples");
        let result = pipeline.classify(&raw).expect("classify");
        let stages = segment(&result.class_vector, &config);

        println!("{name}: {} snapshots -> {} stages", result.class_vector.len(), stages.len());
        for s in &stages {
            println!(
                "    [{:>5} s .. {:>5} s]  {:<4}  ({} snapshots)",
                s.start as u64 * 5,
                (s.end as u64 + 1) * 5,
                s.class.label(),
                s.len()
            );
        }
        println!();
    }
}
