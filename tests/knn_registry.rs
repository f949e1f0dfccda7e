//! Every snapshot of every registry workload, classified by the pipeline
//! trained as `appclass table3` trains it, must get exactly the class the
//! brute-force k-NN rule gives its projection — the k-NN index may change
//! how neighbours are found, never which ones vote.

use appclass::prelude::*;
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::registry;

mod common;

#[test]
fn every_registry_snapshot_matches_brute_force_knn() {
    let pipeline = common::trained_pipeline(); // table3's default training seed
    let distance = PipelineConfig::paper().distance;
    let specs = registry();
    assert_eq!(specs.len(), 19);
    let mut snapshots = 0;
    for (i, spec) in specs.iter().enumerate() {
        let rec = run_spec(spec, NodeId(100 + i as u32), 1042 + i as u64);
        let raw = rec.pool.sample_matrix(rec.node).unwrap();
        let result = pipeline.classify(&raw).unwrap();
        assert_eq!(result.class_vector.len(), raw.rows(), "{}", spec.name);
        for (r, &got) in result.class_vector.iter().enumerate() {
            let want = common::brute_force_knn(pipeline.knn(), distance, result.projected.row(r));
            assert_eq!(got, want, "{} snapshot {r}", spec.name);
        }
        snapshots += raw.rows();
    }
    assert!(snapshots > 1000, "only {snapshots} snapshots checked");
}
