//! Determinism: every experiment is a pure function of its seed.
//!
//! The monitoring bus, the batch runner, the host's parallel machines and
//! the k-NN batch classifier all use threads; none of that concurrency may
//! leak into results. These tests run each experiment twice and demand
//! bit-identical output.

use appclass::cluster::train_cluster_pipeline;
use appclass::metrics::NodeId;
use appclass::sched::experiments::{figure4, table4};
use appclass::sim::runner::{run_batch, run_spec};
use appclass::sim::workload::registry::{test_specs, training_specs};

#[test]
fn monitored_runs_are_seed_deterministic() {
    let specs = test_specs();
    let bonnie = specs.iter().find(|s| s.name == "Bonnie").unwrap();
    let a = run_spec(bonnie, NodeId(1), 99);
    let b = run_spec(bonnie, NodeId(1), 99);
    assert_eq!(a.wall_secs, b.wall_secs);
    assert_eq!(
        a.pool.sample_matrix(NodeId(1)).unwrap(),
        b.pool.sample_matrix(NodeId(1)).unwrap(),
        "identical seeds must give bit-identical metric series"
    );
}

#[test]
fn batch_runner_is_deterministic_despite_threads() {
    let training = training_specs();
    let a = run_batch(&training, 7);
    let b = run_batch(&training, 7);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.samples, y.samples);
        assert_eq!(x.wall_secs, y.wall_secs);
        assert_eq!(x.pool.sample_matrix(x.node).unwrap(), y.pool.sample_matrix(y.node).unwrap());
    }
}

#[test]
fn trained_pipelines_are_identical_across_runs() {
    let p1 = train_cluster_pipeline(42).unwrap();
    let p2 = train_cluster_pipeline(42).unwrap();
    assert_eq!(p1, p2);
    assert_eq!(p1.to_json().unwrap(), p2.to_json().unwrap());
}

#[test]
fn figure4_is_deterministic_despite_parallel_machines() {
    let a = figure4(123);
    let b = figure4(123);
    assert_eq!(a, b);
}

#[test]
fn table4_is_deterministic() {
    assert_eq!(table4(5), table4(5));
}
