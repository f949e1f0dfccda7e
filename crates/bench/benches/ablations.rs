//! Ablation benches over the pipeline's design choices.
//!
//! The paper fixes k = 3, q = 2, the expert-eight metric subset and
//! Euclidean distance; these groups measure how each choice affects the
//! classification cost (the accuracy side of the ablation lives in the
//! `ablation_study` example).

use appclass::cluster::training_runs;
use appclass_core::knn::Distance;
use appclass_core::pca::ComponentSelection;
use appclass_core::pipeline::{ClassifierPipeline, PipelineConfig};
use appclass_metrics::{MetricId, NodeId};
use appclass_sim::runner::run_spec;
use appclass_sim::workload::registry::test_specs;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn test_matrix() -> appclass_linalg::Matrix {
    let specs = test_specs();
    let spec = specs.iter().find(|s| s.name == "Bonnie").unwrap();
    let rec = run_spec(spec, NodeId(1), 3);
    rec.pool.sample_matrix(NodeId(1)).unwrap()
}

fn bench_k(c: &mut Criterion) {
    let runs = training_runs(42).expect("training runs");
    let raw = test_matrix();
    let mut group = c.benchmark_group("ablation_k");
    group.sample_size(20);
    for k in [1usize, 3, 5, 7] {
        let config = PipelineConfig { k, ..PipelineConfig::paper() };
        let pipeline = ClassifierPipeline::train(&runs, &config).unwrap();
        group.bench_function(format!("k{k}"), |b| {
            b.iter(|| pipeline.classify(black_box(&raw)).unwrap())
        });
    }
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let runs = training_runs(42).expect("training runs");
    let raw = test_matrix();
    let mut group = c.benchmark_group("ablation_components");
    group.sample_size(20);
    for q in [1usize, 2, 4, 8] {
        let config =
            PipelineConfig { selection: ComponentSelection::Count(q), ..PipelineConfig::paper() };
        let pipeline = ClassifierPipeline::train(&runs, &config).unwrap();
        group.bench_function(format!("q{q}"), |b| {
            b.iter(|| pipeline.classify(black_box(&raw)).unwrap())
        });
    }
    group.finish();
}

fn bench_feature_sets(c: &mut Criterion) {
    let runs = training_runs(42).expect("training runs");
    let raw = test_matrix();
    let mut group = c.benchmark_group("ablation_features");
    group.sample_size(20);

    let expert = PipelineConfig::paper();
    let pipeline = ClassifierPipeline::train(&runs, &expert).unwrap();
    group.bench_function("expert8", |b| b.iter(|| pipeline.classify(black_box(&raw)).unwrap()));

    // The "no expert knowledge" variant: all 33 metrics into PCA.
    let all33 = PipelineConfig { metrics: MetricId::ALL.to_vec(), ..PipelineConfig::paper() };
    let pipeline33 = ClassifierPipeline::train(&runs, &all33).unwrap();
    group.bench_function("all33", |b| b.iter(|| pipeline33.classify(black_box(&raw)).unwrap()));
    group.finish();
}

fn bench_distances(c: &mut Criterion) {
    let runs = training_runs(42).expect("training runs");
    let raw = test_matrix();
    let mut group = c.benchmark_group("ablation_distance");
    group.sample_size(20);
    for (name, d) in [
        ("euclidean", Distance::Euclidean),
        ("manhattan", Distance::Manhattan),
        ("chebyshev", Distance::Chebyshev),
    ] {
        let config = PipelineConfig { distance: d, ..PipelineConfig::paper() };
        let pipeline = ClassifierPipeline::train(&runs, &config).unwrap();
        group.bench_function(name, |b| b.iter(|| pipeline.classify(black_box(&raw)).unwrap()));
    }
    group.finish();
}

criterion_group!(benches, bench_k, bench_components, bench_feature_sets, bench_distances);
criterion_main!(benches);
