//! k-NN batch classification vs the row-by-row streaming path.
//!
//! Both paths answer each query from the classifier's PC1-sorted
//! neighbour index: a binary search on the first coordinate, then an
//! outward scan that stops once the first-coordinate gap alone exceeds
//! the current k-th distance. Each visited row costs a few subtractions
//! against the index's coordinate columns and one compare against the
//! k-th distance. The `knn_batch_n*` groups measure it across batch sizes
//! on uniform random pools: the paper's post-PCA shape (2-D, where the
//! first coordinate is the highest-variance axis and prunes most rows)
//! and a wider pool (8-D, where one coordinate prunes far less).
//!
//! The `knn_batch_trained` group runs the pool the service classifies
//! against: the paper pipeline trained on seed 42, 677 rows, 400 of them
//! near-duplicate MEM rows on the class rays of Figure 3. `near128`
//! classifies fresh runs of the five training applications (seed 43),
//! projected through the pipeline's own stages, in 128-row calls, the
//! width of a `relay-batch` request. `registry` classifies every snapshot
//! of the 19 registry workloads, one call per workload; it includes the
//! queries that fall far from the pool (NetPIPE, Autobench,
//! PostMark_NFS), where the scan visits hundreds of rows.

use appclass::cluster::{train_cluster_pipeline, training_runs};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::registry;
use appclass_core::knn::{Distance, KnnClassifier};
use appclass_core::AppClass;
use appclass_linalg::Matrix;
use appclass_metrics::NodeId;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Deterministic synthetic matrix (xorshift; no RNG dependency).
fn synth(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    };
    let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
    Matrix::from_vec(rows, cols, data).expect("rows*cols data")
}

fn classifier(n_train: usize, dim: usize) -> KnnClassifier {
    let points = synth(n_train, dim, 7);
    let labels: Vec<AppClass> = (0..n_train).map(|i| AppClass::ALL[i % 5]).collect();
    KnnClassifier::new(3, points, labels, Distance::Euclidean).expect("valid classifier")
}

/// Batch classification across batch sizes, against the streaming
/// baseline, on the paper's post-PCA shape (2-D) and a wider pool.
fn bench_knn_batch(c: &mut Criterion) {
    for (n_train, dim) in [(150usize, 2usize), (1500, 8)] {
        let knn = classifier(n_train, dim);
        let mut group = c.benchmark_group(format!("knn_batch_n{n_train}_d{dim}"));
        group.sample_size(20);
        for m in [1usize, 32, 256, 1024] {
            let queries = synth(m, dim, 99);
            group.bench_function(format!("batch{m}"), |b| {
                b.iter(|| knn.classify_batch(black_box(&queries)).unwrap())
            });
        }
        // The scalar streaming baseline over the same 256 rows the
        // batch256 case classifies in one call.
        let queries = synth(256, dim, 99);
        group.bench_function("streaming256", |b| {
            b.iter(|| {
                (0..queries.rows())
                    .map(|i| knn.classify(black_box(queries.row(i))).unwrap())
                    .collect::<Vec<_>>()
            })
        });
        group.finish();
    }
}

/// Batch classification against the trained pool, on training-shaped
/// queries and on the whole registry.
fn bench_knn_trained(c: &mut Criterion) {
    let pipeline = train_cluster_pipeline(42).expect("training");
    let knn = pipeline.knn();
    let near: Vec<Vec<f64>> = training_runs(43)
        .expect("training runs")
        .iter()
        .flat_map(|(raw, _)| {
            let projected = pipeline.project(raw).expect("training runs project");
            projected.iter_rows().map(<[f64]>::to_vec).collect::<Vec<_>>()
        })
        .collect();
    let near128: Vec<Matrix> =
        near.chunks(128).map(|rows| Matrix::from_rows(rows).expect("equal widths")).collect();
    let workloads: Vec<Matrix> = registry()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let rec = run_spec(spec, NodeId(100 + i as u32), 1042 + i as u64);
            let raw = rec.pool.sample_matrix(rec.node).expect("registry run produced samples");
            pipeline.project(&raw).expect("registry runs project")
        })
        .collect();
    let registry_rows: usize = workloads.iter().map(Matrix::rows).sum();
    println!(
        "knn_batch_trained: {} training rows; near128 = {} queries in {} calls; \
         registry = {registry_rows} queries in {} calls",
        knn.n_training(),
        near.len(),
        near128.len(),
        workloads.len(),
    );
    let mut group = c.benchmark_group("knn_batch_trained");
    group.sample_size(20);
    for (name, batches) in [("near128", &near128), ("registry", &workloads)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                batches
                    .iter()
                    .map(|m| knn.classify_batch(black_box(m)).unwrap().len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_knn_batch, bench_knn_trained);
criterion_main!(benches);
