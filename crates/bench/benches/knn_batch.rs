//! k-NN batch classification vs the row-by-row streaming path.
//!
//! Both paths answer each query from the classifier's PC1-sorted
//! neighbour index: a binary search on the first coordinate, then an
//! outward scan that stops once the first-coordinate gap alone exceeds
//! the current k-th distance. These groups measure it across batch sizes
//! on the paper's post-PCA shape (2-D, where the first coordinate is the
//! highest-variance axis and prunes most rows) and on a wider uniform
//! pool (8-D, where one coordinate prunes far less).

use appclass_core::knn::{Distance, KnnClassifier};
use appclass_core::AppClass;
use appclass_linalg::Matrix;
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

criterion_group!(benches, bench_knn_batch);
criterion_main!(benches);
