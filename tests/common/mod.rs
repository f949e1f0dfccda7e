//! Shared fixtures for the integration tests.

use appclass::cluster::train_cluster_pipeline;
use appclass::core::knn::{Distance, KnnClassifier};
use appclass::linalg::vector;
use appclass::prelude::*;

/// Runs the five standard training applications (seed 42) and trains the
/// paper-configured pipeline — the fixture nearly every integration test
/// starts from.
pub fn trained_pipeline() -> ClassifierPipeline {
    trained_pipeline_seeded(42)
}

/// Same training procedure under a caller-chosen simulation seed —
/// different seeds give distinct (differently-fingerprinted) models, the
/// fixture the hot-swap tests need.
#[allow(dead_code)] // not every integration binary swaps models
pub fn trained_pipeline_seeded(seed: u64) -> ClassifierPipeline {
    train_cluster_pipeline(seed).unwrap()
}

/// The k-NN rule by brute force, built only from the classifier's public
/// training data and independent of its neighbour index: rank every
/// training row by `(distance, row index)`, let the first k vote, and
/// break a tied vote toward the nearest tied neighbour.
#[allow(dead_code)] // used by the k-NN exactness tests only
pub fn brute_force_knn(knn: &KnnClassifier, distance: Distance, x: &[f64]) -> AppClass {
    let dist = |t: &[f64]| match distance {
        Distance::Euclidean => vector::sq_euclidean(x, t),
        Distance::Manhattan => vector::manhattan(x, t),
        Distance::Chebyshev => vector::chebyshev(x, t),
    };
    let mut ranked: Vec<(f64, usize)> = knn.points().iter_rows().map(dist).zip(0..).collect();
    ranked.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    let nearest = &ranked[..knn.k().min(ranked.len())];
    let labels = knn.labels();
    let mut counts = [0usize; 5];
    for &(_, i) in nearest {
        counts[labels[i].index()] += 1;
    }
    let top = *counts.iter().max().expect("five classes");
    nearest
        .iter()
        .map(|&(_, i)| labels[i])
        .find(|c| counts[c.index()] == top)
        .expect("k >= 1 neighbours")
}
