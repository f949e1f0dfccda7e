//! Diagnostic view of the trained feature space.
//!
//! Prints the PCA eigen-spectrum, the per-class centroid of the training
//! clusters in PC space, their pairwise separations, and where each test
//! run's centroid lands — the numbers behind the Figure 3 cluster
//! diagrams. Useful when tuning workload models or debugging a
//! misclassification.
//!
//! ```text
//! cargo run --release --example pca_diagnostics
//! ```

use appclass::cluster::train_cluster_pipeline;
use appclass::prelude::*;

fn main() {
    let pipeline = train_cluster_pipeline(42).unwrap();

    println!("eigenvalues of the 8x8 correlation matrix:");
    for (i, v) in pipeline.pca().eigenvalues().iter().enumerate() {
        println!("  lambda_{i} = {v:.4}");
    }
    println!("\ncomponent loadings (rows: expert metrics, cols: PC1 PC2):");
    let comps = pipeline.pca().components();
    for (i, id) in pipeline.preprocessor().metrics().iter().enumerate() {
        println!("  {:<12} {:>8.4} {:>8.4}", id.name(), comps[(i, 0)], comps[(i, 1)]);
    }

    println!("\ntraining-cluster centroids in PC space:");
    let (proj, labels) = pipeline.training_projection();
    for class in AppClass::ALL {
        let pts: Vec<&[f64]> =
            proj.iter_rows().zip(labels).filter(|(_, l)| **l == class).map(|(r, _)| r).collect();
        if pts.is_empty() {
            continue;
        }
        let n = pts.len() as f64;
        let cx = pts.iter().map(|p| p[0]).sum::<f64>() / n;
        let cy = pts.iter().map(|p| p[1]).sum::<f64>() / n;
        let spread =
            (pts.iter().map(|p| (p[0] - cx).powi(2) + (p[1] - cy).powi(2)).sum::<f64>() / n).sqrt();
        println!(
            "  {:<5} centroid = ({cx:>7.3}, {cy:>7.3})  rms spread = {spread:.3}",
            class.label()
        );
    }

    println!("\ntest-run centroids in PC space (Table 3's runs):");
    for row in appclass::paper::table3(&pipeline, 42).unwrap() {
        let proj = &row.result.projected;
        let n = proj.rows() as f64;
        let cx = proj.iter_rows().map(|r| r[0]).sum::<f64>() / n;
        let cy = proj.iter_rows().map(|r| r[1]).sum::<f64>() / n;
        println!("  {:<15} centroid = ({cx:>7.3}, {cy:>7.3})", row.name);
    }
}
