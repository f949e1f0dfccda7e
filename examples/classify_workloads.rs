//! The **Figure 3** cluster diagrams, drawn over the rows of Table 3.
//!
//! Trains the paper's pipeline and classifies every Table 3 test run
//! through [`appclass::paper`] (seed 42; `appclass table3` prints the
//! table itself). With `--clusters <dir>`, writes the PC1/PC2 projections
//! as CSV series: the training data and the three diagrams the paper
//! plots (SimpleScalar, Autobench, VMD). With `--plot`, draws panels (a)
//! and (d) as ASCII scatter plots.
//!
//! ```text
//! cargo run --release --example classify_workloads -- [--clusters out/] [--plot]
//! ```

use appclass::cluster::train_cluster_pipeline;
use appclass::prelude::*;
use std::io::Write as _;

const SEED: u64 = 42;

fn main() {
    let cluster_dir = cluster_dir_from_args();
    let plot = std::env::args().any(|a| a == "--plot");

    let pipeline = train_cluster_pipeline(SEED).expect("training");
    let ev = pipeline.pca().explained_variance();
    println!(
        "pipeline: 33 metrics -> 8 expert metrics -> {} PCs \
         (variance: PC1 {:.1}%, PC2 {:.1}%) -> 3-NN, {} training snapshots",
        pipeline.n_components(),
        ev[0] * 100.0,
        ev.get(1).copied().unwrap_or(0.0) * 100.0,
        pipeline.knn().n_training()
    );

    let (proj, labels) = pipeline.training_projection();
    if let Some(dir) = &cluster_dir {
        write_cluster_csv(dir, "training", proj, labels);
    }
    if plot {
        println!("\nFigure 3(a): training-data clusters in PC space\n");
        println!("{}", appclass::plot::scatter(proj, labels, 64, 20));
    }

    for row in appclass::paper::table3(&pipeline, SEED).expect("Table 3 rows") {
        let result = &row.result;
        if let Some(dir) = &cluster_dir {
            if matches!(row.name.as_str(), "SimpleScalar" | "Autobench" | "VMD") {
                write_cluster_csv(dir, &row.name, &result.projected, &result.class_vector);
            }
        }
        if plot && row.name == "VMD" {
            println!("\nFigure 3(d): VMD snapshots in PC space\n");
            println!(
                "{}",
                appclass::plot::scatter(&result.projected, &result.class_vector, 64, 16)
            );
        }
    }
    if let Some(dir) = &cluster_dir {
        println!("\ncluster CSVs written to {}", dir.display());
    }
}

fn cluster_dir_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--clusters").map(|i| {
        let dir =
            std::path::PathBuf::from(args.get(i + 1).map(String::as_str).unwrap_or("clusters"));
        std::fs::create_dir_all(&dir).expect("create cluster dir");
        dir
    })
}

/// Writes one Figure 3 panel: `pc1,pc2,class` per snapshot.
fn write_cluster_csv(dir: &std::path::Path, name: &str, projected: &Matrix, labels: &[AppClass]) {
    let path = dir.join(format!("fig3_{}.csv", name.to_lowercase()));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "pc1,pc2,class").unwrap();
    for (row, label) in projected.iter_rows().zip(labels) {
        writeln!(f, "{},{},{}", row[0], row.get(1).copied().unwrap_or(0.0), label).unwrap();
    }
}
