//! Accuracy ablations over the pipeline's design choices.
//!
//! The paper fixes k = 3 neighbours, q = 2 principal components, the
//! expert eight metrics and Euclidean distance. This study varies each
//! choice independently and scores majority-class accuracy over the
//! twelve non-interactive Table 3 workloads — the evidence behind the
//! DESIGN.md discussion of why the paper's configuration is a reasonable
//! operating point.
//!
//! ```text
//! cargo run --release --example ablation_study
//! ```

use appclass::cluster::training_runs;
use appclass::core::knn::Distance;
use appclass::core::pca::ComponentSelection;
use appclass::prelude::*;
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::test_specs;
use appclass::sim::workload::WorkloadKind;
use appclass::{expected_class, metrics::NodeId};

/// Scores a configuration: majority-class hits over the scored suite.
fn accuracy(
    labelled: &[(Matrix, AppClass)],
    suite: &[(String, Matrix, AppClass, bool)],
    config: &PipelineConfig,
) -> (usize, usize) {
    let pipeline = ClassifierPipeline::train(labelled, config).expect("train");
    let mut hits = 0;
    let mut total = 0;
    for (_, raw, want, scored) in suite {
        if !scored {
            continue;
        }
        total += 1;
        if pipeline.classify(raw).expect("classify").class == *want {
            hits += 1;
        }
    }
    (hits, total)
}

fn main() {
    // Train-set and test-suite runs, shared across all configurations.
    let labelled = training_runs(42).expect("training runs");
    let suite: Vec<(String, Matrix, AppClass, bool)> = test_specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let rec = run_spec(spec, NodeId(80 + i as u32), 9000 + i as u64);
            (
                spec.name.to_string(),
                rec.pool.sample_matrix(rec.node).expect("samples"),
                expected_class(spec.expected),
                spec.expected != WorkloadKind::Interactive,
            )
        })
        .collect();

    println!("majority-class accuracy over the 12 scored Table 3 workloads\n");

    println!("k (nearest neighbours; paper uses 3):");
    for k in [1usize, 3, 5, 7, 9] {
        let config = PipelineConfig { k, ..PipelineConfig::paper() };
        let (h, t) = accuracy(&labelled, &suite, &config);
        println!("  k = {k}: {h}/{t}{}", if k == 3 { "   <- paper" } else { "" });
    }

    println!("\nq (principal components; paper uses 2):");
    for q in [1usize, 2, 3, 4, 6, 8] {
        let config =
            PipelineConfig { selection: ComponentSelection::Count(q), ..PipelineConfig::paper() };
        let (h, t) = accuracy(&labelled, &suite, &config);
        println!("  q = {q}: {h}/{t}{}", if q == 2 { "   <- paper" } else { "" });
    }

    println!("\nfeature set (paper uses the expert eight):");
    for (name, metrics) in [
        ("expert-8 (Table 1)", MetricId::EXPERT_EIGHT.to_vec()),
        ("all 33 metrics", MetricId::ALL.to_vec()),
        ("cpu pair only", vec![MetricId::CpuSystem, MetricId::CpuUser]),
    ] {
        let config = PipelineConfig { metrics, ..PipelineConfig::paper() };
        let (h, t) = accuracy(&labelled, &suite, &config);
        println!("  {name}: {h}/{t}");
    }

    println!("\ndistance metric (paper uses Euclidean):");
    for (name, d) in [
        ("euclidean", Distance::Euclidean),
        ("manhattan", Distance::Manhattan),
        ("chebyshev", Distance::Chebyshev),
    ] {
        let config = PipelineConfig { distance: d, ..PipelineConfig::paper() };
        let (h, t) = accuracy(&labelled, &suite, &config);
        println!("  {name}: {h}/{t}");
    }

    println!("\nnormalization (the preprocessor's z-scoring):");
    // Without normalization the raw magnitudes (bytes ~1e7 vs CPU% ~1e2)
    // let the largest-unit metric dominate every distance. Demonstrated by
    // feeding PCA un-normalized data via a variance threshold that keeps
    // everything. We emulate "off" by selecting all 33 raw metrics with
    // q = 8 — the standardizer still runs (the pipeline always
    // normalizes), so instead compare against a single dominating metric
    // set to show the effect of scale imbalance.
    let config = PipelineConfig {
        metrics: vec![MetricId::BytesIn, MetricId::BytesOut],
        selection: ComponentSelection::Count(2),
        ..PipelineConfig::paper()
    };
    let (h, t) = accuracy(&labelled, &suite, &config);
    println!("  network metrics only (scale-dominant pair): {h}/{t}");

    // Per-snapshot honesty check: 4-fold cross-validation on the training
    // pool itself (no test-suite leakage possible).
    println!("\n4-fold cross-validation over the training snapshots:");
    let cm = appclass::core::eval::cross_validate(&labelled, &PipelineConfig::paper(), 4)
        .expect("cross-validation");
    println!(
        "  accuracy {:.2}%  macro-F1 {:.3}  over {} held-out snapshots",
        cm.accuracy().unwrap_or(0.0) * 100.0,
        cm.macro_f1().unwrap_or(0.0),
        cm.total()
    );
    println!("{cm}");
}
