//! Automated feature selection vs the expert Table 1 list (§7 future
//! work).
//!
//! Runs mRMR selection over the full 33-metric catalogue on the standard
//! training runs, prints the ranked choice, then trains two pipelines —
//! expert-8 and auto-8 — and compares their accuracy over the Table 3
//! suite against the registry's ground-truth classes.
//!
//! ```text
//! cargo run --release --example feature_selection
//! ```

use appclass::cluster::training_runs;
use appclass::core::featsel::{relevance_scores, select_features};
use appclass::prelude::*;
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::test_specs;
use appclass::{expected_class, metrics::NodeId};

fn main() {
    let labelled = training_runs(42).expect("training runs");

    // Rank all 33 metrics by Fisher relevance.
    let mut scores = relevance_scores(&labelled).expect("scores");
    scores.sort_by(|a, b| b.relevance.partial_cmp(&a.relevance).expect("finite"));
    println!("top 12 metrics by class relevance (Fisher score):");
    for s in scores.iter().take(12) {
        let expert = if MetricId::EXPERT_EIGHT.contains(&s.metric) { "  <- Table 1" } else { "" };
        println!("  {:<14} {:>12.2}{}", s.metric.name(), s.relevance, expert);
    }

    // mRMR pick of eight.
    let auto = select_features(&labelled, 8).expect("selection");
    println!("\nmRMR automatic selection of 8 metrics:");
    for m in &auto {
        let expert = if MetricId::EXPERT_EIGHT.contains(m) { "  <- Table 1" } else { "" };
        println!("  {}{}", m.name(), expert);
    }
    let overlap = auto.iter().filter(|m| MetricId::EXPERT_EIGHT.contains(m)).count();
    println!("overlap with the expert list: {overlap}/8");

    // Accuracy comparison over the Table 3 suite.
    let expert_cfg = PipelineConfig::paper();
    let auto_cfg = PipelineConfig { metrics: auto, ..PipelineConfig::paper() };
    let expert_pipe = ClassifierPipeline::train(&labelled, &expert_cfg).expect("train");
    let auto_pipe = ClassifierPipeline::train(&labelled, &auto_cfg).expect("train");

    println!("\n{:<15} {:>10} {:>10} {:>10}", "Application", "expected", "expert-8", "auto-8");
    let mut expert_hits = 0;
    let mut auto_hits = 0;
    let mut total = 0;
    for (i, spec) in test_specs().iter().enumerate() {
        let rec = run_spec(spec, NodeId(60 + i as u32), 4000 + i as u64);
        let raw = rec.pool.sample_matrix(rec.node).expect("samples");
        let want = expected_class(spec.expected);
        let got_e = expert_pipe.classify(&raw).expect("classify").class;
        let got_a = auto_pipe.classify(&raw).expect("classify").class;
        // Interactive apps legitimately mix classes; exclude from the
        // strict-majority scoring like the paper's "Idle + Others" rows.
        let scored = spec.expected != appclass::sim::workload::WorkloadKind::Interactive;
        if scored {
            total += 1;
            expert_hits += (got_e == want) as usize;
            auto_hits += (got_a == want) as usize;
        }
        println!(
            "{:<15} {:>10} {:>10} {:>10}{}",
            spec.name,
            want.label(),
            got_e.label(),
            got_a.label(),
            if scored { "" } else { "   (interactive, unscored)" }
        );
    }
    println!(
        "\nmajority-class accuracy: expert-8 {}/{total}, auto-8 {}/{total}",
        expert_hits, auto_hits
    );
}
