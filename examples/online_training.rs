//! Online training: the classifier learns while the monitor streams.
//!
//! §5.3 concludes that at ~15 ms of work per sample against a 5 s sampling
//! period, "it is possible to consider the classifier for online
//! training". This example does it: labelled training runs stream
//! snapshot-by-snapshot into an [`OnlineTrainer`] that refits the whole
//! pipeline every 50 snapshots, and after each refit the current model is
//! scored against a held-out CH3D run — watching accuracy arrive as the
//! training data does.
//!
//! ```text
//! cargo run --release --example online_training
//! ```

use appclass::cluster::training_runs;
use appclass::core::online::OnlineTrainer;
use appclass::metrics::NodeId;
use appclass::prelude::*;
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::test_specs;

fn main() {
    // Held-out evaluation run.
    let specs = test_specs();
    let ch3d = specs.iter().find(|s| s.name == "CH3D").expect("registry");
    let eval_rec = run_spec(ch3d, NodeId(90), 123);
    let eval_raw = eval_rec.pool.sample_matrix(eval_rec.node).expect("samples");

    // Stream the five training runs into the online trainer, interleaved
    // round-robin like five monitors reporting concurrently.
    let labelled = training_runs(42).expect("training runs");

    let mut trainer = OnlineTrainer::new(PipelineConfig::paper(), 50);
    let max_rows = labelled.iter().map(|(m, _)| m.rows()).max().expect("runs");
    println!("{:>10} {:>8} {:>12} {:>22}", "absorbed", "refits", "CH3D class", "CH3D CPU fraction");
    let mut last_report = 0;
    for row in 0..max_rows {
        for (m, class) in &labelled {
            if row >= m.rows() {
                continue;
            }
            let frame = MetricFrame::from_values(m.row(row)).expect("width");
            let refit = trainer.absorb(frame, *class).expect("absorb");
            if refit && trainer.refits() > last_report {
                last_report = trainer.refits();
                let pipeline = trainer.pipeline().expect("fitted");
                let result = pipeline.classify(&eval_raw).expect("classify");
                println!(
                    "{:>10} {:>8} {:>12} {:>21.2}%",
                    trainer.absorbed(),
                    trainer.refits(),
                    result.class.label(),
                    result.composition.fraction(AppClass::Cpu) * 100.0
                );
            }
        }
    }
    trainer.refit().expect("final refit");
    let final_result = trainer.pipeline().expect("fitted").classify(&eval_raw).expect("classify");
    println!(
        "\nfinal model after {} snapshots, {} refits: CH3D -> {} ({})",
        trainer.absorbed(),
        trainer.refits(),
        final_result.class,
        final_result.composition
    );
    assert_eq!(final_result.class, AppClass::Cpu);
}
