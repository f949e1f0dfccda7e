//! Online (streaming) classification — the paper's future work, running.
//!
//! Attaches an [`OnlineClassifier`] to the live metric bus while a
//! multi-stage interactive application (VMD) executes, and prints the
//! windowed majority class as it changes — detecting the session's
//! idle → upload → GUI stage transitions *during* the run rather than
//! after it. The §5.3 cost argument is what makes this feasible: ~15 ms
//! of classification work per sample against a 5 s sampling period.
//!
//! ```text
//! cargo run --release --example online_classifier
//! ```

use appclass::cluster::train_cluster_pipeline;
use appclass::core::online::OnlineClassifier;
use appclass::metrics::aggregator::Aggregator;
use appclass::metrics::gmond::{Gmond, MetricBus};
use appclass::metrics::NodeId;
use appclass::prelude::*;
use appclass::sim::vm::SoloVm;
use appclass::sim::workload::registry::test_specs;
use appclass::sim::VirtualMachine;

fn main() {
    // Train the pipeline.
    let pipeline = train_cluster_pipeline(42).expect("train");

    // Boot VMD in a monitored VM and stream snapshots through the online
    // classifier with a 6-snapshot (30 s) sliding window.
    let specs = test_specs();
    let vmd = specs.iter().find(|s| s.name == "VMD").expect("registry");
    let node = NodeId(77);
    let vm = VirtualMachine::new((vmd.vm_config)(node), (vmd.build)(), 99);

    let bus = MetricBus::new();
    let mut agg = Aggregator::subscribe(&bus);
    let mut gmond = Gmond::new(SoloVm::new(vm));
    let mut online = OnlineClassifier::with_window(&pipeline, 6);

    println!("streaming VMD session, 5 s sampling, 30 s sliding window:\n");
    println!("{:>6} {:>10}   windowed composition", "t (s)", "stage");
    let mut last: Option<AppClass> = None;
    let mut t = 0u64;
    loop {
        t += 5;
        gmond.announce_tick(t, &bus).expect("bus live");
        agg.drain();
        let snap = agg.pool().snapshots().last().expect("announced").clone();
        online.push(&snap).expect("classified");
        let current = online.current_class();
        if current != last {
            println!(
                "{:>6} {:>10}   {}",
                t,
                current.map(|c| c.label()).unwrap_or("-"),
                online.composition()
            );
            last = current;
        }
        if gmond.source().vm().finished() {
            break;
        }
    }
    println!(
        "\nsession ended after {} snapshots; full-session composition: {}",
        online.observed(),
        ClassComposition::from_labels(
            &agg.pool()
                .filter_node(node)
                .iter()
                .map(|s| pipeline.classify_frame(&s.frame).expect("classify"))
                .collect::<Vec<_>>()
        )
    );
}
