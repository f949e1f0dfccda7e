//! Bench of **Table 3**'s classification stage: one classification of
//! each test application's run (the paper's concern in §5.3 is that
//! classification stays cheap relative to the sampling period).
//! `appclass table3` prints the table itself.

use appclass::cluster::train_cluster_pipeline;
use appclass::paper::table3_runs;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table3(c: &mut Criterion) {
    let pipeline = train_cluster_pipeline(42).expect("training");
    let runs: Vec<_> = table3_runs(42)
        .into_iter()
        .map(|rec| (rec.pool.sample_matrix(rec.node).expect("test samples"), rec.name))
        .collect();

    let mut group = c.benchmark_group("table3_classify");
    group.sample_size(20);
    for (raw, name) in &runs {
        group.bench_function(name, |b| b.iter(|| pipeline.classify(black_box(raw)).unwrap()));
    }
    group.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
