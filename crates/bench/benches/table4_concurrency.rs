//! Bench of **Table 4**'s experiment: concurrent vs sequential execution
//! of a CPU-intensive (CH3D) and an I/O-intensive (PostMark) job.
//! `appclass table4` prints the table itself.

use appclass_sched::experiments::table4;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_table4(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4");
    group.sample_size(10);
    group.bench_function("concurrent_vs_sequential", |b| b.iter(|| table4(black_box(7))));
    group.finish();
}

criterion_group!(benches, bench_table4);
criterion_main!(benches);
