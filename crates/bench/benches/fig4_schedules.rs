//! Bench of **Figure 4**'s simulation: one run of the same-class and of
//! the class-aware schedule. `appclass fig4` prints the figure itself.

use appclass_sched::experiments::run_schedule;
use appclass_sched::schedule::enumerate_schedules;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let schedules = enumerate_schedules();
    let same_class = schedules[0];
    let diverse = *schedules.last().unwrap();
    let mut group = c.benchmark_group("fig4_run_schedule");
    group.sample_size(10);
    group.bench_function("schedule1_same_class", |b| {
        b.iter(|| run_schedule(black_box(&same_class), 7))
    });
    group.bench_function("schedule10_class_aware", |b| {
        b.iter(|| run_schedule(black_box(&diverse), 7))
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
