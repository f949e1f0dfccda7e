//! Bench of **Figure 5**'s per-application throughput extraction from a
//! schedule outcome. `appclass fig5` prints the figure itself.

use appclass_sched::experiments::{app_throughput, run_schedule};
use appclass_sched::schedule::enumerate_schedules;
use appclass_sched::JobType;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig5(c: &mut Criterion) {
    let diverse = *enumerate_schedules().last().unwrap();
    let outcome = run_schedule(&diverse, 7);
    let mut group = c.benchmark_group("fig5_app_throughput");
    group.bench_function("extract_three_apps", |b| {
        b.iter(|| {
            for app in JobType::ALL {
                black_box(app_throughput(black_box(&outcome), app));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
