//! The **§5.3 classification cost** experiment.
//!
//! The paper takes 8000 snapshots of a SPECseis96 (medium) run, then
//! measures: 72 s for the performance filter to extract the target VM's
//! data, 50 s to train the classifier + run PCA + classify — a unit cost
//! of ~15 ms per sample on a Pentium III 750, concluding online
//! classification is feasible. This bench reproduces the same three
//! stages on a pool of the same size and reports per-sample costs.

use appclass::cluster::{train_cluster_pipeline, training_runs};
use appclass_core::pipeline::{ClassifierPipeline, PipelineConfig};
use appclass_core::stage::StagePipeline;
use appclass_metrics::filter::PerformanceFilter;
use appclass_metrics::{DataPool, MetricFrame, NodeId, Snapshot};
use appclass_sim::runner::run_spec;
use appclass_sim::workload::registry::test_specs;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The paper's pool size: 8000 snapshots of the target VM.
const POOL_SAMPLES: usize = 8_000;

/// Builds a subnet pool with 8000 snapshots of the target VM (cycling a
/// real SPECseis96 run) plus an equal volume of other-node chatter the
/// filter must discard, like Ganglia's multicast delivers.
fn build_pool() -> DataPool {
    let specs = test_specs();
    let spec = specs.iter().find(|s| s.name == "SPECseis96_A").unwrap();
    let rec = run_spec(spec, NodeId(1), 42);
    let base = rec.pool.sample_matrix(NodeId(1)).unwrap();
    let mut pool = DataPool::new();
    for i in 0..POOL_SAMPLES {
        let row = base.row(i % base.rows());
        let frame = MetricFrame::from_values(row).unwrap();
        pool.push(Snapshot::new(NodeId(1), i as u64 * 5, frame.clone()));
        // Another node in the subnet announces too.
        pool.push(Snapshot::new(NodeId(2), i as u64 * 5, frame));
    }
    pool
}

fn bench_cost(c: &mut Criterion) {
    let pool = build_pool();
    let pipeline = train_cluster_pipeline(42).expect("training");
    let runs = training_runs(42).expect("training runs");
    let config = PipelineConfig::paper();
    let target = pool.sample_matrix(NodeId(1)).unwrap();

    // One-shot wall-clock report in the paper's terms.
    let t0 = std::time::Instant::now();
    let (extracted, report) = PerformanceFilter.extract(&pool, NodeId(1)).unwrap();
    let t_filter = t0.elapsed();
    let t1 = std::time::Instant::now();
    let p = ClassifierPipeline::train(&runs, &config).unwrap();
    let _ = p.classify(&extracted).unwrap();
    let t_classify = t1.elapsed();
    let per_sample = (t_filter + t_classify).as_secs_f64() * 1_000.0 / report.extracted as f64;
    println!("\nClassification cost (§5.3), {} target samples:", report.extracted);
    println!("  filter extraction: {:.3} s  (paper: 72 s)", t_filter.as_secs_f64());
    println!("  train + PCA + classify: {:.3} s  (paper: 50 s)", t_classify.as_secs_f64());
    println!("  unit cost: {:.4} ms/sample  (paper: 15 ms/sample)", per_sample);
    println!(
        "  sampling period is 5000 ms: online classification feasible = {}",
        per_sample < 5_000.0
    );

    // Per-stage breakdown of the classify cost, from the dataflow runner's
    // own instrumentation.
    let mut runner = StagePipeline::new();
    let _ = p.classify_with(&mut runner, &extracted).unwrap();
    println!("  per-stage breakdown (one classify pass):");
    for stat in runner.metrics().stages() {
        println!(
            "    {:<10} {:>6} samples  {:>12.3?}  ({:.6} ms/sample)",
            stat.name,
            stat.samples,
            stat.elapsed(),
            stat.ms_per_sample()
        );
    }
    assert!(
        runner.metrics().stages().iter().all(|s| s.samples > 0),
        "every stage must report non-zero sample counts"
    );

    let mut group = c.benchmark_group("classification_cost");
    group.sample_size(10);
    group.bench_function("filter_extract_8000", |b| {
        b.iter(|| PerformanceFilter.extract(black_box(&pool), NodeId(1)).unwrap())
    });
    group.bench_function("train_pipeline", |b| {
        b.iter(|| ClassifierPipeline::train(black_box(&runs), &config).unwrap())
    });
    group.bench_function("classify_8000", |b| {
        b.iter(|| pipeline.classify(black_box(&target)).unwrap())
    });
    group.bench_function("classify_8000_reused_runner", |b| {
        // The steady-state path: scratch buffers warm across iterations,
        // no intermediate-matrix allocation after the first pass.
        let mut runner = StagePipeline::new();
        b.iter(|| pipeline.classify_with(&mut runner, black_box(&target)).unwrap())
    });
    group.bench_function("classify_one_frame", |b| {
        let frame = MetricFrame::from_values(target.row(0)).unwrap();
        b.iter(|| pipeline.classify_frame(black_box(&frame)).unwrap())
    });
    group.bench_function("classify_one_frame_reused_runner", |b| {
        let frame = MetricFrame::from_values(target.row(0)).unwrap();
        let mut runner = StagePipeline::new();
        b.iter(|| pipeline.classify_frame_with(&mut runner, black_box(&frame)).unwrap())
    });
    group.finish();

    // Observability overhead: the same steady-state per-frame classify,
    // with and without a span tracer attached to the runner. Span
    // recording is designed to be lock-free and allocation-free, so the
    // instrumented path must stay within a few percent of the bare one.
    let frame = MetricFrame::from_values(target.row(0)).unwrap();
    let mut bare = StagePipeline::new();
    let mut traced = StagePipeline::new();
    traced.set_tracer(appclass_obs::Tracer::new(4096));
    for _ in 0..1000 {
        // Warm both runners' scratch buffers and the tracer's interned names.
        let _ = pipeline.classify_frame_with(&mut bare, &frame).unwrap();
        let _ = pipeline.classify_frame_with(&mut traced, &frame).unwrap();
    }
    // Interleave short bare/traced batches so clock-speed drift over the
    // measurement window hits both sides equally, then take the median
    // per-batch time of each side: the medians shrug off scheduler bursts
    // that a single long run would fold into whichever side they hit.
    const OVERHEAD_ROUNDS: usize = 100;
    const BATCH_ITERS: u32 = 2_000;
    let mut bare_ns = Vec::with_capacity(OVERHEAD_ROUNDS);
    let mut traced_ns = Vec::with_capacity(OVERHEAD_ROUNDS);
    for _ in 0..OVERHEAD_ROUNDS {
        let t = std::time::Instant::now();
        for _ in 0..BATCH_ITERS {
            let _ = pipeline.classify_frame_with(&mut bare, black_box(&frame)).unwrap();
        }
        bare_ns.push(t.elapsed().as_nanos() as u64);
        let t = std::time::Instant::now();
        for _ in 0..BATCH_ITERS {
            let _ = pipeline.classify_frame_with(&mut traced, black_box(&frame)).unwrap();
        }
        traced_ns.push(t.elapsed().as_nanos() as u64);
    }
    let median = |v: &mut Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (m_bare, m_traced) = (median(&mut bare_ns), median(&mut traced_ns));
    let overhead_pct = (m_traced as f64 / m_bare as f64 - 1.0) * 100.0;
    println!(
        "  span-tracing overhead: bare {:.1?} vs traced {:.1?} per frame ({overhead_pct:+.2}%, \
         median of {OVERHEAD_ROUNDS} interleaved batches)",
        std::time::Duration::from_nanos(m_bare / u64::from(BATCH_ITERS)),
        std::time::Duration::from_nanos(m_traced / u64::from(BATCH_ITERS)),
    );

    let mut group = c.benchmark_group("observability_overhead");
    group.sample_size(10);
    group.bench_function("classify_one_frame_untraced", |b| {
        let mut runner = StagePipeline::new();
        b.iter(|| pipeline.classify_frame_with(&mut runner, black_box(&frame)).unwrap())
    });
    group.bench_function("classify_one_frame_traced", |b| {
        let mut runner = StagePipeline::new();
        runner.set_tracer(appclass_obs::Tracer::new(4096));
        b.iter(|| pipeline.classify_frame_with(&mut runner, black_box(&frame)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_cost);
criterion_main!(benches);
