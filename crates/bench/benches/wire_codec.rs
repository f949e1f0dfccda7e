//! Control-frame codec: what the wire layer costs per request on the two
//! shapes the benchmark workloads send. `batch128` is a full
//! `SnapshotBatch` (one `relay-batch` request), `batch1` a one-item batch
//! (the `fleet-open` request width).
//!
//! `encode` builds the frame in place with `SnapshotBatchWriter` in a
//! reused buffer, as `ServeClient::stream_batch` does, checksum included.
//! `decode` verifies the envelope and checksum with
//! `decode_control_borrowed` and then decodes every datagram, as the
//! server does before the frame guard sees them. `ingest` is the
//! server's whole request path without the sockets: `decode` into a
//! reused snapshot vector, then `push_batch_guarded` (guard admission,
//! the three classifier stages and the vote) on a warm classifier.
//!
//! `admit` and `admit_repaired` time `FrameGuard::admit` alone, as
//! perfbench's `metrics.repair.admit` span does, on snapshots built in
//! process: clean ones, which the guard admits on its clean-frame fast
//! path, and ones with one non-finite value each, which it repairs on
//! its general pass. `wire::decode` rejects non-finite values, so only
//! an in-process caller sends the guard such frames.

use appclass_bench::fixtures::training_runs;
use appclass_core::online::OnlineClassifier;
use appclass_core::pipeline::{ClassifierPipeline, PipelineConfig};
use appclass_metrics::repair::FrameGuard;
use appclass_metrics::wire::{self, ControlFrameRef, SnapshotBatchWriter, MAX_SNAPSHOT_BATCH};
use appclass_metrics::{MetricFrame, MetricId, NodeId, Snapshot, METRIC_COUNT};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Timed calls of the `ingest` rows. Each call needs a request of its
/// own (the guard drops a repeated timestamp), and every request is
/// encoded before timing starts, so this bounds the memory they take.
const INGEST_SAMPLES: usize = 300;
/// Untimed calls the criterion shim makes before its samples.
const SHIM_WARM_UP: usize = 2;
/// Requests pushed before the row starts, to warm the classifier.
const INGEST_WARM_UP: usize = 8;

/// `n` distinct deterministic snapshots, one per VM.
fn snapshots(n: usize) -> Vec<Snapshot> {
    (0..n)
        .map(|i| {
            let values: Vec<f64> =
                (0..METRIC_COUNT).map(|m| ((i * 31 + m * 7) % 97) as f64 * 1.25).collect();
            let frame = MetricFrame::from_values(&values).expect("one value per metric");
            Snapshot::new(NodeId(i as u32), 5 * i as u64, frame)
        })
        .collect()
}

/// A relay's request at the `tick`-th 5-second instant: one snapshot per
/// VM, replaying the training runs' own samples, so the classifier sees
/// traffic shaped like the `relay-batch` workload's.
fn relay_request(width: usize, tick: usize, samples: &[Vec<f64>]) -> Vec<Snapshot> {
    (0..width)
        .map(|vm| {
            let values = &samples[(tick * width + vm) % samples.len()];
            let frame = MetricFrame::from_values(values).expect("one value per metric");
            Snapshot::new(NodeId(vm as u32), 5 * tick as u64, frame)
        })
        .collect()
}

fn encode(snaps: &[Snapshot], buf: Vec<u8>) -> Vec<u8> {
    let mut batch = SnapshotBatchWriter::new(buf);
    for snap in snaps {
        batch.push(snap);
    }
    batch.finish(None)
}

/// Decodes the batch and every item; returns the summed node ids so the
/// work cannot be optimised away.
fn decode(frame: &[u8]) -> u64 {
    let Ok(ControlFrameRef::SnapshotBatch { wires, .. }) = wire::decode_control_borrowed(frame)
    else {
        panic!("not a snapshot batch");
    };
    wires.iter().map(|w| u64::from(wire::decode(w).expect("valid datagram").node.0)).sum()
}

/// Decodes the batch into `snaps` and pushes it through the classifier;
/// returns the number of verdicts.
fn ingest(frame: &[u8], snaps: &mut Vec<Snapshot>, oc: &mut OnlineClassifier<'_>) -> usize {
    let Ok(ControlFrameRef::SnapshotBatch { wires, .. }) = wire::decode_control_borrowed(frame)
    else {
        panic!("not a snapshot batch");
    };
    snaps.clear();
    snaps.extend(wires.iter().map(|w| wire::decode(w).expect("valid datagram")));
    oc.push_batch_guarded(snaps).expect("clean frames classify").len()
}

fn bench_wire_codec(c: &mut Criterion) {
    let runs = training_runs(42);
    let pipeline = ClassifierPipeline::train(&runs, &PipelineConfig::paper()).expect("trains");
    let samples: Vec<Vec<f64>> =
        runs.iter().flat_map(|(raw, _)| raw.iter_rows().map(<[f64]>::to_vec)).collect();
    for width in [MAX_SNAPSHOT_BATCH, 1] {
        let snaps = snapshots(width);
        let frame = encode(&snaps, Vec::new());
        let mut buf = Vec::with_capacity(frame.len());
        let mut group = c.benchmark_group(format!("batch{width}"));
        group.sample_size(2000);
        group.bench_function("encode", |b| {
            b.iter(|| {
                buf.clear();
                buf = encode(black_box(&snaps), std::mem::take(&mut buf));
                buf.len()
            })
        });
        group.bench_function("decode", |b| b.iter(|| decode(black_box(&frame))));
        group.finish();

        // One request per tick, so every timed push sees frames the guard
        // accepts on cadence.
        let requests: Vec<Vec<u8>> = (0..INGEST_WARM_UP + SHIM_WARM_UP + INGEST_SAMPLES)
            .map(|tick| encode(&relay_request(width, tick, &samples), Vec::new()))
            .collect();
        let (warm, timed) = requests.split_at(INGEST_WARM_UP);
        let mut oc = OnlineClassifier::new(&pipeline);
        let mut decoded = Vec::with_capacity(width);
        for frame in warm {
            ingest(frame, &mut decoded, &mut oc);
        }
        let mut next = timed.iter();
        let mut group = c.benchmark_group(format!("batch{width}"));
        group.sample_size(INGEST_SAMPLES);
        group.bench_function("ingest", |b| {
            b.iter(|| {
                let frame = next.next().expect("one encoded request per call");
                ingest(black_box(frame), &mut decoded, &mut oc)
            })
        });
        group.finish();

        // The guard alone. The warm-up requests are clean, so every metric
        // has a baseline; a repaired request has a different metric
        // non-finite in each frame and tick, so every frame is repaired and
        // none quarantined.
        for (row, corrupt) in [("admit", false), ("admit_repaired", true)] {
            let requests: Vec<Vec<Snapshot>> = (0..INGEST_WARM_UP + SHIM_WARM_UP + INGEST_SAMPLES)
                .map(|tick| {
                    let mut snaps = relay_request(width, tick, &samples);
                    if corrupt && tick >= INGEST_WARM_UP {
                        for (vm, snap) in snaps.iter_mut().enumerate() {
                            snap.frame.set(MetricId::ALL[(tick + vm) % METRIC_COUNT], f64::NAN);
                        }
                    }
                    snaps
                })
                .collect();
            let (warm, timed) = requests.split_at(INGEST_WARM_UP);
            let mut guard = FrameGuard::default();
            let mut admit = |snaps: &[Snapshot]| {
                snaps.iter().filter(|snap| guard.admit(snap).frame.is_some()).count()
            };
            for snaps in warm {
                admit(snaps);
            }
            let mut next = timed.iter();
            let mut group = c.benchmark_group(format!("batch{width}"));
            group.sample_size(INGEST_SAMPLES);
            group.bench_function(row, |b| {
                b.iter(|| admit(black_box(next.next().expect("one request per call"))))
            });
            group.finish();
            let health = guard.health();
            let repaired = if corrupt { (timed.len() * width) as u64 } else { 0 };
            assert_eq!((health.repaired, health.dropped), (repaired, 0), "{row}: verdicts");
        }
    }
}

criterion_group!(benches, bench_wire_codec);
criterion_main!(benches);
