//! Control-frame codec: what the wire layer costs per request on the two
//! shapes the benchmark workloads send. `batch128` is a full
//! `SnapshotBatch` (one `relay-batch` request), `batch1` a one-item batch
//! (the `fleet-open` request width).
//!
//! `encode` builds the frame in place with `SnapshotBatchWriter` in a
//! reused buffer, as `ServeClient::stream_batch` does, checksum included.
//! `decode` verifies the envelope and checksum with
//! `decode_control_borrowed` and then decodes every datagram, as the
//! server does before the frame guard sees them.

use appclass_metrics::wire::{self, ControlFrameRef, SnapshotBatchWriter, MAX_SNAPSHOT_BATCH};
use appclass_metrics::{MetricFrame, NodeId, Snapshot, METRIC_COUNT};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

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

fn bench_wire_codec(c: &mut Criterion) {
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
    }
}

criterion_group!(benches, bench_wire_codec);
criterion_main!(benches);
