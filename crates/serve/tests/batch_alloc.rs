//! The allocation contract of a served request: once a session is warm,
//! a `SnapshotBatch` request costs the server exactly one heap
//! allocation, whatever its width — the envelope decoder's item list,
//! whose slices borrow the shard's read buffer and so cannot outlive the
//! request. Datagram decode, guard admission, the classifier stages, the
//! vote and the `VerdictBatch` reply all run in buffers kept from one
//! request to the next, and polling the listener beside the session
//! allocates nothing.
//!
//! A counting global allocator wraps `System`. The client side writes
//! pre-encoded frames from a raw socket and reads each reply into a
//! pre-sized buffer, so it allocates nothing inside the measured window
//! and every allocation counted there is the server's.

use appclass_core::class::AppClass;
use appclass_core::pipeline::{ClassifierPipeline, PipelineConfig};
use appclass_linalg::Matrix;
use appclass_metrics::wire::decode_control;
use appclass_metrics::{
    ByeReason, ControlFrame, FrameDisposition, MetricFrame, MetricId, NodeId, Snapshot,
    METRIC_COUNT,
};
use appclass_serve::proto::{append_frame, begin_batch, finish_batch};
use appclass_serve::{ServerConfig, SessionConfig, ShardServer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is a relaxed atomic
// increment with no other side effects, so every `GlobalAlloc` contract
// obligation is discharged by `System` itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The counter is process-global, so the two widths must not be measured
/// at the same time; each test holds this lock for its whole body.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The vote window the server's classifiers keep.
const WINDOW: usize = 64;
/// Requests measured per window.
const MEASURED: usize = 256;
/// Measured windows per width, back to back.
const WINDOWS: usize = 3;
/// The server's one allocation per request: the envelope's item list.
const ALLOCATIONS_PER_REQUEST: u64 = 1;

fn raw_run(rows: usize, settings: &[(MetricId, f64)]) -> Matrix {
    let mut m = Matrix::zeros(rows, METRIC_COUNT);
    for i in 0..rows {
        let wiggle = 1.0 + 0.03 * ((i % 5) as f64 - 2.0);
        for &(id, v) in settings {
            m[(i, id.index())] = v * wiggle;
        }
    }
    m
}

fn trained() -> ClassifierPipeline {
    let runs = vec![
        (raw_run(25, &[(MetricId::CpuUser, 90.0), (MetricId::CpuSystem, 5.0)]), AppClass::Cpu),
        (raw_run(25, &[(MetricId::IoBi, 2500.0), (MetricId::IoBo, 2500.0)]), AppClass::Io),
        (raw_run(25, &[(MetricId::BytesOut, 3.0e7)]), AppClass::Net),
        (raw_run(25, &[(MetricId::CpuUser, 0.3)]), AppClass::Idle),
    ];
    ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap()
}

/// One frame as it travels on the stream: length prefix, then the body.
fn encoded(frame: &ControlFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    append_frame(&mut buf, frame);
    buf
}

/// Request `r` of a relay with `width` VMs: every VM's snapshot at the
/// `r`-th 5-second tick, so the guard accepts each one on cadence.
fn request(width: usize, r: usize) -> Vec<u8> {
    let mut batch = begin_batch(Vec::new());
    for node in 0..width {
        let mut frame = MetricFrame::zeroed();
        frame.set(MetricId::CpuUser, 80.0 + (node % 7) as f64);
        frame.set(MetricId::CpuSystem, 4.0 + (r % 3) as f64);
        batch.push(&Snapshot::new(NodeId(node as u32), 5 * r as u64, frame));
    }
    finish_batch(batch, None)
}

/// Reads one length-prefixed frame into `buf` (sized for the largest
/// expected reply) and returns it with its prefix, without allocating.
fn read_reply<'a>(stream: &mut TcpStream, buf: &'a mut [u8]) -> &'a [u8] {
    stream.read_exact(&mut buf[..4]).unwrap();
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    assert!(4 + len <= buf.len(), "reply of {len} bytes exceeds the reply buffer");
    stream.read_exact(&mut buf[4..4 + len]).unwrap();
    &buf[..4 + len]
}

/// Serves one session of `width`-frame requests on a warm one-shard
/// server and returns the allocation count of each measured window.
fn measured_windows(width: usize, warm_up: usize) -> Vec<u64> {
    let config = ServerConfig {
        shards: 1,
        session: SessionConfig {
            window: Some(WINDOW),
            frame_budget: u64::MAX,
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = ShardServer::bind("127.0.0.1:0", Arc::new(trained()), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let total = warm_up + WINDOWS * MEASURED;
    let requests: Vec<Vec<u8>> = (0..total).map(|r| request(width, r)).collect();
    let expected =
        encoded(&ControlFrame::VerdictBatch { statuses: vec![FrameDisposition::Accepted; width] });
    let mut reply = vec![0u8; 64 * 1024];

    stream.write_all(&encoded(&ControlFrame::Hello { session: 0, model_id: 0 })).unwrap();
    assert!(matches!(
        decode_control(&read_reply(&mut stream, &mut reply)[4..]),
        Ok(ControlFrame::Hello { .. })
    ));

    let mut serve = |req: &[u8]| {
        stream.write_all(req).unwrap();
        assert!(read_reply(&mut stream, &mut reply) == expected, "every frame is accepted");
    };
    // Warm-up: grows the shard's and the classifier's buffers to this
    // width, registers every node with the guard, interns the span
    // names and fills the vote window past its eviction steady state.
    for req in &requests[..warm_up] {
        serve(req);
    }
    // Every window must read exactly one allocation per request, so a
    // server allocation that recurs less often than once a window still
    // fails the window it lands in.
    let mut windows = Vec::with_capacity(WINDOWS);
    for window in requests[warm_up..].chunks(MEASURED) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for req in window {
            serve(req);
        }
        windows.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }

    stream.write_all(&encoded(&ControlFrame::Bye { reason: ByeReason::Normal })).unwrap();
    let _ = read_reply(&mut stream, &mut reply);
    drop(stream);
    server.shutdown();
    server.join().unwrap();
    windows
}

fn assert_one_allocation_per_request(width: usize, warm_up: usize) {
    let _serial = MEASURE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let windows = measured_windows(width, warm_up);
    assert_eq!(
        windows,
        [ALLOCATIONS_PER_REQUEST * MEASURED as u64; WINDOWS],
        "width {width}: allocations per window of {MEASURED} requests"
    );
}

#[test]
fn a_warm_128_frame_request_allocates_once() {
    // One request already pushes 128 labels through the 64-label window.
    assert_one_allocation_per_request(128, 16);
}

#[test]
fn a_warm_one_frame_request_allocates_once() {
    // The label deques stop growing once the window is full.
    assert_one_allocation_per_request(1, 2 * WINDOW);
}
