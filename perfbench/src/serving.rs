//! The socket side shared by the serving workloads: one `ShardServer`,
//! one client session shape, and the in-process reference every served
//! verdict is checked against.

use crate::spans::Spans;
use appclass_core::online::OnlineClassifier;
use appclass_core::{AppClass, ClassComposition, ClassifierPipeline};
use appclass_metrics::{FrameVerdict, GuardConfig, Snapshot};
use appclass_serve::{ClientConfig, ServeClient, ServeError, ServerConfig, ShardServer};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Server shard threads. With one generator thread this keeps the
/// benchmark's busy threads at two, no more than the core count it was
/// sized on.
pub const SHARDS: usize = 1;

/// Binds the sharded server on a loopback port.
pub fn bind(pipeline: Arc<ClassifierPipeline>) -> ShardServer {
    let config = ServerConfig { shards: SHARDS, ..ServerConfig::default() };
    ShardServer::bind("127.0.0.1:0", pipeline, config).expect("loopback bind cannot fail")
}

/// A verdict reduced to what must match bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Majority class index.
    pub class: u8,
    /// Confidence, as IEEE-754 bits.
    pub confidence_bits: u64,
}

/// Guard outcomes over a session, as the server acknowledged them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dispositions {
    /// Admitted untouched.
    pub accepted: u64,
    /// Admitted after repair.
    pub repaired: u64,
    /// Rejected by the guard.
    pub dropped: u64,
    /// Failed to decode, or shed unclassified.
    pub lost: u64,
}

/// What one served session produced.
#[derive(Debug, Clone)]
pub struct SessionOut {
    /// The verdict the server returned.
    pub verdict: Verdict,
    /// The composition behind it.
    pub composition: ClassComposition,
    /// When the verdict was in hand.
    pub verdict_at: Instant,
    /// Per-frame dispositions, summed.
    pub dispositions: Dispositions,
    /// Request round trips (one `stream_batch` call each), microseconds.
    pub requests_us: Vec<f64>,
}

/// One client session: connect (with handshake), stream `snaps` as
/// acknowledged `SnapshotBatch` requests of `width` frames, ask for the
/// verdict, say goodbye. With `spans`, each client call is recorded as
/// a span.
pub fn session(
    addr: SocketAddr,
    config: ClientConfig,
    snaps: &[Snapshot],
    width: usize,
    mut spans: Option<&mut Spans>,
) -> Result<SessionOut, ServeError> {
    let mut span = |name: &'static str, items: u64, t0: Instant| {
        if let Some(spans) = spans.as_mut() {
            spans.record(name, t0, Instant::now(), items);
        }
    };
    let t0 = Instant::now();
    let mut client = ServeClient::connect(addr, config)?;
    span("serve.connect", 0, t0);
    let mut dispositions = Dispositions::default();
    let mut requests_us = Vec::with_capacity(snaps.len().div_ceil(width));
    for chunk in snaps.chunks(width) {
        let t0 = Instant::now();
        let report = client.stream_batch(chunk, width)?;
        requests_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        span("serve.request", chunk.len() as u64, t0);
        dispositions.accepted += report.accepted;
        dispositions.repaired += report.repaired;
        dispositions.dropped += report.dropped;
        dispositions.lost += report.malformed + report.expired;
    }
    let t0 = Instant::now();
    let v = client.classify()?;
    let verdict_at = Instant::now();
    span("serve.classify", 0, t0);
    let t0 = Instant::now();
    client.bye()?;
    span("serve.bye", 0, t0);
    Ok(SessionOut {
        verdict: Verdict { class: v.class.index() as u8, confidence_bits: v.confidence.to_bits() },
        composition: v.composition,
        verdict_at,
        dispositions,
        requests_us,
    })
}

/// The in-process reference for a served session: the same snapshots
/// pushed in the same batches through an `OnlineClassifier` with the
/// server's guard policy.
pub fn reference(
    pipeline: &ClassifierPipeline,
    snaps: &[Snapshot],
    width: usize,
) -> (Verdict, Dispositions) {
    let mut oc = OnlineClassifier::with_guard(pipeline, None, GuardConfig::default());
    let mut d = Dispositions::default();
    for chunk in snaps.chunks(width) {
        let verdicts =
            oc.push_batch_guarded(chunk).expect("reference classification of clean frames");
        for v in verdicts {
            match v {
                FrameVerdict::Accepted => d.accepted += 1,
                FrameVerdict::Repaired { .. } => d.repaired += 1,
                FrameVerdict::Dropped { .. } => d.dropped += 1,
            }
        }
    }
    let class = oc.current_class().unwrap_or(AppClass::Idle);
    (Verdict { class: class.index() as u8, confidence_bits: oc.confidence().to_bits() }, d)
}
