//! The in-process half of a traced run: a workload's own recorded inputs
//! sent through each layer's public functions, one span per call.
//!
//! Server-side layers cannot be timed from outside the server without
//! adding tracing to it, so each is timed here on the same frames, in
//! the same batch widths, that the workload put on the wire: encode and
//! decode (`metrics::wire`), guard admission (`metrics::repair`), each
//! classifier stage (`core`), the online classifier's batch push (whose
//! remainder after guard and stages is the vote), and the cluster
//! engine and controller on the compositions the workload produced.

use crate::inputs::palette;
use crate::spans::Spans;
use appclass_cluster::{
    placement_order, ClassAwarePolicy, ClusterController, ControllerConfig, HostSpec,
    PlacementEngine,
};
use appclass_core::online::OnlineClassifier;
use appclass_core::{ClassComposition, ClassifierPipeline};
use appclass_linalg::Matrix;
use appclass_metrics::wire::{self, ControlFrameRef};
use appclass_metrics::{
    ControlFrame, FrameDisposition, FrameGuard, FrameVerdict, GuardConfig, NodeId, Snapshot,
    METRIC_COUNT,
};
use appclass_sim::vm::VirtualMachine;
use std::hint::black_box;
use std::time::Instant;

/// Span names of the three classifier stages, in chain order.
pub const STAGE_SPANS: [&str; 3] = ["core.preprocess", "core.pca", "core.knn"];

/// Guard outcomes seen by the layer pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitCounts {
    /// Frames admitted.
    pub frames: u64,
    /// Frames repaired on admission.
    pub repaired: u64,
    /// Frames the guard dropped.
    pub dropped: u64,
}

/// Sends one session's frames through every frame-path layer in
/// requests of `width`, recording a span per layer call.
pub fn frame_path(
    spans: &mut Spans,
    pipeline: &ClassifierPipeline,
    snaps: &[Snapshot],
    width: usize,
    counts: &mut AdmitCounts,
) {
    let n = snaps.len() as u64;

    // metrics.wire encode: the client's datagrams and request envelope,
    // and the server's acknowledgement.
    let t = Instant::now();
    let mut bodies = Vec::new();
    for chunk in snaps.chunks(width) {
        let wires: Vec<Vec<u8>> = chunk.iter().map(|s| wire::encode(s).to_vec()).collect();
        bodies.push(wire::encode_control(&ControlFrame::SnapshotBatch { wires, ctx: None }));
        let statuses = vec![FrameDisposition::Accepted; chunk.len()];
        black_box(wire::encode_control(&ControlFrame::VerdictBatch { statuses }));
    }
    spans.record("metrics.wire.encode", t, Instant::now(), n);

    // metrics.wire decode: the server's zero-copy envelope decode and
    // each datagram inside it.
    let t = Instant::now();
    let mut decoded = Vec::with_capacity(snaps.len());
    for body in &bodies {
        match wire::decode_control_borrowed(body).expect("benchmark frames decode") {
            ControlFrameRef::SnapshotBatch { wires, .. } => {
                for w in wires {
                    decoded.push(wire::decode(w).expect("benchmark datagrams decode"));
                }
            }
            other => panic!("encoded a SnapshotBatch, decoded {:?}", other.to_owned_frame().name()),
        }
    }
    spans.record("metrics.wire.decode", t, Instant::now(), n);
    assert_eq!(decoded.as_slice(), snaps, "wire round trip must be lossless");

    // metrics.repair: the guard the server runs ahead of classification.
    let mut admitted: Vec<Vec<f64>> = Vec::with_capacity(snaps.len().div_ceil(width));
    let mut guard = FrameGuard::new(GuardConfig::default());
    let t = Instant::now();
    for chunk in decoded.chunks(width) {
        let mut rows = Vec::with_capacity(chunk.len() * METRIC_COUNT);
        for s in chunk {
            let a = guard.admit(s);
            match a.verdict {
                FrameVerdict::Accepted => {}
                FrameVerdict::Repaired { .. } => counts.repaired += 1,
                FrameVerdict::Dropped { .. } => counts.dropped += 1,
            }
            if let Some(frame) = a.frame {
                rows.extend_from_slice(frame.as_slice());
            }
        }
        admitted.push(rows);
    }
    spans.record("metrics.repair.admit", t, Instant::now(), n);
    counts.frames += n;

    // core stages, as the server runs them: every request's admitted
    // rows as one matrix through `Stage::transform_into` (a width-1
    // request is a one-row matrix). Stage-major, one span per stage over
    // the session, so clock reads stay out of per-frame figures.
    let mut mats: Vec<Matrix> = admitted
        .into_iter()
        .filter(|rows| !rows.is_empty())
        .map(|rows| Matrix::from_vec(rows.len() / METRIC_COUNT, METRIC_COUNT, rows))
        .collect::<Result<_, _>>()
        .expect("full-width rows");
    let rows: usize = mats.iter().map(Matrix::rows).sum();
    let mut out = Matrix::zeros(0, 0);
    for (k, stage) in pipeline.full_stages().iter().enumerate() {
        let t = Instant::now();
        for m in mats.iter_mut() {
            stage.transform_into(m, &mut out).expect("stage over admitted rows");
            std::mem::swap(m, &mut out);
        }
        spans.record(STAGE_SPANS[k], t, Instant::now(), rows as u64);
    }
    black_box(&mats);

    // core.online: the session classifier's construction and the batch
    // push (guard + stages + vote) the server runs per request.
    let t = Instant::now();
    let mut oc = OnlineClassifier::with_guard(pipeline, None, GuardConfig::default());
    spans.record("core.online.new", t, Instant::now(), 1);
    let t = Instant::now();
    for chunk in snaps.chunks(width) {
        black_box(oc.push_batch_guarded(chunk).expect("online push of clean frames"));
    }
    spans.record("core.online.push", t, Instant::now(), n);
}

/// The whole per-VM classifier pass (construction, every push, the
/// verdict) as one span: what profiling one VM costs.
pub fn profile_pass(spans: &mut Spans, pipeline: &ClassifierPipeline, snaps: &[Snapshot]) {
    let t = Instant::now();
    let mut oc = OnlineClassifier::with_guard(pipeline, None, GuardConfig::default());
    for s in snaps {
        black_box(oc.push_guarded(s).expect("online push of clean frames"));
    }
    black_box((oc.composition(), oc.confidence()));
    spans.record("core.profile", t, Instant::now(), 1);
}

/// Hosts in the cluster pass.
pub const CLUSTER_HOSTS: usize = 32;
/// Fleet-seconds the cluster pass ticks through.
const CLUSTER_TICKS: u64 = 300;

/// Sends a workload's compositions through the placement engine and a
/// controller: `PlacementEngine::score` of each composition against
/// hosts packed with earlier ones, then a controller fleet placed from
/// them (`place`), scored (`host_score`) and run (`tick`). `jobs[i]`
/// names the palette application and seed VM `i` runs. Returns the
/// controller's migrations.
pub fn cluster_path(spans: &mut Spans, comps: &[ClassComposition], jobs: &[(usize, u64)]) -> u64 {
    let engine = PlacementEngine::new();
    let spec = HostSpec::paper();
    let mut hosts: Vec<Vec<ClassComposition>> = vec![Vec::new(); CLUSTER_HOSTS];
    for (i, c) in comps.iter().enumerate().take(CLUSTER_HOSTS * (spec.slots - 1)) {
        hosts[i % CLUSTER_HOSTS].push(*c);
    }
    for c in comps {
        let t = Instant::now();
        for h in &hosts {
            black_box(engine.score(h, *c, &spec));
        }
        spans.record("cluster.score", t, Instant::now(), hosts.len() as u64);
    }

    let specs = palette();
    let n = comps.len().min(jobs.len()).min(CLUSTER_HOSTS * spec.slots);
    let mut ctl = ClusterController::new(CLUSTER_HOSTS, spec, engine, ControllerConfig::default());
    let mut policy = ClassAwarePolicy::new(engine);
    for idx in placement_order(&comps[..n], &spec.capacity) {
        let (spec_idx, seed) = jobs[idx];
        let s = &specs[spec_idx % specs.len()];
        let vm = VirtualMachine::new((s.vm_config)(NodeId(idx as u32 + 1)), (s.build)(), seed);
        let t = Instant::now();
        let placed = ctl.place(vm, comps[idx], &mut policy);
        spans.record("cluster.place", t, Instant::now(), 1);
        assert!(placed.is_some(), "the pass never places more VMs than slots");
    }
    for _ in 0..CLUSTER_TICKS {
        for h in 0..CLUSTER_HOSTS {
            let t = Instant::now();
            black_box(ctl.host_score(h));
            spans.record("cluster.host_score", t, Instant::now(), 1);
        }
        if ctl.all_finished() {
            break;
        }
        let t = Instant::now();
        ctl.tick();
        spans.record("cluster.tick", t, Instant::now(), 1);
    }
    ctl.migrations()
}
