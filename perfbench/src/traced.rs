//! The traced run: per-layer figures for one workload's own inputs.
//!
//! Three legs replay the workload's sessions against a fresh
//! `ShardServer`, interleaved session by session so drift cancels: (A)
//! untraced, (B) with the benchmark's client-side spans, (C) with those
//! spans plus the program's own tracing (`ClientConfig::tracer`, the
//! server registry scraped into a `TsStore`). B gives the serve-layer
//! figures; B against A is the benchmark's tracing cost, C against B the
//! program's. After each B session the same frames go through each
//! server-side layer in process (`layers`), and the request time per
//! frame is split into those layers plus the socket residual,
//! `serve.io_ns_per_frame`.

use crate::layers::{self, AdmitCounts, STAGE_SPANS};
use crate::report::Report;
use crate::serving;
use crate::spans::Spans;
use crate::stats::median;
use appclass_core::{ClassComposition, ClassifierPipeline};
use appclass_metrics::Snapshot;
use appclass_obs::{Tracer, TsStore};
use appclass_serve::ClientConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How far the in-process layers may exceed the request time they are
/// part of before the accounting is declared inconsistent.
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;

/// One workload's inputs, as the traced run replays them.
pub struct Inputs {
    /// Sessions (relay rounds or VM sessions).
    pub sessions: Vec<Vec<Snapshot>>,
    /// Frames per request.
    pub width: usize,
    /// Compositions the workload produced, for the cluster layers.
    pub comps: Vec<ClassComposition>,
    /// Palette application and seed per composition's VM.
    pub jobs: Vec<(usize, u64)>,
    /// `sim::runner::run_vm` times spent making the inputs.
    pub run_vm: Vec<Duration>,
}

/// Runs the traced legs and the layer pass for `budget`, adding every
/// per-layer metric to `report` and writing the spans under `out_dir`.
pub fn run(
    report: &mut Report,
    pipeline: &Arc<ClassifierPipeline>,
    inputs: &Inputs,
    budget: Duration,
    out_dir: &Path,
) {
    let n_sessions = inputs.sessions.len();
    assert!(n_sessions > 0, "a traced run needs inputs");
    let server = serving::bind(Arc::clone(pipeline));
    let addr = server.local_addr();
    let registry = server.observability().registry.clone();
    let tracer = Tracer::new(1 << 16);
    let mut store = TsStore::new(256);
    let references: Vec<_> =
        inputs.sessions.iter().map(|s| serving::reference(pipeline, s, inputs.width)).collect();

    // Legs A/B/C interleaved, and right after each leg-B session the
    // layer pass over the same frames, so the request times and the layer
    // times they are split into see the same host conditions.
    let mut spans_b = Spans::new();
    let mut spans_c = Spans::new();
    let mut layer = Spans::new();
    let mut counts = AdmitCounts::default();
    let mut req = [Vec::new(), Vec::new(), Vec::new()];
    let mut mismatches = 0u64;
    let mut failures = 0u64;
    let legs_end = Instant::now() + budget.mul_f64(0.9);
    let mut i = 0usize;
    while i < 3 * n_sessions.min(30) || Instant::now() < legs_end {
        let k = (i / 3) % n_sessions;
        let leg = i % 3;
        let snaps = &inputs.sessions[k];
        let result = match leg {
            0 => serving::session(addr, ClientConfig::default(), snaps, inputs.width, None),
            _ => {
                let (spans, config) = if leg == 1 {
                    (&mut spans_b, ClientConfig::default())
                } else {
                    (
                        &mut spans_c,
                        ClientConfig { tracer: Some(tracer.clone()), ..Default::default() },
                    )
                };
                let r = serving::session(addr, config, snaps, inputs.width, Some(&mut *spans));
                if leg == 1 {
                    layers::frame_path(&mut layer, pipeline, snaps, inputs.width, &mut counts);
                    layers::profile_pass(&mut layer, pipeline, snaps);
                } else {
                    store.scrape(&registry);
                }
                r
            }
        };
        match result {
            Ok(out) => {
                let (verdict, dispositions) = references[k];
                if out.verdict != verdict || out.dispositions != dispositions {
                    mismatches += 1;
                }
                req[leg].extend(out.requests_us);
            }
            Err(_) => failures += 1,
        }
        i += 1;
    }
    if mismatches > 0 || failures > 0 {
        report.fail(format!(
            "traced legs: {mismatches} verdicts differ from the reference, {failures} sessions failed"
        ));
    }
    let (a, b, c) = (median(&req[0]), median(&req[1]), median(&req[2]));
    report.add("bench.trace_overhead_pct", (b / a - 1.0) * 100.0, "%");
    report.add("obs.trace_overhead_pct", (c / b - 1.0) * 100.0, "%");

    let serve = spans_b.totals();
    let get = |name: &str| serve.get(name).copied().unwrap_or_default();
    report.add("serve.connect_us", get("serve.connect").mean_ns() / 1e3, "us");
    report.add("serve.classify_us", get("serve.classify").mean_ns() / 1e3, "us");
    report.add("serve.bye_us", get("serve.bye").mean_ns() / 1e3, "us");
    let request = get("serve.request");
    let request_ns_per_frame = request.total_ns as f64 / request.items.max(1) as f64;

    let cluster_migrations = layers::cluster_path(&mut layer, &inputs.comps, &inputs.jobs);

    let totals = layer.totals();
    let per_frame = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_item());
    let encode = per_frame("metrics.wire.encode");
    let decode = per_frame("metrics.wire.decode");
    let admit = per_frame("metrics.repair.admit");
    let stages: Vec<f64> = STAGE_SPANS.iter().map(|s| per_frame(s)).collect();
    let push = per_frame("core.online.push");
    let vote = push - admit - stages.iter().sum::<f64>();
    // Guard, stages and vote together are the push.
    let in_process = encode + decode + push;
    let io = request_ns_per_frame - in_process;
    let sum_ratio = in_process / request_ns_per_frame;
    report.add("metrics.wire.encode_ns_per_frame", encode, "ns");
    report.add("metrics.wire.decode_ns_per_frame", decode, "ns");
    report.add("metrics.repair.admit_ns_per_frame", admit, "ns");
    let frames = counts.frames.max(1) as f64;
    report.add("metrics.repair.repaired_ratio", counts.repaired as f64 / frames, "ratio");
    report.add("metrics.repair.dropped_ratio", counts.dropped as f64 / frames, "ratio");
    report.add("core.preprocess.ns_per_frame", stages[0], "ns");
    report.add("core.pca.ns_per_frame", stages[1], "ns");
    report.add("core.knn.ns_per_frame", stages[2], "ns");
    report.add("core.vote.ns_per_frame", vote, "ns");
    report.add("serve.request_ns_per_frame", request_ns_per_frame, "ns");
    report.add("serve.io_ns_per_frame", io, "ns");
    report.add("bench.layer_sum_ratio", sum_ratio, "ratio");
    if sum_ratio > 1.0 + LAYER_SUM_TOLERANCE {
        report.fail(format!(
            "in-process layers sum to {sum_ratio:.3} of the request time they are part of \
             (tolerance {LAYER_SUM_TOLERANCE})"
        ));
    }
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    report.add("core.online.new_us", mean("core.online.new") / 1e3, "us");
    report.add("core.profile_ms", mean("core.profile") / 1e6, "ms");
    let run_vm: Vec<f64> = inputs.run_vm.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    report.add("sim.run_vm_ms", run_vm.iter().sum::<f64>() / run_vm.len().max(1) as f64, "ms");
    report.add("cluster.score_ns", per_frame("cluster.score"), "ns");
    report.add("cluster.host_score_ns", mean("cluster.host_score"), "ns");
    report.add("cluster.place_us", mean("cluster.place") / 1e3, "us");
    report.add("cluster.tick_us", mean("cluster.tick") / 1e3, "us");
    report.add("cluster.migrations", cluster_migrations as f64, "count");
    report.provenance(
        "traced_legs",
        format!("{} sessions/leg, request p50 A {a:.2} us, B {b:.2} us, C {c:.2} us", i / 3),
    );

    server.shutdown();
    match server.join() {
        Ok(stats) => {
            report.add("serve.sessions_busy", stats.sessions_busy as f64, "count");
            report.add("serve.sessions_rejected", stats.sessions_rejected as f64, "count");
            report.add("serve.session_errors", stats.session_errors as f64, "count");
            report.add("serve.frames_malformed", stats.frames_malformed as f64, "count");
            report.add("serve.frames_dropped", stats.frames_dropped as f64, "count");
        }
        Err(e) => report.fail(format!("traced server did not join cleanly: {e}")),
    }

    for (name, spans) in [("legs-b", &spans_b), ("legs-c", &spans_c), ("layers", &layer)] {
        let path = out_dir.join(format!("spans-{name}.jsonl"));
        if let Err(e) = spans.write_jsonl(&path) {
            report.fail(format!("writing {}: {e}", path.display()));
        }
    }
    report.provenance("spans_dir", out_dir.display().to_string());
}
