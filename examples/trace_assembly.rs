//! One distributed trace, assembled from both sides of the wire: a
//! traced client streams a workload's telemetry to a loopback server,
//! the server adopts the propagated trace id for its classify and stage
//! spans, and a [`TraceAssembler`] merges the two processes' span dumps
//! into a single tree printed as JSONL.
//!
//! ```text
//! cargo run --release --example trace_assembly
//! ```
//!
//! The check.sh smoke step greps this output for client and server
//! spans under one `trace=` id, so the example doubles as the
//! end-to-end trace-continuity proof outside the test suite.
//!
//! [`TraceAssembler`]: appclass::obs::TraceAssembler

use appclass::expected_class;
use appclass::obs::{SpanDump, TraceAssembler, Tracer};
use appclass::prelude::*;
use appclass::serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
use appclass::sim::runner::{run_batch, run_spec};
use appclass::sim::workload::registry::training_specs;
use appclass::{metrics::NodeId, metrics::Snapshot};
use std::sync::Arc;

fn main() {
    // Train the paper pipeline on the five training applications.
    let training = training_specs();
    let runs = run_batch(&training, 42);
    let labelled: Vec<(Matrix, AppClass)> = runs
        .iter()
        .zip(&training)
        .map(|(rec, spec)| {
            (rec.pool.sample_matrix(rec.node).unwrap(), expected_class(spec.expected))
        })
        .collect();
    let pipeline =
        Arc::new(ClassifierPipeline::train(&labelled, &PipelineConfig::paper()).unwrap());

    let server =
        ShardServer::bind("127.0.0.1:0", Arc::clone(&pipeline), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A traced client: every frame carries the trace extension, so the
    // server's session spans adopt the same trace id.
    let tracer = Tracer::new(8192);
    let config = ClientConfig { tracer: Some(tracer.clone()), ..ClientConfig::default() };
    let mut client = ServeClient::connect(addr, config).expect("connect");
    let trace_id = client.trace_id().expect("traced client mints a trace id");

    let rec = run_spec(&training[0], NodeId(70), 4242);
    let snaps: Vec<Snapshot> =
        rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect();
    client.stream_snapshots(&snaps).expect("stream");
    let verdict = client.classify().expect("classify");
    client.bye().expect("bye");

    println!(
        "trace={trace_id:#018x} workload={} verdict={} (confidence {:.3}, echo {})",
        training[0].name,
        verdict.class,
        verdict.confidence,
        match verdict.trace {
            Some(t) if t == trace_id => "ok",
            _ => "MISSING",
        },
    );

    let obs = server.observability().clone();
    server.shutdown();
    server.join().unwrap();

    // Merge both processes: the server's spans graft under the client's
    // classify span, reconstructing the cross-process request tree.
    let client_classify = tracer
        .recent(8192)
        .into_iter()
        .find(|s| s.trace == Some(trace_id) && s.name == "client_classify")
        .expect("client classify span recorded");
    let mut asm = TraceAssembler::new();
    asm.add_dump(SpanDump::from_tracer("client", &tracer, trace_id, None, 8192));
    asm.add_dump(SpanDump::from_tracer(
        "server",
        &obs.tracer,
        trace_id,
        Some(client_classify.id),
        8192,
    ));
    println!("\nassembled spans (process, depth-indented name, duration):");
    print!("{}", asm.to_jsonl());
}
