//! The zero-copy decode contract: `decode_control_borrowed` must be
//! bit-identical to the allocating `decode_control` on every input —
//! accepted or rejected — and the server built on it must produce
//! verdicts bit-identical to the pipeline run directly on all five
//! training workloads.

mod common;

use appclass::metrics::wire::{self, ControlFrameRef};
use appclass::metrics::{ControlFrame, NodeId, Snapshot};
use appclass::prelude::{AppClass, OnlineClassifier};
use appclass::serve::{ClientConfig, ServeClient, ServerConfig, ShardServer};
use appclass::sim::runner::run_spec;
use appclass::sim::workload::registry::training_specs;
use appclass_obs::TraceContext;
use proptest::prelude::*;
use std::sync::Arc;

fn ctx_strategy() -> impl Strategy<Value = Option<TraceContext>> {
    prop_oneof![
        Just(None),
        (any::<u64>(), any::<u64>(), any::<u8>()).prop_map(|(trace_id, parent_span, flags)| Some(
            TraceContext { trace_id, parent_span, flags }
        )),
    ]
}

/// Arbitrary snapshot payload bytes: anything from empty to the wire
/// size, so the generator covers truncated, exact and garbage datagrams
/// alike (the control envelope carries them opaquely either way).
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=wire::WIRE_SIZE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: any encodable snapshot/batch frame decodes borrowed
    /// to exactly the frame the owning decoder returns.
    #[test]
    fn borrowed_decode_is_bit_identical_on_valid_frames(
        payloads in proptest::collection::vec(payload_strategy(), 1..8),
        ctx in ctx_strategy(),
        as_batch in any::<bool>(),
    ) {
        let frame = if as_batch {
            ControlFrame::SnapshotBatch { wires: payloads, ctx }
        } else {
            ControlFrame::Snapshot { wire: payloads.into_iter().next().unwrap(), ctx }
        };
        let bytes = wire::encode_control(&frame);
        let owned = wire::decode_control(&bytes).expect("encoder output must decode");
        let borrowed = wire::decode_control_borrowed(&bytes).expect("borrowed path must agree");
        prop_assert_eq!(borrowed.to_owned_frame(), owned);
        // And the borrowed payloads really alias the input buffer.
        match &borrowed {
            ControlFrameRef::Snapshot { wire: w, .. } => {
                let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
                prop_assert!(range.contains(&(w.as_ptr() as usize)));
            }
            ControlFrameRef::SnapshotBatch { wires, .. } => {
                let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
                for w in wires.iter().filter(|w| !w.is_empty()) {
                    prop_assert!(range.contains(&(w.as_ptr() as usize)));
                }
            }
            ControlFrameRef::Other(_) => prop_assert!(false, "snapshot kinds must borrow"),
        }
    }

    /// Agreement under corruption: flip any byte (or truncate anywhere)
    /// and the two decoders accept/reject identically, returning equal
    /// frames whenever both accept.
    #[test]
    fn borrowed_decode_agrees_with_owning_decode_under_corruption(
        payloads in proptest::collection::vec(payload_strategy(), 1..5),
        ctx in ctx_strategy(),
        as_batch in any::<bool>(),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
        cut_at in any::<prop::sample::Index>(),
    ) {
        let frame = if as_batch {
            ControlFrame::SnapshotBatch { wires: payloads, ctx }
        } else {
            ControlFrame::Snapshot { wire: payloads.into_iter().next().unwrap(), ctx }
        };
        let clean = wire::encode_control(&frame);

        let mut flipped = clean.to_vec();
        let at = flip_at.index(flipped.len());
        flipped[at] ^= 1 << flip_bit;
        let owned = wire::decode_control(&flipped);
        let borrowed = wire::decode_control_borrowed(&flipped);
        prop_assert_eq!(owned.is_err(), borrowed.is_err(), "flip at byte {} disagreed", at);
        if let (Ok(o), Ok(b)) = (owned, borrowed) {
            prop_assert_eq!(b.to_owned_frame(), o);
        }

        let cut = cut_at.index(clean.len());
        let truncated = &clean[..cut];
        let owned = wire::decode_control(truncated);
        let borrowed = wire::decode_control_borrowed(truncated);
        prop_assert_eq!(owned.is_err(), borrowed.is_err(), "truncation at {} disagreed", cut);
        if let (Ok(o), Ok(b)) = (owned, borrowed) {
            prop_assert_eq!(b.to_owned_frame(), o);
        }
    }
}

/// End-to-end bit-identity on all five training workload seeds: one
/// snapshot stream per workload, served over the borrowed decode and the
/// readiness loop, against an `OnlineClassifier` run directly on the
/// same stream. Classes, confidence bits, composition bits and guard
/// health must all match exactly — the server must be unobservable in
/// the verdicts.
#[test]
fn served_verdicts_match_the_pipeline_run_directly_on_all_workloads() {
    let pipeline = Arc::new(common::trained_pipeline());
    let server = ShardServer::bind(
        "127.0.0.1:0",
        Arc::clone(&pipeline),
        ServerConfig { shards: 2, ..ServerConfig::default() },
    )
    .unwrap();

    for (i, spec) in training_specs().iter().enumerate() {
        let rec = run_spec(spec, NodeId(40 + i as u32), 7000 + i as u64);
        let snaps: Vec<Snapshot> =
            rec.pool.snapshots().iter().filter(|s| s.node == rec.node).cloned().collect();

        let mut client =
            ServeClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
        client.stream_snapshots(&snaps).unwrap();
        let served = client.classify().unwrap();
        let health = client.health().unwrap();
        client.bye().unwrap();

        let mut direct = OnlineClassifier::new(&pipeline);
        for snap in &snaps {
            direct.push_guarded(snap).unwrap();
        }
        let class = direct.current_class().unwrap_or(AppClass::Idle);
        assert_eq!(served.class, class, "workload {} diverged in class", spec.name);
        assert_eq!(
            served.confidence.to_bits(),
            direct.confidence().to_bits(),
            "workload {} diverged in confidence bits",
            spec.name
        );
        let composition = direct.composition();
        for class in AppClass::ALL {
            assert_eq!(
                served.composition.fraction(class).to_bits(),
                composition.fraction(class).to_bits(),
                "workload {} diverged in composition ({class:?})",
                spec.name
            );
        }
        assert_eq!(&health, direct.telemetry(), "workload {}: guard health differs", spec.name);
    }

    server.shutdown();
    assert_eq!(server.join().unwrap().session_errors, 0);
}
